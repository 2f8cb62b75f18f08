//! A hermetic single-threaded event loop — the reactor under the serving
//! layer's flush loop (`tsvd-serve`'s `EmbeddingServer`), built with
//! nothing but `std`. Network connections do not use it: each is served
//! by one blocking loop on its own thread.
//!
//! There is no tokio in this workspace (and no external crates at all), but
//! a request-oriented serving front still needs *reactive* control flow:
//! "flush the pending batch when it reaches N events **or** when its oldest
//! event is W milliseconds old, whichever comes first". This module provides
//! exactly that shape and nothing more:
//!
//! * [`Mailbox`] — a cloneable, unbounded sender; any thread can post
//!   messages;
//! * [`EventLoop`] — the single-threaded reactor that owns the receiving
//!   end. [`EventLoop::run`] blocks on the mailbox with a timeout equal to
//!   the nearest armed timer deadline, delivering [`Event::Message`] and
//!   [`Event::Timer`] values to a handler closure in a single thread — so
//!   handler state needs no locks;
//! * [`Timers`] — keyed one-shot deadlines ([`Instant`]-based). Re-arming a
//!   key replaces its deadline; a fired or cancelled key is disarmed. The
//!   handler gets `&mut Timers` on every event, which is how count-triggered
//!   logic cancels a pending deadline flush and vice versa.
//!
//! Ordering guarantees: messages are delivered in send order; a timer fires
//! only when its deadline has passed *and* every message sent before the
//! deadline was delivered first (due timers are checked before each mailbox
//! wait). When every mailbox clone is dropped, remaining armed timers still
//! fire at their deadlines; the loop returns once no message can ever
//! arrive and no timer is armed, or when the handler returns [`Flow::Stop`].
//!
//! CPU-heavy work inside a handler should be dispatched through
//! [`crate::pool`] — the reactor thread is for sequencing, not for number
//! crunching.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// What the reactor delivers to the handler.
#[derive(Debug)]
pub enum Event<M> {
    /// A message posted through a [`Mailbox`].
    Message(M),
    /// The timer armed under this key reached its deadline.
    Timer(u64),
}

/// Handler verdict: keep running or shut the loop down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep processing events.
    Continue,
    /// Return from [`EventLoop::run`] immediately.
    Stop,
}

/// Cloneable sending half of an event loop's mailbox.
#[derive(Debug)]
pub struct Mailbox<M> {
    tx: mpsc::Sender<M>,
}

// Manual impl: `M` itself need not be `Clone` for the handle to be.
impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Self {
        Mailbox {
            tx: self.tx.clone(),
        }
    }
}

impl<M> Mailbox<M> {
    /// Post a message; returns `false` if the event loop is gone.
    pub fn send(&self, msg: M) -> bool {
        self.tx.send(msg).is_ok()
    }
}

/// Keyed one-shot deadlines owned by an event loop.
#[derive(Debug, Default)]
pub struct Timers {
    armed: HashMap<u64, Instant>,
}

impl Timers {
    /// Arm (or re-arm, replacing the deadline of) timer `key`.
    pub fn arm(&mut self, key: u64, deadline: Instant) {
        self.armed.insert(key, deadline);
    }

    /// Arm timer `key` to fire `delay` from now.
    pub fn arm_after(&mut self, key: u64, delay: Duration) {
        self.arm(key, Instant::now() + delay);
    }

    /// Disarm timer `key`; returns whether it was armed.
    pub fn cancel(&mut self, key: u64) -> bool {
        self.armed.remove(&key).is_some()
    }

    /// Whether timer `key` is currently armed.
    pub fn is_armed(&self, key: u64) -> bool {
        self.armed.contains_key(&key)
    }

    /// The earliest armed `(key, deadline)`, ties broken by smaller key so
    /// firing order is deterministic.
    fn next(&self) -> Option<(u64, Instant)> {
        self.armed
            .iter()
            .map(|(&k, &d)| (k, d))
            .min_by_key(|&(k, d)| (d, k))
    }

    /// Pop one due timer (earliest deadline first), if any.
    fn pop_due(&mut self, now: Instant) -> Option<u64> {
        let (key, deadline) = self.next()?;
        if deadline <= now {
            self.armed.remove(&key);
            Some(key)
        } else {
            None
        }
    }
}

/// The single-threaded reactor: a mailbox receiver plus [`Timers`].
#[derive(Debug)]
pub struct EventLoop<M> {
    rx: mpsc::Receiver<M>,
    timers: Timers,
}

impl<M> EventLoop<M> {
    /// A fresh loop and the first handle to its mailbox.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Mailbox<M>, EventLoop<M>) {
        let (tx, rx) = mpsc::channel();
        (
            Mailbox { tx },
            EventLoop {
                rx,
                timers: Timers::default(),
            },
        )
    }

    /// Arm a timer before the loop starts (e.g. a periodic bootstrap tick).
    pub fn timers(&mut self) -> &mut Timers {
        &mut self.timers
    }

    /// Run the reactor on the current thread until the handler returns
    /// [`Flow::Stop`], or until every mailbox is dropped and no timer is
    /// armed (see module docs for the delivery guarantees).
    pub fn run<H>(mut self, mut handler: H)
    where
        H: FnMut(&mut Timers, Event<M>) -> Flow,
    {
        let mut disconnected = false;
        loop {
            // Deliver every due timer before blocking again.
            while let Some(key) = self.timers.pop_due(Instant::now()) {
                if handler(&mut self.timers, Event::Timer(key)) == Flow::Stop {
                    return;
                }
            }
            let event = match self.timers.next() {
                None => {
                    if disconnected {
                        return; // nothing can ever happen again
                    }
                    match self.rx.recv() {
                        Ok(m) => Event::Message(m),
                        Err(_) => return,
                    }
                }
                Some((_, deadline)) => {
                    if disconnected {
                        // No messages can arrive: just wait out the deadline.
                        let now = Instant::now();
                        if deadline > now {
                            std::thread::sleep(deadline - now);
                        }
                        continue; // due-timer drain above delivers it
                    }
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(timeout) {
                        Ok(m) => Event::Message(m),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => {
                            disconnected = true;
                            continue;
                        }
                    }
                }
            };
            if handler(&mut self.timers, event) == Flow::Stop {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_delivered_in_send_order() {
        let (tx, ev) = EventLoop::new();
        for i in 0..100 {
            assert!(tx.send(i));
        }
        drop(tx);
        let mut seen = Vec::new();
        ev.run(|_, e| {
            if let Event::Message(m) = e {
                seen.push(m);
            }
            Flow::Continue
        });
        assert_eq!(seen, (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn stop_halts_immediately() {
        let (tx, ev) = EventLoop::new();
        for i in 0..10 {
            tx.send(i);
        }
        let mut count = 0;
        ev.run(|_, _| {
            count += 1;
            if count == 3 {
                Flow::Stop
            } else {
                Flow::Continue
            }
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn timer_fires_after_deadline_even_when_disconnected() {
        let (tx, ev) = EventLoop::new();
        tx.send(());
        drop(tx);
        let start = Instant::now();
        let delay = Duration::from_millis(20);
        let mut fired = false;
        ev.run(|timers, e| match e {
            Event::Message(()) => {
                timers.arm_after(7, delay);
                Flow::Continue
            }
            Event::Timer(key) => {
                assert_eq!(key, 7);
                fired = true;
                Flow::Stop
            }
        });
        assert!(fired);
        assert!(start.elapsed() >= delay, "timer fired early");
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let (tx, ev) = EventLoop::new();
        tx.send(1);
        tx.send(2);
        drop(tx);
        let mut timer_events = 0;
        ev.run(|timers, e| {
            match e {
                Event::Message(1) => timers.arm_after(1, Duration::from_millis(5)),
                Event::Message(2) => {
                    assert!(timers.cancel(1));
                    assert!(!timers.is_armed(1));
                }
                Event::Timer(_) => timer_events += 1,
                _ => {}
            }
            Flow::Continue
        });
        assert_eq!(timer_events, 0, "cancelled timer fired");
    }

    #[test]
    fn rearming_replaces_deadline() {
        let (tx, ev) = EventLoop::new();
        tx.send(());
        drop(tx);
        let start = Instant::now();
        let mut fired_at = None;
        ev.run(|timers, e| match e {
            Event::Message(()) => {
                timers.arm_after(3, Duration::from_millis(500));
                timers.arm_after(3, Duration::from_millis(10)); // replaces
                Flow::Continue
            }
            Event::Timer(3) => {
                fired_at = Some(start.elapsed());
                Flow::Stop
            }
            Event::Timer(_) => Flow::Continue,
        });
        let at = fired_at.expect("timer fired");
        assert!(at < Duration::from_millis(400), "old deadline used: {at:?}");
    }

    #[test]
    fn messages_from_other_threads_interleave_with_timers() {
        let (tx, ev) = EventLoop::new();
        let sender = std::thread::spawn(move || {
            for i in 0..20 {
                tx.send(i);
                std::thread::sleep(Duration::from_millis(1));
            }
            // Mailbox drops here; the loop must drain and exit.
        });
        let mut messages = 0;
        let mut ticks = 0;
        let mut ev = ev;
        ev.timers().arm_after(0, Duration::from_millis(2));
        ev.run(|timers, e| {
            match e {
                Event::Message(_) => messages += 1,
                Event::Timer(0) => {
                    ticks += 1;
                    if ticks < 50 {
                        timers.arm_after(0, Duration::from_millis(2));
                    }
                }
                Event::Timer(_) => {}
            }
            Flow::Continue
        });
        sender.join().unwrap();
        assert_eq!(messages, 20);
        assert!(ticks >= 1, "periodic tick never fired");
    }

    #[test]
    fn loop_exits_when_idle_and_disconnected() {
        let (tx, ev) = EventLoop::<u8>::new();
        drop(tx);
        ev.run(|_, _| Flow::Continue); // must return, not hang
    }

    #[test]
    fn same_deadline_timers_fire_in_key_order() {
        // Ties on the deadline must break deterministically by smaller
        // key, so the firing order is reproducible.
        let (tx, ev) = EventLoop::new();
        tx.send(());
        drop(tx);
        let mut fired = Vec::new();
        ev.run(|timers, e| {
            match e {
                Event::Message(()) => {
                    let deadline = Instant::now() + Duration::from_millis(5);
                    for key in [9u64, 1, 5, 3] {
                        timers.arm(key, deadline);
                    }
                }
                Event::Timer(key) => fired.push(key),
            }
            Flow::Continue
        });
        assert_eq!(fired, vec![1, 3, 5, 9], "tie-break must be by key");
    }

    #[test]
    fn multiple_timers_fire_in_deadline_order_after_mailbox_drop() {
        // Armed timers survive every mailbox handle being dropped and
        // still fire, earliest deadline first; the loop exits once the
        // last one has fired.
        let (tx, ev) = EventLoop::new();
        tx.send(());
        drop(tx);
        let start = Instant::now();
        let mut fired = Vec::new();
        ev.run(|timers, e| {
            match e {
                Event::Message(()) => {
                    timers.arm_after(30, Duration::from_millis(30));
                    timers.arm_after(10, Duration::from_millis(10));
                    timers.arm_after(20, Duration::from_millis(20));
                }
                Event::Timer(key) => fired.push(key),
            }
            Flow::Continue
        });
        assert_eq!(fired, vec![10, 20, 30]);
        assert!(start.elapsed() >= Duration::from_millis(30), "fired early");
    }

    #[test]
    fn rearm_inside_timer_handler_keeps_disconnected_loop_alive() {
        // A timer handler re-arming after disconnect must keep ticking
        // (the sleep-out path), and cancelling must let the loop exit.
        let (tx, ev) = EventLoop::<u8>::new();
        drop(tx);
        let mut ev = ev;
        ev.timers().arm_after(1, Duration::from_millis(2));
        let mut ticks = 0;
        ev.run(|timers, e| {
            if let Event::Timer(1) = e {
                ticks += 1;
                if ticks < 4 {
                    timers.arm_after(1, Duration::from_millis(2));
                }
            }
            Flow::Continue
        });
        assert_eq!(ticks, 4);
    }
}

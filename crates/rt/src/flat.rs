//! A flat `u32 → f64` hash table: the sparse vectors of a PPR push state.
//!
//! Every push, replay probe and checkpoint decode of the forward-push
//! states is a lookup in one of these, and a subset holds two per source
//! and direction. [`FlatMap`] is the one map type built for that load:
//!
//! - **open addressing, linear probing**, over a power-of-two number of
//!   slots, with keys and values in two parallel arrays (`Vec<u32>`,
//!   `Vec<f64>`; 12 bytes a slot, no control byte). `u32::MAX` marks a
//!   free slot, so it is the one key no entry may have;
//! - **a fixed multiplicative (Fibonacci) hash**: the top bits of
//!   `key · ⌊2³²/φ⌋`, one multiply where std's keyed SipHash is a few
//!   dozen instructions per lookup, and the same slot order in every
//!   process. The keys are node ids below the graph's node count. A writer
//!   who can insert edges could pick a support of colliding ids, but that
//!   costs probe length, never a wrong value, and the same writer can
//!   already make every push expensive with a hub; a keyed hash would
//!   guard nothing the open write path does not give away;
//! - **backward-shift deletion**, so no tombstones: a push removes the
//!   residue it spreads, and a table with tombstones would have to be
//!   swept;
//! - **growth at 3/4 load** (to double), and no shrinking, like
//!   `std::collections::HashMap`.
//!
//! Iteration goes over the slots 64 at a time: a branch-free pass builds
//! the chunk's occupancy mask, then the set bits are walked, so the cost
//! per entry does not hinge on predicting which slots are full.
//!
//! # Codecs
//!
//! Both codecs write the key-sorted run, whatever the slot order: `rt::bin`
//! a `u32` count then `(u32, f64)` pairs in strictly ascending key order,
//! and `rt::json` an object whose keys are the decimal node ids in
//! ascending order. Decode accepts only that form: a key out of order or
//! repeated, the key `u32::MAX`, or a count the remaining bytes cannot
//! hold is a [`BinError`].

use crate::bin::{BinError, Cursor, Decode, Encode};
use crate::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// The key of a free slot; no entry may have it.
const EMPTY: u32 = u32::MAX;

/// Slots of the first allocation.
const MIN_CAPACITY: usize = 8;

/// `⌊2³²/φ⌋`, the Fibonacci multiplier.
const FIB: u32 = 0x9E37_79B9;

/// Open-addressing `u32 → f64` map (see the module docs).
#[derive(Clone, Default)]
pub struct FlatMap {
    keys: Vec<u32>,
    vals: Vec<f64>,
    len: usize,
    /// `32 − log2(slots)`: the home slot of `k` is `(k · FIB) >> shift`.
    shift: u32,
}

impl FlatMap {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> FlatMap {
        FlatMap::default()
    }

    /// An empty map that holds `n` entries without growing.
    fn with_capacity(n: usize) -> FlatMap {
        let mut map = FlatMap::new();
        if n > 0 {
            let mut slots = MIN_CAPACITY;
            while n * 4 > slots * 3 {
                slots *= 2;
            }
            map.rehash(slots);
        }
        map
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `k`, if any.
    #[inline]
    pub fn get(&self, k: u32) -> Option<f64> {
        if self.len == 0 || k == EMPTY {
            return None;
        }
        self.find(k).ok().map(|i| self.vals[i])
    }

    /// The value at `k`, in place, if any.
    #[inline]
    pub fn get_mut(&mut self, k: u32) -> Option<&mut f64> {
        if self.len == 0 || k == EMPTY {
            return None;
        }
        let i = self.find(k).ok()?;
        Some(&mut self.vals[i])
    }

    /// The value at `k`, in place, inserted as `0.0` if absent.
    ///
    /// # Panics
    /// If `k` is `u32::MAX`.
    #[inline]
    pub fn slot(&mut self, k: u32) -> &mut f64 {
        let i = match self.place(k) {
            Ok(i) => i,
            Err(i) => self.occupy(i, k, 0.0),
        };
        &mut self.vals[i]
    }

    /// Set `k` to `v`, returning the value it replaced.
    ///
    /// # Panics
    /// If `k` is `u32::MAX`.
    pub fn insert(&mut self, k: u32, v: f64) -> Option<f64> {
        match self.place(k) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], v)),
            Err(i) => {
                self.occupy(i, k, v);
                None
            }
        }
    }

    /// Remove `k`, returning its value. The entries after it in its probe
    /// cluster shift back over the hole, so no tombstone is left.
    #[inline]
    pub fn remove(&mut self, k: u32) -> Option<f64> {
        if self.len == 0 || k == EMPTY {
            return None;
        }
        let mut hole = self.find(k).ok()?;
        let v = self.vals[hole];
        let mask = self.keys.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let kj = self.keys[j];
            if kj == EMPTY {
                break;
            }
            // `kj` may move into the hole iff the hole lies on its probe
            // path, i.e. no farther from `j` than `kj`'s home slot is.
            if (j.wrapping_sub(self.home(kj)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = kj;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(v)
    }

    /// Remove every entry, keeping the slots.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.keys.fill(EMPTY);
            self.len = 0;
        }
    }

    /// Every `(key, value)`, in slot order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            keys: &self.keys,
            vals: &self.vals,
            base: 0,
            next: 0,
            bits: 0,
            left: self.len,
        }
    }

    /// Every key, in slot order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in slot order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The entries in ascending key order: what both codecs write.
    fn sorted(&self) -> Vec<(u32, f64)> {
        let mut run: Vec<(u32, f64)> = self.iter().collect();
        run.sort_unstable_by_key(|e| e.0);
        run
    }

    #[inline]
    fn home(&self, k: u32) -> usize {
        (k.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// `Ok(slot of k)`, or `Err(the free slot where k would go)`. Needs at
    /// least one slot; a free one always exists, as the load stays ≤ 3/4.
    #[inline]
    fn find(&self, k: u32) -> Result<usize, usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(k);
        loop {
            let s = self.keys[i];
            if s == k {
                return Ok(i);
            }
            if s == EMPTY {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// [`find`](Self::find), first growing the table if one more entry
    /// would take it past 3/4 load and `k` is not already in it.
    #[inline]
    fn place(&mut self, k: u32) -> Result<usize, usize> {
        assert_ne!(k, EMPTY, "u32::MAX marks a free slot and cannot be a key");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            if self.len > 0 {
                if let Ok(i) = self.find(k) {
                    return Ok(i);
                }
            }
            self.rehash((self.keys.len() * 2).max(MIN_CAPACITY));
        }
        self.find(k)
    }

    #[inline]
    fn occupy(&mut self, i: usize, k: u32, v: f64) -> usize {
        self.keys[i] = k;
        self.vals[i] = v;
        self.len += 1;
        i
    }

    /// Move every entry into a table of `slots` (a power of two).
    fn rehash(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= MIN_CAPACITY);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let vals = std::mem::replace(&mut self.vals, vec![0.0; slots]);
        self.shift = 32 - slots.trailing_zeros();
        for (k, v) in keys.into_iter().zip(vals) {
            if k != EMPTY {
                let (Ok(i) | Err(i)) = self.find(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// Iterator over a [`FlatMap`]'s entries, in slot order.
pub struct Iter<'a> {
    keys: &'a [u32],
    vals: &'a [f64],
    /// First slot of the chunk `bits` describes.
    base: usize,
    /// First slot of the next chunk.
    next: usize,
    /// The chunk's full slots not yet yielded, bit `j` for slot `base + j`.
    bits: u64,
    /// Entries not yet yielded: the scan stops at the last one.
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        if self.left == 0 {
            return None;
        }
        while self.bits == 0 {
            let end = (self.next + 64).min(self.keys.len());
            self.bits = self.keys[self.next..end]
                .iter()
                .enumerate()
                .fold(0, |m, (j, &k)| m | (((k != EMPTY) as u64) << j));
            self.base = self.next;
            self.next = end;
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.left -= 1;
        Some((self.keys[i], self.vals[i]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Debug for FlatMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

impl Encode for FlatMap {
    fn encode(&self, out: &mut Vec<u8>) {
        let run = self.sorted();
        out.reserve(4 + 12 * run.len());
        run.encode(out);
    }
}

impl Decode for FlatMap {
    const MIN_BYTES: usize = 4;
    fn decode(c: &mut Cursor<'_>) -> Result<FlatMap, BinError> {
        let n = c.count(<(u32, f64)>::MIN_BYTES)?;
        let mut out = FlatMap::with_capacity(n);
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let k = u32::decode(c)?;
            if k == EMPTY {
                return Err(BinError("map key u32::MAX is reserved".into()));
            }
            if prev.is_some_and(|p| p >= k) {
                return Err(BinError("map keys are not strictly ascending".into()));
            }
            prev = Some(k);
            let v = f64::decode(c)?;
            // Ascending keys are new keys, and `n` fit the capacity.
            let (Ok(i) | Err(i)) = out.find(k);
            out.occupy(i, k, v);
        }
        Ok(out)
    }
}

impl ToJson for FlatMap {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.sorted()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl FromJson for FlatMap {
    fn from_json(j: &Json) -> Result<FlatMap, JsonError> {
        let Json::Obj(pairs) = j else {
            return Err(JsonError(format!("expected object, got {j}")));
        };
        let mut out = FlatMap::with_capacity(pairs.len());
        for (k, v) in pairs {
            let key = match k.parse::<u32>() {
                Ok(key) if key != EMPTY => key,
                _ => return Err(JsonError(format!("bad map key '{k}'"))),
            };
            out.insert(key, f64::from_json(v)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::decode_all;
    use crate::check::Checker;
    use crate::ensure;
    use std::collections::HashMap;

    fn bytes_of<T: Encode>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    /// What the `HashMap<u32, f64>` codec wrote: a `u32` count, then the
    /// key-sorted `(u32, f64)` pairs.
    fn reference_bytes(m: &HashMap<u32, f64>) -> Vec<u8> {
        let mut run: Vec<(u32, f64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        run.sort_unstable_by_key(|e| e.0);
        bytes_of(&run)
    }

    fn same(flat: &FlatMap, reference: &HashMap<u32, f64>) -> Result<(), String> {
        ensure!(
            flat.len() == reference.len(),
            "len {} vs {}",
            flat.len(),
            reference.len()
        );
        ensure!(flat.iter().len() == reference.len(), "iterator length");
        for (k, v) in flat.iter() {
            let want = reference.get(&k).map(|x| x.to_bits());
            ensure!(want == Some(v.to_bits()), "key {k}: {v} vs {want:?}");
        }
        for (&k, &v) in reference {
            ensure!(
                flat.get(k).map(f64::to_bits) == Some(v.to_bits()),
                "get({k})"
            );
        }
        ensure!(
            bytes_of(flat) == reference_bytes(reference),
            "encoding differs from the HashMap codec's"
        );
        Ok(())
    }

    /// Keys whose home slot is one of the last two of a `slots`-slot table:
    /// their probe clusters wrap past the end.
    fn wrapping_keys(slots: usize, n: usize) -> Vec<u32> {
        let shift = 32 - slots.trailing_zeros();
        (0u32..)
            .filter(|k| (k.wrapping_mul(FIB) >> shift) as usize >= slots - 2)
            .take(n)
            .collect()
    }

    #[test]
    fn random_operations_match_std_hashmap_after_every_step() {
        let mut pool: Vec<u32> = Vec::new();
        for slots in [8usize, 16, 32, 64] {
            pool.extend(wrapping_keys(slots, 6));
        }
        // Across the cases: the most doublings one table went through, and
        // the steps at which some entry sat past the end of the table from
        // its home slot.
        let (doublings, wrapped) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        Checker::new(96).run("flat_map_vs_hashmap", |g| {
            let mut flat = FlatMap::new();
            let mut reference: HashMap<u32, f64> = HashMap::new();
            // Small key spaces collide and wrap; the widest one forces
            // growth across several doublings.
            let span = [16u32, 200, 5000][g.usize_in(0..3)];
            let mut grew = 0;
            for _ in 0..g.usize_in(1..600) {
                let k = if g.prob(0.3) {
                    pool[g.usize_in(0..pool.len())]
                } else {
                    g.u32_in(0..span)
                };
                let before = flat.keys.len();
                match g.usize_in(0..20) {
                    0..=6 => {
                        let v = g.f64_in(-1.0..1.0);
                        ensure!(flat.insert(k, v) == reference.insert(k, v), "insert {k}");
                    }
                    7..=11 => {
                        // `slot` add, dropping the entry at an exact zero,
                        // the way the push state does.
                        let d = if g.prob(0.3) {
                            -flat.get(k).unwrap_or(0.0)
                        } else {
                            g.f64_in(-1.0..1.0)
                        };
                        let e = flat.slot(k);
                        *e += d;
                        let zero = *e == 0.0;
                        *reference.entry(k).or_insert(0.0) += d;
                        if zero {
                            flat.remove(k);
                            reference.remove(&k);
                        }
                    }
                    12..=17 => {
                        let (a, b) = (flat.remove(k), reference.remove(&k));
                        ensure!(a.map(f64::to_bits) == b.map(f64::to_bits), "remove {k}");
                    }
                    18 => {
                        if let Some(v) = flat.get_mut(k) {
                            *v *= 0.5;
                            *reference.get_mut(&k).expect("same keys") *= 0.5;
                        }
                    }
                    _ => {
                        if g.prob(0.2) {
                            flat.clear();
                            reference.clear();
                        }
                    }
                }
                grew += (flat.keys.len() > before.max(MIN_CAPACITY)) as usize;
                let past_the_end = |(i, &k): (usize, &u32)| k != EMPTY && flat.home(k) > i;
                if flat.keys.iter().enumerate().any(past_the_end) {
                    wrapped.set(wrapped.get() + 1);
                }
                ensure!(flat.get(EMPTY).is_none() && flat.remove(EMPTY).is_none());
                same(&flat, &reference)?;
            }
            doublings.set(grew.max(doublings.get()));
            let back: FlatMap = decode_all(&bytes_of(&flat)).map_err(|e| e.to_string())?;
            same(&back, &reference)?;
            let json = Json::parse(&flat.to_json().to_string()).map_err(|e| e.to_string())?;
            same(
                &FlatMap::from_json(&json).map_err(|e| e.to_string())?,
                &reference,
            )?;
            Ok(())
        });
        assert!(
            doublings.get() >= 4,
            "vacuous: {} doublings",
            doublings.get()
        );
        assert!(wrapped.get() > 0, "vacuous: no probe cluster wrapped");
    }

    #[test]
    fn a_map_is_its_key_sorted_run_whatever_the_slot_order() {
        let mut a = FlatMap::new();
        let mut b = FlatMap::with_capacity(4096);
        for k in 0..300u32 {
            a.insert(k * 7919 % 1000, k as f64);
        }
        for k in (0..300u32).rev() {
            b.insert(k * 7919 % 1000, k as f64);
        }
        let bytes = bytes_of(&a);
        assert_eq!(bytes, bytes_of(&b));
        assert_eq!(bytes.len(), 4 + 300 * 12);
        let keys: Vec<u32> = bytes[4..]
            .chunks(12)
            .map(|e| u32::from_le_bytes(e[..4].try_into().unwrap()))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bytes_of(&decode_all::<FlatMap>(&bytes).unwrap()), bytes);
    }

    #[test]
    fn decode_refuses_the_empty_key_disorder_repeats_and_short_counts() {
        let run = |keys: &[u32]| {
            let mut out = bytes_of(&(keys.len() as u32));
            for &k in keys {
                out.extend(bytes_of(&(k, 1.0f64)));
            }
            out
        };
        assert!(decode_all::<FlatMap>(&run(&[3, 9])).is_ok());
        assert!(decode_all::<FlatMap>(&run(&[3, EMPTY - 1])).is_ok());
        assert!(decode_all::<FlatMap>(&run(&[9, 3])).is_err());
        assert!(decode_all::<FlatMap>(&run(&[3, 3])).is_err());
        assert!(decode_all::<FlatMap>(&run(&[3, EMPTY])).is_err());
        assert!(decode_all::<FlatMap>(&run(&[EMPTY])).is_err());
        // Four billion entries announced, none present: an error, not a
        // 48 GB table.
        assert!(decode_all::<FlatMap>(&bytes_of(&u32::MAX)).is_err());
        // One more entry than the bytes hold, and every cut of a good run.
        let good = run(&[1, 2, 3]);
        let mut short = good.clone();
        short[0] = 4;
        assert!(decode_all::<FlatMap>(&short).is_err());
        for cut in 0..good.len() {
            assert!(decode_all::<FlatMap>(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn json_is_the_sorted_object_and_refuses_bad_keys() {
        let mut m = FlatMap::new();
        m.insert(3, 0.1);
        m.insert(1, 2.0);
        assert_eq!(m.to_json().to_string(), "{\"1\":2.0,\"3\":0.1}");
        let back = FlatMap::from_json(&Json::parse(&m.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(bytes_of(&back), bytes_of(&m));
        for bad in [
            "{\"x\":1.0}",
            "{\"-1\":1.0}",
            "{\"4294967295\":1.0}",
            "[1.0]",
        ] {
            assert!(
                FlatMap::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot be a key")]
    fn the_empty_key_cannot_be_inserted() {
        FlatMap::new().insert(EMPTY, 1.0);
    }
}

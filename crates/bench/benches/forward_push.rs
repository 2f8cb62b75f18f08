//! Micro-benchmarks for the PPR engine: fresh pushes (dense workspace vs
//! sparse state), dynamic updates at several batch sizes, and the two
//! numbers that say whether a window costs what its delta costs — one
//! state's two-event update against its residue size, and a whole subset's
//! replay + row drain against `|S|` — and the two walks over every
//! estimate map that no delta bounds: whole-row composition and encode.

use tsvd_datasets::{DatasetConfig, SyntheticDataset};
use tsvd_graph::{Direction, DynGraph, EdgeEvent};
use tsvd_ppr::dynamic::{
    adjust_for_event, batch_endpoints, dynamic_update, record_events, RecordedEvent,
};
use tsvd_ppr::{forward_push, FreshPushWorkspace, PprConfig, PprState, RecordedBatch, SubsetPpr};
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::bin::Encode;
use tsvd_rt::rng::StdRng;
use tsvd_rt::rng::{Rng, SeedableRng};

fn test_graph() -> (SyntheticDataset, DynGraph) {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 5000;
    cfg.num_edges = 25_000;
    cfg.tau = 2;
    let ds = SyntheticDataset::generate(&cfg);
    let g = ds.stream.snapshot(2);
    (ds, g)
}

fn bench_fresh_push(h: &mut BenchHarness, g: &DynGraph) {
    for &r_max in &[1e-4_f64, 1e-5] {
        let mut ws = FreshPushWorkspace::new(g.num_nodes());
        h.bench(&format!("fresh_push/dense_workspace/{r_max:.0e}"), || {
            ws.run(g, Direction::Out, 0.2, r_max, 17)
        });
        h.bench(&format!("fresh_push/sparse_state/{r_max:.0e}"), || {
            let mut st = PprState::new(17);
            forward_push(g, Direction::Out, 0.2, r_max, &mut st);
            st
        });
    }
}

fn bench_dynamic_update(h: &mut BenchHarness, g0: &DynGraph) {
    for &batch in &[10usize, 100, 1000] {
        // Setup (graph clone + fresh push + event recording) is rebuilt per
        // iteration and excluded from the timed region by doing it eagerly
        // here and timing only the incremental update on clones.
        let mut base = g0.clone();
        let mut st0 = PprState::new(17);
        forward_push(&base, Direction::Out, 0.2, 1e-5, &mut st0);
        let mut rng = StdRng::seed_from_u64(9);
        let events: Vec<EdgeEvent> = (0..batch)
            .map(|_| {
                let u = rng.gen_range(0..base.num_nodes()) as u32;
                let v = rng.gen_range(0..base.num_nodes()) as u32;
                EdgeEvent::insert(u, v)
            })
            .collect();
        let (rec, _) = record_events(&mut base, &events);
        let endpoints = batch_endpoints(&rec);
        h.bench(&format!("dynamic_push_update/{batch}"), || {
            let mut st = st0.clone();
            dynamic_update(&base, Direction::Out, 0.2, 1e-5, &mut st, &rec, &endpoints);
            st
        });
    }
}

/// Two absent edges of `g` (seeded), as an insert window and the delete
/// window that undoes it.
fn two_edge_windows(g: &DynGraph) -> (Vec<EdgeEvent>, Vec<EdgeEvent>) {
    let mut rng = StdRng::seed_from_u64(23);
    let mut edges = Vec::new();
    while edges.len() < 2 {
        let u = rng.gen_range(0..g.num_nodes()) as u32;
        let v = rng.gen_range(0..g.num_nodes()) as u32;
        if u != v && !g.has_edge(u, v) && !edges.contains(&(u, v)) {
            edges.push((u, v));
        }
    }
    (
        edges
            .iter()
            .map(|&(u, v)| EdgeEvent::insert(u, v))
            .collect(),
        edges
            .iter()
            .map(|&(u, v)| EdgeEvent::delete(u, v))
            .collect(),
    )
}

/// One state, two-event windows, timed in place: the state is never cloned
/// and the graph never mutated inside the timed region — the window
/// alternates between inserting two edges and deleting them again, against
/// the two graphs recorded up front. `r_max` sets the size of the residue
/// vector the state drags along; `|Δ|` is fixed, so the endpoint-seeded
/// cells should not move with it. The `keyscan` cells run the same
/// adjustments followed by the key-scanning `forward_push` — what every
/// re-push cost before the frontier was seeded from the endpoints.
fn bench_in_place_update(h: &mut BenchHarness, g0: &DynGraph) {
    const PAIRS: usize = 64;
    let (insert, delete) = two_edge_windows(g0);
    let mut g_ins = g0.clone();
    let (rec_ins, _) = record_events(&mut g_ins, &insert);
    let (rec_del, _) = record_events(&mut g_ins.clone(), &delete);
    let endpoints = batch_endpoints(&rec_ins);
    let windows: [(&DynGraph, &[RecordedEvent]); 2] = [(&g_ins, &rec_ins), (g0, &rec_del)];
    for &r_max in &[1e-4_f64, 1e-5, 1e-6] {
        let mut st = PprState::new(17);
        forward_push(g0, Direction::Out, 0.2, r_max, &mut st);
        let residues = st.residues().count();
        let name = format!("batch2/r_max{r_max:.0e}/residues{residues}/x{}", 2 * PAIRS);
        h.bench(&format!("dynamic_push_update/{name}"), || {
            for _ in 0..PAIRS {
                for (g, rec) in windows {
                    dynamic_update(g, Direction::Out, 0.2, r_max, &mut st, rec, &endpoints);
                }
            }
        });
        h.bench(&format!("dynamic_push_update_keyscan/{name}"), || {
            for _ in 0..PAIRS {
                for (g, rec) in windows {
                    for ev in rec {
                        adjust_for_event(&mut st, ev, 0.2);
                    }
                    forward_push(g, Direction::Out, 0.2, r_max, &mut st);
                }
            }
        });
    }
}

/// A whole subset's window: `SubsetPpr::apply_recorded` + the row drain for
/// one two-event batch, alternating insert / delete in place. Every one of
/// the `2·|S|` states is visited — this is the price of not keeping an
/// inverted index `node → states` — so the cell grows with `|S|`; the
/// `|S|` = 3 000 number is the paper's scale.
fn bench_subset_replay(h: &mut BenchHarness, g0: &DynGraph) {
    let (insert, delete) = two_edge_windows(g0);
    let mut g_ins = g0.clone();
    let rec_ins = RecordedBatch::record(&mut g_ins, &insert);
    let rec_del = RecordedBatch::record(&mut g_ins.clone(), &delete);
    let windows = [(&g_ins, &rec_ins), (g0, &rec_del)];
    for &size in &[300usize, 3000] {
        let sources: Vec<u32> = (0..size as u32).collect();
        let mut ppr = SubsetPpr::build(g0, &sources, PprConfig::default());
        ppr.take_dirty_rows();
        let mut turn = 0usize;
        h.bench(&format!("subset_replay/S{size}/batch2"), || {
            let (g, rec) = windows[turn % 2];
            turn += 1;
            ppr.apply_recorded(g, rec);
            ppr.drain_row_updates()
        });
    }
}

/// The two whole-subset walks over every estimate map: the whole-row
/// composition (`proximity_rows`, what the traced `ppr.rows_ms` times) and
/// the checkpoint encode of every state (each map as its key-sorted run).
/// Neither depends on the delta, so both read the cost of iterating the
/// maps themselves.
fn bench_whole_rows(h: &mut BenchHarness, g0: &DynGraph) {
    let sources: Vec<u32> = (0..300).collect();
    let ppr = SubsetPpr::build(g0, &sources, PprConfig::default());
    h.bench("whole_rows/proximity/S300", || ppr.proximity_rows());
    let mut buf = Vec::new();
    h.bench("whole_rows/encode/S300", || {
        buf.clear();
        ppr.encode(&mut buf);
        buf.len()
    });
}

fn main() {
    let (_, g) = test_graph();
    let mut h = BenchHarness::from_args("forward_push");
    bench_fresh_push(&mut h, &g);
    bench_dynamic_update(&mut h, &g);
    bench_in_place_update(&mut h, &g);
    bench_subset_replay(&mut h, &g);
    bench_whole_rows(&mut h, &g);
    h.finish();
}

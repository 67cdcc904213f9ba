//! The cold solver for selective programs: a level-synchronous frontier
//! walk that commits each improvement in place.
//!
//! [`Engine`](crate::Engine) is the paper's GAS model: messages go into a
//! per-vertex inbox, an apply pass commits them, and each iteration picks
//! FP or IP. A one-shot query over a pin needs none of that when the
//! program's reduce is selective (min/max, as [`IncrementalState`]
//! requires): [`walk`] relaxes each out-edge of the round's frontier
//! straight into the value array and marks the improved vertex in a
//! one-bit-per-vertex bitmap, which becomes the next round's frontier in
//! ascending vertex order.

use std::time::Instant;

use gtinker_core::trace::{self, SpanId};
use gtinker_types::VertexId;

use crate::gas::IncrementalState;
use crate::store::GraphStore;

/// What one [`walk`] computed.
#[derive(Debug)]
pub struct Walk<V> {
    /// Per-vertex values at the fixpoint, indexed by vertex id.
    pub values: Vec<V>,
    /// Rounds run (frontiers walked).
    pub rounds: usize,
    /// Out-edges read across all rounds.
    pub edges: u64,
}

/// Runs `program` cold over `store` to its fixpoint.
///
/// Values start at [`default_value`](crate::GasProgram::default_value),
/// the roots are seeded into the first frontier, and each round reads the
/// out-edges of every frontier vertex, applying each message to its
/// target at once. With a selective reduce every commit strictly improves
/// a value and the order of commits does not change the least fixpoint,
/// so the values equal [`Engine::run_from_roots`](crate::Engine::run_from_roots)'s.
/// The walk keeps no witnesses, so it cannot seed a repair.
///
/// A program with [`FIRST_REACH_FINAL`](IncrementalState::FIRST_REACH_FINAL)
/// has a `seen` bitmap tested before the value array is read: a vertex
/// already reached is skipped whole.
pub fn walk<P: IncrementalState, S: GraphStore>(program: &P, store: &S) -> Walk<P::Value> {
    let roots = program.roots(store.vertex_space());
    let n = roots.iter().map(|&(v, _)| v + 1).fold(store.vertex_space(), u32::max) as usize;
    let mut values: Vec<P::Value> = (0..n as u32).map(|v| program.default_value(v)).collect();
    let words = n.div_ceil(64);
    let mut next = vec![0u64; words];
    let mut seen = if P::FIRST_REACH_FINAL { vec![0u64; words] } else { Vec::new() };
    for (v, val) in roots {
        values[v as usize] = val;
        set(&mut next, v);
        if P::FIRST_REACH_FINAL {
            set(&mut seen, v);
        }
    }
    let ctx = trace::thread_ctx();
    let m = gtinker_core::metrics::global();
    let (mut rounds, mut edges) = (0, 0u64);
    let mut frontier: Vec<VertexId> = Vec::new();
    loop {
        frontier.clear();
        for (w, word) in next.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                frontier.push((w as u32) << 6 | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if frontier.is_empty() {
            break;
        }
        let start = Instant::now();
        let _t = trace::span_arg(SpanId::EngineProcess, if ctx != 0 { ctx } else { rounds as u64 });
        for &u in &frontier {
            let su = values[u as usize];
            store.for_each_out_edge(u, |d, w| {
                edges += 1;
                if P::FIRST_REACH_FINAL && get(&seen, d) {
                    return;
                }
                let Some(msg) = program.process_edge(su, d, w) else { return };
                if let Some(new) = program.apply(values[d as usize], msg) {
                    values[d as usize] = new;
                    set(&mut next, d);
                    if P::FIRST_REACH_FINAL {
                        set(&mut seen, d);
                    }
                }
            });
        }
        rounds += 1;
        m.engine_iterations.inc();
        m.engine_process_ns.add(start.elapsed().as_nanos() as u64);
    }
    Walk { values, rounds, edges }
}

#[inline]
fn set(bits: &mut [u64], v: VertexId) {
    bits[v as usize >> 6] |= 1 << (v & 63);
}

#[inline]
fn get(bits: &[u64], v: VertexId) -> bool {
    bits[v as usize >> 6] & (1 << (v & 63)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, Cc, Sssp};
    use crate::{Engine, ModePolicy};
    use gtinker_core::GraphTinker;
    use gtinker_types::{Edge, EdgeBatch};

    fn store(edges: &[Edge]) -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(edges));
        g
    }

    #[test]
    fn chain_takes_one_round_per_level() {
        let g = store(&[Edge::unit(0, 1), Edge::unit(1, 2), Edge::unit(2, 3)]);
        let w = walk(&Bfs::new(0), &g);
        assert_eq!(w.values, vec![0, 1, 2, 3]);
        assert_eq!((w.rounds, w.edges), (4, 3));
    }

    #[test]
    fn values_equal_the_engine_on_a_weighted_graph() {
        let mut edges = Vec::new();
        for i in 0..200u32 {
            edges.push(Edge::new(i, (i * 7 + 3) % 200, i % 5 + 1));
            edges.push(Edge::new(i, (i * 13 + 1) % 211, i % 3 + 1));
        }
        let g = store(&edges);
        let mut e = Engine::new(Sssp::new(4), ModePolicy::hybrid());
        e.run_from_roots(&g);
        assert_eq!(walk(&Sssp::new(4), &g).values, e.values());
        let mut e = Engine::new(Cc::new(), ModePolicy::hybrid());
        e.run_from_roots(&g);
        assert_eq!(walk(&Cc::new(), &g).values, e.values());
    }

    #[test]
    fn root_beyond_the_store_reaches_only_itself() {
        let g = store(&[Edge::unit(0, 1)]);
        let w = walk(&Bfs::new(70), &g);
        assert_eq!(w.values.len(), 71);
        assert_eq!((w.values[70], w.values[1]), (0, Bfs::UNREACHED));
        assert_eq!(w.rounds, 1);
    }
}

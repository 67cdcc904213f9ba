//! Property-based engine tests: on arbitrary random graphs, every
//! engine/policy/store combination must satisfy the algorithms' defining
//! invariants and agree with the reference implementations.

use gtinker_core::GraphTinker;
use gtinker_engine::{
    algorithms::{Bfs, Cc, Sssp},
    CsrSnapshot, Engine, GraphStore, ModePolicy,
};
use gtinker_integration::reference;
use gtinker_types::{Edge, EdgeBatch};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_v, 0..max_v, 1..20u32), 1..max_e)
        .prop_map(|v| v.into_iter().map(|(s, d, w)| Edge::new(s, d, w)).collect())
}

fn store_from(edges: &[Edge]) -> GraphTinker {
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&EdgeBatch::inserts(edges));
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BFS relaxation invariant: for every live edge (u, v), the levels
    /// satisfy level[v] <= level[u] + 1; and the engine agrees with the
    /// textbook queue BFS under every policy.
    #[test]
    fn bfs_invariants_hold(edges in arb_edges(64, 300)) {
        let g = store_from(&edges);
        let root = edges[0].src;
        let n = GraphStore::vertex_space(&g);
        let expected = reference::bfs_levels(&edges, n, root);
        for policy in [ModePolicy::AlwaysFull, ModePolicy::AlwaysIncremental,
                       ModePolicy::hybrid(), ModePolicy::degree_aware()] {
            let mut e = Engine::new(Bfs::new(root), policy);
            e.run_from_roots(&g);
            prop_assert_eq!(e.values(), &expected[..]);
            let levels = e.values();
            g.for_each_edge(|u, v, _| {
                if levels[u as usize] != u32::MAX {
                    assert!(
                        levels[v as usize] <= levels[u as usize] + 1,
                        "edge ({u},{v}) violates BFS triangle inequality"
                    );
                }
            });
        }
    }

    /// SSSP relaxation invariant: dist[v] <= dist[u] + w(u, v) at fixpoint,
    /// dist matches Dijkstra, and distances never beat hop-count lower
    /// bounds (dist >= level since weights >= 1).
    #[test]
    fn sssp_invariants_hold(edges in arb_edges(48, 250)) {
        let g = store_from(&edges);
        let root = edges[0].src;
        let n = GraphStore::vertex_space(&g);
        let expected = reference::sssp_distances(&edges, n, root);
        let levels = reference::bfs_levels(&edges, n, root);
        let mut e = Engine::new(Sssp::new(root), ModePolicy::hybrid());
        e.run_from_roots(&g);
        prop_assert_eq!(e.values(), &expected[..]);
        let dist = e.values();
        g.for_each_edge(|u, v, w| {
            if dist[u as usize] != u32::MAX {
                assert!(dist[v as usize] <= dist[u as usize].saturating_add(w));
            }
        });
        for v in 0..n as usize {
            if levels[v] != u32::MAX {
                prop_assert!(dist[v] >= levels[v], "weights >= 1 imply dist >= hops");
            }
        }
    }

    /// CC label validity on symmetrized graphs: labels match union-find and
    /// every edge joins same-labelled endpoints.
    #[test]
    fn cc_invariants_hold(edges in arb_edges(48, 200)) {
        let mut batch = EdgeBatch::with_capacity(edges.len() * 2);
        for e in &edges {
            batch.push_insert(*e);
            batch.push_insert(e.reversed());
        }
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&batch);
        let n = GraphStore::vertex_space(&g);
        let expected = reference::cc_labels(&edges, n);
        let mut e = Engine::new(Cc::new(), ModePolicy::hybrid());
        e.run_from_roots(&g);
        prop_assert_eq!(e.values(), &expected[..]);
        let labels = e.values();
        g.for_each_edge(|u, v, _| {
            assert_eq!(labels[u as usize], labels[v as usize], "edge crosses components");
        });
        // Each label is the minimum vertex id of its component.
        for (v, &l) in labels.iter().enumerate() {
            prop_assert!(l <= v as u32);
        }
    }

    /// CSR snapshots are content-equal to the live store, and the engine
    /// computes the same result over either.
    #[test]
    fn csr_snapshot_equivalence(edges in arb_edges(64, 300)) {
        let g = store_from(&edges);
        let csr = CsrSnapshot::build(&g);
        prop_assert_eq!(GraphStore::num_edges(&csr), g.num_edges());
        let mut a: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge(|s, d, w| a.push((s, d, w)));
        let mut b: Vec<(u32, u32, u32)> = Vec::new();
        csr.stream_edges(|s, d, w| b.push((s, d, w)));
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);

        let root = edges[0].src;
        let mut over_store = Engine::new(Bfs::new(root), ModePolicy::hybrid());
        over_store.run_from_roots(&g);
        let mut over_csr = Engine::new(Bfs::new(root), ModePolicy::hybrid());
        over_csr.run_from_roots(&csr);
        prop_assert_eq!(over_store.values(), over_csr.values());
    }
}

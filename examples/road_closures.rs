//! Road-network scenario: shortest paths under live edge updates.
//!
//! ```text
//! cargo run --release -p gtinker-examples --bin road_closures
//! ```
//!
//! A weighted grid "road network" is loaded into GraphTinker; SSSP from a
//! depot is computed with the hybrid engine. Then traffic happens: some
//! roads close (deletions) and new express links open (insertions).
//! Insertions are handled incrementally (monotone relaxations); closures
//! force a recompute — and the example verifies both against a fresh run.

use gtinker_core::GraphTinker;
use gtinker_engine::{algorithms::Sssp, Engine, GasProgram, ModePolicy};
use gtinker_types::{Edge, EdgeBatch, VertexId};

const SIDE: u32 = 60; // 60x60 grid

/// The intersection at column `x`, row `y`.
fn node(x: u32, y: u32) -> VertexId {
    y * SIDE + x
}

/// Every pair of neighbouring intersections linked both ways, with small
/// deterministic travel costs in `1..=9`.
fn road_grid() -> Vec<Edge> {
    let mut edges = Vec::new();
    for y in 0..SIDE {
        for x in 0..SIDE {
            let cost = |dir: u32| 1 + (x * 7 + y * 13 + dir) % 9;
            if x + 1 < SIDE {
                edges.push(Edge::new(node(x, y), node(x + 1, y), cost(0)));
                edges.push(Edge::new(node(x + 1, y), node(x, y), cost(1)));
            }
            if y + 1 < SIDE {
                edges.push(Edge::new(node(x, y), node(x, y + 1), cost(2)));
                edges.push(Edge::new(node(x, y + 1), node(x, y), cost(3)));
            }
        }
    }
    edges
}

fn main() {
    let depot = node(0, 0);
    let mall = node(SIDE - 1, SIDE - 1);
    let roads = road_grid();

    let mut graph = GraphTinker::with_defaults();
    graph.apply_batch(&EdgeBatch::inserts(&roads));
    println!("road network: {} intersections, {} road segments", SIDE * SIDE, graph.num_edges());

    let mut sssp = Engine::new(Sssp::new(depot), ModePolicy::hybrid());
    let report = sssp.run_from_roots(&graph);
    println!(
        "initial SSSP: cost(depot -> mall) = {} ({} iterations)",
        sssp.values()[mall as usize],
        report.num_iterations()
    );

    // --- New express links open: incremental relaxation suffices. -------
    let express = vec![
        Edge::new(depot, node(SIDE / 2, SIDE / 2), 3),
        Edge::new(node(SIDE / 2, SIDE / 2), mall, 3),
    ];
    let batch = EdgeBatch::inserts(&express);
    graph.apply_batch(&batch);
    let seeds = sssp.program().inconsistent_vertices(batch.ops());
    let report = sssp.run_incremental(&graph, &seeds);
    println!(
        "after express links: cost(depot -> mall) = {} (incremental, {} iterations)",
        sssp.values()[mall as usize],
        report.num_iterations()
    );
    assert_eq!(sssp.values()[mall as usize], 6, "two express hops of cost 3");

    // --- Roads close: distances may grow, so recompute from roots. ------
    let mut closures = EdgeBatch::new();
    closures.push_delete(depot, node(SIDE / 2, SIDE / 2));
    closures.push_delete(node(SIDE / 2, SIDE / 2), mall);
    let r = graph.apply_batch(&closures);
    println!("\nroad closures: {} segments removed", r.deleted);
    let report = sssp.run_from_roots(&graph);
    let after = sssp.values()[mall as usize];
    println!(
        "after closures: cost(depot -> mall) = {after} (recompute, {} iterations)",
        report.num_iterations()
    );

    // Verify against an independent engine run on the same store.
    let mut check = Engine::new(Sssp::new(depot), ModePolicy::AlwaysFull);
    check.run_from_roots(&graph);
    assert_eq!(sssp.values(), check.values(), "hybrid vs FP divergence");
    println!("verified: hybrid result matches a from-scratch full-processing run");
}

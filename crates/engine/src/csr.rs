//! CSR snapshots: the classic store-and-static-compute *with
//! pre-processing* model (paper §II.B). The type lives in `gtinker-core`,
//! where it is also the base of the epoch read side; it is re-exported
//! here so engine users keep one import path.

pub use gtinker_core::CsrSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_core::GraphTinker;
    use gtinker_types::{Edge, EdgeBatch};

    #[test]
    fn engine_runs_over_csr() {
        use crate::algorithms::Bfs;
        use crate::{Engine, ModePolicy};
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[
            Edge::new(0, 1, 5),
            Edge::new(0, 2, 7),
            Edge::new(2, 0, 1),
            Edge::new(4, 1, 9),
        ]));
        let csr = CsrSnapshot::build(&g);
        let mut e = Engine::new(Bfs::new(0), ModePolicy::AlwaysFull);
        e.run_from_roots(&csr);
        assert_eq!(e.values()[1], 1);
        assert_eq!(e.values()[2], 1);
        assert_eq!(e.values()[4], u32::MAX);
    }
}

//! "The store does the same work": one fixed RMAT churn stream applied
//! under the three layouts the repo ships (`default()`, the tiny-threshold
//! `tiers(2, 12, 6)`, `paper()`) in both delete modes, reduced to one
//! line per store — every `ProbeStats` and `StructureStats` field, both
//! histograms, and order-sensitive digests of `sources()` and of the full
//! `for_each_edge` stream — and held to the captured lines. The `paper/*`
//! lines were last re-captured on purpose for the page-width classes, CAL
//! slot reuse and segmented tables. The `default/*` and `tiers_2_12_6/*`
//! lines were re-captured again when the CAL became the edgeblock tier's
//! own: `cal_blocks`, `cal_invalid`, `inline_bytes`, `hub_bytes`,
//! `memory_bytes` and `stream=` moved. Their `occupancy` field was
//! re-captured alone when it became edgeblock-tier edges ÷ block cells
//! (the store's work is unchanged). EXPERIMENTS.md lists every field each
//! re-capture moved.
//!
//! A refactor of the store must leave every line as it is; a PR that
//! changes the layout on purpose re-captures them (`-- --nocapture` prints
//! the current lines) and says so.

use gtinker_core::GraphTinker;
use gtinker_datasets::{churn_batches, RmatConfig};
use gtinker_types::{DeleteMode, TinkerConfig};

/// FNV-1a over a stream of words: order-sensitive, dependency-free.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(cfg: TinkerConfig) -> String {
    let edges = RmatConfig::graph500(13, 120_000, 19).generate();
    let mut g = GraphTinker::new(cfg).unwrap();
    for batch in churn_batches(&edges, 5_000, 3, 7) {
        g.apply_batch(&batch);
    }
    g.validate_rhh_invariants().unwrap();
    g.validate_tag_invariants().unwrap();
    let mut sources = Digest::new();
    for s in g.sources() {
        sources.word(s);
    }
    let mut stream = Digest::new();
    g.for_each_edge(|s, d, w| {
        stream.word(s);
        stream.word(d);
        stream.word(w);
    });
    format!(
        "{:?} {:?} depth{:?} probe{:?} sources={:016x} stream={:016x}",
        g.stats(),
        g.structure_stats(),
        g.depth_histogram(),
        g.probe_histogram(),
        sources.0,
        stream.0
    )
}

fn layouts() -> Vec<(String, TinkerConfig)> {
    let mut out = Vec::new();
    for (mode_name, mode) in
        [("delete_only", DeleteMode::DeleteOnly), ("compact", DeleteMode::DeleteAndCompact)]
    {
        for (name, cfg) in [
            ("default", TinkerConfig::default()),
            ("tiers_2_12_6", TinkerConfig::default().tiers(2, 12, 6)),
            ("paper", TinkerConfig::paper()),
        ] {
            out.push((format!("{name}/{mode_name}"), cfg.delete_mode(mode)));
        }
    }
    out
}

#[test]
fn fixed_stream_fingerprints_equal_the_captured_ones() {
    let golden: Vec<&str> = include_str!("layout_fingerprint.golden").lines().collect();
    let mut current = Vec::new();
    for (name, cfg) in layouts() {
        let line = format!("{name}: {}", fingerprint(cfg));
        println!("{line}");
        current.push(line);
    }
    assert_eq!(current.len(), golden.len(), "one golden line per layout");
    for (got, want) in current.iter().zip(&golden) {
        assert_eq!(got, want, "the store no longer does the same work");
    }
}

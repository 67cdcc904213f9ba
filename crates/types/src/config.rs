//! Configuration for the GraphTinker structure and the STINGER baseline.

use serde::{Deserialize, Serialize};

/// Edge-deletion mechanism (paper §III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeleteMode {
    /// Flag the cell as a tombstone and move on. Fast deletes, but the
    /// structure never shrinks, so traversal cost stays constant as the
    /// graph empties (Figs. 14-15).
    #[default]
    DeleteOnly,
    /// Backfill the freed slot with an edge pulled from the deepest
    /// descendant subblock on the same chain, freeing emptied overflow
    /// blocks. RHH is disabled in this mode (the paper turns it off to avoid
    /// the edge-tracking overhead of swap chains); plain in-subblock linear
    /// probing is used instead.
    DeleteAndCompact,
}

/// Configuration of a GraphTinker instance.
///
/// The paper's tuned operating point is `PAGEWIDTH = 64`, subblock = 8,
/// workblock = 4 (§V.A); those are the defaults here. All sizes are counts
/// of edge-cells and must satisfy
/// `workblock | subblock | pagewidth` (each divides the next).
///
/// [`Default`] layers the degree-adaptive tiers (4 inline slots, hub
/// promotion at out-degree 128, demotion below 64) over that geometry;
/// [`TinkerConfig::paper`] is the paper's fixed layout with tiering off,
/// which the paper-figure experiments use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TinkerConfig {
    /// Edge-cells per edgeblock (the paper's PAGEWIDTH).
    pub pagewidth: usize,
    /// Edge-cells per subblock — the branching granularity of Tree-Based
    /// Hashing.
    pub subblock: usize,
    /// Edge-cells per workblock — the retrieval granularity for the RHH
    /// inspection loop.
    pub workblock: usize,
    /// Enable the Scatter-Gather Hashing unit (dense source-id remapping).
    /// Disabling it reproduces the paper's SGH ablation: top-level blocks
    /// are then indexed by the raw source id, so the main region is sparse.
    pub enable_sgh: bool,
    /// Maintain the Coarse Adjacency List copy of the edges. Disabling it
    /// reproduces the paper's CAL ablation and the "GraphTinker without CAL"
    /// series in Fig. 8.
    pub enable_cal: bool,
    /// Source vertices per CAL group (the paper's example uses 1024).
    pub cal_group_size: usize,
    /// Edge records per CAL block.
    pub cal_block_size: usize,
    /// Deletion mechanism.
    pub delete_mode: DeleteMode,
    /// Degree-adaptive tiering: adjacency lists of up to this many edges are
    /// packed inline in the vertex entry instead of allocating an edgeblock.
    /// `0` disables the inline tier (every vertex starts on edgeblocks, as
    /// in [`TinkerConfig::paper`]). Capped at [`INLINE_CAP_MAX`].
    pub inline_cap: usize,
    /// Degree-adaptive tiering: a vertex whose out-degree reaches this value
    /// is promoted from RHH edgeblocks to the sorted dense hub tier. `0`
    /// disables hub promotion.
    pub hub_promote: u32,
    /// Hysteresis partner of [`hub_promote`](Self::hub_promote): a hub vertex
    /// whose out-degree drops below this value is demoted back to edgeblocks.
    /// Must be below `hub_promote` so churn around the threshold does not
    /// oscillate.
    pub hub_demote: u32,
}

/// Hard cap on [`TinkerConfig::inline_cap`]: the inline tier stores adjacency
/// in fixed-width vertex-entry arrays of this many slots.
pub const INLINE_CAP_MAX: usize = 4;

impl Default for TinkerConfig {
    /// The paper's geometry with the degree-adaptive tiers on.
    fn default() -> Self {
        TinkerConfig::paper().tiers(INLINE_CAP_MAX, 128, 64)
    }
}

impl TinkerConfig {
    /// The paper's fixed layout: every vertex on PAGEWIDTH-64 edgeblocks,
    /// no inline or hub tier.
    pub fn paper() -> Self {
        TinkerConfig {
            pagewidth: 64,
            subblock: 8,
            workblock: 4,
            enable_sgh: true,
            enable_cal: true,
            cal_group_size: 1024,
            cal_block_size: 1024,
            delete_mode: DeleteMode::DeleteOnly,
            inline_cap: 0,
            hub_promote: 0,
            hub_demote: 0,
        }
    }

    /// Default configuration with a different PAGEWIDTH, keeping the
    /// subblock/workblock geometry.
    pub fn with_pagewidth(pagewidth: usize) -> Self {
        TinkerConfig { pagewidth, ..TinkerConfig::default() }
    }

    /// Returns the config with CAL maintenance switched on/off.
    pub fn cal(mut self, enable: bool) -> Self {
        self.enable_cal = enable;
        self
    }

    /// Returns the config with SGH switched on/off.
    pub fn sgh(mut self, enable: bool) -> Self {
        self.enable_sgh = enable;
        self
    }

    /// Returns the config with the given delete mode.
    pub fn delete_mode(mut self, mode: DeleteMode) -> Self {
        self.delete_mode = mode;
        self
    }

    /// Returns the config with degree-adaptive tier thresholds. `inline_cap`
    /// edges fit inline (0 disables the inline tier); vertices reaching
    /// `hub_promote` out-degree move to the dense hub tier and fall back to
    /// edgeblocks below `hub_demote` (0/0 disables the hub tier).
    pub fn tiers(mut self, inline_cap: usize, hub_promote: u32, hub_demote: u32) -> Self {
        self.inline_cap = inline_cap;
        self.hub_promote = hub_promote;
        self.hub_demote = hub_demote;
        self
    }

    /// True when any adaptive tier (inline or hub) is enabled.
    #[inline]
    pub fn adaptive_enabled(&self) -> bool {
        self.inline_cap > 0 || self.hub_promote > 0
    }

    /// Number of subblocks per edgeblock.
    #[inline]
    pub fn subblocks_per_block(&self) -> usize {
        self.pagewidth / self.subblock
    }

    /// Number of workblocks per subblock.
    #[inline]
    pub fn workblocks_per_subblock(&self) -> usize {
        self.subblock / self.workblock
    }

    /// Validates the geometry invariants. Returns a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.pagewidth == 0 || self.subblock == 0 || self.workblock == 0 {
            return Err("pagewidth, subblock and workblock must be positive".into());
        }
        if !self.pagewidth.is_power_of_two()
            || !self.subblock.is_power_of_two()
            || !self.workblock.is_power_of_two()
        {
            return Err(format!(
                "pagewidth/subblock/workblock must be powers of two (got {}/{}/{})",
                self.pagewidth, self.subblock, self.workblock
            ));
        }
        if !self.pagewidth.is_multiple_of(self.subblock) {
            return Err(format!(
                "subblock size {} must divide pagewidth {}",
                self.subblock, self.pagewidth
            ));
        }
        if !self.subblock.is_multiple_of(self.workblock) {
            return Err(format!(
                "workblock size {} must divide subblock size {}",
                self.workblock, self.subblock
            ));
        }
        if self.cal_group_size == 0 || self.cal_block_size == 0 {
            return Err("CAL group and block sizes must be positive".into());
        }
        if self.subblock > 256 {
            return Err("subblock size must fit probe distances in a byte (<= 256)".into());
        }
        if self.inline_cap > INLINE_CAP_MAX {
            return Err(format!(
                "inline_cap {} exceeds the fixed inline slot count {INLINE_CAP_MAX}",
                self.inline_cap
            ));
        }
        if self.hub_promote > 0 {
            if self.hub_demote >= self.hub_promote {
                return Err(format!(
                    "hub_demote {} must be below hub_promote {} (hysteresis)",
                    self.hub_demote, self.hub_promote
                ));
            }
            if self.hub_promote as usize <= self.inline_cap
                || self.hub_demote as usize <= self.inline_cap
            {
                return Err(format!(
                    "hub thresholds {}/{} must exceed inline_cap {}",
                    self.hub_promote, self.hub_demote, self.inline_cap
                ));
            }
        }
        Ok(())
    }
}

/// Configuration of the STINGER baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StingerConfig {
    /// Edges per edgeblock in the adjacency chain. The paper configures
    /// STINGER with an average edgeblock size of 16.
    pub edges_per_block: usize,
}

impl Default for StingerConfig {
    fn default() -> Self {
        StingerConfig { edges_per_block: 16 }
    }
}

impl StingerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.edges_per_block == 0 {
            return Err("edges_per_block must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_operating_point() {
        for c in [TinkerConfig::default(), TinkerConfig::paper()] {
            assert_eq!((c.pagewidth, c.subblock, c.workblock), (64, 8, 4));
            assert_eq!(c.subblocks_per_block(), 8);
            assert_eq!(c.workblocks_per_subblock(), 2);
            assert!(c.validate().is_ok());
            assert!(c.enable_sgh && c.enable_cal);
        }
    }

    #[test]
    fn pagewidth_sweep_configs_validate() {
        for pw in [8, 16, 32, 64, 128, 256] {
            let c = TinkerConfig::with_pagewidth(pw);
            assert!(c.validate().is_ok(), "pagewidth {pw} should be valid");
        }
    }

    #[test]
    fn invalid_geometry_rejected() {
        let cases = [
            TinkerConfig { subblock: 7, ..TinkerConfig::default() }, // not pow2
            TinkerConfig { workblock: 3, ..TinkerConfig::default() }, // not pow2
            TinkerConfig { pagewidth: 0, ..TinkerConfig::default() },
            TinkerConfig { cal_block_size: 0, ..TinkerConfig::default() },
            TinkerConfig { subblock: 512, pagewidth: 1024, ..TinkerConfig::default() }, // probe > u8
            TinkerConfig { subblock: 128, pagewidth: 64, ..TinkerConfig::default() },   // sb > pw
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn builder_helpers() {
        let c =
            TinkerConfig::default().cal(false).sgh(false).delete_mode(DeleteMode::DeleteAndCompact);
        assert!(!c.enable_cal);
        assert!(!c.enable_sgh);
        assert_eq!(c.delete_mode, DeleteMode::DeleteAndCompact);
    }

    #[test]
    fn adaptive_tiers_default_on_paper_off_and_validate() {
        let c = TinkerConfig::paper();
        assert!(!c.adaptive_enabled());
        assert_eq!((c.inline_cap, c.hub_promote, c.hub_demote), (0, 0, 0));

        let a = TinkerConfig::default();
        assert!(a.adaptive_enabled());
        assert_eq!((a.inline_cap, a.hub_promote, a.hub_demote), (INLINE_CAP_MAX, 128, 64));
        assert_eq!(a, TinkerConfig::paper().tiers(INLINE_CAP_MAX, 128, 64));
        assert!(a.validate().is_ok());

        // Inline-only and hub-only variants are both legal.
        assert!(TinkerConfig::default().tiers(2, 0, 0).validate().is_ok());
        assert!(TinkerConfig::default().tiers(0, 32, 16).validate().is_ok());

        let bad = [
            TinkerConfig::default().tiers(INLINE_CAP_MAX + 1, 0, 0), // over the slot count
            TinkerConfig::default().tiers(4, 64, 64),                // no hysteresis gap
            TinkerConfig::default().tiers(4, 64, 128),               // inverted thresholds
            TinkerConfig::default().tiers(4, 3, 2),                  // hub below inline_cap
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn stinger_defaults() {
        let s = StingerConfig::default();
        assert_eq!(s.edges_per_block, 16);
        assert!(s.validate().is_ok());
        assert!(StingerConfig { edges_per_block: 0 }.validate().is_err());
    }
}

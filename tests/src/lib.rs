//! Host crate for the workspace's integration tests (see `tests/`), plus
//! reference implementations the tests check the real system against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;

use gtinker_core::{GraphTinker, PinnedShard, ShardAccess};

/// Both structural validators of a store, panicking with `what` on the
/// first violation: RHH placement, and the tag lanes / tier exclusivity /
/// degrees / CAL pointers. The oracle suites call this after every batch.
pub fn assert_valid(g: &GraphTinker, what: &str) {
    g.validate_rhh_invariants().unwrap_or_else(|e| panic!("{what}: RHH invariant: {e}"));
    g.validate_tag_invariants().unwrap_or_else(|e| panic!("{what}: tag invariant: {e}"));
}

/// A shard the oracle suites can validate: a live [`GraphTinker`]
/// ([`assert_valid`]) or a pinned view's CSR base plus netted delta
/// ([`PinnedShard::validate`]).
pub trait ValidShard {
    /// Panics with `what` on the first violated invariant.
    fn assert_valid(&self, what: &str);
}

impl ValidShard for GraphTinker {
    fn assert_valid(&self, what: &str) {
        assert_valid(self, what);
    }
}

impl ValidShard for PinnedShard {
    fn assert_valid(&self, what: &str) {
        self.validate().unwrap_or_else(|e| panic!("{what}: read side invariant: {e}"));
    }
}

/// [`assert_valid`] over every shard of a pooled store or a pinned view.
pub fn assert_shards_valid<A: ShardAccess>(store: &A, what: &str)
where
    A::Shard: ValidShard,
{
    for i in 0..store.shard_count() {
        store.with_shard(i, |g| g.assert_valid(what));
    }
}

//! Shard scope: a "which shard is this thread working for" field of the
//! thread's request context ([`crate::context`]), threaded through spans,
//! metrics and cost profiles.
//!
//! The shard-per-core scale-out (`ShardedSpate`) runs N complete
//! frameworks; without a shard dimension a hot shard is invisible — every
//! counter and span lands in one process-global pile. The
//! guard [`enter`] returns marks the current thread as working on behalf
//! of shard `i`; instrumentation that calls [`current`] (spans, cost
//! profiles) or the [`add_sharded`] helper then attributes the work to
//! that shard as a `shard="i"` labeled series *in addition to* the
//! unlabeled total, so existing dashboards and deterministic bench lines
//! keep their meaning.
//!
//! Scopes nest (a shard-2 scope inside a shard-0 scope restores shard 0
//! on drop) and are per-thread: a sharded ingest enters one per worker
//! thread, and a sharded read one around each shard's part of a merged
//! epoch load, so the dfs and codec work of that part is labeled while
//! the scan of the merged epoch is not.

use crate::context::{self, Field, Guard};

/// Attribute this thread's work to `shard` until the guard drops. Nested
/// scopes restore the previous shard on drop.
pub fn enter(shard: u32) -> Guard {
    context::set(Field::Shard(Some(shard)))
}

/// The shard the current thread is working for, if any.
pub fn current() -> Option<u32> {
    context::with(|r| r.shard)
}

/// Render a shard id as its label value. Small ids come from a static
/// table so hot paths don't allocate.
pub fn label(shard: u32) -> std::borrow::Cow<'static, str> {
    static SMALL: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    match SMALL.get(shard as usize) {
        Some(s) => std::borrow::Cow::Borrowed(s),
        None => std::borrow::Cow::Owned(shard.to_string()),
    }
}

/// Add to the unlabeled counter and, when a shard scope is active, to its
/// `shard="i"` series as well.
pub fn add_sharded(name: &str, delta: u64) {
    crate::global().counter(name).add(delta);
    if let Some(i) = current() {
        crate::global()
            .counter_labeled(name, &[("shard", &label(i))])
            .add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        let _no_reset = crate::globals_stay();
        assert_eq!(current(), None);
        {
            let _a = enter(1);
            assert_eq!(current(), Some(1));
            {
                let _b = enter(3);
                assert_eq!(current(), Some(3));
            }
            assert_eq!(current(), Some(1));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn sharded_helpers_record_both_series() {
        let _no_reset = crate::globals_stay();
        let _s = enter(2);
        add_sharded("test.shard.bytes", 10);
        assert!(crate::global().counter("test.shard.bytes").get() >= 10);
        assert!(
            crate::global()
                .counter_labeled("test.shard.bytes", &[("shard", "2")])
                .get()
                >= 10
        );
    }

    #[test]
    fn label_is_stable_for_small_and_large_ids() {
        assert_eq!(label(0), "0");
        assert_eq!(label(15), "15");
        assert_eq!(label(99), "99");
    }
}

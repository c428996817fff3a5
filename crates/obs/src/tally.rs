//! One count per event: an owner's counter that is also a registry counter.
//!
//! A component that reports its own counts (a cluster's fault counts, a
//! server's shed requests) keeps them per instance, because tests and
//! drills share the process-global registry; the registry keeps the same
//! events under their `crate.component.event` names for the exporters and
//! the meta monitor. A [`Tally`] is both at once, so one statement counts
//! the event. [`tallies!`](crate::tallies) declares an owner's counts in
//! one table.

use crate::metrics::Counter;
use std::borrow::Cow;

/// A count its owner keeps in its own [`Counter`] and the global registry
/// keeps under a name: [`Tally::add`] adds to both.
///
/// The registry counter is looked up by name on every add, as
/// [`crate::add`] does, rather than held: [`crate::reset`] clears the
/// registry between experiments, and a held handle would go on counting
/// into a counter the registry no longer has. So the series appears on
/// the first add (an add of 0 included) and again on the first add after
/// a reset, while the owner's count runs on for the owner's lifetime.
#[derive(Debug)]
pub struct Tally {
    name: &'static str,
    /// The one label of a labeled series, as `(key, value)`.
    label: Option<(&'static str, Cow<'static, str>)>,
    count: Counter,
}

impl Tally {
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            label: None,
            count: Counter::default(),
        }
    }

    /// A count the registry keeps as the `name{key="value"}` series.
    pub fn labeled(name: &'static str, key: &'static str, value: Cow<'static, str>) -> Self {
        Self {
            label: Some((key, value)),
            ..Self::new(name)
        }
    }

    pub fn add(&self, n: u64) {
        self.count.add(n);
        match &self.label {
            None => crate::add(self.name, n),
            Some((key, value)) => crate::add_labeled(self.name, &[(key, value)], n),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    /// The owner's count.
    pub fn get(&self) -> u64 {
        self.count.get()
    }
}

/// Declare an owner's counts in one table: per row a field, its doc
/// comment, and `Tally("registry.name")` — or `Counter` for a count with
/// no plain registry twin. It yields the live struct with its `Default`
/// and `snapshot()`, and the snapshot struct of `u64`s, whose `tallied()`
/// lists each tallied count with its registry name.
#[macro_export]
macro_rules! tallies {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident {
            $( $(#[$doc:meta])* $field:ident : $kind:ident $(($name:literal))? ),* $(,)?
        }
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
    ) => {
        $(#[$live_meta])*
        #[derive(Debug)]
        $live_vis struct $live {
            $( $(#[$doc])* pub $field: $crate::$kind, )*
        }

        impl Default for $live {
            fn default() -> Self {
                Self { $( $field: $crate::$kind::new($($name)?), )* }
            }
        }

        impl $live {
            /// Every count as it stands now.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.get(), )* }
            }
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$doc])* pub $field: u64, )*
        }

        #[allow(dead_code)]
        impl $snap {
            /// Each tallied count with its registry name, in table order.
            pub fn tallied(&self) -> Vec<(&'static str, u64)> {
                vec![$( $( ($name, self.$field), )? )*]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Tally;

    crate::tallies! {
        /// A test owner.
        struct Owner {
            /// Tallied.
            first: Tally("test.tally.table.first"),
            /// Kept by the owner alone.
            local: Counter,
            /// Tallied.
            second: Tally("test.tally.table.second"),
        }
        /// Point-in-time copy of [`Owner`].
        struct OwnerSnapshot;
    }

    #[test]
    fn an_add_of_zero_creates_the_series() {
        let _no_reset = crate::globals_stay();
        let t = Tally::new("test.tally.zero");
        t.add(0);
        assert!(crate::global()
            .counters_snapshot()
            .iter()
            .any(|(id, c)| id.name() == "test.tally.zero" && c.get() == 0));
        assert_eq!(t.get(), 0);
    }

    #[test]
    fn after_a_reset_the_next_add_creates_the_series_again() {
        let _alone = crate::GLOBALS.write().unwrap_or_else(|e| e.into_inner());
        let t = Tally::new("test.tally.reset");
        t.add(5);
        crate::reset();
        let named = |name: &str| {
            crate::global()
                .counters_snapshot()
                .into_iter()
                .find(|(id, _)| id.name() == name)
                .map(|(_, c)| c.get())
        };
        assert_eq!(named("test.tally.reset"), None);
        t.inc();
        assert_eq!(named("test.tally.reset"), Some(1), "a fresh series");
        assert_eq!(t.get(), 6, "the owner's count runs on");
    }

    #[test]
    fn a_labeled_tally_counts_into_its_own_series() {
        let _no_reset = crate::globals_stay();
        let series = |shard| {
            crate::global()
                .counter_labeled("test.tally.labeled", &[("shard", shard)])
                .get()
        };
        let before = (series("0"), series("1"));
        let zero = Tally::labeled("test.tally.labeled", "shard", "0".into());
        let one = Tally::labeled("test.tally.labeled", "shard", "1".into());
        zero.add(2);
        one.inc();
        assert_eq!((zero.get(), one.get()), (2, 1));
        assert_eq!((series("0"), series("1")), (before.0 + 2, before.1 + 1));
    }

    #[test]
    fn a_tables_snapshot_reads_each_count_under_its_declared_name() {
        let _no_reset = crate::globals_stay();
        let owner = Owner::default();
        owner.first.add(3);
        owner.local.add(4);
        owner.second.add(5);
        let snap = owner.snapshot();
        assert_eq!(
            snap,
            OwnerSnapshot {
                first: 3,
                local: 4,
                second: 5
            }
        );
        assert_eq!(
            snap.tallied(),
            [
                ("test.tally.table.first", 3),
                ("test.tally.table.second", 5)
            ]
        );
        for (name, value) in snap.tallied() {
            assert_eq!(crate::global().counter(name).get(), value, "{name}");
        }
    }
}

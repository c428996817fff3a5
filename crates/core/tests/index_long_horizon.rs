//! Long-horizon index tests: the year → month → day → epoch structure of
//! paper Fig. 5 over multiple years of ingestion, plus multi-year decay.
//!
//! Snapshots here are empty (structure is what's under test), so driving
//! hundreds of days stays fast.

use spate_core::index::decay::{decay_with_fungus_traced, Fungus};
use spate_core::index::highlights::HighlightConfig;
use spate_core::index::{Covering, TemporalIndex};
use spate_core::storage::{SnapshotStore, StoredSnapshot};
use spate_core::{DecayPolicy, Highlights};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::{days_in_month, EpochId, EPOCHS_PER_DAY};

fn drive(index: &mut TemporalIndex, epochs: u32) {
    for e in 0..epochs {
        let snap = Snapshot::new(EpochId(e), vec![], vec![]);
        let stored = StoredSnapshot {
            epoch: snap.epoch,
            path: format!("/x/{e}"),
            raw_bytes: 10,
            stored_bytes: 1,
        };
        index.incremence(&snap, &stored);
    }
}

#[test]
fn two_years_of_structure_match_the_civil_calendar() {
    let mut index = TemporalIndex::new(HighlightConfig::default());
    // Trace starts 2016-01-18; 750 days runs into 2018.
    drive(&mut index, 750 * EPOCHS_PER_DAY);

    let years = index.years();
    assert_eq!(
        years.iter().map(|y| y.year).collect::<Vec<_>>(),
        vec![2016, 2017, 2018]
    );

    // 2017 is fully covered: 12 months, each with the right day count.
    let y2017 = &years[1];
    assert_eq!(y2017.months.len(), 12);
    for m in &y2017.months {
        assert_eq!(
            m.days.len() as u32,
            days_in_month(2017, m.month),
            "month {}",
            m.month
        );
        for d in &m.days {
            assert_eq!(d.leaves.len() as u32, EPOCHS_PER_DAY);
        }
    }
    // 2016 starts mid-January: January has only 14 days (18th..31st).
    let jan16 = &years[0].months[0];
    assert_eq!(jan16.month, 1);
    assert_eq!(jan16.days.len(), 14);

    assert_eq!(index.present_leaves() as u32, 750 * EPOCHS_PER_DAY);
}

#[test]
fn window_covering_escalates_day_month_year() {
    let mut index = TemporalIndex::new(HighlightConfig::default());
    drive(&mut index, 400 * EPOCHS_PER_DAY);
    let last = index.last_epoch().unwrap();

    // Exact while everything is present.
    assert!(matches!(
        index.find_covering(EpochId(0), last),
        Covering::Exact(_)
    ));

    // Decay everything older than 30 days at full resolution, day
    // highlights 90 days, months 200 days.
    let store = SnapshotStore::new(dfs::Dfs::in_memory(), std::sync::Arc::new(codecs::Identity));
    let policy = DecayPolicy {
        full_resolution_days: 30,
        day_highlight_days: 90,
        month_highlight_days: 200,
        year_highlight_days: 2000,
    };
    let report = decay_with_fungus_traced(
        &mut index,
        last,
        &policy,
        Fungus::EvictOldestIndividuals,
        &store,
    )
    .unwrap()
    .0;
    assert!(report.leaves_evicted > 300 * EPOCHS_PER_DAY as usize);
    assert!(report.day_highlights_dropped > 250);
    assert!(report.month_highlights_dropped >= 5);

    // A one-day window inside the fresh horizon: exact.
    let fresh = EpochId(395 * EPOCHS_PER_DAY);
    assert!(matches!(
        index.find_covering(fresh, EpochId(fresh.0 + EPOCHS_PER_DAY - 1)),
        Covering::Exact(_)
    ));

    // Age 31..90 days: leaves gone but day highlights retained → day node.
    let aged = EpochId(350 * EPOCHS_PER_DAY);
    match index.find_covering(aged, EpochId(aged.0 + 5)) {
        Covering::Summary { resolution, .. } => assert_eq!(resolution.label(), "day"),
        other => panic!("expected day summary at age ~50d, got {other:?}"),
    }

    // Age 90..200 days: day highlights decayed → month node.
    let mid_age = EpochId(250 * EPOCHS_PER_DAY);
    match index.find_covering(mid_age, EpochId(mid_age.0 + 5)) {
        Covering::Summary { resolution, .. } => assert_eq!(resolution.label(), "month"),
        other => panic!("expected month summary at age ~150d, got {other:?}"),
    }

    // Older than 200 days: month highlights gone too → year summary.
    let old = EpochId(30 * EPOCHS_PER_DAY);
    match index.find_covering(old, EpochId(old.0 + 5)) {
        Covering::Summary { resolution, .. } => assert_eq!(resolution.label(), "year"),
        other => panic!("expected year summary for old window, got {other:?}"),
    }
}

#[test]
fn multi_year_decay_prunes_whole_years() {
    let mut index = TemporalIndex::new(HighlightConfig::default());
    drive(&mut index, 800 * EPOCHS_PER_DAY); // 2016..2018
    let store = SnapshotStore::new(dfs::Dfs::in_memory(), std::sync::Arc::new(codecs::Identity));
    let policy = DecayPolicy {
        full_resolution_days: 10,
        day_highlight_days: 20,
        month_highlight_days: 30,
        year_highlight_days: 400,
    };
    let last = index.last_epoch().unwrap();
    let report = decay_with_fungus_traced(
        &mut index,
        last,
        &policy,
        Fungus::EvictOldestIndividuals,
        &store,
    )
    .unwrap()
    .0;
    // 800 days in: everything of 2016 is older than 400 days → pruned.
    assert_eq!(report.years_pruned, 1);
    assert_eq!(
        index.years().iter().map(|y| y.year).collect::<Vec<_>>(),
        vec![2017, 2018]
    );
    // Root highlights still describe all data ever ingested (the schema
    // never decays; the root summary is the warehouse's memory).
    assert_eq!(index.root_highlights().cdr_records, 0); // empty snapshots
    assert!(index.root_highlights().last_epoch >= EpochId(799 * EPOCHS_PER_DAY));
}

#[test]
fn persistence_round_trips_a_long_horizon() {
    let mut index = TemporalIndex::new(HighlightConfig::default());
    drive(&mut index, 500 * EPOCHS_PER_DAY);
    let image = spate_core::index::persist::to_bytes(&index);
    let restored = spate_core::index::persist::from_bytes(&image).unwrap();
    assert_eq!(restored.years().len(), index.years().len());
    assert_eq!(restored.present_leaves(), index.present_leaves());
    assert_eq!(restored.last_epoch(), index.last_epoch());
}

#[test]
fn highlights_merge_is_associative_along_the_path() {
    // Merging day summaries into a month must equal merging the raw epoch
    // summaries directly — exercised over synthetic highlight objects.
    let config = HighlightConfig::default();
    let n = config.categorical_attrs.len();
    let mk = |e: u32| {
        let mut h = Highlights::empty(EpochId(e), n);
        h.cdr_records = u64::from(e) + 1;
        h
    };
    let mut day_a = Highlights::empty(EpochId(0), n);
    day_a.merge(&mk(0));
    day_a.merge(&mk(1));
    let mut day_b = Highlights::empty(EpochId(2), n);
    day_b.merge(&mk(2));
    let mut month_via_days = Highlights::empty(EpochId(0), n);
    month_via_days.merge(&day_a);
    month_via_days.merge(&day_b);

    let mut month_direct = Highlights::empty(EpochId(0), n);
    for e in 0..3 {
        month_direct.merge(&mk(e));
    }
    assert_eq!(month_via_days.cdr_records, month_direct.cdr_records);
    assert_eq!(month_via_days.first_epoch, month_direct.first_epoch);
    assert_eq!(month_via_days.last_epoch, month_direct.last_epoch);
}

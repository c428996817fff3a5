//! Long-horizon index tests: the year → month → day → epoch structure of
//! paper Fig. 5 over multiple years of ingestion, plus multi-year decay.
//!
//! Snapshots here are empty (structure is what's under test), so driving
//! hundreds of days stays fast.

use spate_core::index::decay::{decay_with_fungus_traced, Fungus};
use spate_core::index::highlights::HighlightConfig;
use spate_core::index::highlights::Resolution::{Day, Month, Year};
use spate_core::index::{Covering, TemporalIndex};
use spate_core::storage::{SnapshotStore, StoredSnapshot};
use spate_core::{DecayPolicy, Highlights};
use telco_trace::record::{Record, Value};
use telco_trace::schema::{cdr, nms};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::{days_in_month, EpochId, EPOCHS_PER_DAY};

fn drive(index: &mut TemporalIndex, epochs: u32) {
    drive_with(index, epochs, |e| Snapshot::new(e, vec![], vec![]));
}

fn drive_with(index: &mut TemporalIndex, epochs: u32, snapshot: impl Fn(EpochId) -> Snapshot) {
    for e in 0..epochs {
        let snap = snapshot(EpochId(e));
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

    assert_eq!(
        index.nodes(Year).keys().copied().collect::<Vec<_>>(),
        vec![2016, 2017, 2018]
    );

    // 2017 is fully covered: 12 months, each with the right day count.
    let months = |year: u32| index.nodes(Month).range(year * 12..year * 12 + 12);
    let days = |month: u32| index.nodes(Day).range(Month.days(month));
    assert_eq!(months(2017).count(), 12);
    for (&key, _) in months(2017) {
        let month = key % 12 + 1;
        assert_eq!(
            days(key).count() as u32,
            days_in_month(2017, month),
            "month {}",
            month
        );
        for (&day, _) in days(key) {
            let first = EpochId(day * EPOCHS_PER_DAY);
            let leaves = index.leaves_in(first, EpochId(first.0 + EPOCHS_PER_DAY - 1));
            assert_eq!(leaves.len() as u32, EPOCHS_PER_DAY);
        }
    }
    // 2016 starts mid-January: January has only 14 days (18th..31st).
    let (&jan16, _) = months(2016).next().unwrap();
    assert_eq!(jan16 % 12 + 1, 1);
    assert_eq!(days(jan16).count(), 14);

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
        index.nodes(Year).keys().copied().collect::<Vec<_>>(),
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
    assert_eq!(restored.nodes(Year).len(), index.nodes(Year).len());
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

/// Epoch `e` of the traffic scenario: one CDR record every fifth epoch and
/// `e % 3` NMS reports, all of cell `e % 7`, so a node's counters tell its
/// period apart and decay shrinks what it keeps per cell.
fn traffic(e: EpochId) -> Snapshot {
    let record = |width: usize, cell: usize| {
        let mut values = vec![Value::Null; width];
        values[cell] = Value::Int(i64::from(e.0 % 7));
        Record::new(values)
    };
    let cdr = (0..u32::from(e.0.is_multiple_of(5))).map(|_| record(cdr::WIDTH, cdr::CELL_ID));
    let nms = (0..e.0 % 3).map(|_| record(nms::WIDTH, nms::CELL_ID));
    Snapshot::new(e, cdr.collect(), nms.collect())
}

/// What the index answers, independent of how it is laid out: for each
/// window, `find_covering` (an exact answer must list the window's epochs)
/// and how many leaves `leaves_in` finds and how many are present; then
/// `present_leaves()` and `index_bytes()`.
fn observe(index: &TemporalIndex) -> Vec<String> {
    let at = |day: u32, slot: u32| EpochId(day * EPOCHS_PER_DAY + slot);
    let windows = [
        (at(0, 5), at(0, 20)),
        (at(13, 0), at(13, 47)),
        (at(13, 40), at(14, 8)),
        (at(100, 0), at(110, 47)),
        (at(200, 3), at(260, 9)),
        (at(300, 5), at(300, 20)),
        (at(348, 40), at(349, 2)),
        (at(400, 0), at(500, 0)),
        (at(600, 10), at(600, 30)),
        (at(700, 5), at(700, 20)),
        (at(690, 0), at(713, 47)),
        (at(713, 47), at(714, 0)),
        (at(719, 0), at(719, 47)),
        (at(740, 0), at(749, 47)),
        (at(745, 0), at(760, 0)),
        (at(0, 0), at(749, 47)),
        (at(800, 0), at(800, 5)),
        (EpochId(0), EpochId(u32::MAX)),
    ];
    let mut seen: Vec<String> = windows
        .iter()
        .map(|&(start, end)| {
            let covering = match index.find_covering(start, end) {
                Covering::Exact(leaves) => {
                    assert!(leaves.iter().map(|l| l.epoch.0).eq(start.0..=end.0));
                    "exact".to_string()
                }
                Covering::Summary {
                    resolution,
                    highlights: h,
                } => format!("{} {}/{}", resolution.label(), h.cdr_records, h.nms_records),
                Covering::Unavailable => "unavailable".to_string(),
            };
            let leaves = index.leaves_in(start, end);
            let present = leaves.iter().filter(|l| l.present).count();
            format!(
                "{}..={}: {covering}, leaves {}/{present}",
                start.0,
                end.0,
                leaves.len()
            )
        })
        .collect();
    seen.push(format!("present {}", index.present_leaves()));
    seen.push(format!("bytes {}", index.index_bytes()));
    seen
}

/// The index's meaning, pinned apart from its format: the two-year
/// scenario with traffic, then three decay passes at a later `now` each,
/// checked against the answers the nested-tree index gave.
#[test]
fn the_two_year_scenario_answers_the_same_through_three_decay_passes() {
    let mut index = TemporalIndex::new(HighlightConfig::default());
    drive_with(&mut index, 750 * EPOCHS_PER_DAY, traffic);
    let store = SnapshotStore::new(dfs::Dfs::in_memory(), std::sync::Arc::new(codecs::Identity));
    let policy = DecayPolicy {
        full_resolution_days: 30,
        day_highlight_days: 90,
        month_highlight_days: 200,
        year_highlight_days: 400,
    };
    // (now's day, the pass's [leaves evicted, day and month highlights
    // dropped, years pruned], what the index answers after it)
    let passes: [(u32, [usize; 4], &[&str]); 3] = [
        (
            380,
            [16800, 290, 6, 0],
            &[
                "5..=20: year 3351/16752, leaves 16/0",
                "624..=671: year 3351/16752, leaves 48/0",
                "664..=680: year 3351/16752, leaves 17/0",
                "4800..=5327: year 3351/16752, leaves 528/0",
                "9603..=12489: year 3351/16752, leaves 2887/0",
                "14405..=14420: day 10/48, leaves 16/0",
                "16744..=16754: root 7200/36000, leaves 11/0",
                "19200..=24000: exact, leaves 4801/4801",
                "28810..=28830: exact, leaves 21/21",
                "33605..=33620: exact, leaves 16/16",
                "33120..=34271: exact, leaves 1152/1152",
                "34271..=34272: exact, leaves 2/2",
                "34512..=34559: exact, leaves 48/48",
                "35520..=35999: exact, leaves 480/480",
                "35760..=36480: month 48/240, leaves 240/240",
                "0..=35999: root 7200/36000, leaves 36000/19200",
                "38400..=38405: year 345/1728, leaves 0/0",
                "0..=4294967295: root 7200/36000, leaves 36000/19200",
                "present 19200",
                "bytes 2551808",
            ],
        ),
        (
            749,
            [17712, 369, 12, 1],
            &[
                "5..=20: root 7200/36000, leaves 0/0",
                "624..=671: root 7200/36000, leaves 0/0",
                "664..=680: root 7200/36000, leaves 0/0",
                "4800..=5327: root 7200/36000, leaves 0/0",
                "9603..=12489: root 7200/36000, leaves 0/0",
                "14405..=14420: root 7200/36000, leaves 0/0",
                "16744..=16754: root 7200/36000, leaves 3/0",
                "19200..=24000: year 3504/17520, leaves 4801/0",
                "28810..=28830: month 288/1440, leaves 21/0",
                "33605..=33620: day 10/48, leaves 16/0",
                "33120..=34271: month 298/1488, leaves 1152/0",
                "34271..=34272: root 7200/36000, leaves 2/0",
                "34512..=34559: exact, leaves 48/48",
                "35520..=35999: exact, leaves 480/480",
                "35760..=36480: month 48/240, leaves 240/240",
                "0..=35999: root 7200/36000, leaves 19248/1488",
                "38400..=38405: year 345/1728, leaves 0/0",
                "0..=4294967295: root 7200/36000, leaves 19248/1488",
                "present 1488",
                "bytes 1284096",
            ],
        ),
        (
            1120,
            [1488, 91, 8, 1],
            &[
                "5..=20: root 7200/36000, leaves 0/0",
                "624..=671: root 7200/36000, leaves 0/0",
                "664..=680: root 7200/36000, leaves 0/0",
                "4800..=5327: root 7200/36000, leaves 0/0",
                "9603..=12489: root 7200/36000, leaves 0/0",
                "14405..=14420: root 7200/36000, leaves 0/0",
                "16744..=16754: root 7200/36000, leaves 0/0",
                "19200..=24000: root 7200/36000, leaves 0/0",
                "28810..=28830: root 7200/36000, leaves 0/0",
                "33605..=33620: root 7200/36000, leaves 0/0",
                "33120..=34271: root 7200/36000, leaves 0/0",
                "34271..=34272: root 7200/36000, leaves 1/0",
                "34512..=34559: year 345/1728, leaves 48/0",
                "35520..=35999: year 345/1728, leaves 480/0",
                "35760..=36480: year 345/1728, leaves 240/0",
                "0..=35999: root 7200/36000, leaves 1728/0",
                "38400..=38405: year 345/1728, leaves 0/0",
                "0..=4294967295: root 7200/36000, leaves 1728/0",
                "present 0",
                "bytes 111616",
            ],
        ),
    ];
    for (day, report, expected) in passes {
        let now = EpochId(day * EPOCHS_PER_DAY + EPOCHS_PER_DAY - 1);
        let (done, evicted) = decay_with_fungus_traced(
            &mut index,
            now,
            &policy,
            Fungus::EvictOldestIndividuals,
            &store,
        )
        .unwrap();
        assert_eq!(evicted.len(), done.leaves_evicted);
        let seen = [
            done.leaves_evicted,
            done.day_highlights_dropped,
            done.month_highlights_dropped,
            done.years_pruned,
        ];
        assert_eq!(seen, report, "pass at day {day}");
        assert_eq!(observe(&index), expected, "pass at day {day}");
    }
}

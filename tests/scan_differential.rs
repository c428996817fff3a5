//! One scan contract, three drivers. T1–T8 and SPATE-SQL read a window
//! through `ExplorationFramework::scan_rows`; RAW, SHAHED and SPATE-Path
//! answer it from the stored text without decoding, SPATE-CAS from the
//! verified column pieces of the one table asked for, and the trait's
//! provided default answers it from `load_epoch`'s decoded records. Every
//! task and statement must give the same answer through each, on every
//! framework — also when a leaf in the middle of the window is missing or
//! damaged, where the epoch must contribute nothing: not even the rows
//! that precede the damage. A CAS store refuses to put damaged text, so
//! its epoch is damaged at rest: a truncated pack, or the next epoch's
//! files copied over its own.

use cas::CasStore;
use spate::core::framework::{
    ExplorationFramework, IngestStats, RawFramework, ShahedFramework, SpaceReport, SpateFramework,
};
use spate::core::query::{Query, QueryResult};
use spate::core::storage::SnapshotStore;
use spate::core::tasks;
use spate::dfs::Dfs;
use spate::sql::SqlContext;
use spate::trace::time::EpochId;
use spate::trace::{CellLayout, Snapshot, TraceConfig, TraceGenerator};
use std::collections::BTreeMap;

/// A morning's worth of epochs: enough traffic for T4 to find movers.
const FIRST: u32 = 14;
const LAST: u32 = 21;
/// The leaf the damaged warehouses lose.
const DAMAGED: u32 = 17;

fn trace() -> (CellLayout, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 512.0));
    let layout = generator.layout().clone();
    let snaps = (&mut generator)
        .skip(FIRST as usize)
        .take((LAST - FIRST + 1) as usize)
        .collect();
    (layout, snaps)
}

/// `fw` with its row scanner taken away: `scan_rows` is the trait's
/// provided default, which decodes every epoch through `load_epoch`.
struct Decoded<'a>(&'a dyn ExplorationFramework);

impl ExplorationFramework for Decoded<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn layout(&self) -> &CellLayout {
        self.0.layout()
    }
    fn ingest(&mut self, _: &Snapshot) -> IngestStats {
        unreachable!("a read-only view")
    }
    fn space(&self) -> SpaceReport {
        self.0.space()
    }
    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot> {
        self.0.load_epoch(epoch)
    }
    fn query(&self, q: &Query) -> QueryResult {
        self.0.query(q)
    }
    fn version(&self) -> u64 {
        self.0.version()
    }
}

const STATEMENTS: [&str; 7] = [
    "SELECT upflux, downflux FROM CDR",
    "SELECT caller_id, duration_s FROM CDR WHERE call_result = 'DROP' OR duration_s > 100",
    "SELECT cell_id, SUM(call_drops), COUNT(*) FROM NMS GROUP BY cell_id \
     HAVING SUM(call_attempts) > 0 ORDER BY 2 DESC",
    "SELECT a.caller_id FROM CDR a, CDR b \
     WHERE a.caller_id = b.caller_id AND a.cell_id != b.cell_id",
    "SELECT * FROM NMS",
    "SELECT * FROM CDR WHERE tech LIKE '_G' LIMIT 40",
    "SELECT cell_id FROM CELL WHERE cell_id IN (SELECT cell_id FROM NMS WHERE call_drops > 0)",
];

/// Every task and statement over the window, each answer in a printed
/// form that compares exactly (floats print every digit; hash maps are
/// sorted first).
fn answers(fw: &dyn ExplorationFramework) -> Vec<(&'static str, String)> {
    let (start, end) = (EpochId(FIRST), EpochId(LAST));
    let t3 = tasks::t3_aggregate(fw, start, end).0;
    let t3: (BTreeMap<_, _>, BTreeMap<_, _>) = (
        t3.drops_per_cell.into_iter().collect(),
        t3.drop_rate_per_cluster.into_iter().collect(),
    );
    let t1 = |epoch| format!("{:?}", tasks::t1_equality(fw, EpochId(epoch)).0);
    let mut out = vec![
        ("T1", t1(FIRST + 1)),
        ("T1 of the damaged epoch", t1(DAMAGED)),
        ("T2", format!("{:?}", tasks::t2_range(fw, start, end).0)),
        ("T3", format!("{t3:?}")),
        ("T4", format!("{:?}", tasks::t4_join(fw, start, end).0)),
        (
            "T5",
            format!("{:?}", tasks::t5_privacy(fw, start, end, 3).0),
        ),
        (
            "T6",
            format!("{:?}", tasks::t6_statistics(fw, start, end).0),
        ),
        (
            "T7",
            format!("{:?}", tasks::t7_clustering(fw, start, end, 3).0),
        ),
        (
            "T8",
            format!("{:?}", tasks::t8_regression(fw, start, end).0),
        ),
    ];
    let ctx = SqlContext::new(fw, start, end);
    out.extend(STATEMENTS.map(|sql| (sql, format!("{:?}", ctx.query(sql)))));
    out
}

type Answers = [(&'static str, String)];

fn assert_same(what: &str, got: &Answers, want: &Answers) {
    assert_eq!(got.len(), want.len());
    for ((label, got), (_, want)) in got.iter().zip(want) {
        assert!(got == want, "{what}: {label}\n got {got}\nwant {want}");
    }
}

/// The four warehouses, holding `snaps`.
struct Warehouses {
    raw: RawFramework,
    shahed: ShahedFramework,
    path: SpateFramework,
    cas: SpateFramework,
}

impl Warehouses {
    fn ingest(layout: &CellLayout, snaps: &[Snapshot]) -> Self {
        let mut w = Warehouses {
            raw: RawFramework::in_memory(layout.clone()),
            shahed: ShahedFramework::in_memory(layout.clone()),
            path: SpateFramework::in_memory(layout.clone()),
            cas: SpateFramework::with_cas(Dfs::in_memory(), layout.clone()),
        };
        for s in snaps {
            w.raw.ingest(s);
            w.shahed.ingest(s);
            w.path.ingest(s);
            w.cas.ingest(s);
        }
        w.shahed.finalize();
        w
    }

    fn each(&self) -> [(&'static str, &dyn ExplorationFramework, &SnapshotStore); 4] {
        [
            ("RAW", &self.raw, self.raw.store()),
            ("SHAHED", &self.shahed, self.shahed.store()),
            ("SPATE-Path", &self.path, self.path.store()),
            ("SPATE-CAS", &self.cas, self.cas.store()),
        ]
    }
}

/// What happens to the leaf of one epoch.
#[derive(Clone, Copy)]
enum Damage<'a> {
    Missing,
    /// A Path leaf holds this text instead; a CAS put refuses it.
    Text(&'a [u8]),
    /// The CAS epoch's pack loses its second half.
    TruncatedPack,
    /// The CAS epoch's manifest and pack are the next epoch's.
    NextEpochsFiles,
}

/// Damage the leaf of `epoch` behind the back of the framework that owns
/// the store. Whether the damage applies to this backend.
fn damage_leaf(store: &SnapshotStore, epoch: EpochId, damage: Damage) -> bool {
    let dfs = store.dfs();
    let overwrite = |path: &str, bytes: &[u8]| {
        dfs.delete(path).expect("delete the file");
        dfs.write(path, bytes).expect("write the damaged file");
    };
    match (damage, store.cas()) {
        (Damage::Missing, _) => {
            store.evict(epoch).expect("evict the leaf");
        }
        (Damage::Text(text), Some(cas)) => {
            assert!(
                cas.put_epoch(epoch.0, text).is_err(),
                "a CAS put of damaged text"
            );
            return false;
        }
        (Damage::Text(text), None) => {
            let codec = spate::codecs::by_name(store.codec_name()).expect("a known codec");
            overwrite(&store.path_for(epoch), &codec.compress(text));
        }
        (Damage::TruncatedPack, Some(cas)) => {
            let pack = dfs.read(&cas.pack_path(epoch.0)).expect("a pack");
            overwrite(&cas.pack_path(epoch.0), &pack[..pack.len() / 2]);
        }
        (Damage::NextEpochsFiles, Some(cas)) => {
            for path in [CasStore::manifest_path, CasStore::pack_path] {
                let next = dfs
                    .read(&path(cas, epoch.0 + 1))
                    .expect("the next epoch's file");
                overwrite(&path(cas, epoch.0), &next);
            }
        }
        (Damage::TruncatedPack | Damage::NextEpochsFiles, None) => return false,
    }
    true
}

#[test]
fn every_scanner_answers_as_the_decoded_driver_does() {
    let (layout, snaps) = trace();
    let warehouses = Warehouses::ingest(&layout, &snaps);
    let want = answers(&Decoded(&warehouses.raw));
    // The window is not trivially empty.
    assert!(want.iter().all(|(_, answer)| answer.len() > 12), "{want:?}");
    for (name, fw, _) in warehouses.each() {
        assert_same(&format!("{name}, scanner"), &answers(fw), &want);
        assert_same(&format!("{name}, decoded"), &answers(&Decoded(fw)), &want);
    }
    // The CAS row above is the column arm: a one-table scan opens every
    // epoch of the window and reads one table of each as columns.
    let cas = warehouses.cas.store().cas().expect("the CAS backend");
    let before = cas.stats();
    tasks::t2_range(&warehouses.cas, EpochId(FIRST), EpochId(LAST));
    let (opened, tables) = (
        cas.stats().gets - before.gets,
        cas.stats().tables_read - before.tables_read,
    );
    assert_eq!(
        (opened, tables),
        (u64::from(LAST - FIRST + 1), u64::from(LAST - FIRST + 1))
    );
}

/// T5 reads its window through the scanner and builds each row's record:
/// on a healthy window its table is the one the CDR records `load_epoch`
/// decodes give, on every warehouse.
#[test]
fn t5_anonymizes_what_load_epoch_decodes() {
    let (layout, snaps) = trace();
    let warehouses = Warehouses::ingest(&layout, &snaps);
    for (name, fw, _) in warehouses.each() {
        let decoded: Vec<_> = (FIRST..=LAST)
            .map(|e| fw.load_epoch(EpochId(e)).expect("a healthy epoch"))
            .flat_map(|snap| snap.cdr)
            .collect();
        for k in [2, 5, 25] {
            let want = tasks::t5_anonymizer(k).anonymize(&decoded);
            let got = tasks::t5_privacy(fw, EpochId(FIRST), EpochId(LAST), k).0;
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}, k = {k}");
        }
    }
}

#[test]
fn a_damaged_leaf_contributes_nothing_on_either_driver() {
    let (layout, snaps) = trace();
    let damaged = &snaps[(DAMAGED - FIRST) as usize];
    assert_eq!(damaged.epoch, EpochId(DAMAGED));
    let text = damaged.to_bytes();
    let text_str = std::str::from_utf8(&text).unwrap();

    // Cut in the middle of the last CDR row: every row before it is whole.
    let nms_table = text_str.find("#TABLE NMS").unwrap();
    let truncated = &text[..nms_table - 40];
    // One NMS row a field short: every CDR row before it is whole.
    let last_row = text_str.trim_end().rfind('\n').unwrap() + 1;
    let first_comma = last_row + text_str[last_row..].find(',').unwrap();
    let short_row = [&text[..last_row], &text[first_comma + 1..]].concat();
    assert!(Snapshot::from_bytes(truncated).is_err());
    assert!(Snapshot::from_bytes(&short_row).is_err());
    // A whole snapshot, of the next epoch.
    let misfiled = snaps[(DAMAGED - FIRST) as usize + 1].to_bytes();

    // What a warehouse that never saw the epoch answers.
    let others: Vec<Snapshot> = snaps
        .iter()
        .filter(|s| s.epoch != damaged.epoch)
        .cloned()
        .collect();
    let without = Warehouses::ingest(&layout, &others);
    let want = answers(&Decoded(&without.raw));

    let damages: [(&str, Damage); 6] = [
        ("missing", Damage::Missing),
        ("truncated mid-row", Damage::Text(truncated)),
        ("one short row", Damage::Text(&short_row)),
        ("another epoch's header", Damage::Text(&misfiled)),
        ("truncated pack", Damage::TruncatedPack),
        ("the next epoch's files", Damage::NextEpochsFiles),
    ];
    for (damage, leaf) in damages {
        let warehouses = Warehouses::ingest(&layout, &snaps);
        for (name, fw, store) in warehouses.each() {
            if !damage_leaf(store, damaged.epoch, leaf) {
                continue;
            }
            assert!(fw.load_epoch(damaged.epoch).is_none(), "{name}, {damage}");
            assert_same(&format!("{name}, {damage}, scanner"), &answers(fw), &want);
            assert_same(
                &format!("{name}, {damage}, decoded"),
                &answers(&Decoded(fw)),
                &want,
            );
        }
    }
}

//! The CAS store takes a snapshot only as `Snapshot::to_bytes` writes it,
//! and `SpateFramework::ingest` expects its put to succeed: a refusal would
//! panic the ingest. So every kind of snapshot the system ingests goes
//! through `SpateFramework::with_cas` here — generated epochs at four
//! scales, night and busy hour; the sub-snapshots a sharded warehouse
//! ingests; empty, one-row and all-constant tables — and must load back as
//! itself and scan, table by table, as the Path framework scans it.

use spate::core::framework::{ExplorationFramework, SpateFramework};
use spate::core::shard::split_snapshot;
use spate::dfs::Dfs;
use spate::trace::schema::{Schema, TableKind};
use spate::trace::time::EpochId;
use spate::trace::{CellLayout, Snapshot, TraceConfig, TraceGenerator};

/// Every field of every row `scan_rows` lends of `table` in `epoch`.
fn rows(fw: &SpateFramework, epoch: EpochId, table: TableKind) -> Vec<Vec<String>> {
    let width = Schema::shared(table).width();
    let mut out = Vec::new();
    fw.scan_rows(epoch, epoch, table, &mut |_, rows| {
        for row in rows {
            out.push((0..width).map(|c| row.text(c).into_owned()).collect());
        }
    });
    out
}

/// Ingest `snaps` into a CAS and a Path warehouse: the CAS one loads each
/// back as itself and scans each table as the Path one does.
fn ingest_and_compare(what: &str, layout: &CellLayout, snaps: &[Snapshot]) {
    let mut cas = SpateFramework::with_cas(Dfs::in_memory(), layout.clone());
    let mut path = SpateFramework::in_memory(layout.clone());
    for s in snaps {
        cas.ingest(s);
        path.ingest(s);
    }
    for s in snaps {
        let what = format!("{what}, epoch {}", s.epoch.0);
        let loaded = cas.load_epoch(s.epoch).expect(&what);
        // Schema-on-read: compare the wire forms.
        assert_eq!(loaded.to_bytes(), s.to_bytes(), "{what}");
        for table in [TableKind::Cdr, TableKind::Nms] {
            let got = rows(&cas, s.epoch, table);
            assert_eq!(got.len(), s.table(table).len(), "{what}, {table:?}");
            assert_eq!(got, rows(&path, s.epoch, table), "{what}, {table:?}");
        }
    }
}

/// Epochs 6 (03:00, the night) and 38 (19:00, the busiest hour) of the
/// trace at `scale`.
fn night_and_busy_hour(scale: f64) -> (CellLayout, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(scale));
    let layout = generator.layout().clone();
    let night = generator.nth(6).unwrap();
    let busy = generator.nth(38 - 7).unwrap();
    assert_eq!((night.epoch, busy.epoch), (EpochId(6), EpochId(38)));
    (layout, vec![night, busy])
}

#[test]
fn generated_epochs_at_every_scale_are_put() {
    for scale in [1.0 / 2048.0, 1.0 / 512.0, 1.0 / 64.0, 1.0 / 8.0] {
        let (layout, snaps) = night_and_busy_hour(scale);
        ingest_and_compare(&format!("1/{}", 1.0 / scale), &layout, &snaps);
    }
}

#[test]
fn the_sub_snapshots_of_four_shards_are_put() {
    let (layout, snaps) = night_and_busy_hour(1.0 / 512.0);
    let parts: Vec<Vec<Snapshot>> = snaps.iter().map(|s| split_snapshot(s, 4)).collect();
    for shard in 0..4 {
        let parts: Vec<Snapshot> = parts.iter().map(|p| p[shard].clone()).collect();
        ingest_and_compare(&format!("shard {shard}"), &layout, &parts);
    }
}

#[test]
fn empty_one_row_and_constant_tables_are_put() {
    let (layout, snaps) = night_and_busy_hour(1.0 / 2048.0);
    let (cdr, nms) = (&snaps[1].cdr, &snaps[1].nms);
    let snaps = [
        Snapshot::new(EpochId(1), Vec::new(), Vec::new()),
        Snapshot::new(EpochId(2), cdr[..1].to_vec(), nms[..1].to_vec()),
        Snapshot::new(EpochId(3), vec![cdr[0].clone(); 3], vec![nms[0].clone(); 5]),
    ];
    ingest_and_compare("constructed", &layout, &snaps);
}

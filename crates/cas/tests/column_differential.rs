//! Column arm ≡ text arm. The reference reading of a stored epoch is
//! `get_epoch` + `Snapshot::scan`: the snapshot reassembled and walked as
//! text. `open_epoch().snapshot_columns(tables)` must lend, for every
//! column of every row of every table it reads, the same field text, or
//! refuse what the reference refuses too. It reads one table without
//! inflating the other, so a snapshot the reference refuses for one
//! table's sake may still lend the other; asked for both tables it never
//! lends what the reference refuses. What is not a snapshot as
//! `Snapshot::to_bytes` writes it is not put, and so never read.
//!
//! `SnapshotStore::load` of a CAS epoch is that read of both tables, each
//! table's columns then built into records (`ColumnTable::records`): the
//! snapshot it builds must equal `Snapshot::from_bytes` of `get_epoch`'s
//! text, as records and as `to_bytes`, and it refuses exactly what
//! `snapshot_columns(&[Cdr, Nms])` refuses.

use cas::{CasConfig, CasError, CasStore, Chunking, Layout};
use dfs::Dfs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::{EpochId, Snapshot, TraceConfig, TraceGenerator};

const EPOCH: u32 = 7;

/// Both tables' fields as the text walk lends them, when it accepts the
/// payload as the snapshot of `EPOCH`.
fn reference(raw: &[u8]) -> Option<[Vec<Vec<String>>; 2]> {
    let mut tables = [Vec::new(), Vec::new()];
    let epoch = Snapshot::scan(raw, |kind, row| {
        let fields = row.fields().map(str::to_string).collect();
        tables[usize::from(kind == TableKind::Nms)].push(fields);
    });
    (epoch.ok()?.0 == EPOCH).then_some(tables)
}

/// What became of a payload: read as columns, a read of its columns
/// refused, or the put refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Columns,
    Refused,
    NotPut,
}

/// Store `raw` and hold every way of asking for its columns against the
/// reference.
fn check(cas: &CasStore, raw: &[u8]) -> Arm {
    match cas.put_epoch(EPOCH, raw) {
        Ok(_) => {}
        Err(CasError::Corrupt(why)) if why.contains("not the snapshot") => return Arm::NotPut,
        Err(e) => panic!("unexpected put error: {e}"),
    }
    let want = reference(raw);
    let reader = cas.open_epoch(EPOCH).expect("a stored epoch opens");
    assert_eq!(reader.assemble().unwrap(), raw);
    let both = [TableKind::Cdr, TableKind::Nms];
    let mut arm = Arm::Columns;
    for wanted in [&both[..1], &both[1..], &both[..]] {
        let columns = match reader.snapshot_columns(wanted) {
            Ok(columns) => columns,
            Err(CasError::Corrupt(_)) => {
                assert!(want.is_none(), "refused what the text walk accepts");
                arm = Arm::Refused;
                continue;
            }
            Err(e) => panic!("unexpected error class: {e}"),
        };
        let Some(want) = &want else {
            assert!(wanted.len() < 2, "lent what the text walk refuses");
            continue;
        };
        let kinds: Vec<TableKind> = columns.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(kinds, wanted);
        for (kind, table) in &columns {
            let want = &want[usize::from(*kind == TableKind::Nms)];
            assert_eq!(table.rows(), want.len(), "{kind:?}");
            for (r, fields) in want.iter().enumerate() {
                assert_eq!(table.width(), fields.len());
                for (c, field) in fields.iter().enumerate() {
                    assert_eq!(table.row(r).text(c), field.as_str(), "{kind:?} {r} {c}");
                }
            }
        }
    }
    // What `SnapshotStore::load` builds of the epoch, against the text
    // parse of the reference.
    let loaded = reader.snapshot_columns(&both).ok().map(|columns| {
        let records = |i: usize| columns[i].1.records();
        Snapshot::new(EpochId(EPOCH), records(0), records(1))
    });
    let parsed = Snapshot::from_bytes(&cas.get_epoch(EPOCH).unwrap()).ok();
    let parsed = parsed.filter(|snapshot| snapshot.epoch == EpochId(EPOCH));
    assert_eq!(
        loaded.as_ref().map(Snapshot::to_bytes),
        parsed.as_ref().map(Snapshot::to_bytes)
    );
    assert_eq!(loaded, parsed);
    cas.drop_epoch(EPOCH).unwrap();
    arm
}

fn store() -> CasStore {
    CasStore::new(Dfs::in_memory(), CasConfig::default())
}

/// Epoch `nth` of the trace at `scale`, relabelled as `EPOCH`.
fn generated(scale: f64, nth: usize) -> Vec<u8> {
    let mut snap = TraceGenerator::new(TraceConfig::scaled(scale))
        .nth(nth)
        .unwrap();
    snap.epoch = telco_trace::EpochId(EPOCH);
    snap.to_bytes()
}

#[test]
fn generated_snapshots_read_alike_at_three_scales() {
    let cas = store();
    for (scale, epochs) in [
        (1.0 / 512.0, vec![0, 9, 18, 27, 36]),
        (1.0 / 64.0, vec![3, 24]),
        (1.0 / 8.0, vec![24]),
    ] {
        for nth in epochs {
            let raw = generated(scale, nth);
            assert_eq!(check(&cas, &raw), Arm::Columns, "1/{} #{nth}", 1.0 / scale);
        }
    }
    // Each stored table with a varying column is exactly one unit, at
    // every scale: the unit holds all of the table's varying values.
    for scale in [1.0 / 512.0, 1.0 / 8.0] {
        let raw = generated(scale, 24);
        let (layout, pieces) = cas::chunker::split(&raw, &Chunking);
        let Layout::Columnar { tables, .. } = &layout else {
            panic!("a snapshot chunks columnar");
        };
        let sections = layout.sections();
        assert_eq!(layout.unit_count(), 2);
        for (table, section) in tables.iter().zip(&sections) {
            assert!(table.has_run());
            let run = &pieces[section.unit.unwrap()];
            let varying = table.constant.iter().filter(|&&c| !c).count();
            let values = run.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(values, varying * table.rows as usize);
        }
    }
}

/// A snapshot of `rows` CDR and NMS rows whose columns are, by turns,
/// constant, empty here and there, short, and wide.
fn table_text(rng: &mut StdRng, rows: [usize; 2]) -> String {
    let mut text = Snapshot::header_line(EpochId(EPOCH));
    for ((kind, width), rows) in [(TableKind::Cdr, cdr::WIDTH), (TableKind::Nms, nms::WIDTH)]
        .into_iter()
        .zip(rows)
    {
        text.push_str(&Snapshot::table_header_line(kind, rows));
        let kinds: Vec<u32> = (0..width).map(|_| rng.gen_range(0..8)).collect();
        for _ in 0..rows {
            let fields: Vec<String> = kinds
                .iter()
                .map(|&kind| match kind {
                    0 | 1 => "0".to_string(),
                    2 => String::new(),
                    3 if rng.gen_range(0..3) == 0 => String::new(),
                    3 | 4 => rng.gen_range(0..100u32).to_string(),
                    5 => format!("{:.3}", rng.gen_range(-9.0..9.0f64)),
                    6 => "LTE".to_string(),
                    _ => format!("a-wide-text-value-{:09}", rng.gen_range(0..1u32 << 30)),
                })
                .collect();
            text.push_str(&fields.join(","));
            text.push('\n');
        }
    }
    text
}

const ROWS: [usize; 6] = [0, 1, 2, 63, 64, 65];

/// Tables of no rows, and tables whose every column holds one value:
/// an epoch with no unit, or one table without one.
#[test]
fn empty_and_all_constant_tables_read_alike() {
    let cas = store();
    for rows in [[0, 0], [0, 3], [4, 0], [2, 7], [1, 1]] {
        let mut text = Snapshot::header_line(EpochId(EPOCH));
        for ((kind, width), rows) in [(TableKind::Cdr, cdr::WIDTH), (TableKind::Nms, nms::WIDTH)]
            .into_iter()
            .zip(rows)
        {
            text.push_str(&Snapshot::table_header_line(kind, rows));
            let row: Vec<&str> = (0..width).map(|c| ["0", "", "LTE"][c % 3]).collect();
            for _ in 0..rows {
                text.push_str(&row.join(","));
                text.push('\n');
            }
        }
        assert_eq!(check(&cas, text.as_bytes()), Arm::Columns, "{rows:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_tables_read_alike(
        seed in any::<u64>(),
        cdr_rows in 0..ROWS.len(),
        nms_rows in 0..ROWS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = table_text(&mut rng, [ROWS[cdr_rows], ROWS[nms_rows]]);
        prop_assert_eq!(check(&store(), text.as_bytes()), Arm::Columns);
    }

    /// One byte of a well-formed snapshot replaced by anything: whatever
    /// the chunker and the parser make of it, the two arms agree.
    #[test]
    fn a_changed_byte_reads_alike_or_not_at_all(
        seed in any::<u64>(),
        at in any::<u32>(),
        byte in prop_oneof![
            Just(b','), Just(b'\n'), Just(b'\r'), Just(b'#'), Just(b'7'), Just(0xFFu8), any::<u8>()
        ],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = table_text(&mut rng, [3, 5]).into_bytes();
        let at = at as usize % raw.len();
        raw[at] = byte;
        check(&store(), &raw);
    }
}

#[test]
fn what_is_not_a_snapshot_as_to_bytes_writes_it_is_not_put() {
    let mut rng = StdRng::seed_from_u64(22);
    let text = table_text(&mut rng, [5, 9]);
    let nms_at = text.find("#TABLE NMS").unwrap();
    let (head, nms_section) = text.split_at(nms_at);
    let cdr_at = head.find("#TABLE CDR").unwrap();
    let (header, cdr_section) = head.split_at(cdr_at);
    let cas = store();
    assert_eq!(check(&cas, text.as_bytes()), Arm::Columns);

    // `\r\n` lines parse, and a column would hold the `\r`; so do lines
    // spelt otherwise than `to_bytes` spells them, and a third table after
    // the NMS one, which the parser ignores. None is put.
    let crlf = text.replace('\n', "\r\n");
    let nms_crlf = format!("{head}{}", nms_section.replace('\n', "\r\n"));
    let spaced = text.replace("#TABLE NMS rows", "#TABLE NMS  rows");
    let third = format!("{text}#TABLE CELL rows=1 cols=2\na,b\n");
    for raw in [&crlf, &nms_crlf, &spaced, &third] {
        assert!(reference(raw.as_bytes()).is_some());
        assert_eq!(check(&cas, raw.as_bytes()), Arm::NotPut);
    }

    // Tables the other way round; a CDR of 199 columns; an opaque
    // payload; another epoch's snapshot under this one's name: none parses
    // as this epoch's snapshot, and none is put.
    let swapped = format!("{header}{nms_section}{cdr_section}");
    let narrow_rows = cdr_section.lines().skip(1).map(|row| {
        let (row, _last) = row.rsplit_once(',').unwrap();
        format!("{row}\n")
    });
    let narrow_rows: String = narrow_rows.collect();
    let narrow = format!("{header}#TABLE CDR rows=5 cols=199\n{narrow_rows}{nms_section}");
    let misfiled = text.replace(&format!("epoch={EPOCH} "), "epoch=8 ");
    for raw in [
        swapped.as_bytes(),
        narrow.as_bytes(),
        b"\x00\x01 opaque",
        misfiled.as_bytes(),
    ] {
        assert!(reference(raw).is_none());
        assert_eq!(check(&cas, raw), Arm::NotPut);
    }

    // Bytes that are not UTF-8: in a CDR value, in an NMS value and in the
    // header, none parses, and none is put.
    let not_utf8_from = |from: usize| {
        let mut raw = text.clone().into_bytes();
        let value = raw[from..].iter().position(u8::is_ascii_alphanumeric);
        raw[from + value.unwrap()] = 0xFF;
        raw
    };
    let in_cdr = not_utf8_from(cdr_at + cdr_section.find('\n').unwrap());
    let in_nms = not_utf8_from(nms_at + nms_section.find('\n').unwrap());
    let mut in_header = text.clone().into_bytes();
    in_header[cdr_at - 2] = 0xFF;
    for raw in [in_cdr, in_nms, in_header] {
        assert!(reference(&raw).is_none());
        assert_eq!(check(&cas, &raw), Arm::NotPut);
    }
}

//! SPATE-SQL through the serving tier answers what SPATE-SQL answers on
//! the RAW oracle. Serve runs a statement over its epoch cache (a layout
//! and a row scan handed to `SqlContext::over`); the oracle runs it over
//! plain files with `spate_sql::execute_over`. Rows are compared in
//! canonical order, on one shard and on two.

use spate_core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate_core::shard::{canonical_sort, ShardedSpate};
use spate_serve::{ClientConn, Reply, ServeConfig, Server};
use telco_trace::cells::CellLayout;
use telco_trace::record::Value;
use telco_trace::time::EpochId;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

const WINDOW: (u32, u32) = (1, 5);

const STATEMENTS: &[&str] = &[
    "SELECT COUNT(*) FROM CDR",
    "SELECT cell_id, SUM(call_attempts) AS a, COUNT(*) FROM NMS GROUP BY cell_id \
     HAVING COUNT(*) > 2",
    "SELECT n.cell_id, c.tech, n.call_drops FROM NMS n, CELL c \
     WHERE n.cell_id = c.cell_id AND n.call_drops > 0",
    "SELECT caller_id, call_type, duration_s FROM CDR WHERE call_type LIKE 'VO%'",
    "SELECT cell_id, tech FROM CELL WHERE cell_id IN \
     (SELECT cell_id FROM NMS WHERE call_drops > 0)",
    "SELECT a.caller_id, a.cell_id, b.cell_id FROM CDR a, CDR b \
     WHERE a.caller_id = b.caller_id AND a.duration_s <= b.duration_s",
    "SELECT DISTINCT call_type, tech FROM CDR WHERE duration_s BETWEEN 60 AND 300",
    "SELECT MIN(duration_s), MAX(duration_s), COUNT(*) FROM CDR WHERE tech = 'LTE'",
];

/// An `EXPLAIN ANALYZE` whose row names (and the deterministic values of
/// the rows every profile has) are compared.
const EXPLAINED: &str = "EXPLAIN ANALYZE SELECT cell_id, SUM(call_drops) FROM NMS \
                         WHERE call_drops > 0 GROUP BY cell_id";

fn trace() -> (CellLayout, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 128.0).with_days(1));
    let layout = generator.layout().clone();
    let snaps = generator.by_ref().take(8).collect();
    (layout, snaps)
}

fn server(layout: &CellLayout, snaps: &[Snapshot], shards: usize) -> Server {
    let sharded = ShardedSpate::new(
        (0..shards)
            .map(|_| SpateFramework::in_memory(layout.clone()))
            .collect(),
    );
    for snapshot in snaps {
        sharded.ingest(snapshot);
    }
    Server::start_sharded(sharded, ServeConfig::default())
}

/// A served SQL answer: its column names and its rows in canonical order.
fn served(conn: &mut ClientConn, sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
    match conn.sql(WINDOW, sql).expect("transport") {
        Reply::Rows {
            tables,
            mut rows,
            coverage: None,
            total_rows,
        } => {
            assert_eq!(tables.len(), 1, "{sql}");
            let mut rows = rows.remove(0);
            assert_eq!(rows.len() as u64, total_rows, "{sql}");
            canonical_sort(&mut rows);
            (tables[0].columns.clone(), rows)
        }
        other => panic!("`{sql}` answered {other:?}"),
    }
}

fn oracle(raw: &RawFramework, sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
    let (start, end) = (EpochId(WINDOW.0), EpochId(WINDOW.1));
    let rs = spate_sql::execute_over(raw, start, end, sql).expect(sql);
    let mut rows = rs.rows;
    canonical_sort(&mut rows);
    (rs.columns, rows)
}

/// The rows of an `EXPLAIN ANALYZE` answer every profile has, with the
/// values that depend on neither the store nor the clock. Per-source,
/// per-codec, per-shard and per-stage rows differ between a cache and
/// plain files; byte totals, cache outcomes and `time.total_us` are
/// compared by name only.
fn profile_rows(rows: &[Vec<Value>]) -> Vec<(String, Option<String>)> {
    const VALUED: [&str; 4] = [
        "epochs_touched",
        "rows_scanned",
        "rows_returned",
        "unattributed_bytes",
    ];
    rows.iter()
        .map(|row| (row[0].as_text(), row[1].as_text()))
        .filter(|(name, _)| match name.split_once('.') {
            Some((_, key)) => key == "total" || key == "total_us",
            None => true,
        })
        .map(|(name, value)| {
            let valued = VALUED.contains(&name.as_str());
            (name, valued.then_some(value))
        })
        .collect()
}

#[test]
fn sql_through_serve_answers_what_the_raw_oracle_answers() {
    let (layout, snaps) = trace();
    let mut raw = RawFramework::in_memory(layout.clone());
    for snapshot in &snaps {
        raw.ingest(snapshot);
    }
    for shards in [1, 2] {
        let server = server(&layout, &snaps, shards);
        let mut conn = server.connect();
        for sql in STATEMENTS {
            let expected = oracle(&raw, sql);
            assert!(!expected.1.is_empty(), "`{sql}` answers no row");
            assert_eq!(served(&mut conn, sql), expected, "{shards} shards: {sql}");
        }
        let (columns, explained) = served(&mut conn, EXPLAINED);
        let (oracle_columns, oracle_explained) = oracle(&raw, EXPLAINED);
        assert_eq!(columns, oracle_columns);
        assert_eq!(
            profile_rows(&explained),
            profile_rows(&oracle_explained),
            "{shards} shards"
        );
        conn.close();
        server.shutdown();
    }
}

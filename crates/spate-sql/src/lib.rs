//! SPATE-SQL: the declarative data exploration interface.
//!
//! "The SPATE-SQL interface allows expert users and data scientists to
//! explore the collected data through declarative SQL. The current
//! configuration currently allows all basic SELECT-FROM-WHERE block
//! queries, nested queries, joins, aggregates, etc. directly through the
//! compressed storage representation of the SPATE structure" (§VI-B).
//!
//! The dialect:
//!
//! ```sql
//! SELECT upflux, downflux FROM CDR WHERE ts_start = '201601221530';
//! SELECT cellid, SUM(call_drops) FROM NMS GROUP BY cellid
//!   HAVING SUM(call_drops) > 3 ORDER BY 2 DESC LIMIT 10;
//! SELECT a.caller_id FROM CDR a, CDR b
//!   WHERE a.caller_id = b.caller_id AND a.cell_id != b.cell_id;
//! SELECT cell_id FROM CELL WHERE cell_id IN (SELECT cell_id FROM NMS WHERE call_drops > 5);
//! SELECT DISTINCT call_type FROM CDR
//!   WHERE duration_s BETWEEN 60 AND 300 AND tech LIKE '_G';
//! ```
//!
//! Queries execute against an [`SqlContext`] bound to any
//! [`spate_core::framework::ExplorationFramework`], so the same statement
//! runs over RAW, SHAHED or SPATE storage — which is exactly how the
//! paper's task queries T1–T4 are phrased — or to a bare layout and row
//! scan ([`SqlContext::over`]), which is how the serving tier runs it over
//! its epoch cache.

#![deny(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, SelectItem, SelectStatement, Statement};
pub use exec::{ResultSet, SqlContext, SqlError};

/// Parse and execute one SQL statement in a context.
///
/// `EXPLAIN ANALYZE <select>` executes the SELECT under per-query cost
/// accounting and returns the collected [`obs::CostProfile`] as a
/// two-column `(metric, value)` result set instead of the query's rows.
pub fn query(ctx: &SqlContext<'_>, sql: &str) -> Result<ResultSet, SqlError> {
    let stmt = parser::parse_statement(sql).map_err(SqlError::Parse)?;
    if stmt.explain_analyze {
        return Ok(exec::profile_result_set(
            &query_profiled(ctx, &stmt.select)?.1,
        ));
    }
    exec::execute(ctx, &stmt.select)
}

/// Execute a parsed SELECT under cost accounting, returning both the
/// result and its [`obs::CostProfile`]. This is what `EXPLAIN ANALYZE`
/// uses, and what a caller that wants the rows *and* the profile calls
/// (the cost drill's T1/T4). The serving tier does not: a served
/// statement runs under the request's own cost accounting, which the
/// Profile control frame reads.
pub fn query_profiled(
    ctx: &SqlContext<'_>,
    stmt: &SelectStatement,
) -> Result<(ResultSet, obs::CostProfile), SqlError> {
    let guard = obs::cost::begin(obs::trace::current().unwrap_or(0));
    let result = exec::execute(ctx, stmt);
    let profile = guard.finish();
    result.map(|rs| (rs, profile))
}

/// One-call entry point for embedders (notebooks, and the row-store
/// oracles of the serve tests and the benchmark): bind a framework and a
/// window, parse, execute. Equivalent to building
/// an [`SqlContext`] by hand, without the borrow gymnastics at call
/// sites that only run a single statement.
pub fn execute_over(
    fw: &dyn spate_core::framework::ExplorationFramework,
    start: telco_trace::time::EpochId,
    end: telco_trace::time::EpochId,
    sql: &str,
) -> Result<ResultSet, SqlError> {
    SqlContext::new(fw, start, end).query(sql)
}

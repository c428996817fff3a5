//! SQL execution over a window of stored rows.
//!
//! The pipeline is the textbook one: FROM (hash join where an equi-join
//! conjunct exists, nested-loop product otherwise) → WHERE → GROUP BY /
//! aggregate → ORDER BY → LIMIT → projection. Tables materialize from
//! what the context reads: `CDR`/`NMS` from its row scan over the
//! window's snapshots, `CELL` from the static layout.

use crate::ast::*;
use spate_core::framework::ExplorationFramework;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use telco_trace::cells::CellLayout;
use telco_trace::record::Value;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::snapshot::Row;
use telco_trace::time::EpochId;

/// Errors from parsing or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    Parse(String),
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    Unsupported(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            SqlError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            SqlError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// A query result: column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned text table (the Hue-style console view).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::as_text).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(c);
                out.extend(std::iter::repeat_n(' ', w - c.len()));
            }
            out.push('\n');
        };
        fmt_row(&self.columns.to_vec(), &widths, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len().max(1) - 1)));
        out.push('\n');
        for row in &rendered {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// A row scan as [`ExplorationFramework::scan_rows`] makes one: lend
/// `visit` the rows of `table` of every readable epoch of the inclusive
/// window `start..=end`, one epoch per call, in epoch order.
type ScanRows<'a> = dyn Fn(EpochId, EpochId, TableKind, &mut dyn FnMut(EpochId, &[Row<'_>])) + 'a;

/// Execution context: what a statement reads — the cell layout (`CELL`)
/// and a row scan (`CDR`, `NMS`) — plus the temporal window queries run
/// over (SPATE-SQL sessions are always scoped to an exploration window).
pub struct SqlContext<'a> {
    layout: &'a CellLayout,
    scan: Box<ScanRows<'a>>,
    window: (EpochId, EpochId),
}

impl<'a> SqlContext<'a> {
    /// A framework's layout and row scan over `start..=end`.
    pub fn new(fw: &'a dyn ExplorationFramework, start: EpochId, end: EpochId) -> Self {
        Self::over(fw.layout(), start, end, move |start, end, table, visit| {
            fw.scan_rows(start, end, table, visit)
        })
    }

    /// Any layout and row scan over `start..=end`: what a reader that is
    /// not a framework (the serving tier's epoch cache) hands the executor.
    pub fn over(
        layout: &'a CellLayout,
        start: EpochId,
        end: EpochId,
        scan: impl Fn(EpochId, EpochId, TableKind, &mut dyn FnMut(EpochId, &[Row<'_>])) + 'a,
    ) -> Self {
        assert!(start <= end);
        Self {
            layout,
            scan: Box::new(scan),
            window: (start, end),
        }
    }

    /// Convenience: parse + execute.
    pub fn query(&self, sql: &str) -> Result<ResultSet, SqlError> {
        crate::query(self, sql)
    }

    /// Materialize one FROM table: every row as wide as the schema, with
    /// only the columns `used` (ascending) filled in. CDR and NMS rows are
    /// lent by the context's row scan, so a column the statement never
    /// names is never built; it stays `Null` and is never read.
    fn table(&self, schema: &Schema, used: &[usize]) -> Vec<Vec<Value>> {
        if schema.kind == TableKind::Cell {
            let rows = self.layout.to_records();
            // Every materialized base-table row is a scanned row in the
            // active cost profile (no-op outside EXPLAIN ANALYZE / serve);
            // the row scan accounts for the rows it lends.
            obs::cost::add_rows(rows.len() as u64, 0);
            return rows.into_iter().map(|r| r.values).collect();
        }
        let mut rows = Vec::new();
        let (start, end) = self.window;
        (self.scan)(start, end, schema.kind, &mut |_, lent| {
            rows.extend(lent.iter().map(|r| r.sparse_values(used, schema.width())));
        });
        rows
    }
}

/// Render a [`obs::CostProfile`] as a two-column result set — the output
/// shape of `EXPLAIN ANALYZE`.
pub fn profile_result_set(profile: &obs::CostProfile) -> ResultSet {
    ResultSet {
        columns: vec!["metric".to_string(), "value".to_string()],
        rows: profile
            .rows()
            .into_iter()
            .map(|(metric, value)| vec![Value::Str(metric.into()), Value::Str(value.into())])
            .collect(),
    }
}

/// One bound table in the FROM namespace.
struct Binding {
    name: String,
    schema: &'static Schema,
    offset: usize,
}

struct Namespace {
    bindings: Vec<Binding>,
    width: usize,
}

impl Namespace {
    fn resolve(&self, col: &ColumnRef) -> Result<usize, SqlError> {
        let mut found = None;
        for b in &self.bindings {
            if let Some(q) = &col.qualifier {
                if !b.name.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Some(i) = b.schema.column_index(&col.name) {
                if found.is_some() {
                    return Err(SqlError::AmbiguousColumn(col.name.clone()));
                }
                found = Some(b.offset + i);
            }
        }
        found.ok_or_else(|| {
            SqlError::UnknownColumn(match &col.qualifier {
                Some(q) => format!("{q}.{}", col.name),
                None => col.name.clone(),
            })
        })
    }

    /// All column names, qualified when more than one table is bound.
    fn all_columns(&self) -> Vec<String> {
        let qualify = self.bindings.len() > 1;
        let mut out = Vec::with_capacity(self.width);
        for b in &self.bindings {
            for c in &b.schema.columns {
                if qualify {
                    out.push(format!("{}.{}", b.name, c.name));
                } else {
                    out.push(c.name.clone());
                }
            }
        }
        out
    }
}

/// Execute a parsed statement.
pub fn execute(ctx: &SqlContext<'_>, stmt: &SelectStatement) -> Result<ResultSet, SqlError> {
    // Bind FROM tables.
    if stmt.from.is_empty() {
        return Err(SqlError::Unsupported("FROM is required".into()));
    }
    let mut bindings = Vec::new();
    let mut offset = 0;
    for t in &stmt.from {
        let kind = TableKind::from_name(&t.table)
            .ok_or_else(|| SqlError::UnknownTable(t.table.clone()))?;
        let schema = Schema::shared(kind);
        bindings.push(Binding {
            name: t.binding().to_string(),
            schema,
            offset,
        });
        offset += schema.width();
    }
    let ns = Namespace {
        bindings,
        width: offset,
    };
    // Materialize each table with the columns the statement reads of it.
    let referenced = referenced_columns(stmt, &ns);
    let tables = ns
        .bindings
        .iter()
        .map(|b| {
            let columns = 0..b.schema.width();
            let used: Vec<usize> = columns.filter(|c| referenced[b.offset + c]).collect();
            ctx.table(b.schema, &used)
        })
        .collect();

    // Pre-evaluate uncorrelated subqueries into value sets.
    let mut sub_sets: Vec<HashSet<String>> = Vec::new();
    let predicate = match &stmt.predicate {
        Some(p) => Some(lower_subqueries(ctx, p, &mut sub_sets)?),
        None => None,
    };

    // Join the FROM tables left-to-right.
    let mut rows = join_tables(&ns, tables, predicate.as_ref())?;

    // WHERE.
    if let Some(pred) = &predicate {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if eval_bool(pred, &row, &ns, &sub_sets)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // Projection / aggregation.
    let (columns, mut out_rows) = if stmt.has_aggregates() || !stmt.group_by.is_empty() {
        aggregate(stmt, &ns, &rows)?
    } else {
        project(stmt, &ns, rows)?
    };

    // DISTINCT: keep the first occurrence of each row (on text form, the
    // same equality SQL comparisons use).
    if stmt.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|row| {
            let key: Vec<String> = row.iter().map(Value::as_text).collect();
            seen.insert(key)
        });
    }

    // ORDER BY.
    for ob in stmt.order_by.iter().rev() {
        let idx = match &ob.key {
            OrderKey::Position(p) => {
                if *p == 0 || *p > columns.len() {
                    return Err(SqlError::Unsupported(format!("ORDER BY position {p}")));
                }
                p - 1
            }
            OrderKey::Column(c) => {
                let target = &c.name;
                columns
                    .iter()
                    .position(|name| name.eq_ignore_ascii_case(target))
                    .ok_or_else(|| SqlError::UnknownColumn(target.clone()))?
            }
        };
        out_rows.sort_by(|a, b| {
            let ord = compare_values(&a[idx], &b[idx]);
            if ob.descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    if let Some(limit) = stmt.limit {
        out_rows.truncate(limit);
    }

    obs::cost::add_rows(0, out_rows.len() as u64);
    Ok(ResultSet {
        columns,
        rows: out_rows,
    })
}

/// Which columns of the FROM namespace the statement reads: the select
/// list (`*` reads all of them), WHERE, GROUP BY and HAVING. ORDER BY
/// names output columns, and a subquery binds its own tables. A reference
/// that does not resolve marks nothing; it fails where it is evaluated.
fn referenced_columns(stmt: &SelectStatement, ns: &Namespace) -> Vec<bool> {
    fn mark_expr(expr: &Expr, mark: &mut impl FnMut(&ColumnRef)) {
        match expr {
            Expr::Column(c) => mark(c),
            Expr::StringLit(_) | Expr::Number(_) => {}
            Expr::Compare { left, right, .. } => {
                mark_expr(left, mark);
                mark_expr(right, mark);
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                mark_expr(l, mark);
                mark_expr(r, mark);
            }
            Expr::Not(e) | Expr::InSubquery { expr: e, .. } | Expr::Like { expr: e, .. } => {
                mark_expr(e, mark)
            }
            Expr::InList { expr, list, .. } => {
                mark_expr(expr, mark);
                list.iter().for_each(|item| mark_expr(item, mark));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                mark_expr(expr, mark);
                mark_expr(low, mark);
                mark_expr(high, mark);
            }
            Expr::AggregateCall { column, .. } => column.iter().for_each(mark),
        }
    }

    let mut used = vec![false; ns.width];
    let mut mark = |c: &ColumnRef| {
        if let Ok(i) = ns.resolve(c) {
            used[i] = true;
        }
    };
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => return vec![true; ns.width],
            SelectItem::Column(c, _) => mark(c),
            SelectItem::Aggregate { column, .. } => column.iter().for_each(&mut mark),
        }
    }
    stmt.group_by.iter().for_each(&mut mark);
    for expr in stmt.predicate.iter().chain(&stmt.having) {
        mark_expr(expr, &mut mark);
    }
    used
}

/// Replace `InSubquery` nodes with `InList`-like references into
/// `sub_sets` (encoded as a sentinel `InList` whose list holds the set
/// index). Subqueries must be uncorrelated: they execute once, here.
fn lower_subqueries(
    ctx: &SqlContext<'_>,
    expr: &Expr,
    sub_sets: &mut Vec<HashSet<String>>,
) -> Result<Expr, SqlError> {
    Ok(match expr {
        Expr::InSubquery {
            expr: e,
            subquery,
            negated,
        } => {
            let result = execute(ctx, subquery)?;
            if result.columns.len() != 1 {
                return Err(SqlError::Unsupported(
                    "IN subquery must select exactly one column".into(),
                ));
            }
            let set: HashSet<String> = result.rows.iter().map(|r| r[0].as_text()).collect();
            sub_sets.push(set);
            // Sentinel shape recognized by `subquery_set_index`: a tag
            // string that no user literal can produce (embedded NUL), plus
            // the set index.
            Expr::InList {
                expr: e.clone(),
                list: vec![
                    Expr::StringLit("\u{0}subquery".into()),
                    Expr::Number(sub_sets.len() as f64 - 1.0),
                ],
                negated: *negated,
            }
        }
        Expr::And(l, r) => Expr::And(
            Box::new(lower_subqueries(ctx, l, sub_sets)?),
            Box::new(lower_subqueries(ctx, r, sub_sets)?),
        ),
        Expr::Or(l, r) => Expr::Or(
            Box::new(lower_subqueries(ctx, l, sub_sets)?),
            Box::new(lower_subqueries(ctx, r, sub_sets)?),
        ),
        Expr::Not(e) => Expr::Not(Box::new(lower_subqueries(ctx, e, sub_sets)?)),
        other => other.clone(),
    })
}

/// Is this `InList` a lowered subquery sentinel (see `lower_subqueries`)?
fn subquery_set_index(list: &[Expr]) -> Option<usize> {
    if list.len() == 2 {
        if let (Expr::StringLit(tag), Expr::Number(idx)) = (&list[0], &list[1]) {
            if tag == "\u{0}subquery" {
                return Some(*idx as usize);
            }
        }
    }
    None
}

fn join_tables(
    ns: &Namespace,
    tables: Vec<Vec<Vec<Value>>>,
    predicate: Option<&Expr>,
) -> Result<Vec<Vec<Value>>, SqlError> {
    let mut iter = tables.into_iter();
    let first = iter.next().expect("at least one table");
    let mut acc: Vec<Vec<Value>> = first;
    let mut bound_width = ns.bindings[0].schema.width();

    for (ti, next) in iter.enumerate() {
        let b = &ns.bindings[ti + 1];
        // Find an equi-join conjunct: bound_col = new_col.
        let join_key = predicate.and_then(|p| {
            find_equi_join(p, ns, bound_width, b.offset, b.offset + b.schema.width())
        });
        let next_width = b.schema.width();
        acc = match join_key {
            Some((left_idx, right_idx)) => {
                // Hash join: build on the new table.
                let mut built: HashMap<Cow<'_, str>, Vec<&Vec<Value>>> = HashMap::new();
                for row in &next {
                    built
                        .entry(row[right_idx - b.offset].text())
                        .or_default()
                        .push(row);
                }
                let mut out = Vec::new();
                for left in &acc {
                    if let Some(matches) = built.get(left[left_idx].text().as_ref()) {
                        for m in matches {
                            let mut combined = left.clone();
                            combined.extend((*m).iter().cloned());
                            out.push(combined);
                        }
                    }
                }
                out
            }
            None => {
                // Nested-loop product; WHERE filters afterwards.
                let mut out = Vec::with_capacity(acc.len() * next.len().max(1));
                for left in &acc {
                    for right in &next {
                        let mut combined = left.clone();
                        combined.extend(right.iter().cloned());
                        out.push(combined);
                    }
                }
                out
            }
        };
        bound_width += next_width;
    }
    Ok(acc)
}

/// Search the conjunctive top level of `pred` for `col_a = col_b` linking
/// the bound prefix (`< bound_width`) with the incoming table
/// (`new_start..new_end`). Returns (bound index, incoming index).
fn find_equi_join(
    pred: &Expr,
    ns: &Namespace,
    bound_width: usize,
    new_start: usize,
    new_end: usize,
) -> Option<(usize, usize)> {
    match pred {
        Expr::And(l, r) => find_equi_join(l, ns, bound_width, new_start, new_end)
            .or_else(|| find_equi_join(r, ns, bound_width, new_start, new_end)),
        Expr::Compare {
            left,
            op: CompareOp::Eq,
            right,
        } => {
            let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
                return None;
            };
            let ia = ns.resolve(a).ok()?;
            let ib = ns.resolve(b).ok()?;
            if ia < bound_width && (new_start..new_end).contains(&ib) {
                Some((ia, ib))
            } else if ib < bound_width && (new_start..new_end).contains(&ia) {
                Some((ib, ia))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// SQL value comparison: numeric when both sides are numeric, else text.
pub fn compare_values(a: &Value, b: &Value) -> Ordering {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => a.text().cmp(&b.text()),
    }
}

fn eval_value(expr: &Expr, row: &[Value], ns: &Namespace) -> Result<Value, SqlError> {
    Ok(match expr {
        Expr::Column(c) => row[ns.resolve(c)?].clone(),
        Expr::StringLit(s) => Value::Str(s.as_str().into()),
        Expr::Number(n) => Value::Float(*n),
        other => {
            return Err(SqlError::Unsupported(format!(
                "expression used as value: {other:?}"
            )))
        }
    })
}

fn eval_bool(
    expr: &Expr,
    row: &[Value],
    ns: &Namespace,
    sub_sets: &[HashSet<String>],
) -> Result<bool, SqlError> {
    Ok(match expr {
        Expr::And(l, r) => eval_bool(l, row, ns, sub_sets)? && eval_bool(r, row, ns, sub_sets)?,
        Expr::Or(l, r) => eval_bool(l, row, ns, sub_sets)? || eval_bool(r, row, ns, sub_sets)?,
        Expr::Not(e) => !eval_bool(e, row, ns, sub_sets)?,
        Expr::Compare { left, op, right } => {
            let a = eval_value(left, row, ns)?;
            let b = eval_value(right, row, ns)?;
            let ord = compare_values(&a, &b);
            match op {
                CompareOp::Eq => ord == Ordering::Equal,
                CompareOp::NotEq => ord != Ordering::Equal,
                CompareOp::Lt => ord == Ordering::Less,
                CompareOp::LtEq => ord != Ordering::Greater,
                CompareOp::Gt => ord == Ordering::Greater,
                CompareOp::GtEq => ord != Ordering::Less,
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_value(expr, row, ns)?;
            let contained = if let Some(set_idx) = subquery_set_index(list) {
                sub_sets[set_idx].contains(v.text().as_ref())
            } else {
                let mut hit = false;
                for item in list {
                    let w = eval_value(item, row, ns)?;
                    if compare_values(&v, &w) == Ordering::Equal {
                        hit = true;
                        break;
                    }
                }
                hit
            };
            contained != *negated
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_value(expr, row, ns)?;
            let lo = eval_value(low, row, ns)?;
            let hi = eval_value(high, row, ns)?;
            let inside = compare_values(&v, &lo) != Ordering::Less
                && compare_values(&v, &hi) != Ordering::Greater;
            inside != *negated
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_value(expr, row, ns)?;
            like_match(&v.text(), pattern) != *negated
        }
        Expr::AggregateCall { .. } => {
            return Err(SqlError::Unsupported(
                "aggregate call outside HAVING".into(),
            ))
        }
        Expr::InSubquery { .. } => {
            return Err(SqlError::Unsupported(
                "subquery not lowered before evaluation".into(),
            ))
        }
        Expr::Column(_) | Expr::StringLit(_) | Expr::Number(_) => {
            return Err(SqlError::Unsupported(
                "scalar used as boolean predicate".into(),
            ))
        }
    })
}

/// SQL LIKE: `%` matches any run (including empty), `_` one character.
/// Case-sensitive, iterative two-pointer matcher (no backtracking blowup).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if star_p != usize::MAX {
            // Backtrack: let the last % absorb one more character.
            pi = star_p + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn project(
    stmt: &SelectStatement,
    ns: &Namespace,
    rows: Vec<Vec<Value>>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), SqlError> {
    // Column selection plan: output name + source index.
    let mut names = Vec::new();
    let mut indices = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                names.extend(ns.all_columns());
                indices.extend(0..ns.width);
            }
            SelectItem::Column(c, alias) => {
                indices.push(ns.resolve(c)?);
                names.push(alias.clone().unwrap_or_else(|| c.name.clone()));
            }
            SelectItem::Aggregate { .. } => unreachable!("aggregate path handles these"),
        }
    }
    let out_rows = rows
        .into_iter()
        .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
        .collect();
    Ok((names, out_rows))
}

/// GROUP BY + aggregate evaluation.
fn aggregate(
    stmt: &SelectStatement,
    ns: &Namespace,
    rows: &[Vec<Value>],
) -> Result<(Vec<String>, Vec<Vec<Value>>), SqlError> {
    let group_indices: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|c| ns.resolve(c))
        .collect::<Result<_, _>>()?;

    // Validate select list: plain columns must appear in GROUP BY.
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                return Err(SqlError::Unsupported("SELECT * with aggregates".into()))
            }
            SelectItem::Column(c, _) => {
                let idx = ns.resolve(c)?;
                if !group_indices.contains(&idx) {
                    return Err(SqlError::Unsupported(format!(
                        "column {} must appear in GROUP BY",
                        c.name
                    )));
                }
            }
            SelectItem::Aggregate { .. } => {}
        }
    }

    // Group rows.
    let mut groups: HashMap<Vec<Cow<'_, str>>, Vec<&Vec<Value>>> = HashMap::new();
    for row in rows {
        let key: Vec<Cow<'_, str>> = group_indices.iter().map(|&i| row[i].text()).collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && group_indices.is_empty() {
        // Aggregates over an empty set still yield one row.
        groups.insert(vec![], vec![]);
    }

    let mut names = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Column(c, alias) => {
                names.push(alias.clone().unwrap_or_else(|| c.name.clone()))
            }
            SelectItem::Aggregate {
                func,
                column,
                alias,
            } => names.push(alias.clone().unwrap_or_else(|| {
                format!(
                    "{}({})",
                    func.name(),
                    column.as_ref().map(|c| c.name.as_str()).unwrap_or("*")
                )
            })),
            SelectItem::Wildcard => unreachable!(),
        }
    }

    let mut out_rows = Vec::with_capacity(groups.len());
    // Deterministic output order before ORDER BY: sort group keys.
    let mut entries: Vec<_> = groups.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (_key, members) in entries {
        if let Some(having) = &stmt.having {
            if !eval_having(having, &members, ns)? {
                continue;
            }
        }
        let mut out = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            match item {
                SelectItem::Column(c, _) => {
                    let idx = ns.resolve(c)?;
                    out.push(
                        members
                            .first()
                            .map(|r| r[idx].clone())
                            .unwrap_or(Value::Null),
                    );
                }
                SelectItem::Aggregate { func, column, .. } => {
                    out.push(eval_aggregate(*func, column.as_ref(), &members, ns)?);
                }
                SelectItem::Wildcard => unreachable!(),
            }
        }
        out_rows.push(out);
    }
    Ok((names, out_rows))
}

/// Evaluate a HAVING predicate over one group. Aggregate calls evaluate
/// over the group's members; plain columns take the group's first row
/// (legal only for GROUP BY columns, which are constant per group).
fn eval_having(expr: &Expr, members: &[&Vec<Value>], ns: &Namespace) -> Result<bool, SqlError> {
    // Scalar view of a HAVING operand.
    fn value(expr: &Expr, members: &[&Vec<Value>], ns: &Namespace) -> Result<Value, SqlError> {
        match expr {
            Expr::AggregateCall { func, column } => {
                eval_aggregate(*func, column.as_ref(), members, ns)
            }
            Expr::Column(c) => {
                let idx = ns.resolve(c)?;
                Ok(members
                    .first()
                    .map(|r| r[idx].clone())
                    .unwrap_or(Value::Null))
            }
            Expr::StringLit(s) => Ok(Value::Str(s.as_str().into())),
            Expr::Number(n) => Ok(Value::Float(*n)),
            other => Err(SqlError::Unsupported(format!(
                "expression in HAVING: {other:?}"
            ))),
        }
    }
    Ok(match expr {
        Expr::And(l, r) => eval_having(l, members, ns)? && eval_having(r, members, ns)?,
        Expr::Or(l, r) => eval_having(l, members, ns)? || eval_having(r, members, ns)?,
        Expr::Not(e) => !eval_having(e, members, ns)?,
        Expr::Compare { left, op, right } => {
            let a = value(left, members, ns)?;
            let b = value(right, members, ns)?;
            let ord = compare_values(&a, &b);
            match op {
                CompareOp::Eq => ord == Ordering::Equal,
                CompareOp::NotEq => ord != Ordering::Equal,
                CompareOp::Lt => ord == Ordering::Less,
                CompareOp::LtEq => ord != Ordering::Greater,
                CompareOp::Gt => ord == Ordering::Greater,
                CompareOp::GtEq => ord != Ordering::Less,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = value(expr, members, ns)?;
            let lo = value(low, members, ns)?;
            let hi = value(high, members, ns)?;
            let inside = compare_values(&v, &lo) != Ordering::Less
                && compare_values(&v, &hi) != Ordering::Greater;
            inside != *negated
        }
        other => return Err(SqlError::Unsupported(format!("HAVING clause: {other:?}"))),
    })
}

fn eval_aggregate(
    func: AggFunc,
    column: Option<&ColumnRef>,
    members: &[&Vec<Value>],
    ns: &Namespace,
) -> Result<Value, SqlError> {
    if func == AggFunc::Count && column.is_none() {
        return Ok(Value::Int(members.len() as i64));
    }
    let idx = ns.resolve(column.expect("non-COUNT aggregates have a column"))?;
    let values: Vec<&Value> = members
        .iter()
        .map(|r| &r[idx])
        .filter(|v| !v.is_null())
        .collect();
    Ok(match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum => Value::Float(values.iter().filter_map(|v| v.as_f64()).sum()),
        AggFunc::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::Min => values
            .iter()
            .min_by(|a, b| compare_values(a, b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggFunc::Max => values
            .iter()
            .max_by(|a, b| compare_values(a, b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
    })
}

//! The six canned queries of `examples/query.rs`, through the public
//! `Query` / `aggregate_rows` / `leadtime_rows` / `mttr_rows` /
//! `near_fault_rows` API, rendered to the same tab-separated text.

use tracestore::{
    aggregate_rows, leadtime_rows, mttr_rows, near_fault_rows, AggregateOp, AggregateRow,
    EventKind, GroupBy, Query, QueryError, QueryRow, TraceStore,
};

/// `(span and digest name, per-layer metric, the example's command line)`, in
/// execution order.
pub const QUERIES: [(&str, &str, &str); 6] = [
    (
        "tracestore.q_leadtime",
        "tracestore.q_leadtime_ms",
        "leadtime",
    ),
    (
        "tracestore.q_agg_p95",
        "tracestore.q_agg_p95_ms",
        "agg --op p95 --by run --kind transfer",
    ),
    (
        "tracestore.q_near_fault",
        "tracestore.q_near_fault_ms",
        "near-fault --within 10 --by subject",
    ),
    (
        "tracestore.q_predicate",
        "tracestore.q_predicate_ms",
        "events --where 'kind == \"transfer\" and value > 2.0' --limit 20",
    ),
    ("tracestore.q_mttr", "tracestore.q_mttr_ms", "mttr"),
    (
        "tracestore.q_diff",
        "tracestore.q_diff_ms",
        "diff /control /adaptive --op p95 --kind transfer",
    ),
];

/// Six significant decimals, trailing zeros trimmed (as the example prints).
fn num(v: f64) -> String {
    if v.is_nan() {
        return "nan".to_string();
    }
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), num)
}

fn render_aggregates(rows: &[AggregateRow]) -> String {
    let mut out = String::from("group\tcount\tvalue\n");
    for row in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            row.group,
            row.count,
            opt(row.value)
        ));
    }
    out
}

fn render_events(rows: &[QueryRow], limit: usize) -> String {
    let mut out = String::from("run\ttime\tkind\tsubject\tdetail\tvalue\tcorrelation\n");
    for row in rows.iter().take(limit) {
        let e = &row.event;
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            row.run_id,
            num(e.time_secs),
            e.kind.name(),
            e.subject,
            e.detail,
            opt(e.value),
            e.correlation.map_or("-".to_string(), |c| c.to_string()),
        ));
    }
    if rows.len() > limit {
        out.push_str(&format!("... {} more\n", rows.len() - limit));
    }
    out
}

fn transfer_p95(store: &TraceStore, run: &str) -> Result<Vec<AggregateRow>, QueryError> {
    let rows = Query::new()
        .run_contains(run)
        .kind(EventKind::Transfer)
        .execute(store)?;
    Ok(aggregate_rows(&rows, AggregateOp::P95, GroupBy::None))
}

/// Runs canned query `index` and renders its rows.
pub fn run_query(index: usize, store: &TraceStore) -> Result<String, QueryError> {
    Ok(match index {
        0 => {
            let rows = Query::new().execute(store)?;
            let mut out = String::from(
                "run\tadvisories\tviolations\tmatched\tanticipated\tprecision\trecall\tmedian_lead_s\n",
            );
            for row in leadtime_rows(&rows, arch_adapt::ADVISORY_MATCH_HORIZON_SECS) {
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    row.run,
                    row.advisories,
                    row.violations,
                    row.matched_advisories,
                    row.anticipated_violations,
                    opt(row.precision),
                    opt(row.recall),
                    opt(row.median_lead_secs),
                ));
            }
            out
        }
        1 => {
            let rows = Query::new().kind(EventKind::Transfer).execute(store)?;
            render_aggregates(&aggregate_rows(&rows, AggregateOp::P95, GroupBy::Run))
        }
        2 => {
            let rows = Query::new().execute(store)?;
            render_aggregates(&near_fault_rows(
                &rows,
                EventKind::Violation,
                10.0,
                GroupBy::Subject,
            ))
        }
        3 => {
            let rows = Query::new()
                .predicate("kind == \"transfer\" and value > 2.0")?
                .execute(store)?;
            render_events(&rows, 20)
        }
        4 => render_aggregates(&mttr_rows(&Query::new().execute(store)?)),
        5 => {
            let left = transfer_p95(store, "/control")?;
            let right = transfer_p95(store, "/adaptive")?;
            let mut keys: Vec<&str> = left
                .iter()
                .chain(right.iter())
                .map(|r| r.group.as_str())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut out = String::from("group\tp95[/control]\tp95[/adaptive]\tdelta\n");
            for key in keys {
                let a = left.iter().find(|r| r.group == key).and_then(|r| r.value);
                let b = right.iter().find(|r| r.group == key).and_then(|r| r.value);
                let delta = match (a, b) {
                    (Some(a), Some(b)) => num(b - a),
                    _ => "-".to_string(),
                };
                out.push_str(&format!("{key}\t{}\t{}\t{delta}\n", opt(a), opt(b)));
            }
            out
        }
        _ => unreachable!("there are six canned queries"),
    })
}

/// Data rows of a rendered result (every line but the header).
pub fn data_rows(rendered: &str) -> u64 {
    rendered.lines().count().saturating_sub(1) as u64
}

//! Telemetry queries over a persisted trace store.
//!
//! Works against the directory written by `sweep --trace-store DIR`: every
//! run's full event stream (gauge readings, violations, repair lifecycle,
//! fault actions, transfer completions), indexed per run and per kind.
//! Output is plain tab-separated text, byte-identical for the same store and
//! the same query — CI runs the canned queries twice and diffs the output.
//!
//! ```text
//! cargo run --release --example query -- STORE runs
//! cargo run --release --example query -- STORE events --kind violation --run seed42
//! cargo run --release --example query -- STORE events --where 'kind == "transfer" and value > 2.0'
//! cargo run --release --example query -- STORE agg --op p95 --by run --kind transfer
//! cargo run --release --example query -- STORE mttr --run single-link-cut
//! cargo run --release --example query -- STORE near-fault --within 10 --by subject
//! cargo run --release --example query -- STORE diff /control /adaptive --op p95 --kind transfer
//! cargo run --release --example query -- STORE leadtime --run server-crash-midrun
//! cargo run --release --example query -- STORE advisories --within 30 --by subject
//! ```
//!
//! The `--where` predicate is the same Armani-style expression language the
//! architecture model's invariants use, with the event fields bound as
//! identifiers: `run`, `kind`, `subject`, `detail` (strings), `time`,
//! `value` (numbers; `value` is NaN when absent), `has_value` (bool), and
//! `correlation` (integer, -1 when absent).

use tracestore::{
    aggregate_rows, leadtime_rows, mttr_rows, near_fault_rows, AggregateOp, AggregateRow,
    EventKind, GroupBy, LeadTimeRow, Query, QueryRow, TraceStore,
};

fn usage() -> ! {
    eprintln!(
        "usage: query STORE COMMAND [FLAGS]\n\
         commands:\n\
         \x20 runs                          list runs (id, event count)\n\
         \x20 events [FILTERS] [--limit N]  print matching events\n\
         \x20 agg --op OP [--by FIELD] [FILTERS]\n\
         \x20                               aggregate matching events\n\
         \x20 mttr [FILTERS]                mean time to repair, per run\n\
         \x20 near-fault [--within SECS] [--near-kind KIND] [--by FIELD] [FILTERS]\n\
         \x20                               events within SECS after each fault onset\n\
         \x20 diff A B --op OP [--by FIELD] [FILTERS]\n\
         \x20                               aggregate runs matching A vs runs matching B\n\
         \x20 leadtime [--horizon SECS] [FILTERS]\n\
         \x20                               advisory -> violation join, per run: precision,\n\
         \x20                               recall, median lead time\n\
         \x20 advisories [--within SECS] [--by FIELD] [FILTERS]\n\
         \x20                               advisories within SECS after each fault onset\n\
         filters:\n\
         \x20 --run SUBSTR                  run id contains SUBSTR\n\
         \x20 --kind K1[,K2,...]            event kinds (gauge, violation, repair-start,\n\
         \x20                               repair-end, repair-aborted, reconfiguration,\n\
         \x20                               fault, transfer, info, metric, advisory)\n\
         \x20 --window FROM,UNTIL           inclusive simulated-time window (seconds)\n\
         \x20 --where EXPR                  Armani-style predicate over event fields\n\
         ops: count, mean, min, max, sum, p95; fields: none, run, kind, subject, detail"
    );
    std::process::exit(2);
}

fn kind_by_name(name: &str) -> EventKind {
    match EventKind::ALL.iter().find(|k| k.name() == name) {
        Some(kind) => *kind,
        None => {
            eprintln!("unknown event kind: {name}");
            usage();
        }
    }
}

/// Formats a float without trailing-zero noise but deterministically:
/// 6 significant decimals, then trimmed.
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

fn print_events(rows: &[QueryRow], limit: Option<usize>) {
    println!("run\ttime\tkind\tsubject\tdetail\tvalue\tcorrelation");
    let shown = limit.unwrap_or(rows.len()).min(rows.len());
    for row in &rows[..shown] {
        let e = &row.event;
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.run_id,
            num(e.time_secs),
            e.kind.name(),
            e.subject,
            e.detail,
            e.value.map_or("-".to_string(), num),
            e.correlation.map_or("-".to_string(), |c| c.to_string()),
        );
    }
    if shown < rows.len() {
        println!("... {} more", rows.len() - shown);
    }
}

fn print_aggregates(rows: &[AggregateRow]) {
    println!("group\tcount\tvalue");
    for row in rows {
        println!(
            "{}\t{}\t{}",
            row.group,
            row.count,
            row.value.map_or("-".to_string(), num)
        );
    }
}

fn print_leadtime(rows: &[LeadTimeRow]) {
    println!("run\tadvisories\tviolations\tmatched\tanticipated\tprecision\trecall\tmedian_lead_s");
    for row in rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.run,
            row.advisories,
            row.violations,
            row.matched_advisories,
            row.anticipated_violations,
            row.precision.map_or("-".to_string(), num),
            row.recall.map_or("-".to_string(), num),
            row.median_lead_secs.map_or("-".to_string(), num),
        );
    }
}

struct Flags {
    run: Option<String>,
    kinds: Vec<EventKind>,
    window: Option<(f64, f64)>,
    predicate: Option<String>,
    op: Option<AggregateOp>,
    by: GroupBy,
    within: f64,
    near_kind: EventKind,
    horizon: f64,
    limit: Option<usize>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags {
        run: None,
        kinds: Vec::new(),
        window: None,
        predicate: None,
        op: None,
        by: GroupBy::None,
        within: 10.0,
        near_kind: EventKind::Violation,
        horizon: arch_adapt::ADVISORY_MATCH_HORIZON_SECS,
        limit: None,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> String {
            match iter.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("{flag} takes a value");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--run" => flags.run = Some(value("--run")),
            "--kind" => {
                for name in value("--kind").split(',') {
                    flags.kinds.push(kind_by_name(name.trim()));
                }
            }
            "--window" => {
                let v = value("--window");
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    eprintln!("--window takes FROM,UNTIL");
                    usage();
                }
                let from = parts[0].trim().parse().unwrap_or_else(|_| {
                    eprintln!("--window bounds are numbers");
                    usage();
                });
                let until = parts[1].trim().parse().unwrap_or_else(|_| {
                    eprintln!("--window bounds are numbers");
                    usage();
                });
                flags.window = Some((from, until));
            }
            "--where" => flags.predicate = Some(value("--where")),
            "--op" => {
                let v = value("--op");
                flags.op = Some(AggregateOp::by_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown aggregate op: {v}");
                    usage();
                }));
            }
            "--by" => {
                let v = value("--by");
                flags.by = GroupBy::by_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown group-by field: {v}");
                    usage();
                });
            }
            "--within" => {
                let v = value("--within");
                flags.within = v.parse().unwrap_or_else(|_| {
                    eprintln!("--within takes seconds");
                    usage();
                });
            }
            "--near-kind" => {
                let v = value("--near-kind");
                flags.near_kind = kind_by_name(&v);
            }
            "--horizon" => {
                let v = value("--horizon");
                flags.horizon = v.parse().unwrap_or_else(|_| {
                    eprintln!("--horizon takes seconds");
                    usage();
                });
            }
            "--limit" => {
                let v = value("--limit");
                flags.limit = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--limit takes a count");
                    usage();
                }));
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    flags
}

fn build_query(flags: &Flags, extra_run: Option<&str>) -> Query {
    let mut query = Query::new();
    if let Some(run) = extra_run.or(flags.run.as_deref()) {
        query = query.run_contains(run);
    }
    for kind in &flags.kinds {
        query = query.kind(*kind);
    }
    if let Some((from, until)) = flags.window {
        query = query.window(from, until);
    }
    if let Some(source) = &flags.predicate {
        query = match query.predicate(source) {
            Ok(query) => query,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
    }
    query
}

fn execute(query: &Query, store: &TraceStore) -> Vec<QueryRow> {
    match query.execute(store) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let store = match TraceStore::open(std::path::Path::new(&args[0])) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open trace store {}: {e}", args[0]);
            std::process::exit(1);
        }
    };
    let command = args[1].as_str();
    let flags = parse_flags(&args[2..]);

    match command {
        "runs" => {
            println!("run\tevents");
            for meta in store.runs() {
                println!("{}\t{}", meta.run_id, meta.count);
            }
        }
        "events" => {
            let rows = execute(&build_query(&flags, None), &store);
            print_events(&rows, flags.limit);
        }
        "agg" => {
            let Some(op) = flags.op else {
                eprintln!("agg requires --op");
                usage();
            };
            let rows = execute(&build_query(&flags, None), &store);
            print_aggregates(&aggregate_rows(&rows, op, flags.by));
        }
        "mttr" => {
            // MTTR needs the fault and repair-end events regardless of any
            // --kind narrowing; the window/run/predicate filters still apply.
            let mut flags = flags;
            flags.kinds.clear();
            let rows = execute(&build_query(&flags, None), &store);
            print_aggregates(&mttr_rows(&rows));
        }
        "near-fault" => {
            // The canned root-cause report: candidate events of
            // `--near-kind` within `--within` seconds after each fault
            // onset. The scan must see the fault events too.
            let mut flags = flags;
            flags.kinds.clear();
            let rows = execute(&build_query(&flags, None), &store);
            print_aggregates(&near_fault_rows(
                &rows,
                flags.near_kind,
                flags.within,
                flags.by,
            ));
        }
        "leadtime" => {
            // The advisory -> violation join needs both event kinds no matter
            // what --kind narrowing was passed; other filters still apply.
            let mut flags = flags;
            flags.kinds.clear();
            let rows = execute(&build_query(&flags, None), &store);
            print_leadtime(&leadtime_rows(&rows, flags.horizon));
        }
        "advisories" => {
            // Advisory timeline near faults: detector alarms raised within
            // `--within` seconds after each fault onset, grouped by `--by`.
            let mut flags = flags;
            flags.kinds.clear();
            let rows = execute(&build_query(&flags, None), &store);
            print_aggregates(&near_fault_rows(
                &rows,
                EventKind::Advisory,
                flags.within,
                flags.by,
            ));
        }
        "diff" => {
            if flags.positional.len() != 2 {
                eprintln!("diff takes two run substrings (e.g. /control /adaptive)");
                usage();
            }
            let Some(op) = flags.op else {
                eprintln!("diff requires --op");
                usage();
            };
            let left = aggregate_rows(
                &execute(&build_query(&flags, Some(&flags.positional[0])), &store),
                op,
                flags.by,
            );
            let right = aggregate_rows(
                &execute(&build_query(&flags, Some(&flags.positional[1])), &store),
                op,
                flags.by,
            );
            // Join on group key; groups present on one side only show `-`.
            let mut keys: Vec<&str> = left
                .iter()
                .chain(right.iter())
                .map(|r| r.group.as_str())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            println!(
                "group\t{}[{}]\t{}[{}]\tdelta",
                op.name(),
                flags.positional[0],
                op.name(),
                flags.positional[1]
            );
            for key in keys {
                let a = left.iter().find(|r| r.group == key).and_then(|r| r.value);
                let b = right.iter().find(|r| r.group == key).and_then(|r| r.value);
                let delta = match (a, b) {
                    (Some(a), Some(b)) => num(b - a),
                    _ => "-".to_string(),
                };
                println!(
                    "{key}\t{}\t{}\t{delta}",
                    a.map_or("-".to_string(), num),
                    b.map_or("-".to_string(), num)
                );
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}

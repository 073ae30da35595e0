//! `gridbench`: the repository's benchmark, measured from outside through the
//! crates' public interfaces. See `benchmark/README.md`.

mod arm;
mod child;
mod compare;
mod digest;
mod driver;
mod fleet;
mod jsonio;
mod metrics;
mod pace;
mod pass;
mod queries;
mod span;
mod stats;
mod sweep;
mod tracer;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Every process of the benchmark allocates through the sampling hook; it
/// stays inert until a child calls `pace::start` (see `pace.rs`).
#[global_allocator]
static ALLOCATOR: pace::PacedAlloc = pace::PacedAlloc;

const USAGE: &str = "\
usage:
  gridbench run   [--seed S] [--workloads a,b] [--out FILE]   tracing-off pass; prints the end-to-end metrics
  gridbench trace [--seed S] [--workloads a,b] [--out FILE]   both passes; prints every metric with its unit
  gridbench compare A.json.. -- B.json..                      reference set against candidate set
  gridbench golden                                            re-record golden/seed42.json
  gridbench describe                                          print BENCHMARK.json
  gridbench --workload W --seed S --seconds T --trace 0|1     one workload; the last stdout line is the result
workloads: fleet2k_plan, fleet50k_build, sweep_write, store_query";

/// Flags of the form `--name value`, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument: {arg}"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} takes a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse {v:?}"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::by_name(name).ok_or_else(|| format!("unknown workload: {name}"))
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.parsed("seed")?.unwrap_or(child::GOLDEN_SEED))
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workloads") {
            None => Ok(Workload::ALL.to_vec()),
            Some(list) => list
                .split(',')
                .map(|n| Workload::by_name(n).ok_or_else(|| format!("unknown workload: {n}")))
                .collect(),
        }
    }
}

/// The benchmark's own directory: `benchmark/` under the current directory
/// (the driver runs from the checkout root), the current directory itself
/// when run from inside the package, else where the package was built.
fn bench_dir() -> PathBuf {
    if Path::new("benchmark/golden").is_dir() {
        PathBuf::from("benchmark")
    } else if Path::new("golden").is_dir() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    match command.as_str() {
        "run" | "trace" => {
            let flags = Flags::parse(&args[1..])?;
            driver::run_all(
                &bench_dir(),
                &flags.workloads()?,
                flags.seed()?,
                command == "trace",
                flags.get("out").map(Path::new),
            )
        }
        "golden" => driver::record_golden(&bench_dir()),
        "describe" => {
            let manifest = serde_json::to_string_pretty(&metrics::benchmark_json());
            println!("{}", manifest.expect("the manifest serialises"));
            Ok(true)
        }
        "compare" => {
            let split = args
                .iter()
                .position(|a| a == "--")
                .ok_or("compare takes two file sets separated by --")?;
            let paths = |set: &[String]| set.iter().map(PathBuf::from).collect::<Vec<_>>();
            let (reference, candidate) = (paths(&args[1..split]), paths(&args[split + 1..]));
            if reference.is_empty() || candidate.is_empty() {
                return Err("compare needs at least one file on each side of --".to_string());
            }
            compare::compare(&reference, &candidate)
        }
        "child" => {
            let flags = Flags::parse(&args[1..])?;
            let bench_dir = PathBuf::from(flags.get("bench-dir").ok_or("--bench-dir is required")?);
            child::run(&child::ChildArgs {
                workload: flags.workload()?,
                seed: flags.seed()?,
                kind: flags
                    .get("pass")
                    .and_then(child::PassKind::by_name)
                    .ok_or("--pass takes e2e, traced or probes")?,
                e2e: flags.get("e2e").map(Path::new),
                probes: flags.get("probes").map(Path::new),
                bench_dir: &bench_dir,
                result: Path::new(flags.get("result").ok_or("--result is required")?),
            })
            .map(|()| true)
        }
        // The BENCHMARK.json contract: flags only, one workload, and the last
        // line of standard output is one JSON object.
        flag if flag.starts_with("--") => {
            let flags = Flags::parse(args)?;
            let traced = match flags.get("trace") {
                Some("1") => true,
                Some("0") | None => false,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            let seconds: f64 = flags.parsed("seconds")?.unwrap_or(0.0);
            let reduced = driver::run_workload(
                &bench_dir(),
                flags.workload()?,
                flags.seed()?,
                seconds,
                traced,
            )?;
            if reduced.noisy {
                eprintln!("gridbench: NOISY: the host's speed drifted during this run");
            }
            println!(
                "{}",
                serde_json::to_string(&reduced.to_json()).expect("a result serialises")
            );
            Ok(true)
        }
        "help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("gridbench: {error}");
            ExitCode::from(2)
        }
    }
}

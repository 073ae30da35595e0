//! What one pass over one workload reports, whichever workload it was.

use crate::pace::{self, Paced};
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups shorter than this in total are repeated, outside the measured
/// wall, until `SETUP_SAMPLES` exist: a millisecond set-up measured once is
/// mostly noise.
const SETUP_REPEAT_BUDGET_S: f64 = 0.5;
const SETUP_SAMPLES: usize = 25;

/// Every time is kept both ways (see `pace.rs`): the end-to-end metrics are
/// the reference seconds, the clock's own reading goes into the result file
/// beside them.
#[derive(Debug, Default)]
pub struct Pass {
    /// Workload start → result written (digests excluded).
    pub wall: Paced,
    /// One sample per set-up: input generation plus construction.
    pub setup_samples: Vec<Paced>,
    /// Set-ups one operation pays (the two arms of a comparison).
    pub setups_per_op: usize,
    /// First tick / unit / query → last one returned.
    pub run: Paced,
    pub report_json_s: f64,
    pub report_json_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Artifact name → FNV-1a-64 digest, computed outside `wall_s`.
    pub digests: BTreeMap<String, String>,
}

impl Pass {
    pub fn new(setups_per_op: usize) -> Self {
        Pass {
            setups_per_op,
            ..Pass::default()
        }
    }

    /// Median set-up × set-ups per operation.
    pub fn setup(&self) -> Paced {
        let median_of = |reading: fn(&Paced) -> f64| {
            let samples: Vec<f64> = self.setup_samples.iter().map(reading).collect();
            stats::median(&samples).unwrap_or(0.0) * self.setups_per_op as f64
        };
        Paced {
            raw_s: median_of(|p| p.raw_s),
            ref_s: median_of(|p| p.ref_s),
        }
    }

    /// Counts one failed operation (or failed check of an operation's output).
    pub fn fail(&mut self, error: String) {
        eprintln!("gridbench: FAILED: {error}");
        self.errors.push(error);
        self.failed = (self.failed + 1).min(self.attempted.max(1));
    }

    /// The call every operation of the pass depended on failed.
    pub fn fail_all(&mut self, error: String) {
        self.attempted = self.attempted.max(1);
        self.fail(error);
        self.failed = self.attempted;
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Repeats a cheap set-up (see `SETUP_REPEAT_BUDGET_S`); `setup` does
    /// one more set-up and returns when it was done, before it drops what it
    /// built.
    pub fn repeat_setup(&mut self, mut setup: impl FnMut() -> Instant) {
        while self.setup_samples.len() < SETUP_SAMPLES
            && self.setup_samples.iter().map(|p| p.raw_s).sum::<f64>() < SETUP_REPEAT_BUDGET_S
        {
            let started = Instant::now();
            let done = setup();
            self.setup_samples.push(pace::paced(started, done));
        }
    }
}

/// Runs `op`, turning an `Err` or a panic into an error string.
pub fn guarded<T, E: std::fmt::Display>(op: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(error)) => Err(error.to_string()),
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".to_string())
        )),
    }
}

pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A scratch directory inside the benchmark's `out/`, removed on drop — also
/// when the workload fails or panics.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path, label: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir.join(format!("tmp-{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is re-created empty by the next
        // run, and `Drop` must not panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

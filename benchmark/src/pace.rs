//! Host-speed pacing: what turns a wall-clock interval into *reference
//! seconds*, the unit of the end-to-end times.
//!
//! The box is a few cores of a shared host. Its speed for this program's kind
//! of work (allocation-heavy map and string handling, scans over a few
//! megabytes) moves by a third within seconds and drifts over minutes with
//! what the neighbours run; a register-only loop does not see it, and a
//! reading taken before and after a workload says nothing about the seconds
//! in between. So the speed is sampled *while the work runs, on the thread
//! that runs it*: the binary's global allocator counts allocations, and when
//! a quarter of a second has passed since the last sample it runs a fixed
//! kernel of the same kind of work (a few milliseconds) and notes how long it
//! took. The program under test is not touched and keeps `NullSink` /
//! `null_metrics`; it only ever sees an allocator that is sometimes slow.
//!
//! An interval's reference seconds are its working time (samples excluded),
//! piece by piece between neighbouring samples, each piece scaled by
//! `REFERENCE_SAMPLE_MS` over the mean of the two samples that bracket it:
//! the time the work would have taken on a host where the kernel always takes
//! `REFERENCE_SAMPLE_MS`. The kernel is the benchmark's own code, so a change
//! to the program moves the program's time and not the yardstick.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The kernel's time on the reference host, in milliseconds. About what it
/// takes on this box when the neighbours are quiet.
pub const REFERENCE_SAMPLE_MS: f64 = 10.0;

/// Work between two samples.
const CADENCE_NS: u64 = 250_000_000;

/// The clock is read once per this many allocations.
const CLOCK_EVERY: u32 = 64;

/// Spread of the samples (quartile distance over median) above which a run
/// is flagged noisy: the host's speed moved while the workload ran.
pub const NOISY_DRIFT: f64 = 0.05;

/// An interval both ways: as the clock read it (samples excluded) and in
/// reference seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Paced {
    pub raw_s: f64,
    pub ref_s: f64,
}

impl AddAssign for Paced {
    fn add_assign(&mut self, other: Paced) {
        self.raw_s += other.raw_s;
        self.ref_s += other.ref_s;
    }
}

/// One run of the kernel, in nanoseconds since `EPOCH`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    start_ns: u64,
    end_ns: u64,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    static ALLOCATIONS: Cell<u32> = const { Cell::new(0) };
    /// Set while this thread samples or reads the series: its own
    /// allocations must not start another sample.
    static BUSY: Cell<bool> = const { Cell::new(false) };
}
static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static LAST_SAMPLE_END_NS: AtomicU64 = AtomicU64::new(0);
static SERIES: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
static NAMES: OnceLock<Vec<String>> = OnceLock::new();

/// The system allocator with the sampling hook on every allocation.
pub struct PacedAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the hook allocates
// only through this same allocator, with `BUSY` set so it cannot recurse.
unsafe impl GlobalAlloc for PacedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hook();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        hook();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hook();
        System.realloc(ptr, layout, new_size)
    }
}

fn ns_since_epoch(at: Instant) -> u64 {
    EPOCH.get().map_or(0, |epoch| {
        at.saturating_duration_since(*epoch).as_nanos() as u64
    })
}

#[inline]
fn hook() {
    let count = ALLOCATIONS.with(|c| {
        let count = c.get().wrapping_add(1);
        c.set(count);
        count
    });
    if !count.is_multiple_of(CLOCK_EVERY) || !ENABLED.load(Relaxed) || BUSY.with(Cell::get) {
        return;
    }
    let idle_ns = ns_since_epoch(Instant::now()).saturating_sub(LAST_SAMPLE_END_NS.load(Relaxed));
    if idle_ns >= CADENCE_NS {
        sample_now();
    }
}

/// The fixed kernel: the program's kind of work in miniature. Half of it
/// fills a `BTreeMap<String, Vec<u64>>` (formatting, allocation, tree
/// descent over about a megabyte), half scans a 50,000-entry name table for
/// names near its end (string compares streaming over about three megabytes).
fn kernel() -> u64 {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut state = 0x0139_408d_cbbf_7a44u64;
    for i in 0..30_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        map.entry(format!("client{}", state % 4096))
            .or_default()
            .push(i);
    }
    let names = NAMES.get_or_init(|| (1..=50_000).map(|i| format!("C{i}")).collect());
    let mut found = 0;
    for round in 0..50 {
        let target = format!("C{}", 49_000 + round);
        found += names.iter().position(|n| *n == target).unwrap_or(0);
    }
    map.values().map(|v| v.len() as u64).sum::<u64>() + found as u64
}

/// Runs the kernel on this thread and appends the sample. Skipped when
/// another thread is sampling or reading the series right now.
fn sample_now() {
    BUSY.with(|b| b.set(true));
    if let Ok(mut series) = SERIES.try_lock() {
        let start_ns = ns_since_epoch(Instant::now());
        black_box(kernel());
        let end_ns = ns_since_epoch(Instant::now());
        series.push(Sample { start_ns, end_ns });
        LAST_SAMPLE_END_NS.store(end_ns, Relaxed);
    }
    BUSY.with(|b| b.set(false));
}

/// Starts sampling; the first sample is taken here. Call before the first
/// interval that is to be paced.
pub fn start() {
    EPOCH.get_or_init(Instant::now);
    // Once untimed: the first run builds the name table and warms the caches.
    BUSY.with(|b| b.set(true));
    black_box(kernel());
    BUSY.with(|b| b.set(false));
    sample_now();
    ENABLED.store(true, Relaxed);
}

/// The working time of `[start_ns, end_ns]` and its reference seconds, given
/// the samples taken around and inside it. Work before the first sample or
/// after the last one is bracketed on one side only and takes that sample.
fn integrate(series: &[Sample], start_ns: u64, end_ns: u64) -> Paced {
    let mut paced = Paced::default();
    let mut add = |from_ns: u64, to_ns: u64, sample_ms: f64| {
        let (from_ns, to_ns) = (from_ns.max(start_ns), to_ns.min(end_ns));
        if to_ns > from_ns {
            let secs = (to_ns - from_ns) as f64 / 1e9;
            paced.raw_s += secs;
            paced.ref_s += secs * REFERENCE_SAMPLE_MS / sample_ms;
        }
    };
    let (Some(first), Some(last)) = (series.first(), series.last()) else {
        add(start_ns, end_ns, REFERENCE_SAMPLE_MS);
        return paced;
    };
    add(0, first.start_ns, first.ms());
    for pair in series.windows(2) {
        add(
            pair[0].end_ns,
            pair[1].start_ns,
            (pair[0].ms() + pair[1].ms()) / 2.0,
        );
    }
    add(last.end_ns, u64::MAX, last.ms());
    paced
}

/// `[start, end]` as working time and as reference seconds. Takes a closing
/// sample first when the interval ends after the latest one, so call it soon
/// after `end`.
pub fn paced(start: Instant, end: Instant) -> Paced {
    let (start_ns, end_ns) = (ns_since_epoch(start), ns_since_epoch(end));
    if ENABLED.load(Relaxed) && end_ns > LAST_SAMPLE_END_NS.load(Relaxed) {
        sample_now();
    }
    BUSY.with(|b| b.set(true));
    let paced = integrate(
        &SERIES.lock().expect("no sampler panicked"),
        start_ns,
        end_ns,
    );
    BUSY.with(|b| b.set(false));
    paced
}

/// `[start, now]`, paced.
pub fn paced_since(start: Instant) -> Paced {
    paced(start, Instant::now())
}

/// What the samples say about the host while the workload ran.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub samples: usize,
    /// Median kernel time.
    pub calib_ms: f64,
    /// Quartile distance of the kernel times over their median.
    pub calib_drift: f64,
}

impl Host {
    pub fn noisy(&self) -> bool {
        self.calib_drift > NOISY_DRIFT
    }
}

/// Stops sampling and summarises the samples taken.
pub fn stop() -> Host {
    ENABLED.store(false, Relaxed);
    BUSY.with(|b| b.set(true));
    let times: Vec<f64> = SERIES
        .lock()
        .expect("no sampler panicked")
        .iter()
        .map(Sample::ms)
        .collect();
    BUSY.with(|b| b.set(false));
    let calib_ms = crate::stats::median(&times).unwrap_or(0.0);
    let calib_drift = match crate::stats::quartiles(&times) {
        Some((q1, q3)) if calib_ms > 0.0 => (q3 - q1) / calib_ms,
        _ => 0.0,
    };
    Host {
        samples: times.len(),
        calib_ms,
        calib_drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, ms: u64) -> Sample {
        Sample {
            start_ns: start_ms * 1_000_000,
            end_ns: (start_ms + ms) * 1_000_000,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn reference_seconds_scale_each_piece_by_the_samples_that_bracket_it() {
        // Samples of 10, 20 and 20 ms: the host is at reference speed at
        // first and half as fast later.
        let series = [sample(0, 10), sample(110, 20), sample(330, 20)];
        // The whole stretch: 100 ms of work at a mean sample of 15 ms, then
        // 200 ms at 20 ms. The 50 ms of sampling are in neither reading.
        let whole = integrate(&series, 0, 350 * MS);
        assert!((whole.raw_s - 0.300).abs() < 1e-12);
        assert!((whole.ref_s - (0.100 * 10.0 / 15.0 + 0.200 * 10.0 / 20.0)).abs() < 1e-12);
        // An interval inside one piece takes that piece's scale.
        let inner = integrate(&series, 150 * MS, 250 * MS);
        assert!((inner.raw_s - 0.100).abs() < 1e-12);
        assert!((inner.ref_s - 0.050).abs() < 1e-12);
        // An interval that starts inside a sample loses the sample's part.
        let clipped = integrate(&series, 120 * MS, 230 * MS);
        assert!((clipped.raw_s - 0.100).abs() < 1e-12);
    }

    #[test]
    fn work_outside_the_samples_takes_the_nearest_one() {
        let series = [sample(100, 20), sample(220, 10)];
        let before = integrate(&series, 0, 100 * MS);
        assert!((before.raw_s - 0.100).abs() < 1e-12);
        assert!((before.ref_s - 0.050).abs() < 1e-12);
        let after = integrate(&series, 230 * MS, 330 * MS);
        assert!((after.ref_s - 0.100).abs() < 1e-12);
        // Without any sample the clock's reading stands.
        let bare = integrate(&[], 0, 100 * MS);
        assert_eq!(bare.raw_s, bare.ref_s);
    }

    #[test]
    fn pieces_add_up_to_the_whole() {
        let series = [
            sample(0, 10),
            sample(110, 14),
            sample(300, 9),
            sample(500, 12),
        ];
        let whole = integrate(&series, 20 * MS, 480 * MS);
        let mut parts = integrate(&series, 20 * MS, 200 * MS);
        parts += integrate(&series, 200 * MS, 480 * MS);
        assert!((whole.raw_s - parts.raw_s).abs() < 1e-12);
        assert!((whole.ref_s - parts.ref_s).abs() < 1e-12);
    }

    #[test]
    fn the_allocator_hook_samples_while_work_allocates() {
        start();
        let started = Instant::now();
        let mut kept = Vec::new();
        while started.elapsed().as_secs_f64() < 0.7 {
            kept.push(format!("{}", kept.len()));
        }
        let paced = paced_since(started);
        let host = stop();
        // The first sample, at least two from the hook, and the closing one.
        assert!(host.samples >= 4, "{host:?}");
        assert!(host.calib_ms > 0.0);
        // Sampling time is in neither reading.
        assert!(paced.raw_s > 0.0 && paced.raw_s < started.elapsed().as_secs_f64());
        assert!(paced.ref_s > 0.0);
    }
}

//! Bench-side spans: name, start, end and parent, kept in memory and written
//! out when the traced pass ends. A span's self time is its duration minus
//! the part of it that its children cover.

use serde_json::Value;
use std::time::Instant;

/// What a span's time counts as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A call into a layer that a per-layer metric reports.
    Layer,
    /// The workload root, an arm, the run loop around the ticks: whatever of
    /// it no layer child covers is the unattributed remainder.
    Glue,
    /// Extra work only the traced pass does (a full constraint sweep, an
    /// observers-off re-run): excluded from the wall and from the remainder.
    Probe,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Layer => "layer",
            Role::Glue => "glue",
            Role::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub role: Role,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, role: Role) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            role,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span that was timed elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        role: Role,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            role,
        });
        self.spans.len() - 1
    }

    /// Records a span known only by its total (a `phase.*` histogram sum read
    /// from the program's registry). It is laid at the first part of `parent`
    /// that earlier children leave free, so self-time arithmetic treats it
    /// like any other child.
    pub fn record_total(&mut self, name: &str, secs: f64, parent: usize, role: Role) -> usize {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: Some(parent),
            role,
        });
        self.spans.len() - 1
    }

    /// Duration of span `id` minus the part of it its children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns - covered) as f64 / 1e9
    }

    /// Summed duration of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            // An empty f64 sum is -0.0, which prints as "-0".
            .fold(0.0, |total, secs| total + secs)
    }

    /// Time under `root` spent in probes: work the tracing-off pass never does.
    pub fn probe_secs(&self, root: usize) -> f64 {
        self.sum_under(root, Role::Probe, |id| self.spans[id].secs())
    }

    /// `root`, probes excluded, minus the self time of every layer span
    /// beneath it: the time no per-layer metric accounts for.
    pub fn unattributed_secs(&self, root: usize) -> f64 {
        self.spans[root].secs()
            - self.probe_secs(root)
            - self.sum_under(root, Role::Layer, |id| self.self_secs(id))
    }

    fn sum_under(&self, root: usize, role: Role, secs: impl Fn(usize) -> f64) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].role == role && self.descends_from(id, root))
            .map(secs)
            .fold(0.0, |total, secs| total + secs)
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == root {
                return true;
            }
            id = parent;
        }
        false
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    serde_json::json!({
                        "id": id,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                        "role": s.role.name(),
                        "self_s": self.self_secs(id),
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use Role::{Glue, Layer, Probe};

    fn log_with(spans: &[(&str, u64, u64, Option<usize>, Role)]) -> SpanLog {
        let mut log = SpanLog::default();
        for &(name, start_ns, end_ns, parent, role) in spans {
            log.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                role,
            });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let log = log_with(&[
            ("root", 0, 1_000, None, Glue),
            ("a", 100, 400, Some(0), Layer),
            // Overlaps `a` by 100 ns and runs 50 ns past the parent's end.
            ("b", 300, 1_050, Some(0), Layer),
            ("a.inner", 150, 250, Some(1), Layer),
        ]);
        // Children cover [100, 1000) of the root: 100 ns stay its own.
        assert!((log.self_secs(0) - 100e-9).abs() < 1e-12);
        assert!((log.self_secs(1) - 200e-9).abs() < 1e-12);
        assert!((log.self_secs(3) - 100e-9).abs() < 1e-12);
        assert!((log.total_secs("a") - 300e-9).abs() < 1e-12);
    }

    #[test]
    fn unattributed_is_root_minus_layer_self_times() {
        let mut log = log_with(&[
            ("root", 0, 10_000, None, Glue),
            ("arm", 1_000, 9_000, Some(0), Glue),
            ("new", 1_000, 3_000, Some(1), Layer),
            ("run", 3_000, 8_000, Some(1), Glue),
            ("full_check", 8_000, 8_400, Some(1), Probe),
        ]);
        // A total read from a registry is laid at the start of its parent.
        let tick = log.record_total("tick", 4_000e-9, 3, Glue);
        log.record_total("advance", 2_500e-9, tick, Layer);
        log.record_total("plan", 1_000e-9, tick, Layer);
        assert_eq!(log.spans[tick].start_ns, 3_000);
        assert_eq!(log.spans[tick + 2].start_ns, 5_500);
        // Layers: new 2000 + advance 2500 + plan 1000 = 5500 of the 9600
        // that are left of 10000 once the 400 ns probe is taken out.
        assert!((log.probe_secs(0) - 400e-9).abs() < 1e-12);
        assert!((log.unattributed_secs(0) - 4_100e-9).abs() < 1e-12);
        // tick keeps 500 ns of its own, run keeps 1000 ns around the ticks.
        assert!((log.self_secs(tick) - 500e-9).abs() < 1e-12);
        assert!((log.self_secs(3) - 1_000e-9).abs() < 1e-12);
    }
}

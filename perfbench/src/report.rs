//! The result of one run, the host record printed with it, and the output
//! checks every workload applies.

use lhnn::Prediction;
use lhnn_serve::obs::Snapshot;
use neurograd::Matrix;

/// The engine counters the benchmark cross-checks, in the order of
/// [`GAP_METRICS`].
const GAP_COUNTERS: [&str; 4] = [
    "lhnn_session_updates_total",
    "lhnn_requests_total",
    "lhnn_cache_hits_total",
    "lhnn_computed_total",
];

/// The per-layer metrics of the counter cross-check: what the benchmark
/// issued or observed minus what the engine counted, summed over every
/// engine a run used.
pub const GAP_METRICS: [&str; 4] =
    ["obs.session_updates_gap", "obs.requests_gap", "obs.cache_hits_gap", "obs.computed_gap"];

/// What the benchmark issued to, or observed from, one engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    /// Session updates submitted.
    pub session_updates: u64,
    /// Predicts sent (session and stateless).
    pub requests: u64,
    /// Replies that came from the prediction cache.
    pub cache_hits: u64,
    /// Replies that were computed.
    pub computed: u64,
}

impl std::ops::AddAssign for Observed {
    fn add_assign(&mut self, o: Observed) {
        self.session_updates += o.session_updates;
        self.requests += o.requests;
        self.cache_hits += o.cache_hits;
        self.computed += o.computed;
    }
}

/// One run's metrics, operation counts and check outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Running sums of the counter cross-check, by [`GAP_METRICS`].
    pub gaps: [f64; 4],
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds one engine's counter gaps: `seen` against the counters' growth
    /// from `before` to `after`.
    pub fn cross_check(&mut self, seen: &Observed, before: &Snapshot, after: &Snapshot) {
        let seen = [seen.session_updates, seen.requests, seen.cache_hits, seen.computed];
        for ((gap, counter), seen) in self.gaps.iter_mut().zip(GAP_COUNTERS).zip(seen) {
            *gap += seen as f64 - (after.counter(counter) as f64 - before.counter(counter) as f64);
        }
    }

    /// Counts one output check: a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.note(format!("CHECK FAILED: {what}"));
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. A metric that is not a finite
    /// number cannot be reported; it is written as 0 and makes the run
    /// incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    *value
                } else {
                    correct = false;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Whether two matrices have the same shape and bitwise-equal entries.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two predictions are bitwise equal (probabilities and demand).
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    same_bits(&a.cls_prob, &b.cls_prob) && same_bits(&a.reg, &b.reg)
}

/// The `placer_trace` cycle check: after a forward-and-reverse cycle the
/// session's `(operators, features)` fingerprints equal their values at
/// open (`None`: the session could not report them).
pub fn fingerprints_restored(open: (u64, u64), now: Option<(u64, u64)>) -> bool {
    now == Some(open)
}

/// The `train_epoch` check: every epoch loss is finite, and the first
/// epoch's loss is bitwise equal to the 1-thread rerun's.
pub fn losses_ok(losses: &[f32], first_epoch_one_thread: f32) -> bool {
    !losses.is_empty()
        && losses.iter().all(|l| l.is_finite())
        && losses[0].to_bits() == first_epoch_one_thread.to_bits()
}

/// `(steal, total)` CPU time of the host so far, in clock ticks, from the
/// first line of `/proc/stat`; `None` if unreadable. Steal is time the
/// hypervisor ran other guests on this machine's virtual CPUs.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host record printed with every result: cores, CPU model, SIMD
/// line, generator and compute threads, seed, and the source revision
/// (the git commit when the checkout is a repository, plus a digest of
/// the sources either way).
pub fn host_line(workload: &str, seed: u64, generator_threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!(
        "host {{\"workload\": \"{workload}\", \"seed\": {seed}, \"cores\": {cores}, \
         \"cpu\": \"{}\", \"isa\": \"{}\", \"generator_threads\": {generator_threads}, \
         \"compute_threads\": {}, \"commit\": \"{commit}\", \"source_digest\": \"{:016x}\"}}",
        cpu.replace('"', "'"),
        neurograd::simd::isa_report().replace('"', "'"),
        neurograd::pool::current_threads(),
        source_digest(),
    )
}

/// FNV-1a digest over the repository's manifests and `crates/` sources
/// (paths and contents, in sorted order), relative to the working
/// directory; identifies the measured code when no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = neurograd::Fnv64::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write_str(&f.to_string_lossy());
            h.write_bytes(&bytes);
        }
    }
    h.finish()
}

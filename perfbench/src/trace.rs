//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::time`], which always returns
//! the call's duration (the untraced run needs it for its end-to-end
//! metrics) and, when tracing is on, also keeps a span: name, start, end,
//! and the span that caused it. Spans stay in memory and are written out
//! once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted but dropped.
const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording on or off (timing is unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// A fresh span id, to use as the parent of the spans a caller opens
    /// inside one logical operation (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.enabled.load(Ordering::Relaxed) {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f`, returning its result and wall time; records a span named
    /// `name` under `parent` when tracing is on.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.time_as(name, self.id(), parent, f)
    }

    /// [`Tracer::time`] with a caller-chosen span id (from [`Tracer::id`]),
    /// so child spans can name this span as their parent.
    pub fn time_as<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if id != 0 {
            let span = Span {
                id,
                parent,
                name,
                start_us: (start - self.t0).as_secs_f64() * 1e6,
                end_us: (end - self.t0).as_secs_f64() * 1e6,
            };
            let mut spans = self.spans.lock().expect("span buffer lock");
            if spans.len() < MAX_SPANS {
                spans.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        (out, end - start)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per span name: count, total and self time in ms (self time is the
    /// span's duration minus the part its child spans cover), sorted by
    /// name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut child_us = std::collections::HashMap::<u64, f64>::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, (usize, f64, f64)>::new();
        for s in spans.iter() {
            let dur = s.end_us - s.start_us;
            let own = (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += own / 1e3;
        }
        by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{dropped}}}")?;
        }
        out.flush()
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

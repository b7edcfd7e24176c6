//! `stateless_serve`: stateless `PredictRequest`s against one engine
//! serving LHNN and HybridNet with its `EngineConfig` defaults, from
//! a closed-loop caller (the end-to-end latency) and, in the traced
//! run, in an open loop at fixed offered rates.
//!
//! Requests are placement snapshots taken along the placer traces of
//! several designs, more distinct ones than the 128-entry cache holds.
//! Every fourth request repeats one of the last few requests, so the cache
//! and single-flight see real reuse while the median request is still a
//! miss (with about half the requests repeating, the median would sit on
//! the boundary between hits and misses and jump between them). New
//! snapshots walk one design at a time, so same-shape requests arrive
//! close together and block-diagonal batching can engage. Every tenth new
//! request goes to HybridNet.
//!
//! Arrival times come from the seed. Each request is timed from its due
//! time; when a generator thread finds several of its requests overdue it
//! sends them together with `predict_batch`, and it records how late it
//! ran. The closed loop sends the same kind of stream, each caller waiting
//! for its reply before the next request. It carries the end-to-end
//! latency because its median holds still on a shared host: at 60 req/s
//! the open loop's workers idle between requests, and the p50 then
//! follows how fast the host wakes them (it quadrupled in a run where
//! other guests took 17 % of the CPU).

use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::atomic::{AtomicUsize, Ordering};

use lhnn::{LatticePipeline, Prediction};
use lhnn_serve::obs::Snapshot;
use lhnn_serve::{
    EngineConfig, ModelEntry, ModelRegistry, PredictRequest, ServeEngine, ServeHandle, ServeReply,
    ServeStats,
};

use crate::design::{build_all, TracedDesign};
use crate::report::{same_prediction, Observed, Report};
use crate::stats::{median, quantile, windowed_p50_p99, Rng};
use crate::trace::{ms, Tracer};
use crate::{nproc, placer_trace, probes, repeat_setup, synth_config, train_epoch, Opts};

/// Offered rate of the open-loop reference phase (`predict_p50_ms`,
/// `predict_p99_ms`).
pub const REFERENCE_RPS: f64 = 60.0;
/// The fixed rate ladder `max_rate_rps` is read from.
pub const LADDER_RPS: [f64; 8] = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0];
/// p99 latency limit (from due time) a ladder rate must meet.
pub const LIMIT_MS: f64 = 100.0;
/// Every this many requests, one repeats a recent request (a fixed share,
/// so the hit ratio, and with it the median, does not vary by seed).
const REPEAT_EVERY: usize = 4;
/// How many recent requests a repeat draws from.
const RECENT: usize = 8;
/// Every this many new requests, one goes to HybridNet.
const HYBRID_EVERY: usize = 10;
/// Model names in the registry; index 0 is LHNN, 1 HybridNet.
const MODELS: [&str; 2] = ["lhnn", "hybridnet"];

#[derive(Debug, Clone, Copy)]
struct Sizes {
    designs: usize,
    /// Snapshots taken per design, evenly spaced along its trace.
    snapshots: usize,
    cells: usize,
    grid: u32,
    setup_reps: usize,
}

const FULL: Sizes = Sizes { designs: 8, snapshots: 24, cells: 800, grid: 24, setup_reps: 5 };
const SMOKE: Sizes = Sizes { designs: 3, snapshots: 6, cells: 200, grid: 10, setup_reps: 1 };

/// Snapshots per design when another workload probes the serving layer.
const PROBE_SNAPSHOTS: usize = 12;

/// Time windows of a closed-loop phase; `iter_per_s` is their median.
const WINDOWS: u32 = 5;
/// Closed-loop callers. One: the engine's two workers and the compute
/// pool already fill a 2-core host, and a second caller's forward only
/// queues behind the first's, so its latency measured the scheduler.
const CALLERS: usize = 1;

/// One placement snapshot: the request payload plus the direct forward
/// of each model on it, computed in setup.
struct Snap {
    requests: [PredictRequest; 2],
    expected: [Prediction; 2],
}

/// The serving set-up: an engine with both models, and the snapshots of
/// some designs with their direct forwards.
pub struct Setup {
    registry: Arc<ModelRegistry>,
    /// One engine for the run (long-lived workers, like a deployment).
    engine: ServeEngine,
    snaps: Vec<Snap>,
    /// Snapshot index ranges, one per design.
    by_design: Vec<std::ops::Range<usize>>,
}

/// `count` snapshots of a design, evenly spaced along its trace replayed
/// through a pipeline, the last one at the trace's end, each with both
/// models' direct forwards.
fn snapshots(d: &TracedDesign, count: usize, models: &[Arc<ModelEntry>]) -> Vec<Snap> {
    let mut pipe =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())
            .expect("pipeline builds");
    let mut scratch: Vec<_> = models.iter().map(|e| e.model.new_scratch()).collect();
    let n = d.forward_len;
    let mut out = Vec::with_capacity(count);
    for (i, delta) in d.trace().iter().enumerate() {
        pipe.apply(delta).expect("trace applies");
        // Snapshot k of `count` is taken after delta ⌈(k+1)·n/count⌉ − 1.
        while out.len() < count && (out.len() + 1) * n <= (i + 1) * count {
            let ops = pipe.ops();
            let feats = Arc::new(probes::scaled(&pipe.features()));
            let expected =
                [0, 1].map(|m| models[m].model.predict_with(&ops, &feats, scratch[m].as_mut()));
            let requests = [0, 1]
                .map(|m| PredictRequest::new(MODELS[m], Arc::clone(&ops), Arc::clone(&feats)));
            out.push(Snap { requests, expected });
        }
    }
    out
}

impl Setup {
    /// Registers both models, takes `per_design` snapshots of every
    /// design (designs spread over the host's threads) and starts an
    /// engine with its defaults, except that a probe's engine caches
    /// two thirds as many predictions as there are snapshots, as the
    /// workload's default 128-entry cache does for its 192 snapshots.
    fn new(designs: &[&TracedDesign], per_design: usize, probe: bool) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        registry.register_boxed(MODELS[0], crate::lhnn_model()).expect("model registers");
        registry.register_boxed(MODELS[1], crate::hybrid_model()).expect("model registers");
        let models: Vec<Arc<ModelEntry>> =
            MODELS.iter().map(|m| registry.get(m).expect("registered")).collect();
        let threads = nproc();
        let mut built: Vec<(usize, Vec<Snap>)> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..threads)
                .map(|t| {
                    let models = &models;
                    scope.spawn(move || {
                        (t..designs.len())
                            .step_by(threads)
                            .map(|i| (i, snapshots(designs[i], per_design, models)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().expect("setup thread")).collect()
        });
        built.sort_by_key(|b| b.0);
        let mut snaps = Vec::new();
        let mut by_design = Vec::new();
        for (_, design_snaps) in built {
            by_design.push(snaps.len()..snaps.len() + design_snaps.len());
            snaps.extend(design_snaps);
        }
        let mut cfg = EngineConfig::default();
        if probe {
            cfg.cache_capacity = (2 * snaps.len()).div_ceil(3);
        }
        let engine = ServeEngine::new(Arc::clone(&registry), cfg);
        Setup { registry, engine, snaps, by_design }
    }
}

/// One request of the stream: which snapshot, which model, when.
#[derive(Debug, Clone, Copy)]
struct Req {
    snap: usize,
    model: usize,
    due: f64,
}

/// The seeded request stream of one phase: `n` Poisson arrivals at `rps`.
fn stream(rng: &mut Rng, st: &Setup, n: usize, rps: f64) -> Vec<Req> {
    let mut out = Vec::with_capacity(n);
    let mut recent: std::collections::VecDeque<(usize, usize)> = Default::default();
    let order = permutation(rng, st.by_design.len());
    let mut lap = 0;
    let mut design = order[0];
    let mut pos = 0;
    let mut due = 0.0;
    let mut fresh = 0;
    for i in 0..n {
        due += rng.exp(1.0 / rps);
        let (snap, model) = if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            recent[rng.below(recent.len())]
        } else {
            let range = &st.by_design[design];
            fresh += 1;
            let pick = (range.start + pos, usize::from(fresh % HYBRID_EVERY == 0));
            pos += 1;
            if pos == range.len() {
                pos = 0;
                lap = (lap + 1) % order.len();
                design = order[lap];
            }
            recent.push_back(pick);
            if recent.len() > RECENT {
                recent.pop_front();
            }
            pick
        };
        out.push(Req { snap, model, due });
    }
    out
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// `(due time, latency from due time to reply in ms)` per request.
    by_due: Vec<(f64, f64)>,
    /// The latencies as one series in due order (the generator threads
    /// split requests round-robin, and every fourth request is a repeat,
    /// so one thread's series alone would over-represent cache hits).
    series: Vec<Vec<f64>>,
    /// Engine-measured latency of LHNN misses (ms).
    lhnn_miss_engine: Vec<f64>,
    /// How late each request was sent (ms).
    lag: Vec<f64>,
    /// Lag of the last request sent (ms).
    final_lag: f64,
    /// Replies per second in each window of a closed-loop phase.
    window_rates: Vec<f64>,
    requests: u64,
    cached: u64,
    errors: u64,
    mismatches: u64,
    /// Engine stats and metrics before and after the phase.
    stats: Option<(ServeStats, ServeStats)>,
    metrics: Option<(Snapshot, Snapshot)>,
}

/// Offers `reqs` to the run's engine, cache cleared first, in an open loop
/// from the generator threads; every reply is checked against the
/// setup's direct forward.
fn offer(st: &Setup, reqs: &[Req], tr: &Tracer) -> Phase {
    let handle = st.engine.handle();
    handle.clear_cache();
    let gens = nproc();
    let (stats0, metrics0) = (handle.stats(), handle.metrics_snapshot());
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..gens)
            .map(|g| {
                let handle = handle.clone();
                scope.spawn(move || generate_load(st, reqs, g, gens, &handle, start, tr))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("generator thread")).collect()
    });
    let mut phase = Phase::default();
    for p in parts {
        phase.merge(p);
    }
    phase.by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
    phase.series = vec![phase.by_due.iter().map(|&(_, l)| l).collect()];
    phase.stats = Some((stats0, handle.stats()));
    phase.metrics = Some((metrics0, handle.metrics_snapshot()));
    phase
}

/// One generator thread: sends requests `g, g + gens, …` at their due
/// times, batching whatever is overdue.
fn generate_load(
    st: &Setup,
    reqs: &[Req],
    g: usize,
    gens: usize,
    handle: &ServeHandle,
    start: Instant,
    tr: &Tracer,
) -> Phase {
    let mut out = Phase::default();
    let mine: Vec<&Req> = reqs.iter().skip(g).step_by(gens).collect();
    let mut next = 0;
    while next < mine.len() {
        let now = start.elapsed().as_secs_f64();
        let wait = mine[next].due - now;
        if wait > 0.0 {
            if wait > 0.0005 {
                std::thread::sleep(Duration::from_secs_f64(wait - 0.0003));
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        let end = next + mine[next..].iter().take_while(|r| r.due <= now).count().max(1);
        let group = &mine[next..end];
        next = end;
        let sent = start.elapsed().as_secs_f64();
        let replies = if group.len() == 1 {
            let r = &group[0];
            vec![
                tr.time("serve.predict", 0, || handle.predict(&st.snaps[r.snap].requests[r.model]))
                    .0,
            ]
        } else {
            let batch: Vec<PredictRequest> =
                group.iter().map(|r| st.snaps[r.snap].requests[r.model].clone()).collect();
            tr.time("serve.predict_batch", 0, || handle.predict_batch(&batch)).0
        };
        for (r, reply) in group.iter().zip(replies) {
            let lag = (sent - r.due) * 1e3;
            out.lag.push(lag);
            out.final_lag = lag;
            if let Some(engine_ms) = out.record(st, r, reply) {
                out.by_due.push((r.due, lag + engine_ms));
            }
        }
    }
    out
}

impl Phase {
    /// Counts one reply and checks it against the setup's direct forward;
    /// returns the engine-measured latency (ms) of a successful reply.
    fn record(
        &mut self,
        st: &Setup,
        r: &Req,
        reply: lhnn_serve::Result<ServeReply>,
    ) -> Option<f64> {
        self.requests += 1;
        let reply = match reply {
            Ok(reply) => reply,
            Err(_) => {
                self.errors += 1;
                return None;
            }
        };
        let engine_ms = ms(reply.latency);
        if reply.cached {
            self.cached += 1;
        } else if r.model == 0 {
            self.lhnn_miss_engine.push(engine_ms);
        }
        if !same_prediction(&reply.prediction, &st.snaps[r.snap].expected[r.model]) {
            self.mismatches += 1;
        }
        Some(engine_ms)
    }

    /// Merges a generator thread's part.
    fn merge(&mut self, p: Phase) {
        self.by_due.extend(p.by_due);
        self.lhnn_miss_engine.extend(p.lhnn_miss_engine);
        self.lag.extend(p.lag);
        self.final_lag = self.final_lag.max(p.final_lag);
        self.requests += p.requests;
        self.cached += p.cached;
        self.errors += p.errors;
        self.mismatches += p.mismatches;
    }
}

/// A closed-loop phase: [`CALLERS`] callers, each sending the next request
/// of `reqs` (cyclically, due times ignored) as soon as its previous reply
/// arrived, for `dur`, cache cleared first. Each caller's latencies form
/// one series per window. Returns the phase and the median over
/// [`WINDOWS`] windows of replies per second.
fn closed_loop(st: &Setup, reqs: &[Req], dur: Duration, tr: &Tracer) -> (Phase, f64) {
    let handle = st.engine.handle();
    handle.clear_cache();
    let (stats0, metrics0) = (handle.stats(), handle.metrics_snapshot());
    let next = AtomicUsize::new(0);
    let mut phase = Phase::default();
    let mut rates = Vec::new();
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let parts: Vec<Phase> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..CALLERS)
                .map(|_| {
                    let (handle, next) = (&handle, &next);
                    scope.spawn(move || {
                        let mut out = Phase::default();
                        while start.elapsed() < dur / WINDOWS {
                            let r = &reqs[next.fetch_add(1, Ordering::Relaxed) % reqs.len()];
                            let (reply, t) = tr.time("serve.predict", 0, || {
                                handle.predict(&st.snaps[r.snap].requests[r.model])
                            });
                            out.record(st, r, reply);
                            out.by_due.push((0.0, ms(t)));
                        }
                        out
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().expect("caller thread")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        rates.push(parts.iter().map(|p| p.requests).sum::<u64>() as f64 / wall);
        for p in parts {
            phase.series.push(p.by_due.iter().map(|&(_, l)| l).collect());
            phase.merge(p);
        }
    }
    phase.stats = Some((stats0, handle.stats()));
    phase.metrics = Some((metrics0, handle.metrics_snapshot()));
    let rate = median(&rates);
    phase.window_rates = rates;
    (phase, rate)
}

/// Number of requests a phase of `secs` at `rps` offers.
fn count(rps: f64, secs: f64) -> usize {
    ((rps * secs).ceil() as usize).max(20)
}

/// Folds a phase's failures into the report, and cross-checks the
/// engine's counters against the replies the phase saw.
fn account(rep: &mut Report, p: &Phase) {
    rep.attempted += p.requests;
    rep.failed += p.errors + p.mismatches;
    if p.mismatches > 0 {
        rep.note(format!("CHECK FAILED: {} replies differ from the direct forward", p.mismatches));
    }
    let seen = Observed {
        session_updates: 0,
        requests: p.requests,
        cache_hits: p.cached,
        computed: p.requests - p.cached - p.errors,
    };
    let (before, after) = p.metrics.as_ref().expect("phase metrics");
    rep.cross_check(&seen, before, after);
}

/// Whether a ladder rate is sustained: no failure, p99 (windowed
/// estimate) within the limit, and no growing backlog (the last request
/// went out within the limit).
fn sustained(p: &Phase) -> bool {
    p.errors == 0 && windowed_p50_p99(&p.series).1 <= LIMIT_MS && p.final_lag <= LIMIT_MS
}

/// `max_rate_rps`: the highest ladder rate that is sustained. The search
/// starts at the middle rung, climbs while rates are sustained and
/// descends until one is, trying at most three rungs of `rung_secs` each.
/// A ladder that sustains no rung tried reports half the lowest rate
/// tried.
fn ladder(rep: &mut Report, st: &Setup, rng: &mut Rng, rung_secs: f64, tr: &Tracer) -> f64 {
    let mut idx = LADDER_RPS.len() / 2 - 1;
    let mut best = None;
    let mut lowest_failed = f64::INFINITY;
    for _ in 0..3 {
        let rate = LADDER_RPS[idx];
        let p = offer(st, &stream(rng, st, count(rate, rung_secs), rate), tr);
        account(rep, &p);
        let ok = sustained(&p);
        let (p50, p99) = windowed_p50_p99(&p.series);
        rep.note(format!(
            "  {rate:>6} req/s: p50 {p50:.2} ms  p99 {p99:.2} ms  final lag {:.2} ms  {}",
            p.final_lag,
            if ok { "sustained" } else { "not sustained" }
        ));
        if ok {
            best = Some(rate);
            if lowest_failed.is_finite() || idx + 1 == LADDER_RPS.len() {
                break;
            }
            idx += 1;
        } else {
            lowest_failed = rate;
            if best.is_some() || idx == 0 {
                break;
            }
            idx -= 1;
        }
    }
    best.unwrap_or(lowest_failed / 2.0)
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &Tracer) -> Report {
    let s = if opts.smoke { SMOKE } else { FULL };
    let mut rep = Report::default();
    tr.set_enabled(opts.trace);
    let ((designs, st), setup_s) = repeat_setup(s.setup_reps, || {
        let designs = build_all(s.designs, nproc(), tr, |i| {
            synth_config(format!("serve-{i}"), opts.seed, 200 + i as u64, s.cells, s.grid)
        });
        let st = Setup::new(&designs.iter().collect::<Vec<_>>(), s.snapshots, false);
        (designs, st)
    });
    let mut rng = Rng::new(opts.seed, 300);
    rep.note(format!(
        "stateless_serve: {} designs x {} cells on {g}x{g} g-cells, {} snapshots x 2 models, \
         reference {REFERENCE_RPS} req/s, ladder {LADDER_RPS:?} req/s, p99 limit {LIMIT_MS} ms",
        s.designs,
        s.cells,
        st.snaps.len(),
        g = s.grid
    ));
    // The closed loop replays one seeded stream, and starts with a short
    // untimed window while allocations and caches warm up.
    tr.set_enabled(false);
    let reqs = stream(&mut rng, &st, 4096, REFERENCE_RPS);
    let (warm, _) = closed_loop(&st, &reqs, Duration::from_secs_f64(opts.seconds * 0.05), tr);
    account(&mut rep, &warm);
    if !opts.trace {
        let (cl, rate) = closed_loop(&st, &reqs, Duration::from_secs_f64(opts.seconds * 0.9), tr);
        account(&mut rep, &cl);
        let (p50, p99) = windowed_p50_p99(&cl.series);
        rep.note(format!(
            "closed loop: {} requests by {CALLERS} caller(s), hit ratio {:.3}, \
             p50 {p50:.3} ms, p99 {p99:.2} ms; replies/s by window {:.1?} (median {rate:.1})",
            cl.requests,
            cl.cached as f64 / cl.requests as f64,
            cl.window_rates,
        ));
        rep.push("setup_s", median(&setup_s), "s");
        rep.push("iter_p50_ms", p50, "ms");
        return rep;
    }

    // --- traced run ---
    // Untraced and traced closed-loop phases alternate, so drift on the
    // host cannot pass for tracing overhead; the loop's own metrics come
    // from the untraced phases.
    let (mut plain, mut traced, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for on in [false, true, false, true] {
        tr.set_enabled(on);
        let (phase, _) = closed_loop(&st, &reqs, Duration::from_secs_f64(opts.seconds * 0.1), tr);
        account(&mut rep, &phase);
        if on {
            traced.extend(phase.series);
        } else {
            plain.extend(phase.series);
            rates.extend(phase.window_rates);
        }
    }
    let ((plain_p50, plain_p99), (traced_p50, _)) =
        (windowed_p50_p99(&plain), windowed_p50_p99(&traced));
    rep.push("iter_per_s", median(&rates), "1/s");
    rep.push("iter_p99_ms", plain_p99, "ms");
    rep.push("bench.trace_overhead_ratio", traced_p50 / plain_p50, "ratio");
    serve_layers(&mut rep, &st, &mut rng, opts.seconds * 0.3, opts.seconds * 0.1, tr);
    st.engine.shutdown();
    rep.push(
        "place.trace_ms",
        median(&designs.iter().map(|d| d.place_ms).collect::<Vec<_>>()),
        "ms",
    );
    let budget = Duration::from_secs_f64(opts.seconds);
    let apply_splice = probes::common(&mut rep, tr, &designs[0], opts.seed, budget / 4);
    placer_trace::session_probe(&mut rep, tr, &designs[0], apply_splice);
    train_epoch::train_probe(&mut rep, tr, &[&designs[0], &designs[1]], budget / 4);
    rep
}

/// The serving-layer metrics on a set-up, with tracing as the caller set
/// it: a reference phase of `ref_secs` at [`REFERENCE_RPS`]
/// (`predict_p50_ms`, `predict_p99_ms`, the `serve.*` metrics), the rate
/// ladder at `rung_secs` a rung (`max_rate_rps`), the serving overhead
/// over LHNN's direct forward of the same snapshots, and the batched
/// burst.
fn serve_layers(
    rep: &mut Report,
    st: &Setup,
    rng: &mut Rng,
    ref_secs: f64,
    rung_secs: f64,
    tr: &Tracer,
) {
    let p = offer(st, &stream(rng, st, count(REFERENCE_RPS, ref_secs), REFERENCE_RPS), tr);
    account(rep, &p);
    let (p50, p99) = windowed_p50_p99(&p.series);
    rep.push("predict_p50_ms", p50, "ms");
    rep.push("predict_p99_ms", p99, "ms");
    let (s0, s1) = p.stats.as_ref().expect("phase stats");
    let (before, after) = p.metrics.as_ref().expect("phase metrics");
    let queue = |snap: &Snapshot| {
        snap.histogram("lhnn_stage_us{stage=\"queue\"}")
            .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
    };
    let ((q_sum1, q_n1), (q_sum0, q_n0)) = (queue(after), queue(before));
    rep.push("serve.queue_ms", (q_sum1 - q_sum0) / (q_n1 - q_n0).max(1.0) / 1e3, "ms");
    rep.push("serve.cache_hit_ratio", p.cached as f64 / p.requests.max(1) as f64, "ratio");
    let jobs = |s: &ServeStats| s.mean_batch_size * s.batches as f64;
    rep.push(
        "serve.mean_batch",
        (jobs(s1) - jobs(s0)) / (s1.batches - s0.batches).max(1) as f64,
        "count",
    );
    rep.push(
        "serve.batched_job_ratio",
        (s1.batched_forward_jobs - s0.batched_forward_jobs) as f64
            / (s1.computed - s0.computed).max(1) as f64,
        "ratio",
    );
    rep.push("serve.gen_lag_p99_ms", quantile(&p.lag, 0.99), "ms");
    // The base of the serving overhead: LHNN's direct forward over the
    // same snapshot population the misses came from.
    let lhnn = st.registry.get(MODELS[0]).expect("registered");
    let mut scratch = lhnn.model.new_scratch();
    let direct: Vec<f64> = st
        .snaps
        .iter()
        .map(|s| {
            let r = &s.requests[0];
            let (_, t) = tr.time("model.forward", 0, || {
                std::hint::black_box(lhnn.model.predict_with(&r.ops, &r.features, scratch.as_mut()))
            });
            ms(t)
        })
        .collect();
    rep.push("serve.overhead_ms", median(&p.lhnn_miss_engine) - median(&direct), "ms");
    let best = ladder(rep, st, rng, rung_secs, tr);
    rep.push("max_rate_rps", best, "1/s");
    rep.note(format!(
        "reference phase: {} requests, hit ratio {:.3}, p50 {p50:.2} ms, p99 {p99:.2} ms; \
         max rate {best} req/s",
        p.requests,
        p.cached as f64 / p.requests.max(1) as f64,
    ));
    burst(rep, st, tr);
}

/// The serving layer on another workload's designs: [`PROBE_SNAPSHOTS`]
/// snapshots of each along its trace, served by an engine of their own
/// with both models; the reference phase and the ladder share `budget`.
pub fn serve_probe(
    rep: &mut Report,
    tr: &Tracer,
    designs: &[&TracedDesign],
    seed: u64,
    budget: Duration,
) {
    let st = Setup::new(designs, PROBE_SNAPSHOTS, true);
    let mut rng = Rng::new(seed, 310);
    let secs = budget.as_secs_f64();
    let warm =
        offer(&st, &stream(&mut rng, &st, count(REFERENCE_RPS, secs * 0.1), REFERENCE_RPS), tr);
    account(rep, &warm);
    serve_layers(rep, &st, &mut rng, secs * 0.4, secs * 0.15, tr);
    st.engine.shutdown();
}

/// `serve.burst_batched_vs_serial`: one design's LHNN snapshots (same
/// shape) sent one at a time, then all at once with `predict_batch`, each
/// on a fresh engine; batched time over serial time, median of 3.
fn burst(rep: &mut Report, st: &Setup, tr: &Tracer) {
    let reqs: Vec<PredictRequest> =
        st.snaps[st.by_design[0].clone()].iter().map(|s| s.requests[0].clone()).collect();
    let mut ratios = Vec::new();
    let mut failed = 0;
    for _ in 0..3 {
        let serial_engine = ServeEngine::new(Arc::clone(&st.registry), EngineConfig::default());
        let h = serial_engine.handle();
        let (serial, t_serial) = tr.time("serve.burst_serial", 0, || {
            reqs.iter().map(|r| h.predict(r)).collect::<Vec<_>>()
        });
        serial_engine.shutdown();
        let batched_engine = ServeEngine::new(Arc::clone(&st.registry), EngineConfig::default());
        let h = batched_engine.handle();
        let (batched, t_batched) = tr.time("serve.burst_batched", 0, || h.predict_batch(&reqs));
        batched_engine.shutdown();
        for (i, (a, b)) in serial.iter().zip(&batched).enumerate() {
            let expected = &st.snaps[st.by_design[0].start + i].expected[0];
            let ok = matches!((a, b), (Ok(a), Ok(b))
                if same_prediction(&a.prediction, expected) && same_prediction(&b.prediction, expected));
            failed += u64::from(!ok);
        }
        rep.attempted += 2 * reqs.len() as u64;
        ratios.push(ms(t_batched) / ms(t_serial));
    }
    rep.failed += failed;
    if failed > 0 {
        rep.note(format!("CHECK FAILED: {failed} burst replies differ from the direct forward"));
    }
    rep.push("serve.burst_batched_vs_serial", median(&ratios), "ratio");
}

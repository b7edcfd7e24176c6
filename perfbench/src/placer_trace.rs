//! `placer_trace`: the stateful path a placer uses.
//!
//! Each synthetic design gets its own closed-loop client thread that
//! replays the design's `GlobalPlacer::place_synth_traced` trace through
//! `Session::submit_update` + `Session::predict` on a 2-shard engine:
//! forward through the trace, then backward with deltas that restore the
//! previous positions, and again. The first forward pass is warm-up and
//! counts in `setup_s`.
//!
//! The engine runs with its defaults except `shards: 2` and
//! `cache_capacity: 0`. The replay revisits every state once per
//! direction, which a real placer never does; with the cache on, every
//! predict after the first cycle would be a cache hit and the pipeline
//! splice would go unmeasured. The cache is measured on `stateless_serve`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{AblationSpec, CongestionModel, GraphOps, Prediction};
use lhnn_serve::obs::Snapshot;
use lhnn_serve::{EngineConfig, ModelRegistry, ServeEngine, ServeHandle, Session, SessionConfig};
use vlsi_netlist::NetId;

use crate::design::{build_all, TracedDesign};
use crate::report::{fingerprints_restored, same_prediction, Observed, Report};
use crate::stats::{median, quantile, windowed_p50_p99};
use crate::trace::{ms, Tracer};
use crate::{probes, repeat_setup, stateless_serve, synth_config, train_epoch, Opts};

/// Workload size.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    designs: usize,
    cells: usize,
    grid: u32,
    setup_reps: usize,
}

const FULL: Sizes = Sizes { designs: 2, cells: 3000, grid: 48, setup_reps: 3 };
const SMOKE: Sizes = Sizes { designs: 2, cells: 400, grid: 16, setup_reps: 1 };

/// Time windows of the untraced measurement (their rates are noted).
const WINDOWS: u32 = 3;

/// One closed-loop client: a session and its position in the cycle.
struct Client {
    session: Session,
    design: usize,
    pos: usize,
    /// Fingerprints of the opening placement under `layout`.
    open_fps: (u64, u64),
    /// The session's G-net column layout `open_fps` was taken under.
    layout: Vec<NetId>,
    last: Option<Arc<Prediction>>,
    iterations: u64,
    computed: u64,
    cached: u64,
    errors: u64,
    cycles: u64,
    cycle_failures: u64,
}

/// Per-phase samples of one client.
#[derive(Default)]
struct Samples {
    iter_ms: Vec<f64>,
    update_ms: Vec<f64>,
    predict_ms: Vec<f64>,
}

impl Samples {
    fn extend(&mut self, other: Samples) {
        self.iter_ms.extend(other.iter_ms);
        self.update_ms.extend(other.update_ms);
        self.predict_ms.extend(other.predict_ms);
    }
}

impl Client {
    /// Opens a session for design `design` (`d`) under the design id `id`.
    fn open(handle: &ServeHandle, d: &TracedDesign, design: usize, id: String) -> Self {
        let session = handle
            .open_session(
                SessionConfig::new("lhnn").with_design(id),
                Arc::clone(&d.circuit),
                d.initial.clone(),
                d.grid.clone(),
            )
            .expect("session opens");
        let open_fps = session.fingerprints().expect("fresh session is coherent");
        let layout = session.with_pipeline(|p| p.graph().kept_nets().to_vec());
        Client {
            session,
            design,
            pos: 0,
            open_fps,
            layout,
            last: None,
            iterations: 0,
            computed: 0,
            cached: 0,
            errors: 0,
            cycles: 0,
            cycle_failures: 0,
        }
    }

    /// One placer iteration: submit the next delta, then predict.
    fn step(&mut self, d: &TracedDesign, tr: &Tracer, out: &mut Samples) {
        let delta = &d.steps[self.pos];
        let id = tr.id();
        let session = &mut self.session;
        let ((up, pr), it) = tr.time_as("placer.iteration", id, 0, || {
            let ((), up) = tr.time("session.submit_update", id, || {
                drop(session.submit_update(delta));
            });
            let (reply, pr) = tr.time("session.predict", id, || session.predict());
            match reply {
                Ok(r) => {
                    self.computed += u64::from(!r.cached);
                    self.cached += u64::from(r.cached);
                    self.last = Some(r.prediction);
                }
                Err(_) => self.errors += 1,
            }
            (up, pr)
        });
        out.iter_ms.push(ms(it));
        out.update_ms.push(ms(up));
        out.predict_ms.push(ms(pr));
        self.iterations += 1;
        self.pos += 1;
        if self.pos == d.steps.len() {
            // A forward-and-reverse cycle ends where the session opened.
            self.pos = 0;
            self.cycles += 1;
            let (fps, layout) = self
                .session
                .with_pipeline(|p| (p.fingerprints().ok(), p.graph().kept_nets().to_vec()));
            if layout != self.layout {
                // A compaction renumbered the G-net columns: the opening
                // placement's reference is rebuilt under the new layout.
                self.open_fps = opening_fingerprints(d, &layout).unwrap_or_default();
                self.layout = layout;
            }
            if !fingerprints_restored(self.open_fps, fps) {
                self.cycle_failures += 1;
            }
        }
    }

    /// What the client issued and observed (every iteration is one update
    /// and one predict).
    fn observed(&self) -> Observed {
        Observed {
            session_updates: self.iterations,
            requests: self.iterations,
            cache_hits: self.cached,
            computed: self.computed,
        }
    }

    /// Folds the client's operations and output checks into the report:
    /// the cycle-end fingerprints (counted as it ran) and its last
    /// prediction against a from-scratch rebuild.
    fn account(&self, rep: &mut Report, d: &TracedDesign, model: &dyn CongestionModel) {
        rep.attempted += self.iterations + self.cycles + 1;
        rep.failed += self.errors + self.cycle_failures;
        if self.cycle_failures > 0 {
            rep.note(format!(
                "CHECK FAILED: {} cycle-end fingerprint mismatches",
                self.cycle_failures
            ));
        }
        let ok = match (&self.last, direct_reference(self, d, model)) {
            (Some(last), Some(reference)) => same_prediction(last, &reference),
            _ => false,
        };
        rep.check(ok, &format!("{}: last prediction != direct rebuild forward", d.name));
    }
}

/// `(operators, features)` fingerprints of a from-scratch build of the
/// design's opening placement with a prescribed G-net column layout.
fn opening_fingerprints(d: &TracedDesign, layout: &[NetId]) -> Option<(u64, u64)> {
    let cfg = LhGraphConfig::default();
    let graph = LhGraph::build_with_columns(&d.circuit, &d.initial, &d.grid, &cfg, layout).ok()?;
    let feats = FeatureSet::build(&graph, &d.circuit, &d.initial, &d.grid).ok()?;
    Some((GraphOps::from_graph(&graph, &AblationSpec::full()).fingerprint(), feats.fingerprint()))
}

/// The reference for a session's last prediction: a from-scratch
/// `LhGraph::build_with_columns` at the session's placement with the
/// session's own column layout, scaled like a session scales, through the
/// model's direct `predict_with`.
fn direct_reference(
    c: &Client,
    d: &TracedDesign,
    model: &dyn CongestionModel,
) -> Option<Prediction> {
    let (placement, columns) =
        c.session.with_pipeline(|p| (p.placement().clone(), p.graph().kept_nets().to_vec()));
    let cfg = LhGraphConfig::default();
    let graph =
        LhGraph::build_with_columns(&d.circuit, &placement, &d.grid, &cfg, &columns).ok()?;
    let feats = probes::scaled(&FeatureSet::build(&graph, &d.circuit, &placement, &d.grid).ok()?);
    let ops = GraphOps::from_graph(&graph, &AblationSpec::full());
    Some(model.predict_with(&ops, &feats, model.new_scratch().as_mut()))
}

/// Everything set up for the measured phases.
struct Setup {
    engine: ServeEngine,
    registry: Arc<ModelRegistry>,
    /// The engine's metrics before any session opened.
    metrics0: Snapshot,
    designs: Vec<TracedDesign>,
    clients: Vec<Client>,
}

fn setup(seed: u64, s: Sizes, tr: &Tracer) -> Setup {
    let registry = Arc::new(ModelRegistry::new());
    registry.register_boxed("lhnn", crate::lhnn_model()).expect("model registers");
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig { shards: 2, cache_capacity: 0, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let metrics0 = handle.metrics_snapshot();
    let designs = build_all(s.designs, s.designs, tr, |i| {
        synth_config(format!("placer-{i}"), seed, 100 + i as u64, s.cells, s.grid)
    });
    // Design ids chosen so the clients land on distinct shards.
    let mut taken = Vec::new();
    let clients: Vec<Client> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let id = (0..)
                .map(|k| format!("{}-{k}", d.name))
                .find(|id| {
                    let shard = handle.shard_of_design(id);
                    taken.len() >= handle.shards() || !taken.contains(&shard)
                })
                .expect("some id maps to a free shard");
            taken.push(handle.shard_of_design(&id));
            Client::open(&handle, d, i, id)
        })
        .collect();
    let mut setup = Setup { engine, registry, metrics0, designs, clients };
    // Warm-up: the first forward pass of every client.
    let designs = &setup.designs;
    std::thread::scope(|scope| {
        for c in setup.clients.iter_mut() {
            scope.spawn(move || {
                let d = &designs[c.design];
                let mut sink = Samples::default();
                while c.pos < d.forward_len {
                    c.step(d, tr, &mut sink);
                }
            });
        }
    });
    setup
}

/// Runs every client concurrently for `dur`; returns each client's
/// samples and the phase's wall time in seconds.
fn measure(st: &mut Setup, tr: &Tracer, dur: Duration) -> (Vec<Samples>, f64) {
    let designs = &st.designs;
    let start = Instant::now();
    let parts: Vec<Samples> = std::thread::scope(|scope| {
        let joins: Vec<_> = st
            .clients
            .iter_mut()
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Samples::default();
                    while start.elapsed() < dur {
                        c.step(&designs[c.design], tr, &mut out);
                    }
                    out
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });
    (parts, start.elapsed().as_secs_f64())
}

/// The session metrics from a session load's samples; `session.overhead_ms`
/// is one iteration's p50 minus the direct replay's p50 apply and splice
/// times on the same deltas.
fn push_session(rep: &mut Report, samples: &Samples, (apply_p50, splice_p50): (f64, f64)) {
    rep.push("session.update_ms.p50", median(&samples.update_ms), "ms");
    rep.push("session.update_ms.p99", quantile(&samples.update_ms, 0.99), "ms");
    rep.push("session.predict_ms.p50", median(&samples.predict_ms), "ms");
    rep.push("session.predict_ms.p99", quantile(&samples.predict_ms, 0.99), "ms");
    rep.push("session.overhead_ms", median(&samples.iter_ms) - (apply_p50 + splice_p50), "ms");
}

/// The session layer on another workload's design: one closed-loop client
/// on an engine of its own (`placer_trace`'s settings, one shard), warmed
/// up on the trace's forward half, then timed over one whole cycle. Pushes
/// the `session.*` metrics, with `apply_splice` the direct replay's p50
/// apply and splice times on the same design.
pub fn session_probe(rep: &mut Report, tr: &Tracer, d: &TracedDesign, apply_splice: (f64, f64)) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register_boxed("lhnn", crate::lhnn_model()).expect("model registers");
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig { shards: 1, cache_capacity: 0, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let before = handle.metrics_snapshot();
    let mut c = Client::open(&handle, d, 0, d.name.clone());
    let mut sink = Samples::default();
    while c.pos < d.forward_len {
        c.step(d, tr, &mut sink);
    }
    let mut samples = Samples::default();
    for _ in 0..d.steps.len() {
        c.step(d, tr, &mut samples);
    }
    let entry = registry.get("lhnn").expect("registered");
    c.account(rep, d, entry.model.as_ref());
    rep.cross_check(&c.observed(), &before, &handle.metrics_snapshot());
    drop(c);
    engine.shutdown();
    push_session(rep, &samples, apply_splice);
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &Tracer) -> Report {
    let s = if opts.smoke { SMOKE } else { FULL };
    let mut rep = Report::default();
    tr.set_enabled(opts.trace);
    let (mut st, setup_s) = repeat_setup(s.setup_reps, || setup(opts.seed, s, tr));
    let budget = Duration::from_secs_f64(opts.seconds);
    // Throughput is the median over time windows, and latency the windowed
    // estimate over each client's series, so a stretch disturbed by other
    // load on the host does not move them.
    let mut rates = Vec::new();
    let mut series = vec![Vec::new(); st.clients.len()];
    let (samples, wall, overhead) = if opts.trace {
        // Traced and untraced slices alternate, so drift on the host
        // cannot pass for tracing overhead.
        let (mut plain, mut traced, mut wall) = (Samples::default(), Samples::default(), 0.0);
        for k in 0..8 {
            tr.set_enabled(k % 2 == 1);
            let (parts, w) = measure(&mut st, tr, budget / 16);
            let out = if k % 2 == 1 { &mut traced } else { &mut plain };
            for (client, p) in series.iter_mut().zip(parts) {
                if k % 2 == 1 {
                    client.extend_from_slice(&p.iter_ms);
                }
                out.extend(p);
            }
            wall += w * f64::from(k % 2 == 1);
        }
        let overhead = median(&traced.iter_ms) / median(&plain.iter_ms);
        (traced, wall, overhead)
    } else {
        let (mut all, mut wall) = (Samples::default(), 0.0);
        for _ in 0..WINDOWS {
            let (parts, w) = measure(&mut st, tr, budget / WINDOWS);
            rates.push(parts.iter().map(|p| p.iter_ms.len()).sum::<usize>() as f64 / w);
            for (client, p) in series.iter_mut().zip(parts) {
                client.extend_from_slice(&p.iter_ms);
                all.extend(p);
            }
            wall += w;
        }
        (all, wall, 1.0)
    };
    let iterations: u64 = samples.iter_ms.len() as u64;

    let entry = st.registry.get("lhnn").expect("registered");
    for c in &st.clients {
        c.account(&mut rep, &st.designs[c.design], entry.model.as_ref());
    }
    let cycles: u64 = st.clients.iter().map(|c| c.cycles).sum();
    rep.note(format!(
        "placer_trace: {} designs x {} cells on {g}x{g} g-cells, {} deltas per cycle, \
         {iterations} measured iterations in {wall:.2} s, {cycles} cycles checked",
        s.designs,
        s.cells,
        st.designs[0].steps.len(),
        g = s.grid,
    ));

    if !rates.is_empty() {
        rep.note(format!("iterations per second by window: {rates:.2?}"));
    }
    rep.note(format!(
        "iteration ms: p10 {:.1} p50 {:.1} p90 {:.1} p95 {:.1} p99 {:.1} max {:.1}",
        quantile(&samples.iter_ms, 0.1),
        median(&samples.iter_ms),
        quantile(&samples.iter_ms, 0.9),
        quantile(&samples.iter_ms, 0.95),
        quantile(&samples.iter_ms, 0.99),
        quantile(&samples.iter_ms, 1.0)
    ));
    if !opts.trace {
        rep.push("setup_s", median(&setup_s), "s");
        rep.push("iter_p50_ms", windowed_p50_p99(&series).0, "ms");
        st.engine.shutdown();
        return rep;
    }

    // --- traced run: layer metrics ---
    rep.push("iter_per_s", iterations as f64 / wall, "1/s");
    rep.push("iter_p99_ms", windowed_p50_p99(&series).1, "ms");
    rep.push("bench.trace_overhead_ratio", overhead, "ratio");
    rep.push(
        "place.trace_ms",
        median(&st.designs.iter().map(|d| d.place_ms).collect::<Vec<_>>()),
        "ms",
    );
    // Cross-check the engine's counters against what the clients issued
    // and observed.
    let mut seen = Observed::default();
    for c in &st.clients {
        seen += c.observed();
    }
    rep.cross_check(&seen, &st.metrics0, &st.engine.handle().metrics_snapshot());
    st.clients.clear();
    st.engine.shutdown();

    let apply_splice = probes::common(&mut rep, tr, &st.designs[0], opts.seed, budget / 4);
    push_session(&mut rep, &samples, apply_splice);
    let designs: Vec<&TracedDesign> = st.designs.iter().collect();
    stateless_serve::serve_probe(&mut rep, tr, &designs, opts.seed, budget / 2);
    train_epoch::train_probe(&mut rep, tr, &designs, budget / 4);
    rep
}

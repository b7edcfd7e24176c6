//! `train_epoch`: data-parallel `lhnn::train` epochs.
//!
//! About eight routed synthetic designs at 32×32 G-cells form one batch;
//! `threads` is the host's parallelism. This is the only workload that
//! runs the tape, the backward kernels (`spmm_t`, `matmul_tn`/`nt`) and
//! the optimizer. Routing the labels counts in `setup_s`.

use std::time::{Duration, Instant};

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::loss::joint_loss;
use lhnn::{AblationSpec, CongestionModel, GraphOps, Sample, TrainConfig};
use neurograd::Tape;
use vlsi_route::{route, CapacityConfig, RouterConfig};

use crate::design::{build_all, TracedDesign};
use crate::report::{losses_ok, Report};
use crate::stats::{median, quantile};
use crate::trace::{ms, Tracer};
use crate::{nproc, placer_trace, probes, repeat_setup, stateless_serve, synth_config, Opts};

#[derive(Debug, Clone, Copy)]
struct Sizes {
    designs: usize,
    cells: usize,
    grid: u32,
    setup_reps: usize,
}

const FULL: Sizes = Sizes { designs: 8, cells: 1200, grid: 32, setup_reps: 3 };
const SMOKE: Sizes = Sizes { designs: 2, cells: 200, grid: 10, setup_reps: 1 };

/// Routing tracks per G-cell edge, as `lhnn route` uses by default.
const TRACKS: f32 = 14.0;

/// Routes a design's placement and builds its training sample; returns
/// the sample and the routing time (ms).
fn routed_sample(d: &TracedDesign, tr: &Tracer) -> (Sample, f64) {
    let rcfg = RouterConfig {
        capacity: CapacityConfig { h_tracks: TRACKS, v_tracks: TRACKS, ..Default::default() },
        ..Default::default()
    };
    let (routed, t_route) =
        tr.time("route.design", 0, || route(&d.circuit, &d.placed, &d.grid, &d.macro_rects, &rcfg));
    let routed = routed.expect("design routes");
    let graph = LhGraph::build(&d.circuit, &d.placed, &d.grid, &LhGraphConfig::default())
        .expect("graph builds");
    let features = probes::scaled(
        &FeatureSet::build(&graph, &d.circuit, &d.placed, &d.grid).expect("same grid"),
    );
    let sample = Sample {
        name: d.name.clone(),
        graph,
        features,
        targets: Targets::from_labels(&routed.labels),
    };
    (sample, ms(t_route))
}

/// Routes every design, spread over the host's threads, in order.
fn route_all(designs: &[&TracedDesign], tr: &Tracer) -> Vec<(Sample, f64)> {
    let threads = nproc();
    let mut built: Vec<(usize, (Sample, f64))> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..designs.len())
                        .step_by(threads)
                        .map(|i| (i, routed_sample(designs[i], tr)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().expect("setup thread")).collect()
    });
    built.sort_by_key(|b| b.0);
    built.into_iter().map(|(_, r)| r).collect()
}

/// The workload's designs, placed and routed.
struct Setup {
    designs: Vec<TracedDesign>,
    samples: Vec<Sample>,
    route_ms: Vec<f64>,
}

fn setup(seed: u64, s: Sizes, tr: &Tracer) -> Setup {
    let designs = build_all(s.designs, nproc(), tr, |i| {
        synth_config(format!("train-{i}"), seed, 400 + i as u64, s.cells, s.grid)
    });
    let (samples, route_ms) =
        route_all(&designs.iter().collect::<Vec<_>>(), tr).into_iter().unzip();
    Setup { designs, samples, route_ms }
}

/// One epoch: a single `lhnn::train` call with one batch of every sample.
fn epoch(model: &mut dyn CongestionModel, samples: &[Sample], threads: usize, seed: u64) -> f32 {
    let cfg =
        TrainConfig { epochs: 1, threads, batch_size: samples.len(), seed, ..Default::default() };
    lhnn::train(model, samples, &AblationSpec::full(), &cfg).epoch_loss[0]
}

/// Runs epochs for `dur` (at least 3); returns epoch times (s) and losses.
fn epochs(
    model: &mut dyn CongestionModel,
    samples: &[Sample],
    threads: usize,
    seed: u64,
    dur: Duration,
    tr: &Tracer,
) -> (Vec<f64>, Vec<f32>) {
    let start = Instant::now();
    let (mut times, mut losses) = (Vec::new(), Vec::new());
    while times.len() < 3 || start.elapsed() < dur {
        let (loss, t) = tr.time("trainer.epoch", 0, || epoch(model, samples, threads, seed));
        times.push(t.as_secs_f64());
        losses.push(loss);
    }
    (times, losses)
}

/// Runs the workload.
pub fn run(opts: &Opts, tr: &Tracer) -> Report {
    let s = if opts.smoke { SMOKE } else { FULL };
    let mut rep = Report::default();
    tr.set_enabled(opts.trace);
    let (st, setup_s) = repeat_setup(s.setup_reps, || setup(opts.seed, s, tr));
    let samples = &st.samples;
    let threads = nproc();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut model = crate::lhnn_model();
    let (times, losses, overhead) = if opts.trace {
        // Traced and untraced epochs alternate, so drift on the host
        // cannot pass for tracing overhead.
        let (mut plain, mut traced, mut losses) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while plain.len() < 3 || start.elapsed() < budget / 2 {
            for (on, out) in [(false, &mut plain), (true, &mut traced)] {
                tr.set_enabled(on);
                let (loss, t) = tr.time("trainer.epoch", 0, || {
                    epoch(model.as_mut(), samples, threads, opts.seed)
                });
                out.push(t.as_secs_f64());
                losses.push(loss);
            }
        }
        let overhead = median(&traced) / median(&plain);
        (traced, losses, overhead)
    } else {
        let (times, losses) = epochs(model.as_mut(), samples, threads, opts.seed, budget, tr);
        (times, losses, 1.0)
    };

    // Output check: finite losses, and the first epoch is bitwise the
    // same with one trainer thread (fresh model, same seed). The compute
    // pool keeps its width: rebuilding it would start new threads, whose
    // allocator arenas would show up in `peak_rss_mb`.
    let mut fresh = crate::lhnn_model();
    let (first_1t, t_1t) =
        tr.time("trainer.epoch_1thread", 0, || epoch(fresh.as_mut(), samples, 1, opts.seed));
    rep.attempted = losses.len() as u64 + 1;
    rep.check(losses_ok(&losses, first_1t), "epoch losses finite and thread-count invariant");
    rep.note(format!(
        "train_epoch: {} designs x {} cells on {g}x{g} g-cells, one batch, {threads} threads; \
         {} epochs measured, median {:.4} s; first loss {} (1 thread: {first_1t}, {:.4} s)",
        s.designs,
        s.cells,
        times.len(),
        median(&times),
        losses[0],
        t_1t.as_secs_f64(),
        g = s.grid,
    ));

    if !opts.trace {
        // One iteration of this workload is one epoch.
        rep.push("setup_s", median(&setup_s), "s");
        rep.push("iter_p50_ms", median(&times) * 1e3, "ms");
        return rep;
    }

    // --- traced run: layer metrics ---
    rep.push("iter_per_s", median(&window_rates(&times)), "1/s");
    rep.push("iter_p99_ms", quantile(&times, 0.99) * 1e3, "ms");
    rep.push("bench.trace_overhead_ratio", overhead, "ratio");
    rep.push("route.design_ms", median(&st.route_ms), "ms");
    rep.push(
        "place.trace_ms",
        median(&st.designs.iter().map(|d| d.place_ms).collect::<Vec<_>>()),
        "ms",
    );
    trainer_layers(&mut rep, tr, model.as_ref(), samples, &times, opts.seed, budget / 4);
    let apply_splice = probes::common(&mut rep, tr, &st.designs[0], opts.seed, budget / 4);
    placer_trace::session_probe(&mut rep, tr, &st.designs[0], apply_splice);
    let designs: Vec<&TracedDesign> = st.designs.iter().take(2).collect();
    stateless_serve::serve_probe(&mut rep, tr, &designs, opts.seed, budget / 2);
    rep
}

/// Epochs per second in each third of the run (consecutive epochs).
fn window_rates(times: &[f64]) -> Vec<f64> {
    times.chunks(times.len().div_ceil(3)).map(|w| w.len() as f64 / w.iter().sum::<f64>()).collect()
}

/// The trainer and tape metrics on `samples`, given `times`, the wall
/// times (s) of epochs over them at the host's parallelism: `epoch_s`,
/// `trainer.samples_per_s`, `trainer.thread_speedup` against epochs of a
/// fresh model on a 1-thread pool, and the tape probe on `model`.
fn trainer_layers(
    rep: &mut Report,
    tr: &Tracer,
    model: &dyn CongestionModel,
    samples: &[Sample],
    times: &[f64],
    seed: u64,
    budget: Duration,
) {
    rep.push("epoch_s", median(times), "s");
    rep.push("trainer.samples_per_s", samples.len() as f64 / median(times), "1/s");
    let threads = nproc();
    let mut fresh = crate::lhnn_model();
    neurograd::pool::configure_threads(1);
    let (one, _) = epochs(fresh.as_mut(), samples, 1, seed, budget / 2, tr);
    neurograd::pool::configure_threads(threads);
    rep.push("trainer.thread_speedup", median(&one) / median(times), "ratio");
    tape_probe(rep, tr, model, samples, budget / 2);
}

/// The trainer layer on another workload's designs: each routed into a
/// training sample (`route.design_ms`), epochs over one batch of them at
/// the host's parallelism for a third of `budget` (their losses checked
/// finite), then [`trainer_layers`].
pub fn train_probe(rep: &mut Report, tr: &Tracer, designs: &[&TracedDesign], budget: Duration) {
    let (samples, route_ms): (Vec<Sample>, Vec<f64>) = route_all(designs, tr).into_iter().unzip();
    rep.push("route.design_ms", median(&route_ms), "ms");
    let mut model = crate::lhnn_model();
    let (times, losses) = epochs(model.as_mut(), &samples, nproc(), 0, budget / 3, tr);
    rep.attempted += 1;
    rep.check(losses.iter().all(|l| l.is_finite()), "probe epoch losses finite");
    trainer_layers(rep, tr, model.as_ref(), &samples, &times, 0, budget * 2 / 3);
}

/// `tape.forward_ms` / `tape.backward_ms`: per sample, the taped
/// `CongestionModel::forward` and the tape's backward pass of the joint
/// loss, on the calling thread (the trainer's per-sample step).
fn tape_probe(
    rep: &mut Report,
    tr: &Tracer,
    model: &dyn CongestionModel,
    samples: &[Sample],
    budget: Duration,
) {
    let mode = model.channel_mode();
    let cfg = TrainConfig::default();
    let prepared: Vec<_> = samples
        .iter()
        .map(|s| {
            let ops = GraphOps::from_graph(&s.graph, &AblationSpec::full());
            ops.warm_transpose_caches();
            (ops, s.targets.congestion_channels(mode), s.targets.demand_channels(mode))
        })
        .collect();
    let mut tape = Tape::new();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for i in (0..samples.len()).cycle() {
        if fwd.len() >= samples.len() && start.elapsed() >= budget {
            break;
        }
        let (ops, congestion, demand) = &prepared[i];
        tape.clear();
        let (out, t_f) =
            tr.time("tape.forward", 0, || model.forward(&mut tape, ops, &samples[i].features));
        let loss =
            joint_loss(&mut tape, out.cls_logits, out.reg, congestion, demand, cfg.gamma, true);
        let ((), t_b) = tr.time("tape.backward", 0, || tape.backward(loss));
        fwd.push(ms(t_f));
        bwd.push(ms(t_b));
    }
    rep.push("tape.forward_ms", median(&fwd), "ms");
    rep.push("tape.backward_ms", median(&bwd), "ms");
}

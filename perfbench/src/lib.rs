//! The repository benchmark: three workloads timed end to end and, in a
//! separate traced run, layer by layer — all from outside, through the
//! crates' public functions. See `README.md` in this directory.

pub mod design;
pub mod placer_trace;
pub mod probes;
pub mod report;
pub mod stateless_serve;
pub mod stats;
pub mod trace;
pub mod train_epoch;

use std::path::PathBuf;
use std::time::Instant;

use lhnn::{CongestionModel, HybridNet, HybridNetConfig, Lhnn, LhnnConfig};
use vlsi_netlist::synth::SynthConfig;

pub use report::Report;
pub use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop placer sessions replaying placement traces.
    PlacerTrace,
    /// Stateless predicts: a closed loop, and open-loop rates when traced.
    StatelessServe,
    /// Data-parallel training epochs.
    TrainEpoch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PlacerTrace, Workload::StatelessServe, Workload::TrainEpoch];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlacerTrace => "placer_trace",
            Workload::StatelessServe => "stateless_serve",
            Workload::TrainEpoch => "train_epoch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics a run with tracing off emits, with units, in
/// `BENCHMARK.json` order. Every workload emits all of them; an iteration
/// is one placer iteration (update and predict) on `placer_trace`, one
/// served predict on `stateless_serve` and one epoch on `train_epoch`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("iter_p50_ms", "ms")];

/// The per-layer metrics a traced run emits, with units, in
/// `BENCHMARK.json` order. Every workload emits all of them: a layer its
/// load does not reach is measured by a probe on the workload's own
/// designs.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("failed_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("iter_per_s", "1/s"),
    ("iter_p99_ms", "ms"),
    ("epoch_s", "s"),
    ("predict_p50_ms", "ms"),
    ("predict_p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("place.trace_ms", "ms"),
    ("route.design_ms", "ms"),
    ("lhgraph.build_ms", "ms"),
    ("lhgraph.features_ms", "ms"),
    ("lhgraph.dilate_ms", "ms"),
    ("pipeline.apply_ms.p50", "ms"),
    ("pipeline.apply_ms.p99", "ms"),
    ("pipeline.dirty_gcells", "count"),
    ("pipeline.dirty_gnets", "count"),
    ("pipeline.incremental_ratio", "ratio"),
    ("pipeline.crossings_patched", "count"),
    ("pipeline.full_rebuilds", "count"),
    ("incremental.splice_ms", "ms"),
    ("incremental.full_ms", "ms"),
    ("incremental.halo_gcell_ratio", "ratio"),
    ("incremental.spliced_ratio", "ratio"),
    ("incremental.splice_vs_full", "ratio"),
    ("model.forward_ms.lhnn", "ms"),
    ("model.forward_ms.hybridnet", "ms"),
    ("neurograd.matmul_gflops", "GFLOP/s"),
    ("neurograd.spmm_gbps", "GB/s"),
    ("neurograd.spmm_t_gbps", "GB/s"),
    ("neurograd.pool_speedup", "ratio"),
    ("session.update_ms.p50", "ms"),
    ("session.update_ms.p99", "ms"),
    ("session.predict_ms.p50", "ms"),
    ("session.predict_ms.p99", "ms"),
    ("session.overhead_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.batched_job_ratio", "ratio"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.burst_batched_vs_serial", "ratio"),
    ("obs.session_updates_gap", "count"),
    ("obs.requests_gap", "count"),
    ("obs.cache_hits_gap", "count"),
    ("obs.computed_gap", "count"),
    ("tape.forward_ms", "ms"),
    ("tape.backward_ms", "ms"),
    ("trainer.samples_per_s", "1/s"),
    ("trainer.thread_speedup", "ratio"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken inputs for the benchmark's own smoke tests.
    pub smoke: bool,
    /// Where a traced run writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// Generator threads: the host's parallelism (the compute pool's default
/// width, which the engine and trainer also use).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The served LHNN (fixed weights; only the inputs depend on the seed).
pub fn lhnn_model() -> Box<dyn CongestionModel> {
    Box::new(Lhnn::new(LhnnConfig::default(), 0))
}

/// The served HybridNet (fixed weights).
pub fn hybrid_model() -> Box<dyn CongestionModel> {
    Box::new(HybridNet::new(HybridNetConfig::default(), 1))
}

/// A synthetic design of `cells` cells on `grid`×`grid` G-cells; its
/// generator seed comes from the workload seed and a per-design stream.
pub fn synth_config(name: String, seed: u64, stream: u64, cells: usize, grid: u32) -> SynthConfig {
    SynthConfig {
        name,
        seed: stats::Rng::new(seed, stream).next_u64(),
        n_cells: cells,
        grid_nx: grid,
        grid_ny: grid,
        ..SynthConfig::default()
    }
}

/// Runs `setup` `reps` times (at least once), dropping each result
/// before the next starts; returns the last result and every set-up's
/// wall time in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (mut last, mut secs) = (None, Vec::new());
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Runs one workload and returns its report: end-to-end metrics with
/// tracing off, per-layer metrics with tracing on.
pub fn run(opts: &Opts) -> Report {
    let tr = Tracer::new(opts.trace);
    let steal0 = report::cpu_steal_ticks();
    let mut rep = match opts.workload {
        Workload::PlacerTrace => placer_trace::run(opts, &tr),
        Workload::StatelessServe => stateless_serve::run(opts, &tr),
        Workload::TrainEpoch => train_epoch::run(opts, &tr),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, report::cpu_steal_ticks()) {
        rep.note(format!(
            "host cpu steal during the run: {:.1} % (time the hypervisor gave other guests)",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    if opts.trace {
        for (name, gap) in report::GAP_METRICS.into_iter().zip(rep.gaps) {
            rep.push(name, gap, "count");
        }
        rep.push("failed_ratio", rep.failed as f64 / rep.attempted.max(1) as f64, "ratio");
        for (name, count, total, own) in tr.summary() {
            rep.note(format!(
                "span {name:<26} {count:>7} x  total {total:>10.2} ms  self {own:>10.2} ms"
            ));
        }
        if let Some(path) = &opts.spans_out {
            match tr.write_jsonl(path) {
                Ok(()) => rep.note(format!("wrote {} spans to {}", tr.len(), path.display())),
                Err(e) => rep.note(format!("could not write spans to {}: {e}", path.display())),
            }
        }
    } else {
        rep.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    rep
}

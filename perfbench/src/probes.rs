//! Layer probes shared by every workload: the direct replay of a placer
//! trace through the pipeline, halo dilation and splice, the model
//! forwards, the `neurograd` kernels on the workload's own operators, and
//! the LH-graph build. Each call is timed from outside through
//! [`Tracer::time`].

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lh_graph::{halo, FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{
    CongestionModel, ForwardDirty, GraphOps, IncrementalForward, InvalidationCause,
    LatticePipeline, PipelineUpdate, SpliceOutcome,
};
use neurograd::{CsrMatrix, Matrix};
use vlsi_netlist::{Circuit, GcellGrid, Placement, PlacementDelta};

use crate::design::TracedDesign;
use crate::report::{same_prediction, Report};
use crate::stats::{mean, median, quantile, Rng};
use crate::trace::{ms, Tracer};

/// The probes every workload runs on its first design: the direct replay
/// (`pipeline.*`, `incremental.*`, `lhgraph.dilate_ms`), then, at the end
/// of the design's trace, both models' forwards, the kernels and the
/// LH-graph build, in `budget` together. Returns the replay's p50 apply
/// and splice times.
pub fn common(
    rep: &mut Report,
    tr: &Tracer,
    d: &TracedDesign,
    seed: u64,
    budget: Duration,
) -> (f64, f64) {
    let lhnn = crate::lhnn_model();
    let hybrid = crate::hybrid_model();
    let apply_splice = replay(rep, tr, d, lhnn.as_ref());
    let mut pipe =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())
            .expect("pipeline builds");
    for delta in d.trace() {
        pipe.apply(delta).expect("trace applies");
    }
    let ops = pipe.ops();
    let feats = scaled(&pipe.features());
    let slice = budget / 3;
    model_forward(rep, tr, &[lhnn.as_ref(), hybrid.as_ref()], &ops, &feats, slice);
    kernels(rep, tr, &ops, seed, slice);
    lhgraph_build(rep, tr, &d.circuit, pipe.placement(), &d.grid, slice);
    apply_splice
}

/// Hidden width of the kernel probes (the models' default).
const HIDDEN: usize = 32;

/// Repeats `f` until `budget` is spent (at least `min` times) and returns
/// each call's time in ms.
fn repeat_ms(
    tr: &Tracer,
    name: &'static str,
    budget: Duration,
    min: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        let ((), d) = tr.time(name, 0, &mut f);
        out.push(ms(d));
    }
    out
}

/// `model.forward_ms.<kind>`: the fused forward of both architectures at
/// the workload's design size.
pub fn model_forward(
    rep: &mut Report,
    tr: &Tracer,
    models: &[&dyn CongestionModel],
    ops: &GraphOps,
    feats: &FeatureSet,
    budget: Duration,
) {
    for model in models {
        let mut scratch = model.new_scratch();
        black_box(model.predict_with(ops, feats, scratch.as_mut()));
        let t = repeat_ms(tr, "model.forward", budget / models.len() as u32, 5, || {
            black_box(model.predict_with(ops, feats, scratch.as_mut()));
        });
        rep.push(format!("model.forward_ms.{}", model.kind()), median(&t), "ms");
    }
}

/// A deterministic dense matrix.
fn filled(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// Bytes a CSR × dense product moves, computed from its shape: row
/// pointers and column indices (8 bytes each), values (4), one gathered
/// input row per nonzero and one written output row per matrix row.
fn spmm_bytes(rows: usize, nnz: usize, width: usize) -> f64 {
    ((rows + 1) * 8 + nnz * 12 + nnz * width * 4 + rows * width * 4) as f64
}

/// The `neurograd.*` probes: `Matrix::matmul` at the dense-layer shape
/// (`n_c × 32` by `32 × 32`) and `CsrMatrix::spmm`/`spmm_t` of the
/// workload's `D⁻¹H` operator against width-32 inputs, at the full pool
/// width and at one thread. GFLOP/s and GB/s are computed from shapes and
/// nnz, not measured by counters.
pub fn kernels(rep: &mut Report, tr: &Tracer, ops: &GraphOps, seed: u64, budget: Duration) {
    let mut rng = Rng::new(seed, 77);
    let op = &ops.gnc_mean;
    let (n_c, n_n, nnz) = (op.rows(), op.cols(), op.nnz());
    let a = filled(n_c, HIDDEN, &mut rng);
    let w = filled(HIDDEN, HIDDEN, &mut rng);
    let x = filled(n_n, HIDDEN, &mut rng);
    let y = filled(n_c, HIDDEN, &mut rng);
    black_box(op.transpose_cached());
    let wide = neurograd::pool::current_threads();
    let slice = budget / 6;
    let run = || {
        let mm = median(&repeat_ms(tr, "neurograd.matmul", slice, 5, || {
            black_box(a.matmul(&w));
        }));
        let sp = median(&repeat_ms(tr, "neurograd.spmm", slice, 5, || {
            black_box(op.spmm(&x));
        }));
        let spt = median(&repeat_ms(tr, "neurograd.spmm_t", slice, 5, || {
            black_box(op.spmm_t(&y));
        }));
        (mm, sp, spt)
    };
    let (mm, sp, spt) = run();
    neurograd::pool::configure_threads(1);
    let (mm1, sp1, spt1) = run();
    neurograd::pool::configure_threads(wide);
    rep.push(
        "neurograd.matmul_gflops",
        2.0 * (n_c * HIDDEN * HIDDEN) as f64 / (mm * 1e6),
        "GFLOP/s",
    );
    rep.push("neurograd.spmm_gbps", spmm_bytes(n_c, nnz, HIDDEN) / (sp * 1e6), "GB/s");
    rep.push("neurograd.spmm_t_gbps", spmm_bytes(n_n, nnz, HIDDEN) / (spt * 1e6), "GB/s");
    rep.push("neurograd.pool_speedup", (mm1 + sp1 + spt1) / (mm + sp + spt), "ratio");
    rep.note(format!(
        "neurograd probes ({wide} threads; rates computed from shapes and nnz): matmul \
         {n_c}x{HIDDEN}x{HIDDEN} {mm:.4} ms; spmm {n_c}x{n_n} nnz {nnz} {sp:.4} ms; spmm_t \
         {spt:.4} ms; at 1 thread {mm1:.4} / {sp1:.4} / {spt1:.4} ms"
    ));
}

/// `lhgraph.build_ms` and `lhgraph.features_ms`: `LhGraph::build` and
/// `FeatureSet::build` on one of the workload's placed designs.
pub fn lhgraph_build(
    rep: &mut Report,
    tr: &Tracer,
    circuit: &Circuit,
    placement: &Placement,
    grid: &GcellGrid,
    budget: Duration,
) {
    let cfg = LhGraphConfig::default();
    let graph = LhGraph::build(circuit, placement, grid, &cfg).expect("workload design builds");
    let build = repeat_ms(tr, "lhgraph.build", budget / 2, 3, || {
        black_box(LhGraph::build(circuit, placement, grid, &cfg).expect("workload design builds"));
    });
    let features = repeat_ms(tr, "lhgraph.features", budget / 2, 3, || {
        black_box(FeatureSet::build(&graph, circuit, placement, grid).expect("same grid"));
    });
    rep.push("lhgraph.build_ms", median(&build), "ms");
    rep.push("lhgraph.features_ms", median(&features), "ms");
}

/// Features scaled the way a session scales them.
pub fn scaled(f: &FeatureSet) -> FeatureSet {
    let (gd, nd) = FeatureSet::default_divisors();
    f.scaled_fixed(&gd, &nd)
}

/// The halo a splice over dirty rows reaches, hop by hop in the order
/// LHNN's forward takes them (`lh_graph::halo::dilate` over each
/// operator's transpose): the FeatureGen `H` hop, two HyperMP rounds
/// (G-cell → G-net → G-cell) and three LatticeMP hops. Returns the halo's
/// row count.
fn dilate_halo(t: &[CsrMatrix; 4], gcells: &[usize], gnets: &[usize]) -> usize {
    let [gnc_sum, gcn_mean, gnc_mean, lattice] = t;
    let mut n = gnets.to_vec();
    let mut c = halo::union_sorted(gcells, &halo::dilate(gnc_sum, &n));
    for _ in 0..2 {
        n = halo::union_sorted(&n, &halo::dilate(gcn_mean, &c));
        c = halo::union_sorted(&c, &halo::dilate(gnc_mean, &n));
    }
    for _ in 0..3 {
        c = halo::union_sorted(&c, &halo::dilate(lattice, &c));
    }
    c.len() + n.len()
}

/// Explicit transposes of a snapshot's operators, built outside the timed
/// dilation. They are copies: the served operators' own transpose caches
/// stay cold, as they are when a session hands them to the splice.
fn transposes(ops: &GraphOps) -> [CsrMatrix; 4] {
    [&ops.gnc_sum, &ops.gcn_mean, &ops.gnc_mean, &ops.lattice_mean].map(|m| m.transpose())
}

/// Samples of the direct replay probe.
#[derive(Default)]
struct Replay {
    apply: Vec<f64>,
    dilate: Vec<f64>,
    splice: Vec<f64>,
    full: Vec<f64>,
    dirty_gcells: Vec<f64>,
    dirty_gnets: Vec<f64>,
    halo_ratio: Vec<f64>,
    steps: usize,
    incremental: usize,
    spliced: usize,
    mismatches: usize,
}

/// Direct replay of one design's cycle through `LatticePipeline::apply`,
/// `halo::dilate` and `IncrementalForward::predict`, with the full fused
/// forward on the same state as the splice's base. The first forward pass
/// is untimed warm-up; then one whole cycle (the reverse half, then the
/// forward half) is timed. Returns the p50 apply and splice times.
fn replay(
    rep: &mut Report,
    tr: &Tracer,
    d: &TracedDesign,
    model: &dyn CongestionModel,
) -> (f64, f64) {
    let mut pipe =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())
            .expect("pipeline builds");
    let incr = IncrementalForward::new();
    let version = model.weights_fingerprint();
    let mut scratch = model.new_scratch();
    let n_c = d.grid.num_gcells() as f64;
    let mut r = Replay::default();
    let mut step = |pipe: &mut LatticePipeline, delta: &PlacementDelta, r: Option<&mut Replay>| {
        let (update, t_apply) = tr.time("pipeline.apply", 0, || pipe.apply(delta));
        let mut t_dilate = None;
        let (mut n_dc, mut n_dn) = (0, 0);
        match update.expect("trace applies") {
            PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                let t_ops = transposes(&pipe.ops());
                let ((), t) = tr.time("lhgraph.dilate", 0, || {
                    std::hint::black_box(dilate_halo(&t_ops, &dirty_gcells, &dirty_nets));
                });
                (t_dilate, n_dc, n_dn) = (Some(t), dirty_gcells.len(), dirty_nets.len());
                incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
            }
            PipelineUpdate::FullRebuild { .. } => {
                incr.note_structural(InvalidationCause::Compaction)
            }
            PipelineUpdate::Noop => {}
        }
        let ops = pipe.ops();
        let feats = scaled(&pipe.features());
        let ((pred, outcome), t_splice) = tr.time("incremental.predict", 0, || {
            incr.predict(model, version, &ops, &feats, incr.seq())
        });
        let (reference, t_full) =
            tr.time("model.forward", 0, || model.predict_with(&ops, &feats, scratch.as_mut()));
        let Some(r) = r else { return };
        r.steps += 1;
        r.apply.push(ms(t_apply));
        r.splice.push(ms(t_splice));
        r.full.push(ms(t_full));
        if let Some(t) = t_dilate {
            r.incremental += 1;
            r.dilate.push(ms(t));
            r.dirty_gcells.push(n_dc as f64);
            r.dirty_gnets.push(n_dn as f64);
        }
        if let SpliceOutcome::Spliced { gcell_rows, .. } = outcome {
            r.spliced += 1;
            r.halo_ratio.push(gcell_rows as f64 / n_c);
        }
        r.mismatches += usize::from(!same_prediction(&pred, &reference));
    };
    for delta in d.trace() {
        step(&mut pipe, delta, None);
    }
    let crossings0 = pipe.stats().crossings_patched;
    let rebuilds0 = pipe.stats().full_rebuilds;
    for delta in d.steps[d.forward_len..].iter().chain(d.trace()) {
        step(&mut pipe, delta, Some(&mut r));
    }
    rep.attempted += r.steps as u64;
    rep.failed += r.mismatches as u64;
    if r.mismatches > 0 {
        rep.note(format!("CHECK FAILED: {} spliced forwards != full forward", r.mismatches));
    }
    let crossings = pipe.stats().crossings_patched - crossings0;
    let (apply_p50, splice_p50, full_p50) = (median(&r.apply), median(&r.splice), median(&r.full));
    rep.push("pipeline.apply_ms.p50", apply_p50, "ms");
    rep.push("pipeline.apply_ms.p99", quantile(&r.apply, 0.99), "ms");
    rep.push("pipeline.dirty_gcells", mean(&r.dirty_gcells), "count");
    rep.push("pipeline.dirty_gnets", mean(&r.dirty_gnets), "count");
    rep.push("pipeline.incremental_ratio", r.incremental as f64 / r.steps as f64, "ratio");
    rep.push("pipeline.crossings_patched", crossings as f64 / 2.0, "count");
    rep.push("pipeline.full_rebuilds", (pipe.stats().full_rebuilds - rebuilds0) as f64, "count");
    rep.push("lhgraph.dilate_ms", median(&r.dilate), "ms");
    rep.push("incremental.splice_ms", splice_p50, "ms");
    rep.push("incremental.full_ms", full_p50, "ms");
    rep.push("incremental.splice_vs_full", splice_p50 / full_p50, "ratio");
    rep.push("incremental.halo_gcell_ratio", mean(&r.halo_ratio), "ratio");
    rep.push("incremental.spliced_ratio", r.spliced as f64 / r.steps as f64, "ratio");
    rep.note(format!(
        "replay probe: {} timed deltas (one cycle); splice p50 {splice_p50:.3} ms \
         (base: full forward p50 {full_p50:.3} ms on the same states); {crossings} crossings patched",
        r.steps
    ));
    (apply_p50, splice_p50)
}

//! The bounded-radius incremental forward (ROADMAP item 1).
//!
//! [`crate::LatticePipeline`] made graph/feature updates O(dirty rows),
//! but a [`crate::Lhnn`] forward still recomputed every G-cell. The LHNN
//! architecture has a *fixed receptive field*: information travels one
//! hop per sparse aggregation — one `H` hop in FeatureGen, two hops
//! (`B⁻¹Hᵀ` then `D⁻¹H`) per HyperMP block and one `P⁻¹A` hop per
//! LatticeMP block — so a change confined to a dirty set of G-cells and
//! G-nets can only influence rows inside a ≤5-hop halo of that set (with
//! the default 2 HyperMP + 3 LatticeMP stack).
//!
//! [`IncrementalForward`] exploits this: it caches every intermediate
//! activation of the last forward, dilates the pipeline's dirty sets
//! through the operators' sparsity patterns layer by layer
//! ([`lh_graph::halo`]), recomputes only halo rows with the masked
//! row-subset kernels in [`neurograd::kernels`], and splices the result
//! into the cached state.
//!
//! # Bitwise guarantee
//!
//! Every kernel involved computes each output row as an independent,
//! fixed sequence of float operations, so recomputing any superset of the
//! truly-changed rows yields a state **bitwise identical** to a full
//! forward — at any thread count (proptest-enforced in
//! `tests/incremental_forward.rs`).
//!
//! Each hop grows the halo with [`lh_graph::halo::grow`]: it flags the
//! dirty input rows and sweeps the aggregating operator's own rows once,
//! keeping every output row that is already dirty or reads a flagged row.
//! Row `r` of `S` reads row `c` exactly when `Sᵀ` lists `r` in row `c`,
//! so this is the same set a dilation through the transpose yields — but
//! it needs no transpose, which matters because every placement delta
//! patches `gnc_sum`/`gnc_mean`/`gcn_mean` into fresh matrices whose
//! transpose caches start empty. It reads the operator the aggregation
//! actually uses rather than a structurally "dual" sibling, because
//! ablated/sampled operator sets replace matrices asymmetrically.
//!
//! # Invalidation protocol
//!
//! * [`IncrementalForward::note_incremental`] accumulates dirty sets from
//!   `PipelineUpdate::Incremental` outcomes — since stable G-net columns,
//!   that includes size-filter crossings (tombstoned/revived/appended
//!   columns ride the dirty sets; appends grow the cached G-net tensors
//!   in place instead of dropping them).
//! * [`IncrementalForward::note_structural`] (full rebuilds, failed
//!   rebuilds, panics) drops the activation cache completely: columns may
//!   have renumbered, so no splice can be trusted. Each note carries an
//!   [`InvalidationCause`] so stats can split cache drops by origin —
//!   with stable columns, compaction should be the dominant cause.
//! * Each note bumps a sequence number. Callers snapshot the sequence
//!   together with their `(ops, features)` inputs; dirt noted *after* the
//!   snapshot is kept pending across the forward, so a delta applied
//!   while a forward is in flight is never lost.
//!
//! A forward that observes unknown provenance (no cached state, a
//! structural note, a weights hot-swap, or dimension changes) falls back
//! to a full refresh through the same row-subset kernels — which is
//! itself bitwise identical to the tape forward in [`crate::Lhnn`].

use std::sync::Mutex;
use std::time::Instant;

use lh_graph::halo::{self, union_sorted};
use lh_graph::FeatureSet;
use lhnn_obs::{Counter, Histogram, Registry};
use neurograd::{kernels, stable_sigmoid, Matrix};

use crate::congestion::CongestionModel;
use crate::model::{LatticeMpBlock, Lhnn, Prediction};
use crate::ops::GraphOps;

/// The per-model activation cache behind [`IncrementalForward`]: every
/// intermediate tensor of the last forward, full-size, plus masked
/// row-subset refresh paths over them.
///
/// Implementations are produced by their own architecture's
/// [`CongestionModel::new_activation_cache`] and are only ever refreshed
/// by a model whose `kind()` and `weights_fingerprint()` match the cache
/// (the [`IncrementalForward`] paths guard this), so they may downcast
/// the model they are handed.
///
/// Invariant every implementation must keep: after each refresh (full or
/// spliced), every cached tensor equals its full-forward value at
/// **every** row — refreshes recompute a superset of the truly-dirty
/// rows and leave the rest untouched, and each output row is an
/// independent fixed float sequence, so splices stay bitwise identical
/// to full forwards.
pub trait ActivationCache: Send {
    /// The owning architecture's kind tag (matches
    /// [`CongestionModel::kind`]).
    fn kind(&self) -> &'static str;

    /// The weights fingerprint this cache was refreshed under.
    fn weights_version(&self) -> u64;

    /// `(ops fingerprint, features fingerprint)` of the cached forward.
    fn fingerprints(&self) -> (u64, u64);

    /// Stamps the input fingerprints after a successful refresh.
    fn set_fingerprints(&mut self, ops_fp: u64, features_fp: u64);

    /// Cached G-cell row count.
    fn n_c(&self) -> usize;

    /// Cached G-net row count.
    fn n_n(&self) -> usize;

    /// The cached prediction (clones the output tensors).
    fn cached_prediction(&self) -> Prediction;

    /// Widens every G-net-dimensioned tensor to `n_n` rows in place
    /// (stable columns only ever append at the end, so existing rows
    /// keep their cached values row-for-row; new rows are zeroed and
    /// must be unioned into the dirty set by the caller).
    fn grow_gnet_rows(&mut self, n_n: usize);

    /// Recomputes every row through the masked row-subset kernels.
    fn refresh_full(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
        timer: &mut DilateTimer,
    );

    /// Recomputes the dirty rows, dilating them through each
    /// aggregation's receptive field, and splices the result into the
    /// cached state. Returns the final `(gcell, gnet)` halo sizes.
    fn refresh_splice(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
        dirty_gcells: Vec<usize>,
        dirty_gnets: Vec<usize>,
        timer: &mut DilateTimer,
    ) -> (usize, usize);
}

/// Sorted, duplicate-free dirty index sets accumulated from one or more
/// incremental pipeline updates: the G-cell rows and G-net rows whose
/// features or operator rows may have changed since the last forward.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardDirty {
    gcells: Vec<usize>,
    gnets: Vec<usize>,
}

impl ForwardDirty {
    /// Canonicalises (sorts, dedups) arbitrary index lists.
    pub fn new(gcells: Vec<usize>, gnets: Vec<usize>) -> Self {
        Self { gcells: halo::canonicalize(gcells), gnets: halo::canonicalize(gnets) }
    }

    /// Dirty G-cell rows (sorted, unique).
    pub fn gcells(&self) -> &[usize] {
        &self.gcells
    }

    /// Dirty G-net rows (sorted, unique).
    pub fn gnets(&self) -> &[usize] {
        &self.gnets
    }

    /// Whether nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.gcells.is_empty() && self.gnets.is_empty()
    }

    /// Unions another dirty set into this one.
    pub fn merge(&mut self, other: &ForwardDirty) {
        self.gcells = union_sorted(&self.gcells, &other.gcells);
        self.gnets = union_sorted(&self.gnets, &other.gnets);
    }
}

/// Which path [`IncrementalForward::predict`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceOutcome {
    /// Input fingerprints matched the cached state: the cached prediction
    /// was returned without recomputing anything.
    Reused,
    /// Halo rows were recomputed and spliced into the cached state.
    Spliced {
        /// G-cell rows recomputed (the final ≤5-hop halo).
        gcell_rows: usize,
        /// G-net rows recomputed.
        gnet_rows: usize,
    },
    /// Full refresh: every row recomputed (first forward, structural
    /// invalidation, weights swap or dimension change).
    Full,
}

/// Why a structural note dropped the activation cache. With stable G-net
/// columns, filter crossings no longer invalidate (they splice), so the
/// expected steady-state mix is compaction-dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationCause {
    /// A size-filter crossing the tombstone path could not absorb
    /// (`RebuildCause::NoLiveColumns` — expected zero on real designs).
    FilterCrossing,
    /// Lazy compaction renumbered the G-net column space.
    Compaction,
    /// The G-cell or G-net dimension changed outside the append protocol
    /// (e.g. a different grid or design was swapped in).
    DimChange,
    /// The pipeline recovered from a previously failed rebuild, or a
    /// panic mid-apply left provenance unknown.
    Poisoned,
}

impl From<&crate::pipeline::RebuildCause> for InvalidationCause {
    fn from(cause: &crate::pipeline::RebuildCause) -> Self {
        use crate::pipeline::RebuildCause;
        match cause {
            RebuildCause::Compaction { .. } => InvalidationCause::Compaction,
            RebuildCause::NoLiveColumns => InvalidationCause::FilterCrossing,
            RebuildCause::PoisonedRecovery => InvalidationCause::Poisoned,
        }
    }
}

/// Lifetime counters of an [`IncrementalForward`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Forwards that recomputed every row.
    pub full_forwards: u64,
    /// Forwards served by halo splicing.
    pub spliced_forwards: u64,
    /// Forwards answered from the cached prediction (fingerprint match).
    pub reused: u64,
    /// Structural notes that dropped the activation cache (all causes).
    pub invalidations: u64,
    /// Cache drops from unpatchable filter crossings
    /// ([`InvalidationCause::FilterCrossing`]).
    pub invalidations_filter_crossing: u64,
    /// Cache drops from lazy compaction
    /// ([`InvalidationCause::Compaction`]).
    pub invalidations_compaction: u64,
    /// Cache drops from dimension changes
    /// ([`InvalidationCause::DimChange`]).
    pub invalidations_dim_change: u64,
    /// Cache drops from poisoned-pipeline recovery
    /// ([`InvalidationCause::Poisoned`]).
    pub invalidations_poisoned: u64,
}

/// Metric handles for one design's incremental forward (resolved once in
/// [`IncrementalForward::with_metrics`]; absent on the plain constructor,
/// which keeps the hot path free of even relaxed loads).
///
/// The stage split follows the predict span hierarchy: `dilate` is the
/// time spent growing dirty sets through operator transposes, `forward`
/// the masked row-subset recompute (total refresh minus dilation), and
/// `splice` the assembly of the served prediction from the cached state.
struct IncrObs {
    dilate: Histogram,
    forward: Histogram,
    splice: Histogram,
    halo_gcells: Histogram,
    halo_gnets: Histogram,
    full: Counter,
    spliced: Counter,
    reused: Counter,
    invalidations: Counter,
    design_full: Counter,
    design_spliced: Counter,
    design_reused: Counter,
    design_invalidations: Counter,
}

impl IncrObs {
    fn new(registry: &Registry, design: &str, model_kind: &str) -> Self {
        let d = &[("design", design), ("model", model_kind)][..];
        Self {
            dilate: registry.stage("dilate"),
            forward: registry.stage("forward"),
            splice: registry.stage("splice"),
            halo_gcells: registry.histogram("lhnn_halo_gcells"),
            halo_gnets: registry.histogram("lhnn_halo_gnets"),
            full: registry.counter("lhnn_full_forwards_total"),
            spliced: registry.counter("lhnn_spliced_forwards_total"),
            reused: registry.counter("lhnn_reused_predictions_total"),
            invalidations: registry.counter("lhnn_invalidations_total"),
            design_full: registry.counter_with("lhnn_design_full_forwards_total", d),
            design_spliced: registry.counter_with("lhnn_design_spliced_forwards_total", d),
            design_reused: registry.counter_with("lhnn_design_reused_total", d),
            design_invalidations: registry.counter_with("lhnn_design_invalidations_total", d),
        }
    }
}

/// Accumulates nanoseconds spent in the dilation sites of one refresh.
/// Timing-only: wraps each site in a clock read when armed and is a plain
/// passthrough when not, so the float work is identical either way.
/// Handed to [`ActivationCache`] refreshes so per-model splice code can
/// attribute its dilation time without owning any metric handles.
#[derive(Debug)]
pub struct DilateTimer {
    armed: bool,
    ns: u128,
}

impl DilateTimer {
    pub(crate) fn new(armed: bool) -> Self {
        Self { armed, ns: 0 }
    }

    /// Runs `f`, attributing its wall time to halo dilation when armed.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.armed {
            let t0 = Instant::now();
            let out = f();
            self.ns += t0.elapsed().as_nanos();
            out
        } else {
            f()
        }
    }

    fn us(&self) -> u64 {
        u64::try_from(self.ns / 1_000).unwrap_or(u64::MAX)
    }
}

/// Per-HyperMP-block cached activations (one tensor per forward step).
struct HyperActs {
    hc: Matrix,
    msg_n: Matrix,
    cat_n: Matrix,
    fused_n: Matrix,
    prev_n: Matrix,
    v_n: Matrix,
    hn: Matrix,
    msg_c: Matrix,
    cat_c: Matrix,
    fused_c: Matrix,
    prev_c: Matrix,
    v_c: Matrix,
}

/// Per-LatticeMP-block cached activations.
struct LatticeActs {
    h: Matrix,
    msg: Matrix,
    lin_out: Matrix,
    v_c: Matrix,
}

/// Every intermediate tensor of one LHNN forward, cached full-size.
///
/// Invariant: after each refresh (full or spliced), every tensor equals
/// its full-forward value at **every** row — refreshes recompute a
/// superset of the truly-dirty rows and leave the rest untouched. The
/// `sc_*`/`sy_*` matrices are ResBlock-internal scratch, wholly written
/// and read at identical row lists within one block call, so they carry
/// no cross-forward state.
pub(crate) struct ActivationState {
    weights_version: u64,
    ops_fp: u64,
    features_fp: u64,
    n_c: usize,
    n_n: usize,
    hidden: usize,
    // FeatureGen
    fc: Matrix,
    fn_: Matrix,
    agg: Matrix,
    cat: Matrix,
    v_c1: Matrix,
    v_n1: Matrix,
    hyper: Vec<HyperActs>,
    /// Encode layers followed by joint layers.
    lattice: Vec<LatticeActs>,
    cls_logits: Matrix,
    cls_prob: Matrix,
    reg: Matrix,
    // ResBlock scratch
    sc_c: Matrix,
    sy_c: Matrix,
    sc_n: Matrix,
    sy_n: Matrix,
    // Full row lists for the refresh path (kept allocated).
    all_c: Vec<usize>,
    all_n: Vec<usize>,
}

impl ActivationState {
    pub(crate) fn new(model: &Lhnn, weights_version: u64, n_c: usize, n_n: usize) -> Self {
        let h = model.cfg.hidden;
        let ch = model.cfg.channel_mode.channels();
        let zc = || Matrix::zeros(n_c, h);
        let zn = || Matrix::zeros(n_n, h);
        Self {
            weights_version,
            ops_fp: 0,
            features_fp: 0,
            n_c,
            n_n,
            hidden: h,
            fc: zc(),
            fn_: zn(),
            agg: zc(),
            cat: Matrix::zeros(n_c, 2 * h),
            v_c1: zc(),
            v_n1: zn(),
            hyper: (0..model.hypermp.len())
                .map(|_| HyperActs {
                    hc: zc(),
                    msg_n: zn(),
                    cat_n: Matrix::zeros(n_n, 2 * h),
                    fused_n: zn(),
                    prev_n: zn(),
                    v_n: zn(),
                    hn: zn(),
                    msg_c: zc(),
                    cat_c: Matrix::zeros(n_c, 2 * h),
                    fused_c: zc(),
                    prev_c: zc(),
                    v_c: zc(),
                })
                .collect(),
            lattice: (0..model.lattice_encode.len() + model.lattice_joint.len())
                .map(|_| LatticeActs { h: zc(), msg: zc(), lin_out: zc(), v_c: zc() })
                .collect(),
            cls_logits: Matrix::zeros(n_c, ch),
            cls_prob: Matrix::zeros(n_c, ch),
            reg: Matrix::zeros(n_c, ch),
            sc_c: zc(),
            sy_c: zc(),
            sc_n: zn(),
            sy_n: zn(),
            all_c: (0..n_c).collect(),
            all_n: (0..n_n).collect(),
        }
    }
}

/// Recomputes the forward over the given row lists, growing them through
/// each aggregation's receptive field when `grow` is set (the splice
/// path). With `grow` unset and full row lists this is a full refresh.
/// Returns the final (possibly grown) row lists.
fn refresh(
    st: &mut ActivationState,
    model: &Lhnn,
    ops: &GraphOps,
    features: &FeatureSet,
    mut dc: Vec<usize>,
    mut dn: Vec<usize>,
    grow: bool,
    dilate_t: &mut DilateTimer,
) -> (Vec<usize>, Vec<usize>) {
    let h = model.cfg.hidden;
    let ch = model.cfg.channel_mode.channels();
    let store = &model.store;
    let ActivationState {
        fc,
        fn_,
        agg,
        cat,
        v_c1,
        v_n1,
        hyper,
        lattice,
        cls_logits,
        cls_prob,
        reg,
        sc_c,
        sy_c,
        sc_n,
        sy_n,
        ..
    } = st;

    // ---- FeatureGen (Eq. 1–2): one H hop from G-nets onto G-cells ----
    if grow {
        dc = dilate_t.time(|| halo::grow(&ops.gnc_sum, &dn, &dc));
    }
    model.featuregen.f_n.forward_rows_into(store, &features.gnet, &dn, sc_n, sy_n, fn_);
    model.featuregen.f_c.forward_rows_into(store, &features.gcell, &dc, sc_c, sy_c, fc);
    kernels::spmm_rows_into(&ops.gnc_sum, fn_, &dc, agg.as_mut_slice());
    kernels::concat_rows_into(fc, agg, &dc, cat.as_mut_slice());
    model.featuregen.phi_c.forward_rows_into(store, cat, &dc, v_c1);
    model.featuregen.phi_n.forward_rows_into(store, fn_, &dn, v_n1);

    // ---- HyperMP: a B⁻¹Hᵀ hop then a D⁻¹H hop per block ----
    for (i, block) in model.hypermp.iter().enumerate() {
        let (done, rest) = hyper.split_at_mut(i);
        let la = &mut rest[0];
        let (pc, pn): (&Matrix, &Matrix) =
            if i == 0 { (v_c1, v_n1) } else { (&done[i - 1].v_c, &done[i - 1].v_n) };
        block.res_c_in.forward_rows_into(store, pc, &dc, sc_c, sy_c, &mut la.hc);
        if grow {
            dn = dilate_t.time(|| halo::grow(&ops.gcn_mean, &dc, &dn));
        }
        kernels::spmm_rows_into(&ops.gcn_mean, &la.hc, &dn, la.msg_n.as_mut_slice());
        kernels::concat_rows_into(&la.msg_n, v_n1, &dn, la.cat_n.as_mut_slice());
        block.fuse_n.forward_rows_into(store, &la.cat_n, &dn, &mut la.fused_n);
        block.res_n_prev.forward_rows_into(store, pn, &dn, sc_n, sy_n, &mut la.prev_n);
        kernels::zip_rows_into(
            la.fused_n.as_slice(),
            la.prev_n.as_slice(),
            &dn,
            h,
            la.v_n.as_mut_slice(),
            |x, y| x + y,
        );
        block.res_n_in.forward_rows_into(store, &la.v_n, &dn, sc_n, sy_n, &mut la.hn);
        if grow {
            dc = dilate_t.time(|| halo::grow(&ops.gnc_mean, &dn, &dc));
        }
        kernels::spmm_rows_into(&ops.gnc_mean, &la.hn, &dc, la.msg_c.as_mut_slice());
        kernels::concat_rows_into(&la.msg_c, v_c1, &dc, la.cat_c.as_mut_slice());
        block.fuse_c.forward_rows_into(store, &la.cat_c, &dc, &mut la.fused_c);
        block.res_c_prev.forward_rows_into(store, pc, &dc, sc_c, sy_c, &mut la.prev_c);
        kernels::zip_rows_into(
            la.fused_c.as_slice(),
            la.prev_c.as_slice(),
            &dc,
            h,
            la.v_c.as_mut_slice(),
            |x, y| x + y,
        );
    }
    let last_hyper_c: &Matrix = if let Some(l) = hyper.last() { &l.v_c } else { v_c1 };

    // ---- LatticeMP: one P⁻¹A hop per block (encode then joint) ----
    let blocks: Vec<&LatticeMpBlock> =
        model.lattice_encode.iter().chain(model.lattice_joint.iter()).collect();
    debug_assert_eq!(blocks.len(), lattice.len());
    for (i, block) in blocks.into_iter().enumerate() {
        let (done, rest) = lattice.split_at_mut(i);
        let la = &mut rest[0];
        let pc: &Matrix = if i == 0 { last_hyper_c } else { &done[i - 1].v_c };
        block.res.forward_rows_into(store, pc, &dc, sc_c, sy_c, &mut la.h);
        if grow {
            dc = dilate_t.time(|| halo::grow(&ops.lattice_mean, &dc, &dc));
        }
        kernels::spmm_rows_into(&ops.lattice_mean, &la.h, &dc, la.msg.as_mut_slice());
        block.lin.forward_rows_into(store, &la.msg, &dc, &mut la.lin_out);
        kernels::zip_rows_into(
            la.lin_out.as_slice(),
            pc.as_slice(),
            &dc,
            h,
            la.v_c.as_mut_slice(),
            |x, y| x + y,
        );
    }
    let final_c: &Matrix = if let Some(l) = lattice.last() { &l.v_c } else { last_hyper_c };

    // ---- Heads (row-local) ----
    model.cls_head.forward_rows_into(store, final_c, &dc, cls_logits);
    kernels::map_rows_into(cls_logits.as_slice(), &dc, ch, cls_prob.as_mut_slice(), stable_sigmoid);
    model.reg_head.forward_rows_into(store, final_c, &dc, reg);
    (dc, dn)
}

/// Widens a cached tensor to `rows`, keeping existing rows row-for-row.
/// Appended G-net columns always land at the *end* of the stable column
/// space, so the zeroed new rows are recomputed by the splice that
/// unions them into the dirty set.
pub(crate) fn widen_rows(m: &mut Matrix, rows: usize, cols: usize) {
    let mut g = Matrix::zeros(rows, cols);
    g.as_mut_slice()[..m.as_slice().len()].copy_from_slice(m.as_slice());
    *m = g;
}

impl ActivationCache for ActivationState {
    fn kind(&self) -> &'static str {
        "lhnn"
    }

    fn weights_version(&self) -> u64 {
        self.weights_version
    }

    fn fingerprints(&self) -> (u64, u64) {
        (self.ops_fp, self.features_fp)
    }

    fn set_fingerprints(&mut self, ops_fp: u64, features_fp: u64) {
        self.ops_fp = ops_fp;
        self.features_fp = features_fp;
    }

    fn n_c(&self) -> usize {
        self.n_c
    }

    fn n_n(&self) -> usize {
        self.n_n
    }

    fn cached_prediction(&self) -> Prediction {
        Prediction { cls_prob: self.cls_prob.clone(), reg: self.reg.clone() }
    }

    fn grow_gnet_rows(&mut self, n_n: usize) {
        let h = self.hidden;
        widen_rows(&mut self.fn_, n_n, h);
        widen_rows(&mut self.v_n1, n_n, h);
        widen_rows(&mut self.sc_n, n_n, h);
        widen_rows(&mut self.sy_n, n_n, h);
        for la in &mut self.hyper {
            widen_rows(&mut la.msg_n, n_n, h);
            widen_rows(&mut la.cat_n, n_n, 2 * h);
            widen_rows(&mut la.fused_n, n_n, h);
            widen_rows(&mut la.prev_n, n_n, h);
            widen_rows(&mut la.v_n, n_n, h);
            widen_rows(&mut la.hn, n_n, h);
        }
        self.all_n.extend(self.n_n..n_n);
        self.n_n = n_n;
    }

    fn refresh_full(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
        timer: &mut DilateTimer,
    ) {
        let model = model
            .as_any()
            .downcast_ref::<Lhnn>()
            .expect("lhnn activation cache refreshed by a non-lhnn model");
        let dc = std::mem::take(&mut self.all_c);
        let dn = std::mem::take(&mut self.all_n);
        let (dc, dn) = refresh(self, model, ops, features, dc, dn, false, timer);
        self.all_c = dc;
        self.all_n = dn;
    }

    fn refresh_splice(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
        dirty_gcells: Vec<usize>,
        dirty_gnets: Vec<usize>,
        timer: &mut DilateTimer,
    ) -> (usize, usize) {
        let model = model
            .as_any()
            .downcast_ref::<Lhnn>()
            .expect("lhnn activation cache spliced by a non-lhnn model");
        let (dc, dn) = refresh(self, model, ops, features, dirty_gcells, dirty_gnets, true, timer);
        (dc.len(), dn.len())
    }
}

/// Pending dirt plus the note sequence counter, shared between update
/// appliers (brief locks) and the forward (brief locks at entry/exit).
#[derive(Debug, Default)]
struct Notes {
    /// `None` means provenance is unknown (initial state, or a structural
    /// event since the last forward): the next forward must be full.
    pending: Option<ForwardDirty>,
    seq: u64,
    stats: IncrementalStats,
}

/// Cached-activation incremental inference for one hot design.
///
/// Thread-safe: updates note dirt through brief internal locks while
/// [`IncrementalForward::predict`] serialises forwards on its own lock.
/// A panic mid-forward leaves the activation cache empty (taken at
/// entry), so the next predict falls back to a full refresh.
pub struct IncrementalForward {
    notes: Mutex<Notes>,
    act: Mutex<Option<Box<dyn ActivationCache>>>,
    obs: Option<IncrObs>,
}

impl std::fmt::Debug for IncrementalForward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.notes();
        f.debug_struct("IncrementalForward")
            .field("seq", &n.seq)
            .field("pending", &n.pending)
            .field("stats", &n.stats)
            .finish_non_exhaustive()
    }
}

impl Default for IncrementalForward {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalForward {
    /// An empty cache: the first forward is always full.
    pub fn new() -> Self {
        Self { notes: Mutex::new(Notes::default()), act: Mutex::new(None), obs: None }
    }

    /// Like [`IncrementalForward::new`], with forwards additionally
    /// reported to `registry`: `dilate`/`forward`/`splice` stage spans,
    /// halo-size histograms, and path counters (globally and per
    /// `design`/`model` label pair — `model_kind` should be the served
    /// model's [`CongestionModel::kind`], so mixed-zoo traffic stays
    /// attributable). Recording is timing-only — predictions stay
    /// bitwise identical to the uninstrumented constructor.
    pub fn with_metrics(registry: &Registry, design: &str, model_kind: &str) -> Self {
        let mut inc = Self::new();
        inc.obs = Some(IncrObs::new(registry, design, model_kind));
        inc
    }

    fn notes(&self) -> std::sync::MutexGuard<'_, Notes> {
        // Notes hold plain index sets and counters; a panicking holder
        // cannot leave them torn in a way that breaks the conservative
        // (superset / full-refresh) fallbacks.
        self.notes.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records an incremental update's dirty sets. No-op on the dirt if
    /// provenance is already unknown (the next forward is full anyway).
    pub fn note_incremental(&self, dirty: &ForwardDirty) {
        let mut n = self.notes();
        n.seq += 1;
        if let Some(p) = &mut n.pending {
            p.merge(dirty);
        }
    }

    /// Records a structural event (full rebuild, failed rebuild, panic
    /// mid-apply): drops the activation cache completely — G-net columns
    /// may have renumbered, so no splice against it can be trusted.
    /// `cause` splits the invalidation stats by origin.
    pub fn note_structural(&self, cause: InvalidationCause) {
        {
            let mut n = self.notes();
            n.seq += 1;
            n.pending = None;
            n.stats.invalidations += 1;
            match cause {
                InvalidationCause::FilterCrossing => n.stats.invalidations_filter_crossing += 1,
                InvalidationCause::Compaction => n.stats.invalidations_compaction += 1,
                InvalidationCause::DimChange => n.stats.invalidations_dim_change += 1,
                InvalidationCause::Poisoned => n.stats.invalidations_poisoned += 1,
            }
        }
        if let Some(o) = &self.obs {
            o.invalidations.inc();
            o.design_invalidations.inc();
        }
        // Drop the cached activations now if no forward holds them; an
        // in-flight forward is handled by the pending=None protocol (its
        // successor refreshes in full).
        if let Ok(mut act) = self.act.try_lock() {
            *act = None;
        }
    }

    /// The current note sequence. Snapshot this under the same lock that
    /// guards your `(ops, features)` snapshot and pass it to
    /// [`IncrementalForward::predict`], so dirt noted after the snapshot
    /// survives the forward.
    pub fn seq(&self) -> u64 {
        self.notes().seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IncrementalStats {
        self.notes().stats.clone()
    }

    /// Runs the forward for `(ops, features)`, splicing over the dirty
    /// halo when the cached state allows it.
    ///
    /// `model_version` is the caller's fingerprint of the weights
    /// ([`CongestionModel::weights_fingerprint`], typically already
    /// computed by a registry); a version change — including a hot-swap
    /// to a different model kind — invalidates the cache. `seq_snapshot`
    /// is the value of [`IncrementalForward::seq`] captured when the
    /// `(ops, features)` snapshot was taken.
    ///
    /// Returns the prediction — bitwise identical to the model's own
    /// fused `predict` on the same inputs — and the path taken.
    pub fn predict(
        &self,
        model: &dyn CongestionModel,
        model_version: u64,
        ops: &GraphOps,
        features: &FeatureSet,
        seq_snapshot: u64,
    ) -> (Prediction, SpliceOutcome) {
        let mut act = self.act.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (dirt, seq_at_take) = {
            let mut n = self.notes();
            // Notes arriving during the forward accumulate in the fresh
            // empty set; `finish` reconciles them with the taken dirt.
            (std::mem::replace(&mut n.pending, Some(ForwardDirty::default())), n.seq)
        };
        let ops_fp = ops.fingerprint();
        let features_fp = features.fingerprint();
        let n_c = features.gcell.rows();
        let n_n = features.gnet.rows();

        let mut taken = act.take();

        // Path 1: fingerprints match the cached state — the cached
        // prediction IS the full-forward answer for these inputs.
        let reusable = taken.as_ref().map_or(false, |st| {
            st.weights_version() == model_version && st.fingerprints() == (ops_fp, features_fp)
        });
        if reusable {
            let st = taken.expect("checked above");
            let t_splice = self.obs.as_ref().and_then(|o| o.splice.start());
            let pred = st.cached_prediction();
            *act = Some(st);
            drop(act);
            if let Some(o) = &self.obs {
                o.splice.stop_us(t_splice);
            }
            self.finish(dirt, seq_at_take, seq_snapshot, SpliceOutcome::Reused);
            return (pred, SpliceOutcome::Reused);
        }

        // Path 2: known dirt over a compatible cached state — splice.
        // Stable G-net columns only ever *append* at the end between
        // compactions, so a cached state with fewer G-net rows is still
        // spliceable: its tensors are grown in place and the appended
        // rows join the dirty set below.
        let splice_ok = match (&taken, &dirt) {
            (Some(st), Some(d)) => {
                st.kind() == model.kind()
                    && st.weights_version() == model_version
                    && st.n_c() == n_c
                    && st.n_n() <= n_n
                    && ops.num_gcells == n_c
                    && d.gcells.last().map_or(true, |&r| r < n_c)
                    && d.gnets.last().map_or(true, |&r| r < n_n)
            }
            _ => false,
        };
        let t_refresh = self.obs.as_ref().and_then(|o| o.forward.start());
        let mut dilate_t = DilateTimer::new(t_refresh.is_some());
        let (mut st, outcome) = if splice_ok {
            let mut st = taken.take().expect("checked above");
            let d = dirt.as_ref().expect("checked above");
            let mut dn0 = d.gnets.clone();
            if st.n_n() < n_n {
                let appended: Vec<usize> = (st.n_n()..n_n).collect();
                st.grow_gnet_rows(n_n);
                dn0 = union_sorted(&dn0, &appended);
            }
            let (gcell_rows, gnet_rows) =
                st.refresh_splice(model, ops, features, d.gcells.clone(), dn0, &mut dilate_t);
            let outcome = SpliceOutcome::Spliced { gcell_rows, gnet_rows };
            (st, outcome)
        } else {
            // Path 3: full refresh, reusing allocations when the kind
            // and shapes allow.
            let mut st = match taken.take() {
                Some(st)
                    if st.kind() == model.kind()
                        && st.weights_version() == model_version
                        && st.n_c() == n_c
                        && st.n_n() == n_n =>
                {
                    st
                }
                _ => model.new_activation_cache(model_version, n_c, n_n),
            };
            st.refresh_full(model, ops, features, &mut dilate_t);
            (st, SpliceOutcome::Full)
        };
        if let (Some(o), Some(t0)) = (&self.obs, t_refresh) {
            // The refresh span splits into halo dilation (accumulated at
            // the dilation sites) and the masked row-subset forward.
            let total_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let dilate_us = dilate_t.us();
            o.dilate.observe(dilate_us);
            o.forward.observe(total_us.saturating_sub(dilate_us));
            if let SpliceOutcome::Spliced { gcell_rows, gnet_rows } = outcome {
                o.halo_gcells.observe(gcell_rows as u64);
                o.halo_gnets.observe(gnet_rows as u64);
            }
        }
        st.set_fingerprints(ops_fp, features_fp);
        let t_splice = self.obs.as_ref().and_then(|o| o.splice.start());
        let pred = st.cached_prediction();
        *act = Some(st);
        drop(act);
        if let Some(o) = &self.obs {
            o.splice.stop_us(t_splice);
        }
        self.finish(dirt, seq_at_take, seq_snapshot, outcome);
        (pred, outcome)
    }

    /// Reconciles pending dirt after a forward. The refreshed state
    /// matches the caller's input snapshot (taken at `seq_snapshot`);
    /// dirt noted after that snapshot — whether before the forward
    /// started (part of `dirt`) or during it (in `pending`) — must stay
    /// pending for the next splice. A superset is always safe.
    fn finish(
        &self,
        dirt: Option<ForwardDirty>,
        seq_at_take: u64,
        seq_snapshot: u64,
        outcome: SpliceOutcome,
    ) {
        let mut n = self.notes();
        if seq_at_take != seq_snapshot {
            match (&mut n.pending, dirt) {
                (Some(p), Some(d)) => p.merge(&d),
                // Unknown dirt past the snapshot, or a structural note
                // landed mid-forward: the next forward must be full.
                (pending, _) => *pending = None,
            }
        }
        match outcome {
            SpliceOutcome::Reused => n.stats.reused += 1,
            SpliceOutcome::Spliced { .. } => n.stats.spliced_forwards += 1,
            SpliceOutcome::Full => n.stats.full_forwards += 1,
        }
        drop(n);
        if let Some(o) = &self.obs {
            match outcome {
                SpliceOutcome::Reused => {
                    o.reused.inc();
                    o.design_reused.inc();
                }
                SpliceOutcome::Spliced { .. } => {
                    o.spliced.inc();
                    o.design_spliced.inc();
                }
                SpliceOutcome::Full => {
                    o.full.inc();
                    o.design_full.inc();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AblationSpec, LhnnConfig};
    use lh_graph::{LhGraph, LhGraphConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;

    fn sample() -> (GraphOps, FeatureSet) {
        let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
                .unwrap();
        let feats = lh_graph::FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
            .unwrap()
            .normalized();
        (GraphOps::from_graph(&graph, &AblationSpec::full()), feats)
    }

    #[test]
    fn full_refresh_matches_tape_forward_bitwise() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let version = model.weights_fingerprint();
        let direct = model.predict(&ops, &feats);
        let inc = IncrementalForward::new();
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0), "cls diverged from tape forward");
        assert!(direct.reg.approx_eq(&pred.reg, 0.0), "reg diverged from tape forward");
    }

    #[test]
    fn unchanged_inputs_reuse_the_cached_prediction() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 1);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        let (first, _) = inc.predict(&model, version, &ops, &feats, inc.seq());
        let (again, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Reused);
        assert!(first.cls_prob.approx_eq(&again.cls_prob, 0.0));
        assert_eq!(inc.stats().reused, 1);
    }

    #[test]
    fn structural_note_forces_a_full_refresh() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 2);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        inc.predict(&model, version, &ops, &feats, inc.seq());
        inc.note_structural(InvalidationCause::Compaction);
        // Fingerprints still match, but the cache was dropped: no reuse.
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        let direct = model.predict(&ops, &feats);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
        let stats = inc.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.invalidations_compaction, 1);
        assert_eq!(stats.invalidations_filter_crossing, 0);
    }

    #[test]
    fn weights_swap_invalidates_the_cache() {
        let (ops, feats) = sample();
        let a = Lhnn::new(LhnnConfig::default(), 3);
        let b = Lhnn::new(LhnnConfig::default(), 4);
        let inc = IncrementalForward::new();
        inc.predict(&a, a.weights_fingerprint(), &ops, &feats, inc.seq());
        let (pred, outcome) = inc.predict(&b, b.weights_fingerprint(), &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full, "new weights must not reuse old activations");
        let direct = b.predict(&ops, &feats);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
    }

    #[test]
    fn metrics_recording_is_bitwise_invisible() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 6);
        let version = model.weights_fingerprint();
        let registry = Registry::new();
        let plain = IncrementalForward::new();
        let observed = IncrementalForward::with_metrics(&registry, "d0", "lhnn");
        let (a, _) = plain.predict(&model, version, &ops, &feats, plain.seq());
        let (b, _) = observed.predict(&model, version, &ops, &feats, observed.seq());
        assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0), "metrics changed the prediction");
        assert!(a.reg.approx_eq(&b.reg, 0.0));
        observed.predict(&model, version, &ops, &feats, observed.seq());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lhnn_full_forwards_total"), 1);
        assert_eq!(snap.counter("lhnn_reused_predictions_total"), 1);
        assert_eq!(
            snap.counter("lhnn_design_full_forwards_total{design=\"d0\",model=\"lhnn\"}"),
            1
        );
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"forward\"}").unwrap().count, 1);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"dilate\"}").unwrap().count, 1);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"splice\"}").unwrap().count, 2);
    }

    #[test]
    fn dirt_noted_after_the_snapshot_stays_pending() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 5);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        inc.predict(&model, version, &ops, &feats, inc.seq());
        let snapshot = inc.seq();
        // A delta lands after the snapshot but before the forward: its
        // dirt must survive the forward for the next splice.
        inc.note_incremental(&ForwardDirty::new(vec![3], vec![1]));
        inc.predict(&model, version, &ops, &feats, snapshot);
        let n = inc.notes();
        let pending = n.pending.as_ref().expect("pending must stay known");
        assert_eq!(pending.gcells(), &[3]);
        assert_eq!(pending.gnets(), &[1]);
    }
}

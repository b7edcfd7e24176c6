//! HybridNet: a dual-branch geometry + topology congestion predictor —
//! the second [`CongestionModel`] architecture behind the serving engine.
//!
//! PAPERS.md's HybridNet argues congestion has two complementary views:
//! a **geometry view** (local lattice neighbourhoods of the placement
//! grid) and a **topology view** (netlist connectivity). Where LHNN
//! interleaves its hypergraph and lattice hops in one stack, HybridNet
//! keeps the branches separate and fuses late:
//!
//! * **Geometry branch**: a residual lift of the raw G-cell features
//!   followed by `geo_layers` lattice blocks (`P⁻¹A` mean aggregation
//!   with a skip connection) — purely spatial.
//! * **Topology branch**: a residual lift of the raw G-net features,
//!   aggregated onto G-cells through `D⁻¹H`, then `topo_rounds` full
//!   cell→net→cell round trips (`B⁻¹Hᵀ` then `D⁻¹H`) with skip
//!   connections — purely relational.
//! * **Fusion head**: the branch embeddings are concatenated and fused
//!   by one linear layer feeding the shared classification/regression
//!   heads.
//!
//! The model is composed entirely from the same [`neurograd`] layers and
//! [`GraphOps`] operators as LHNN, so it inherits the three bitwise-
//! identical forward paths (taped, fused, masked row-subset) and rides
//! the same trainer, engine, sessions and incremental forward.

use std::sync::Arc;

use lh_graph::{halo, ChannelMode, FeatureSet};
use neurograd::{kernels, stable_sigmoid, Activation, Linear, Matrix, ParamStore, ResBlock, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::congestion::{CongestionModel, ModelScratch};
use crate::incremental::{widen_rows, ActivationCache, DilateTimer};
use crate::model::{LhnnOutput, Prediction};
use crate::ops::GraphOps;

/// HybridNet architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridNetConfig {
    /// Hidden dimension of both branches.
    pub hidden: usize,
    /// Full cell→net→cell round trips in the topology branch.
    pub topo_rounds: usize,
    /// Lattice blocks in the geometry branch.
    pub geo_layers: usize,
    /// Raw G-cell feature width.
    pub gcell_in_dim: usize,
    /// Raw G-net feature width.
    pub gnet_in_dim: usize,
    /// Output channel mode (uni/duo).
    pub channel_mode: ChannelMode,
    /// Compute-pool width request (runtime knob, not architecture; 0 =
    /// leave the pool as-is).
    pub threads: usize,
}

impl Default for HybridNetConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            topo_rounds: 1,
            geo_layers: 2,
            gcell_in_dim: 4,
            gnet_in_dim: 4,
            channel_mode: ChannelMode::Uni,
            threads: 0,
        }
    }
}

/// One geometry-branch lattice block: residual transform, `P⁻¹A` hop,
/// linear mix, skip connection.
#[derive(Debug, Clone)]
pub(crate) struct GeoBlock {
    pub(crate) res: ResBlock,
    pub(crate) lin: Linear,
}

/// One topology-branch round trip: cell residual, `B⁻¹Hᵀ` hop, net
/// linear, `D⁻¹H` hop, cell linear, skip connection.
#[derive(Debug, Clone)]
pub(crate) struct TopoRound {
    pub(crate) res_c: ResBlock,
    pub(crate) lin_n: Linear,
    pub(crate) lin_c: Linear,
}

/// Persistent full-size intermediate buffers for HybridNet's fused
/// (tape-free) inference path, sized to one `(n_c, n_n, hidden,
/// channels)` shape. Same contract as LHNN's buffers: every matrix is
/// wholly overwritten before anything reads it.
#[derive(Debug)]
struct HybridBuffers {
    n_c: usize,
    n_n: usize,
    hidden: usize,
    channels: usize,
    // Branch embeddings (live across the whole forward).
    g: Matrix,
    t: Matrix,
    // G-cell-side ping-pong.
    tmp_c: Matrix,
    msg_c: Matrix,
    lin_c: Matrix,
    sc_c: Matrix,
    sy_c: Matrix,
    // G-net side.
    t_n: Matrix,
    tmp_n: Matrix,
    msg_n: Matrix,
    sc_n: Matrix,
    sy_n: Matrix,
    // Fusion + heads.
    cat: Matrix,
    fused: Matrix,
    cls: Matrix,
    reg: Matrix,
}

impl HybridBuffers {
    fn new(n_c: usize, n_n: usize, hidden: usize, channels: usize) -> Self {
        let zc = || Matrix::zeros(n_c, hidden);
        let zn = || Matrix::zeros(n_n, hidden);
        Self {
            n_c,
            n_n,
            hidden,
            channels,
            g: zc(),
            t: zc(),
            tmp_c: zc(),
            msg_c: zc(),
            lin_c: zc(),
            sc_c: zc(),
            sy_c: zc(),
            t_n: zn(),
            tmp_n: zn(),
            msg_n: zn(),
            sc_n: zn(),
            sy_n: zn(),
            cat: Matrix::zeros(n_c, 2 * hidden),
            fused: zc(),
            cls: Matrix::zeros(n_c, channels),
            reg: Matrix::zeros(n_c, channels),
        }
    }
}

/// Reusable per-thread scratch for HybridNet's tape-free inference
/// (HybridNet's analogue of [`crate::InferenceScratch`]).
#[derive(Debug, Default)]
pub struct HybridScratch {
    buffers: Option<HybridBuffers>,
}

impl HybridScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn buffers_for(&mut self, model: &HybridNet, n_c: usize, n_n: usize) -> &mut HybridBuffers {
        let h = model.cfg.hidden;
        let ch = model.cfg.channel_mode.channels();
        let ok = self
            .buffers
            .as_ref()
            .is_some_and(|b| b.n_c == n_c && b.n_n == n_n && b.hidden == h && b.channels == ch);
        if !ok {
            self.buffers = Some(HybridBuffers::new(n_c, n_n, h, ch));
        }
        self.buffers.as_mut().expect("buffers just ensured")
    }
}

impl ModelScratch for HybridScratch {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The HybridNet model: parameters plus architecture.
#[derive(Debug)]
pub struct HybridNet {
    pub(crate) cfg: HybridNetConfig,
    pub(crate) store: ParamStore,
    pub(crate) geo_lift: ResBlock,
    pub(crate) geo: Vec<GeoBlock>,
    pub(crate) topo_lift: ResBlock,
    pub(crate) topo_in: Linear,
    pub(crate) topo: Vec<TopoRound>,
    pub(crate) fuse: Linear,
    pub(crate) cls_head: Linear,
    pub(crate) reg_head: Linear,
}

impl HybridNet {
    /// Creates a model with seeded initialisation.
    pub fn new(cfg: HybridNetConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = cfg.hidden;
        let geo_lift = ResBlock::new(
            &mut store,
            "geo.lift",
            cfg.gcell_in_dim,
            h,
            h,
            Activation::Relu,
            &mut rng,
        );
        let geo = (0..cfg.geo_layers)
            .map(|i| GeoBlock {
                res: ResBlock::new(
                    &mut store,
                    &format!("geo{i}.res"),
                    h,
                    h,
                    h,
                    Activation::Relu,
                    &mut rng,
                ),
                lin: Linear::new(
                    &mut store,
                    &format!("geo{i}.lin"),
                    h,
                    h,
                    Activation::Relu,
                    &mut rng,
                ),
            })
            .collect();
        let topo_lift = ResBlock::new(
            &mut store,
            "topo.lift",
            cfg.gnet_in_dim,
            h,
            h,
            Activation::Relu,
            &mut rng,
        );
        let topo_in = Linear::new(&mut store, "topo.in", h, h, Activation::Relu, &mut rng);
        let topo = (0..cfg.topo_rounds)
            .map(|i| TopoRound {
                res_c: ResBlock::new(
                    &mut store,
                    &format!("topo{i}.res_c"),
                    h,
                    h,
                    h,
                    Activation::Relu,
                    &mut rng,
                ),
                lin_n: Linear::new(
                    &mut store,
                    &format!("topo{i}.lin_n"),
                    h,
                    h,
                    Activation::Relu,
                    &mut rng,
                ),
                lin_c: Linear::new(
                    &mut store,
                    &format!("topo{i}.lin_c"),
                    h,
                    h,
                    Activation::Relu,
                    &mut rng,
                ),
            })
            .collect();
        let fuse = Linear::new(&mut store, "fuse", 2 * h, h, Activation::Relu, &mut rng);
        let out = cfg.channel_mode.channels();
        let cls_head = Linear::new(&mut store, "head.cls", h, out, Activation::Identity, &mut rng);
        let reg_head = Linear::new(&mut store, "head.reg", h, out, Activation::Identity, &mut rng);
        Self { cfg, store, geo_lift, geo, topo_lift, topo_in, topo, fuse, cls_head, reg_head }
    }

    /// The model configuration.
    pub fn config(&self) -> &HybridNetConfig {
        &self.cfg
    }

    /// Runs the forward pass on a tape (the training path).
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    pub fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput {
        assert_eq!(features.gcell.cols(), self.cfg.gcell_in_dim, "g-cell feature dim mismatch");
        assert_eq!(features.gnet.cols(), self.cfg.gnet_in_dim, "g-net feature dim mismatch");
        let store = &self.store;
        let v_c0 = tape.leaf(features.gcell.clone());
        let v_n0 = tape.leaf(features.gnet.clone());

        // Geometry branch: lift then lattice hops with skips.
        let mut g = self.geo_lift.forward(tape, store, v_c0);
        for blk in &self.geo {
            let h = blk.res.forward(tape, store, g);
            let msg = tape.spmm(Arc::clone(&ops.lattice_mean), h); // P⁻¹A
            let out = blk.lin.forward(tape, store, msg);
            g = tape.add(out, g);
        }

        // Topology branch: lift nets, land on cells, round-trip.
        let t_n = self.topo_lift.forward(tape, store, v_n0);
        let agg = tape.spmm(Arc::clone(&ops.gnc_mean), t_n); // D⁻¹H
        let mut t = self.topo_in.forward(tape, store, agg);
        for round in &self.topo {
            let hc = round.res_c.forward(tape, store, t);
            let m_n = tape.spmm(Arc::clone(&ops.gcn_mean), hc); // B⁻¹Hᵀ
            let hn = round.lin_n.forward(tape, store, m_n);
            let m_c = tape.spmm(Arc::clone(&ops.gnc_mean), hn); // D⁻¹H
            let upd = round.lin_c.forward(tape, store, m_c);
            t = tape.add(upd, t);
        }

        // Late fusion + heads.
        let cat = tape.concat_cols(g, t);
        let fused = self.fuse.forward(tape, store, cat);
        let cls_logits = self.cls_head.forward(tape, store, fused);
        let reg = self.reg_head.forward(tape, store, fused);
        LhnnOutput { cls_logits, reg }
    }

    /// Inference: returns dense probability and regression maps.
    pub fn predict(&self, ops: &GraphOps, features: &FeatureSet) -> Prediction {
        self.predict_into(ops, features, &mut HybridScratch::new())
    }

    /// Inference re-using a caller-owned [`HybridScratch`]: the fused,
    /// tape-free forward, bitwise identical to [`HybridNet::forward`]
    /// plus a sigmoid (same fused-kernel contract as
    /// [`crate::Lhnn::predict_into`]).
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    pub fn predict_into(
        &self,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut HybridScratch,
    ) -> Prediction {
        assert_eq!(features.gcell.cols(), self.cfg.gcell_in_dim, "g-cell feature dim mismatch");
        assert_eq!(features.gnet.cols(), self.cfg.gnet_in_dim, "g-net feature dim mismatch");
        let n_c = features.gcell.rows();
        let n_n = features.gnet.rows();
        let store = &self.store;
        let b = scratch.buffers_for(self, n_c, n_n);

        // Geometry branch.
        self.geo_lift.forward_into(store, &features.gcell, &mut b.sc_c, &mut b.sy_c, &mut b.g);
        for blk in &self.geo {
            blk.res.forward_into(store, &b.g, &mut b.sc_c, &mut b.sy_c, &mut b.tmp_c);
            kernels::spmm_into(&ops.lattice_mean, &b.tmp_c, b.msg_c.as_mut_slice()); // P⁻¹A
            blk.lin.forward_into(store, &b.msg_c, &mut b.lin_c);
            // g ← lin_out + g (operand order of `tape.add(out, g)`).
            kernels::zip_inplace(b.lin_c.as_slice(), b.g.as_mut_slice(), |o, v| o + v);
        }

        // Topology branch.
        self.topo_lift.forward_into(store, &features.gnet, &mut b.sc_n, &mut b.sy_n, &mut b.t_n);
        kernels::spmm_into(&ops.gnc_mean, &b.t_n, b.msg_c.as_mut_slice()); // D⁻¹H
        self.topo_in.forward_into(store, &b.msg_c, &mut b.t);
        for round in &self.topo {
            round.res_c.forward_into(store, &b.t, &mut b.sc_c, &mut b.sy_c, &mut b.tmp_c);
            kernels::spmm_into(&ops.gcn_mean, &b.tmp_c, b.msg_n.as_mut_slice()); // B⁻¹Hᵀ
            round.lin_n.forward_into(store, &b.msg_n, &mut b.tmp_n);
            kernels::spmm_into(&ops.gnc_mean, &b.tmp_n, b.msg_c.as_mut_slice()); // D⁻¹H
            round.lin_c.forward_into(store, &b.msg_c, &mut b.lin_c);
            // t ← upd + t (operand order of `tape.add(upd, t)`).
            kernels::zip_inplace(b.lin_c.as_slice(), b.t.as_mut_slice(), |o, v| o + v);
        }

        // Late fusion + heads.
        kernels::concat_into(&b.g, &b.t, b.cat.as_mut_slice());
        self.fuse.forward_into(store, &b.cat, &mut b.fused);
        self.cls_head.forward_into(store, &b.fused, &mut b.cls);
        kernels::map_inplace(b.cls.as_mut_slice(), stable_sigmoid);
        self.reg_head.forward_into(store, &b.fused, &mut b.reg);

        Prediction { cls_prob: b.cls.clone(), reg: b.reg.clone() }
    }

    /// A content fingerprint over the architecture and every weight
    /// tensor (HybridNet's serving version; the leading kind marker keeps
    /// it disjoint from other architectures' streams).
    pub fn weights_fingerprint(&self) -> u64 {
        let mut h = neurograd::Fnv64::new();
        h.write_str("hybridnet");
        h.write_usize(self.cfg.hidden);
        h.write_usize(self.cfg.topo_rounds);
        h.write_usize(self.cfg.geo_layers);
        h.write_usize(self.cfg.gcell_in_dim);
        h.write_usize(self.cfg.gnet_in_dim);
        h.write_usize(self.cfg.channel_mode.channels());
        for p in self.store.iter() {
            h.write_str(&p.name);
            p.value.hash_into(&mut h);
        }
        h.finish()
    }
}

impl CongestionModel for HybridNet {
    fn kind(&self) -> &'static str {
        "hybridnet"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn gcell_in_dim(&self) -> usize {
        self.cfg.gcell_in_dim
    }

    fn gnet_in_dim(&self) -> usize {
        self.cfg.gnet_in_dim
    }

    fn hidden(&self) -> usize {
        self.cfg.hidden
    }

    fn channel_mode(&self) -> ChannelMode {
        self.cfg.channel_mode
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn configure_pool(&self) {
        if self.cfg.threads > 0 {
            neurograd::pool::configure_threads(self.cfg.threads);
        }
    }

    fn weights_fingerprint(&self) -> u64 {
        HybridNet::weights_fingerprint(self)
    }

    fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput {
        HybridNet::forward(self, tape, ops, features)
    }

    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        Box::new(HybridScratch::new())
    }

    fn predict_with(
        &self,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut dyn ModelScratch,
    ) -> Prediction {
        match scratch.as_any_mut().downcast_mut::<HybridScratch>() {
            Some(s) => self.predict_into(ops, features, s),
            None => self.predict_into(ops, features, &mut HybridScratch::new()),
        }
    }

    fn new_activation_cache(
        &self,
        weights_version: u64,
        n_c: usize,
        n_n: usize,
    ) -> Box<dyn ActivationCache> {
        Box::new(HybridActs::new(self, weights_version, n_c, n_n))
    }

    fn save_to(&self, w: &mut dyn std::io::Write) -> Result<(), crate::serialize::ModelIoError> {
        self.save(w)
    }
}

/// Per-geometry-block cached activations.
struct GeoActs {
    h: Matrix,
    msg: Matrix,
    lin_out: Matrix,
    v: Matrix,
}

/// Per-topology-round cached activations.
struct TopoActs {
    hc: Matrix,
    m_n: Matrix,
    hn: Matrix,
    m_c: Matrix,
    lin_out: Matrix,
    v: Matrix,
}

/// Every intermediate tensor of one HybridNet forward, cached full-size
/// for [`crate::IncrementalForward`] — same superset-row invariant as
/// LHNN's cache (see [`ActivationCache`]).
pub(crate) struct HybridActs {
    weights_version: u64,
    ops_fp: u64,
    features_fp: u64,
    n_c: usize,
    n_n: usize,
    hidden: usize,
    g0: Matrix,
    geo: Vec<GeoActs>,
    t_n: Matrix,
    agg_t: Matrix,
    t0: Matrix,
    topo: Vec<TopoActs>,
    cat: Matrix,
    fused: Matrix,
    cls_logits: Matrix,
    cls_prob: Matrix,
    reg: Matrix,
    // ResBlock scratch (wholly written/read within one block call).
    sc_c: Matrix,
    sy_c: Matrix,
    sc_n: Matrix,
    sy_n: Matrix,
    // Full row lists for the refresh path (kept allocated).
    all_c: Vec<usize>,
    all_n: Vec<usize>,
}

impl HybridActs {
    pub(crate) fn new(model: &HybridNet, weights_version: u64, n_c: usize, n_n: usize) -> Self {
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
            g0: zc(),
            geo: (0..model.geo.len())
                .map(|_| GeoActs { h: zc(), msg: zc(), lin_out: zc(), v: zc() })
                .collect(),
            t_n: zn(),
            agg_t: zc(),
            t0: zc(),
            topo: (0..model.topo.len())
                .map(|_| TopoActs {
                    hc: zc(),
                    m_n: zn(),
                    hn: zn(),
                    m_c: zc(),
                    lin_out: zc(),
                    v: zc(),
                })
                .collect(),
            cat: Matrix::zeros(n_c, 2 * h),
            fused: zc(),
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

/// Recomputes the HybridNet forward over the given row lists, growing
/// them through each aggregation's receptive field when `grow` is set.
/// The G-cell list `dc` only ever grows, so tensors computed at an
/// earlier (smaller) `dc` are still recomputed at a superset of their
/// truly-changed rows — reads at later, larger row lists hit
/// cached-valid values (the same argument as LHNN's refresh).
fn refresh(
    st: &mut HybridActs,
    model: &HybridNet,
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
    let HybridActs {
        g0,
        geo,
        t_n,
        agg_t,
        t0,
        topo,
        cat,
        fused,
        cls_logits,
        cls_prob,
        reg,
        sc_c,
        sy_c,
        sc_n,
        sy_n,
        ..
    } = st;

    // ---- Geometry branch ----
    model.geo_lift.forward_rows_into(store, &features.gcell, &dc, sc_c, sy_c, g0);
    for (i, blk) in model.geo.iter().enumerate() {
        let (done, rest) = geo.split_at_mut(i);
        let la = &mut rest[0];
        let pg: &Matrix = if i == 0 { g0 } else { &done[i - 1].v };
        blk.res.forward_rows_into(store, pg, &dc, sc_c, sy_c, &mut la.h);
        if grow {
            dc = dilate_t.time(|| halo::grow(&ops.lattice_mean, &dc, &dc));
        }
        kernels::spmm_rows_into(&ops.lattice_mean, &la.h, &dc, la.msg.as_mut_slice());
        blk.lin.forward_rows_into(store, &la.msg, &dc, &mut la.lin_out);
        kernels::zip_rows_into(
            la.lin_out.as_slice(),
            pg.as_slice(),
            &dc,
            h,
            la.v.as_mut_slice(),
            |x, y| x + y,
        );
    }
    let final_g: &Matrix = if let Some(l) = geo.last() { &l.v } else { g0 };

    // ---- Topology branch ----
    model.topo_lift.forward_rows_into(store, &features.gnet, &dn, sc_n, sy_n, t_n);
    if grow {
        dc = dilate_t.time(|| halo::grow(&ops.gnc_mean, &dn, &dc));
    }
    kernels::spmm_rows_into(&ops.gnc_mean, t_n, &dc, agg_t.as_mut_slice());
    model.topo_in.forward_rows_into(store, agg_t, &dc, t0);
    for (i, round) in model.topo.iter().enumerate() {
        let (done, rest) = topo.split_at_mut(i);
        let la = &mut rest[0];
        let pt: &Matrix = if i == 0 { t0 } else { &done[i - 1].v };
        round.res_c.forward_rows_into(store, pt, &dc, sc_c, sy_c, &mut la.hc);
        if grow {
            dn = dilate_t.time(|| halo::grow(&ops.gcn_mean, &dc, &dn));
        }
        kernels::spmm_rows_into(&ops.gcn_mean, &la.hc, &dn, la.m_n.as_mut_slice());
        round.lin_n.forward_rows_into(store, &la.m_n, &dn, &mut la.hn);
        if grow {
            dc = dilate_t.time(|| halo::grow(&ops.gnc_mean, &dn, &dc));
        }
        kernels::spmm_rows_into(&ops.gnc_mean, &la.hn, &dc, la.m_c.as_mut_slice());
        round.lin_c.forward_rows_into(store, &la.m_c, &dc, &mut la.lin_out);
        kernels::zip_rows_into(
            la.lin_out.as_slice(),
            pt.as_slice(),
            &dc,
            h,
            la.v.as_mut_slice(),
            |x, y| x + y,
        );
    }
    let final_t: &Matrix = if let Some(l) = topo.last() { &l.v } else { t0 };

    // ---- Late fusion + heads (row-local) ----
    kernels::concat_rows_into(final_g, final_t, &dc, cat.as_mut_slice());
    model.fuse.forward_rows_into(store, cat, &dc, fused);
    model.cls_head.forward_rows_into(store, fused, &dc, cls_logits);
    kernels::map_rows_into(cls_logits.as_slice(), &dc, ch, cls_prob.as_mut_slice(), stable_sigmoid);
    model.reg_head.forward_rows_into(store, fused, &dc, reg);
    (dc, dn)
}

impl ActivationCache for HybridActs {
    fn kind(&self) -> &'static str {
        "hybridnet"
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
        widen_rows(&mut self.t_n, n_n, h);
        widen_rows(&mut self.sc_n, n_n, h);
        widen_rows(&mut self.sy_n, n_n, h);
        for la in &mut self.topo {
            widen_rows(&mut la.m_n, n_n, h);
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
            .downcast_ref::<HybridNet>()
            .expect("hybridnet activation cache refreshed by a non-hybridnet model");
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
            .downcast_ref::<HybridNet>()
            .expect("hybridnet activation cache spliced by a non-hybridnet model");
        let (dc, dn) = refresh(self, model, ops, features, dirty_gcells, dirty_gnets, true, timer);
        (dc.len(), dn.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationSpec;
    use crate::incremental::{IncrementalForward, SpliceOutcome};
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
        let feats = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
            .unwrap()
            .normalized();
        (GraphOps::from_graph(&graph, &AblationSpec::full()), feats)
    }

    #[test]
    fn forward_shapes() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 1));
        assert_eq!(pred.reg.shape(), (ops.num_gcells, 1));
        assert!(pred.cls_prob.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn fused_predict_matches_taped_forward() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 5);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let prob = tape.sigmoid(out.cls_logits);
        let taped_prob = tape.value(prob).clone();
        let taped_reg = tape.value(out.reg).clone();
        let fused = model.predict(&ops, &feats);
        assert!(taped_prob.approx_eq(&fused.cls_prob, 0.0));
        assert!(taped_reg.approx_eq(&fused.reg, 0.0));
    }

    #[test]
    fn predict_into_reuses_scratch_and_matches_predict() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 3);
        let direct = model.predict(&ops, &feats);
        let mut scratch = HybridScratch::new();
        for _ in 0..3 {
            let again = model.predict_into(&ops, &feats, &mut scratch);
            assert!(direct.cls_prob.approx_eq(&again.cls_prob, 0.0));
            assert!(direct.reg.approx_eq(&again.reg, 0.0));
        }
    }

    #[test]
    fn incremental_full_refresh_matches_direct_predict() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 0);
        let version = CongestionModel::weights_fingerprint(&model);
        let direct = model.predict(&ops, &feats);
        let inc = IncrementalForward::new();
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
        assert!(direct.reg.approx_eq(&pred.reg, 0.0));
    }

    #[test]
    fn fingerprint_is_disjoint_from_lhnn_and_tracks_weights() {
        let a = HybridNet::new(HybridNetConfig::default(), 0);
        let b = HybridNet::new(HybridNetConfig::default(), 0);
        assert_eq!(a.weights_fingerprint(), b.weights_fingerprint());
        let other_seed = HybridNet::new(HybridNetConfig::default(), 1);
        assert_ne!(a.weights_fingerprint(), other_seed.weights_fingerprint());
        let lhnn = crate::Lhnn::new(crate::LhnnConfig::default(), 0);
        assert_ne!(a.weights_fingerprint(), lhnn.weights_fingerprint());
    }

    #[test]
    fn gradient_flows_to_all_parameters() {
        let (ops, feats) = sample();
        let mut model = HybridNet::new(HybridNetConfig::default(), 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let s1 = tape.sum_all(out.cls_logits);
        let s2 = tape.sum_all(out.reg);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        model.store.absorb_grads(&mut tape);
        let with_grad =
            model.store.iter().filter(|p| p.grad.as_slice().iter().any(|&g| g != 0.0)).count();
        let total = model.store.len();
        assert!(
            with_grad * 10 >= total * 8,
            "only {with_grad}/{total} parameter tensors got gradients"
        );
    }
}

//! The LHNN architecture (§4 of the paper, Figure 3).
//!
//! Three block types compose the network:
//!
//! * **FeatureGen** (Eq. 1–2): residual MLPs lift the raw 4-channel G-cell
//!   and G-net features to the hidden dimension; G-net embeddings are
//!   sum-aggregated onto G-cells through `G_nc = H` and fused by a linear
//!   layer — the learned analogue of crafted-feature generation.
//! * **HyperMP**: alternating G-cell → G-net (`B⁻¹Hᵀ`) and G-net → G-cell
//!   (`D⁻¹H`) message passing with residual transforms, fusing each
//!   direction with the FeatureGen embeddings — the topological receptive
//!   field.
//! * **LatticeMP**: mean aggregation over the 4-neighbour lattice
//!   (`P⁻¹A`) with a skip connection — the geometric receptive field.
//!
//! The encoder stacks 2×HyperMP + 1×LatticeMP; the joint phase stacks two
//! more LatticeMP blocks and ends in two heads: congestion classification
//! (logits; trained with the γ-weighted BCE of Eq. 5) and routing-demand
//! regression (Eq. 4).

use lh_graph::FeatureSet;
use neurograd::{Activation, Linear, Matrix, ParamStore, ResBlock, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::LhnnConfig;
use crate::congestion::CongestionModel;
use crate::incremental::{ActivationCache, ActivationState};
use crate::ops::GraphOps;

/// FeatureGen block (Eq. 1–2).
#[derive(Debug, Clone)]
pub(crate) struct FeatureGenBlock {
    pub(crate) f_c: ResBlock,
    pub(crate) f_n: ResBlock,
    pub(crate) phi_c: Linear,
    pub(crate) phi_n: Linear,
}

impl FeatureGenBlock {
    fn new(store: &mut ParamStore, cfg: &LhnnConfig, rng: &mut StdRng) -> Self {
        let h = cfg.hidden;
        Self {
            f_c: ResBlock::new(
                store,
                "featuregen.f_c",
                cfg.gcell_in_dim,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            f_n: ResBlock::new(
                store,
                "featuregen.f_n",
                cfg.gnet_in_dim,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            phi_c: Linear::new(store, "featuregen.phi_c", 2 * h, h, Activation::Relu, rng),
            phi_n: Linear::new(store, "featuregen.phi_n", h, h, Activation::Relu, rng),
        }
    }

    /// Returns `(V_c¹, V_n¹)`.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ops: &GraphOps,
        v_c0: Var,
        v_n0: Var,
    ) -> (Var, Var) {
        let fc = self.f_c.forward(tape, store, v_c0);
        let fn_ = self.f_n.forward(tape, store, v_n0);
        // Eq. 1: V_c1 = φ_c( f_c(V_c0) ∥ G_nc f_n(V_n0) ), G_nc = H (sum)
        let agg = tape.spmm(std::sync::Arc::clone(&ops.gnc_sum), fn_);
        let cat = tape.concat_cols(fc, agg);
        let v_c1 = self.phi_c.forward(tape, store, cat);
        // Eq. 2: V_n1 = φ_n( f_n(V_n0) )
        let v_n1 = self.phi_n.forward(tape, store, fn_);
        (v_c1, v_n1)
    }
}

/// HyperMP block: one G-cell → G-net and one G-net → G-cell half-step.
#[derive(Debug, Clone)]
pub(crate) struct HyperMpBlock {
    pub(crate) res_c_in: ResBlock,
    pub(crate) res_n_prev: ResBlock,
    pub(crate) fuse_n: Linear,
    pub(crate) res_n_in: ResBlock,
    pub(crate) res_c_prev: ResBlock,
    pub(crate) fuse_c: Linear,
}

impl HyperMpBlock {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut StdRng) -> Self {
        let h = hidden;
        Self {
            res_c_in: ResBlock::new(
                store,
                &format!("{name}.res_c_in"),
                h,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            res_n_prev: ResBlock::new(
                store,
                &format!("{name}.res_n_prev"),
                h,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            fuse_n: Linear::new(store, &format!("{name}.fuse_n"), 2 * h, h, Activation::Relu, rng),
            res_n_in: ResBlock::new(
                store,
                &format!("{name}.res_n_in"),
                h,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            res_c_prev: ResBlock::new(
                store,
                &format!("{name}.res_c_prev"),
                h,
                h,
                h,
                Activation::Relu,
                rng,
            ),
            fuse_c: Linear::new(store, &format!("{name}.fuse_c"), 2 * h, h, Activation::Relu, rng),
        }
    }

    /// Returns `(V_c^L, V_n^L)` from `(V_c^{L-1}, V_n^{L-1}, V_c¹, V_n¹)`.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ops: &GraphOps,
        v_c: Var,
        v_n: Var,
        v_c1: Var,
        v_n1: Var,
    ) -> (Var, Var) {
        // --- G-cell to G-net ---
        let hc = self.res_c_in.forward(tape, store, v_c);
        let msg_n = tape.spmm(std::sync::Arc::clone(&ops.gcn_mean), hc); // B⁻¹Hᵀ
        let cat_n = tape.concat_cols(msg_n, v_n1);
        let fused_n = self.fuse_n.forward(tape, store, cat_n);
        let prev_n = self.res_n_prev.forward(tape, store, v_n);
        let v_n_next = tape.add(fused_n, prev_n);
        // --- G-net to G-cell (symmetric, using the updated G-net state) ---
        let hn = self.res_n_in.forward(tape, store, v_n_next);
        let msg_c = tape.spmm(std::sync::Arc::clone(&ops.gnc_mean), hn); // D⁻¹H
        let cat_c = tape.concat_cols(msg_c, v_c1);
        let fused_c = self.fuse_c.forward(tape, store, cat_c);
        let prev_c = self.res_c_prev.forward(tape, store, v_c);
        let v_c_next = tape.add(fused_c, prev_c);
        (v_c_next, v_n_next)
    }
}

/// LatticeMP block: lattice mean aggregation with a skip connection.
#[derive(Debug, Clone)]
pub(crate) struct LatticeMpBlock {
    pub(crate) res: ResBlock,
    pub(crate) lin: Linear,
}

impl LatticeMpBlock {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            res: ResBlock::new(
                store,
                &format!("{name}.res"),
                hidden,
                hidden,
                hidden,
                Activation::Relu,
                rng,
            ),
            lin: Linear::new(store, &format!("{name}.lin"), hidden, hidden, Activation::Relu, rng),
        }
    }

    fn forward(&self, tape: &mut Tape, store: &ParamStore, ops: &GraphOps, v_c: Var) -> Var {
        let h = self.res.forward(tape, store, v_c);
        let msg = tape.spmm(std::sync::Arc::clone(&ops.lattice_mean), h); // P⁻¹A
        let out = self.lin.forward(tape, store, msg);
        tape.add(out, v_c) // skip connection
    }
}

/// Model outputs for one graph.
#[derive(Debug, Clone)]
pub struct LhnnOutput {
    /// Congestion logits, `N_c × channels` (apply sigmoid for
    /// probabilities).
    pub cls_logits: Var,
    /// Routing-demand regression, `N_c × channels`.
    pub reg: Var,
}

/// Dense (tape-free) predictions.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Congestion probabilities, `N_c × channels`.
    pub cls_prob: Matrix,
    /// Demand regression values, `N_c × channels`.
    pub reg: Matrix,
}

/// The LHNN model: parameters plus architecture.
#[derive(Debug)]
pub struct Lhnn {
    pub(crate) cfg: LhnnConfig,
    pub(crate) store: ParamStore,
    pub(crate) featuregen: FeatureGenBlock,
    pub(crate) hypermp: Vec<HyperMpBlock>,
    pub(crate) lattice_encode: Vec<LatticeMpBlock>,
    pub(crate) lattice_joint: Vec<LatticeMpBlock>,
    pub(crate) cls_head: Linear,
    pub(crate) reg_head: Linear,
}

impl Lhnn {
    /// Creates a model with seeded initialisation.
    pub fn new(cfg: LhnnConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let featuregen = FeatureGenBlock::new(&mut store, &cfg, &mut rng);
        let hypermp = (0..cfg.hypermp_layers)
            .map(|i| HyperMpBlock::new(&mut store, &format!("hypermp{i}"), cfg.hidden, &mut rng))
            .collect();
        let lattice_encode = (0..cfg.latticemp_encode_layers)
            .map(|i| {
                LatticeMpBlock::new(&mut store, &format!("lattice_enc{i}"), cfg.hidden, &mut rng)
            })
            .collect();
        let lattice_joint = (0..cfg.latticemp_joint_layers)
            .map(|i| {
                LatticeMpBlock::new(&mut store, &format!("lattice_joint{i}"), cfg.hidden, &mut rng)
            })
            .collect();
        let out = cfg.channel_mode.channels();
        let cls_head =
            Linear::new(&mut store, "head.cls", cfg.hidden, out, Activation::Identity, &mut rng);
        let reg_head =
            Linear::new(&mut store, "head.reg", cfg.hidden, out, Activation::Identity, &mut rng);
        Self { cfg, store, featuregen, hypermp, lattice_encode, lattice_joint, cls_head, reg_head }
    }

    /// The model configuration.
    pub fn config(&self) -> &LhnnConfig {
        &self.cfg
    }

    /// The parameter store (read access).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The parameter store (mutable, for the optimiser).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Applies this model's [`LhnnConfig::threads`] request to the shared
    /// compute pool (no-op when the knob is 0 or the pool already has that
    /// width). Called by the CLI after constructing a model and by the
    /// serving registry when a model is registered.
    pub fn configure_pool(&self) {
        if self.cfg.threads > 0 {
            neurograd::pool::configure_threads(self.cfg.threads);
        }
    }

    /// Runs the forward pass on a tape.
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    pub fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput {
        assert_eq!(features.gcell.cols(), self.cfg.gcell_in_dim, "g-cell feature dim mismatch");
        assert_eq!(features.gnet.cols(), self.cfg.gnet_in_dim, "g-net feature dim mismatch");
        let v_c0 = tape.leaf(features.gcell.clone());
        let v_n0 = tape.leaf(features.gnet.clone());

        // Encoding phase.
        let (v_c1, v_n1) = self.featuregen.forward(tape, &self.store, ops, v_c0, v_n0);
        let (mut v_c, mut v_n) = (v_c1, v_n1);
        for block in &self.hypermp {
            let (c, n) = block.forward(tape, &self.store, ops, v_c, v_n, v_c1, v_n1);
            v_c = c;
            v_n = n;
        }
        for block in &self.lattice_encode {
            v_c = block.forward(tape, &self.store, ops, v_c);
        }
        // Joint learning phase.
        for block in &self.lattice_joint {
            v_c = block.forward(tape, &self.store, ops, v_c);
        }
        let cls_logits = self.cls_head.forward(tape, &self.store, v_c);
        let reg = self.reg_head.forward(tape, &self.store, v_c);
        LhnnOutput { cls_logits, reg }
    }

    /// Inference: returns dense probability and regression maps (the
    /// tape-free [`CongestionModel::predict`]).
    pub fn predict(&self, ops: &GraphOps, features: &FeatureSet) -> Prediction {
        CongestionModel::predict(self, ops, features)
    }

    /// A content fingerprint over the architecture and every weight tensor.
    ///
    /// Serving registries use this as the model *version*: retraining,
    /// fine-tuning or loading a different checkpoint all change the value,
    /// so stale cache entries can never be served for updated weights.
    pub fn weights_fingerprint(&self) -> u64 {
        let mut h = neurograd::Fnv64::new();
        h.write_usize(self.cfg.hidden);
        h.write_usize(self.cfg.hypermp_layers);
        h.write_usize(self.cfg.latticemp_encode_layers);
        h.write_usize(self.cfg.latticemp_joint_layers);
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

impl CongestionModel for Lhnn {
    fn kind(&self) -> &'static str {
        "lhnn"
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

    fn channel_mode(&self) -> lh_graph::ChannelMode {
        self.cfg.channel_mode
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn configure_pool(&self) {
        Lhnn::configure_pool(self);
    }

    fn weights_fingerprint(&self) -> u64 {
        Lhnn::weights_fingerprint(self)
    }

    fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput {
        Lhnn::forward(self, tape, ops, features)
    }

    fn new_activation_cache(
        &self,
        weights_version: u64,
        n_c: usize,
        n_n: usize,
    ) -> Box<dyn ActivationCache> {
        Box::new(ActivationState::new(self, weights_version, n_c, n_n))
    }

    fn save_to(&self, w: &mut dyn std::io::Write) -> Result<(), crate::serialize::ModelIoError> {
        self.save(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationSpec;
    use lh_graph::{ChannelMode, LhGraph, LhGraphConfig};
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
    fn forward_shapes_uni() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 1));
        assert_eq!(pred.reg.shape(), (ops.num_gcells, 1));
        assert!(pred.cls_prob.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn forward_shapes_duo() {
        let (ops, feats) = sample();
        let cfg = LhnnConfig { channel_mode: ChannelMode::Duo, ..Default::default() };
        let model = Lhnn::new(cfg, 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 2));
    }

    #[test]
    fn predict_into_reuses_scratch_and_matches_predict() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 3);
        let direct = model.predict(&ops, &feats);
        let mut scratch = model.new_scratch();
        for _ in 0..3 {
            let again = model.predict_with(&ops, &feats, scratch.as_mut());
            // bitwise equality — tolerance 0.0
            assert!(direct.cls_prob.approx_eq(&again.cls_prob, 0.0));
            assert!(direct.reg.approx_eq(&again.reg, 0.0));
        }
        // the scratch keeps its activation cache, shaped to this request
        let kept = format!("Some((\"lhnn\", {}, {}))", feats.gcell.rows(), feats.gnet.rows());
        assert!(format!("{scratch:?}").contains(&kept), "{scratch:?}");
    }

    #[test]
    fn fused_predict_matches_taped_forward() {
        // The tape-free inference path must stay bitwise identical to
        // recording the forward on a tape and applying the sigmoid — the
        // invariant every serving parity pin ultimately rests on.
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 5);
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
    fn weights_fingerprint_tracks_weights_and_config() {
        let a = Lhnn::new(LhnnConfig::default(), 0);
        let b = Lhnn::new(LhnnConfig::default(), 0);
        assert_eq!(a.weights_fingerprint(), b.weights_fingerprint());
        let other_seed = Lhnn::new(LhnnConfig::default(), 1);
        assert_ne!(a.weights_fingerprint(), other_seed.weights_fingerprint());
        let other_cfg = Lhnn::new(LhnnConfig { hidden: 16, ..Default::default() }, 0);
        assert_ne!(a.weights_fingerprint(), other_cfg.weights_fingerprint());
        // mutating any tensor changes the version
        let mut c = Lhnn::new(LhnnConfig::default(), 0);
        let id = c.store().id_at(0);
        c.store_mut().param_mut(id).value.as_mut_slice()[0] += 1.0;
        assert_ne!(a.weights_fingerprint(), c.weights_fingerprint());
    }

    #[test]
    fn threads_knob_changes_neither_fingerprint_nor_predictions() {
        let (ops, feats) = sample();
        let base = Lhnn::new(LhnnConfig::default(), 2);
        let threaded = Lhnn::new(LhnnConfig { threads: 4, ..Default::default() }, 2);
        assert_eq!(
            base.weights_fingerprint(),
            threaded.weights_fingerprint(),
            "threads is a runtime knob, not architecture"
        );
        let a = base.predict(&ops, &feats);
        let b = threaded.predict(&ops, &feats);
        assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0));
        assert!(a.reg.approx_eq(&b.reg, 0.0));
    }

    #[test]
    fn init_is_seed_deterministic() {
        let (ops, feats) = sample();
        let a = Lhnn::new(LhnnConfig::default(), 7).predict(&ops, &feats);
        let b = Lhnn::new(LhnnConfig::default(), 7).predict(&ops, &feats);
        let c = Lhnn::new(LhnnConfig::default(), 8).predict(&ops, &feats);
        assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0));
        assert!(!a.cls_prob.approx_eq(&c.cls_prob, 1e-6));
    }

    #[test]
    fn ablated_models_still_run() {
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
        let model = Lhnn::new(LhnnConfig::default(), 0);
        for spec in [
            AblationSpec::without_featuregen(),
            AblationSpec::without_hypermp(),
            AblationSpec::without_latticemp(),
        ] {
            let ops = GraphOps::from_graph(&graph, &spec);
            let pred = model.predict(&ops, &feats);
            assert!(pred.cls_prob.is_finite(), "{spec:?} produced non-finite output");
        }
    }

    #[test]
    fn parameter_count_is_stable_across_ablation() {
        // edge ablations must not change the parameter count
        let full = Lhnn::new(LhnnConfig::default(), 0).num_parameters();
        let again = Lhnn::new(LhnnConfig::default(), 1).num_parameters();
        assert_eq!(full, again);
        assert!(full > 10_000, "suspiciously small model: {full}");
    }

    #[test]
    fn gradient_flows_to_all_parameters() {
        let (ops, feats) = sample();
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let s1 = tape.sum_all(out.cls_logits);
        let s2 = tape.sum_all(out.reg);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        model.store_mut().absorb_grads(&mut tape);
        let with_grad =
            model.store().iter().filter(|p| p.grad.as_slice().iter().any(|&g| g != 0.0)).count();
        let total = model.store().len();
        // every parameter tensor should receive gradient (relu dead units
        // can zero a few, allow some slack)
        assert!(
            with_grad * 10 >= total * 8,
            "only {with_grad}/{total} parameter tensors got gradients"
        );
    }
}

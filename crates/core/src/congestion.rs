//! The [`CongestionModel`] trait: the model-agnostic contract the whole
//! serving stack (registry, worker pool, prediction cache, sessions,
//! incremental forward) is written against.
//!
//! Everything above `lhnn-core` used to be [`crate::Lhnn`]-typed; this
//! module is the seam that de-couples it. A congestion predictor is
//! anything that can
//!
//! * run a **taped forward** (for the data-parallel trainer),
//! * produce an **activation cache** ([`ActivationCache`]): the tensors a
//!   row-subset refresh reads outside the rows it recomputes, plus shared
//!   row-local temporaries, refreshed over all rows for a stateless
//!   predict ([`CongestionModel::predict_with`] — the serving hot path)
//!   or over a dilated dirty halo by the bounded-radius incremental
//!   forward ([`crate::IncrementalForward`]),
//! * fingerprint its weights (the registry's cache-coherent *version*),
//! * and serialise itself under a kind tag (`.lhnn` v2).
//!
//! Two architectures implement it today: [`crate::Lhnn`] (kind `lhnn`)
//! and [`crate::HybridNet`] (kind `hybridnet`). Sibling models (VeriHGN,
//! DE-HNN, …) plug in by implementing this trait — the engine, sessions,
//! CLI and benches ride along unchanged.
//!
//! # Bitwise contract
//!
//! Implementations must keep their two forward paths — taped
//! ([`CongestionModel::forward`] + sigmoid) and row-subset (the
//! [`ActivationCache`] refreshes, full or spliced) — **bitwise
//! identical** on the same inputs at any thread count. Every serving
//! parity proptest (served == direct, spliced == full) rests on that
//! invariant; `tests/forward_parity.rs` pins the refresh to the tape.

use std::any::Any;
use std::io::Write;

use lh_graph::{ChannelMode, FeatureSet};
use neurograd::{ParamStore, Tape};

use crate::incremental::{ActivationCache, DilateTimer};
use crate::model::{LhnnOutput, Prediction};
use crate::ops::GraphOps;
use crate::serialize::ModelIoError;

/// Reusable scratch for stateless predicts: one activation cache, refreshed
/// over all rows by [`CongestionModel::predict_with`].
///
/// The cache is rebuilt only when the model's kind or architecture
/// (hidden width, channel count, block counts) or the request's
/// `(n_c, n_n)` differ from the last predict, so a long-lived worker
/// reuses every intermediate buffer across steady-state requests. Each
/// predict still allocates the two output matrices it returns. One
/// scratch belongs to one thread at a time; it is `Send`, so a pool can
/// move it between workers.
#[derive(Default)]
pub struct InferenceScratch {
    cache: Option<Box<dyn ActivationCache>>,
}

impl InferenceScratch {
    /// An empty scratch; the first predict builds its cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for InferenceScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = self.cache.as_ref().map(|c| (c.kind(), c.n_c(), c.n_n()));
        f.debug_struct("InferenceScratch").field("cache", &shape).finish()
    }
}

/// The congestion-prediction model contract (see the module docs).
///
/// Object-safe: the registry holds `Box<dyn CongestionModel>` and the
/// engine, sessions and trainer all work through `&dyn CongestionModel`.
pub trait CongestionModel: Send + Sync + std::fmt::Debug {
    /// Stable architecture tag (`"lhnn"`, `"hybridnet"`, …): the `.lhnn`
    /// serialization kind, the scratch-slot key and the `kind=` metrics
    /// label. Must be unique per architecture.
    fn kind(&self) -> &'static str;

    /// Downcast access (activation caches use it to reach their own
    /// model's concrete layers).
    fn as_any(&self) -> &dyn Any;

    /// Expected G-cell input feature width.
    fn gcell_in_dim(&self) -> usize;

    /// Expected G-net input feature width.
    fn gnet_in_dim(&self) -> usize;

    /// Hidden dimension (must be non-zero; registries validate it).
    fn hidden(&self) -> usize;

    /// Output channel mode (uni/duo).
    fn channel_mode(&self) -> ChannelMode;

    /// The parameter store (read access).
    fn store(&self) -> &ParamStore;

    /// The parameter store (mutable, for the optimiser).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Applies the model's thread-count request to the shared compute
    /// pool (no-op when unset).
    fn configure_pool(&self);

    /// Content fingerprint over architecture + every weight tensor — the
    /// serving *version*. Must change whenever predictions could, and
    /// must never collide across kinds (hash the kind into it).
    fn weights_fingerprint(&self) -> u64;

    /// Runs the forward pass on a tape (the training path).
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput;

    /// A zeroed full-size activation cache for the incremental forward,
    /// shaped to `(n_c, n_n)` and stamped with `weights_version`.
    fn new_activation_cache(
        &self,
        weights_version: u64,
        n_c: usize,
        n_n: usize,
    ) -> Box<dyn ActivationCache>;

    /// Writes the model (kind tag + architecture + weights) in the
    /// `.lhnn` v2 format; [`crate::load_model`] restores it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn save_to(&self, w: &mut dyn Write) -> Result<(), ModelIoError>;

    /// Number of output channels.
    fn channels(&self) -> usize {
        self.channel_mode().channels()
    }

    /// Number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.store().num_scalars()
    }

    /// A fresh scratch for [`CongestionModel::predict_with`] (boxed, so
    /// callers hand it over as `scratch.as_mut()`).
    fn new_scratch(&self) -> Box<InferenceScratch> {
        Box::default()
    }

    /// Tape-free inference through caller-owned scratch — the serving hot
    /// path. Runs this model's own [`ActivationCache::refresh_full`] (all
    /// rows, no halo growth) in `scratch`'s cache, rebuilding the cache
    /// first when it was laid out for another kind, architecture or
    /// `(n_c, n_n)`. Bitwise identical to [`CongestionModel::forward`] on
    /// a tape plus a sigmoid.
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    fn predict_with(
        &self,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut InferenceScratch,
    ) -> Prediction {
        assert_eq!(features.gcell.cols(), self.gcell_in_dim(), "g-cell feature dim mismatch");
        assert_eq!(features.gnet.cols(), self.gnet_in_dim(), "g-net feature dim mismatch");
        let (n_c, n_n) = (features.gcell.rows(), features.gnet.rows());
        // Taken out for the refresh, so a panic mid-forward drops it.
        let mut cache = match scratch.cache.take() {
            Some(c) if c.fits(self.as_any(), n_c, n_n) => c,
            _ => self.new_activation_cache(0, n_c, n_n),
        };
        cache.refresh_full(self.as_any(), ops, features, &mut DilateTimer::new(false));
        let pred = cache.cached_prediction();
        scratch.cache = Some(cache);
        pred
    }

    /// One-shot inference through a fresh scratch (convenience; hot paths
    /// should reuse a [`ScratchSet`]).
    fn predict(&self, ops: &GraphOps, features: &FeatureSet) -> Prediction {
        self.predict_with(ops, features, &mut InferenceScratch::new())
    }
}

/// A worker's per-kind scratch pool: one [`InferenceScratch`] per model
/// kind, created lazily on first use and reused for every later request of
/// that kind — so a single long-lived worker serving a mixed zoo keeps one
/// activation cache per kind instead of rebuilding on every switch.
#[derive(Debug, Default)]
pub struct ScratchSet {
    slots: Vec<(&'static str, InferenceScratch)>,
}

impl ScratchSet {
    /// An empty set; slots appear as kinds are first served.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch slot for `model`'s kind, created on first use.
    pub fn for_model(&mut self, model: &dyn CongestionModel) -> &mut InferenceScratch {
        let kind = model.kind();
        let idx = match self.slots.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.slots.push((kind, InferenceScratch::new()));
                self.slots.len() - 1
            }
        };
        &mut self.slots[idx].1
    }

    /// Tape-free inference through the model's own pooled scratch.
    pub fn predict(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
    ) -> Prediction {
        let scratch = self.for_model(model);
        model.predict_with(ops, features, scratch)
    }

    /// Number of distinct kinds this set holds scratch for.
    pub fn kinds(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationSpec;
    use crate::{HybridNet, HybridNetConfig, Lhnn, LhnnConfig};
    use lh_graph::{LhGraph, LhGraphConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;

    fn design(seed: u64, n_cells: usize, nx: u32, ny: u32) -> (GraphOps, FeatureSet) {
        let cfg = SynthConfig { seed, n_cells, grid_nx: nx, grid_ny: ny, ..SynthConfig::default() };
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
    fn scratch_set_rebuilds_on_config_and_shape_changes() {
        // Slots are keyed by kind only, so the reused cache itself must
        // notice a different architecture or (n_c, n_n) of the same kind.
        let a = design(1, 150, 8, 8);
        let b = design(2, 180, 10, 7);
        assert_ne!((a.1.gcell.rows(), a.1.gnet.rows()), (b.1.gcell.rows(), b.1.gnet.rows()));
        let lhnn32 = Lhnn::new(LhnnConfig::default(), 0);
        let lhnn16 = Lhnn::new(
            LhnnConfig {
                hidden: 16,
                hypermp_layers: 1,
                channel_mode: ChannelMode::Duo,
                ..Default::default()
            },
            1,
        );
        let hybrid = HybridNet::new(HybridNetConfig::default(), 2);
        let steps: [(&dyn CongestionModel, &(GraphOps, FeatureSet)); 4] =
            [(&lhnn32, &a), (&lhnn16, &a), (&hybrid, &b), (&lhnn32, &b)];
        let mut set = ScratchSet::new();
        for (i, (model, (ops, feats))) in steps.into_iter().enumerate() {
            let served = set.predict(model, ops, feats);
            let fresh = model.predict(ops, feats);
            assert!(fresh.cls_prob.approx_eq(&served.cls_prob, 0.0), "step {i}: cls diverged");
            assert!(fresh.reg.approx_eq(&served.reg, 0.0), "step {i}: reg diverged");
        }
        assert_eq!(set.kinds(), 2);
    }
}

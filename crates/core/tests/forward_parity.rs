//! Tape-anchored forward parity: the tape-free `predict` (the all-rows
//! activation-cache refresh that also serves spliced and stateless
//! predicts) must equal the taped training forward plus a sigmoid, bit
//! for bit.
//!
//! Served, spliced and direct predicts all run through the same row-subset
//! refresh, so the taped `forward` is the only independent reference left.
//! This property sweeps both architectures, both channel modes, the
//! operator ablations and random design sizes (including non-square
//! grids), with the tape-free side at 1..4 compute threads.

use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{AblationSpec, CongestionModel, GraphOps, HybridNet, HybridNetConfig, Lhnn, LhnnConfig};
use neurograd::{pool, Matrix, Tape};
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Builds the graph operators and normalized features of a placed synthetic
/// design, or `None` when the size filter leaves no nets to build from.
fn inputs(
    seed: u64,
    n_cells: usize,
    nx: u32,
    ny: u32,
    spec: &AblationSpec,
) -> Option<(GraphOps, FeatureSet)> {
    let cfg = SynthConfig { seed, n_cells, grid_nx: nx, grid_ny: ny, ..SynthConfig::default() };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    let graph =
        LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default()).ok()?;
    let feats =
        FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).ok()?.normalized();
    Some((GraphOps::from_graph(&graph, spec), feats))
}

fn build_model(kind: usize, hidden: usize, channel_mode: ChannelMode) -> Box<dyn CongestionModel> {
    match kind {
        0 => Box::new(Lhnn::new(LhnnConfig { hidden, channel_mode, ..Default::default() }, 3)),
        _ => Box::new(HybridNet::new(
            HybridNetConfig { hidden, channel_mode, ..Default::default() },
            3,
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn predict_matches_taped_forward_bitwise(
        seed in 0u64..1000,
        n_cells in 60usize..200,
        nx in 4u32..13,
        ny in 4u32..13,
        kind in 0usize..2,
        duo in 0usize..2,
        ablation in 0usize..4,
        hidden_ix in 0usize..3,
        threads in 1usize..5,
    ) {
        let spec = [
            AblationSpec::full(),
            AblationSpec::without_featuregen(),
            AblationSpec::without_hypermp(),
            AblationSpec::without_latticemp(),
        ][ablation]
            .clone();
        let Some((ops, feats)) = inputs(seed, n_cells, nx, ny, &spec) else {
            return;
        };
        let mode = if duo == 1 { ChannelMode::Duo } else { ChannelMode::Uni };
        let model = build_model(kind, [8, 16, 32][hidden_ix], mode);

        pool::configure_threads(1);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let prob = tape.sigmoid(out.cls_logits);
        let (taped_prob, taped_reg) = (tape.value(prob).clone(), tape.value(out.reg).clone());

        pool::configure_threads(threads);
        let pred = model.predict(&ops, &feats);
        pool::configure_threads(1);

        prop_assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, mode.channels()));
        prop_assert!(
            bits(&pred.cls_prob) == bits(&taped_prob) && bits(&pred.reg) == bits(&taped_reg),
            "tape-free predict diverged from the taped forward \
             (kind {}, {:?}, {:?}, {}x{} grid, {} threads)",
            model.kind(),
            mode,
            spec,
            nx,
            ny,
            threads
        );
    }
}

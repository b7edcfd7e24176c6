//! Acceptance proptests for the bounded-radius incremental forward
//! ([`lhnn::IncrementalForward`]):
//!
//! 1. **Bitwise splice parity**: over random delta sequences — small
//!    nudges, cross-die jumps, and structural size-filter crossings — the
//!    spliced prediction is bitwise identical to a from-scratch
//!    [`lhnn::Lhnn::predict`] on the same inputs, with the splice running
//!    at 1..4 compute threads and the reference at 1.
//! 2. **Halo coverage** (the property the splice relies on): the ≤5-hop
//!    receptive-field halo of a dirty set, re-derived here from the
//!    public [`lh_graph::halo`] primitives, contains every G-cell row
//!    whose full-forward output changes.

use std::sync::Arc;

use lh_graph::halo::{canonicalize, dilate, union_sorted};
use lhnn::{
    CongestionModel, ForwardDirty, HybridNet, HybridNetConfig, IncrementalForward,
    InvalidationCause, LatticePipeline, Lhnn, LhnnConfig, PipelineUpdate, RebuildCause,
    SpliceOutcome,
};
use neurograd::{pool, Matrix};
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{CellId, NetId, PlacementDelta, Point};
use vlsi_place::GlobalPlacer;

fn pipeline(seed: u64, n_cells: usize, side: u32) -> LatticePipeline {
    let cfg = SynthConfig { seed, n_cells, grid_nx: side, grid_ny: side, ..SynthConfig::default() };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    LatticePipeline::for_serving(Arc::new(synth.circuit), placed.placement, grid).expect("build")
}

/// `kind % 2`: 0 → [`Lhnn`], 1 → [`HybridNet`] — both splice through the
/// same [`IncrementalForward`] engine.
fn build_model(kind: usize, seed: u64) -> Box<dyn CongestionModel> {
    match kind % 2 {
        0 => Box::new(Lhnn::new(LhnnConfig::default(), seed)),
        _ => Box::new(HybridNet::new(HybridNetConfig::default(), seed)),
    }
}

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn row_bits(m: &Matrix, row: usize) -> Vec<u32> {
    let c = m.shape().1;
    m.as_slice()[row * c..(row + 1) * c].iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drives a pipeline + [`IncrementalForward`] pair exactly the way a
    /// serving session does — `Incremental` outcomes noted as dirt,
    /// `FullRebuild` outcomes noted as structural — and checks every
    /// prediction bitwise against a from-scratch forward, for EITHER
    /// architecture behind [`CongestionModel`].
    #[test]
    fn spliced_forward_matches_full_forward_bitwise(
        seed in 0u64..3,
        model_kind in 0usize..2,
        moves in proptest::collection::vec(
            (0usize..4096, 0.0f32..1.0, 0.0f32..1.0, 0u32..2), 1..10),
        chunk in 1usize..4,
        threads in 1usize..4,
    ) {
        let mut p = pipeline(seed, 110, 8);
        let die = p.circuit().die;
        let grid = p.grid().clone();
        let model = build_model(model_kind, seed);
        let model = model.as_ref();
        let version = model.weights_fingerprint();
        let incr = IncrementalForward::new();
        let n_cells = p.circuit().num_cells();
        for group in moves.chunks(chunk) {
            let mut delta = PlacementDelta::new();
            for &(cell, fx, fy, nudge) in group {
                let id = CellId((cell % n_cells) as u32);
                // `nudge` keeps the move sub-g-cell (likely incremental);
                // otherwise jump anywhere on the die (often structural)
                let target = if nudge == 0 {
                    let pos = p.placement().position(id);
                    die.clamp(Point::new(
                        pos.x + (fx - 0.5) * grid.gcell_width(),
                        pos.y + (fy - 0.5) * grid.gcell_height(),
                    ))
                } else {
                    Point::new(die.lx + fx * die.width(), die.ly + fy * die.height())
                };
                delta.push(id, target);
            }
            match p.apply(&delta) {
                Ok(PipelineUpdate::Incremental { dirty_nets, dirty_gcells }) => {
                    incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
                }
                Ok(PipelineUpdate::FullRebuild { cause }) => {
                    incr.note_structural(InvalidationCause::from(&cause));
                }
                Ok(PipelineUpdate::Noop) => {}
                // every net dropped by the filter: nothing to forward
                Err(_) => return,
            }
            let (ops, features) = (p.ops(), p.features());
            pool::configure_threads(threads);
            let (spliced, _path) = incr.predict(model, version, &ops, &features, incr.seq());
            pool::configure_threads(1);
            let full = model.predict(&ops, &features);
            prop_assert!(
                bitwise_eq(&spliced.cls_prob, &full.cls_prob)
                    && bitwise_eq(&spliced.reg, &full.reg),
                "spliced prediction diverged from the full forward \
                 (kind {}, threads {})",
                model.kind(),
                threads
            );
        }
    }

    /// Forced out-and-back size-filter crossings must splice, not
    /// rebuild: stable G-net columns turn a crossing into tombstone/
    /// revive/append patches riding the ordinary dirty sets, so the
    /// activation cache survives and every spliced prediction stays
    /// bitwise identical to a full forward at 1..4 threads. The only
    /// full rebuilds allowed between crossings are lazy compactions.
    #[test]
    fn forced_crossings_splice_without_rebuilds(
        seed in 0u64..3,
        yanks in proptest::collection::vec(0usize..4096, 1..5),
        threads in 1usize..4,
    ) {
        let mut p = pipeline(seed, 110, 8);
        let die = p.circuit().die;
        let model = Lhnn::new(LhnnConfig::default(), seed);
        let version = model.weights_fingerprint();
        let incr = IncrementalForward::new();
        let n_cells = p.circuit().num_cells();
        for &cell in &yanks {
            let id = CellId((cell % n_cells) as u32);
            let home = p.placement().position(id);
            // Yank the cell to the far corner (stretching its nets past
            // the 5% size filter), then put it back home: two crossings.
            for target in [Point::new(die.ux, die.uy), home] {
                match p.apply(&PlacementDelta::single(id, target)) {
                    Ok(PipelineUpdate::Incremental { dirty_nets, dirty_gcells }) => {
                        incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
                    }
                    Ok(PipelineUpdate::Noop) => {}
                    Ok(PipelineUpdate::FullRebuild { cause }) => {
                        prop_assert!(
                            matches!(cause, RebuildCause::Compaction { .. }),
                            "only compaction may rebuild on a crossing loop, got {:?}", cause
                        );
                        incr.note_structural(InvalidationCause::from(&cause));
                    }
                    Err(e) => panic!("apply failed: {e}"),
                }
                let (ops, features) = (p.ops(), p.features());
                pool::configure_threads(threads);
                let (spliced, _path) = incr.predict(&model, version, &ops, &features, incr.seq());
                pool::configure_threads(1);
                let full = model.predict(&ops, &features);
                prop_assert!(
                    bitwise_eq(&spliced.cls_prob, &full.cls_prob)
                        && bitwise_eq(&spliced.reg, &full.reg),
                    "crossing prediction diverged from the full forward (threads {})",
                    threads
                );
            }
        }
        let stats = p.stats();
        prop_assert_eq!(
            stats.full_rebuilds, stats.rebuilds_compaction,
            "only compactions may rebuild between crossings: {:?}", stats
        );
        prop_assert_eq!(stats.rebuilds_filter_crossing, 0);
    }

    /// Re-derives the receptive-field halo of an incremental update's
    /// dirty sets by dilating them through the operators' sparsity — one
    /// `H` hop, two hops per HyperMP block, one hop per LatticeMP block —
    /// and checks it contains every G-cell row whose full-forward output
    /// changed. A row outside the halo with a changed output would be
    /// served stale by the splice path.
    #[test]
    fn halo_contains_every_row_the_forward_changes(
        seed in 0u64..4,
        cell in 0usize..4096,
        fx in -0.9f32..0.9,
        fy in -0.9f32..0.9,
    ) {
        let mut p = pipeline(seed, 110, 8);
        let die = p.circuit().die;
        let grid = p.grid().clone();
        let cfg = LhnnConfig::default();
        let model = Lhnn::new(cfg.clone(), seed);

        let (ops_before, feats_before) = (p.ops(), p.features());
        let before = model.predict(&ops_before, &feats_before);

        let id = CellId((cell % p.circuit().num_cells()) as u32);
        let pos = p.placement().position(id);
        let target = die.clamp(Point::new(
            pos.x + fx * grid.gcell_width(),
            pos.y + fy * grid.gcell_height(),
        ));
        let outcome = match p.apply(&PlacementDelta::single(id, target)) {
            Ok(o) => o,
            Err(_) => return,
        };
        let PipelineUpdate::Incremental { dirty_nets, dirty_gcells } = outcome else {
            // Noop (nothing changed) or FullRebuild (no halo to check)
            return;
        };

        // mirror the splice path's layer-by-layer dilation
        let ops = p.ops();
        let mut dc = canonicalize(dirty_gcells);
        let mut dn = canonicalize(dirty_nets);
        dc = union_sorted(&dc, &dilate(ops.gnc_sum.transpose_cached(), &dn));
        for _ in 0..cfg.hypermp_layers {
            dn = union_sorted(&dn, &dilate(ops.gcn_mean.transpose_cached(), &dc));
            dc = union_sorted(&dc, &dilate(ops.gnc_mean.transpose_cached(), &dn));
        }
        for _ in 0..cfg.latticemp_encode_layers + cfg.latticemp_joint_layers {
            dc = union_sorted(&dc, &dilate(ops.lattice_mean.transpose_cached(), &dc));
        }

        let after = model.predict(&ops, &p.features());
        prop_assert_eq!(before.cls_prob.shape(), after.cls_prob.shape());
        let mut halo = dc.iter().copied().peekable();
        for row in 0..ops.num_gcells {
            if halo.peek() == Some(&row) {
                halo.next();
                continue;
            }
            prop_assert!(
                row_bits(&before.cls_prob, row) == row_bits(&after.cls_prob, row)
                    && row_bits(&before.reg, row) == row_bits(&after.reg, row),
                "G-cell row {} changed outside the {}-row halo of a {}-cell dirty set",
                row, dc.len(), ops.num_gcells
            );
        }
    }
}

/// The splice path must actually engage end-to-end (no silent always-full
/// fallback): a sub-g-cell nudge after a primed cache takes
/// [`SpliceOutcome::Spliced`] with a halo strictly smaller than the grid.
#[test]
fn small_nudge_takes_the_splice_path() {
    let mut p = pipeline(11, 150, 10);
    let die = p.circuit().die;
    let grid = p.grid().clone();
    let model = Lhnn::new(LhnnConfig::default(), 0);
    let version = model.weights_fingerprint();
    let incr = IncrementalForward::new();
    let (_, path) = incr.predict(&model, version, &p.ops(), &p.features(), incr.seq());
    assert_eq!(path, SpliceOutcome::Full, "first forward must be full");

    // nudge movable cells until one yields an incremental outcome
    for i in 0..p.circuit().num_cells() {
        let id = CellId(i as u32);
        if p.circuit().cell(id).is_terminal() {
            continue;
        }
        let pos = p.placement().position(id);
        let target = die
            .clamp(Point::new(pos.x + 0.4 * grid.gcell_width(), pos.y + 0.4 * grid.gcell_height()));
        match p.apply(&PlacementDelta::single(id, target)).expect("apply") {
            PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
                let (spliced, path) =
                    incr.predict(&model, version, &p.ops(), &p.features(), incr.seq());
                let SpliceOutcome::Spliced { gcell_rows, .. } = path else {
                    panic!("nudge after a primed cache must splice, got {path:?}");
                };
                assert!(
                    gcell_rows < p.ops().num_gcells,
                    "halo ({gcell_rows} rows) must be smaller than the grid"
                );
                let full = model.predict(&p.ops(), &p.features());
                assert!(
                    spliced.cls_prob.approx_eq(&full.cls_prob, 0.0)
                        && spliced.reg.approx_eq(&full.reg, 0.0)
                );
                return;
            }
            _ => continue,
        }
    }
    panic!("no cell produced an incremental update");
}

/// A net the size filter dropped at build time that shrinks back under it
/// gets a fresh G-net column appended at the end of the column space. The
/// activation cache must then widen its G-net tensors and temporaries in
/// place and splice, bitwise equal to a full forward, for both
/// architectures at 1..3 threads.
#[test]
fn entering_nets_append_columns_and_splice_bitwise() {
    let mut appended_splices = 0;
    for seed in 0..3u64 {
        for kind in 0..2 {
            let mut p = pipeline(seed, 110, 8);
            let model = build_model(kind, seed);
            let model = model.as_ref();
            let version = model.weights_fingerprint();
            let incr = IncrementalForward::new();
            incr.predict(model, version, &p.ops(), &p.features(), incr.seq());
            let circuit = Arc::clone(p.circuit());
            // dropped nets on movable cells only, so every pin can move
            let dropped: Vec<NetId> = (0..circuit.nets().len() as u32)
                .map(NetId)
                .filter(|&n| p.graph().net_column(n).is_none())
                .filter(|&n| {
                    circuit.net(n).pins.iter().all(|pin| !circuit.cell(pin.cell).is_terminal())
                })
                .take(3)
                .collect();
            for (step, &net) in dropped.iter().enumerate() {
                if p.graph().net_column(net).is_some() {
                    continue;
                }
                // pile every pin cell of the net onto its first cell
                let pins = &circuit.net(net).pins;
                let anchor = p.placement().position(pins[0].cell);
                let mut delta = PlacementDelta::new();
                for pin in pins {
                    delta.push(pin.cell, anchor);
                }
                let n_n = p.features().gnet.rows();
                match p.apply(&delta).expect("apply") {
                    PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                        incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
                    }
                    PipelineUpdate::FullRebuild { cause } => {
                        incr.note_structural(InvalidationCause::from(&cause));
                    }
                    PipelineUpdate::Noop => {}
                }
                let (ops, features) = (p.ops(), p.features());
                let threads = 1 + step % 3;
                pool::configure_threads(threads);
                let (spliced, path) = incr.predict(model, version, &ops, &features, incr.seq());
                pool::configure_threads(1);
                let full = model.predict(&ops, &features);
                assert!(
                    bitwise_eq(&spliced.cls_prob, &full.cls_prob)
                        && bitwise_eq(&spliced.reg, &full.reg),
                    "append splice diverged from the full forward (kind {}, threads {threads})",
                    model.kind()
                );
                if features.gnet.rows() > n_n && matches!(path, SpliceOutcome::Spliced { .. }) {
                    appended_splices += 1;
                }
            }
        }
    }
    assert!(appended_splices > 0, "no entering net appended a column and spliced");
}

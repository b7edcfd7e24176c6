//! A placed synthetic design with its placer trace: the input every
//! workload starts from, and the unit every layer probe runs on.

use std::sync::Arc;

use vlsi_netlist::geometry::Rect;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{Circuit, GcellGrid, Placement, PlacementDelta};
use vlsi_place::GlobalPlacer;

use crate::trace::{ms, Tracer};

/// One design, placed by `GlobalPlacer::place_synth_traced`, and its
/// replay cycle.
pub struct TracedDesign {
    /// The design's name.
    pub name: String,
    /// The netlist.
    pub circuit: Arc<Circuit>,
    /// Macro outlines (routing blockages).
    pub macro_rects: Vec<Rect>,
    /// The G-cell grid.
    pub grid: GcellGrid,
    /// The placement the trace starts from.
    pub initial: Placement,
    /// The placer's final placement.
    pub placed: Placement,
    /// One full cycle: the trace's deltas, then the restoring deltas in
    /// reverse order. The cycle ends where it started.
    pub steps: Vec<PlacementDelta>,
    /// Deltas in the forward half.
    pub forward_len: usize,
    /// Time of the traced placement (ms).
    pub place_ms: f64,
}

impl TracedDesign {
    /// Generates and places the design of `cfg`, timing the placement as
    /// the `place.trace` span.
    pub fn build(cfg: &SynthConfig, tr: &Tracer) -> Self {
        let synth = generate(cfg).expect("synthetic design generates");
        let grid = cfg.grid();
        let (placed, d) =
            tr.time("place.trace", 0, || GlobalPlacer::default().place_synth_traced(&synth, &grid));
        let (result, trace) = placed.expect("placement converges");
        let mut at = trace.initial.clone();
        let mut restore = Vec::with_capacity(trace.deltas.len());
        for delta in &trace.deltas {
            restore.push(PlacementDelta::from_moves(
                delta.moves().iter().map(|&(c, _)| (c, at.position(c))).collect(),
            ));
            delta.apply(&mut at);
        }
        let forward_len = trace.deltas.len();
        let mut steps = trace.deltas;
        steps.extend(restore.into_iter().rev());
        TracedDesign {
            name: cfg.name.clone(),
            circuit: Arc::new(synth.circuit),
            macro_rects: synth.macro_rects,
            grid,
            initial: trace.initial,
            placed: result.placement,
            steps,
            forward_len,
            place_ms: ms(d),
        }
    }

    /// The forward half of the cycle: the placer's own trace.
    pub fn trace(&self) -> &[PlacementDelta] {
        &self.steps[..self.forward_len]
    }
}

/// Builds `n` designs spread over `threads` threads, in index order;
/// `cfg(i)` gives design `i`'s configuration.
pub fn build_all(
    n: usize,
    threads: usize,
    tr: &Tracer,
    cfg: impl Fn(usize) -> SynthConfig + Sync,
) -> Vec<TracedDesign> {
    let threads = threads.max(1);
    let cfg = &cfg;
    let mut built: Vec<(usize, TracedDesign)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, TracedDesign::build(&cfg(i), tr)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().expect("design thread")).collect()
    });
    built.sort_by_key(|b| b.0);
    built.into_iter().map(|(_, d)| d).collect()
}

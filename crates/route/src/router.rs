//! The global router: pattern routing + negotiated rip-up-and-reroute.
//!
//! This is the NCTU-GR 2.0 stand-in that produces the paper's ground-truth
//! labels. The flow is the classic PathFinder negotiation:
//!
//! 1. decompose every net into MST segments ([`crate::decompose`]),
//! 2. pattern-route every segment in deterministic order
//!    ([`crate::pattern`]),
//! 3. repeat: find overflowed edges, bump their history cost, rip up the
//!    segments crossing them and maze-reroute ([`crate::maze`]) under the
//!    updated costs,
//! 4. project edge usage/capacity onto per-G-cell demand maps and
//!    threshold into congestion masks ([`crate::maps::LabelMaps`]).

use vlsi_netlist::{Circuit, GcellCoord, GcellGrid, Placement, Rect};

use crate::capacity::{build_capacity, CapacityConfig};
use crate::cost::CostModel;
use crate::decompose::{decompose_net, Segment};
use crate::error::{Result, RouteError};
use crate::maps::{Dir, EdgeField, LabelMaps};
use crate::maze::maze_route;
use crate::pattern::pattern_route;

/// Router configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Capacity model (tracks + blockage factor).
    pub capacity: CapacityConfig,
    /// Congestion cost model.
    pub cost: CostModel,
    /// Rip-up-and-reroute rounds.
    pub rrr_rounds: usize,
    /// History increment added to each overflowed edge per round.
    pub history_increment: f32,
    /// Upper bound on segments maze-rerouted per round (runtime guard).
    pub max_reroutes_per_round: usize,
    /// Keep the final per-net paths in the result (enables
    /// [`RouteResult::net_paths`] and congestion attribution; costs
    /// memory proportional to total wirelength).
    pub keep_paths: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            capacity: CapacityConfig::default(),
            cost: CostModel::default(),
            rrr_rounds: 6,
            history_increment: 1.5,
            max_reroutes_per_round: 4000,
            keep_paths: false,
        }
    }
}

/// The routed state of one design.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Final edge usage (demand).
    pub usage: EdgeField,
    /// Edge capacities (after blockages).
    pub capacity: EdgeField,
    /// History cost field after the final round (diagnostic).
    pub history: EdgeField,
    /// Per-G-cell demand/capacity label maps.
    pub labels: LabelMaps,
    /// Number of edges with demand above capacity.
    pub overflowed_edges: usize,
    /// Total overflow across edges.
    pub total_overflow: f32,
    /// Total routed wirelength in G-cell steps.
    pub wirelength: u64,
    /// Number of rip-up-and-reroute rounds actually executed.
    pub rounds_used: usize,
    /// Final routed paths per `(net id, segment)` — only populated with
    /// [`RouterConfig::keep_paths`].
    net_paths: Vec<(u32, Vec<GcellCoord>)>,
}

impl RouteResult {
    /// Congestion rate over both directions (fraction of G-cell/direction
    /// pairs congested) — the quantity reported in Table 1 of the paper.
    pub fn congestion_rate(&self) -> f64 {
        0.5 * (self.labels.congestion_rate(Dir::H) + self.labels.congestion_rate(Dir::V))
    }

    /// The routed paths of each segment, tagged with the owning net id.
    ///
    /// Empty unless the router ran with [`RouterConfig::keep_paths`].
    pub fn net_paths(&self) -> &[(u32, Vec<GcellCoord>)] {
        &self.net_paths
    }

    /// Congestion attribution: for every G-cell whose demand exceeds
    /// capacity in either direction, the ids of nets with wire crossing
    /// one of its overflowed edges — the candidates a placer would move
    /// or a router would detour.
    ///
    /// Returns `(g-cell index, contributing net ids)` pairs in ascending
    /// G-cell order. Requires [`RouterConfig::keep_paths`]; returns an
    /// empty vector otherwise.
    pub fn congestion_attribution(&self, grid: &GcellGrid) -> Vec<(usize, Vec<u32>)> {
        if self.net_paths.is_empty() {
            return Vec::new();
        }
        // overflowed edges -> contributing nets
        let mut per_cell: std::collections::BTreeMap<usize, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (net, path) in &self.net_paths {
            for w in path.windows(2) {
                let (dir, x, y) = EdgeField::edge_between(w[0], w[1]);
                if self.usage.get(dir, x, y) > self.capacity.get(dir, x, y) {
                    for cc in [w[0], w[1]] {
                        per_cell.entry(grid.index(cc)).or_default().push(*net);
                    }
                }
            }
        }
        per_cell
            .into_iter()
            .map(|(cell, mut nets)| {
                nets.sort_unstable();
                nets.dedup();
                (cell, nets)
            })
            .collect()
    }
}

/// Routes a placed circuit.
///
/// `blockages` are macro outlines that reduce capacity (pass the
/// `macro_rects` of a synthetic design, or an empty slice).
///
/// # Errors
///
/// Returns [`RouteError::InvalidConfig`] for a degenerate configuration.
pub fn route(
    circuit: &Circuit,
    placement: &Placement,
    grid: &GcellGrid,
    blockages: &[Rect],
    cfg: &RouterConfig,
) -> Result<RouteResult> {
    if cfg.capacity.h_tracks <= 0.0 || cfg.capacity.v_tracks <= 0.0 {
        return Err(RouteError::InvalidConfig("track counts must be positive".into()));
    }
    let capacity = build_capacity(grid, blockages, &cfg.capacity);
    let mut usage = EdgeField::zeros(grid);
    let mut history = EdgeField::zeros(grid);

    // 1–2. decompose and pattern-route in deterministic net order.
    let mut segments: Vec<Segment> = Vec::new();
    let mut segment_net: Vec<u32> = Vec::new();
    for (ni, net) in circuit.nets().iter().enumerate() {
        let segs = decompose_net(net, placement, grid);
        segment_net.extend(std::iter::repeat(ni as u32).take(segs.len()));
        segments.extend(segs);
    }
    let mut paths: Vec<Vec<GcellCoord>> = Vec::with_capacity(segments.len());
    for seg in &segments {
        let path = pattern_route(seg, &usage, &capacity, &history, &cfg.cost);
        usage.add_path(&path, 1.0);
        paths.push(path);
    }

    // 3. negotiation rounds.
    let mut rounds_used = 0;
    for _ in 0..cfg.rrr_rounds {
        let over_now = usage.count_exceeding(&capacity);
        if over_now == 0 {
            break;
        }
        rounds_used += 1;
        // history bump on overflowed edges
        bump_history(&mut history, &usage, &capacity, cfg.history_increment);
        // collect offending segments (those crossing an overflowed edge)
        let mut victims: Vec<usize> = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            if path_overflows(path, &usage, &capacity) {
                victims.push(i);
                if victims.len() >= cfg.max_reroutes_per_round {
                    break;
                }
            }
        }
        for &i in &victims {
            let old = std::mem::take(&mut paths[i]);
            usage.add_path(&old, -1.0);
            let seg = segments[i];
            let new = maze_route(grid, seg.from, seg.to, &usage, &capacity, &history, &cfg.cost)
                .unwrap_or(old);
            usage.add_path(&new, 1.0);
            paths[i] = new;
        }
    }

    // 4. labels.
    let labels = LabelMaps {
        nx: grid.nx() as usize,
        ny: grid.ny() as usize,
        demand_h: usage.to_gcell_map(Dir::H),
        demand_v: usage.to_gcell_map(Dir::V),
        capacity_h: capacity.to_gcell_map(Dir::H),
        capacity_v: capacity.to_gcell_map(Dir::V),
    };
    let overflowed_edges = usage.count_exceeding(&capacity);
    let total_overflow = usage.total_overflow(&capacity);
    let wirelength = paths.iter().map(|p| p.len().saturating_sub(1) as u64).sum();
    let net_paths =
        if cfg.keep_paths { segment_net.into_iter().zip(paths).collect() } else { Vec::new() };
    Ok(RouteResult {
        usage,
        capacity,
        history,
        labels,
        overflowed_edges,
        total_overflow,
        wirelength,
        rounds_used,
        net_paths,
    })
}

fn bump_history(history: &mut EdgeField, usage: &EdgeField, capacity: &EdgeField, inc: f32) {
    let (nx, ny) = (usage.nx(), usage.ny());
    for y in 0..ny {
        for x in 0..nx - 1 {
            if usage.h(x, y) > capacity.h(x, y) {
                *history.h_mut(x, y) += inc;
            }
        }
    }
    for y in 0..ny - 1 {
        for x in 0..nx {
            if usage.v(x, y) > capacity.v(x, y) {
                *history.v_mut(x, y) += inc;
            }
        }
    }
}

fn path_overflows(path: &[GcellCoord], usage: &EdgeField, capacity: &EdgeField) -> bool {
    path.windows(2).any(|w| {
        let (dir, x, y) = EdgeField::edge_between(w[0], w[1]);
        usage.get(dir, x, y) > capacity.get(dir, x, y)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::{Cell, Net, Pin, Point};
    use vlsi_place::GlobalPlacer;

    fn routed_synth(n_cells: usize, tracks: f32) -> RouteResult {
        let cfg = SynthConfig { n_cells, grid_nx: 16, grid_ny: 16, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let rcfg = RouterConfig {
            capacity: CapacityConfig { h_tracks: tracks, v_tracks: tracks, ..Default::default() },
            ..Default::default()
        };
        route(&synth.circuit, &placed.placement, &grid, &synth.macro_rects, &rcfg).unwrap()
    }

    #[test]
    fn routes_synthetic_design_with_positive_wirelength() {
        let r = routed_synth(300, 10.0);
        assert!(r.wirelength > 0);
        assert!(r.usage.total(Dir::H) > 0.0);
        assert!(r.usage.total(Dir::V) > 0.0);
    }

    #[test]
    fn demand_equals_wirelength() {
        // every path step adds exactly 1 unit on exactly one edge
        let r = routed_synth(300, 10.0);
        let total = r.usage.total(Dir::H) + r.usage.total(Dir::V);
        assert!((total - r.wirelength as f32).abs() < 1.0, "{total} vs {}", r.wirelength);
    }

    #[test]
    fn rrr_resolves_corridor_conflict() {
        // Three 2-pin nets share the same row corridor with capacity 1.
        // Pattern routing piles them onto the straight line; negotiation
        // must detour two of them through the free rows above and below,
        // eliminating all overflow.
        let die = Rect::new(0.0, 0.0, 5.0, 3.0);
        let grid = GcellGrid::new(die, 5, 3);
        let mut c = Circuit::new("corridor", die);
        let mut p = Placement::zeroed(6);
        for i in 0..3 {
            let a = c.add_cell(Cell::movable(format!("a{i}"), 0.1, 0.1));
            let b = c.add_cell(Cell::movable(format!("b{i}"), 0.1, 0.1));
            c.add_net(Net::new(format!("n{i}"), vec![Pin::at_center(a), Pin::at_center(b)]));
            p.set_position(a, Point::new(0.5, 1.5)); // gcell (0,1)
            p.set_position(b, Point::new(4.5, 1.5)); // gcell (4,1)
        }
        let tight = CapacityConfig { h_tracks: 1.0, v_tracks: 1.0, blockage_factor: 0.0 };
        let no_rrr = RouterConfig { capacity: tight.clone(), rrr_rounds: 0, ..Default::default() };
        let with_rrr = RouterConfig { capacity: tight, rrr_rounds: 8, ..Default::default() };
        let a = route(&c, &p, &grid, &[], &no_rrr).unwrap();
        let b = route(&c, &p, &grid, &[], &with_rrr).unwrap();
        assert!(a.total_overflow > 0.0, "setup must start overflowed");
        assert_eq!(b.total_overflow, 0.0, "negotiation failed to clear the corridor");
        assert!(b.rounds_used >= 1);
    }

    #[test]
    fn rrr_reduces_total_overflow_on_synthetic_design() {
        // PathFinder negotiation trades wirelength for overflow: total
        // overflow must drop (congestion may spread over more edges —
        // that is the intended spreading behaviour).
        let cfg = SynthConfig { n_cells: 400, grid_nx: 12, grid_ny: 12, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let caps = CapacityConfig { h_tracks: 12.0, v_tracks: 12.0, ..Default::default() };
        let no_rrr = RouterConfig { capacity: caps.clone(), rrr_rounds: 0, ..Default::default() };
        let with_rrr = RouterConfig { capacity: caps, rrr_rounds: 8, ..Default::default() };
        let a =
            route(&synth.circuit, &placed.placement, &grid, &synth.macro_rects, &no_rrr).unwrap();
        let b =
            route(&synth.circuit, &placed.placement, &grid, &synth.macro_rects, &with_rrr).unwrap();
        assert!(
            b.total_overflow < a.total_overflow,
            "rrr did not reduce overflow: {} -> {}",
            a.total_overflow,
            b.total_overflow
        );
        assert!(b.wirelength >= a.wirelength, "detours cannot shorten wirelength");
    }

    #[test]
    fn tighter_capacity_increases_congestion_rate() {
        let loose = routed_synth(400, 16.0);
        let tight = routed_synth(400, 4.0);
        assert!(tight.congestion_rate() >= loose.congestion_rate());
    }

    #[test]
    fn routing_is_deterministic() {
        let a = routed_synth(200, 8.0);
        let b = routed_synth(200, 8.0);
        assert_eq!(a.usage, b.usage);
        assert_eq!(a.wirelength, b.wirelength);
    }

    #[test]
    fn two_pin_straight_net_uses_expected_edges() {
        let die = Rect::new(0.0, 0.0, 4.0, 1.0);
        let grid = GcellGrid::new(die, 4, 1);
        let mut c = Circuit::new("line", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut p = Placement::zeroed(2);
        p.set_position(a, Point::new(0.5, 0.5)); // gcell (0,0)
        p.set_position(b, Point::new(3.5, 0.5)); // gcell (3,0)
        let r = route(&c, &p, &grid, &[], &RouterConfig::default()).unwrap();
        assert_eq!(r.wirelength, 3);
        assert_eq!(r.usage.h(0, 0), 1.0);
        assert_eq!(r.usage.h(1, 0), 1.0);
        assert_eq!(r.usage.h(2, 0), 1.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let die = Rect::new(0.0, 0.0, 4.0, 4.0);
        let grid = GcellGrid::new(die, 4, 4);
        let c = Circuit::new("x", die);
        let p = Placement::zeroed(0);
        let bad = RouterConfig {
            capacity: CapacityConfig { h_tracks: 0.0, ..Default::default() },
            ..Default::default()
        };
        assert!(route(&c, &p, &grid, &[], &bad).is_err());
    }

    #[test]
    fn paths_kept_only_on_request() {
        let cfg = SynthConfig { n_cells: 200, grid_nx: 10, grid_ny: 10, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let without =
            route(&synth.circuit, &placed.placement, &grid, &[], &RouterConfig::default()).unwrap();
        assert!(without.net_paths().is_empty());
        let with_cfg = RouterConfig { keep_paths: true, ..Default::default() };
        let with = route(&synth.circuit, &placed.placement, &grid, &[], &with_cfg).unwrap();
        assert!(!with.net_paths().is_empty());
        // kept paths account for the full wirelength
        let total: u64 =
            with.net_paths().iter().map(|(_, p)| p.len().saturating_sub(1) as u64).sum();
        assert_eq!(total, with.wirelength);
        // net ids are valid
        assert!(with.net_paths().iter().all(|(n, _)| (*n as usize) < synth.circuit.num_nets()));
    }

    #[test]
    fn attribution_points_at_overflowed_cells() {
        // corridor conflict without negotiation: the straight row must be
        // attributed to all three nets
        let die = Rect::new(0.0, 0.0, 5.0, 3.0);
        let grid = GcellGrid::new(die, 5, 3);
        let mut c = Circuit::new("attr", die);
        let mut p = Placement::zeroed(6);
        for i in 0..3 {
            let a = c.add_cell(Cell::movable(format!("a{i}"), 0.1, 0.1));
            let b = c.add_cell(Cell::movable(format!("b{i}"), 0.1, 0.1));
            c.add_net(Net::new(format!("n{i}"), vec![Pin::at_center(a), Pin::at_center(b)]));
            p.set_position(a, Point::new(0.5, 1.5));
            p.set_position(b, Point::new(4.5, 1.5));
        }
        let cfg = RouterConfig {
            capacity: CapacityConfig { h_tracks: 1.0, v_tracks: 1.0, blockage_factor: 0.0 },
            rrr_rounds: 0,
            keep_paths: true,
            ..Default::default()
        };
        let r = route(&c, &p, &grid, &[], &cfg).unwrap();
        let attribution = r.congestion_attribution(&grid);
        assert!(!attribution.is_empty());
        // every attributed cell lists all three nets (they share the row)
        for (_, nets) in &attribution {
            assert_eq!(nets.as_slice(), &[0, 1, 2]);
        }
        // without keep_paths the attribution is empty
        let cfg2 = RouterConfig { keep_paths: false, ..cfg };
        let r2 = route(&c, &p, &grid, &[], &cfg2).unwrap();
        assert!(r2.congestion_attribution(&grid).is_empty());
    }

    #[test]
    fn labels_dimensions_match_grid() {
        let r = routed_synth(200, 8.0);
        assert_eq!(r.labels.nx, 16);
        assert_eq!(r.labels.ny, 16);
        assert_eq!(r.labels.demand_h.len(), 256);
        assert_eq!(r.labels.congestion(Dir::H).len(), 256);
    }
}

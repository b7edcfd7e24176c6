//! Implementations of the `lhnn` subcommands.

use std::error::Error;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{
    evaluate, train as train_model, AblationSpec, CongestionModel, ForwardDirty, GraphOps,
    HybridNet, HybridNetConfig, IncrementalForward, LatticePipeline, Lhnn, LhnnConfig, Sample,
    SpliceOutcome, TrainConfig,
};
use lhnn_data::{
    ascii_map, write_bench_json, write_pgm, BenchRecord, DatasetConfig, PreparedDataset,
};
use lhnn_serve::obs::{parse_prometheus, FlightEvent, Snapshot, PREDICT_STAGES, UPDATE_STAGES};
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine, SessionConfig};
use neurograd::Confusion;
use vlsi_netlist::synth::{generate as synth_generate, SynthConfig};
use vlsi_netlist::{
    bookshelf, netlist_stats, rent_exponent, CellId, Circuit, GcellGrid, Placement, PlacementDelta,
    Point, Rect,
};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route as route_circuit, CapacityConfig, Dir, RouterConfig};

use crate::args::Args;

type CmdResult = Result<(), Box<dyn Error>>;

/// `lhnn generate`: synthesise + place + write Bookshelf.
pub fn generate(args: &Args) -> CmdResult {
    let cfg = SynthConfig {
        name: args.get("name", "design"),
        seed: args.num("seed", 1u64),
        n_cells: args.num("cells", 800usize),
        grid_nx: args.num("grid", 24u32),
        grid_ny: args.num("grid", 24u32),
        ..SynthConfig::default()
    };
    let out_dir = args.get("out", ".");
    let synth = synth_generate(&cfg)?;
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid)?;
    bookshelf::write_design(Path::new(&out_dir), &synth.circuit, &placed.placement)?;
    println!(
        "generated `{}`: {} cells ({} terminals), {} nets, hpwl {:.0}",
        cfg.name,
        synth.circuit.num_cells(),
        synth.circuit.num_terminals(),
        synth.circuit.num_nets(),
        placed.hpwl
    );
    println!("wrote {out_dir}/{}.{{aux,nodes,nets,pl}}", cfg.name);
    Ok(())
}

fn load_design(args: &Args) -> Result<(Circuit, Placement), Box<dyn Error>> {
    let dir = args.opt("dir").ok_or("missing --dir")?.to_string();
    let design = args.opt("design").ok_or("missing --design")?;
    let (circuit, placement) = bookshelf::read_design(Path::new(&dir), design)?;
    circuit.validate()?;
    Ok((circuit, placement))
}

fn grid_for(args: &Args, circuit: &Circuit) -> GcellGrid {
    let g = args.num("grid", 24u32);
    let die = if circuit.die.area() > 0.0 { circuit.die } else { Rect::new(0.0, 0.0, 1.0, 1.0) };
    GcellGrid::new(die, g, g)
}

/// Builds the architecture selected by `--model` (`lhnn` | `hybridnet`)
/// — the model-zoo factory shared by `train`, `serve-bench` and
/// `loop-bench`. (`predict` needs no selector: the checkpoint's kind tag
/// picks the architecture at load time.)
fn build_arch(
    arch: &str,
    threads: usize,
    seed: u64,
) -> Result<Box<dyn CongestionModel>, Box<dyn Error>> {
    match arch {
        "lhnn" => Ok(Box::new(Lhnn::new(LhnnConfig { threads, ..LhnnConfig::default() }, seed))),
        "hybridnet" => Ok(Box::new(HybridNet::new(
            HybridNetConfig { threads, ..HybridNetConfig::default() },
            seed,
        ))),
        other => Err(format!("unknown --model `{other}` (expected `lhnn` or `hybridnet`)").into()),
    }
}

/// `lhnn stats`: netlist statistics — or, with `--metrics FILE`, a read
/// back of a Prometheus exposition written by a bench's `--metrics` dump.
pub fn stats(args: &Args) -> CmdResult {
    if let Some(path) = args.opt("metrics") {
        return metrics_report(path);
    }
    let (circuit, _) = load_design(args)?;
    let s = netlist_stats(&circuit);
    println!("design: {}", circuit.name);
    println!("cells: {} ({} terminals)", circuit.num_cells(), circuit.num_terminals());
    println!(
        "nets: {} (mean degree {:.2}, max {})",
        circuit.num_nets(),
        s.mean_degree,
        s.max_degree
    );
    println!("2-pin fraction: {:.1}%", s.two_pin_fraction * 100.0);
    println!("mean nets per cell: {:.2}", s.mean_cell_fanout);
    match rent_exponent(&circuit, 7) {
        Some(p) => println!("rent exponent (sampled): {p:.2}"),
        None => println!("rent exponent: n/a (too few movable cells)"),
    }
    println!("degree histogram (degree: count):");
    for (d, n) in s.degree_histogram.iter().enumerate().filter(|(_, &n)| n > 0) {
        println!("  {d:>3}: {n}");
    }
    Ok(())
}

/// `lhnn route`: global routing + congestion report.
pub fn route(args: &Args) -> CmdResult {
    let (circuit, placement) = load_design(args)?;
    let grid = grid_for(args, &circuit);
    let tracks = args.num("tracks", 14.0f32);
    let rcfg = RouterConfig {
        capacity: CapacityConfig { h_tracks: tracks, v_tracks: tracks, ..Default::default() },
        ..Default::default()
    };
    let routed = route_circuit(&circuit, &placement, &grid, &[], &rcfg)?;
    println!("design: {} on {}x{} g-cells", circuit.name, grid.nx(), grid.ny());
    println!("wirelength: {} g-cell steps", routed.wirelength);
    println!(
        "overflowed edges: {} (total overflow {:.1})",
        routed.overflowed_edges, routed.total_overflow
    );
    println!(
        "congestion rate: {:.2}% (h {:.2}%, v {:.2}%)",
        routed.congestion_rate() * 100.0,
        routed.labels.congestion_rate(Dir::H) * 100.0,
        routed.labels.congestion_rate(Dir::V) * 100.0
    );
    if let Some(prefix) = args.opt("pgm") {
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        write_pgm(&routed.labels.demand_h, nx, ny, Path::new(&format!("{prefix}_demand_h.pgm")))?;
        write_pgm(&routed.labels.demand_v, nx, ny, Path::new(&format!("{prefix}_demand_v.pgm")))?;
        println!("wrote {prefix}_demand_h.pgm / {prefix}_demand_v.pgm");
    }
    Ok(())
}

/// `lhnn train`: train the selected architecture on the synthetic suite
/// and save the model.
pub fn train(args: &Args) -> CmdResult {
    let scale = args.num("scale", 0.5f32);
    let epochs = args.num("epochs", 60usize);
    let seed = args.num("seed", 0u64);
    let arch = args.get("model", "lhnn");
    let out = args.get("out", "model.lhnn");
    // --threads 0 (the default) inherits the process-wide compute pool;
    // batch defaults to 1 (the paper's per-sample stepping) so --threads
    // alone never changes the optimisation trajectory; --batch opts into
    // gradient accumulation, which the threads then shard.
    let threads = args.num("threads", 0usize);
    let batch_size = args.num("batch", 1usize).max(1);
    eprintln!("building training suite (scale {scale})...");
    let ds = DatasetConfig { scale, ..Default::default() };
    let prep = PreparedDataset::build(&ds)?;
    let train_set = prep.train_samples();
    let test_set = prep.test_samples();
    let mut model = build_arch(&arch, threads, seed)?;
    // the pool width comes from the model's config knob, not the raw flag
    model.configure_pool();
    eprintln!(
        "training {arch} ({} parameters) for {epochs} epochs on {} designs \
         ({} data-parallel threads, batch {batch_size})...",
        model.num_parameters(),
        train_set.len(),
        threads.max(1)
    );
    let cfg =
        TrainConfig { epochs, seed, threads: threads.max(1), batch_size, ..Default::default() };
    let history = train_model(model.as_mut(), &train_set, &AblationSpec::full(), &cfg);
    let eval = evaluate(model.as_ref(), &test_set, &AblationSpec::full());
    println!(
        "final loss {:.4}; held-out F1 {:.3}, accuracy {:.3}",
        history.epoch_loss.last().copied().unwrap_or(f32::NAN),
        eval.f1,
        eval.accuracy
    );
    model.save_to(&mut File::create(&out)?)?;
    println!("model written to {out} (kind {arch})");
    Ok(())
}

/// `lhnn predict`: predict a congestion map for a design through the
/// serving engine (registry + worker pool + prediction cache).
pub fn predict(args: &Args) -> CmdResult {
    let model_path = args.opt("model").ok_or("missing --model")?;
    let threshold = args.num("threshold", 0.5f32);
    let compute_threads = args.num("threads", 0usize);
    let (circuit, placement) = load_design(args)?;
    let grid = grid_for(args, &circuit);
    let graph = LhGraph::build(&circuit, &placement, &grid, &LhGraphConfig::default())?;
    let (gd, nd) = FeatureSet::default_divisors();
    let features =
        Arc::new(FeatureSet::build(&graph, &circuit, &placement, &grid)?.scaled_fixed(&gd, &nd));
    let ops = lhnn::GraphOps::from_graph(&graph, &AblationSpec::full());

    // The one-shot CLI rides the same path a long-running service uses: a
    // registry entry, an engine (single worker — one design, one forward),
    // and a per-request threshold.
    let registry = Arc::new(ModelRegistry::new());
    registry.load_file("default", model_path)?;
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig { workers: 1, compute_threads, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let request = PredictRequest::new("default", Arc::new(ops), Arc::clone(&features))
        .with_threshold(threshold);
    let reply = handle.predict(&request)?;
    let pred = &reply.prediction;
    let prob: Vec<f32> = (0..pred.cls_prob.rows()).map(|r| pred.cls_prob[(r, 0)]).collect();
    println!("design: {} on {}x{} g-cells", circuit.name, grid.nx(), grid.ny());
    println!(
        "predicted congestion rate: {:.2}% (threshold {threshold})",
        reply.congested_fraction * 100.0
    );
    println!("{}", ascii_map(&prob, grid.nx() as usize, grid.ny() as usize));
    if let Some(path) = args.opt("pgm") {
        write_pgm(&prob, grid.nx() as usize, grid.ny() as usize, Path::new(path))?;
        println!("probability map written to {path}");
    }
    if args.has("compare") {
        let tracks = args.num("tracks", 14.0f32);
        let rcfg = RouterConfig {
            capacity: CapacityConfig { h_tracks: tracks, v_tracks: tracks, ..Default::default() },
            ..Default::default()
        };
        let routed = route_circuit(&circuit, &placement, &grid, &[], &rcfg)?;
        let targets = Targets::from_labels(&routed.labels);
        let label = targets.congestion_channels(ChannelMode::Uni);
        let conf = Confusion::from_scores(&prob, label.as_slice(), threshold);
        println!(
            "vs global router: F1 {:.3}, accuracy {:.3} (router congestion rate {:.2}%)",
            conf.f1(),
            conf.accuracy(),
            routed.congestion_rate() * 100.0
        );
        // keep the sample around so the types stay exercised
        let _ =
            Sample { name: circuit.name.clone(), graph, features: (*features).clone(), targets };
    }
    engine.shutdown();
    Ok(())
}

/// Whether a bench command should record metrics (`--no-metrics` turns
/// the registry, stage tracing and flight recorder off entirely).
fn metrics_enabled(args: &Args) -> bool {
    !args.has("no-metrics")
}

/// Prints the per-stage latency breakdown and the flight recorder's
/// events from a metrics snapshot; with `--metrics [PREFIX]` also writes
/// the Prometheus text and JSON expositions to `PREFIX.prom` /
/// `PREFIX.json` (default prefix per command, e.g.
/// `results/METRICS_loop_bench`).
fn report_observability(
    snap: &Snapshot,
    events: &[FlightEvent],
    args: &Args,
    default_prefix: &str,
) -> CmdResult {
    println!("stage latency breakdown:");
    for (family, stages) in [("predict", &PREDICT_STAGES[..]), ("update", &UPDATE_STAGES[..])] {
        for stage in stages {
            let key = format!("lhnn_stage_us{{stage=\"{stage}\"}}");
            let Some(h) = snap.histogram(&key) else { continue };
            if h.count == 0 {
                println!("  {family:<7} {stage:<13} (no samples)");
            } else {
                println!(
                    "  {family:<7} {stage:<13} {:>7} samples  mean {:>9.1} us  \
                     p95 {:>8} us  p99 {:>8} us",
                    h.count,
                    h.mean(),
                    h.quantile(0.95),
                    h.quantile(0.99),
                );
            }
        }
    }
    println!(
        "  counters: {} requests ({} cache hits, {} computed), {} batches, \
         {} session updates, {} fallbacks",
        snap.counter("lhnn_requests_total"),
        snap.counter("lhnn_cache_hits_total"),
        snap.counter("lhnn_computed_total"),
        snap.counter("lhnn_batches_total"),
        snap.counter("lhnn_session_updates_total"),
        snap.counter("lhnn_fallbacks_total"),
    );
    if events.is_empty() {
        println!("flight recorder: no events");
    } else {
        println!("flight recorder ({} events, oldest first):", events.len());
        for e in events.iter().take(12) {
            println!(
                "  [+{:>8.3}s] {:<11} {}: {}",
                e.at_us as f64 / 1e6,
                e.kind,
                e.scope,
                e.detail
            );
        }
        if events.len() > 12 {
            println!("  ... {} more", events.len() - 12);
        }
    }
    if args.has("metrics") {
        let prefix = match args.get("metrics", "true").as_str() {
            "true" => default_prefix.to_string(),
            custom => custom.to_string(),
        };
        if let Some(parent) = Path::new(&prefix).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(format!("{prefix}.prom"), snap.to_prometheus())?;
        std::fs::write(format!("{prefix}.json"), snap.to_json())?;
        println!("wrote {prefix}.prom / {prefix}.json");
    }
    Ok(())
}

/// `lhnn stats --metrics FILE`: read back a Prometheus-style exposition
/// written by `--metrics` and print every series.
fn metrics_report(path: &str) -> CmdResult {
    let text = std::fs::read_to_string(path)?;
    let series = parse_prometheus(&text);
    if series.is_empty() {
        return Err(format!("{path} contains no readable metric series").into());
    }
    println!("{path}: {} series", series.len());
    for s in &series {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{{{}}}", body.join(","))
        };
        println!("  {}{labels} = {}", s.name, s.value);
    }
    Ok(())
}

/// One prepared synthetic design for `serve-bench`.
fn bench_design(
    seed: u64,
    n_cells: usize,
    grid: u32,
) -> Result<(Arc<lhnn::GraphOps>, Arc<FeatureSet>), Box<dyn Error>> {
    let (ops, features) = lhnn_data::serving_inputs(seed, n_cells, grid)?;
    Ok((Arc::new(ops), Arc::new(features)))
}

/// Runs `requests` predictions over `designs` from `clients` threads
/// against a fresh engine with `workers` workers; returns (elapsed
/// seconds, stats line).
fn drive_engine(
    designs: &[(Arc<lhnn::GraphOps>, Arc<FeatureSet>)],
    arch: &str,
    workers: usize,
    clients: usize,
    requests: usize,
    cache_capacity: usize,
    threshold: f32,
    compute_threads: usize,
    metrics: bool,
) -> Result<(f64, lhnn_serve::ServeStats, Snapshot, Vec<FlightEvent>), Box<dyn Error>> {
    let registry = Arc::new(ModelRegistry::new());
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig {
            workers,
            cache_capacity,
            compute_threads,
            metrics,
            ..EngineConfig::default()
        },
    );
    // Registered through the live engine so the inserts land in the
    // `lhnn_model_registrations_total{kind=...}` counter; the OTHER
    // architecture rides along in the same registry — one mixed-zoo
    // engine, per-kind worker scratch — and serves an untimed proof
    // request after the measured workload.
    registry.register_boxed("default", build_arch(arch, 0, 0)?)?;
    let alt = if arch == "hybridnet" { "lhnn" } else { "hybridnet" };
    registry.register_boxed(alt, build_arch(alt, 0, 1)?)?;
    let handle = engine.handle();
    let start = std::time::Instant::now();
    std::thread::scope(|scope| -> Result<(), Box<dyn Error>> {
        let mut joins = Vec::new();
        for client in 0..clients.max(1) {
            let handle = handle.clone();
            joins.push(scope.spawn(move || -> Result<(), String> {
                let mut i = client;
                while i < requests {
                    let (ops, features) = &designs[i % designs.len()];
                    let req = PredictRequest::new("default", Arc::clone(ops), Arc::clone(features))
                        .with_threshold(threshold);
                    handle.predict(&req).map_err(|e| e.to_string())?;
                    i += clients.max(1);
                }
                Ok(())
            }));
        }
        for j in joins {
            j.join().map_err(|_| "client thread panicked")??;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let stats = handle.stats();
    // the second kind must serve from the same engine (untimed, after the
    // measured stats are captured)
    let (ops, features) = &designs[0];
    handle.predict(&PredictRequest::new(alt, Arc::clone(ops), Arc::clone(features)))?;
    let snapshot = handle.metrics_snapshot();
    let events = handle.flight_events();
    engine.shutdown();
    Ok((elapsed, stats, snapshot, events))
}

/// `lhnn loop-bench`: drive the placer's own iteration deltas against the
/// stateful session API and measure the incremental pipeline against
/// from-scratch rebuilds. With `--designs D` (D > 1) it switches to the
/// concurrent mode: D placement loops over a `--shards S` engine,
/// pipelined sessions vs serially-driven ones.
pub fn loop_bench(args: &Args) -> CmdResult {
    let designs_n = args.num("designs", 1usize).max(1);
    if designs_n > 1 {
        return loop_bench_concurrent(args, designs_n);
    }
    // defaults match `lhnn generate`'s canonical design size
    let cells = args.num("cells", 800usize).max(8);
    let grid_n = args.num("grid", 24u32).max(2);
    let seed = args.num("seed", 1u64);
    let rounds = args.num("rounds", 5usize).max(1);
    let move_pct = args.num("move-pct", 1.0f32).max(0.0);
    let threads = args.num("threads", 0usize);
    let arch = args.get("model", "lhnn");
    let json_path = args.get("json", "results/BENCH_incremental.json");
    if threads > 0 {
        neurograd::pool::configure_threads(threads);
    }

    // --- design + traced placement ---
    let synth_cfg = SynthConfig {
        name: "loopbench".into(),
        seed,
        n_cells: cells,
        grid_nx: grid_n,
        grid_ny: grid_n,
        ..SynthConfig::default()
    };
    let synth = synth_generate(&synth_cfg)?;
    let grid = synth_cfg.grid();
    let circuit = Arc::new(synth.circuit.clone());
    eprintln!("placing {cells} cells on {grid_n}x{grid_n} g-cells (traced)...");
    let (placed, trace) = GlobalPlacer::default().place_synth_traced(&synth, &grid)?;
    println!(
        "loop-bench: {cells} cells, {grid_n}x{grid_n} g-cells, seed {seed}, model {arch}; \
         trace has {} deltas (quadratic solve + spreading iterations)",
        trace.deltas.len()
    );

    // --- session replay: update + predict per placer iteration ---
    let registry = Arc::new(ModelRegistry::new());
    registry.register_boxed("default", build_arch(&arch, 0, 0)?)?;
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            compute_threads: threads,
            metrics: metrics_enabled(args),
            ..EngineConfig::default()
        },
    );
    let handle = engine.handle();
    let mut session = handle.open_session(
        SessionConfig::new("default"),
        Arc::clone(&circuit),
        trace.initial.clone(),
        grid.clone(),
    )?;
    let mut update_s = 0.0f64;
    let mut predict_s = 0.0f64;
    let mut cache_hits = 0usize;
    for delta in &trace.deltas {
        let t0 = std::time::Instant::now();
        session.update(delta)?;
        update_s += t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let reply = session.predict()?;
        predict_s += t1.elapsed().as_secs_f64();
        if reply.cached {
            cache_hits += 1;
        }
    }
    // --- optional forced-crossing trace (the CI smoke passes
    // --structural-moves 2): yank a cell pinning a kept g-net across the
    // die and back, forcing the size filter in both directions, with a
    // prediction served across every crossing. Since stable G-net
    // columns, a crossing tombstones/revives columns *in place* — the CI
    // gate below asserts zero filter-crossing full rebuilds.
    let structural_moves = args.num("structural-moves", 0usize);
    if structural_moves > 0 {
        let cell_to_nets = circuit.cell_to_nets();
        let pinned = session.with_pipeline(|p| {
            (0..circuit.num_cells() as u32).map(CellId).find(|&id| {
                !circuit.cell(id).is_terminal()
                    && cell_to_nets[id.index()].iter().any(|&n| p.graph().net_column(n).is_some())
            })
        });
        let Some(yanked) = pinned else {
            return Err("no movable cell pins a kept g-net; cannot force a structural \
                        crossing"
                .into());
        };
        let die = circuit.die;
        let home = session.with_pipeline(|p| p.placement().position(yanked));
        let far = die.clamp(Point::new(
            if home.x < (die.lx + die.ux) * 0.5 { die.ux - 0.01 } else { die.lx + 0.01 },
            if home.y < (die.ly + die.uy) * 0.5 { die.uy - 0.01 } else { die.ly + 0.01 },
        ));
        let crossings_before = session.stats().crossings_patched;
        for _ in 0..structural_moves {
            // out and back: the second leg restores the placement, so the
            // replay parity check below still compares equal states
            for target in [far, home] {
                session.update(&PlacementDelta::single(yanked, target))?;
                if session.predict()?.cached {
                    cache_hits += 1;
                }
            }
        }
        let crossings = session.stats().crossings_patched - crossings_before;
        if crossings == 0 {
            return Err(format!(
                "structural trace forced no crossing: cell {} never crossed the g-net \
                 size filter",
                yanked.0
            )
            .into());
        }
        println!(
            "structural trace: {crossings} size-filter crossings patched in place over \
             {} yanks, a prediction served across each",
            structural_moves * 2
        );
    }

    let stats = session.stats();
    let inc_stats = session.incremental_stats();
    let fallback_fraction = stats.full_rebuilds as f64 / (stats.updates.max(1)) as f64;
    let n = trace.deltas.len().max(1) as f64;
    println!(
        "session replay: {} updates ({} incremental, {} full rebuilds, {} noop), \
         avg update {:.3} ms, avg predict {:.3} ms, {cache_hits} cache hits",
        stats.updates,
        stats.incremental,
        stats.full_rebuilds,
        stats.noops,
        update_s / n * 1e3,
        predict_s / n * 1e3,
    );
    println!(
        "  predict paths: {} full, {} spliced, {} reused from the activation cache \
         ({} invalidations); fallback fraction {fallback_fraction:.4}",
        inc_stats.full_forwards,
        inc_stats.spliced_forwards,
        inc_stats.reused,
        inc_stats.invalidations,
    );
    // CI greps these cause-breakdown lines: filter crossings must patch
    // in place (tombstone/append), never trigger a full rebuild.
    println!(
        "  rebuild causes: {} filter_crossing, {} compaction, {} poisoned; \
         {} crossings patched in place",
        stats.rebuilds_filter_crossing,
        stats.rebuilds_compaction,
        stats.rebuilds_poisoned,
        stats.crossings_patched,
    );
    println!(
        "  cache invalidation causes: {} filter_crossing, {} compaction, {} dim_change, \
         {} poisoned",
        inc_stats.invalidations_filter_crossing,
        inc_stats.invalidations_compaction,
        inc_stats.invalidations_dim_change,
        inc_stats.invalidations_poisoned,
    );
    if stats.rebuilds_filter_crossing > 0 {
        return Err(format!(
            "{} size-filter crossings fell back to a full rebuild; the stable column \
             space should have tombstone/append-patched them",
            stats.rebuilds_filter_crossing
        )
        .into());
    }

    // --- bitwise parity: the replayed session vs a from-scratch build ---
    // The session's column layout is order-dependent (tombstoned columns
    // keep their slot, appended columns land at the end), so the reference
    // build must be prescribed the session's own layout; a canonical
    // `LhGraph::build` only matches right after a compaction.
    let session_fps = session.fingerprints()?;
    let columns = session.with_pipeline(|p| p.graph().kept_nets().to_vec());
    let fresh_graph = LhGraph::build_with_columns(
        &circuit,
        &placed.placement,
        &grid,
        &LhGraphConfig::default(),
        &columns,
    )?;
    let fresh_features = FeatureSet::build(&fresh_graph, &circuit, &placed.placement, &grid)?;
    let fresh_ops = GraphOps::from_graph(&fresh_graph, &AblationSpec::full());
    let fresh_fps = (fresh_ops.fingerprint(), fresh_features.fingerprint());
    if session_fps != fresh_fps {
        return Err(format!(
            "bitwise parity FAILED: session {session_fps:?} vs full rebuild {fresh_fps:?}"
        )
        .into());
    }
    println!(
        "bitwise parity after replay: OK (ops fp {:016x}, features fp {:016x})",
        session_fps.0, session_fps.1
    );

    // --- micro-bench: k-cell move, incremental vs full rebuild ---
    let k = ((cells as f32 * move_pct / 100.0).ceil() as usize).clamp(1, cells);
    let mut pipeline =
        LatticePipeline::for_serving(Arc::clone(&circuit), placed.placement.clone(), grid.clone())?;
    let die = circuit.die;
    // Steady-state moves: restrict to movable cells whose nets cannot
    // cross the G-net size filter under a same-direction sub-g-cell nudge
    // (each span grows by at most one g-cell per axis), so every measured
    // round exercises the incremental path rather than the structural
    // fallback a filter crossing legitimately takes.
    let max_area = LhGraphConfig::default().max_gnet_area(grid.num_gcells());
    let cell_to_nets = circuit.cell_to_nets();
    let eligible: Vec<CellId> = (0..cells)
        .map(|i| CellId(i as u32))
        .filter(|&id| {
            !circuit.cell(id).is_terminal()
                && !cell_to_nets[id.index()].is_empty()
                && cell_to_nets[id.index()].iter().all(|&n| {
                    pipeline.graph().net_column(n).is_some_and(|j| {
                        let (lo, hi) = pipeline.graph().span_of(j);
                        let (w, h) = ((hi.gx - lo.gx + 1) as usize, (hi.gy - lo.gy + 1) as usize);
                        (w + 1) * (h + 1) <= max_area
                    })
                })
        })
        .collect();
    if eligible.is_empty() {
        return Err(format!(
            "no steady-state movable cells at {grid_n}x{grid_n} (every cell touches a net \
             near the {max_area}-g-cell size filter); raise --grid or --cells"
        )
        .into());
    }
    let k = k.min(eligible.len());
    let mut records = Vec::new();
    // The replay row carries the pipeline's fallback accounting alongside
    // the timings — BENCH_incremental.json previously omitted
    // `full_rebuilds` entirely, hiding how often the structural fallback
    // (not the incremental path) produced the measured numbers.
    records.push(
        BenchRecord::labeled(
            format!("trace_replay_{cells}c_{grid_n}x{grid_n}"),
            "avg session update",
            update_s / n * 1e3,
            "avg session predict",
            predict_s / n * 1e3,
        )
        .with_extra("updates", stats.updates as f64)
        .with_extra("full_rebuilds", stats.full_rebuilds as f64)
        .with_extra("fallback_fraction", fallback_fraction)
        .with_extra("rebuilds_filter_crossing", stats.rebuilds_filter_crossing as f64)
        .with_extra("rebuilds_compaction", stats.rebuilds_compaction as f64)
        .with_extra("rebuilds_poisoned", stats.rebuilds_poisoned as f64)
        .with_extra("crossings_patched", stats.crossings_patched as f64)
        .with_extra("full_forwards", inc_stats.full_forwards as f64)
        .with_extra("spliced_forwards", inc_stats.spliced_forwards as f64)
        .with_extra("reused_predictions", inc_stats.reused as f64),
    );
    for (label, k) in [(format!("update_k{k}_{move_pct}pct"), k), ("update_k1".to_string(), 1)] {
        // Restart from the placement the eligibility filter was computed
        // on: the alternating ±0.75-g-cell nudges stay within its
        // one-g-cell span budget, but drift accumulated across labels
        // would not.
        pipeline = LatticePipeline::for_serving(
            Arc::clone(&circuit),
            placed.placement.clone(),
            grid.clone(),
        )?;
        let mut incr_s = 0.0f64;
        let mut full_s = 0.0f64;
        let mut dirty_rows = 0usize;
        // round 0 is an untimed warmup (allocator, caches, page-in)
        for round in 0..=rounds {
            let timed = round > 0;
            // move k spread-out eligible cells ~0.75 g-cells diagonally,
            // alternating direction per round so the state keeps changing
            let sign = if round % 2 == 0 { 1.0 } else { -1.0 };
            let mut delta = PlacementDelta::new();
            let stride = (eligible.len() / k).max(1);
            for m in 0..k {
                let id = eligible[(m * stride) % eligible.len()];
                let p = pipeline.placement().position(id);
                delta.push(
                    id,
                    die.clamp(Point::new(
                        p.x + sign * 0.75 * grid.gcell_width(),
                        p.y + sign * 0.75 * grid.gcell_height(),
                    )),
                );
            }
            let t0 = std::time::Instant::now();
            let update = pipeline.apply(&delta)?;
            let incr_fps = pipeline.fingerprints()?;
            if timed {
                incr_s += t0.elapsed().as_secs_f64();
                // The record claims to measure the incremental path: a
                // Noop (nothing crossed a boundary) or FullRebuild
                // (eligibility missed a filter crossing) would silently
                // report a speedup for the wrong code path.
                let lhnn::PipelineUpdate::Incremental { ref dirty_gcells, .. } = update else {
                    return Err(format!(
                        "micro-bench round {round} did not take the incremental path \
                         ({update:?}); the measured speedup would be meaningless"
                    )
                    .into());
                };
                dirty_rows += dirty_gcells.len();
            }
            // The batch baseline: rebuild graph + features + operators and
            // re-fingerprint from scratch at the same placement (exactly
            // what every query paid before sessions existed).
            let t1 = std::time::Instant::now();
            pipeline.rebuild()?;
            let full_fps = pipeline.fingerprints()?;
            if timed {
                full_s += t1.elapsed().as_secs_f64();
            }
            if incr_fps != full_fps {
                return Err(format!(
                    "bitwise parity FAILED in micro-bench round {round}: \
                     incremental {incr_fps:?} vs full {full_fps:?}"
                )
                .into());
            }
        }
        let record = BenchRecord::labeled(
            format!("{label}_{cells}c_{grid_n}x{grid_n}"),
            "full rebuild",
            full_s / rounds as f64 * 1e3,
            "incremental update",
            incr_s / rounds as f64 * 1e3,
        )
        .with_extra("dirty_gcells_avg", dirty_rows as f64 / rounds as f64);
        println!(
            "micro-bench {k:>4}-cell move: incremental {:.3} ms vs full rebuild {:.3} ms \
             -> {:.1}x speedup (avg of {rounds} rounds, bitwise-verified)",
            record.candidate_ms,
            record.baseline_ms,
            record.speedup()
        );
        records.push(record);
    }

    // --- micro-bench: bounded-radius splice vs full forward ---
    // Same steady-state k-cell moves, but timing the model forward itself:
    // the spliced predict recomputes only the ≤5-hop halo of the dirty
    // rows and splices it into the cached activations, the baseline
    // recomputes every G-cell (what every predict paid before the
    // activation cache existed).
    let model = build_arch(&arch, 0, 0)?;
    let version = model.weights_fingerprint();
    let mut scratch = model.new_scratch();
    for (label, k) in [(format!("predict_k{k}_{move_pct}pct"), k), ("predict_k1".to_string(), 1)] {
        // Same reset as the update micro-bench: keep the moves inside the
        // eligibility filter's span budget.
        pipeline = LatticePipeline::for_serving(
            Arc::clone(&circuit),
            placed.placement.clone(),
            grid.clone(),
        )?;
        let incr = IncrementalForward::new();
        // prime the activation cache with one untimed full forward
        {
            let (ops, feats) = (pipeline.ops(), pipeline.features());
            let (_, outcome) = incr.predict(model.as_ref(), version, &ops, &feats, incr.seq());
            if outcome != SpliceOutcome::Full {
                return Err(
                    format!("priming forward did not take the full path ({outcome:?})").into()
                );
            }
        }
        let mut splice_s = 0.0f64;
        let mut full_fwd_s = 0.0f64;
        let mut halo_rows = 0usize;
        for round in 0..=rounds {
            let timed = round > 0;
            let sign = if round % 2 == 0 { 1.0 } else { -1.0 };
            let mut delta = PlacementDelta::new();
            let stride = (eligible.len() / k).max(1);
            for m in 0..k {
                let id = eligible[(m * stride) % eligible.len()];
                let p = pipeline.placement().position(id);
                delta.push(
                    id,
                    die.clamp(Point::new(
                        p.x + sign * 0.75 * grid.gcell_width(),
                        p.y + sign * 0.75 * grid.gcell_height(),
                    )),
                );
            }
            let update = pipeline.apply(&delta)?;
            let lhnn::PipelineUpdate::Incremental { dirty_nets, dirty_gcells } = update else {
                return Err(format!(
                    "predict micro-bench round {round} did not take the incremental \
                     path ({update:?}); the measured speedup would be meaningless"
                )
                .into());
            };
            incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
            let (ops, feats) = (pipeline.ops(), pipeline.features());
            let t0 = std::time::Instant::now();
            let (spliced, outcome) =
                incr.predict(model.as_ref(), version, &ops, &feats, incr.seq());
            if timed {
                splice_s += t0.elapsed().as_secs_f64();
                let SpliceOutcome::Spliced { gcell_rows, .. } = outcome else {
                    return Err(format!(
                        "predict micro-bench round {round} did not splice ({outcome:?})"
                    )
                    .into());
                };
                halo_rows += gcell_rows;
            }
            let t1 = std::time::Instant::now();
            let full = model.predict_with(&ops, &feats, scratch.as_mut());
            if timed {
                full_fwd_s += t1.elapsed().as_secs_f64();
            }
            if !(spliced.cls_prob.approx_eq(&full.cls_prob, 0.0)
                && spliced.reg.approx_eq(&full.reg, 0.0))
            {
                return Err(format!(
                    "bitwise parity FAILED in predict micro-bench round {round}: \
                     spliced forward diverged from the full forward"
                )
                .into());
            }
        }
        let halo_avg = halo_rows as f64 / rounds as f64;
        let record = BenchRecord::labeled(
            format!("{label}_{cells}c_{grid_n}x{grid_n}"),
            "full forward",
            full_fwd_s / rounds as f64 * 1e3,
            "bounded-radius splice",
            splice_s / rounds as f64 * 1e3,
        )
        .with_extra("halo_gcells_avg", halo_avg)
        .with_extra("total_gcells", grid.num_gcells() as f64);
        println!(
            "predict micro-bench {k:>4}-cell move: splice {:.3} ms ({halo_avg:.0} of {} \
             g-cell rows) vs full forward {:.3} ms -> {:.1}x speedup \
             (avg of {rounds} rounds, bitwise-verified)",
            record.candidate_ms,
            grid.num_gcells(),
            record.baseline_ms,
            record.speedup()
        );
        records.push(record);
    }

    // --- micro-bench: size-filter crossing, tombstone patch vs full rebuild ---
    // A cell pinning a kept g-net is yanked to the far die corner and back;
    // each leg crosses the size filter. The candidate is the tombstone /
    // append patch the stable column space applies now; the baseline is
    // the from-scratch build the same crossing forced before. The baseline
    // must be non-mutating (`build_with_columns` at the pipeline's own
    // layout) — `pipeline.rebuild()` would compact, renumber columns, and
    // break the out-and-back bitwise revival the rounds rely on.
    {
        pipeline = LatticePipeline::for_serving(
            Arc::clone(&circuit),
            placed.placement.clone(),
            grid.clone(),
        )?;
        let cell_to_nets = circuit.cell_to_nets();
        let pinned = (0..circuit.num_cells() as u32).map(CellId).find(|&id| {
            !circuit.cell(id).is_terminal()
                && cell_to_nets[id.index()]
                    .iter()
                    .any(|&n| pipeline.graph().net_column(n).is_some())
        });
        let Some(yanked) = pinned else {
            return Err("no movable cell pins a kept g-net; cannot bench a filter \
                        crossing"
                .into());
        };
        let home = pipeline.placement().position(yanked);
        let far = die.clamp(Point::new(
            if home.x < (die.lx + die.ux) * 0.5 { die.ux - 0.01 } else { die.lx + 0.01 },
            if home.y < (die.ly + die.uy) * 0.5 { die.uy - 0.01 } else { die.ly + 0.01 },
        ));
        let mut patch_s = 0.0f64;
        let mut rebuild_s = 0.0f64;
        let crossings_before = pipeline.stats().crossings_patched;
        for round in 0..=rounds {
            let timed = round > 0;
            // out and back: each leg crosses the filter, and the return leg
            // restores the pre-yank state bitwise (tombstone revival)
            for target in [far, home] {
                let t0 = std::time::Instant::now();
                let update = pipeline.apply(&PlacementDelta::single(yanked, target))?;
                let incr_fps = pipeline.fingerprints()?;
                if timed {
                    patch_s += t0.elapsed().as_secs_f64();
                }
                if !matches!(update, lhnn::PipelineUpdate::Incremental { .. }) {
                    return Err(format!(
                        "crossing micro-bench round {round} fell back to a full rebuild \
                         ({update:?}); the tombstone patch should have absorbed it"
                    )
                    .into());
                }
                let t1 = std::time::Instant::now();
                let g = LhGraph::build_with_columns(
                    &circuit,
                    pipeline.placement(),
                    &grid,
                    &LhGraphConfig::default(),
                    pipeline.graph().kept_nets(),
                )?;
                let f = FeatureSet::build(&g, &circuit, pipeline.placement(), &grid)?;
                let o = GraphOps::from_graph(&g, &AblationSpec::full());
                let full_fps = (o.fingerprint(), f.fingerprint());
                if timed {
                    rebuild_s += t1.elapsed().as_secs_f64();
                }
                if incr_fps != full_fps {
                    return Err(format!(
                        "bitwise parity FAILED in crossing micro-bench round {round}: \
                         incremental {incr_fps:?} vs full {full_fps:?}"
                    )
                    .into());
                }
            }
        }
        let crossings = pipeline.stats().crossings_patched - crossings_before;
        if crossings == 0 {
            return Err("crossing micro-bench never crossed the size filter; the yank \
                        target did not change the pinned net's span class"
                .into());
        }
        let legs = (rounds * 2) as f64;
        let record = BenchRecord::labeled(
            format!("crossing_update_{cells}c_{grid_n}x{grid_n}"),
            "full rebuild",
            rebuild_s / legs * 1e3,
            "tombstone patch",
            patch_s / legs * 1e3,
        )
        .with_extra("crossings", crossings as f64)
        .with_extra("full_rebuilds", pipeline.stats().full_rebuilds as f64);
        println!(
            "crossing micro-bench: tombstone patch {:.3} ms vs full rebuild {:.3} ms \
             -> {:.1}x speedup across {crossings} size-filter crossings \
             (avg of {rounds} out-and-back rounds, bitwise-verified)",
            record.candidate_ms,
            record.baseline_ms,
            record.speedup()
        );
        records.push(record);
    }

    write_bench_json(Path::new(&json_path), "incremental", threads.max(1), &records)?;
    println!("wrote {json_path} (baseline = full rebuild, candidate = incremental update)");
    if handle.metrics_enabled() {
        report_observability(
            &handle.metrics_snapshot(),
            &handle.flight_events(),
            args,
            "results/METRICS_loop_bench",
        )?;
    }
    engine.shutdown();
    Ok(())
}

/// One design prepared for the concurrent loop-bench: a traced placement
/// whose deltas replay the placer's own iterations.
struct LoopDesign {
    name: String,
    circuit: Arc<vlsi_netlist::Circuit>,
    grid: GcellGrid,
    initial: Placement,
    final_placement: Placement,
    deltas: Vec<PlacementDelta>,
}

/// The concurrent mode of `lhnn loop-bench`: D designs, each replaying
/// its own placer trace through a session, comparing serially-driven
/// sessions on a single-shard engine against concurrent pipelined
/// sessions on an `--shards S` engine. Writes `BENCH_serve_shard.json`.
fn loop_bench_concurrent(args: &Args, designs_n: usize) -> CmdResult {
    let shards = args.num("shards", 2usize).max(1);
    let workers = args.num("workers", shards).max(1);
    let cells = args.num("cells", 800usize).max(8);
    let grid_n = args.num("grid", 24u32).max(2);
    let seed = args.num("seed", 1u64);
    let threads = args.num("threads", 0usize);
    let arch = args.get("model", "lhnn");
    let json_path = args.get("json", "results/BENCH_serve_shard.json");
    if threads > 0 {
        neurograd::pool::configure_threads(threads);
    }

    eprintln!(
        "preparing {designs_n} designs ({cells} cells, {grid_n}x{grid_n} g-cells) with traced \
         placements..."
    );
    let designs: Result<Vec<LoopDesign>, Box<dyn Error>> = (0..designs_n)
        .map(|d| {
            let synth_cfg = SynthConfig {
                name: format!("loopbench-{d}"),
                seed: seed + d as u64,
                n_cells: cells,
                grid_nx: grid_n,
                grid_ny: grid_n,
                ..SynthConfig::default()
            };
            let synth = synth_generate(&synth_cfg)?;
            let grid = synth_cfg.grid();
            let (placed, trace) = GlobalPlacer::default().place_synth_traced(&synth, &grid)?;
            Ok(LoopDesign {
                name: synth_cfg.name,
                circuit: Arc::new(synth.circuit),
                grid,
                initial: trace.initial.clone(),
                final_placement: placed.placement,
                deltas: trace.deltas,
            })
        })
        .collect();
    let designs = designs?;
    let total_deltas: usize = designs.iter().map(|d| d.deltas.len()).sum();
    let total_ops = 2 * total_deltas; // every delta is one update + one predict
    println!(
        "workload: {designs_n} designs x ~{} placer deltas = {total_ops} session ops \
         (update + predict per iteration)",
        total_deltas / designs_n.max(1)
    );
    println!(
        "host parallelism: {} (concurrent mode runs {designs_n} clients + {workers} shard \
         workers; expect shard scaling only when cores exceed the serial baseline's two \
         threads)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let registry = Arc::new(ModelRegistry::new());
    registry.register_boxed("default", build_arch(&arch, 0, 0)?)?;

    // --- baseline: serially-driven sessions, single shard, one worker ---
    let serial_engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            shards: 1,
            compute_threads: threads,
            metrics: metrics_enabled(args),
            ..EngineConfig::default()
        },
    );
    let serial_handle = serial_engine.handle();
    let mut serial_sessions: Vec<_> = designs
        .iter()
        .map(|d| {
            serial_handle.open_session(
                SessionConfig::new("default").with_design(&d.name),
                Arc::clone(&d.circuit),
                d.initial.clone(),
                d.grid.clone(),
            )
        })
        .collect::<Result<_, _>>()?;
    let t0 = std::time::Instant::now();
    let mut serial_last = Vec::new();
    for (design, session) in designs.iter().zip(serial_sessions.iter_mut()) {
        let mut last = None;
        for delta in &design.deltas {
            session.update(delta)?;
            last = Some(session.predict()?.prediction);
        }
        serial_last.push(last.expect("trace has deltas"));
    }
    let serial_s = t0.elapsed().as_secs_f64();
    let serial_stats = serial_handle.stats();
    serial_engine.shutdown();
    let serial_rps = total_ops as f64 / serial_s.max(1e-9);
    println!(
        "  serially-driven sessions  (1 shard, 1 worker):   {serial_s:>7.2}s  {serial_rps:>8.1} ops/s  \
         ({} forwards)",
        serial_stats.computed
    );

    // --- concurrent pipelined sessions over the sharded engine ---
    let engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig {
            workers,
            shards,
            compute_threads: threads,
            metrics: metrics_enabled(args),
            ..EngineConfig::default()
        },
    );
    let handle = engine.handle();
    let conc_sessions: Vec<_> = designs
        .iter()
        .map(|d| {
            handle.open_session(
                SessionConfig::new("default").with_design(&d.name),
                Arc::clone(&d.circuit),
                d.initial.clone(),
                d.grid.clone(),
            )
        })
        .collect::<Result<_, _>>()?;
    let t1 = std::time::Instant::now();
    type ConcResult = Result<(Arc<lhnn::Prediction>, (u64, u64), Vec<vlsi_netlist::NetId>), String>;
    let results: Vec<ConcResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = designs
            .iter()
            .zip(conc_sessions)
            .map(|(design, mut session)| {
                scope.spawn(move || -> ConcResult {
                    let mut last = None;
                    for delta in &design.deltas {
                        // pipelined: fire the update, let the shard
                        // apply it; predict drains in order
                        drop(session.submit_update(delta));
                        last = Some(session.predict().map_err(|e| e.to_string())?.prediction);
                    }
                    // The session's column layout is order-dependent
                    // (tombstones keep their slot, appends land at the
                    // end), so the parity rebuild below must be
                    // prescribed this layout — a canonical build only
                    // matches right after a compaction.
                    let columns = session.with_pipeline(|p| p.graph().kept_nets().to_vec());
                    Ok((
                        last.expect("trace has deltas"),
                        session.fingerprints().map_err(|e| e.to_string())?,
                        columns,
                    ))
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });
    let conc_s = t1.elapsed().as_secs_f64();
    let conc_rps = total_ops as f64 / conc_s.max(1e-9);
    println!(
        "  pipelined sessions ({shards} shards, {workers} workers):   {conc_s:>7.2}s  \
         {conc_rps:>8.1} ops/s  -> {:.2}x vs serial",
        conc_rps / serial_rps.max(1e-9)
    );

    // --- bitwise parity: every concurrent session vs serial replay and a
    // from-scratch rebuild at the final placement (prescribed the
    // session's own column layout, exactly like the single-design mode:
    // size-filter crossings tombstone/append columns in place, so the
    // replayed layout legitimately differs from a canonical build) ---
    for (design, (result, serial_pred)) in designs.iter().zip(results.iter().zip(&serial_last)) {
        let (conc_pred, conc_fps, columns) = result.as_ref().map_err(|e| e.clone())?;
        let fresh_graph = LhGraph::build_with_columns(
            &design.circuit,
            &design.final_placement,
            &design.grid,
            &LhGraphConfig::default(),
            columns,
        )?;
        let fresh_features = FeatureSet::build(
            &fresh_graph,
            &design.circuit,
            &design.final_placement,
            &design.grid,
        )?;
        let fresh_ops = GraphOps::from_graph(&fresh_graph, &AblationSpec::full());
        let fresh_fps = (fresh_ops.fingerprint(), fresh_features.fingerprint());
        if *conc_fps != fresh_fps {
            return Err(format!(
                "bitwise parity FAILED for {}: concurrent session {conc_fps:?} vs fresh \
                 rebuild {fresh_fps:?}",
                design.name
            )
            .into());
        }
        if !conc_pred.cls_prob.approx_eq(&serial_pred.cls_prob, 0.0)
            || !conc_pred.reg.approx_eq(&serial_pred.reg, 0.0)
        {
            return Err(format!(
                "final prediction of {} diverged between pipelined and serial sessions",
                design.name
            )
            .into());
        }
    }
    println!("bitwise parity: OK ({designs_n} designs, pipelined == serial == fresh rebuild)");

    let stats = handle.stats();
    println!("engine stats: {stats}");
    for s in &stats.per_shard {
        println!(
            "  shard {}: {} workers, {} requests, {} forwards, {} cache hits, {} session \
             updates, p99 {:.2} ms",
            s.shard,
            s.workers,
            s.requests,
            s.computed,
            s.cache_hits,
            s.session_updates,
            s.p99_us as f64 / 1000.0
        );
    }
    if handle.metrics_enabled() {
        report_observability(
            &handle.metrics_snapshot(),
            &handle.flight_events(),
            args,
            "results/METRICS_loop_bench",
        )?;
    }
    engine.shutdown();

    // --- cross-design stateless burst: same-shape placement snapshots
    // submitted together, so shard micro-batches fuse them into
    // block-diagonal forwards ---
    let snaps_per_design = 3usize;
    let mut snapshots: Vec<(Arc<lhnn::GraphOps>, Arc<FeatureSet>)> = Vec::new();
    for design in &designs {
        let mut pipe = LatticePipeline::for_serving(
            Arc::clone(&design.circuit),
            design.initial.clone(),
            design.grid.clone(),
        )?;
        let step = (design.deltas.len() / snaps_per_design).max(1);
        let mut taken = 0;
        for (i, delta) in design.deltas.iter().enumerate() {
            pipe.apply(delta)?;
            if (i + 1) % step == 0 && taken < snaps_per_design {
                snapshots.push((pipe.ops(), pipe.features()));
                taken += 1;
            }
        }
    }
    let burst_reqs: Vec<PredictRequest> = snapshots
        .iter()
        .map(|(ops, feats)| PredictRequest::new("default", Arc::clone(ops), Arc::clone(feats)))
        .collect();
    let burst_engine = |workers: usize| {
        ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig {
                workers,
                shards,
                compute_threads: threads,
                metrics: metrics_enabled(args),
                ..EngineConfig::default()
            },
        )
    };
    // baseline: one request at a time — every snapshot is its own dispatch
    let serial_burst = burst_engine(workers);
    let sb_handle = serial_burst.handle();
    let t2 = std::time::Instant::now();
    let serial_replies: Vec<_> =
        burst_reqs.iter().map(|r| sb_handle.predict(r)).collect::<Result<_, _>>()?;
    let burst_serial_s = t2.elapsed().as_secs_f64();
    serial_burst.shutdown();
    // candidate: the whole burst enqueued before collection — same-shape
    // misses sharing a micro-batch run as one block-diagonal forward
    let batched_burst = burst_engine(workers);
    let bb_handle = batched_burst.handle();
    let t3 = std::time::Instant::now();
    let batched_replies: Vec<_> =
        bb_handle.predict_batch(&burst_reqs).into_iter().collect::<Result<_, _>>()?;
    let burst_batched_s = t3.elapsed().as_secs_f64();
    let burst_stats = bb_handle.stats();
    batched_burst.shutdown();
    // parity: batched replies == serial replies == direct model forwards
    let direct_model = build_arch(&arch, 0, 0)?;
    for (i, ((ops, feats), (serial, batched))) in
        snapshots.iter().zip(serial_replies.iter().zip(&batched_replies)).enumerate()
    {
        let direct = direct_model.predict(ops, feats);
        for (label, reply) in [("serial", serial), ("batched", batched)] {
            if !direct.cls_prob.approx_eq(&reply.prediction.cls_prob, 0.0)
                || !direct.reg.approx_eq(&reply.prediction.reg, 0.0)
            {
                return Err(format!(
                    "cross-design batching parity FAILED: {label} snapshot {i} diverged from \
                     the direct forward"
                )
                .into());
            }
        }
    }
    println!(
        "cross-design batching parity: OK ({} snapshots, batched == serial == direct bitwise; \
         {} block-diagonal forwards covered {} requests)",
        snapshots.len(),
        burst_stats.batched_forwards,
        burst_stats.batched_forward_jobs,
    );
    println!(
        "  stateless burst: one-at-a-time {:.2}ms -> batched {:.2}ms ({} dispatches for {} \
         forwards)",
        burst_serial_s * 1e3,
        burst_batched_s * 1e3,
        burst_stats.computed - burst_stats.batched_forward_jobs + burst_stats.batched_forwards,
        burst_stats.computed,
    );

    // Tail latency rides along in the bench record: the aggregate
    // percentiles (recency-weighted across shards) plus each shard's own
    // p99, so a regression on one hot shard is visible even when the
    // aggregate hides it.
    let mut record = BenchRecord::labeled(
        format!("serve_shard_{designs_n}d_{shards}s_{cells}c_{grid_n}x{grid_n}"),
        "serial sessions",
        serial_s * 1e3,
        format!("pipelined x{designs_n} over {shards} shards"),
        conc_s * 1e3,
    )
    .with_extra("p50_us", stats.p50_us as f64)
    .with_extra("p95_us", stats.p95_us as f64)
    .with_extra("p99_us", stats.p99_us as f64)
    .with_extra("burst_serial_ms", burst_serial_s * 1e3)
    .with_extra("burst_batched_ms", burst_batched_s * 1e3)
    .with_extra("batched_forwards", burst_stats.batched_forwards as f64)
    .with_extra("batched_forward_jobs", burst_stats.batched_forward_jobs as f64);
    for s in &stats.per_shard {
        record = record.with_extra(format!("shard{}_p99_us", s.shard), s.p99_us as f64);
    }
    write_bench_json(Path::new(&json_path), "serve_shard", threads.max(1), &[record])?;
    println!(
        "wrote {json_path} (baseline = serially-driven sessions, candidate = concurrent pipelined)"
    );
    Ok(())
}

/// `lhnn serve-bench`: drive synthetic designs through the inference
/// engine and report latency, throughput and cache behaviour.
pub fn serve_bench(args: &Args) -> CmdResult {
    let designs_n = args.num("designs", 4usize).max(1);
    let requests = args.num("requests", 64usize).max(1);
    let workers = args.num("workers", 4usize).max(1);
    let clients = args.num("clients", workers.max(2)).max(1);
    let cells = args.num("cells", 200usize);
    let grid = args.num("grid", 12u32);
    let cache = args.num("cache", 128usize);
    let threshold = args.num("threshold", 0.5f32);
    let compute_threads = args.num("threads", 0usize);
    let arch = args.get("model", "lhnn");
    if compute_threads > 0 {
        neurograd::pool::configure_threads(compute_threads);
    }

    eprintln!("preparing {designs_n} synthetic designs ({cells} cells, {grid}x{grid} g-cells)...");
    let designs: Result<Vec<_>, _> =
        (0..designs_n as u64).map(|s| bench_design(s, cells, grid)).collect();
    let designs = designs?;

    println!(
        "workload: {requests} requests over {designs_n} designs ({arch} model), \
         {clients} client threads, cache {cache}"
    );
    println!(
        "compute pool: {} intra-op threads, shared by all {workers} workers \
         (host parallelism {}; kernels are bitwise thread-count-invariant)",
        neurograd::pool::current_threads(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!("{}", neurograd::simd::isa_report());
    let mut baseline_rps = 0.0;
    for (label, w, cache_cap) in [
        ("1 worker, cold cache", 1, 0),
        (&format!("{workers} workers, cold cache")[..], workers, 0),
    ] {
        let (elapsed, stats, _, _) = drive_engine(
            &designs,
            &arch,
            w,
            clients,
            requests,
            cache_cap,
            threshold,
            compute_threads,
            metrics_enabled(args),
        )?;
        let rps = requests as f64 / elapsed.max(1e-9);
        if w == 1 {
            baseline_rps = rps;
        }
        println!(
            "  {label:<24} {elapsed:>7.2}s  {rps:>8.1} req/s  p50 {:>7.2} ms  p95 {:>7.2} ms  p99 {:>7.2} ms",
            stats.p50_us as f64 / 1000.0,
            stats.p95_us as f64 / 1000.0,
            stats.p99_us as f64 / 1000.0,
        );
        if w != 1 && baseline_rps > 0.0 {
            println!("  parallel speedup at {w} workers: {:.2}x", rps / baseline_rps);
        }
    }
    // Warm-cache pass: every design repeats, so hits dominate.
    let (elapsed, stats, snapshot, events) = drive_engine(
        &designs,
        &arch,
        workers,
        clients,
        requests,
        cache,
        threshold,
        compute_threads,
        metrics_enabled(args),
    )?;
    println!(
        "  {:<24} {elapsed:>7.2}s  {:>8.1} req/s  cache hit rate {:.1}% ({} of {} served from cache)",
        format!("{workers} workers, LRU cache"),
        requests as f64 / elapsed.max(1e-9),
        stats.cache_hit_rate * 100.0,
        stats.cache_hits,
        stats.requests,
    );
    println!("engine stats: {stats}");
    if metrics_enabled(args) {
        report_observability(&snapshot, &events, args, "results/METRICS_serve_bench")?;
    }
    Ok(())
}

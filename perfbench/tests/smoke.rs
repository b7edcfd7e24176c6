//! The benchmark's own tests: a fast smoke of every workload (exactly the
//! metrics `BENCHMARK.json` declares, each with its unit), and negative
//! tests showing each output check fails on a one-bit difference.

use lhnn::{AblationSpec, GraphOps};
use lhnn_perfbench::report::{fingerprints_restored, losses_ok, same_prediction};
use lhnn_perfbench::{run, Opts, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn manifest(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let start = json.find(&format!("\"{section}\": [")).expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Opts { workload, seed: 7, seconds: 1.0, trace, smoke: true, spans_out: None };
    let rep = run(&opts);
    assert_eq!(rep.failed, 0, "{} failed: {:?}", workload.name(), rep.notes);
    assert!(rep.attempted > 0);
    let mut emitted: Vec<(String, String)> =
        rep.metrics.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
    let mut expected = manifest(if trace { "per_layer" } else { "end_to_end" });
    emitted.sort_unstable();
    expected.sort_unstable();
    assert_eq!(emitted, expected, "{} (trace {trace})", workload.name());
    let declared = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let mut declared: Vec<(String, String)> =
        declared.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    declared.sort_unstable();
    assert_eq!(declared, expected);
    assert!(rep.metrics.iter().all(|(_, v, _)| v.is_finite()));
    assert!(benchmark_json().contains(&format!("\"name\": \"{}\"", workload.name())));
    let line = rep.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
}

#[test]
fn placer_trace_emits_every_metric() {
    smoke(Workload::PlacerTrace, false);
    smoke(Workload::PlacerTrace, true);
}

#[test]
fn stateless_serve_emits_every_metric() {
    smoke(Workload::StatelessServe, false);
    smoke(Workload::StatelessServe, true);
}

#[test]
fn train_epoch_emits_every_metric() {
    smoke(Workload::TrainEpoch, false);
    smoke(Workload::TrainEpoch, true);
}

/// A real prediction on a small design.
fn prediction() -> lhnn::Prediction {
    let (ops, feats): (GraphOps, _) = {
        let cfg = vlsi_netlist::synth::SynthConfig {
            n_cells: 120,
            grid_nx: 8,
            grid_ny: 8,
            ..Default::default()
        };
        let synth = vlsi_netlist::synth::generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = vlsi_place::GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let graph = lh_graph::LhGraph::build(
            &synth.circuit,
            &placed.placement,
            &grid,
            &lh_graph::LhGraphConfig::default(),
        )
        .unwrap();
        let feats =
            lh_graph::FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).unwrap();
        (GraphOps::from_graph(&graph, &AblationSpec::full()), feats)
    };
    let model = lhnn_perfbench::lhnn_model();
    model.predict_with(&ops, &feats, model.new_scratch().as_mut())
}

fn flip_low_bit(m: &mut neurograd::Matrix, i: usize) {
    let v = &mut m.as_mut_slice()[i];
    *v = f32::from_bits(v.to_bits() ^ 1);
}

#[test]
fn prediction_check_fails_on_one_bit() {
    let p = prediction();
    assert!(same_prediction(&p, &p.clone()));
    for i in [0, p.cls_prob.len() - 1] {
        let mut q = p.clone();
        flip_low_bit(&mut q.cls_prob, i);
        assert!(!same_prediction(&p, &q));
        let mut q = p.clone();
        flip_low_bit(&mut q.reg, i);
        assert!(!same_prediction(&p, &q));
    }
}

#[test]
fn fingerprint_check_fails_on_one_bit() {
    let open = (0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
    assert!(fingerprints_restored(open, Some(open)));
    assert!(!fingerprints_restored(open, Some((open.0 ^ 1, open.1))));
    assert!(!fingerprints_restored(open, Some((open.0, open.1 ^ 1))));
    assert!(!fingerprints_restored(open, None));
}

#[test]
fn loss_check_fails_on_one_bit() {
    let losses = [41.5f32, 12.25, 3.0];
    assert!(losses_ok(&losses, 41.5));
    assert!(!losses_ok(&losses, f32::from_bits(41.5f32.to_bits() ^ 1)));
    assert!(!losses_ok(&[41.5, f32::NAN], 41.5));
    assert!(!losses_ok(&[41.5, f32::INFINITY], 41.5));
}

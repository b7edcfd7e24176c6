//! One smoke test per harness binary: `--help` must print the shared
//! usage text and exit successfully *without* starting the experiment
//! protocol (which at default scale trains for 150 epochs).

use std::process::Command;

fn assert_help(exe: &str, binary_name: &str) -> String {
    let out = Command::new(exe).arg("--help").output().expect("spawn harness binary");
    assert!(out.status.success(), "{binary_name} --help failed: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("USAGE"), "{binary_name}: no usage text:\n{text}");
    assert!(text.contains(binary_name), "{binary_name}: usage lacks binary name:\n{text}");
    assert!(text.contains("--scale"), "{binary_name}: usage lacks shared flags:\n{text}");
    text
}

macro_rules! help_smoke {
    ($($test:ident => $env:literal / $name:literal;)*) => {$(
        #[test]
        fn $test() {
            let _ = assert_help(env!($env), $name);
        }
    )*};
}

help_smoke! {
    table1_prints_help => "CARGO_BIN_EXE_table1" / "table1";
    table2_prints_help => "CARGO_BIN_EXE_table2" / "table2";
    table3_prints_help => "CARGO_BIN_EXE_table3" / "table3";
    figure4_prints_help => "CARGO_BIN_EXE_figure4" / "figure4";
    gamma_sweep_prints_help => "CARGO_BIN_EXE_gamma_sweep" / "gamma_sweep";
    fanout_ablation_prints_help => "CARGO_BIN_EXE_fanout_ablation" / "fanout_ablation";
    serving_prints_help => "CARGO_BIN_EXE_serving" / "serving";
}

#[test]
fn scaling_prints_help() {
    let text = assert_help(env!("CARGO_BIN_EXE_scaling"), "scaling");
    assert!(text.contains("--threads N"), "scaling: usage lacks its own --threads N flag:\n{text}");
}

#[test]
fn kernels_prints_help() {
    let text = assert_help(env!("CARGO_BIN_EXE_kernels"), "kernels");
    for flag in ["--threads N", "--simd on|off"] {
        assert!(text.contains(flag), "kernels: usage lacks its own {flag} flag:\n{text}");
    }
}

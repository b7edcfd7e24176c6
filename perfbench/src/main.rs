//! `lhnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record, notes, and as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use lhnn_perfbench::{nproc, report, run, Opts, Workload};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let trace = trace.unwrap_or(false);
    Ok(Opts {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        smoke: false,
        spans_out: trace.then(|| {
            PathBuf::from(format!("perfbench/out/spans-{}-seed{seed}.jsonl", workload.name()))
        }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lhnn-perfbench --workload placer_trace|stateless_serve|train_epoch \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_line(opts.workload.name(), opts.seed, nproc()));
    let rep = run(&opts);
    for line in &rep.notes {
        println!("{line}");
    }
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}

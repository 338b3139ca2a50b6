//! `jrt-perfbench`: the cold, whole-workload benchmark of the javart
//! pipeline, with a per-layer split taken from spans recorded around
//! calls into each crate's public functions.
//!
//! ```text
//! jrt-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               [--smoke] [--counts FILE]
//! ```
//!
//! Workloads: `record-s1`, `simulate-s1`, `reproduce-tiny`,
//! `serve-tiny` (see `README.md` for why each exists). With
//! `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate
//! traced pass. Deterministic counts never go into that line: they are
//! checked against `pins.txt` and written to `--counts FILE` (default
//! `.bench_work/counts/<workload>-<seed>.txt`). `--smoke` runs each
//! workload once on tiny inputs.

mod common;
mod record;
mod reproduce;
mod serve;
mod simulate;
mod spans;

use common::{Outcome, Run};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["record-s1", "simulate-s1", "reproduce-tiny", "serve-tiny"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: jrt-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--smoke] [--counts FILE]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<(String, Run)> {
    let mut workload = None;
    let mut run = Run {
        seed: serve::DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
        smoke: false,
        counts: None,
        work: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => run.smoke = true,
            "--workload" => workload = Some(it.next()?.clone()),
            "--seed" => run.seed = it.next()?.parse().ok()?,
            "--seconds" => run.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                run.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--counts" => run.counts = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return reproduce::child(&args[1..]);
    }
    let Some((workload, run)) = parse_args(&args) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("cannot create {}: {e}", run.work.display());
        return ExitCode::FAILURE;
    }
    let outcome: Result<Outcome, String> = match workload.as_str() {
        "record-s1" => record::run(&run),
        "simulate-s1" => simulate::run(&run),
        "reproduce-tiny" => reproduce::run(&run),
        "serve-tiny" => serve::run(&run),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    match outcome {
        Ok(outcome) => match outcome.finish(&workload, &run) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

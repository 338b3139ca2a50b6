//! Input-size sweep — the paper's s1 → s10 observation.
//!
//! Section 2: "We have also investigated the effect of larger
//! datasets, s10 and s100. The increased method reuse resulted in
//! expected results such as increased code locality, reduced time
//! spent in compilation vs execution, etc. but all major conclusions
//! from the experiments stay valid." This experiment runs three
//! representative benchmarks at three scales and shows the
//! translation share of JIT time falling as inputs grow.

use crate::jobs;
use crate::runner::{run_mode, Mode};
use crate::table::{pct, Table};
use crate::tape;
use jrt_trace::{CountingSink, Phase};
use jrt_workloads::{compress, db, javac, Size, Spec};

/// Translate share at each size for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SizesRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Translate share of JIT instructions at Tiny / S1 / S10.
    pub translate_share: [f64; 3],
    /// Interpreter-to-JIT instruction ratio at each size.
    pub interp_ratio: [f64; 3],
}

/// The full size sweep.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// One row per representative benchmark.
    pub rows: Vec<SizesRow>,
}

impl Sizes {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Input-size sweep: translate share of JIT time (method reuse grows with input)",
            &[
                "benchmark",
                "xlate% tiny",
                "xlate% s1",
                "xlate% s10",
                "interp/jit s1",
                "interp/jit s10",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                pct(r.translate_share[0]),
                pct(r.translate_share[1]),
                pct(r.translate_share[2]),
                format!("{:.2}x", r.interp_ratio[1]),
                format!("{:.2}x", r.interp_ratio[2]),
            ]);
        }
        t
    }
}

const SIZES: [Size; 3] = [Size::Tiny, Size::S1, Size::S10];

/// Instruction counts of one `(benchmark, size, mode)` run. Tiny and
/// s1 recordings come from the tape cache, shared with the rest of a
/// `run_all`. No other section replays an s10 stream, so s10 runs
/// stream straight into a counter instead of recording a tape.
fn counts(spec: &Spec, size: Size, mode: Mode) -> CountingSink {
    let w = tape::workload(spec, size);
    if size != Size::S10 {
        return tape::recorded(&w, mode).counts.clone();
    }
    let mut counts = CountingSink::new();
    let result = run_mode(&w.program, mode, &mut counts);
    w.check(&result);
    counts
}

/// One benchmark × size job: translate share of the JIT run and the
/// interpreter-to-JIT instruction ratio.
fn run_point(spec: &Spec, size: Size) -> (f64, f64) {
    let jit = counts(spec, size, Mode::Jit);
    let interp = counts(spec, size, Mode::Interp);
    let translate_share = jit.phase(Phase::Translate) as f64 / jit.total() as f64;
    (translate_share, interp.total() as f64 / jit.total() as f64)
}

/// Runs the size sweep on three representative benchmarks
/// (translation-heavy `db`/`javac`, execution-heavy `compress`),
/// one job per benchmark × size.
pub fn run() -> Sizes {
    let specs = [
        Spec {
            name: "compress",
            build: compress::program,
            expected: compress::expected,
            multithreaded: false,
        },
        Spec {
            name: "db",
            build: db::program,
            expected: db::expected,
            multithreaded: false,
        },
        Spec {
            name: "javac",
            build: javac::program,
            expected: javac::expected,
            multithreaded: false,
        },
    ];
    let work = jobs::cross(&specs, &SIZES);
    let points = jobs::par_map(&work, |(spec, size)| run_point(spec, *size));
    let rows = specs
        .iter()
        .zip(points.chunks(3))
        .map(|(spec, p)| SizesRow {
            name: spec.name,
            translate_share: [p[0].0, p[1].0, p[2].0],
            interp_ratio: [p[0].1, p[1].1, p[2].1],
        })
        .collect();
    Sizes { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs S10 inputs; exercised by the sweep_sizes binary"]
    fn translate_share_falls_with_input_size() {
        let s = run();
        for r in &s.rows {
            assert!(
                r.translate_share[2] < r.translate_share[1],
                "{}: s10 {} should be below s1 {}",
                r.name,
                r.translate_share[2],
                r.translate_share[1]
            );
            // The JIT's advantage grows with reuse.
            assert!(r.interp_ratio[2] >= r.interp_ratio[1] * 0.95, "{}", r.name);
        }
    }
}

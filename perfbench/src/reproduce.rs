//! `reproduce-tiny`: the user's command, cold.
//!
//! Each timed iteration is a fresh process (this binary re-executed
//! with `--child run-all`) that does what `run_all tiny` does at two
//! workers: every report section, then the rendered report, which the
//! parent byte-compares with `tests/golden/experiments_tiny.md`. It is
//! the only workload through the experiments tape cache, the job
//! scheduler and report rendering. The traced pass is one more fresh
//! process (`--child sections`) that times each `report::SECTIONS`
//! entry in canonical order, then the rendering.

use crate::common::{median, Outcome, Pins, Run};
use crate::spans::Spans;
use jrt_experiments::report::{self, Report};
use jrt_experiments::{
    codecache, fig1, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, folding, gc_study,
    indirect, ir, jobs, proposal, scale, serve, sizes, table1, table2, table3, tape, Mode,
};
use jrt_workloads::{suite, Size};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const GOLDEN: &str = "tests/golden/experiments_tiny.md";
const WORKERS: usize = 2;

/// Runs one report section into `r`.
fn run_section(name: &str, r: &mut Report) -> Result<(), String> {
    let s = Size::Tiny;
    match name {
        "fig1" => r.fig1 = Some(fig1::run(s)),
        "table1" => r.table1 = Some(table1::run(s)),
        "fig2" => r.fig2 = Some(fig2::run(s)),
        "table2" => r.table2 = Some(table2::run(s)),
        "table3" => r.table3 = Some(table3::run(s)),
        "fig3" => r.fig3 = Some(fig3::run(s)),
        "fig4" => r.fig4 = Some(fig4::run(s)),
        "fig5" => r.fig5 = Some(fig5::run(s)),
        "fig6" => r.fig6 = Some(fig6::run(s)),
        "fig7" => r.fig7 = Some(fig7::run(s)),
        "fig8" => r.fig8 = Some(fig8::run(s)),
        "fig9" => r.fig9 = Some(fig9::run(s)),
        "fig11" => r.fig11 = Some(fig11::run(s)),
        "indirect" => r.indirect = Some(indirect::run(s)),
        "folding" => r.folding = Some(folding::run(s)),
        "proposal" => r.proposal = Some(proposal::run(s)),
        "regir" => r.regir = Some(ir::run(s)),
        "sizes" => r.sizes = Some(sizes::run()),
        "codecache" => r.codecache = Some(codecache::run(s)),
        "serve" => r.serve = Some(serve::run(s)),
        "scale" => r.scale = Some(scale::run(s)),
        "gc" => r.gc = Some(gc_study::run(s)),
        other => return Err(format!("section {other} has no timed entry point")),
    }
    Ok(())
}

/// Child process: `--child noop`, `--child run-all OUT` or
/// `--child sections OUT`. Writes the report to OUT and prints
/// `key value` lines on stdout.
pub fn child(args: &[String]) -> ExitCode {
    let (mode, out) = match args {
        [m] if m == "noop" => return ExitCode::SUCCESS,
        [m, out] => (m.as_str(), out),
        _ => return ExitCode::from(2),
    };
    jobs::set_jobs(WORKERS);
    let md = match mode {
        "run-all" => report::run_filtered(Size::Tiny, None).to_markdown(),
        "sections" => {
            // No section name contains '-': an empty report to fill.
            let mut r = report::run_filtered(Size::Tiny, Some("-"));
            for name in report::SECTIONS {
                let t = Instant::now();
                if let Err(e) = run_section(name, &mut r) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                println!("section {name} {}", t.elapsed().as_nanos());
            }
            let t = Instant::now();
            let md = r.to_markdown();
            println!("render {}", t.elapsed().as_nanos());
            md
        }
        _ => return ExitCode::from(2),
    };
    if let Err(e) = std::fs::write(out, md) {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    // The Fig 2 stream set (every analog in both modes) as the fixed
    // work unit; the tape cache still holds it, so this re-records
    // nothing unless the run demoted it.
    let (mut events, mut bytecodes) = (0, 0);
    for spec in suite() {
        let w = tape::workload(&spec, Size::Tiny);
        for mode in Mode::BOTH {
            let e = tape::recorded(&w, mode);
            events += e.tape.len();
            bytecodes += e.result.counters.bytecodes;
        }
    }
    println!("fig2.events {events}");
    println!("fig2.bytecodes {bytecodes}");
    println!("disk_demotions {}", tape::disk_demotions());
    println!("disk_promotions {}", tape::disk_promotions());
    println!("disk_fallbacks {}", tape::disk_fallbacks());
    match crate::common::peak_rss_mb() {
        Ok(mb) => println!("peak_rss_mb {mb}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One child run: its wall time, its `key value` lines and whether
/// the report it wrote equals the golden.
struct ChildRun {
    wall_s: f64,
    lines: Vec<(String, String)>,
    report_ok: bool,
}

impl ChildRun {
    fn value(&self, key: &str) -> Result<f64, String> {
        self.lines
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| format!("child reported no {key}"))
    }
}

fn spawn(run: &Run, mode: &str, golden: &[u8]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pid = std::process::id();
    let out = run.work.join(format!("reproduce-{pid}.md"));
    let spill = run.work.join(format!("reproduce-tapes-{pid}"));
    let log = run.work.join("reproduce-child.log");
    let log = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    // The parent's clock, not the child's: process start and exit are
    // part of the user's command.
    let t = Instant::now();
    let output = Command::new(exe)
        .args(["--child", mode])
        .arg(&out)
        .env("JRT_TAPE_DIR", &spill)
        .env_remove("JRT_TAPE_BUDGET")
        .env_remove("JRT_FILTER")
        .env_remove("JRT_JOBS")
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .map_err(|e| format!("spawn {mode}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&spill);
    let report = std::fs::read(&out);
    let _ = std::fs::remove_file(&out);
    if !output.status.success() {
        return Err(format!("child {mode} failed: {}", output.status));
    }
    let report = report.map_err(|e| format!("{}: {e}", out.display()))?;
    let lines = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildRun {
        wall_s,
        lines,
        report_ok: report == golden,
    })
}

/// Checks one child run and adds its counts; false if any output is
/// wrong.
fn check(child: &ChildRun, pins: &Pins, out: &mut Outcome) -> Result<bool, String> {
    let mut ok = child.report_ok;
    if !ok {
        eprintln!("report differs from {GOLDEN}");
    }
    for name in [
        "fig2.events",
        "fig2.bytecodes",
        "disk_demotions",
        "disk_promotions",
        "disk_fallbacks",
    ] {
        let v = child.value(name)? as u64;
        ok &= out.count(pins, format!("reproduce.tiny.{name}"), v);
    }
    Ok(ok)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let pins = Pins::load();
    // Set-up: load the golden and start one no-op child, the fixed
    // cost every timed iteration also pays before its first job.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (golden, setup_s) = run.setup(15, || -> Result<Vec<u8>, String> {
        let golden = std::fs::read(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
        let status = Command::new(&exe)
            .args(["--child", "noop"])
            .status()
            .map_err(|e| format!("spawn noop: {e}"))?;
        if !status.success() {
            return Err(format!("noop child failed: {status}"));
        }
        Ok(golden)
    });
    let golden = golden?;

    let mut out = Outcome::default();
    let mut rss = Vec::new();
    let mut work = (0u64, 0u64, 1u64);
    let walls = run.timed(1, || {
        let child = spawn(run, "run-all", &golden)?;
        out.attempted += 1;
        if !check(&child, &pins, &mut out)? {
            out.failed += 1;
        }
        rss.push(child.value("peak_rss_mb")?);
        work = (
            child.value("fig2.events")? as u64,
            child.value("fig2.bytecodes")? as u64,
            1,
        );
        Ok(())
    })?;
    for k in pins.missing("reproduce.tiny.", &out.counts) {
        out.problems.push(format!("pinned count {k} not produced"));
    }
    if !run.trace {
        out.end_to_end(&walls, setup_s, work, median(&rss));
        return Ok(out);
    }

    let child = spawn(run, "sections", &golden)?;
    out.attempted += 1;
    if !check(&child, &pins, &mut out)? {
        out.failed += 1;
    }
    // The child's own clock splits its wall (the parent's clock) by
    // section; process start, exit and the tail counts stay
    // unattributed.
    let mut spans = Spans::default();
    let root = spans.push(None, "reproduce", (child.wall_s * 1e9) as u64);
    let mut sections = Vec::new();
    for (k, v) in &child.lines {
        let (name, ns) = match (k.as_str(), v.split_once(' ')) {
            ("section", Some((name, ns))) => (format!("experiments.section.{name}"), ns),
            ("render", None) => ("experiments.render".to_string(), v.as_str()),
            _ => continue,
        };
        let ns: u64 = ns.parse().map_err(|_| format!("bad child line {k} {v}"))?;
        spans.push(Some(root), &name, ns);
        sections.push((name, ns));
    }
    if sections.len() != report::SECTIONS.len() + 1 {
        return Err(format!(
            "child timed {} of {} sections",
            sections.len() - 1,
            report::SECTIONS.len()
        ));
    }
    spans.write(&run.work.join("trace/reproduce-tiny.txt"), "reproduce")?;
    for (name, ns) in sections {
        out.metric(format!("{name}_ms"), ns as f64 / 1e6, "ms");
    }
    for name in ["disk_demotions", "disk_promotions", "disk_fallbacks"] {
        out.metric(format!("tape.{name}"), child.value(name)?, "count");
    }
    out.tracing(
        child.wall_s,
        median(&walls),
        spans.self_times()["reproduce"],
    );
    out.count_totals("reproduce.tiny.");
    Ok(out)
}

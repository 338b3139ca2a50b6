//! `serve-tiny`: the VM used for many short requests.
//!
//! A real `run_fleet` drains `Traffic::generate(seed)` through two
//! workers, each reusing one resident VM via `Vm::reset_for` over a
//! shared-scope code cache (`serve_config()`). Start-up, class
//! loading, dedup lookups and fuel checks dominate, not steady-state
//! stepping. The fleet is a closed batch: every request is queued at
//! the start and the metric is requests completed per second at this
//! input, with no latency limit (arrival-driven serving is not built).
//!
//! After the timed phase the same job list runs through one resident
//! VM in canonical order; the fleet's results must equal it. That
//! pass is deterministic, so it also gives the count half (events,
//! dedup hits, installs) and, traced, the per-request latencies.

use crate::common::{median, peak_rss_mb, percentile, Digest, Outcome, Pins, Run};
use crate::spans::Spans;
use jrt_serve::pool::{jobs_of, run_fleet, FleetConfig, Job, JobResult};
use jrt_serve::{serve_config, Traffic, TrafficConfig};
use jrt_trace::CountingSink;
use jrt_vm::{CodeCacheStats, Vm};
use jrt_workloads::{suite_with_hello, Size};
use std::time::Instant;

/// Default traffic seed, the serving study's. `pins.txt` also pins
/// the held-out seed 0x5EED00A7 (1592590503), kept for checking that a
/// claim holds on a seed it was not tuned on.
pub const DEFAULT_SEED: u64 = 0x5EED_0042;

const REQUESTS: usize = 1000;
const WORKERS: usize = 2;

/// The single resident-VM pass over `jobs`.
struct Reference {
    results: Vec<(Result<Option<i32>, String>, u64)>,
    request_ns: Vec<u64>,
    events: u64,
    cache: CodeCacheStats,
    wall_s: f64,
}

fn single_vm_pass(traffic: &Traffic, jobs: &[Job], mut spans: Option<&mut Spans>) -> Reference {
    let start = Instant::now();
    let mut vm: Option<Vm<'_>> = None;
    let mut r = Reference {
        results: Vec::with_capacity(jobs.len()),
        request_ns: Vec::with_capacity(jobs.len()),
        events: 0,
        cache: CodeCacheStats::default(),
        wall_s: 0.0,
    };
    for job in jobs {
        let program = &traffic.programs[job.program];
        let span = spans.as_deref_mut().map(|s| s.open("vm.request"));
        let t = Instant::now();
        let vm = match &mut vm {
            Some(vm) => {
                vm.reset_for(program);
                vm
            }
            None => vm.insert(Vm::new(program, serve_config())),
        };
        vm.set_fuel(Some(job.fuel));
        let mut sink = CountingSink::new();
        let run = vm.run_observed(&mut sink);
        r.request_ns.push(t.elapsed().as_nanos() as u64);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
            s.close(id);
        }
        r.events += sink.total();
        r.results
            .push((run.observables.outcome, run.observables.bytecodes));
    }
    r.cache = vm.map(|vm| vm.cache_stats()).unwrap_or_default();
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Whether a fleet job's result is right: equal to the reference pass
/// and, for a catalog workload that did not run out of fuel (metered
/// tenants are expected to), the workload's expected exit value.
fn job_ok(
    traffic: &Traffic,
    job: &Job,
    got: &JobResult,
    want: &(Result<Option<i32>, String>, u64),
) -> bool {
    if (&got.outcome, got.bytecodes) != (&want.0, want.1) {
        return false;
    }
    let name = &traffic.names[job.program];
    match suite_with_hello().iter().find(|s| s.name == name) {
        Some(spec) if !got.fuel_exhausted => got.outcome == Ok(Some((spec.expected)(Size::Tiny))),
        _ => true,
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let requests = if run.smoke { 64 } else { REQUESTS };
    let cfg = TrafficConfig {
        seed: run.seed,
        requests,
        tenants: 8,
        fuzz_programs: 3,
        size: Size::Tiny,
    };
    let pins = Pins::load();
    let ((traffic, jobs), setup_s) = run.setup(9, || {
        let traffic = Traffic::generate(&cfg);
        let jobs = jobs_of(&traffic);
        (traffic, jobs)
    });
    let fleet = FleetConfig {
        workers: WORKERS,
        vm: serve_config(),
    };
    let mut fleet_results = Vec::new();
    let walls = run.timed(2, || {
        fleet_results.push(run_fleet(&traffic.programs, &jobs, &fleet).results);
        Ok(())
    })?;
    let rss = peak_rss_mb()?;

    let reference = single_vm_pass(&traffic, &jobs, None);
    let mut out = Outcome::default();
    for results in &fleet_results {
        for ((job, got), want) in jobs.iter().zip(results).zip(&reference.results) {
            out.attempted += 1;
            if !job_ok(&traffic, job, got, want) {
                out.failed += 1;
            }
        }
    }
    let mut digest = Digest::new();
    for (outcome, bytecodes) in &reference.results {
        match outcome {
            Ok(v) => digest.add(v.map_or(u64::MAX, |v| v as u32 as u64)),
            Err(e) => digest.add_str(e),
        }
        digest.add(*bytecodes);
    }
    let exhausted = fleet_results
        .first()
        .map_or(0, |r| r.iter().filter(|j| j.fuel_exhausted).count());
    let bytecodes: u64 = reference.results.iter().map(|r| r.1).sum();
    let prefix = format!(
        "serve.{}.seed{}.",
        if run.smoke { "smoke" } else { "tiny" },
        run.seed
    );
    for (name, v) in [
        ("requests", requests as u64),
        ("results_digest", digest.value()),
        ("fuel_exhausted", exhausted as u64),
        ("events", reference.events),
        ("bytecodes", bytecodes),
        ("code_installs", reference.cache.installs),
        ("shared_lookups", reference.cache.shared_lookups),
        ("dedup_hits", reference.cache.shared_dedup_hits),
    ] {
        let k = format!("{prefix}{name}");
        if !out.count(&pins, k.clone(), v) {
            out.problems.push(format!("{k} differs from its pin"));
        }
    }
    for k in pins.missing(&prefix, &out.counts) {
        out.problems.push(format!("pinned count {k} not produced"));
    }
    if !run.trace {
        out.end_to_end(
            &walls,
            setup_s,
            (reference.events, bytecodes, requests as u64),
            rss,
        );
        return Ok(out);
    }

    let mut spans = Spans::default();
    let root = spans.open("serve");
    let traced = single_vm_pass(&traffic, &jobs, Some(&mut spans));
    spans.close(root);
    if traced.results != reference.results {
        out.problems
            .push("traced single-VM pass differs from the untraced one".into());
    }
    spans.write(&run.work.join("trace/serve-tiny.txt"), "serve")?;
    let us: Vec<f64> = traced
        .request_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    out.metric("vm.request_us.p50", percentile(&us, 50.0), "us");
    out.metric("vm.request_us.p99", percentile(&us, 99.0), "us");
    out.metric("vm.requests", requests as f64, "count");
    let c = &traced.cache;
    out.metric(
        "codecache.dedup_ratio",
        c.shared_dedup_hits as f64 / c.shared_lookups.max(1) as f64,
        "ratio",
    );
    out.metric("codecache.installs", c.installs as f64, "count");
    let busy_s = traced.request_ns.iter().sum::<u64>() as f64 / 1e9;
    out.metric(
        "serve.pool_efficiency",
        busy_s / (WORKERS as f64 * median(&walls)),
        "ratio",
    );
    out.tracing(
        spans.ns(root) as f64 / 1e9,
        reference.wall_s,
        spans.self_times()["serve"],
    );
    out.count_totals(&prefix);
    Ok(out)
}

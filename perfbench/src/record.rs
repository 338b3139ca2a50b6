//! `record-s1`: the VM and the tape encoder, consumers idle.
//!
//! Every SpecJVM98 analog runs at s1 under the interpreter and the
//! JIT into `Tape::record`, plus the allocation-heavy `gc_suite()`
//! under the JIT with a tiny nursery, on one thread with a fresh `Vm`
//! per run (users pay translation on every run). The traced pass runs
//! each program twice: into `NullSink` (the VM layer) and into a tape
//! recorder (the difference is the encode layer).

use crate::common::{median, peak_rss_mb, record, shuffle, Outcome, Pins, Run};
use crate::spans::Spans;
use jrt_bytecode::Program;
use jrt_trace::{store, NullSink, Tape};
use jrt_vm::{GcConfig, RunResult, Vm, VmConfig, VmError};
use jrt_workloads::{gc_suite, suite, Size, Spec};

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Interp,
    Jit,
    /// The JIT over the generational collector with a tiny nursery.
    Gc,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Jit => "jit",
            Engine::Gc => "gc",
        }
    }

    fn config(self) -> VmConfig {
        match self {
            Engine::Interp => VmConfig::interpreter(),
            Engine::Jit => VmConfig::jit(),
            Engine::Gc => VmConfig::jit().with_gc(GcConfig::tiny_nursery()),
        }
    }
}

struct Item {
    spec: Spec,
    engine: Engine,
    program: usize,
}

fn items() -> Vec<Item> {
    let mut out = Vec::new();
    for (i, spec) in suite().into_iter().enumerate() {
        for engine in [Engine::Interp, Engine::Jit] {
            out.push(Item {
                spec,
                engine,
                program: i,
            });
        }
    }
    let base = suite().len();
    for (i, spec) in gc_suite().into_iter().enumerate() {
        out.push(Item {
            spec,
            engine: Engine::Gc,
            program: base + i,
        });
    }
    out
}

fn size_label(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::S1 => "s1",
        Size::S10 => "s10",
    }
}

/// Checks one recorded run and adds its counts; false if any output
/// is wrong.
fn check(
    item: &Item,
    size: Size,
    result: &Result<RunResult, VmError>,
    tape: &Tape,
    pins: &Pins,
    out: &mut Outcome,
) -> bool {
    let key = format!(
        "record.{}.{}.{}",
        size_label(size),
        item.spec.name,
        item.engine.label()
    );
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{key}: {e}");
            return false;
        }
    };
    let mut ok = r.exit_value == Some((item.spec.expected)(size));
    if !ok {
        eprintln!("{key}: exit value {:?}", r.exit_value);
    }
    let c = &r.counters;
    for (name, v) in [
        ("bytecodes", c.bytecodes),
        ("translate_insts", c.translate_insts),
        ("gc_minors", c.gc_minor),
        ("gc_barrier_insts", c.gc_barrier_insts),
        ("events", tape.len()),
        ("tape_bytes", tape.size_bytes() as u64),
        ("tape_hash", store::fingerprint(tape.len(), tape.segments())),
    ] {
        ok &= out.count(pins, format!("{key}.{name}"), v);
    }
    ok
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let size = if run.smoke { Size::Tiny } else { Size::S1 };
    let pins = Pins::load();
    let specs: Vec<Spec> = suite().into_iter().chain(gc_suite()).collect();
    let (programs, setup_s) = run.setup(9, || {
        specs
            .iter()
            .map(|s| (s.build)(size))
            .collect::<Vec<Program>>()
    });
    let mut items = items();
    shuffle(&mut items, run.seed);

    let mut out = Outcome::default();
    let mut work = (0u64, 0u64, 0u64);
    let walls = run.timed(1, || {
        let (mut events, mut bytecodes) = (0, 0);
        for item in &items {
            let (result, tape) = record(&programs[item.program], item.engine.config());
            out.attempted += 1;
            if !check(item, size, &result, &tape, &pins, &mut out) {
                out.failed += 1;
            }
            events += tape.len();
            bytecodes += result.map_or(0, |r| r.counters.bytecodes);
        }
        work = (events, bytecodes, items.len() as u64);
        Ok(())
    })?;
    let rss = peak_rss_mb()?;
    let prefix = format!("record.{}.", size_label(size));
    for k in pins.missing(&prefix, &out.counts) {
        out.problems.push(format!("pinned count {k} not produced"));
    }
    if !run.trace {
        out.end_to_end(&walls, setup_s, work, rss);
        return Ok(out);
    }

    // Traced pass: NullSink run, then recording run, per item.
    let mut spans = Spans::default();
    let root = spans.open("record");
    // Per engine: (null ns, bytecodes, events); plus encode ns, tape bytes.
    let mut vm_stats = [(0u64, 0u64, 0u64); 3];
    let (mut encode_ns, mut tape_bytes, mut events) = (0u64, 0u64, 0u64);
    for item in &items {
        let program = &programs[item.program];
        let label = format!("vm.{}", item.engine.label());
        let (null_result, null_ns) = spans.time(&label, || {
            Vm::new(program, item.engine.config()).run(&mut NullSink)
        });
        let id = spans.open("trace.encode");
        let (result, tape) = record(program, item.engine.config());
        let rec_ns = spans.close(id);
        spans.push(Some(id), &label, null_ns.min(rec_ns));
        out.attempted += 1;
        let same = null_result.as_ref().ok().map(|r| r.counters)
            == result.as_ref().ok().map(|r| r.counters);
        if !check(item, size, &result, &tape, &pins, &mut out) || !same {
            out.failed += 1;
        }
        let s = &mut vm_stats[item.engine as usize];
        s.0 += null_ns;
        s.1 += result.as_ref().map_or(0, |r| r.counters.bytecodes);
        s.2 += tape.len();
        encode_ns += rec_ns.saturating_sub(null_ns);
        tape_bytes += tape.size_bytes() as u64;
        events += tape.len();
    }
    spans.close(root);
    let traced_wall = spans.ns(root) as f64 / 1e9;
    spans.write(&run.work.join("trace/record-s1.txt"), "record")?;

    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let self_ns = spans.self_times();
    out.metric("workloads.build_ms", setup_s * 1e3, "ms");
    for (engine, s) in [Engine::Interp, Engine::Jit, Engine::Gc]
        .iter()
        .zip(vm_stats)
    {
        let l = engine.label();
        out.metric(format!("vm.{l}.ns_per_bytecode"), per(s.0, s.1), "ns");
        if *engine != Engine::Gc {
            out.metric(format!("vm.{l}.ns_per_event"), per(s.0, s.2), "ns");
        }
    }
    out.metric("trace.encode.ns_per_event", per(encode_ns, events), "ns");
    out.metric("trace.bytes_per_event", per(tape_bytes, events), "B");
    out.tracing(traced_wall, median(&walls), self_ns["record"]);
    out.count_totals(&prefix);
    Ok(out)
}

//! `simulate-s1`: the consumer simulators, VM idle while timed.
//!
//! Set-up records the JIT tapes of all seven analogs and the
//! interpreter tapes of jess, db, javac, mtrt and jack at s1, and
//! writes each to a `DiskTape`. The timed phase drives the paper's
//! consumer set over every tape the way the report sections do: `InstMix`
//! (Fig 2), a one-point paper-L1 `SplitSweep` (Table 3) and the
//! associativity sweep (Fig 7) over decoded `AccessBlocks`, the line
//! sweep (Fig 8) streamed from disk (the over-budget path), the four
//! `BranchEval`s (Table 2) and `Pipeline` at widths 1/2/4/8 (Figs
//! 9/10). The simulated caches start empty, as in the paper.

use crate::common::{median, peak_rss_mb, record, shuffle, Digest, Outcome, Pins, Run};
use crate::spans::Spans;
use jrt_bpred::{Bht, BranchEval, GAp, Gshare, TwoBit};
use jrt_cache::{CacheConfig, CacheStats, SplitSweep};
use jrt_experiments::{fig7, fig8, fig9};
use jrt_ilp::{Pipeline, PipelineConfig};
use jrt_trace::{store, AccessBlocks, DiskTape, InstClass, InstMix, NativeInst, Tape, TraceSink};
use jrt_vm::{VmConfig, VmCounters};
use jrt_workloads::{suite, Size};
use std::path::PathBuf;
use std::time::Instant;

/// Interpreter tapes in the set; every analog contributes a JIT tape.
const INTERP: [&str; 5] = ["jess", "db", "javac", "mtrt", "jack"];

struct Recorded {
    key: String,
    tape: Tape,
    disk: DiskTape,
    counters: VmCounters,
}

/// Sums decoded fields so a decode-only pass cannot be optimized away.
#[derive(Default)]
struct Checksum(u64);

impl TraceSink for Checksum {
    fn accept(&mut self, inst: &NativeInst) {
        self.0 = self.0.wrapping_add(inst.pc);
    }
}

fn add_cache(d: &mut Digest, s: &CacheStats) {
    for x in [s.reads, s.writes, s.read_misses, s.write_misses] {
        d.add(x);
    }
    d.add(s.compulsory_misses);
}

fn add_sweep(d: &mut Digest, sweep: &SplitSweep) {
    for side in [sweep.icache(), sweep.dcache()] {
        for r in side.results() {
            add_cache(d, r.stats());
            add_cache(d, r.translate_stats());
            add_cache(d, r.rest_stats());
            add_cache(d, r.gc_stats());
            add_cache(d, r.gc_barrier_stats());
        }
    }
}

fn l1() -> SplitSweep {
    SplitSweep::new(
        &[CacheConfig::paper_l1_inst()],
        &[CacheConfig::paper_l1_data()],
    )
}

fn assoc_sweep() -> SplitSweep {
    let points: Vec<CacheConfig> = fig7::ASSOCS
        .iter()
        .map(|&a| CacheConfig::paper_assoc_sweep(a))
        .collect();
    SplitSweep::new(&points, &points)
}

fn line_sweep() -> SplitSweep {
    let points: Vec<CacheConfig> = fig8::LINES
        .iter()
        .map(|&l| CacheConfig::paper_line_sweep(l))
        .collect();
    SplitSweep::new(&points, &points)
}

fn predictors() -> Vec<BranchEval> {
    vec![
        BranchEval::new(Box::new(TwoBit::new())),
        BranchEval::new(Box::new(Bht::paper())),
        BranchEval::new(Box::new(Gshare::paper())),
        BranchEval::new(Box::new(GAp::paper())),
    ]
}

fn pipelines() -> Vec<Pipeline> {
    fig9::WIDTHS
        .iter()
        .map(|&w| Pipeline::new(PipelineConfig::paper(w)))
        .collect()
}

/// Consumer state of one tape's pass, digested once it is done.
struct Consumers {
    mix: InstMix,
    l1: SplitSweep,
    assoc: SplitSweep,
    line: SplitSweep,
    bpred: Vec<BranchEval>,
    ilp: Vec<Pipeline>,
}

impl Consumers {
    fn new() -> Consumers {
        Consumers {
            mix: InstMix::new(),
            l1: l1(),
            assoc: assoc_sweep(),
            line: line_sweep(),
            bpred: predictors(),
            ilp: pipelines(),
        }
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in InstClass::ALL {
            d.add(self.mix.count(c));
        }
        add_sweep(&mut d, &self.l1);
        add_sweep(&mut d, &self.assoc);
        add_sweep(&mut d, &self.line);
        for e in &self.bpred {
            let s = e.stats();
            for x in [s.cond, s.cond_miss, s.indirect, s.indirect_miss] {
                d.add(x);
            }
            for x in [s.rets, s.ret_miss, s.direct] {
                d.add(x);
            }
        }
        for p in &self.ilp {
            let r = p.report();
            for x in [r.instructions, r.cycles, r.predicted_events, r.mispredicts] {
                d.add(x);
            }
            add_cache(&mut d, &r.icache);
            add_cache(&mut d, &r.dcache);
        }
        d.value()
    }
}

/// One untraced pass of the consumer set over `r`.
fn consume(r: &Recorded) -> Result<Consumers, String> {
    let mut c = Consumers::new();
    r.tape.replay(&mut c.mix);
    let blocks = AccessBlocks::from_tape(&r.tape);
    c.l1.consume(&blocks);
    c.assoc.consume(&blocks);
    drop(blocks);
    let line = &mut c.line;
    r.disk
        .replay_stream(|b| line.consume_block(b))
        .map_err(|e| format!("{}: {e}", r.key))?;
    r.tape.replay(&mut c.bpred);
    r.tape.replay(&mut c.ilp);
    Ok(c)
}

/// Per-layer totals of the traced pass in ns, summed over tapes.
#[derive(Default)]
struct LayerNs {
    decode: u64,
    blocks: u64,
    stream: u64,
    disk_read: u64,
    mix: u64,
    l1: u64,
    assoc: u64,
    line: u64,
    bpred: u64,
    ilp: u64,
}

/// The traced pass over `r`: decode-only baselines first, then each
/// consumer in its own span with the baseline it contains recorded as
/// an inferred child.
fn consume_traced(r: &Recorded, spans: &mut Spans, ns: &mut LayerNs) -> Result<Consumers, String> {
    let mut c = Consumers::new();
    let (sum, decode) = spans.time("trace.decode", || {
        let mut s = Checksum::default();
        r.tape.replay(&mut s);
        s.0
    });
    std::hint::black_box(sum);
    let (n, stream) = spans.time("trace.stream", || {
        let mut n = 0usize;
        r.tape.replay_stream(|b| n += b.len());
        n
    });
    std::hint::black_box(n);
    let (read, disk_read) = spans.time("trace.disk_read", || {
        let mut n = 0usize;
        r.disk.replay_stream(|b| n += b.len()).map(|()| n)
    });
    std::hint::black_box(read.map_err(|e| format!("{}: {e}", r.key))?);

    let with_decode = |spans: &mut Spans, name: &str, f: &mut dyn FnMut()| -> u64 {
        let id = spans.open(name);
        f();
        let total = spans.close(id);
        spans.push(Some(id), "trace.decode", decode.min(total));
        total.saturating_sub(decode)
    };
    ns.mix += with_decode(spans, "trace.mix", &mut || r.tape.replay(&mut c.mix));
    let (blocks, blocks_ns) = spans.time("trace.blocks", || AccessBlocks::from_tape(&r.tape));
    let ((), l1_ns) = spans.time("cache.l1", || c.l1.consume(&blocks));
    let ((), assoc_ns) = spans.time("cache.assoc_sweep", || c.assoc.consume(&blocks));
    drop(blocks);
    let id = spans.open("cache.line_sweep");
    let line = &mut c.line;
    let read = r.disk.replay_stream(|b| line.consume_block(b));
    let line_total = spans.close(id);
    read.map_err(|e| format!("{}: {e}", r.key))?;
    spans.push(Some(id), "trace.disk_read", disk_read.min(line_total));
    ns.bpred += with_decode(spans, "bpred.table2", &mut || r.tape.replay(&mut c.bpred));
    ns.ilp += with_decode(spans, "ilp.fig9", &mut || r.tape.replay(&mut c.ilp));

    ns.decode += decode;
    ns.stream += stream;
    ns.disk_read += disk_read;
    ns.blocks += blocks_ns;
    ns.l1 += l1_ns;
    ns.assoc += assoc_ns;
    ns.line += line_total.saturating_sub(disk_read);
    Ok(c)
}

/// Removes the spill directory when the run ends, however it ends.
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (size, label) = if run.smoke {
        (Size::Tiny, "tiny")
    } else {
        (Size::S1, "s1")
    };
    let pins = Pins::load();
    let spill = SpillDir(run.work.join(format!("simulate-{}", std::process::id())));
    std::fs::create_dir_all(&spill.0).map_err(|e| format!("{}: {e}", spill.0.display()))?;

    // Set-up: record every tape once and write it to the disk tier.
    // It runs once per invocation: recording is the VM layer that
    // record-s1 times, and repeating it would triple the run.
    let mut write_ns = 0u64;
    let mut out = Outcome::default();
    let setup_start = Instant::now();
    let mut tapes = Vec::new();
    for spec in suite() {
        let program = (spec.build)(size);
        let mut modes = vec![("jit", VmConfig::jit())];
        if INTERP.contains(&spec.name) {
            modes.insert(0, ("interp", VmConfig::interpreter()));
        }
        for (mode, cfg) in modes {
            let key = format!("simulate.{label}.{}.{mode}", spec.name);
            let (result, tape) = record(&program, cfg);
            let result = result.map_err(|e| format!("{key}: {e}"))?;
            if result.exit_value != Some((spec.expected)(size)) {
                return Err(format!("{key}: exit value {:?}", result.exit_value));
            }
            let t = Instant::now();
            let disk = DiskTape::write(&spill.0.join(format!("{}-{mode}.tape", spec.name)), &tape)
                .map_err(|e| format!("{key}: {e}"))?;
            write_ns += t.elapsed().as_nanos() as u64;
            tapes.push(Recorded {
                key,
                tape,
                disk,
                counters: result.counters,
            });
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    for r in &tapes {
        let mut put = |name: &str, v: u64| {
            out.counts.insert(format!("{}.{name}", r.key), v);
        };
        put("events", r.tape.len());
        put("bytecodes", r.counters.bytecodes);
        put("translate_insts", r.counters.translate_insts);
        put("gc_minors", r.counters.gc_minor);
        put("gc_barrier_insts", r.counters.gc_barrier_insts);
        put("tape_bytes", r.tape.size_bytes() as u64);
        put(
            "tape_hash",
            store::fingerprint(r.tape.len(), r.tape.segments()),
        );
    }
    shuffle(&mut tapes, run.seed);

    let events: u64 = tapes.iter().map(|r| r.tape.len()).sum();
    let bytecodes: u64 = tapes.iter().map(|r| r.counters.bytecodes).sum();
    let mut digests = Vec::new();
    let walls = run.timed(1, || {
        for r in &tapes {
            digests.push((r.key.clone(), consume(r)?.digest()));
        }
        Ok(())
    })?;
    let rss = peak_rss_mb()?;

    // A tape's pass fails if its statistics digest drifts between
    // passes or any of its pinned counts differs.
    let check = |out: &mut Outcome, key: &str, digest: u64| {
        out.attempted += 1;
        let mut ok = out.count(&pins, format!("{key}.stats_digest"), digest);
        for name in ["events", "bytecodes", "tape_bytes", "tape_hash"] {
            let ck = format!("{key}.{name}");
            ok &= pins.ok(&ck, out.counts[&ck]);
        }
        if !ok {
            out.failed += 1;
        }
    };
    for (key, digest) in &digests {
        check(&mut out, key, *digest);
    }
    let prefix = format!("simulate.{label}.");
    for k in pins.missing(&prefix, &out.counts) {
        out.problems.push(format!("pinned count {k} not produced"));
    }
    if !run.trace {
        out.end_to_end(
            &walls,
            setup_s,
            (events, bytecodes, tapes.len() as u64),
            rss,
        );
        return Ok(out);
    }

    let mut spans = Spans::default();
    let mut ns = LayerNs::default();
    let root = spans.open("simulate");
    let mut traced = Vec::new();
    for r in &tapes {
        let c = consume_traced(r, &mut spans, &mut ns)?;
        traced.push((r.key.clone(), c.digest()));
    }
    spans.close(root);
    for (key, digest) in &traced {
        check(&mut out, key, *digest);
    }
    let traced_wall = spans.ns(root) as f64 / 1e9;
    spans.write(&run.work.join("trace/simulate-s1.txt"), "simulate")?;
    let per = |ns: u64| ns as f64 / events.max(1) as f64;
    for (name, v) in [
        ("trace.decode.ns_per_event", ns.decode),
        ("trace.blocks.ns_per_event", ns.blocks),
        ("trace.stream.ns_per_event", ns.stream),
        ("trace.disk_write.ns_per_event", write_ns),
        ("trace.disk_read.ns_per_event", ns.disk_read),
        ("trace.mix.ns_per_event", ns.mix),
        ("cache.l1.ns_per_event", ns.l1),
        ("cache.assoc_sweep.ns_per_event", ns.assoc),
        ("cache.line_sweep.ns_per_event", ns.line),
        ("bpred.table2.ns_per_event", ns.bpred),
        ("ilp.fig9.ns_per_event", ns.ilp),
    ] {
        out.metric(name, per(v), "ns");
    }
    let tape_bytes: u64 = tapes.iter().map(|r| r.tape.size_bytes() as u64).sum();
    out.metric(
        "trace.bytes_per_event",
        tape_bytes as f64 / events.max(1) as f64,
        "B",
    );
    out.tracing(traced_wall, median(&walls), spans.self_times()["simulate"]);
    out.count_totals(&prefix);
    Ok(out)
}

//! ILP pins: the exact `PipelineReport` of every Figure 9/10 input.
//!
//! `tests/golden/ilp_pins.txt` holds one line per (stream, issue
//! width) for widths 1/2/4/8: every report field, cycle counts and
//! cache statistics included. The streams are the seven analogs under
//! the interpreter and the JIT at `Tiny`, the folding interpreter at
//! `Tiny`, and three seeded synthetic streams built to reach the edge
//! paths of the timing model — reorder-buffer back-pressure behind
//! divides and missing-load chains, issue-slot contention at width 1,
//! mispredict redirects, and transfers that resolve early because they
//! have no register sources. A faster pipeline kernel must reproduce
//! every count bit for bit; `golden_experiments` alone would only see
//! rounded IPC.

use javart::ilp::{Pipeline, PipelineConfig, PipelineReport};
use javart::trace::{CtrlInfo, InstClass, NativeInst, Phase, TraceSink};
use javart::vm::{Vm, VmConfig};
use javart::workloads::{suite, Size};
use jrt_testkit::Rng;

const GOLDEN: &str = include_str!("golden/ilp_pins.txt");

const WIDTHS: [u32; 4] = [1, 2, 4, 8];

fn pipelines() -> Vec<Pipeline> {
    WIDTHS
        .iter()
        .map(|&w| Pipeline::new(PipelineConfig::paper(w)))
        .collect()
}

fn report_lines(label: &str, pipes: &[Pipeline]) -> Vec<String> {
    pipes
        .iter()
        .zip(WIDTHS)
        .map(|(p, w)| {
            let r: PipelineReport = p.report();
            let cache = |s: &javart::cache::CacheStats| {
                format!(
                    "{}/{}/{}/{}/{}",
                    s.reads, s.writes, s.read_misses, s.write_misses, s.compulsory_misses
                )
            };
            format!(
                "{label} w={w} instructions={} cycles={} predicted={} mispredicts={} icache={} dcache={}",
                r.instructions,
                r.cycles,
                r.predicted_events,
                r.mispredicts,
                cache(&r.icache),
                cache(&r.dcache),
            )
        })
        .collect()
}

/// Lines for one analog: interpreter, JIT and folding interpreter.
fn analog_lines(spec: &javart::workloads::Spec) -> Vec<String> {
    let program = (spec.build)(Size::Tiny);
    let configs = [
        ("interp", VmConfig::interpreter()),
        ("jit", VmConfig::jit()),
        ("folding", VmConfig::interpreter().with_folding()),
    ];
    configs
        .into_iter()
        .flat_map(|(label, cfg)| {
            let mut pipes = pipelines();
            let r = Vm::new(&program, cfg)
                .run(&mut pipes)
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
            assert_eq!(r.exit_value, Some((spec.expected)(Size::Tiny)));
            report_lines(&format!("{} {label}", spec.name), &pipes)
        })
        .collect()
}

const P: Phase = Phase::NativeExec;

/// Long-latency producers: dependent divides and pointer-chasing
/// loads over a 4 MiB footprint, so the 64-entry ROB fills and fetch
/// stalls on its head.
fn rob_pressure(rng: &mut Rng) -> Vec<NativeInst> {
    (0..40_000u64)
        .map(|k| {
            let pc = 0x1_0000 + (k % 512) * 4;
            let chain = rng.u8() % 4;
            match rng.u64_in(0..100) {
                0..=9 => NativeInst::new(pc, InstClass::IntDiv, P)
                    .with_dst(chain)
                    .with_srcs(chain, Some(rng.u8() % 4)),
                10..=44 => {
                    let addr = 0x2000_0000 + (rng.u64_in(0..1 << 22) & !3);
                    NativeInst::load(pc, addr, 4, P)
                        .with_dst(chain)
                        .with_srcs(chain, None)
                }
                45..=54 => {
                    let addr = 0x2000_0000 + (rng.u64_in(0..1 << 22) & !3);
                    NativeInst::store(pc, addr, 4, P).with_srcs(chain, Some(8))
                }
                55..=59 => NativeInst::new(pc, InstClass::IntMul, P)
                    .with_dst(8 + rng.u8() % 8)
                    .with_srcs(chain, None),
                _ => NativeInst::alu(pc, P).with_dst(16 + rng.u8() % 16),
            }
        })
        .collect()
}

/// Mostly independent work whose operands are ready at once, so every
/// instruction competes for the same issue cycles; a few short chains
/// and out-of-range register numbers (taken modulo the register file).
fn slot_contention(rng: &mut Rng) -> Vec<NativeInst> {
    const CLASSES: [InstClass; 5] = [
        InstClass::IntAlu,
        InstClass::IntAlu,
        InstClass::Nop,
        InstClass::FpAlu,
        InstClass::IntMul,
    ];
    (0..40_000u64)
        .map(|k| {
            let pc = 0x1_0000 + (k % 64) * 4;
            let mut inst = NativeInst::new(pc, *rng.choose(&CLASSES), P);
            if rng.u64_in(0..4) == 0 {
                inst = inst.with_dst(rng.u8() % 4).with_srcs(rng.u8() % 4, None);
            } else if rng.u64_in(0..16) == 0 {
                inst.dst = Some(32 + rng.u8() % 32);
                inst.src1 = Some(32 + rng.u8() % 32);
            }
            if rng.u64_in(0..8) == 0 {
                let addr = 0x2000_0000 + (rng.u64_in(0..256) & !3);
                inst = NativeInst::load(pc, addr, 4, P).with_dst(rng.u8() % 8);
            }
            inst
        })
        .collect()
}

/// Control flow of every kind: biased and random conditional
/// branches, polymorphic indirect jumps and calls, calls and returns
/// deeper than the return stack (and unmatched returns), direct jumps,
/// transfers with and without register sources, transfer classes
/// without an outcome, and a non-transfer that carries one.
fn control(rng: &mut Rng) -> Vec<NativeInst> {
    let mut out = Vec::with_capacity(40_000);
    let mut pc = 0x1_0000u64;
    let mut depth = 0u32;
    for _ in 0..40_000 {
        let site = 0x1_0000 + rng.u64_in(0..64) * 4;
        let far = 0x4_0000 + rng.u64_in(0..4) * 0x100;
        let sources = rng.bool();
        let phase = if rng.u64_in(0..16) == 0 {
            Phase::Translate
        } else {
            P
        };
        let mut inst = match rng.u64_in(0..100) {
            0..=19 => {
                let taken = rng.u64_in(0..4) != 0;
                let target = site + if rng.u64_in(0..8) == 0 { 0x200 } else { 0x100 };
                NativeInst::branch(site, target, taken, phase)
            }
            20..=29 => NativeInst::indirect_jump(site, far, phase),
            30..=34 => NativeInst::indirect_call(site, far, phase),
            35..=42 => {
                depth += 1;
                NativeInst::call(site, far + 0x40, phase)
            }
            43..=52 => {
                let target = if depth > 0 && rng.u64_in(0..8) != 0 {
                    depth -= 1;
                    site + 4
                } else {
                    0x7_0000
                };
                NativeInst::ret(site, target, phase)
            }
            53..=57 => NativeInst::jump(site, site + 0x80, phase),
            58..=59 => NativeInst::new(site, InstClass::CondBranch, phase),
            60..=61 => {
                let mut i = NativeInst::alu(site, phase);
                i.ctrl = Some(CtrlInfo {
                    target: far,
                    taken: true,
                });
                i
            }
            62..=71 => {
                let addr = 0x2000_0000 + (rng.u64_in(0..1 << 16) & !3);
                NativeInst::load(pc, addr, 4, phase).with_dst(rng.u8() % 8)
            }
            _ => NativeInst::alu(pc, phase)
                .with_dst(rng.u8() % 8)
                .with_srcs(rng.u8() % 8, None),
        };
        if sources && inst.class.is_transfer() {
            inst = inst.with_srcs(rng.u8() % 8, None);
        }
        pc = match inst.ctrl {
            Some(c) if c.taken => c.target,
            _ => inst.pc + 4,
        };
        out.push(inst);
    }
    out
}

fn synthetic_lines() -> Vec<String> {
    type Build = fn(&mut Rng) -> Vec<NativeInst>;
    let streams: [(&str, u64, Build); 3] = [
        ("synthetic rob_pressure", 0x11B0_0001, rob_pressure),
        ("synthetic slot_contention", 0x11B0_0002, slot_contention),
        ("synthetic control", 0x11B0_0003, control),
    ];
    streams
        .into_iter()
        .flat_map(|(label, seed, build)| {
            let mut pipes = pipelines();
            for inst in build(&mut Rng::new(seed)) {
                pipes.accept(&inst);
            }
            pipes.finish();
            report_lines(label, &pipes)
        })
        .collect()
}

#[test]
fn every_pipeline_report_matches_its_pin() {
    let specs = suite();
    let mut lines: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| s.spawn(move || analog_lines(spec)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pin worker"))
            .collect()
    });
    lines.extend(synthetic_lines());
    let got = lines.join("\n") + "\n";
    let pinned: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let mismatches: Vec<String> = lines
        .iter()
        .zip(&pinned)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  got    {a}\n  pinned {b}"))
        .collect();
    assert!(
        mismatches.is_empty() && lines.len() == pinned.len(),
        "pipeline reports diverged from tests/golden/ilp_pins.txt ({} lines, {} pinned):\n{}\n\nfull output:\n{got}",
        lines.len(),
        pinned.len(),
        mismatches.join("\n"),
    );
}

//! Tape pins: the exact recorded stream of every workload under every
//! recording configuration.
//!
//! `tests/golden/tape_pins.txt` holds one line per (program,
//! configuration) at `Tiny` scale: the event count, the packed tape
//! size, and the layout-independent [`fingerprint`] over the segment
//! footers (whose content hashes cover every packed byte). Any change
//! to emission or encoding that alters a single event, field or byte
//! of any tape fails here, so a faster step loop or encoder must
//! reproduce the old tapes bit for bit.

use javart::experiments::runner::derive_oracle;
use javart::trace::{store::fingerprint, Tape};
use javart::vm::{GcConfig, Vm, VmConfig};
use javart::workloads::{gc_suite, suite, Size};

const GOLDEN: &str = include_str!("golden/tape_pins.txt");

/// One line per configuration for `spec`, in a fixed order.
fn pin_lines(spec: &javart::workloads::Spec) -> Vec<String> {
    let program = (spec.build)(Size::Tiny);
    let configs = [
        ("interp", VmConfig::interpreter()),
        ("jit", VmConfig::jit()),
        ("folding", VmConfig::interpreter().with_folding()),
        ("ir_interp", VmConfig::ir_interp()),
        ("ir_jit", VmConfig::ir_jit()),
        ("opt", VmConfig::oracle(derive_oracle(&program))),
        (
            "jit_tiny_nursery",
            VmConfig::jit().with_gc(GcConfig::tiny_nursery()),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let mut vm = Vm::new(&program, cfg);
            let mut result = None;
            let tape = Tape::record(|rec| result = Some(vm.run(rec)));
            let r = result
                .expect("recorder ran the VM")
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
            assert_eq!(r.exit_value, Some((spec.expected)(Size::Tiny)));
            format!(
                "{} {label} events={} size_bytes={} fingerprint={}",
                spec.name,
                tape.len(),
                tape.size_bytes(),
                fingerprint(tape.len(), tape.segments()),
            )
        })
        .collect()
}

#[test]
fn every_recording_configuration_reproduces_its_pinned_tape() {
    let specs: Vec<_> = suite().into_iter().chain(gc_suite()).collect();
    let lines: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| s.spawn(move || pin_lines(spec)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pin worker"))
            .collect()
    });
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
        "tapes diverged from tests/golden/tape_pins.txt ({} lines, {} pinned):\n{}\n\nfull output:\n{got}",
        lines.len(),
        pinned.len(),
        mismatches.join("\n"),
    );
}

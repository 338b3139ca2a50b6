//! What every workload shares: run settings, the result line, the
//! count half and its pins, and small statistics helpers.

use jrt_bytecode::Program;
use jrt_trace::Tape;
use jrt_vm::{RunResult, Vm, VmConfig, VmError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Settings of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Length of the timed phase in seconds (`--seconds`); the phase
    /// always completes at least one whole iteration.
    pub seconds: f64,
    /// Whether to run the separate traced pass (`--trace 1`).
    pub trace: bool,
    /// Tiny inputs, one iteration, one set-up (`--smoke`).
    pub smoke: bool,
    /// Where the count half goes (`--counts`).
    pub counts: Option<PathBuf>,
    /// Scratch directory inside the checkout for spill files, child
    /// reports and count files.
    pub work: PathBuf,
}

impl Run {
    /// Times `iteration` back to back until `--seconds` have passed
    /// and at least `min_iters` iterations ran (one under `--smoke`).
    /// Returns each iteration's wall time in seconds.
    pub fn timed(
        &self,
        min_iters: usize,
        mut iteration: impl FnMut() -> Result<(), String>,
    ) -> Result<Vec<f64>, String> {
        let min_iters = if self.smoke { 1 } else { min_iters.max(1) };
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < min_iters
            || (!self.smoke && start.elapsed().as_secs_f64() < self.seconds)
        {
            let t = Instant::now();
            iteration()?;
            walls.push(t.elapsed().as_secs_f64());
        }
        Ok(walls)
    }

    /// Runs `setup` `reps` times (once under `--smoke`) and returns
    /// the last result with the median wall time in seconds.
    pub fn setup<T>(&self, reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
        let reps = if self.smoke { 1 } else { reps.max(1) };
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            last = Some(setup());
            walls.push(t.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), median(&walls))
    }
}

/// The per-layer metrics every traced run prints, besides one
/// `experiments.section.<name>_ms` per report section. A layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.build_ms", "ms"),
    ("vm.interp.ns_per_bytecode", "ns"),
    ("vm.jit.ns_per_bytecode", "ns"),
    ("vm.gc.ns_per_bytecode", "ns"),
    ("vm.interp.ns_per_event", "ns"),
    ("vm.jit.ns_per_event", "ns"),
    ("trace.encode.ns_per_event", "ns"),
    ("trace.bytes_per_event", "B"),
    ("trace.decode.ns_per_event", "ns"),
    ("trace.blocks.ns_per_event", "ns"),
    ("trace.stream.ns_per_event", "ns"),
    ("trace.disk_write.ns_per_event", "ns"),
    ("trace.disk_read.ns_per_event", "ns"),
    ("trace.mix.ns_per_event", "ns"),
    ("cache.l1.ns_per_event", "ns"),
    ("cache.assoc_sweep.ns_per_event", "ns"),
    ("cache.line_sweep.ns_per_event", "ns"),
    ("bpred.table2.ns_per_event", "ns"),
    ("ilp.fig9.ns_per_event", "ns"),
    ("vm.request_us.p50", "us"),
    ("vm.request_us.p99", "us"),
    ("vm.requests", "count"),
    ("codecache.dedup_ratio", "ratio"),
    ("codecache.installs", "count"),
    ("serve.pool_efficiency", "ratio"),
    ("experiments.render_ms", "ms"),
    ("tape.disk_demotions", "count"),
    ("tape.disk_promotions", "count"),
    ("tape.disk_fallbacks", "count"),
    ("vm.bytecodes", "count"),
    ("trace.events", "count"),
    ("vm.translate_insts", "count"),
    ("vm.gc_minors", "count"),
    ("vm.gc_barrier_insts", "count"),
    ("tracing.traced_wall_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
    ("tracing.unattributed_s", "s"),
    ("tracing.unattributed_share", "ratio"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for s in jrt_experiments::report::SECTIONS {
        v.push((format!("experiments.section.{s}_ms"), "ms"));
    }
    v
}

/// Deterministic counts, kept apart from timings.
pub type Counts = BTreeMap<String, u64>;

/// Pinned counts: `key value` lines of `pins.txt`. A count whose key
/// is pinned must equal the pin exactly.
pub struct Pins(BTreeMap<&'static str, u64>);

impl Pins {
    pub fn load() -> Pins {
        let mut map = BTreeMap::new();
        for line in include_str!("../pins.txt").lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line.split_once(' ').expect("pins.txt: `key value` lines");
            map.insert(k, v.trim().parse().expect("pins.txt: unsigned values"));
        }
        Pins(map)
    }

    /// Whether `value` matches the pin for `key` (true when unpinned).
    pub fn ok(&self, key: &str, value: u64) -> bool {
        match self.0.get(key) {
            Some(&pin) if pin != value => {
                eprintln!("count mismatch: {key} = {value}, pinned {pin}");
                false
            }
            _ => true,
        }
    }

    /// Pinned keys under `prefix` that `counts` lacks: a pinned output
    /// the run never produced.
    pub fn missing(&self, prefix: &str, counts: &Counts) -> Vec<&'static str> {
        self.0
            .keys()
            .copied()
            .filter(|k| k.starts_with(prefix) && !counts.contains_key(*k))
            .collect()
    }
}

/// A metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Checks outside any one operation that failed (count drift
    /// between iterations, a pinned count never produced).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub counts: Counts,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds count `key`; false if it differs from the same count of an
    /// earlier pass or from its pin.
    pub fn count(&mut self, pins: &Pins, key: String, value: u64) -> bool {
        let ok = pins.ok(&key, value);
        match self.counts.insert(key.clone(), value) {
            Some(prev) if prev != value => {
                eprintln!("{key}: {value} differs from an earlier pass's {prev}");
                false
            }
            _ => ok,
        }
    }

    /// Adds the end-to-end metrics every workload reports. `walls` are
    /// the timed iterations; `events`, `bytecodes` and `ops` are the
    /// deterministic work of one iteration.
    pub fn end_to_end(
        &mut self,
        walls: &[f64],
        setup_s: f64,
        work: (u64, u64, u64),
        peak_rss_mb: f64,
    ) {
        let (events, bytecodes, ops) = work;
        let wall = median(walls);
        self.metric("wall_s", wall, "s");
        self.metric("setup_s", setup_s, "s");
        self.metric("events_per_s", events as f64 / wall, "1/s");
        self.metric("bytecodes_per_s", bytecodes as f64 / wall, "1/s");
        self.metric("requests_per_s", ops as f64 / wall, "1/s");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("success_rate", success, "ratio");
        eprintln!(
            "timed iterations: {} (wall {})",
            walls.len(),
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    /// Adds the traced pass's wall, its overhead against the untraced
    /// wall of the same work, and the unattributed remainder.
    pub fn tracing(&mut self, traced_wall_s: f64, untraced_wall_s: f64, unattributed_ns: u64) {
        let unattributed_s = unattributed_ns as f64 / 1e9;
        self.metric("tracing.traced_wall_s", traced_wall_s, "s");
        self.metric(
            "tracing.overhead_ratio",
            traced_wall_s / untraced_wall_s - 1.0,
            "ratio",
        );
        self.metric("tracing.unattributed_s", unattributed_s, "s");
        self.metric(
            "tracing.unattributed_share",
            unattributed_s / traced_wall_s,
            "ratio",
        );
    }

    /// Reports totals of the counts under `prefix` beside the timings.
    pub fn count_totals(&mut self, prefix: &str) {
        let sum = |suffix: &str| -> u64 {
            self.counts
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        let totals = [
            ("vm.bytecodes", sum(".bytecodes")),
            ("trace.events", sum(".events")),
            ("vm.translate_insts", sum(".translate_insts")),
            ("vm.gc_minors", sum(".gc_minors")),
            ("vm.gc_barrier_insts", sum(".gc_barrier_insts")),
        ];
        for (name, v) in totals {
            self.metric(name, v as f64, "count");
        }
    }

    /// Writes the count half and renders the result line.
    pub fn finish(mut self, workload: &str, run: &Run) -> Result<String, String> {
        let path = run.counts.clone().unwrap_or_else(|| {
            run.work
                .join("counts")
                .join(format!("{workload}-{}.txt", run.seed))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = String::new();
        for (k, v) in &self.counts {
            let _ = writeln!(text, "{k} {v}");
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        if run.trace {
            let names = per_layer();
            for m in &self.metrics {
                if !names.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
                    return Err(format!(
                        "{} ({}) is not a listed per-layer metric",
                        m.name, m.unit
                    ));
                }
            }
            for (name, unit) in names {
                if !self.metrics.iter().any(|m| m.name == name) {
                    self.metric(name, 0.0, unit);
                }
            }
        }
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        Ok(line)
    }
}

/// Runs `program` on a fresh `Vm` into a tape recorder.
pub fn record(program: &Program, cfg: VmConfig) -> (Result<RunResult, VmError>, Tape) {
    let mut vm = Vm::new(program, cfg);
    let mut result = None;
    let tape = Tape::record(|rec| result = Some(vm.run(rec)));
    (result.expect("the recorder ran the VM"), tape)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// FNV-1a over a sequence of `u64`s: the digest of a set of
/// simulated statistics or results.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for b in s.bytes() {
            self.add(u64::from(b));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fisher–Yates shuffle of `items` driven by SplitMix64 from `seed`:
/// the seed fixes the order in which a workload's fixed inputs run.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

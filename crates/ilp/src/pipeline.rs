//! The greedy out-of-order scheduling model.

use crate::config::PipelineConfig;
use jrt_bpred::{BranchEval, Gshare};
use jrt_cache::{Cache, CacheStats};
use jrt_trace::{AccessKind, InstClass, NativeInst, TraceSink, NUM_REGS};

/// Issue-slot ring length in cycles. It is exact while no live claim
/// lies `SLOT_RING` or more cycles past the oldest cycle still queried.
/// Queries start at `fetch + frontend_depth` or later and fetch never
/// moves back, so each claim must lie under `SLOT_RING` cycles past its
/// own fetch. The ROB bounds that span: retired instructions completed
/// by the fetch that retired them, so only the `rob_size` in-flight
/// ones delay an issue, each by at most a missing load's latency plus
/// one contended slot — under 64 × 27 cycles in the paper's machine.
const SLOT_RING: usize = 1 << 16;

/// Results of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Control transfers that required prediction.
    pub predicted_events: u64,
    /// Mispredicted control transfers.
    pub mispredicts: u64,
    /// I-cache statistics (line-granular fetch probes).
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
}

impl PipelineReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over predicted events.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predicted_events == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.predicted_events as f64
        }
    }
}

/// Trace-driven out-of-order core model. See the crate documentation
/// for the modelled mechanisms.
pub struct Pipeline {
    cfg: PipelineConfig,
    icache: Cache,
    dcache: Cache,
    branches: BranchEval,
    latency: [u64; InstClass::ALL.len()], // by `InstClass` discriminant
    icache_line_shift: u32,
    reg_ready: [u64; NUM_REGS],
    // Completion cycles by retirement number, in a power-of-two ring.
    rob: Box<[u64]>,
    rob_mask: usize,
    // Per cycle: the cycle a slot last counted (cycle 0 is never
    // queried, so a zero tag is empty) and how many issued in it.
    slot_cycle: Box<[u64]>,
    slot_count: Box<[u32]>,

    fetch_cycle: u64,
    fetch_in_group: u32,
    last_fetch_line: u64,
    last_complete: u64,

    retired: u64,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("width", &self.cfg.width)
            .field("retired", &self.retired)
            .field("cycles", &self.cycles())
            .finish()
    }
}

impl Pipeline {
    /// Creates a pipeline with the paper's Gshare front end.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rob_size` is zero.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(cfg.rob_size >= 1, "rob_size must be at least 1");
        let ring = cfg.rob_size.next_power_of_two();
        let mut latency = [0; InstClass::ALL.len()];
        for class in InstClass::ALL {
            latency[class as usize] = cfg.latency(class);
        }
        Pipeline {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            branches: BranchEval::new(Box::new(Gshare::paper())),
            latency,
            icache_line_shift: cfg.icache.line.trailing_zeros(),
            reg_ready: [0; NUM_REGS],
            rob: vec![0; ring].into_boxed_slice(),
            rob_mask: ring - 1,
            slot_cycle: vec![0; SLOT_RING].into_boxed_slice(),
            slot_count: vec![0; SLOT_RING].into_boxed_slice(),
            fetch_cycle: 1,
            fetch_in_group: 0,
            last_fetch_line: u64::MAX,
            last_complete: 0,
            retired: 0,
            cfg,
        }
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.last_complete.max(self.fetch_cycle)
    }

    /// Produces the final report.
    pub fn report(&self) -> PipelineReport {
        let branches = self.branches.stats();
        PipelineReport {
            instructions: self.retired,
            cycles: self.cycles(),
            predicted_events: branches.predicted_events(),
            mispredicts: branches.mispredicts(),
            icache: *self.icache.stats(),
            dcache: *self.dcache.stats(),
        }
    }

    fn claim_issue_slot(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest;
        loop {
            let i = (cycle as usize) & (SLOT_RING - 1);
            if self.slot_cycle[i] != cycle {
                self.slot_cycle[i] = cycle;
                self.slot_count[i] = 1;
                return cycle;
            }
            if self.slot_count[i] < self.cfg.width {
                self.slot_count[i] += 1;
                return cycle;
            }
            cycle += 1;
        }
    }

    fn fetch(&mut self, inst: &NativeInst) -> u64 {
        // New fetch group when the current one is full.
        if self.fetch_in_group >= self.cfg.width {
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
        // I-cache probe at line granularity.
        let line = inst.pc >> self.icache_line_shift;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let out = self.icache.access_unattributed(inst.pc, AccessKind::Read);
            if !out.hit {
                self.fetch_cycle += self.cfg.miss_penalty;
                self.fetch_in_group = 0;
            }
        }
        // ROB back-pressure: fetch stalls until the head, `rob_size`
        // older, completes. Before the window fills this reads a slot
        // not yet written, which holds 0.
        let head =
            self.rob[self.retired.wrapping_sub(self.cfg.rob_size as u64) as usize & self.rob_mask];
        if head > self.fetch_cycle {
            self.fetch_cycle = head;
            self.fetch_in_group = 0;
        }
        self.fetch_in_group += 1;
        self.fetch_cycle
    }

    fn resolve_control(&mut self, inst: &NativeInst, fetch: u64, complete: u64) {
        // A non-transfer that carries an outcome is not predicted and
        // does not end the fetch group.
        let Some(mispredicted) = self.branches.mispredicted(inst) else {
            return;
        };
        // A transfer with no register sources had its operands ready
        // long before, so it resolves in decode without executing.
        let resolved = if inst.src1.is_none() && inst.src2.is_none() {
            (fetch + 2).min(complete)
        } else {
            complete
        };
        if mispredicted {
            let redirect = resolved + self.cfg.redirect_penalty;
            if redirect > self.fetch_cycle {
                self.fetch_cycle = redirect;
            }
            self.fetch_in_group = 0;
            self.last_fetch_line = u64::MAX;
        } else if inst.ctrl.is_some_and(|c| c.taken) {
            // Correctly predicted taken transfer still ends the fetch
            // group (one taken transfer per cycle).
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
    }

    /// Schedules one instruction; returns its fetch and issue cycles.
    fn step(&mut self, inst: &NativeInst) -> (u64, u64) {
        let fetch = self.fetch(inst);

        // Rename: only true dependences delay dispatch.
        let mut ready = fetch + self.cfg.frontend_depth;
        if let Some(src) = inst.src1 {
            ready = ready.max(self.reg_ready[usize::from(src) % NUM_REGS]);
        }
        if let Some(src) = inst.src2 {
            ready = ready.max(self.reg_ready[usize::from(src) % NUM_REGS]);
        }

        let issue = self.claim_issue_slot(ready);
        debug_assert!(issue - fetch < SLOT_RING as u64, "slot ring aliased");

        let mut latency = self.latency[inst.class as usize];
        if let Some(m) = inst.mem {
            let out = self.dcache.access_unattributed(m.addr, m.kind);
            if !out.hit && m.kind == AccessKind::Read {
                latency += self.cfg.miss_penalty;
            }
        }

        let complete = issue + latency;
        if let Some(dst) = inst.dst {
            self.reg_ready[usize::from(dst) % NUM_REGS] = complete;
        }
        self.rob[self.retired as usize & self.rob_mask] = complete;
        if complete > self.last_complete {
            self.last_complete = complete;
        }
        self.retired += 1;

        if inst.ctrl.is_some() {
            self.resolve_control(inst, fetch, complete);
        }
        (fetch, issue)
    }
}

impl TraceSink for Pipeline {
    #[inline]
    fn accept(&mut self, inst: &NativeInst) {
        self.step(inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{NativeInst, Phase};

    const P: Phase = Phase::NativeExec;

    fn run(width: u32, trace: impl IntoIterator<Item = NativeInst>) -> PipelineReport {
        let mut p = Pipeline::new(PipelineConfig::paper(width));
        for i in trace {
            p.accept(&i);
        }
        p.report()
    }

    /// Independent ALU ops looping over a 1 KB code footprint (so the
    /// I-cache warms up, as in any real loop).
    fn straight_alus(n: u64) -> Vec<NativeInst> {
        (0..n)
            .map(|k| NativeInst::alu(0x1_0000 + (k % 256) * 4, P))
            .collect()
    }

    #[test]
    fn independent_alus_scale_with_width() {
        let r1 = run(1, straight_alus(40000));
        let r4 = run(4, straight_alus(40000));
        assert!(r1.ipc() <= 1.05, "width 1 caps IPC at 1, got {}", r1.ipc());
        assert!(
            r4.ipc() > 3.0,
            "width 4 should near-quadruple, got {}",
            r4.ipc()
        );
    }

    #[test]
    fn dependence_chain_caps_ipc_at_one() {
        let trace: Vec<_> = (0..2000u64)
            .map(|k| {
                NativeInst::alu(0x1_0000 + k * 4, P)
                    .with_dst(1)
                    .with_srcs(1, None)
            })
            .collect();
        let r = run(8, trace);
        assert!(r.ipc() < 1.1, "true chain must serialize, got {}", r.ipc());
    }

    #[test]
    fn mispredicted_indirects_throttle_wide_issue() {
        // Alternating-target indirect jump every 4 instructions — the
        // interpreter-dispatch pathology.
        let mut trace = Vec::new();
        for k in 0..2000u64 {
            let pc = 0x1_0000 + (k % 4) * 4;
            if k % 4 == 3 {
                let target = 0x2_0000 + (k % 8) * 0x40;
                trace.push(NativeInst::indirect_jump(pc, target, P));
            } else {
                trace.push(NativeInst::alu(pc, P));
            }
        }
        let clean = run(8, straight_alus(40000));
        let dirty = run(8, trace);
        assert!(
            dirty.ipc() < clean.ipc() / 2.0,
            "mispredicts should halve IPC: {} vs {}",
            dirty.ipc(),
            clean.ipc()
        );
        assert!(dirty.mispredict_rate() > 0.5);
    }

    #[test]
    fn load_misses_slow_dependent_code() {
        // Each load feeds the next address — a pointer chase over a
        // large footprint.
        let mut chase = Vec::new();
        for k in 0..2000u64 {
            chase.push(
                NativeInst::load(0x1_0000, 0x2000_0000 + k * 4096, 4, P)
                    .with_dst(1)
                    .with_srcs(1, None),
            );
        }
        let mut resident = Vec::new();
        for k in 0..2000u64 {
            resident.push(
                NativeInst::load(0x1_0000, 0x2000_0000 + (k % 8) * 4, 4, P)
                    .with_dst(1)
                    .with_srcs(1, None),
            );
        }
        let slow = run(4, chase);
        let fast = run(4, resident);
        assert!(slow.cycles > fast.cycles * 3);
    }

    #[test]
    fn rob_bounds_inflight_window() {
        // A very long-latency producer followed by many independent
        // ALUs: with a finite ROB, fetch stalls; IPC stays bounded.
        let mut trace = vec![NativeInst::new(0x1_0000, InstClass::IntDiv, P).with_dst(1)];
        trace.extend(straight_alus(500));
        let r = run(8, trace);
        assert!(r.cycles >= 12, "div latency must appear");
        assert!(r.ipc() <= 8.0);
    }

    #[test]
    fn dependent_missing_loads_stay_inside_the_slot_ring() {
        // 64 loads, each missing on its own line and addressed by the
        // previous one's result: the longest issue-past-fetch span the
        // 64-entry ROB allows.
        let cfg = PipelineConfig::paper(1);
        let bound = cfg.rob_size as u64 * (cfg.latency(InstClass::Load) + cfg.miss_penalty + 1);
        let mut p = Pipeline::new(cfg);
        let mut widest = 0;
        for k in 0..64u64 {
            let load = NativeInst::load(0x1_0000 + (k % 8) * 4, 0x2000_0000 + k * 4096, 4, P)
                .with_dst(1)
                .with_srcs(1, None);
            let (fetch, issue) = p.step(&load);
            widest = widest.max(issue - fetch);
        }
        assert!(
            widest > 63 * 24,
            "the chain must serialize, widest {widest}"
        );
        assert!(
            widest < bound,
            "span {widest} exceeds the ROB bound {bound}"
        );
        assert!(bound < SLOT_RING as u64);
    }

    #[test]
    fn report_counts_match() {
        let r = run(2, straight_alus(100));
        assert_eq!(r.instructions, 100);
        assert!(r.cycles >= 50);
        assert_eq!(r.mispredicts, 0);
        assert_eq!(r.predicted_events, 0);
    }

    #[test]
    fn call_ret_pairs_do_not_mispredict() {
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(NativeInst::call(0x1_0000, 0x2_0000, P));
            trace.push(NativeInst::ret(0x2_0010, 0x1_0004, P));
        }
        let r = run(4, trace);
        assert_eq!(r.mispredicts, 0);
        assert_eq!(r.predicted_events, 50); // rets only
    }
}

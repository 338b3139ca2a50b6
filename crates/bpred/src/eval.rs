//! Trace-driven branch prediction evaluation (Table 2 of the paper).

use crate::btb::{Btb, ReturnStack};
use crate::predictors::DirectionPredictor;
use crate::target_cache::TargetCache;
use jrt_trace::{InstClass, NativeInst, TraceSink};

/// Misprediction statistics gathered by [`BranchEval`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches seen.
    pub cond: u64,
    /// Conditional branches mispredicted (direction or taken-target).
    pub cond_miss: u64,
    /// Indirect jumps/calls seen.
    pub indirect: u64,
    /// Indirect jumps/calls whose target was mispredicted.
    pub indirect_miss: u64,
    /// Returns seen.
    pub rets: u64,
    /// Returns mispredicted.
    pub ret_miss: u64,
    /// Direct jumps and calls (target known at decode; always correct).
    pub direct: u64,
}

impl BranchStats {
    /// Events that require prediction (conditional + indirect + return).
    pub fn predicted_events(&self) -> u64 {
        self.cond + self.indirect + self.rets
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.cond_miss + self.indirect_miss + self.ret_miss
    }

    /// Overall misprediction rate over events requiring prediction.
    pub fn overall_rate(&self) -> f64 {
        ratio(self.mispredicts(), self.predicted_events())
    }

    /// Prediction accuracy (1 − misprediction rate), as the paper
    /// quotes for Gshare ("65 to 87% in interpreter mode").
    pub fn accuracy(&self) -> f64 {
        1.0 - self.overall_rate()
    }

    /// Conditional-branch misprediction rate.
    pub fn cond_rate(&self) -> f64 {
        ratio(self.cond_miss, self.cond)
    }

    /// Indirect-transfer target misprediction rate.
    pub fn indirect_rate(&self) -> f64 {
        ratio(self.indirect_miss, self.indirect)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Drives a direction predictor, a BTB, and a return-address stack
/// from a native trace, collecting [`BranchStats`].
///
/// Prediction rules:
///
/// * conditional branch — mispredicted if the direction is wrong, or
///   if predicted taken and the BTB target differs from the resolved
///   target;
/// * indirect jump/call — mispredicted if the BTB has no entry for the
///   PC or its target differs;
/// * return — predicted by the return-address stack (empty stack
///   mispredicts); calls push their fall-through address;
/// * direct jump/call — always predicted correctly (target is in the
///   instruction word).
pub struct BranchEval {
    predictor: Box<dyn DirectionPredictor>,
    btb: Btb,
    target_cache: Option<TargetCache>,
    ras: ReturnStack,
    stats: BranchStats,
}

impl std::fmt::Debug for BranchEval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchEval")
            .field("predictor", &self.predictor.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BranchEval {
    /// Creates an evaluation harness with the paper's BTB (1K entries)
    /// and an 8-deep return stack.
    pub fn new(predictor: Box<dyn DirectionPredictor>) -> Self {
        BranchEval {
            predictor,
            btb: Btb::paper(),
            target_cache: None,
            ras: ReturnStack::paper(),
            stats: BranchStats::default(),
        }
    }

    /// Adds the indirect-branch-tailored predictor the paper
    /// recommends for interpreted execution: indirect jumps/calls are
    /// predicted by a path-history [`TargetCache`] instead of the
    /// plain BTB.
    pub fn with_target_cache(mut self) -> Self {
        self.target_cache = Some(TargetCache::paper());
        self
    }

    /// The name of the wrapped direction predictor.
    pub fn predictor_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Predicts and trains on one instruction, counting it in
    /// [`stats`](Self::stats). Returns whether a control transfer was
    /// mispredicted, or `None` for anything else (including a transfer
    /// class without a resolved outcome).
    #[inline]
    pub fn mispredicted(&mut self, inst: &NativeInst) -> Option<bool> {
        let ctrl = inst.ctrl?;
        let s = &mut self.stats;
        let wrong = match inst.class {
            InstClass::CondBranch => {
                s.cond += 1;
                let predicted_taken = self.predictor.predict_and_update(inst.pc, ctrl.taken);
                let target_ok = !ctrl.taken || self.btb.predict_and_update(inst.pc, ctrl.target);
                let wrong = predicted_taken != ctrl.taken || (predicted_taken && !target_ok);
                s.cond_miss += u64::from(wrong);
                wrong
            }
            InstClass::IndirectJump | InstClass::IndirectCall => {
                s.indirect += 1;
                let correct = match &mut self.target_cache {
                    Some(tc) => tc.predict_and_update(inst.pc, ctrl.target),
                    None => self.btb.predict_and_update(inst.pc, ctrl.target),
                };
                if inst.class == InstClass::IndirectCall {
                    self.ras.push(inst.pc + 4);
                }
                s.indirect_miss += u64::from(!correct);
                !correct
            }
            InstClass::Call | InstClass::Jump => {
                s.direct += 1;
                if inst.class == InstClass::Call {
                    self.ras.push(inst.pc + 4);
                }
                false
            }
            InstClass::Ret => {
                s.rets += 1;
                let wrong = self.ras.pop() != Some(ctrl.target);
                s.ret_miss += u64::from(wrong);
                wrong
            }
            _ => return None,
        };
        Some(wrong)
    }
}

impl TraceSink for BranchEval {
    fn accept(&mut self, inst: &NativeInst) {
        self.mispredicted(inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::{Bht, Gshare};
    use jrt_trace::{NativeInst, Phase};

    const P: Phase = Phase::NativeExec;

    #[test]
    fn loop_branch_is_learned() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        for _ in 0..100 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, true, P));
        }
        assert!(e.stats().cond_rate() < 0.05);
    }

    #[test]
    fn monomorphic_indirect_hits_after_warmup() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        for _ in 0..10 {
            e.accept(&NativeInst::indirect_call(0x4000, 0x9000, P));
        }
        assert_eq!(e.stats().indirect_miss, 1, "only the cold miss");
    }

    #[test]
    fn polymorphic_indirect_thrashes_btb() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        // Alternating targets — the interpreter switch pathology.
        for k in 0..100u64 {
            let target = 0x9000 + (k % 2) * 0x100;
            e.accept(&NativeInst::indirect_jump(0x4000, target, P));
        }
        assert!(e.stats().indirect_rate() > 0.9);
    }

    #[test]
    fn call_ret_pairs_predict_via_ras() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        for _ in 0..10 {
            e.accept(&NativeInst::call(0x4000, 0x9000, P));
            e.accept(&NativeInst::ret(0x9010, 0x4004, P));
        }
        assert_eq!(e.stats().ret_miss, 0);
        assert_eq!(e.stats().direct, 10);
    }

    #[test]
    fn unmatched_ret_mispredicts() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        e.accept(&NativeInst::ret(0x9010, 0x4004, P));
        assert_eq!(e.stats().ret_miss, 1);
    }

    #[test]
    fn non_transfers_are_ignored() {
        let mut e = BranchEval::new(Box::new(Gshare::paper()));
        e.accept(&NativeInst::alu(0x4000, P));
        e.accept(&NativeInst::load(0x4004, 0x2000_0000, 4, P));
        assert_eq!(e.stats().predicted_events(), 0);
        assert_eq!(e.stats().overall_rate(), 0.0);
    }

    #[test]
    fn taken_branch_needs_correct_btb_target() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        // Warm the direction predictor and the BTB.
        for _ in 0..5 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, true, P));
        }
        let before = e.stats().cond_miss;
        // Same direction, different target (e.g. rewritten code).
        e.accept(&NativeInst::branch(0x4000, 0x3800, true, P));
        assert_eq!(e.stats().cond_miss, before + 1);
    }

    #[test]
    fn mispredicted_reports_transfers_only() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        let mut alu_with_outcome = NativeInst::alu(0x4000, P);
        alu_with_outcome.ctrl = NativeInst::jump(0x4000, 0x5000, P).ctrl;
        assert_eq!(e.mispredicted(&alu_with_outcome), None);
        assert_eq!(
            e.mispredicted(&NativeInst::new(0x4000, InstClass::CondBranch, P)),
            None,
            "a transfer class without an outcome is not predicted"
        );
        assert_eq!(
            e.mispredicted(&NativeInst::jump(0x4000, 0x5000, P)),
            Some(false)
        );
        assert_eq!(
            e.mispredicted(&NativeInst::indirect_jump(0x4004, 0x6000, P)),
            Some(true),
            "cold BTB"
        );
        assert_eq!(
            e.mispredicted(&NativeInst::indirect_jump(0x4004, 0x6000, P)),
            Some(false)
        );
        assert_eq!(e.stats().predicted_events(), 2);
        assert_eq!(e.stats().mispredicts(), 1);
        assert_eq!(e.stats().direct, 1);
    }

    #[test]
    fn accuracy_is_complement() {
        let mut e = BranchEval::new(Box::new(Bht::paper()));
        for k in 0..10 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, k % 2 == 0, P));
        }
        let s = *e.stats();
        assert!((s.accuracy() + s.overall_rate() - 1.0).abs() < 1e-12);
    }
}

//! The paper's Figure 1 *opt* oracle: per-method translate/interpret
//! decisions computed offline from profiles.

use crate::profile::ProfileTable;
use jrt_bytecode::MethodId;
use jrt_trace::IdHashMap;

/// Per-method translate/interpret decisions for
/// [`JitPolicy::Oracle`](crate::JitPolicy::Oracle).
#[derive(Debug, Clone, Default)]
pub struct OracleDecisions {
    decisions: IdHashMap<u64, bool>,
}

impl OracleDecisions {
    /// Computes the oracle from interpreter and JIT profiles of the
    /// same program (the paper's `opt` bar in Figure 1).
    ///
    /// For each method: `I_i` = mean interpret cycles per invocation,
    /// `E_i` = mean translated-code cycles per invocation, `T_i` =
    /// translation cycles, `n_i` = invocation count. Translate iff
    /// `I_i > E_i` and `n_i > T_i / (I_i − E_i)`.
    pub fn from_profiles(interp: &ProfileTable, jit: &ProfileTable) -> Self {
        let mut decisions = IdHashMap::default();
        for (mid, ip) in interp.iter() {
            let Some(jp) = jit.get(mid) else { continue };
            let n = ip.invocations.max(1) as f64;
            let i_per = ip.interp_cycles as f64 / n;
            let e_per = jp.native_cycles as f64 / jp.invocations.max(1) as f64;
            let t = jp.translate_cycles as f64;
            let translate = i_per > e_per && n > t / (i_per - e_per);
            decisions.insert(mid.key(), translate);
        }
        OracleDecisions { decisions }
    }

    /// Forces a decision for one method (tests, what-if studies).
    pub fn set(&mut self, method: MethodId, translate: bool) {
        self.decisions.insert(method.key(), translate);
    }

    /// Whether to translate `method`; methods absent from the profile
    /// default to interpretation.
    pub fn should_translate(&self, method: MethodId) -> bool {
        self.decisions.get(&method.key()).copied().unwrap_or(false)
    }

    /// Number of methods decided.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decisions are recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::ClassId;

    fn mid(i: u32) -> MethodId {
        MethodId {
            class: ClassId(0),
            index: i,
        }
    }

    #[test]
    fn oracle_translates_hot_methods() {
        let mut interp = ProfileTable::default();
        let mut jit = ProfileTable::default();
        // Hot method: 1000 invocations, interp 100 cyc/inv, exec 20,
        // translate 500 -> N = 500/80 = 6.25 < 1000 -> translate.
        interp.record_invocation(mid(0));
        jit.record_invocation(mid(0));
        {
            let p = interp.get_mut(mid(0));
            p.invocations = 1000;
            p.interp_cycles = 100_000;
        }
        {
            let p = jit.get_mut(mid(0));
            p.invocations = 1000;
            p.native_cycles = 20_000;
            p.translate_cycles = 500;
        }
        // Cold method: 1 invocation, translate cost dominates.
        interp.record_invocation(mid(1));
        jit.record_invocation(mid(1));
        {
            let p = interp.get_mut(mid(1));
            p.invocations = 1;
            p.interp_cycles = 100;
        }
        {
            let p = jit.get_mut(mid(1));
            p.invocations = 1;
            p.native_cycles = 20;
            p.translate_cycles = 5000;
        }
        let d = OracleDecisions::from_profiles(&interp, &jit);
        assert!(d.should_translate(mid(0)));
        assert!(!d.should_translate(mid(1)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn unknown_method_defaults_to_interpret() {
        let d = OracleDecisions::default();
        assert!(!d.should_translate(mid(9)));
        assert!(d.is_empty());
    }
}

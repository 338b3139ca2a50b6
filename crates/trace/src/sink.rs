//! Trace consumers.
//!
//! A [`TraceSink`] receives every [`NativeInst`] an execution engine
//! emits, in program order. Simulators (caches, branch predictors, the
//! superscalar model, the instruction-mix profiler) all implement this
//! trait, and several sinks can observe one execution by combining them
//! with the provided tuple implementations.

use crate::inst::{NativeInst, Phase};

/// A consumer of a native instruction trace.
///
/// Implementations must be prepared for traces of hundreds of millions
/// of events and should therefore do O(1) work per event.
///
/// # Examples
///
/// ```
/// use jrt_trace::{CountingSink, NativeInst, Phase, TraceSink};
///
/// let mut count = CountingSink::new();
/// count.accept(&NativeInst::alu(0x10, Phase::Runtime));
/// assert_eq!(count.total(), 1);
/// ```
pub trait TraceSink {
    /// Observes one instruction, in program order.
    fn accept(&mut self, inst: &NativeInst);

    /// Called once after the last instruction of a run.
    fn finish(&mut self) {}
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn accept(&mut self, inst: &NativeInst) {
        (**self).accept(inst);
    }
    fn finish(&mut self) {
        (**self).finish();
    }
}

/// A sink whose observations can be combined with another instance's.
///
/// This is the fan-out/merge contract behind the parallel experiment
/// scheduler: each worker thread simulates into its own thread-local
/// sink (sinks are `Send`, so they can be created on — or returned
/// from — any thread), and the shards are then merged **in canonical
/// job order** so aggregate results are bit-identical to a sequential
/// run regardless of worker count or completion order.
pub trait MergeSink: TraceSink + Send {
    /// Folds `other`'s observations into `self`.
    fn merge(&mut self, other: &Self);
}

/// Merges sink shards in iteration order; `None` on an empty iterator.
///
/// The caller supplies shards in canonical order (the order jobs were
/// defined, not the order workers finished them), which keeps merged
/// statistics deterministic.
pub fn merge_shards<S: MergeSink>(shards: impl IntoIterator<Item = S>) -> Option<S> {
    let mut iter = shards.into_iter();
    let mut first = iter.next()?;
    for shard in iter {
        first.merge(&shard);
    }
    Some(first)
}

/// A sink that discards every event; useful when only the engine-side
/// cost counters are of interest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn accept(&mut self, _inst: &NativeInst) {}
}

impl MergeSink for NullSink {
    fn merge(&mut self, _other: &Self) {}
}

macro_rules! tuple_sink {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: TraceSink),+> TraceSink for ($($name,)+) {
            #[inline]
            fn accept(&mut self, inst: &NativeInst) {
                $(self.$idx.accept(inst);)+
            }
            fn finish(&mut self) {
                $(self.$idx.finish();)+
            }
        }
    };
}

tuple_sink!(A: 0);
tuple_sink!(A: 0, B: 1);
tuple_sink!(A: 0, B: 1, C: 2);
tuple_sink!(A: 0, B: 1, C: 2, D: 3);
tuple_sink!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Homogeneous fan-out: every element observes every event. Lets one
/// execution drive an entire parameter sweep (e.g. four cache
/// configurations) without regenerating the trace.
impl<S: TraceSink> TraceSink for Vec<S> {
    fn accept(&mut self, inst: &NativeInst) {
        for s in self.iter_mut() {
            s.accept(inst);
        }
    }
    fn finish(&mut self) {
        for s in self.iter_mut() {
            s.finish();
        }
    }
}

/// Element-wise merge of two equal-length sweeps.
impl<S: MergeSink> MergeSink for Vec<S> {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "sweep shards must match");
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

/// Counts instructions, total and per [`Phase`].
///
/// This is the cheapest useful sink; the Figure 1 cost model
/// (cycles ≈ retired native instructions) is built on these counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    total: u64,
    per_phase: [u64; Phase::ALL.len()],
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Instructions observed in the given phase.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.per_phase[phase_index(phase)]
    }

    /// Instructions observed in the JIT translate phase.
    pub fn translate(&self) -> u64 {
        self.phase(Phase::Translate)
    }
}

impl MergeSink for CountingSink {
    fn merge(&mut self, other: &Self) {
        self.total += other.total;
        for (mine, theirs) in self.per_phase.iter_mut().zip(other.per_phase) {
            *mine += theirs;
        }
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn accept(&mut self, inst: &NativeInst) {
        self.total += 1;
        self.per_phase[phase_index(inst.phase)] += 1;
    }
}

/// Index of `phase` in [`Phase::ALL`]: its discriminant, because
/// `ALL` lists the phases in declaration order (the tape encoder
/// relies on the same identity).
#[inline]
pub(crate) fn phase_index(phase: Phase) -> usize {
    phase as usize
}

/// Records every event into a vector. Only for tests and small traces.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded events, in program order.
    pub events: Vec<NativeInst>,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RecordingSink {
    fn accept(&mut self, inst: &NativeInst) {
        self.events.push(*inst);
    }
}

/// Forwards only instructions whose phase satisfies a predicate.
///
/// Used to study the translate portion of JIT execution in isolation
/// (Figure 5 of the paper).
#[derive(Debug, Clone)]
pub struct PhaseFilter<S> {
    inner: S,
    predicate: fn(Phase) -> bool,
}

impl<S: TraceSink> PhaseFilter<S> {
    /// Wraps `inner`, forwarding only instructions for which
    /// `predicate` returns `true`.
    pub fn new(inner: S, predicate: fn(Phase) -> bool) -> Self {
        PhaseFilter { inner, predicate }
    }

    /// Consumes the filter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Shared access to the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for PhaseFilter<S> {
    fn accept(&mut self, inst: &NativeInst) {
        if (self.predicate)(inst.phase) {
            self.inner.accept(inst);
        }
    }
    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::NativeInst;

    #[test]
    fn counting_sink_counts_phases() {
        let mut c = CountingSink::new();
        c.accept(&NativeInst::alu(0, Phase::Translate));
        c.accept(&NativeInst::alu(4, Phase::Translate));
        c.accept(&NativeInst::alu(8, Phase::NativeExec));
        assert_eq!(c.total(), 3);
        assert_eq!(c.translate(), 2);
        assert_eq!(c.phase(Phase::NativeExec), 1);
        assert_eq!(c.phase(Phase::Gc), 0);
    }

    #[test]
    fn tuple_fanout_reaches_all() {
        let mut pair = (CountingSink::new(), CountingSink::new());
        pair.accept(&NativeInst::alu(0, Phase::Runtime));
        pair.finish();
        assert_eq!(pair.0.total(), 1);
        assert_eq!(pair.1.total(), 1);
    }

    #[test]
    fn phase_filter_forwards_selectively() {
        let mut f = PhaseFilter::new(CountingSink::new(), Phase::is_translate);
        f.accept(&NativeInst::alu(0, Phase::Translate));
        f.accept(&NativeInst::alu(4, Phase::NativeExec));
        assert_eq!(f.inner().total(), 1);
    }

    #[test]
    fn recording_sink_preserves_order() {
        let mut r = RecordingSink::new();
        r.accept(&NativeInst::alu(0, Phase::Runtime));
        r.accept(&NativeInst::alu(4, Phase::Runtime));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.events[0].pc, 0);
        assert_eq!(r.events[1].pc, 4);
    }

    #[test]
    fn every_sink_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NullSink>();
        assert_send::<CountingSink>();
        assert_send::<RecordingSink>();
        assert_send::<PhaseFilter<CountingSink>>();
        assert_send::<Vec<CountingSink>>();
    }

    #[test]
    fn counting_sink_merge_matches_single_stream() {
        let mut whole = CountingSink::new();
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        for (k, phase) in [
            Phase::Translate,
            Phase::Runtime,
            Phase::NativeExec,
            Phase::Translate,
        ]
        .into_iter()
        .enumerate()
        {
            let inst = NativeInst::alu(4 * k as u64, phase);
            whole.accept(&inst);
            if k % 2 == 0 { &mut a } else { &mut b }.accept(&inst);
        }
        let merged = merge_shards([a, b]).unwrap();
        assert_eq!(merged, whole);
        assert!(merge_shards(Vec::<CountingSink>::new()).is_none());
    }

    #[test]
    fn sweep_merge_is_element_wise() {
        let mut a = vec![CountingSink::new(), CountingSink::new()];
        let mut b = vec![CountingSink::new(), CountingSink::new()];
        a[0].accept(&NativeInst::alu(0, Phase::Runtime));
        b[1].accept(&NativeInst::alu(4, Phase::Runtime));
        a.merge(&b);
        assert_eq!(a[0].total(), 1);
        assert_eq!(a[1].total(), 1);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        let mut c = CountingSink::new();
        {
            let r: &mut CountingSink = &mut c;
            r.accept(&NativeInst::alu(0, Phase::Runtime));
        }
        assert_eq!(c.total(), 1);
    }
}

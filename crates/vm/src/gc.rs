//! Garbage collection with trace emission.
//!
//! The paper defers the GC's architectural impact to future work; the
//! `gc_study` experiment closes that gap. Two collectors live here:
//!
//! * the **legacy stop-the-world mark-sweep** ([`collect`]) — the
//!   original growth-only design kept byte-identical for every
//!   pre-existing experiment (it is the [`GcConfig::Legacy`]
//!   default, and the paper-suite workloads never reach the
//!   24 MiB threshold that triggers it);
//! * the **generational copying collector** ([`minor_collect`] /
//!   [`major_collect`]) — minor collections mark the nursery from
//!   thread/static roots plus the remembered set, evacuate survivors
//!   into tenured space, and reset the nursery bump cursor; major
//!   collections mark the full heap and copy-compact tenured space.
//!
//! All collection work is emitted into the trace under
//! [`Phase::Gc`]: header loads and mark stores during marking, one
//! card-scan load per remembered-set entry, a load/store pair per 16
//! copied bytes during evacuation, and a forwarding store into the
//! handle table for every moved object. Emission is capped at
//! [`MAX_GC_EMISSION`] instructions per collection so a huge heap
//! cannot flood the trace — but heap accounting is exact regardless,
//! and a capped collection reports `truncated = true` so the VM can
//! count it instead of silently under-reporting trace work.
//!
//! [`GcConfig::Legacy`]: crate::GcConfig::Legacy

use crate::heap::{Heap, ObjectMove};
use crate::loader::Linker;
use crate::thread::ThreadState;
use jrt_trace::{layout, Addr, NativeInst, Phase, TraceSink};

const GC_TEXT: Addr = layout::VM_TEXT_BASE + 0x7_0000;
const GC_TEXT_SIZE: Addr = 0x2000;
/// Cap on emitted GC instructions per collection, so a large heap
/// cannot flood the trace.
const MAX_GC_EMISSION: u64 = 200_000;
/// Handle-table forwarding entries live here; a store to
/// `FORWARD_TABLE + (handle % FORWARD_SLOTS) * 4` models updating the
/// handle's indirection cell when its object moves.
const FORWARD_TABLE: Addr = layout::VM_DATA_BASE + 0x40_0000;
const FORWARD_SLOTS: Addr = 0x1000;
/// Evacuation copies are modeled as one load/store pair per this many
/// bytes (a doubleword-copy loop).
const COPY_CHUNK: u32 = 16;

/// Result of one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GcResult {
    /// Handles reclaimed.
    pub freed: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Trace instructions emitted.
    pub emitted: u64,
    /// Whether [`MAX_GC_EMISSION`] suppressed some trace emission.
    /// Heap accounting is exact either way.
    pub truncated: bool,
    /// Bytes copied by evacuation/compaction (zero for the legacy
    /// non-moving collector).
    pub copied_bytes: u64,
}

/// Capped [`Phase::Gc`] emission at a wrapping GC text pc.
struct GcEmitter<'a, S> {
    sink: &'a mut S,
    pc: Addr,
    emitted: u64,
    truncated: bool,
}

impl<'a, S: TraceSink> GcEmitter<'a, S> {
    fn new(sink: &'a mut S) -> Self {
        GcEmitter {
            sink,
            pc: GC_TEXT,
            emitted: 0,
            truncated: false,
        }
    }

    fn step_pc(&mut self) -> Addr {
        let p = self.pc;
        self.pc += 4;
        if self.pc >= GC_TEXT + GC_TEXT_SIZE {
            self.pc = GC_TEXT;
        }
        p
    }

    fn has_room(&mut self) -> bool {
        if self.emitted < MAX_GC_EMISSION {
            true
        } else {
            self.truncated = true;
            false
        }
    }

    fn load(&mut self, addr: Addr, width: u8, dst: u8) {
        if self.has_room() {
            let pc = self.step_pc();
            self.sink
                .accept(&NativeInst::load(pc, addr, width, Phase::Gc).with_dst(dst));
            self.emitted += 1;
        }
    }

    fn store(&mut self, addr: Addr, width: u8, src: u8) {
        if self.has_room() {
            let pc = self.step_pc();
            self.sink
                .accept(&NativeInst::store(pc, addr, width, Phase::Gc).with_srcs(src, None));
            self.emitted += 1;
        }
    }

    /// One load/store pair per [`COPY_CHUNK`] bytes of an object
    /// move, plus the forwarding store into the handle table.
    fn emit_move(&mut self, m: &ObjectMove) {
        let mut off = 0u64;
        while off < u64::from(m.bytes) {
            self.load(m.from + off, 8, 14);
            self.store(m.to + off, 8, 14);
            off += u64::from(COPY_CHUNK);
        }
        let slot = FORWARD_TABLE + (Addr::from(m.handle) % FORWARD_SLOTS) * 4;
        self.store(slot, 4, 14);
    }
}

fn gather_roots(threads: &[ThreadState], linker: &Linker) -> Vec<u32> {
    let mut work: Vec<u32> = Vec::new();
    for t in threads {
        work.extend(t.roots());
    }
    work.extend(linker.static_roots());
    work.extend(linker.class_objects());
    work
}

/// Runs a full stop-the-world mark-sweep collection (the legacy
/// non-moving collector).
pub(crate) fn collect(
    heap: &mut Heap,
    threads: &[ThreadState],
    linker: &Linker,
    sink: &mut impl TraceSink,
) -> GcResult {
    let mut em = GcEmitter::new(sink);

    heap.clear_marks();
    let mut work = gather_roots(threads, linker);
    while let Some(h) = work.pop() {
        if let Some(children) = heap.mark(h) {
            // Header read + mark write for each newly marked node.
            if em.has_room() {
                if let Ok(addr) = heap.header_addr(h) {
                    em.load(addr, 4, 12);
                    em.store(addr + 4, 4, 12);
                }
            }
            work.extend(children);
        }
    }

    // Sweep: visit every live allocation, free the unmarked. The heap
    // mutation below is exact even when emission is capped.
    let live = heap.live_handles();
    for (_, addr) in &live {
        if !em.has_room() {
            break;
        }
        em.load(*addr, 4, 13);
    }
    let (freed, freed_bytes) = heap.sweep();
    for _ in 0..freed.len().min(1024) {
        em.store(layout::VM_DATA_BASE + 0x40_0000, 4, 0);
    }

    GcResult {
        freed: freed.len() as u64,
        freed_bytes,
        emitted: em.emitted,
        truncated: em.truncated,
        copied_bytes: 0,
    }
}

/// Runs a minor (nursery) collection: marks nursery objects reachable
/// from thread/static roots and from remembered-set containers,
/// evacuates survivors into tenured space, and resets the nursery.
///
/// Only nursery objects are traversed — tenured→nursery edges are
/// covered by the remembered set (the property `gc_equivalence.rs`
/// proves), so the cost of a minor collection scales with nursery
/// size, not heap size.
pub(crate) fn minor_collect(
    heap: &mut Heap,
    threads: &[ThreadState],
    linker: &Linker,
    sink: &mut impl TraceSink,
) -> Result<GcResult, crate::heap::HeapError> {
    let mut em = GcEmitter::new(sink);

    heap.clear_marks();
    let mut work = gather_roots(threads, linker);

    // Remembered-set scan: one card-check load per container, then
    // its nursery referents join the root set.
    let remset: Vec<u32> = heap.remset().to_vec();
    for &container in &remset {
        if let Ok(addr) = heap.header_addr(container) {
            em.load(crate::heap::card_addr(addr), 1, 15);
        }
        work.extend(heap.refs_in(container));
    }

    while let Some(h) = work.pop() {
        if !heap.is_nursery(h) {
            continue;
        }
        if let Some(children) = heap.mark(h) {
            if em.has_room() {
                if let Ok(addr) = heap.header_addr(h) {
                    em.load(addr, 4, 12);
                    em.store(addr + 4, 4, 12);
                }
            }
            work.extend(children);
        }
    }

    let (moves, freed, freed_bytes) = heap.promote_survivors()?;
    let mut copied_bytes = 0u64;
    for m in &moves {
        copied_bytes += u64::from(m.bytes);
        em.emit_move(m);
    }

    Ok(GcResult {
        freed,
        freed_bytes,
        emitted: em.emitted,
        truncated: em.truncated,
        copied_bytes,
    })
}

/// Runs a major (full) collection: marks the whole heap from roots,
/// then copy-compacts every survivor into tenured space from the
/// tenured base. Every survivor is copied (and its handle-table cell
/// forwarded), which is what makes tenured fragmentation impossible.
pub(crate) fn major_collect(
    heap: &mut Heap,
    threads: &[ThreadState],
    linker: &Linker,
    sink: &mut impl TraceSink,
) -> GcResult {
    let mut em = GcEmitter::new(sink);

    heap.clear_marks();
    let mut work = gather_roots(threads, linker);
    while let Some(h) = work.pop() {
        if let Some(children) = heap.mark(h) {
            if em.has_room() {
                if let Ok(addr) = heap.header_addr(h) {
                    em.load(addr, 4, 12);
                    em.store(addr + 4, 4, 12);
                }
            }
            work.extend(children);
        }
    }

    let (moves, freed, freed_bytes) = heap.compact_all();
    let mut copied_bytes = 0u64;
    for m in &moves {
        copied_bytes += u64::from(m.bytes);
        em.emit_move(m);
    }

    GcResult {
        freed,
        freed_bytes,
        emitted: em.emitted,
        truncated: em.truncated,
        copied_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::heap::Value;
    use jrt_bytecode::{ClassAsm, ClassId, MethodAsm, Program};
    use jrt_trace::CountingSink;

    fn empty_linker() -> (Program, Linker) {
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0);
        m.ret();
        c.add_method(m);
        let p = Program::build(vec![c], "Main", "main").unwrap();
        let linker = Linker::new(p.num_classes());
        (p, linker)
    }

    fn thread_with_root(root: u32) -> ThreadState {
        let mut t = ThreadState::new(0);
        let def = jrt_bytecode::MethodDef {
            name: "m".into(),
            nargs: 0,
            ret: jrt_bytecode::RetKind::Void,
            max_locals: 2,
            max_stack: 2,
            code: vec![44],
            flags: jrt_bytecode::MethodFlags {
                is_static: true,
                ..Default::default()
            },
        };
        t.push_frame(
            jrt_bytecode::MethodId {
                class: ClassId(0),
                index: 0,
            },
            &def,
            &[Value::Ref(root)],
        );
        t
    }

    #[test]
    fn unreferenced_objects_are_collected() {
        let (_p, linker) = empty_linker();
        let mut heap = Heap::new();
        let _garbage = heap.alloc_object(ClassId(0), 2).unwrap();
        let kept = heap.alloc_object(ClassId(0), 1).unwrap();

        let t = thread_with_root(kept);
        let mut sink = CountingSink::new();
        let r = collect(&mut heap, &[t], &linker, &mut sink);
        assert_eq!(r.freed, 1);
        assert!(r.freed_bytes >= 16);
        assert!(r.emitted > 0);
        assert!(!r.truncated);
        assert_eq!(r.copied_bytes, 0);
        assert_eq!(sink.phase(Phase::Gc), r.emitted);
        assert!(heap.get_field(kept, 0).is_ok());
    }

    #[test]
    fn transitively_reachable_survive() {
        let (_p, linker) = empty_linker();
        let mut heap = Heap::new();
        let a = heap.alloc_object(ClassId(0), 1).unwrap();
        let b = heap.alloc_object(ClassId(0), 1).unwrap();
        let c = heap.alloc_object(ClassId(0), 0).unwrap();
        heap.set_field(a, 0, Value::Ref(b)).unwrap();
        heap.set_field(b, 0, Value::Ref(c)).unwrap();

        let t = thread_with_root(a);
        let mut sink = CountingSink::new();
        let r = collect(&mut heap, &[t], &linker, &mut sink);
        assert_eq!(r.freed, 0);
        assert_eq!(heap.live_count(), 3);
    }

    fn gen_heap() -> Heap {
        Heap::with_config(GcConfig::Generational {
            nursery_bytes: 256,
            tenured_bytes: 1 << 20,
        })
    }

    #[test]
    fn minor_collection_evacuates_survivors_and_emits_copies() {
        let (_p, linker) = empty_linker();
        let mut heap = gen_heap();
        let root = heap.alloc_object(ClassId(1), 1).unwrap();
        let child = heap.alloc_object(ClassId(2), 0).unwrap();
        let _garbage = heap.alloc_array(jrt_bytecode::ArrayKind::Int, 8).unwrap();
        heap.set_field(root, 0, Value::Ref(child)).unwrap();

        let t = thread_with_root(root);
        let mut sink = CountingSink::new();
        let r = minor_collect(&mut heap, &[t], &linker, &mut sink).unwrap();
        assert_eq!(r.freed, 1, "the garbage array dies in the nursery");
        assert!(r.copied_bytes > 0);
        assert!(r.emitted > 0);
        assert_eq!(sink.phase(Phase::Gc), r.emitted);
        // Survivors moved to tenured space, handles intact.
        assert!(!heap.is_nursery(root) && !heap.is_nursery(child));
        assert_eq!(heap.get_field(root, 0).unwrap(), Value::Ref(child));
    }

    #[test]
    fn minor_collection_finds_roots_through_remset() {
        let (_p, linker) = empty_linker();
        let mut heap = gen_heap();
        // Tenured container (pretenured large array) → nursery child:
        // the child is reachable ONLY through the remembered set.
        let big = heap.alloc_array(jrt_bytecode::ArrayKind::Ref, 80).unwrap();
        assert!(!heap.is_nursery(big));
        let child = heap.alloc_object(ClassId(7), 0).unwrap();
        assert!(heap.is_nursery(child));
        heap.array_set(big, 5, Value::Ref(child).to_raw()).unwrap();
        assert_eq!(heap.remset(), &[big]);

        let t = thread_with_root(big);
        let mut sink = CountingSink::new();
        let r = minor_collect(&mut heap, &[t], &linker, &mut sink).unwrap();
        assert_eq!(r.freed, 0, "remset keeps the child alive");
        assert!(!heap.is_nursery(child), "child promoted");
        assert_eq!(heap.class_of(child).unwrap(), ClassId(7));
        assert!(heap.remset().is_empty(), "remset cleared after minor GC");
    }

    #[test]
    fn major_collection_compacts_and_forwards() {
        let (_p, linker) = empty_linker();
        let mut heap = gen_heap();
        let a = heap.alloc_array(jrt_bytecode::ArrayKind::Int, 80).unwrap();
        let b = heap.alloc_array(jrt_bytecode::ArrayKind::Int, 80).unwrap();
        let keep = heap.alloc_array(jrt_bytecode::ArrayKind::Int, 80).unwrap();
        assert!(!heap.is_nursery(a) && !heap.is_nursery(b) && !heap.is_nursery(keep));
        heap.array_set(keep, 3, 55).unwrap();
        let _ = (a, b); // unrooted below — garbage for the major to free

        let t = thread_with_root(keep);
        let mut sink = CountingSink::new();
        let r = major_collect(&mut heap, &[t], &linker, &mut sink);
        assert_eq!(r.freed, 2);
        assert!(r.copied_bytes > 0, "compaction copies every survivor");
        assert_eq!(sink.phase(Phase::Gc), r.emitted);
        assert_eq!(heap.array_get(keep, 3).unwrap(), 55);
        assert_eq!(
            heap.header_addr(keep).unwrap(),
            crate::heap::TENURED_BASE,
            "sole survivor packs to the tenured base"
        );
    }
}

//! Native-method intrinsics (the class library boundary).
//!
//! Workloads declare native methods on a `Sys` class; the VM
//! dispatches them here. The set mirrors what the SpecJVM98-analog
//! workloads need from `java.lang`: console output, `arraycopy`, and
//! thread spawn/join.

use crate::heap::{Heap, HeapError, Value};
use crate::vm::Output;
use jrt_trace::{layout, Addr, NativeInst, Phase, TraceSink};

/// What the VM should do after an intrinsic call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IntrinsicOutcome {
    /// Push the value (if any) and continue.
    Done(Option<Value>),
    /// Spawn a thread running `target.run()`; push the thread id.
    Spawn {
        /// The runnable object.
        target: crate::heap::Handle,
    },
    /// Block the calling thread until the given thread finishes.
    Join(u16),
}

/// Errors from intrinsic calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IntrinsicError {
    /// No intrinsic registered under this name.
    Unknown(String),
    /// An argument had the wrong shape (null where an object was
    /// needed, etc.).
    BadArgument(&'static str),
    /// Heap fault while executing the intrinsic.
    Heap(HeapError),
}

impl From<HeapError> for IntrinsicError {
    fn from(e: HeapError) -> Self {
        IntrinsicError::Heap(e)
    }
}

const IO_BUFFER: Addr = layout::VM_DATA_BASE + 0x20_0000;
const NATIVE_TEXT: Addr = layout::VM_TEXT_BASE + 0x6_0000;

/// A registered native method, resolved once per call site from the
/// site's `class.name` reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intrinsic {
    PrintInt,
    PrintChar,
    ArrayCopy,
    Spawn,
    Join,
}

impl Intrinsic {
    /// The intrinsic registered as `class.name`, if any.
    pub(crate) fn lookup(class: &str, name: &str) -> Option<Intrinsic> {
        match (class, name) {
            ("Sys", "print_int") => Some(Intrinsic::PrintInt),
            ("Sys", "print_char") => Some(Intrinsic::PrintChar),
            ("Sys", "arraycopy") => Some(Intrinsic::ArrayCopy),
            ("Sys", "spawn") => Some(Intrinsic::Spawn),
            ("Sys", "join") => Some(Intrinsic::Join),
            _ => None,
        }
    }
}

/// Executes intrinsic `which` with `args` (receiver excluded; all
/// `Sys` intrinsics are static).
pub(crate) fn call(
    which: Intrinsic,
    args: &[Value],
    heap: &mut Heap,
    out: &mut Output,
    sink: &mut impl TraceSink,
    emitted: &mut u64,
) -> Result<IntrinsicOutcome, IntrinsicError> {
    let mut pc = NATIVE_TEXT;
    let mut emit = |i: NativeInst, emitted: &mut u64| {
        sink.accept(&i);
        *emitted += 1;
    };
    match which {
        Intrinsic::PrintInt => {
            let v = int_arg(args, 0)?;
            out.ints.push(v);
            for k in 0..4u64 {
                emit(
                    NativeInst::store(
                        pc,
                        IO_BUFFER + (out.ints.len() as u64 * 16 + k * 4) % 0x1000,
                        4,
                        Phase::Runtime,
                    ),
                    emitted,
                );
                pc += 4;
            }
            Ok(IntrinsicOutcome::Done(None))
        }
        Intrinsic::PrintChar => {
            let v = int_arg(args, 0)?;
            out.chars.push(char::from_u32(v as u32).unwrap_or('?'));
            emit(
                NativeInst::store(
                    pc,
                    IO_BUFFER + (out.chars.len() as u64) % 0x1000,
                    1,
                    Phase::Runtime,
                ),
                emitted,
            );
            Ok(IntrinsicOutcome::Done(None))
        }
        Intrinsic::ArrayCopy => {
            let src = ref_arg(args, 0)?;
            let src_pos = int_arg(args, 1)?;
            let dst = ref_arg(args, 2)?;
            let dst_pos = int_arg(args, 3)?;
            let len = int_arg(args, 4)?;
            for k in 0..len {
                let v = heap.array_get(src, src_pos + k)?;
                heap.array_set(dst, dst_pos + k, v)?;
                // Block-copy loop: one load + one store per element,
                // tight native loop.
                emit(
                    NativeInst::load(pc, heap.elem_addr(src, src_pos + k)?, 4, Phase::Runtime)
                        .with_dst(9),
                    emitted,
                );
                emit(
                    NativeInst::store(pc + 4, heap.elem_addr(dst, dst_pos + k)?, 4, Phase::Runtime)
                        .with_srcs(9, None),
                    emitted,
                );
                emit(
                    NativeInst::branch(pc + 8, pc, k + 1 != len, Phase::Runtime),
                    emitted,
                );
            }
            Ok(IntrinsicOutcome::Done(None))
        }
        Intrinsic::Spawn => {
            let target = ref_arg(args, 0)?;
            for _ in 0..16 {
                emit(NativeInst::alu(pc, Phase::Runtime), emitted);
                pc += 4;
            }
            Ok(IntrinsicOutcome::Spawn { target })
        }
        Intrinsic::Join => {
            let tid = int_arg(args, 0)?;
            if tid < 0 || tid > i32::from(u16::MAX) {
                return Err(IntrinsicError::BadArgument("join: bad thread id"));
            }
            emit(NativeInst::alu(pc, Phase::Runtime), emitted);
            Ok(IntrinsicOutcome::Join(tid as u16))
        }
    }
}

fn int_arg(args: &[Value], n: usize) -> Result<i32, IntrinsicError> {
    match args.get(n) {
        Some(Value::Int(v)) => Ok(*v),
        _ => Err(IntrinsicError::BadArgument("expected int argument")),
    }
}

fn ref_arg(args: &[Value], n: usize) -> Result<crate::heap::Handle, IntrinsicError> {
    match args.get(n) {
        Some(Value::Ref(h)) => Ok(*h),
        _ => Err(IntrinsicError::BadArgument("expected non-null reference")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::ArrayKind;
    use jrt_trace::CountingSink;

    #[test]
    fn print_int_records_output() {
        let mut heap = Heap::new();
        let mut out = Output::default();
        let mut sink = CountingSink::new();
        let mut n = 0;
        let r = call(
            Intrinsic::lookup("Sys", "print_int").unwrap(),
            &[Value::Int(7)],
            &mut heap,
            &mut out,
            &mut sink,
            &mut n,
        )
        .unwrap();
        assert_eq!(r, IntrinsicOutcome::Done(None));
        assert_eq!(out.ints, vec![7]);
        assert!(n > 0);
    }

    #[test]
    fn arraycopy_copies_and_emits() {
        let mut heap = Heap::new();
        let src = heap.alloc_array(ArrayKind::Int, 4).unwrap();
        let dst = heap.alloc_array(ArrayKind::Int, 4).unwrap();
        for k in 0..4 {
            heap.array_set(src, k, k * 10).unwrap();
        }
        let mut out = Output::default();
        let mut sink = CountingSink::new();
        let mut n = 0;
        call(
            Intrinsic::lookup("Sys", "arraycopy").unwrap(),
            &[
                Value::Ref(src),
                Value::Int(1),
                Value::Ref(dst),
                Value::Int(0),
                Value::Int(3),
            ],
            &mut heap,
            &mut out,
            &mut sink,
            &mut n,
        )
        .unwrap();
        assert_eq!(heap.array_get(dst, 0).unwrap(), 10);
        assert_eq!(heap.array_get(dst, 2).unwrap(), 30);
        assert_eq!(n, 9); // 3 elements x (load + store + branch)
    }

    #[test]
    fn unknown_intrinsic_is_not_registered() {
        assert_eq!(Intrinsic::lookup("Sys", "nope"), None);
        assert_eq!(Intrinsic::lookup("Math", "print_int"), None);
    }

    #[test]
    fn spawn_and_join_surface_outcomes() {
        let mut heap = Heap::new();
        let obj = heap.alloc_object(jrt_bytecode::ClassId(0), 0).unwrap();
        let mut out = Output::default();
        let mut sink = CountingSink::new();
        let mut n = 0;
        assert_eq!(
            call(
                Intrinsic::lookup("Sys", "spawn").unwrap(),
                &[Value::Ref(obj)],
                &mut heap,
                &mut out,
                &mut sink,
                &mut n
            )
            .unwrap(),
            IntrinsicOutcome::Spawn { target: obj }
        );
        assert_eq!(
            call(
                Intrinsic::lookup("Sys", "join").unwrap(),
                &[Value::Int(3)],
                &mut heap,
                &mut out,
                &mut sink,
                &mut n
            )
            .unwrap(),
            IntrinsicOutcome::Join(3)
        );
        assert!(matches!(
            call(
                Intrinsic::lookup("Sys", "join").unwrap(),
                &[Value::Int(-1)],
                &mut heap,
                &mut out,
                &mut sink,
                &mut n
            ),
            Err(IntrinsicError::BadArgument(_))
        ));
    }

    #[test]
    fn null_ref_rejected() {
        let mut heap = Heap::new();
        let mut out = Output::default();
        let mut sink = CountingSink::new();
        let mut n = 0;
        assert!(matches!(
            call(
                Intrinsic::lookup("Sys", "spawn").unwrap(),
                &[Value::Null],
                &mut heap,
                &mut out,
                &mut sink,
                &mut n
            ),
            Err(IntrinsicError::BadArgument(_))
        ));
    }
}

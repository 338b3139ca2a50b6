//! The shared semantic core: executes one bytecode of one thread.
//!
//! Every engine runs through this function; the [`Emitter`] chosen
//! for the current frame (stack or IR interpreter, translated code)
//! decides what native instructions the action costs. This guarantees
//! the two execution modes compute identical results — the paper's
//! contrast is purely architectural, and so is ours.

use crate::code::{CodeTable, Xop};
use crate::config::ExecMode;
use crate::emit::interp::invoke_helper_addr;
use crate::emit::{
    Emit, Emitter, InterpEmitter, InvokeKind, IrInterpEmitter, IrJitEmitter, JitEmitter,
};
use crate::heap::{Handle, Value};
use crate::intrinsics::{self, IntrinsicError, IntrinsicOutcome};
use crate::jit::{CallSite, CalleeSite, JitState};
use crate::thread::{ThreadState, ThreadStatus};
use crate::vm::{StepEnv, VmError};
use jrt_bytecode::{ClassId, MethodId, Program, RetKind};
use jrt_codecache::ProfileTable;
use jrt_ir::PcPlan;
use jrt_sync::{EnterOutcome, ExitOutcome};
use jrt_trace::{layout, Addr, InstClass, TraceSink};

/// What the scheduler should do after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Keep running this thread.
    Continue,
    /// The thread blocked on a monitor; reschedule.
    Blocked,
    /// The thread's root method returned.
    ThreadDone,
    /// `Sys.spawn(target)` — the VM must create a thread running
    /// `target.run()` and push the new thread id on this thread's
    /// stack.
    Spawn {
        /// The runnable object.
        target: Handle,
    },
    /// `Sys.join(tid)` — the VM must block this thread until `tid`
    /// finishes.
    Join(u16),
}

/// Simulated address of the lock structure touched by a monitor
/// operation: header word for header-bit schemes, monitor-cache
/// bucket for the fat-only scheme.
fn lock_addr(env: &StepEnv<'_>, h: Handle) -> Addr {
    if env.sync.header_bits() > 0 {
        env.heap.header_addr(h).unwrap_or(layout::HEAP_BASE) + 4
    } else {
        layout::VM_DATA_BASE + u64::from(h % 128) * 32
    }
}

/// Executes one bytecode of `thread`.
///
/// # Errors
///
/// Surfaces runtime faults (`NullPointerException`-equivalents,
/// division by zero, heap exhaustion, monitor misuse) as [`VmError`].
pub(crate) fn step(
    env: &mut StepEnv<'_>,
    thread: &mut ThreadState,
    sink: &mut impl TraceSink,
) -> Result<StepOutcome, VmError> {
    let program = env.program;
    let frame = thread.frame();
    let mid = frame.method;
    let mut jit_frame = frame.jit;
    let pc = frame.pc;

    // Pending synchronized-method entry?
    if let Some(obj) = frame.sync_pending {
        match env.sync.monitor_enter(obj, thread.id) {
            EnterOutcome::Acquired { cost, .. } => {
                let mut n = 0u64;
                crate::emit::interp::emit_sync(sink, cost, lock_addr(env, obj), &mut n);
                charge(env, mid, jit_frame, n, false);
                let f = thread.frame_mut();
                f.sync_pending = None;
                f.sync_obj = Some(obj);
            }
            EnterOutcome::Blocked { cost } => {
                let mut n = 0u64;
                crate::emit::interp::emit_sync(sink, cost, lock_addr(env, obj), &mut n);
                charge(env, mid, jit_frame, n, false);
                thread.status = ThreadStatus::Blocked(obj);
                return Ok(StepOutcome::Blocked);
            }
        }
    }

    // A frame whose translated code was evicted mid-flight demotes to
    // interpretation — the eviction's cost is precisely this fallback
    // (slower bytecodes, and possible re-translation on the next
    // invocation). A translated frame reads its native addresses from
    // whichever record the method resolves to now.
    let method = env.code.get(mid);
    let inst = method.insts[pc as usize];
    let ir_base = method.ir_base;
    let (code, reg_locals, branch) = if !jit_frame {
        (0, 0, 0)
    } else if let Some(cm) = env.jit.compiled(mid, thread.id) {
        (
            cm.addr(pc),
            cm.reg_locals,
            inst.op.branch_target().map_or(0, |t| cm.addr(t)),
        )
    } else {
        thread.frame_mut().jit = false;
        jit_frame = false;
        (0, 0, 0)
    };

    // Differential-fuzzing observability: histogram the opcode before
    // it acts, so faulting bytecodes are counted too and engines
    // compare at bytecode granularity.
    if let Some(counts) = env.opcode_counts.as_mut() {
        counts[usize::from(inst.opcode)] += 1;
    }

    // Emitter for this bytecode.
    let ir = env.mode.is_ir();
    let mut em = if jit_frame {
        let inner = JitEmitter::new(code, thread.frame().stack.len(), reg_locals);
        if ir {
            // IR-translated code: fused register moves and elided pcs
            // emit nothing.
            Emitter::IrJit(IrJitEmitter::new(inner, inst.plan, reg_locals))
        } else {
            Emitter::Jit(inner)
        }
    } else if ir {
        // Register-IR interpreter: only `Exec` pcs dispatch (through
        // their IR opcode's handler); covered pcs run their micro-ops
        // inside the covering handler's text, elided pcs are free.
        let em = IrInterpEmitter::new(inst.plan, inst.ir_slot, thread.last_opcode, ir_base);
        if matches!(inst.plan, PcPlan::Exec { .. }) {
            env.jit.ir.dispatches += 1;
            thread.last_opcode = inst.ir_slot;
        }
        Emitter::IrInterp(em)
    } else {
        let em = InterpEmitter::new(
            env.linker.code_addr(mid),
            pc,
            inst.opcode,
            thread.last_opcode,
            thread.frame().locals_addr - 16,
        );
        // picoJava-style folding: up to four consecutive simple
        // bytecodes share the previous dispatch.
        let foldable = inst.is_foldable();
        let fold = env.folding && foldable && (1..4).contains(&thread.fold_run);
        if env.folding {
            thread.fold_run = if foldable {
                if thread.fold_run >= 4 {
                    1
                } else {
                    thread.fold_run + 1
                }
            } else {
                0
            };
        }
        thread.last_opcode = inst.opcode;
        Emitter::Interp(if fold { em.folded() } else { em })
    };
    em.begin(sink);
    if inst.len > 1 {
        em.operand_fetch(sink, inst.len - 1);
    }

    macro_rules! pop {
        () => {{
            let f = thread.frame_mut();
            let v = f.stack.pop().expect("verified stack");
            let addr = f.stack_slot_addr(f.stack.len());
            em.stack_pop(sink, addr);
            v
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            let f = thread.frame_mut();
            f.stack.push(v);
            let addr = f.stack_slot_addr(f.stack.len() - 1);
            em.stack_push(sink, addr);
        }};
    }
    macro_rules! npe {
        ($v:expr) => {{
            em.null_check(sink);
            match $v.as_ref() {
                Some(h) => h,
                None => {
                    return Err(VmError::NullPointer {
                        method: method_name(env, mid),
                        pc,
                    })
                }
            }
        }};
    }

    let mut next_pc = pc + inst.len;

    match inst.op {
        Xop::Nop => {}
        Xop::IConst(v) => {
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Int(v));
        }
        Xop::AConstNull => {
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Null);
        }
        Xop::ILoad(n) | Xop::ALoad(n) => {
            let n = usize::from(n);
            let addr = thread.frame().local_addr(n);
            em.local_read(sink, n, addr);
            let v = thread.frame().locals[n];
            push!(v);
        }
        Xop::IStore(n) | Xop::AStore(n) => {
            let n = usize::from(n);
            let v = pop!();
            let addr = thread.frame().local_addr(n);
            em.local_write(sink, n, addr);
            thread.frame_mut().locals[n] = v;
        }
        Xop::Pop => {
            pop!();
        }
        Xop::Dup => {
            let v = pop!();
            push!(v);
            push!(v);
        }
        Xop::DupX1 => {
            let v1 = pop!();
            let v2 = pop!();
            push!(v1);
            push!(v2);
            push!(v1);
        }
        Xop::Swap => {
            let v1 = pop!();
            let v2 = pop!();
            push!(v1);
            push!(v2);
        }
        Xop::IAdd
        | Xop::ISub
        | Xop::IMul
        | Xop::IDiv
        | Xop::IRem
        | Xop::IShl
        | Xop::IShr
        | Xop::IUshr
        | Xop::IAnd
        | Xop::IOr
        | Xop::IXor => {
            let b = pop!().as_int();
            let a = pop!().as_int();
            let class = match inst.op {
                Xop::IMul => InstClass::IntMul,
                Xop::IDiv | Xop::IRem => InstClass::IntDiv,
                _ => InstClass::IntAlu,
            };
            em.alu(sink, class);
            let r = match inst.op {
                Xop::IAdd => a.wrapping_add(b),
                Xop::ISub => a.wrapping_sub(b),
                Xop::IMul => a.wrapping_mul(b),
                Xop::IDiv => {
                    if b == 0 {
                        return Err(VmError::DivideByZero {
                            method: method_name(env, mid),
                            pc,
                        });
                    }
                    a.wrapping_div(b)
                }
                Xop::IRem => {
                    if b == 0 {
                        return Err(VmError::DivideByZero {
                            method: method_name(env, mid),
                            pc,
                        });
                    }
                    a.wrapping_rem(b)
                }
                Xop::IShl => a.wrapping_shl(b as u32 & 31),
                Xop::IShr => a.wrapping_shr(b as u32 & 31),
                Xop::IUshr => ((a as u32) >> (b as u32 & 31)) as i32,
                Xop::IAnd => a & b,
                Xop::IOr => a | b,
                Xop::IXor => a ^ b,
                _ => unreachable!(),
            };
            push!(Value::Int(r));
        }
        Xop::INeg => {
            let a = pop!().as_int();
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Int(a.wrapping_neg()));
        }
        Xop::IInc(n, d) => {
            let n = usize::from(n);
            let addr = thread.frame().local_addr(n);
            em.local_read(sink, n, addr);
            em.alu(sink, InstClass::IntAlu);
            em.local_write(sink, n, addr);
            let f = thread.frame_mut();
            f.locals[n] = Value::Int(f.locals[n].as_int().wrapping_add(i32::from(d)));
        }
        Xop::If(cond, t) => {
            let v = pop!().as_int();
            let taken = cond.eval(v, 0);
            em.cond_branch(sink, taken, branch);
            if taken {
                next_pc = t;
            }
        }
        Xop::IfICmp(cond, t) => {
            let b = pop!().as_int();
            let a = pop!().as_int();
            let taken = cond.eval(a, b);
            em.cond_branch(sink, taken, branch);
            if taken {
                next_pc = t;
            }
        }
        Xop::IfNull(t) | Xop::IfNonNull(t) => {
            let v = pop!();
            let is_null = matches!(v, Value::Null);
            let taken = if matches!(inst.op, Xop::IfNull(_)) {
                is_null
            } else {
                !is_null
            };
            em.cond_branch(sink, taken, branch);
            if taken {
                next_pc = t;
            }
        }
        Xop::IfACmpEq(t) | Xop::IfACmpNe(t) => {
            let b = pop!();
            let a = pop!();
            let eq = a == b;
            let taken = if matches!(inst.op, Xop::IfACmpEq(_)) {
                eq
            } else {
                !eq
            };
            em.cond_branch(sink, taken, branch);
            if taken {
                next_pc = t;
            }
        }
        Xop::Goto(t) => {
            em.goto_(sink, branch);
            next_pc = t;
        }
        Xop::TableSwitch(i) => {
            let key = pop!().as_int();
            let method = env.code.get(mid);
            let sw = method.switches[i as usize];
            let idx = key.wrapping_sub(sw.low);
            let target = if idx >= 0 && (idx as u32) < sw.count {
                method.switch_targets[(sw.start + idx as u32) as usize]
            } else {
                sw.default
            };
            let native = if jit_frame {
                env.jit
                    .compiled(mid, thread.id)
                    .map_or(0, |cm| cm.addr(target))
            } else {
                0
            };
            em.switch(sink, native);
            next_pc = target;
        }
        Xop::New(cid) => {
            let loaded = env.linker.ensure_loaded(cid, program, env.heap, sink);
            env.counters.classload_insts += loaded;
            let nfields = env.linker.class(cid).num_fields();
            let h = env.heap.alloc_object(cid, nfields).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).expect("fresh object");
            em.alloc(sink, addr, 8 + 4 * nfields as u32);
            push!(Value::Ref(h));
        }
        Xop::GetField(site) => {
            let objv = pop!();
            let h = npe!(objv);
            let rcls = env.heap.class_of(h).map_err(VmError::Heap)?;
            let slot = field_slot(env, mid, site, rcls)?;
            let addr = env.heap.field_addr(h, slot).map_err(VmError::Heap)?;
            em.heap_load(sink, addr, 4);
            let v = env.heap.get_field(h, slot).map_err(VmError::Heap)?;
            push!(v);
        }
        Xop::PutField(site) => {
            let v = pop!();
            let objv = pop!();
            let h = npe!(objv);
            let rcls = env.heap.class_of(h).map_err(VmError::Heap)?;
            let slot = field_slot(env, mid, site, rcls)?;
            let addr = env.heap.field_addr(h, slot).map_err(VmError::Heap)?;
            em.heap_store(sink, addr, 4);
            env.heap.set_field(h, slot, v).map_err(VmError::Heap)?;
            if env.gc_barriers && matches!(v, Value::Ref(_)) {
                env.counters.gc_barrier_insts +=
                    em.ref_store_barrier(sink, crate::heap::card_addr(addr));
            }
        }
        Xop::GetStatic(site) | Xop::PutStatic(site) => {
            let (owner, slot, addr) = static_slot(env, mid, site, sink)?;
            if matches!(inst.op, Xop::GetStatic(_)) {
                em.heap_load(sink, addr, 4);
                let v = env.linker.get_static(owner, slot);
                push!(v);
            } else {
                let v = pop!();
                em.heap_store(sink, addr, 4);
                env.linker.set_static(owner, slot, v);
                if env.gc_barriers && matches!(v, Value::Ref(_)) {
                    env.counters.gc_barrier_insts +=
                        em.ref_store_barrier(sink, crate::heap::card_addr(addr));
                }
            }
        }
        Xop::NewArray(kind) => {
            let n = pop!().as_int();
            let h = env.heap.alloc_array(kind, n).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).expect("fresh array");
            em.alloc(sink, addr, 12 + kind.elem_size() * n.max(0) as u32);
            push!(Value::Ref(h));
        }
        Xop::ArrayLength => {
            let objv = pop!();
            let h = npe!(objv);
            let len = env.heap.array_len(h).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).map_err(VmError::Heap)? + 8;
            em.heap_load(sink, addr, 4);
            push!(Value::Int(len as i32));
        }
        Xop::ArrLoad(kind) => {
            let idx = pop!().as_int();
            let objv = pop!();
            let h = npe!(objv);
            em.bounds_check(sink);
            let raw = env.heap.array_get(h, idx).map_err(VmError::Heap)?;
            let addr = env.heap.elem_addr(h, idx).map_err(VmError::Heap)?;
            em.heap_load(sink, addr, kind.elem_size() as u8);
            push!(if matches!(kind, jrt_bytecode::ArrayKind::Ref) {
                Value::ref_from_raw(raw)
            } else {
                Value::Int(raw)
            });
        }
        Xop::ArrStore(kind) => {
            let v = pop!();
            let idx = pop!().as_int();
            let objv = pop!();
            let h = npe!(objv);
            em.bounds_check(sink);
            let addr = env.heap.elem_addr(h, idx).map_err(VmError::Heap)?;
            em.heap_store(sink, addr, kind.elem_size() as u8);
            env.heap
                .array_set(h, idx, v.to_raw())
                .map_err(VmError::Heap)?;
            if env.gc_barriers
                && matches!(kind, jrt_bytecode::ArrayKind::Ref)
                && matches!(v, Value::Ref(_))
            {
                env.counters.gc_barrier_insts +=
                    em.ref_store_barrier(sink, crate::heap::card_addr(addr));
            }
        }
        Xop::InvokeStatic(i) | Xop::InvokeVirtual(i) | Xop::InvokeSpecial(i) => {
            let site = env.code.get(mid).invokes[i as usize];
            let is_virtual = matches!(inst.op, Xop::InvokeVirtual(_));
            let is_static = matches!(inst.op, Xop::InvokeStatic(_));

            let loaded = env
                .linker
                .ensure_loaded(site.declared, program, env.heap, sink);
            env.counters.classload_insts += loaded;

            // Pop the arguments (receiver first for instance calls)
            // into the thread's argument scratch.
            let argc = usize::from(site.nargs) + usize::from(!is_static);
            {
                let f = thread
                    .frames
                    .last_mut()
                    .expect("running thread has a frame");
                let base = f.stack.len() - argc;
                for slot in (base..f.stack.len()).rev() {
                    em.stack_pop(sink, f.stack_slot_addr(slot));
                }
                thread.args.clear();
                thread.args.extend_from_slice(&f.stack[base..]);
                f.stack.truncate(base);
            }

            // Resolve the callee.
            let callee = if is_virtual {
                let recv = thread.args[0];
                let h = npe!(recv);
                let rcls = env.heap.class_of(h).map_err(VmError::Heap)?;
                virtual_target(env, mid, i, rcls)?
            } else {
                site.resolved.expect("verified method resolution")
            };
            let callee_def = program.method_def(callee);

            // Native methods dispatch to intrinsics.
            if callee_def.flags.is_native {
                let entry = layout::VM_TEXT_BASE
                    + 0x6_0000
                    + (u64::from(callee.class.0) * 131 + u64::from(callee.index)) % 0x1000 * 16;
                em.invoke(sink, InvokeKind::Direct, entry);
                let mut n = 0u64;
                let outcome = match site.intrinsic {
                    Some(which) => {
                        intrinsics::call(which, &thread.args, env.heap, env.out, sink, &mut n)
                    }
                    None => {
                        let (cname, mname, _, _) = program
                            .class_file(mid.class)
                            .pool
                            .method_ref(site.cp)
                            .map_err(|e| VmError::Internal(e.to_string()))?;
                        Err(IntrinsicError::Unknown(format!("{cname}::{mname}")))
                    }
                }
                .map_err(|e| VmError::Intrinsic(format!("{e:?}")))?;
                em.ret(sink, 0);
                charge(env, mid, jit_frame, em.count() + n, false);
                thread.frame_mut().pc = next_pc;
                return Ok(match outcome {
                    IntrinsicOutcome::Done(v) => {
                        debug_assert_eq!(v.is_some(), site.ret != RetKind::Void);
                        if let Some(rv) = v {
                            thread.frame_mut().stack.push(rv);
                        }
                        StepOutcome::Continue
                    }
                    IntrinsicOutcome::Spawn { target } => StepOutcome::Spawn { target },
                    IntrinsicOutcome::Join(tid) => StepOutcome::Join(tid),
                });
            }

            // JIT policy decision for the callee: one decision point
            // (tiering, translation, touch bookkeeping) shared with
            // thread starts.
            let code_addr = env.linker.code_addr(callee);
            let use_jit = prepare_callee(
                program,
                env.code,
                env.jit,
                env.mode,
                env.profile,
                callee,
                thread.id,
                code_addr,
                sink,
            );

            let entry = if use_jit {
                env.jit.entry_addr(callee, thread.id)
            } else {
                invoke_helper_addr((u64::from(callee.class.0) << 20) ^ u64::from(callee.index))
            };
            let kind = if !is_virtual {
                InvokeKind::Direct
            } else if jit_frame {
                let site = &mut env.code.get_mut(mid).invokes[i as usize];
                site.profile = site.profile.observe(callee);
                match site.profile {
                    CallSite::Mono(_) => InvokeKind::VirtualMono,
                    _ => InvokeKind::VirtualPoly,
                }
            } else {
                InvokeKind::VirtualPoly
            };

            let ret_to = em.invoke(sink, kind, entry);

            // Synchronized-method monitor target.
            let sync_target = if callee_def.flags.is_synchronized {
                Some(if callee_def.flags.is_static {
                    env.linker.class(callee.class).class_object
                } else {
                    thread.args[0].as_ref().expect("receiver checked above")
                })
            } else {
                None
            };

            if thread.call_depth() >= 512 {
                return Err(VmError::StackOverflow {
                    method: method_name(env, mid),
                });
            }
            thread.frame_mut().pc = next_pc;
            let args = std::mem::take(&mut thread.args);
            thread.push_frame(callee, callee_def, &args);
            thread.args = args;
            {
                let f = thread.frame_mut();
                f.jit = use_jit;
                f.ret_to = ret_to;
                f.sync_pending = sync_target;
            }
            let locals_addr = thread.frame().locals_addr;
            em.frame_setup(sink, usize::from(callee_def.max_locals), locals_addr);
            if env.profiling {
                env.profile.record_invocation(callee);
            }
            charge(env, mid, jit_frame, em.count(), false);
            return Ok(StepOutcome::Continue);
        }
        Xop::Return | Xop::IReturn | Xop::AReturn => {
            let value = if matches!(inst.op, Xop::Return) {
                None
            } else {
                Some(pop!())
            };
            let frame = thread.pop_frame();
            if let Some(h) = frame.sync_obj {
                match env.sync.monitor_exit(h, thread.id) {
                    Ok(ExitOutcome::Released { cost } | ExitOutcome::StillHeld { cost }) => {
                        em.sync_op(sink, cost, lock_addr(env, h));
                    }
                    Err(e) => return Err(VmError::Monitor(e.to_string())),
                }
            }
            em.ret(sink, frame.ret_to);
            if thread.is_done() {
                thread.result = value;
                thread.status = ThreadStatus::Done;
                charge(env, mid, jit_frame, em.count(), false);
                return Ok(StepOutcome::ThreadDone);
            }
            if let Some(v) = value {
                let f = thread.frame_mut();
                f.stack.push(v);
                let addr = f.stack_slot_addr(f.stack.len() - 1);
                em.stack_push(sink, addr);
            }
            charge(env, mid, jit_frame, em.count(), false);
            return Ok(StepOutcome::Continue);
        }
        Xop::MonitorEnter => {
            let top = *thread.frame().stack.last().expect("verified stack");
            let h = npe!(top);
            match env.sync.monitor_enter(h, thread.id) {
                EnterOutcome::Acquired { cost, .. } => {
                    pop!();
                    em.sync_op(sink, cost, lock_addr(env, h));
                }
                EnterOutcome::Blocked { cost } => {
                    em.sync_op(sink, cost, lock_addr(env, h));
                    charge(env, mid, jit_frame, em.count(), false);
                    thread.status = ThreadStatus::Blocked(h);
                    return Ok(StepOutcome::Blocked);
                }
            }
        }
        Xop::Inside => unreachable!("verified control flow lands on instruction boundaries"),
        Xop::MonitorExit => {
            let v = pop!();
            let h = npe!(v);
            match env.sync.monitor_exit(h, thread.id) {
                Ok(ExitOutcome::Released { cost } | ExitOutcome::StillHeld { cost }) => {
                    em.sync_op(sink, cost, lock_addr(env, h));
                }
                Err(e) => return Err(VmError::Monitor(e.to_string())),
            }
        }
    }

    // Backward branches are the tiered policy's loop-hotness signal
    // (invoke/return paths exit earlier, so only branches land here).
    thread.frame_mut().pc = next_pc;
    charge(env, mid, jit_frame, em.count(), next_pc < pc);
    Ok(StepOutcome::Continue)
}

/// The instance-field slot site `site` of `mid` names in receiver
/// class `rcls`, through the site's one-entry class cache.
fn field_slot(
    env: &mut StepEnv<'_>,
    mid: MethodId,
    site: u32,
    rcls: ClassId,
) -> Result<usize, VmError> {
    let s = &mut env.code.get_mut(mid).fields[site as usize];
    if let Some((c, slot)) = s.cache {
        if c == rcls {
            return Ok(slot);
        }
    }
    let (_, fname) = env
        .program
        .class_file(mid.class)
        .pool
        .field_ref(s.cp)
        .map_err(|e| VmError::Internal(e.to_string()))?;
    let slot = env
        .linker
        .class(rcls)
        .field_slot(fname)
        .ok_or_else(|| VmError::Internal(format!("field {fname} missing")))?;
    s.cache = Some((rcls, slot));
    Ok(slot)
}

/// The owner class, slot and address of static site `site` of `mid`,
/// loading the class and resolving the name on first execution.
fn static_slot(
    env: &mut StepEnv<'_>,
    mid: MethodId,
    site: u32,
    sink: &mut impl TraceSink,
) -> Result<(ClassId, usize, Addr), VmError> {
    let s = env.code.get(mid).statics[site as usize];
    if let Some(r) = s.resolved {
        return Ok(r);
    }
    let loaded = env
        .linker
        .ensure_loaded(s.class, env.program, env.heap, sink);
    env.counters.classload_insts += loaded;
    let (cname, fname) = env
        .program
        .class_file(mid.class)
        .pool
        .field_ref(s.cp)
        .map_err(|e| VmError::Internal(e.to_string()))?;
    let (owner, slot) = env
        .linker
        .resolve_static(env.program, s.class, fname)
        .ok_or_else(|| VmError::Internal(format!("static {cname}.{fname} missing")))?;
    let r = (owner, slot, env.linker.static_slot_addr(owner, slot));
    env.code.get_mut(mid).statics[site as usize].resolved = Some(r);
    Ok(r)
}

/// The method invoke site `site` of `mid` reaches for a receiver of
/// class `rcls`, through the site's one-entry class cache.
fn virtual_target(
    env: &mut StepEnv<'_>,
    mid: MethodId,
    site: u32,
    rcls: ClassId,
) -> Result<MethodId, VmError> {
    let s = &mut env.code.get_mut(mid).invokes[site as usize];
    if let Some((c, target)) = s.cache {
        if c == rcls {
            return Ok(target);
        }
    }
    let (_, mname, _, _) = env
        .program
        .class_file(mid.class)
        .pool
        .method_ref(s.cp)
        .map_err(|e| VmError::Internal(e.to_string()))?;
    let target = env
        .linker
        .class(rcls)
        .vtable_lookup(mname)
        .or(s.resolved)
        .ok_or_else(|| VmError::Internal(format!("no target for {mname}")))?;
    s.cache = Some((rcls, target));
    Ok(target)
}

/// Readies `callee` for a new frame — decodes it, lets the JIT policy
/// translate or lower it, and records its IR plan in IR modes — and
/// returns whether the frame runs translated code. The one decision
/// point shared by invokes and thread starts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_callee(
    program: &Program,
    code: &mut CodeTable,
    jit: &mut JitState,
    mode: &ExecMode,
    profile: &mut ProfileTable,
    callee: MethodId,
    tid: u16,
    code_addr: Addr,
    sink: &mut impl TraceSink,
) -> bool {
    let method = code.ensure(program, callee);
    let use_jit = jit.ensure_compiled(
        mode,
        profile,
        CalleeSite {
            callee,
            tid,
            def: program.method_def(callee),
            code: &*method,
            code_addr,
        },
        sink,
    );
    if mode.is_ir() && !method.lowered {
        let lm = jit.lowered(callee).expect("IR modes lower before stepping");
        method.attach_ir(&lm.ir, lm.base);
    }
    use_jit
}

#[inline]
fn charge(env: &mut StepEnv<'_>, mid: MethodId, jit_frame: bool, count: u64, backedge: bool) {
    if env.profiling {
        let p = env.profile.get_mut(mid);
        if jit_frame {
            p.native_cycles += count;
        } else {
            p.interp_cycles += count;
        }
        p.backedges += u64::from(backedge);
    }
}

fn method_name(env: &StepEnv<'_>, mid: MethodId) -> String {
    let cf = env.program.class_file(mid.class);
    format!("{}::{}", cf.name, cf.methods[mid.index as usize].name)
}

//! The `javart` virtual machine.
//!
//! This crate is the synthetic stand-in for the JVMs the paper
//! instruments (Sun JDK 1.1.6 and Kaffe 0.9.2). It executes programs
//! in the `jrt-bytecode` format under several engines and, while
//! doing so, emits the SPARC-like native instruction trace
//! (`jrt-trace`) that the architectural studies consume:
//!
//! * the **interpreter** models a C `switch`-threaded interpreter:
//!   every bytecode costs an opcode fetch (a *data* load from the
//!   bytecode area), an indirect dispatch jump, and a handler body
//!   that moves operands through an in-memory operand stack;
//! * the **JIT** models Kaffe-style translate-on-first-invocation:
//!   translation walks the bytecode (data reads), generates native
//!   instructions into the code cache (cold *write* misses), and the
//!   installed code then runs with register-allocated operands,
//!   per-method instruction footprints, and devirtualized calls;
//! * the **register-IR tier** ([`ExecMode::IrInterp`] /
//!   [`ExecMode::IrJit`]) lowers each method once through `jrt-ir`'s
//!   stack→register pass (constant folding, redundant-load
//!   elimination, superinstruction fusion) and then either interprets
//!   the packed IR — at most one dispatch per bytecode, operand stack
//!   in registers — or feeds the IR-backed translator, which installs
//!   denser code because fused pcs generate nothing.
//!
//! All engines share one semantic core (the `step` module), so they
//! compute identical results by construction — only their
//! architectural footprint differs, which is precisely the contrast
//! the paper studies.
//!
//! The crate also provides the VM substrates the paper's runtime
//! depends on: a garbage-collected [`heap`], deterministic green
//! [`thread`]s with a round-robin scheduler, lazy class
//! [`loader`]-style resolution with class-load trace emission,
//! native intrinsics (`Sys.print`, `Sys.arraycopy`, `Sys.spawn`,
//! `Sys.join`, …), pluggable monitor engines from `jrt-sync`, JIT
//! compilation [`policy`](JitPolicy) selection including the paper's
//! *opt* oracle, and memory-footprint accounting for Table 1.
//!
//! # Examples
//!
//! ```
//! use jrt_bytecode::{ClassAsm, MethodAsm, Program, RetKind};
//! use jrt_trace::CountingSink;
//! use jrt_vm::{ExecMode, Vm, VmConfig};
//!
//! let mut c = ClassAsm::new("Main");
//! let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
//! m.iconst(21).iconst(2).imul().ireturn();
//! c.add_method(m);
//! let program = Program::build(vec![c], "Main", "main")?;
//!
//! let mut sink = CountingSink::new();
//! let result = Vm::new(&program, VmConfig::interpreter()).run(&mut sink)?;
//! assert_eq!(result.exit_value, Some(42));
//! assert!(sink.total() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod config;
mod emit;
mod gc;
pub mod heap;
mod intrinsics;
mod jit;
pub mod loader;
mod step;
pub mod thread;
mod vm;

pub use config::{
    CacheScope, CodeCacheConfig, EvictionPolicy, ExecMode, GcConfig, JitPolicy, OracleDecisions,
    SyncKind, VmConfig,
};
pub use heap::{GenStats, Handle, Heap, HeapError, Value};
pub use jrt_codecache::{CodeCacheStats, MethodProfile, ProfileTable};
pub use vm::{Footprint, Observables, ObservedRun, Output, RunResult, Vm, VmCounters, VmError};

//! Pre-decoded methods: the flat, pc-indexed op array the step loop
//! executes.
//!
//! Each method is decoded once per VM, lazily, at its first
//! invocation (thread starts and invokes share that point), into one
//! [`Inst`] per bytecode offset. Interpreted, translated and IR frames
//! all read the same array, and the translators walk it instead of
//! decoding the bytecode again. Constant-pool references are
//! resolved as far as the program alone allows: class and method
//! names become ids, and each field, static and invoke site gets a
//! slot in a per-method side table that caches what only execution
//! can resolve — the field slot or vtable target of the last receiver
//! class, a static's owner and address once its class is loaded.
//! Stepping therefore never decodes, allocates or hashes a name.

use crate::intrinsics::Intrinsic;
use crate::jit::{gen_insts, CallSite};
use jrt_bytecode::{ArrayKind, ClassId, Cond, ConstPool, CpIndex, MethodId, Op, Program, RetKind};
use jrt_ir::{IrMethod, PcPlan};
use jrt_trace::Addr;

/// An [`Op`] with its operands resolved for execution. Pool-indexed
/// operands become indices into the owning [`Method`]'s site tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Xop {
    Nop,
    IConst(i32),
    AConstNull,
    ILoad(u8),
    IStore(u8),
    ALoad(u8),
    AStore(u8),
    Pop,
    Dup,
    DupX1,
    Swap,
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    INeg,
    IShl,
    IShr,
    IUshr,
    IAnd,
    IOr,
    IXor,
    IInc(u8, i16),
    If(Cond, u32),
    IfICmp(Cond, u32),
    IfNull(u32),
    IfNonNull(u32),
    IfACmpEq(u32),
    IfACmpNe(u32),
    Goto(u32),
    /// Index into [`Method::switches`].
    TableSwitch(u32),
    New(ClassId),
    /// Index into [`Method::fields`].
    GetField(u32),
    PutField(u32),
    /// Index into [`Method::statics`].
    GetStatic(u32),
    PutStatic(u32),
    NewArray(ArrayKind),
    ArrayLength,
    ArrLoad(ArrayKind),
    ArrStore(ArrayKind),
    /// Index into [`Method::invokes`].
    InvokeStatic(u32),
    InvokeVirtual(u32),
    InvokeSpecial(u32),
    Return,
    IReturn,
    AReturn,
    MonitorEnter,
    MonitorExit,
    /// An offset inside an instruction. Verified control flow never
    /// lands here.
    Inside,
}

impl Xop {
    /// The bytecode target of a conditional branch or `goto`.
    pub fn branch_target(self) -> Option<u32> {
        match self {
            Xop::If(_, t)
            | Xop::IfICmp(_, t)
            | Xop::IfNull(t)
            | Xop::IfNonNull(t)
            | Xop::IfACmpEq(t)
            | Xop::IfACmpNe(t)
            | Xop::Goto(t) => Some(t),
            _ => None,
        }
    }
}

/// One pc of a decoded method.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inst {
    /// The resolved operation.
    pub op: Xop,
    /// The opcode byte ([`Op::dispatch_index`]).
    pub opcode: u8,
    /// Encoded length in bytes.
    pub len: u32,
    /// Native instructions the baseline translator generates for it.
    pub gen: u32,
    /// The register-IR lowering's plan for this pc (IR modes only).
    pub plan: PcPlan,
    /// IR handler slot: the IR opcode dispatched here, or the stack
    /// opcode for pcs with no IR instruction of their own.
    pub ir_slot: u8,
}

impl Inst {
    const INSIDE: Inst = Inst {
        op: Xop::Inside,
        opcode: 0,
        len: 0,
        gen: 0,
        plan: PcPlan::Elided,
        ir_slot: 0,
    };

    /// picoJava-foldable: constants, local moves, stack shuffles and
    /// ALU operations.
    pub fn is_foldable(&self) -> bool {
        matches!(
            self.op,
            Xop::Nop
                | Xop::IConst(_)
                | Xop::AConstNull
                | Xop::ILoad(_)
                | Xop::IStore(_)
                | Xop::ALoad(_)
                | Xop::AStore(_)
                | Xop::Pop
                | Xop::Dup
                | Xop::DupX1
                | Xop::Swap
                | Xop::IAdd
                | Xop::ISub
                | Xop::IMul
                | Xop::IDiv
                | Xop::IRem
                | Xop::INeg
                | Xop::IShl
                | Xop::IShr
                | Xop::IUshr
                | Xop::IAnd
                | Xop::IOr
                | Xop::IXor
                | Xop::IInc(_, _)
        )
    }
}

/// A `tableswitch` operand block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Switch {
    pub low: i32,
    pub default: u32,
    /// Span of the targets in [`Method::switch_targets`].
    pub start: u32,
    pub count: u32,
}

/// A `getfield`/`putfield` site: the slot depends on the receiver's
/// runtime class, so the site caches the last class it saw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldSite {
    pub cp: CpIndex,
    pub cache: Option<(ClassId, usize)>,
}

/// A `getstatic`/`putstatic` site, resolved at its first execution
/// (after its class is loaded) to the owner, slot and address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StaticSite {
    pub class: ClassId,
    pub cp: CpIndex,
    pub resolved: Option<(ClassId, usize, Addr)>,
}

/// An invoke site.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InvokeSite {
    pub cp: CpIndex,
    /// The class named by the reference (loaded before the call).
    pub declared: ClassId,
    pub nargs: u8,
    pub ret: RetKind,
    /// Resolution by names up the declared class's chain: the target
    /// of static and special sites, the fallback of virtual ones.
    pub resolved: Option<MethodId>,
    /// The intrinsic registered under the reference's names.
    pub intrinsic: Option<Intrinsic>,
    /// Last receiver class and its vtable target (virtual sites).
    pub cache: Option<(ClassId, MethodId)>,
    /// Receiver profile translated code uses to devirtualize.
    pub profile: CallSite,
}

/// A decoded method.
#[derive(Debug)]
pub(crate) struct Method {
    /// One entry per bytecode offset; offsets inside an instruction
    /// hold [`Xop::Inside`].
    pub insts: Vec<Inst>,
    /// Instruction-start offsets, in order.
    pub boundaries: Vec<u32>,
    pub switches: Vec<Switch>,
    pub switch_targets: Vec<u32>,
    pub fields: Vec<FieldSite>,
    pub statics: Vec<StaticSite>,
    pub invokes: Vec<InvokeSite>,
    /// Simulated base of the method's packed IR words, once lowered.
    pub ir_base: Addr,
    /// Whether [`Method::attach_ir`] ran.
    pub lowered: bool,
}

fn index(len: usize) -> u32 {
    u32::try_from(len).expect("site table fits u32")
}

impl Method {
    /// Resolves one decoded op against the program. Verification
    /// (`Program::link`) guarantees every pool reference resolves.
    fn resolve(&mut self, program: &Program, pool: &ConstPool, op: &Op) -> Xop {
        let class = |name: &str| program.class(name).expect("verified class reference");
        let field = |cp: CpIndex| pool.field_ref(cp).expect("verified field reference");
        match *op {
            Op::Nop => Xop::Nop,
            Op::IConst(v) => Xop::IConst(v),
            Op::AConstNull => Xop::AConstNull,
            Op::ILoad(n) => Xop::ILoad(n),
            Op::IStore(n) => Xop::IStore(n),
            Op::ALoad(n) => Xop::ALoad(n),
            Op::AStore(n) => Xop::AStore(n),
            Op::Pop => Xop::Pop,
            Op::Dup => Xop::Dup,
            Op::DupX1 => Xop::DupX1,
            Op::Swap => Xop::Swap,
            Op::IAdd => Xop::IAdd,
            Op::ISub => Xop::ISub,
            Op::IMul => Xop::IMul,
            Op::IDiv => Xop::IDiv,
            Op::IRem => Xop::IRem,
            Op::INeg => Xop::INeg,
            Op::IShl => Xop::IShl,
            Op::IShr => Xop::IShr,
            Op::IUshr => Xop::IUshr,
            Op::IAnd => Xop::IAnd,
            Op::IOr => Xop::IOr,
            Op::IXor => Xop::IXor,
            Op::IInc(n, d) => Xop::IInc(n, d),
            Op::If(c, t) => Xop::If(c, t),
            Op::IfICmp(c, t) => Xop::IfICmp(c, t),
            Op::IfNull(t) => Xop::IfNull(t),
            Op::IfNonNull(t) => Xop::IfNonNull(t),
            Op::IfACmpEq(t) => Xop::IfACmpEq(t),
            Op::IfACmpNe(t) => Xop::IfACmpNe(t),
            Op::Goto(t) => Xop::Goto(t),
            Op::TableSwitch {
                low,
                default,
                ref targets,
            } => {
                self.switches.push(Switch {
                    low,
                    default,
                    start: index(self.switch_targets.len()),
                    count: index(targets.len()),
                });
                self.switch_targets.extend_from_slice(targets);
                Xop::TableSwitch(index(self.switches.len() - 1))
            }
            Op::New(cp) => Xop::New(class(pool.class_ref(cp).expect("verified class reference"))),
            Op::GetField(cp) | Op::PutField(cp) => {
                field(cp);
                self.fields.push(FieldSite { cp, cache: None });
                let site = index(self.fields.len() - 1);
                if matches!(op, Op::GetField(_)) {
                    Xop::GetField(site)
                } else {
                    Xop::PutField(site)
                }
            }
            Op::GetStatic(cp) | Op::PutStatic(cp) => {
                self.statics.push(StaticSite {
                    class: class(field(cp).0),
                    cp,
                    resolved: None,
                });
                let site = index(self.statics.len() - 1);
                if matches!(op, Op::GetStatic(_)) {
                    Xop::GetStatic(site)
                } else {
                    Xop::PutStatic(site)
                }
            }
            Op::InvokeStatic(cp) | Op::InvokeVirtual(cp) | Op::InvokeSpecial(cp) => {
                let (cname, mname, nargs, ret) =
                    pool.method_ref(cp).expect("verified method reference");
                self.invokes.push(InvokeSite {
                    cp,
                    declared: class(cname),
                    nargs,
                    ret,
                    resolved: program.resolve_method(cname, mname),
                    intrinsic: Intrinsic::lookup(cname, mname),
                    cache: None,
                    profile: CallSite::Unseen,
                });
                let site = index(self.invokes.len() - 1);
                match op {
                    Op::InvokeStatic(_) => Xop::InvokeStatic(site),
                    Op::InvokeVirtual(_) => Xop::InvokeVirtual(site),
                    _ => Xop::InvokeSpecial(site),
                }
            }
            Op::NewArray(k) => Xop::NewArray(k),
            Op::ArrayLength => Xop::ArrayLength,
            Op::ArrLoad(k) => Xop::ArrLoad(k),
            Op::ArrStore(k) => Xop::ArrStore(k),
            Op::Return => Xop::Return,
            Op::IReturn => Xop::IReturn,
            Op::AReturn => Xop::AReturn,
            Op::MonitorEnter => Xop::MonitorEnter,
            Op::MonitorExit => Xop::MonitorExit,
        }
    }

    /// Records the register-IR lowering of this method: the per-pc
    /// plan, the handler slot each pc runs in, and the IR words' base.
    pub fn attach_ir(&mut self, ir: &IrMethod, base: Addr) {
        for &pc in &self.boundaries {
            let inst = &mut self.insts[pc as usize];
            inst.plan = ir.plan_at(pc);
            inst.ir_slot = ir.inst_at(pc).map_or(inst.opcode, |i| i.opcode());
        }
        self.ir_base = base;
        self.lowered = true;
    }

    /// The decoded instructions in code order, with their offsets.
    pub fn ops(&self) -> impl Iterator<Item = (u32, &Inst)> + '_ {
        self.boundaries
            .iter()
            .map(|&pc| (pc, &self.insts[pc as usize]))
    }
}

/// Decodes and resolves method `mid` of `program`.
pub(crate) fn decode(program: &Program, mid: MethodId) -> Method {
    let code = &program.method_def(mid).code;
    let pool = &program.class_file(mid.class).pool;
    let mut m = Method {
        insts: vec![Inst::INSIDE; code.len()],
        boundaries: Vec::new(),
        switches: Vec::new(),
        switch_targets: Vec::new(),
        fields: Vec::new(),
        statics: Vec::new(),
        invokes: Vec::new(),
        ir_base: 0,
        lowered: false,
    };
    let mut pc = 0usize;
    while pc < code.len() {
        let (op, len) = Op::decode(code, pc).expect("verified code decodes");
        m.insts[pc] = Inst {
            op: m.resolve(program, pool, &op),
            opcode: op.dispatch_index(),
            len: len as u32,
            gen: gen_insts(&op),
            plan: PcPlan::Elided,
            ir_slot: 0,
        };
        m.boundaries.push(pc as u32);
        pc += len;
    }
    m
}

/// Every method of one program that has been invoked, decoded, in
/// `[class][method]` order.
#[derive(Debug)]
pub(crate) struct CodeTable {
    methods: Vec<Vec<Option<Method>>>,
}

impl CodeTable {
    /// An empty table for a program with `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        CodeTable {
            methods: (0..num_classes).map(|_| Vec::new()).collect(),
        }
    }

    /// The decoded method `mid`.
    ///
    /// # Panics
    ///
    /// Panics if `mid` was never passed to [`CodeTable::ensure`] (the
    /// VM decodes every method before pushing a frame for it).
    #[inline]
    pub fn get(&self, mid: MethodId) -> &Method {
        self.methods[mid.class.0 as usize][mid.index as usize]
            .as_ref()
            .expect("method decoded at invocation")
    }

    /// The decoded method `mid`, mutably (site caches).
    #[inline]
    pub fn get_mut(&mut self, mid: MethodId) -> &mut Method {
        self.methods[mid.class.0 as usize][mid.index as usize]
            .as_mut()
            .expect("method decoded at invocation")
    }

    /// Decodes `mid` unless it already is, and returns it.
    pub fn ensure(&mut self, program: &Program, mid: MethodId) -> &mut Method {
        let class = &mut self.methods[mid.class.0 as usize];
        let i = mid.index as usize;
        if class.len() <= i {
            class.resize_with(i + 1, || None);
        }
        class[i].get_or_insert_with(|| decode(program, mid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::{ClassAsm, MethodAsm};

    fn program() -> Program {
        let mut c = ClassAsm::new("Main");
        c.add_static_field("s");
        let mut m = MethodAsm::new("main", 0).returns(RetKind::Int);
        let top = m.new_label();
        m.iconst(3).istore(0);
        m.bind(top);
        m.iinc(0, -1).iload(0).if_ne(top);
        m.getstatic("Main", "s").pop();
        m.iload(0).ireturn();
        c.add_method(m);
        Program::build(vec![c], "Main", "main").unwrap()
    }

    #[test]
    fn every_instruction_decodes_once_at_its_offset() {
        let p = program();
        let m = decode(&p, p.entry());
        let code = &p.method_def(p.entry()).code;
        assert_eq!(m.insts.len(), code.len());
        for (pc, inst) in m.ops() {
            let (op, len) = Op::decode(code, pc as usize).unwrap();
            assert_eq!(inst.opcode, op.dispatch_index());
            assert_eq!(inst.len as usize, len);
            assert_ne!(inst.op, Xop::Inside);
        }
        // Offsets inside an instruction hold no op.
        let (first, inst) = m.ops().next().unwrap();
        assert!(inst.len > 1);
        assert_eq!(m.insts[first as usize + 1].op, Xop::Inside);
        assert_eq!(m.statics.len(), 1);
        assert_eq!(m.statics[0].class, p.class("Main").unwrap());
    }

    #[test]
    fn table_decodes_lazily_and_once() {
        let p = program();
        let mut t = CodeTable::new(p.num_classes());
        let mid = p.entry();
        // A second `ensure` returns the first decoding, site caches and
        // all, rather than decoding again.
        t.ensure(&p, mid).statics[0].resolved = Some((mid.class, 0, 0x40));
        assert_eq!(
            t.ensure(&p, mid).statics[0].resolved,
            Some((mid.class, 0, 0x40))
        );
    }
}

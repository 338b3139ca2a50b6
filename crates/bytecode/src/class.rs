//! Class file format and whole-program container.

use crate::asm::ClassAsm;
use crate::error::BytecodeError;
use crate::pool::{ConstPool, RetKind};
use crate::verify;
use std::collections::HashMap;
use std::fmt;

/// Index of a class within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifies a method as (class, method-slot-in-class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId {
    /// The declaring class.
    pub class: ClassId,
    /// Index into the class's method list.
    pub index: u32,
}

impl MethodId {
    /// The id packed into one integer, for per-method tables that hash
    /// it once with an id hasher. [`MethodId::from_key`] inverts it.
    pub const fn key(self) -> u64 {
        ((self.class.0 as u64) << 32) | self.index as u64
    }

    /// The id that [`MethodId::key`] packed into `key`.
    pub const fn from_key(key: u64) -> MethodId {
        MethodId {
            class: ClassId((key >> 32) as u32),
            index: key as u32,
        }
    }
}

/// An instance or static field declaration. All fields occupy one
/// 4-byte slot (ints and references), matching the 32-bit SPARC era
/// the paper targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, unique within the class (including superclasses).
    pub name: String,
    /// Whether the field is static (class-level).
    pub is_static: bool,
}

/// Method modifier flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodFlags {
    /// Static methods receive no `this`.
    pub is_static: bool,
    /// Synchronized methods acquire the receiver's (or class's)
    /// monitor around the body.
    pub is_synchronized: bool,
    /// Native methods dispatch to a VM intrinsic instead of bytecode.
    pub is_native: bool,
}

/// A method definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    /// Method name (no overloading: unique per class per name).
    pub name: String,
    /// Declared argument count, excluding `this`.
    pub nargs: u8,
    /// Return kind.
    pub ret: RetKind,
    /// Frame size in local slots (arguments included).
    pub max_locals: u16,
    /// Operand stack high-water mark, computed by the verifier.
    pub max_stack: u16,
    /// Encoded bytecode.
    pub code: Vec<u8>,
    /// Modifier flags.
    pub flags: MethodFlags,
}

impl MethodDef {
    /// Total argument slots including `this` for instance methods.
    pub fn arg_slots(&self) -> u16 {
        u16::from(self.nargs) + u16::from(!self.flags.is_static)
    }
}

/// A verified class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassFile {
    /// Class name, unique within the program.
    pub name: String,
    /// Superclass name, if any (single inheritance).
    pub super_name: Option<String>,
    /// Instance and static fields declared by this class.
    pub fields: Vec<FieldDef>,
    /// Methods declared by this class.
    pub methods: Vec<MethodDef>,
    /// The class's constant pool.
    pub pool: ConstPool,
}

impl ClassFile {
    /// Finds a declared method by name.
    pub fn method(&self, name: &str) -> Option<(u32, &MethodDef)> {
        self.methods
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
            .map(|(i, m)| (i as u32, m))
    }

    /// Total bytecode bytes across all methods.
    pub fn code_size(&self) -> u32 {
        self.methods.iter().map(|m| m.code.len() as u32).sum()
    }
}

/// A verified, closed set of classes with a designated entry point.
#[derive(Debug, Clone)]
pub struct Program {
    classes: Vec<ClassFile>,
    by_name: HashMap<String, ClassId>,
    entry: MethodId,
}

impl Program {
    /// Assembles, links, and verifies a program.
    ///
    /// # Errors
    ///
    /// Returns an error if a class is duplicated, the entry point is
    /// missing, a referenced class/field/method does not resolve, or
    /// any method fails bytecode verification.
    pub fn build(
        classes: Vec<ClassAsm>,
        entry_class: &str,
        entry_method: &str,
    ) -> Result<Program, BytecodeError> {
        let classes: Vec<ClassFile> = classes.into_iter().map(ClassAsm::finish).collect();
        Self::link(classes, entry_class, entry_method)
    }

    /// Links and verifies already-assembled classes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::build`].
    pub fn link(
        mut classes: Vec<ClassFile>,
        entry_class: &str,
        entry_method: &str,
    ) -> Result<Program, BytecodeError> {
        // Per-method verification; fills in max_stack.
        for class in &mut classes {
            let pool = class.pool.clone();
            for m in &mut class.methods {
                m.max_stack = verify::verify_method(m, &pool)?;
            }
        }

        let mut by_name = HashMap::new();
        for (i, c) in classes.iter().enumerate() {
            if by_name.insert(c.name.clone(), ClassId(i as u32)).is_some() {
                return Err(BytecodeError::DuplicateClass(c.name.clone()));
            }
        }
        let entry_cid = *by_name
            .get(entry_class)
            .ok_or_else(|| BytecodeError::Unresolved(format!("entry class {entry_class}")))?;
        let (entry_idx, entry_def) = classes[entry_cid.0 as usize]
            .method(entry_method)
            .ok_or_else(|| {
                BytecodeError::Unresolved(format!("entry method {entry_class}::{entry_method}"))
            })?;
        if !entry_def.flags.is_static {
            return Err(BytecodeError::Unresolved(format!(
                "entry method {entry_class}::{entry_method} must be static"
            )));
        }
        let program = Program {
            classes,
            by_name,
            entry: MethodId {
                class: entry_cid,
                index: entry_idx,
            },
        };
        verify::check_resolution(&program)?;
        Ok(program)
    }

    /// The program's entry point.
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this program.
    pub fn class_file(&self, id: ClassId) -> &ClassFile {
        &self.classes[id.0 as usize]
    }

    /// The method with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this program.
    pub fn method_def(&self, id: MethodId) -> &MethodDef {
        &self.classes[id.class.0 as usize].methods[id.index as usize]
    }

    /// All classes, in definition order.
    pub fn classes(&self) -> &[ClassFile] {
        &self.classes
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Resolves a method by names, searching the superclass chain
    /// upward from `class` (used for virtual dispatch tables).
    pub fn resolve_method(&self, class: &str, method: &str) -> Option<MethodId> {
        let mut cur = self.class(class)?;
        loop {
            let cf = self.class_file(cur);
            if let Some((idx, _)) = cf.method(method) {
                return Some(MethodId {
                    class: cur,
                    index: idx,
                });
            }
            match &cf.super_name {
                Some(s) => cur = self.class(s)?,
                None => return None,
            }
        }
    }

    /// The superclass chain of `id`, from the class itself up to the
    /// root.
    pub fn ancestry(&self, id: ClassId) -> Vec<ClassId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(s) = &self.class_file(cur).super_name {
            match self.class(s) {
                Some(next) => {
                    chain.push(next);
                    cur = next;
                }
                None => break,
            }
        }
        chain
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program: {} classes", self.classes.len())?;
        for c in &self.classes {
            writeln!(
                f,
                "  class {} ({} methods, {} bytes of code)",
                c.name,
                c.methods.len(),
                c.code_size()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{ClassAsm, MethodAsm};

    fn trivial_program() -> Program {
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0);
        m.ret();
        c.add_method(m);
        Program::build(vec![c], "Main", "main").expect("valid program")
    }

    #[test]
    fn build_and_lookup() {
        let p = trivial_program();
        assert_eq!(p.num_classes(), 1);
        let cid = p.class("Main").unwrap();
        assert_eq!(p.class_file(cid).name, "Main");
        let entry = p.entry();
        assert_eq!(p.method_def(entry).name, "main");
    }

    #[test]
    fn missing_entry_rejected() {
        let mut c = ClassAsm::new("Main");
        let mut m = MethodAsm::new("main", 0);
        m.ret();
        c.add_method(m);
        assert!(Program::build(vec![c], "Main", "nope").is_err());
    }

    #[test]
    fn duplicate_class_rejected() {
        let mk = || {
            let mut c = ClassAsm::new("Main");
            let mut m = MethodAsm::new("main", 0);
            m.ret();
            c.add_method(m);
            c
        };
        assert!(matches!(
            Program::build(vec![mk(), mk()], "Main", "main"),
            Err(BytecodeError::DuplicateClass(_))
        ));
    }

    #[test]
    fn resolve_through_superclass() {
        let mut base = ClassAsm::new("Base");
        let mut m = MethodAsm::new_instance("greet", 0);
        m.ret();
        base.add_method(m);

        let mut main = ClassAsm::new("Main");
        let mut entry = MethodAsm::new("main", 0);
        entry.ret();
        main.add_method(entry);

        let derived = ClassAsm::with_super("Derived", "Base");

        let p = Program::build(vec![base, main, derived], "Main", "main").unwrap();
        let mid = p.resolve_method("Derived", "greet").expect("inherited");
        assert_eq!(mid.class, p.class("Base").unwrap());
        let chain = p.ancestry(p.class("Derived").unwrap());
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn method_key_round_trips_and_is_injective() {
        let ids = [(0, 0), (0, 1), (1, 0), (7, 3), (u32::MAX, u32::MAX)].map(|(c, i)| MethodId {
            class: ClassId(c),
            index: i,
        });
        for a in ids {
            assert_eq!(MethodId::from_key(a.key()), a);
            for b in ids {
                assert_eq!(a.key() == b.key(), a == b);
            }
        }
    }
}

//! Points-to classes and whole-module effect bits.
//!
//! The equivalence checker ([`crate::equiv`]), the abstract interpreter
//! ([`crate::absint`]) and the lint layer need answers to two questions
//! the verifier cannot give:
//!
//! * **Where may this address point?** Every register gets a *points-to
//!   class* ([`PtClass`]): derived from a specific global, derived from a
//!   specific incoming parameter, a known non-address integer, or unknown.
//!   The classes form a tiny join lattice and are computed flow-insensitively
//!   (a register's class covers every definition it may hold).
//! * **What can calling this function do?** [`ModuleEffects`] keeps two
//!   bits per function: *store-free* (no store is reachable through the
//!   call graph) and *observably pure* (no store, metric report or `wait`
//!   is reachable). The checker needs only the first, to decide whether a
//!   call clobbers its store buffer; the lint pass needs the second. Both
//!   depend only on which instructions are reachable, not on how addresses
//!   were classified, so they are exact rather than approximations.
//!
//! Precision note: the class lattice treats "not an address" as the bottom
//! element, so a register that mixes integer and pointer definitions keeps
//! the pointer class. Its consumers are advisory (lint) or re-check the
//! class flow-sensitively (absint).

use std::fmt;

use crate::ids::{FuncId, GlobalId, Reg};
use crate::inst::{BinOp, Inst};
use crate::module::{Function, Module};

// ---------------------------------------------------------------------------
// Points-to classes
// ---------------------------------------------------------------------------

/// Abstract provenance of a register value, for alias reasoning.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PtClass {
    /// Known to be an ordinary integer (or still zero-initialized) on every
    /// definition seen so far. Bottom of the lattice.
    NotAddr,
    /// Derived (by `GlobalAddr` plus integer arithmetic) from one specific
    /// global's base address.
    Global(GlobalId),
    /// Derived from the value of one specific incoming parameter.
    Param(u32),
    /// Could point anywhere. Top of the lattice.
    Unknown,
}

impl PtClass {
    /// Lattice join: `NotAddr` is bottom, `Unknown` is top, distinct
    /// address classes join to `Unknown`.
    pub fn join(self, other: PtClass) -> PtClass {
        match (self, other) {
            (PtClass::NotAddr, x) | (x, PtClass::NotAddr) => x,
            (a, b) if a == b => a,
            _ => PtClass::Unknown,
        }
    }

    /// True if the class describes a potential address (anything above
    /// bottom).
    pub fn is_address(self) -> bool {
        !matches!(self, PtClass::NotAddr)
    }
}

impl fmt::Display for PtClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtClass::NotAddr => write!(f, "int"),
            PtClass::Global(g) => write!(f, "&{g}"),
            PtClass::Param(p) => write!(f, "*p{p}"),
            PtClass::Unknown => write!(f, "?"),
        }
    }
}

/// Computes the points-to class of every register in `func`,
/// flow-insensitively (one class per register, joined over all
/// definitions). Parameters seed as [`PtClass::Param`]; everything else
/// starts at bottom.
pub fn reg_classes(func: &Function) -> Vec<PtClass> {
    // Size the table from both the declared register count and the highest
    // register actually mentioned, so unverified functions don't panic.
    let mut n = func.reg_count().max(func.params()) as usize;
    for block in func.blocks() {
        let mut bump = |r: Reg| n = n.max(r.index() + 1);
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                bump(d);
            }
            inst.for_each_use(&mut bump);
        }
        block.term.for_each_use(&mut bump);
    }
    let mut cls = vec![PtClass::NotAddr; n];
    for (p, c) in cls.iter_mut().enumerate().take(func.params() as usize) {
        *c = PtClass::Param(p as u32);
    }
    loop {
        let mut changed = false;
        for block in func.blocks() {
            for inst in &block.insts {
                let derived = match inst {
                    Inst::Const { dst, .. } => Some((*dst, PtClass::NotAddr)),
                    Inst::GlobalAddr { dst, global } => Some((*dst, PtClass::Global(*global))),
                    Inst::Bin { op, dst, lhs, rhs } => {
                        let (a, b) = (cls[lhs.index()], cls[rhs.index()]);
                        let c = match op {
                            // Pointer ± integer keeps the pointer's class;
                            // anything mixing two addresses loses track.
                            BinOp::Add => match (a.is_address(), b.is_address()) {
                                (false, false) => PtClass::NotAddr,
                                (true, false) => a,
                                (false, true) => b,
                                (true, true) => PtClass::Unknown,
                            },
                            BinOp::Sub => match (a.is_address(), b.is_address()) {
                                (false, false) => PtClass::NotAddr,
                                (true, false) => a,
                                _ => PtClass::Unknown,
                            },
                            // Any other arithmetic yields an integer: a
                            // scaled or masked pointer is an offset, not a
                            // pointer.
                            _ => PtClass::NotAddr,
                        };
                        Some((*dst, c))
                    }
                    Inst::BinImm { op, dst, lhs, .. } => {
                        let a = cls[lhs.index()];
                        let c = match op {
                            BinOp::Add | BinOp::Sub => a,
                            _ => PtClass::NotAddr,
                        };
                        Some((*dst, c))
                    }
                    // Loaded values and call results may be stored pointers.
                    Inst::Load { dst, .. } => Some((*dst, PtClass::Unknown)),
                    Inst::Call { dst: Some(d), .. } => Some((*d, PtClass::Unknown)),
                    _ => None,
                };
                if let Some((d, c)) = derived {
                    let j = cls[d.index()].join(c);
                    if j != cls[d.index()] {
                        cls[d.index()] = j;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return cls;
        }
    }
}

// ---------------------------------------------------------------------------
// Effect bits
// ---------------------------------------------------------------------------

/// Whole-module effect bits: per function, whether anything it may
/// execute (itself or a transitive callee) stores, and whether anything
/// it may execute stores, publishes a metric, or parks in `wait`.
#[derive(Clone, Debug)]
pub struct ModuleEffects {
    store_free: Vec<bool>,
    pure: Vec<bool>,
}

impl ModuleEffects {
    /// Computes both bits for every function of `module` as a greatest
    /// fixpoint over the call graph: a bit starts set wherever the body
    /// itself has no offending instruction, and is cleared while any
    /// callee's bit is clear. Recursion therefore keeps a bit exactly when
    /// no offending instruction is reachable through the cycle. A callee
    /// outside the module clears both bits.
    pub fn analyze(module: &Module) -> ModuleEffects {
        let funcs = module.functions();
        let mut store_free = vec![true; funcs.len()];
        let mut pure = vec![true; funcs.len()];
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); funcs.len()];
        for (fi, func) in funcs.iter().enumerate() {
            for inst in func.blocks().iter().flat_map(|b| &b.insts) {
                match inst {
                    Inst::Store { .. } => {
                        store_free[fi] = false;
                        pure[fi] = false;
                    }
                    Inst::Report { .. } | Inst::Wait => pure[fi] = false,
                    Inst::Call { callee, .. } => callees[fi].push(callee.index()),
                    _ => {}
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (fi, cs) in callees.iter().enumerate() {
                for &c in cs {
                    let (c_store_free, c_pure) = match store_free.get(c) {
                        Some(&s) => (s, pure[c]),
                        None => (false, false),
                    };
                    if store_free[fi] && !c_store_free {
                        store_free[fi] = false;
                        changed = true;
                    }
                    if pure[fi] && !c_pure {
                        pure[fi] = false;
                        changed = true;
                    }
                }
            }
        }
        ModuleEffects { store_free, pure }
    }

    /// True if `func` (transitively) executes no store at all.
    pub fn writes_nothing(&self, func: FuncId) -> bool {
        self.store_free[func.index()]
    }

    /// True if calling `func` is invisible to memory, the OS, and the
    /// application-metric channels (it may still read memory and warm
    /// caches).
    pub fn observably_pure(&self, func: FuncId) -> bool {
        self.pure[func.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Locality;

    #[test]
    fn classes_track_global_and_param_derivations() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 256);
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let base = b.global_addr(g);
        let off = b.shl_imm(p, 3);
        let a = b.add(base, off); // still &g: ptr + int
        let v = b.load(a, 0, Locality::Normal);
        let q = b.add_imm(p, 8); // still *p0
        let w = b.load(q, 0, Locality::Normal);
        let x = b.add(v, w);
        b.ret(Some(x));
        let f = b.finish();
        let cls = reg_classes(&f);
        assert_eq!(cls[p.index()], PtClass::Param(0));
        assert_eq!(cls[base.index()], PtClass::Global(g));
        assert_eq!(cls[a.index()], PtClass::Global(g));
        assert_eq!(cls[q.index()], PtClass::Param(0));
        // Loaded values could be anything.
        assert_eq!(cls[v.index()], PtClass::Unknown);
        assert_eq!(cls[off.index()], PtClass::NotAddr);
    }

    #[test]
    fn observable_purity_and_flags() {
        let mut m = Module::new("m");
        let mut pure = FunctionBuilder::new("pure", 1);
        let p = pure.param(0);
        let d = pure.mul_imm(p, 3);
        pure.ret(Some(d));
        let pure_id = m.add_function(pure.finish());
        let mut noisy = FunctionBuilder::new("noisy", 0);
        let c = noisy.const_(1);
        noisy.report(0, c);
        noisy.call_void(pure_id, &[c]);
        noisy.ret(None);
        let noisy_id = m.add_function(noisy.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(me.observably_pure(pure_id));
        assert!(me.writes_nothing(noisy_id));
        assert!(!me.observably_pure(noisy_id), "reports are observable");
    }

    #[test]
    fn recursion_converges() {
        let mut m = Module::new("m");
        // f(p0) calls itself; has a store through a global.
        let g = m.add_global("acc", 8);
        let mut f = FunctionBuilder::new("rec", 1);
        let p = f.param(0);
        let base = f.global_addr(g);
        f.store(base, 0, p);
        let _ = f.call(crate::FuncId(0), &[p]);
        f.ret(None);
        let fid = m.add_function(f.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(!me.writes_nothing(fid));
        assert!(!me.observably_pure(fid));
    }

    #[test]
    fn self_recursion_without_stores_is_store_free() {
        let mut m = Module::new("m");
        let mut f = FunctionBuilder::new("rec", 1);
        let p = f.param(0);
        let q = f.add_imm(p, -1);
        let _ = f.call(crate::FuncId(0), &[q]);
        f.ret(None);
        let fid = m.add_function(f.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(me.writes_nothing(fid), "the cycle reaches no store");
        assert!(me.observably_pure(fid));
    }

    #[test]
    fn a_store_in_a_mutually_recursive_pair_taints_both() {
        let mut m = Module::new("m");
        let g = m.add_global("acc", 8);
        // even() calls odd(); odd() stores and calls even().
        let mut even = FunctionBuilder::new("even", 0);
        even.call_void(crate::FuncId(1), &[]);
        even.ret(None);
        let even_id = m.add_function(even.finish());
        let mut odd = FunctionBuilder::new("odd", 0);
        let base = odd.global_addr(g);
        let z = odd.const_(0);
        odd.store(base, 0, z);
        odd.call_void(even_id, &[]);
        odd.ret(None);
        let odd_id = m.add_function(odd.finish());
        let me = ModuleEffects::analyze(&m);
        for fid in [even_id, odd_id] {
            assert!(!me.writes_nothing(fid), "{fid} reaches odd's store");
            assert!(!me.observably_pure(fid));
        }
    }

    #[test]
    fn calling_a_report_only_callee_is_store_free_but_not_pure() {
        let mut m = Module::new("m");
        let mut noisy = FunctionBuilder::new("noisy", 0);
        let c = noisy.const_(1);
        noisy.report(0, c);
        noisy.ret(None);
        let noisy_id = m.add_function(noisy.finish());
        let mut caller = FunctionBuilder::new("caller", 0);
        caller.call_void(noisy_id, &[]);
        caller.ret(None);
        let caller_id = m.add_function(caller.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(me.writes_nothing(caller_id));
        assert!(
            !me.observably_pure(caller_id),
            "the callee's report is observable"
        );
    }
}

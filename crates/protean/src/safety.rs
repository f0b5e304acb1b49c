//! Static safety gate for runtime-dispatched variants.
//!
//! Dispatching rewires every virtualized call edge of a live function
//! with one EVT write, so a bug in a variant producer becomes arbitrary
//! misbehavior in the host process the instant that write lands. Before
//! the EVT is patched, the runtime statically compares the variant's IR
//! against the baseline function recovered from the process image. A
//! legal protean variant differs from its baseline *only* in load
//! locality bits (Section IV-B's bit vectors M = ⟨M1 … MN⟩), which gives
//! the gate a precise contract to enforce. The gate is tiered,
//! cheapest-analysis-first:
//!
//! 1. the signature (parameter count) is unchanged,
//! 2. the variant still passes the [`pir::verify`] structural checks,
//! 3. the variant introduces no possibly-undefined register reads that
//!    the baseline did not have ([`pir::dataflow::maybe_undef_uses`]),
//! 4. the call-site sequence — the function's outgoing call graph,
//!    modulo which edges are virtualized — is unchanged, and
//! 5. every instruction and terminator is identical to the baseline's,
//!    except that loads may differ in their [`pir::Locality`] bit.
//!
//! [`check_variant`] enforces exactly this syntactic contract and a
//! rejection names the most specific property violated, not just
//! "bodies differ". [`vet_variant`] — the gate the runtime actually
//! dispatches through — upgrades the contract from "baseline body with
//! only locality bits changed" to **equivalence-proved modulo
//! non-temporal hints**: when the syntactic tier fails, the variant is
//! handed to the [`pir::equiv`] translation validator against the whole
//! recovered module, and only a [`Proved`](pir::equiv::Verdict::Proved)
//! verdict (any number of NT-hint flips) admits it. Everything else is
//! refused: [`VariantVerdict::Refuted`] carries the validator's concrete
//! diverging counterexample, [`VariantVerdict::Unproved`] the reason the
//! proof failed — the gate never dispatches on a mere absence of
//! evidence.
//!
//! The symbolic tier is backed by the [`pir::absint`] abstract
//! interpreter: interval and points-to facts bound symbolic addresses,
//! letting the validator discharge memory-disjointness obligations
//! (reordered or hoisted accesses to provably separate locations) that a
//! purely syntactic alias rule would leave `Unknown`. The runtime
//! surfaces that consultation as the `gate.absint_disjoint_facts`
//! counter and `absint-consult` trace events.

use std::fmt;

use pir::absint::OsrCertificate;
use pir::equiv::{self, EquivOptions, TransferRecipe, TransferVerdict};
use pir::{dataflow, verify, FuncId, Function, Inst, Module};

/// The safety gate's verdict on one candidate variant body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VariantVerdict {
    /// The variant may be dispatched.
    Safe {
        /// `true` if the variant changes non-temporal hints relative to
        /// the baseline (the paper's legal transformation space); `false`
        /// means the proof found the bodies behaviorally identical with
        /// the same hint assignment.
        modulo_nt: bool,
        /// `true` if the cheap syntactic tier ([`check_variant`])
        /// sufficed; `false` means a symbolic equivalence proof was
        /// required.
        syntactic: bool,
    },
    /// Equivalence could not be established — refused conservatively.
    Unproved {
        /// The syntactic difference and why the proof attempt failed.
        detail: String,
    },
    /// Proved *in*equivalent: the validator produced a concrete
    /// diverging execution.
    Refuted {
        /// The syntactic difference plus the counterexample.
        detail: String,
    },
}

impl VariantVerdict {
    /// Whether the variant may be dispatched.
    pub fn is_safe(&self) -> bool {
        matches!(self, VariantVerdict::Safe { .. })
    }

    /// The refusal reason, if any.
    pub fn detail(&self) -> Option<&str> {
        match self {
            VariantVerdict::Safe { .. } => None,
            VariantVerdict::Unproved { detail } | VariantVerdict::Refuted { detail } => {
                Some(detail)
            }
        }
    }
}

impl fmt::Display for VariantVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantVerdict::Safe {
                modulo_nt,
                syntactic,
            } => {
                let tier = if *syntactic {
                    "syntactic"
                } else {
                    "equivalence proved"
                };
                if *modulo_nt {
                    write!(f, "safe ({tier}, modulo non-temporal hints)")
                } else {
                    write!(f, "safe ({tier})")
                }
            }
            VariantVerdict::Unproved { detail } => write!(f, "unproved: {detail}"),
            VariantVerdict::Refuted { detail } => write!(f, "refuted: {detail}"),
        }
    }
}

/// Runs the full tiered gate on a candidate body for `func`.
///
/// The well-formedness tier (signature, structural verification, no new
/// possibly-undefined reads) must pass outright — malformed IR is
/// [`VariantVerdict::Unproved`] without any proof attempt. A variant that
/// passes the syntactic locality-only comparison is
/// [`VariantVerdict::Safe`] immediately (no symbolic work on the hot
/// dispatch path). Otherwise the variant is spliced into a copy of the
/// module and handed to [`pir::equiv::check_function_in`]; the verdict
/// maps `Proved` → `Safe`, `Refuted` → `Refuted`, `Unknown` → `Unproved`.
pub fn vet_variant(module: &Module, func: FuncId, variant: &Function) -> VariantVerdict {
    let baseline = module.function(func);
    let arities: Vec<u32> = module.functions().iter().map(|f| f.params()).collect();
    let globals = module.globals().len() as u32;
    if let Err(detail) = well_formed(baseline, variant, &arities, globals) {
        return VariantVerdict::Unproved { detail };
    }
    match syntactic_delta(baseline, variant) {
        Ok(()) => VariantVerdict::Safe {
            modulo_nt: hints_differ(baseline, variant),
            syntactic: true,
        },
        Err(syn_detail) => {
            let mut vmod = module.clone();
            vmod.functions_mut()[func.index()] = variant.clone();
            match equiv::check_function_in(module, &vmod, func, &EquivOptions::default()) {
                equiv::Verdict::Proved { nt_flips } => VariantVerdict::Safe {
                    modulo_nt: !matches!(nt_flips, Some(0)),
                    syntactic: false,
                },
                equiv::Verdict::Refuted(cex) => VariantVerdict::Refuted {
                    detail: format!("{syn_detail}; equivalence refuted: {cex}"),
                },
                equiv::Verdict::Unknown { reason } => VariantVerdict::Unproved {
                    detail: format!("{syn_detail}; equivalence not proved: {reason}"),
                },
            }
        }
    }
}

/// Per-function OSR transfer provability, as established by
/// [`vet_osr_transfers`]: for each certified loop header of the
/// function, whether a mid-loop switch from the running baseline into
/// the candidate variant carries a proved live-state recipe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OsrTransferSummary {
    /// Recipes proved valid for this baseline→variant pair, one per
    /// transferable header.
    pub recipes: Vec<TransferRecipe>,
    /// Headers whose candidate recipe was concretely refuted — the
    /// strongest possible evidence that switching there would corrupt
    /// the live state.
    pub refuted: usize,
    /// Headers where the prover could neither prove nor refute a
    /// transfer; the runtime must fall back to function-boundary
    /// dispatch for them.
    pub unproved: usize,
    /// Human-readable reasons for each refuted/unproved header.
    pub details: Vec<String>,
}

impl OsrTransferSummary {
    /// Headers with a proved transfer recipe.
    pub fn proved(&self) -> usize {
        self.recipes.len()
    }

    /// Total certified headers considered.
    pub fn total(&self) -> usize {
        self.recipes.len() + self.refuted + self.unproved
    }
}

/// Establishes, per certified loop header of `func`, whether execution
/// can switch from the running baseline into `variant` *mid-loop* under
/// a proved live-state transfer recipe (the cut-point simulation proof
/// in [`pir::equiv::validate_osr_transfer`]).
///
/// Tiered like [`vet_variant`]:
///
/// 1. If the variant is shape-identical to the baseline modulo load
///    locality bits, the compile-time self-transfer recipes embedded in
///    the annex apply verbatim — block ids and registers coincide, and
///    locality is semantically inert — so embedded recipes for the
///    function's headers are inherited without symbolic work.
/// 2. Otherwise the remaining certificates are handed to the prover in
///    one batch ([`pir::prove_osr_transfers`]) against the variant
///    spliced into a copy of the module; only [`TransferVerdict::Proved`]
///    yields a recipe.
///
/// Headers without a proved recipe are *not* an error: they only mean
/// the runtime must wait for a function-boundary dispatch there.
pub fn vet_osr_transfers(
    module: &Module,
    func: FuncId,
    variant: &Function,
    certs: &[OsrCertificate],
    embedded: &[TransferRecipe],
) -> OsrTransferSummary {
    let mut summary = OsrTransferSummary::default();
    let relevant: Vec<&OsrCertificate> = certs.iter().filter(|c| c.func == func).collect();
    if relevant.is_empty() {
        return summary;
    }
    let baseline = module.function(func);
    let shape_identical = same_modulo_locality(baseline, variant).is_ok();
    let inherit = |cert: &OsrCertificate| {
        embedded
            .iter()
            .find(|r| shape_identical && r.func == func && r.baseline_header == cert.header)
    };
    // Every header without an inherited recipe is proved in one batch
    // against the variant spliced into a copy of the module.
    let to_prove: Vec<OsrCertificate> = relevant
        .iter()
        .filter(|cert| inherit(cert).is_none())
        .map(|cert| (*cert).clone())
        .collect();
    let mut proved = if to_prove.is_empty() {
        Vec::new()
    } else {
        let mut vmod = module.clone();
        vmod.functions_mut()[func.index()] = variant.clone();
        pir::prove_osr_transfers(module, &vmod, &to_prove, &EquivOptions::default())
    }
    .into_iter();
    for cert in relevant {
        if let Some(recipe) = inherit(cert) {
            summary.recipes.push(recipe.clone());
            continue;
        }
        match proved.next().expect("one verdict per proved certificate") {
            TransferVerdict::Proved { recipe, .. } => summary.recipes.push(recipe),
            TransferVerdict::Refuted(cex) => {
                summary.refuted += 1;
                summary
                    .details
                    .push(format!("{}: refuted: {cex}", cert.header));
            }
            TransferVerdict::Unproved { reason } => {
                summary.unproved += 1;
                summary.details.push(format!("{}: {reason}", cert.header));
            }
        }
    }
    summary
}

/// `true` if any load's locality hint differs between the two bodies.
/// Only meaningful after [`syntactic_delta`] accepted the pair (shapes
/// are then identical).
fn hints_differ(baseline: &Function, variant: &Function) -> bool {
    baseline
        .blocks()
        .iter()
        .zip(variant.blocks())
        .any(|(bb, vb)| {
            bb.insts
                .iter()
                .zip(&vb.insts)
                .any(|(b, v)| b != v && loads_match(b, v))
        })
}

/// Checks that `variant` is a safe replacement for `baseline`.
///
/// `arities` and `globals` describe the surrounding module (callee
/// parameter counts, global count) exactly as
/// [`pir::verify::verify_function_in`] expects them.
///
/// # Errors
///
/// Returns a human-readable description of the first violated property.
pub fn check_variant(
    baseline: &Function,
    variant: &Function,
    arities: &[u32],
    globals: u32,
) -> Result<(), String> {
    well_formed(baseline, variant, arities, globals)?;
    syntactic_delta(baseline, variant)
}

/// The gate's well-formedness tier: signature, structural verification,
/// and no introduced possibly-undefined reads. A failure here means the
/// variant is not even a candidate for an equivalence proof.
fn well_formed(
    baseline: &Function,
    variant: &Function,
    arities: &[u32],
    globals: u32,
) -> Result<(), String> {
    if variant.params() != baseline.params() {
        return Err(format!(
            "signature changed: baseline takes {} parameter(s), variant takes {}",
            baseline.params(),
            variant.params()
        ));
    }
    if let Err(report) = verify::verify_function_in(variant, arities, globals) {
        return Err(format!("variant fails structural verification: {report}"));
    }
    if dataflow::maybe_undef_uses(baseline).is_empty() {
        if let Some(u) = dataflow::maybe_undef_uses(variant).first() {
            return Err(format!(
                "variant reads {} in {} without a prior assignment on every path; \
                 the baseline has no such read",
                u.reg, u.block
            ));
        }
    }
    Ok(())
}

/// The gate's syntactic tier: unchanged call-site sequence and bodies
/// identical modulo load locality bits.
fn syntactic_delta(baseline: &Function, variant: &Function) -> Result<(), String> {
    if call_sites(variant) != call_sites(baseline) {
        return Err(
            "call-site sequence changed: the variant's outgoing call graph \
                    does not match the baseline's"
                .to_string(),
        );
    }
    same_modulo_locality(baseline, variant)
}

/// The function's outgoing call edges in program order: `(callee, arity)`
/// per call site. Virtualization does not appear at the IR level, so this
/// is exactly "the call graph modulo virtualized edges".
fn call_sites(func: &Function) -> Vec<(FuncId, usize)> {
    let mut sites = Vec::new();
    for block in func.blocks() {
        for inst in &block.insts {
            if let Inst::Call { callee, args, .. } = inst {
                sites.push((*callee, args.len()));
            }
        }
    }
    sites
}

/// Two loads are interchangeable if they differ only in locality.
fn loads_match(a: &Inst, b: &Inst) -> bool {
    match (a, b) {
        (
            Inst::Load {
                dst: da,
                base: ba,
                offset: oa,
                ..
            },
            Inst::Load {
                dst: db,
                base: bb,
                offset: ob,
                ..
            },
        ) => da == db && ba == bb && oa == ob,
        _ => a == b,
    }
}

/// Checksum of a lowered code span, as recorded per variant at compile
/// time and re-verified against process text before every dispatch
/// ([`Runtime::dispatch`](crate::Runtime::dispatch)). A mismatch means
/// the code cache was corrupted after lowering; the dispatch is refused
/// and the self-healing layer restores + recompiles.
pub fn code_checksum(ops: &[visa::Op]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.hash(&mut h);
    h.finish()
}

fn same_modulo_locality(baseline: &Function, variant: &Function) -> Result<(), String> {
    if variant.block_count() != baseline.block_count() {
        return Err(format!(
            "block count changed: baseline has {}, variant has {}",
            baseline.block_count(),
            variant.block_count()
        ));
    }
    for (bi, (bb, vb)) in baseline.blocks().iter().zip(variant.blocks()).enumerate() {
        if vb.insts.len() != bb.insts.len() {
            return Err(format!(
                "bb{bi} changed length: baseline has {} instruction(s), variant has {}",
                bb.insts.len(),
                vb.insts.len()
            ));
        }
        for (ii, (binst, vinst)) in bb.insts.iter().zip(&vb.insts).enumerate() {
            if !loads_match(binst, vinst) {
                return Err(format!(
                    "bb{bi}[{ii}] differs from the baseline beyond a load locality bit"
                ));
            }
        }
        if vb.term != bb.term {
            return Err(format!("bb{bi}'s terminator differs from the baseline"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc::NtAssignment;

    #[test]
    fn code_checksum_detects_single_op_changes() {
        use visa::{Op, PReg};
        let ops = vec![
            Op::Movi {
                dst: PReg(0),
                imm: 1,
            },
            Op::Halt,
        ];
        let base = code_checksum(&ops);
        assert_eq!(base, code_checksum(&ops.clone()), "deterministic");
        let mut tampered = ops.clone();
        tampered[0] = Op::Movi {
            dst: PReg(0),
            imm: 2,
        };
        assert_ne!(base, code_checksum(&tampered));
        assert_ne!(base, code_checksum(&ops[..1]));
    }
    use pir::{BinOp, FunctionBuilder, Locality, Module, Reg, Term};

    /// A two-function module: a multi-block worker streaming over `buf`
    /// plus a tiny leaf the worker calls.
    fn module() -> Module {
        let mut m = Module::new("m");
        let buf = m.add_global("buf", 1 << 12);
        let mut leaf = FunctionBuilder::new("leaf", 1);
        let p = leaf.param(0);
        let d = leaf.mul_imm(p, 2);
        leaf.ret(Some(d));
        let leaf_id = m.add_function(leaf.finish());
        let mut decoy = FunctionBuilder::new("decoy", 1);
        let p = decoy.param(0);
        decoy.ret(Some(p));
        m.add_function(decoy.finish());
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(buf);
        w.counted_loop(0, 8, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let v = b.load(a, 0, Locality::Normal);
            let _ = b.call(leaf_id, &[v]);
        });
        w.ret(None);
        let wid = m.add_function(w.finish());
        m.set_entry(wid);
        m
    }

    fn parts(m: &Module) -> (Vec<u32>, u32) {
        (
            m.functions().iter().map(|f| f.params()).collect(),
            m.globals().len() as u32,
        )
    }

    fn worker(m: &Module) -> &Function {
        m.function(m.function_by_name("worker").unwrap())
    }

    #[test]
    fn identity_and_locality_variants_pass() {
        let m = module();
        let (arities, globals) = parts(&m);
        let fid = m.function_by_name("worker").unwrap();
        let base = worker(&m);
        assert_eq!(check_variant(base, base, &arities, globals), Ok(()));
        let sites: Vec<_> = pir::load_sites(&m)
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == fid)
            .collect();
        assert!(!sites.is_empty());
        let nt = NtAssignment::all(sites);
        let hinted = nt.apply_to(base, fid);
        assert_eq!(check_variant(base, &hinted, &arities, globals), Ok(()));
    }

    #[test]
    fn changed_arithmetic_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let mut bad = worker(&m).clone();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::BinImm { imm, .. } = inst {
                    *imm += 1;
                    let err = check_variant(worker(&m), &bad, &arities, globals).unwrap_err();
                    assert!(err.contains("beyond a load locality bit"), "{err}");
                    return;
                }
            }
        }
        panic!("worker has a BinImm");
    }

    #[test]
    fn redirected_call_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let mut bad = worker(&m).clone();
        // Same arity as `leaf`, so structural verification still passes
        // and only the call-graph comparison can catch the redirection.
        let decoy = m.function_by_name("decoy").unwrap();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Call { callee, .. } = inst {
                    *callee = decoy;
                    let err = check_variant(worker(&m), &bad, &arities, globals).unwrap_err();
                    assert!(err.contains("call-site sequence"), "{err}");
                    return;
                }
            }
        }
        panic!("worker has a call");
    }

    #[test]
    fn structural_breakage_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let mut bad = worker(&m).clone();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Load { base, .. } = inst {
                    *base = Reg(pir::MAX_REGS + 5);
                    let err = check_variant(worker(&m), &bad, &arities, globals).unwrap_err();
                    assert!(err.contains("structural verification"), "{err}");
                    return;
                }
            }
        }
        panic!("worker has a load");
    }

    #[test]
    fn introduced_undef_read_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let mut bad = worker(&m).clone();
        // Give the variant one more register than the baseline ever
        // writes, and read it: shape-wise a tiny change, but the dataflow
        // gate sees the maybe-undefined use first.
        let fresh = Reg(bad.reg_count());
        bad.set_reg_count(bad.reg_count() + 1);
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Bin {
                    op: BinOp::Add,
                    rhs,
                    ..
                } = inst
                {
                    *rhs = fresh;
                    let err = check_variant(worker(&m), &bad, &arities, globals).unwrap_err();
                    assert!(err.contains("without a prior assignment"), "{err}");
                    return;
                }
            }
        }
        panic!("worker has an add");
    }

    #[test]
    fn changed_terminator_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let mut bad = worker(&m).clone();
        // Retarget the entry branch to the exit block: still verifies
        // (blocks stay reachable via the loop back-edge is lost, but the
        // gate flags the terminator before reachability matters).
        let last = pir::BlockId(bad.block_count() as u32 - 1);
        bad.blocks_mut()[0].term = Term::Br(last);
        let err = check_variant(worker(&m), &bad, &arities, globals).unwrap_err();
        assert!(!err.is_empty());
    }

    /// A terminating module whose worker's result is observable: it
    /// stores a constant-derived value to a global and is the entry, so
    /// the equivalence checker can concretely confirm divergences.
    fn observable_module() -> Module {
        let mut m = Module::new("obs");
        let out = m.add_global("out", 64);
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(out);
        let x = w.const_(3);
        let y = w.mul_imm(x, 2);
        w.store(base, 0, y);
        w.ret(None);
        let wid = m.add_function(w.finish());
        m.set_entry(wid);
        m
    }

    #[test]
    fn vet_accepts_locality_variants_on_the_syntactic_tier() {
        let m = module();
        let fid = m.function_by_name("worker").unwrap();
        let base = worker(&m);
        assert_eq!(
            vet_variant(&m, fid, base),
            VariantVerdict::Safe {
                modulo_nt: false,
                syntactic: true
            }
        );
        let sites: Vec<_> = pir::load_sites(&m)
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == fid)
            .collect();
        let hinted = NtAssignment::all(sites).apply_to(base, fid);
        let v = vet_variant(&m, fid, &hinted);
        assert_eq!(
            v,
            VariantVerdict::Safe {
                modulo_nt: true,
                syntactic: true
            }
        );
        assert!(v.is_safe());
        assert!(v.detail().is_none());
        assert!(v.to_string().contains("non-temporal"), "{v}");
    }

    #[test]
    fn vet_proves_nop_padding_beyond_the_syntactic_tier() {
        let m = module();
        let fid = m.function_by_name("worker").unwrap();
        let mut padded = worker(&m).clone();
        padded.blocks_mut()[0].insts.push(Inst::Nop);
        // Syntactically illegal (length changed) …
        let (arities, globals) = parts(&m);
        assert!(check_variant(worker(&m), &padded, &arities, globals).is_err());
        // … but behaviorally identical, so the proof tier admits it.
        assert_eq!(
            vet_variant(&m, fid, &padded),
            VariantVerdict::Safe {
                modulo_nt: false,
                syntactic: false
            }
        );
    }

    #[test]
    fn vet_refutes_observable_corruption_with_counterexample() {
        let m = observable_module();
        let fid = m.function_by_name("worker").unwrap();
        let mut bad = m.function(fid).clone();
        let mut hit = false;
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Const { value, .. } = inst {
                    *value += 1; // store 8 instead of 6
                    hit = true;
                }
            }
        }
        assert!(hit);
        let v = vet_variant(&m, fid, &bad);
        let VariantVerdict::Refuted { detail } = v else {
            panic!("expected Refuted, got {v}");
        };
        assert!(detail.contains("locality"), "{detail}");
        assert!(detail.contains("equivalence refuted"), "{detail}");
    }

    #[test]
    fn vet_is_conservative_when_divergence_cannot_be_confirmed() {
        // The variant multiplies a *loaded* value differently; the loads
        // read zero-initialized memory, so symbolic divergence exists but
        // no concrete run distinguishes the two — the gate must answer
        // Unproved, never Safe.
        let mut m = Module::new("u");
        let inp = m.add_global("in", 64);
        let out = m.add_global("out", 64);
        let mut w = FunctionBuilder::new("worker", 0);
        let src = w.global_addr(inp);
        let dst = w.global_addr(out);
        let v = w.load(src, 0, Locality::Normal);
        let y = w.mul_imm(v, 2);
        w.store(dst, 0, y);
        w.ret(None);
        let wid = m.add_function(w.finish());
        m.set_entry(wid);
        let mut bad = m.function(wid).clone();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::BinImm {
                    op: BinOp::Mul,
                    imm,
                    ..
                } = inst
                {
                    *imm = 3;
                }
            }
        }
        let verdict = vet_variant(&m, wid, &bad);
        let VariantVerdict::Unproved { detail } = verdict else {
            panic!("expected Unproved, got {verdict}");
        };
        assert!(detail.contains("equivalence not proved"), "{detail}");
    }

    #[test]
    fn vet_reports_malformed_bodies_as_unproved() {
        let m = module();
        let fid = m.function_by_name("worker").unwrap();
        let mut bad = worker(&m).clone();
        for block in bad.blocks_mut() {
            for inst in &mut block.insts {
                if let Inst::Load { base, .. } = inst {
                    *base = Reg(pir::MAX_REGS + 5);
                }
            }
        }
        let v = vet_variant(&m, fid, &bad);
        let VariantVerdict::Unproved { detail } = v else {
            panic!("expected Unproved, got {v}");
        };
        assert!(detail.contains("structural verification"), "{detail}");
    }

    /// A worker whose loop absint certifies: streaming loads folded into
    /// an accumulator, stored observably after the loop.
    fn osr_module() -> Module {
        let mut m = Module::new("osr");
        let buf = m.add_global("buf", 1 << 10);
        let mut w = FunctionBuilder::new("worker", 0);
        let base = w.global_addr(buf);
        let acc = w.const_(0);
        w.counted_loop(0, 8, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(base, off);
            let v = b.load(a, 0, Locality::Normal);
            b.add_into(acc, acc, v);
        });
        w.store(base, 0, acc);
        w.ret(None);
        let wid = m.add_function(w.finish());
        m.set_entry(wid);
        m
    }

    #[test]
    fn locality_variants_inherit_embedded_transfer_recipes_verbatim() {
        let m = osr_module();
        let fid = m.function_by_name("worker").unwrap();
        let certs: Vec<_> = pir::absint::certify_module(&m)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!certs.is_empty(), "the loop header should certify");
        // The compile-time self-transfer recipes pcc would embed.
        let embedded: Vec<_> = certs
            .iter()
            .filter_map(|c| {
                pir::prove_osr_transfer(&m, &m, fid, c, &EquivOptions::default())
                    .recipe()
                    .cloned()
            })
            .collect();
        assert_eq!(embedded.len(), certs.len());
        let sites: Vec<_> = pir::load_sites(&m)
            .iter()
            .map(|s| s.site)
            .filter(|s| s.func == fid)
            .collect();
        let hinted = NtAssignment::all(sites).apply_to(m.function(fid), fid);
        let s = vet_osr_transfers(&m, fid, &hinted, &certs, &embedded);
        assert_eq!(s.recipes, embedded, "shape-identical: inherited verbatim");
        assert_eq!(s.refuted, 0);
        assert_eq!(s.unproved, 0);
        assert_eq!(s.proved(), s.total());
    }

    #[test]
    fn shape_changed_variants_get_a_fresh_transfer_proof() {
        let m = osr_module();
        let fid = m.function_by_name("worker").unwrap();
        let certs: Vec<_> = pir::absint::certify_module(&m)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!certs.is_empty());
        // Nop padding breaks the shape tier; the prover must re-establish
        // the transfer from scratch (no embedded recipes offered).
        let mut padded = m.function(fid).clone();
        padded.blocks_mut()[0].insts.push(Inst::Nop);
        let s = vet_osr_transfers(&m, fid, &padded, &certs, &[]);
        assert_eq!(s.proved(), certs.len(), "details: {:?}", s.details);
        assert_eq!(s.refuted + s.unproved, 0);
    }

    #[test]
    fn functions_without_certificates_yield_an_empty_transfer_summary() {
        let m = osr_module();
        let fid = m.function_by_name("worker").unwrap();
        let s = vet_osr_transfers(&m, fid, m.function(fid), &[], &[]);
        assert_eq!(s, OsrTransferSummary::default());
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn changed_signature_is_rejected() {
        let m = module();
        let (arities, globals) = parts(&m);
        let base = worker(&m);
        let bad = Function::from_parts(
            base.name(),
            base.params() + 1,
            base.reg_count().max(base.params() + 1),
            base.blocks().to_vec(),
        );
        let err = check_variant(base, &bad, &arities, globals).unwrap_err();
        assert!(err.contains("signature"), "{err}");
    }
}

//! `toolchain`: the offline compile and the static gate over the catalog.
//!
//! For every catalog entry, in order: `pcc` compiles it plain, protean,
//! and optimized with translation validation; `pir` lints it, certifies
//! its OSR points and checks module equivalence (identity and against the
//! optimized module); the `protean` gate vets every optimized function
//! body; a `Runtime` attaches to the protean image, compiles the seed's
//! non-temporal (NT) variants and dispatches them; and each certified
//! loop header gets an OSR transfer proof into the module with every NT
//! variant spliced in. Nothing is simulated beyond attaching, so `pir`
//! and `pcc` do nearly all the work.
//!
//! The seed picks, per entry, which virtualized functions get a variant
//! and which of their load sites flip to NT. Set-up (timed as `setup_s`)
//! builds the catalog modules (twenty times, reporting the median, since one
//! build takes milliseconds); the sweep starts cold from them.

use std::time::Instant;

use pcc::{Compiler, NtAssignment, Options};
use pir::equiv::{self, EquivOptions};
use pir::{FuncId, Module};
use protean::{Runtime, RuntimeConfig, VariantVerdict};
use simos::Os;
use workloads::catalog;

use crate::trace::span;
use crate::{median, metric, ratio, Digest, Outcome, Rng, Size};

/// Times the catalog is built during set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 20;

/// NT variants compiled and dispatched per catalog entry.
pub const VARIANTS_PER_ENTRY: usize = 3;

/// One NT variant choice: `func` selects among the virtualized functions
/// that have load sites, and load site `i` of that function flips to NT
/// when bit `i % 64` of `mask` is set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pick {
    /// Function selector.
    pub func: u64,
    /// Site mask.
    pub mask: u64,
}

/// Generated inputs of one `toolchain` run.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Catalog entries swept, with their variant picks.
    pub entries: Vec<(&'static str, Vec<Pick>)>,
}

/// Generates the inputs for `seed`.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let names: Vec<&'static str> = match size {
        Size::Full => catalog::CATALOG.iter().map(|w| w.name).collect(),
        Size::Tiny => vec!["bst", "libquantum", "web-search"],
    };
    let entries = names
        .into_iter()
        .map(|name| {
            let picks = (0..VARIANTS_PER_ENTRY)
                .map(|_| Pick {
                    func: rng.next_u64(),
                    mask: rng.next_u64(),
                })
                .collect();
            (name, picks)
        })
        .collect();
    Inputs { entries }
}

/// Proof outcomes and counts summed over the sweep.
#[derive(Default)]
struct Totals {
    proved: u64,
    attempted: u64,
    ir_insts: u64,
    certified: u64,
    recipes: u64,
    compilations: u64,
    compile_cycles: u64,
    gate_rejected: u64,
    verdict_hits: u64,
    verdict_lookups: u64,
}

impl Totals {
    fn attempt(&mut self, proved: bool) {
        self.attempted += 1;
        self.proved += u64::from(proved);
    }
}

/// Runs one iteration.
pub fn run(inputs: &Inputs) -> Outcome {
    let llc = protean_bench::llc_lines(&protean_bench::experiment_os());
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut modules: Vec<Module> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t_setup = Instant::now();
        modules = inputs
            .entries
            .iter()
            .map(|(name, _)| {
                span("workloads.build", || catalog::build(name, llc))
                    .unwrap_or_else(|| panic!("catalog entry {name}"))
            })
            .collect();
        setups.push(t_setup.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    let mut t = Totals::default();
    let mut digest = Digest::default();
    let t_run = Instant::now();
    for ((name, picks), m) in inputs.entries.iter().zip(&modules) {
        digest.text(name);
        sweep_entry(m, picks, &mut t, &mut digest);
    }
    let wall_s = t_run.elapsed().as_secs_f64();

    Outcome {
        setup_s,
        wall_s,
        digest: digest.finish(),
        figures: vec![
            metric(
                "ir_kinsts_per_s",
                ratio(t.ir_insts as f64 / 1e3, wall_s),
                "kinst/s",
            ),
            metric(
                "proved_share",
                ratio(t.proved as f64, t.attempted as f64),
                "share",
            ),
        ],
        counts: vec![
            metric("pir.ir_insts", t.ir_insts as f64, "count"),
            metric("pir.certified_points", t.certified as f64, "count"),
            metric("pir.osr_recipes", t.recipes as f64, "count"),
            metric("protean.compilations", t.compilations as f64, "count"),
            metric("protean.compile_cycles", t.compile_cycles as f64, "cycles"),
            metric("protean.gate_rejected", t.gate_rejected as f64, "count"),
            metric(
                "protean.verdict_hit_ratio",
                ratio(t.verdict_hits as f64, t.verdict_lookups as f64),
                "share",
            ),
        ],
        steady_insts: 0,
    }
}

fn sweep_entry(m: &Module, picks: &[Pick], t: &mut Totals, digest: &mut Digest) {
    t.ir_insts += m.inst_count() as u64;
    let compile = |name, opts: Options| span(name, || Compiler::new(opts).compile(m));
    let plain = compile("pcc.compile", Options::plain()).expect("plain compile");
    let protean = compile("pcc.compile", Options::protean()).expect("protean compile");
    let mut validated = Options::protean().with_optimization();
    validated.validate_translations = true;
    let optimized = compile("pcc.compile_validated", validated);
    t.attempt(optimized.is_ok());
    for out in [&plain, &protean] {
        digest.bytes(&visa::encode::encode_image(&out.image));
    }
    let optimized = optimized.ok().and_then(|o| {
        digest.bytes(&visa::encode::encode_image(&o.image));
        o.meta.map(|meta| meta.module)
    });

    let lint = span("pir.lint_module", || pir::lint::lint_module(m));
    digest.debug(&(lint.error_count(), lint.warning_count()));
    let decisions = span("pir.certify_module", || pir::absint::certify_module(m));
    let certs: Vec<_> = decisions
        .iter()
        .filter_map(|d| d.certificate().cloned())
        .collect();
    t.certified += certs.len() as u64;
    digest.debug(&decisions);
    let opts = EquivOptions::default();
    let identity = span("pir.check_module", || equiv::check_module(m, m, &opts));
    t.attempt(identity.all_proved());
    digest.debug(&(identity.all_proved(), identity.total_nt_flips()));
    if let Some(opt) = &optimized {
        let report = span("pir.check_module", || equiv::check_module(m, opt, &opts));
        t.attempt(report.all_proved());
        digest.debug(&(report.all_proved(), report.total_nt_flips()));
        for (fi, body) in opt.functions().iter().enumerate() {
            let fid = FuncId(fi as u32);
            let verdict = span("protean.vet_variant", || protean::vet_variant(m, fid, body));
            t.attempt(matches!(verdict, VariantVerdict::Safe { .. }));
            digest.debug(&verdict.is_safe());
        }
    }

    let variant_module = dispatch_variants(&protean.image, picks, t, digest);
    for cert in &certs {
        let v = span("pir.prove_osr_transfer", || {
            pir::prove_osr_transfer(m, &variant_module, cert.func, cert, &opts)
        });
        t.attempt(v.is_proved());
        t.recipes += u64::from(v.recipe().is_some());
        digest.debug(&v.recipe());
    }
}

/// Attaches a runtime to `image`, compiles and dispatches the picked NT
/// variants, and returns the module with every variant body spliced in.
fn dispatch_variants(
    image: &visa::Image,
    picks: &[Pick],
    t: &mut Totals,
    digest: &mut Digest,
) -> Module {
    let mut os = Os::new(protean_bench::experiment_os());
    let pid = os.spawn(image, 1);
    let mut rt = span("protean.attach", || {
        Runtime::attach(&os, pid, RuntimeConfig::on_core(2))
    })
    .expect("attach to a protean image");
    let sites = pir::load_sites(rt.module());
    let funcs: Vec<FuncId> = rt
        .virtualized_funcs()
        .into_iter()
        .filter(|&f| sites.iter().any(|s| s.site.func == f))
        .collect();
    let mut spliced = rt.module().clone();
    for pick in picks {
        if funcs.is_empty() {
            break;
        }
        let func = funcs[(pick.func % funcs.len() as u64) as usize];
        let nt = NtAssignment::all(
            sites
                .iter()
                .filter(|s| s.site.func == func)
                .enumerate()
                .filter(|(i, _)| pick.mask >> (i % 64) & 1 == 1)
                .map(|(_, s)| s.site),
        );
        let variant = span("protean.compile_variant", || {
            rt.compile_variant(&mut os, func, &nt)
        })
        .expect("virtualized functions compile");
        let dispatched = span("protean.dispatch", || rt.dispatch(&mut os, variant));
        t.attempt(dispatched.is_ok());
        digest.debug(&(func, nt.len(), dispatched.is_ok()));
        spliced.functions_mut()[func.index()] = nt.apply_to(spliced.function(func), func);
    }
    t.compilations += rt.compilations();
    t.compile_cycles += rt.compile_cycles();
    t.gate_rejected += rt.rejected_dispatches();
    let gate = rt.gate_stats();
    t.verdict_hits += gate.verdict_cache_hits;
    t.verdict_lookups += gate.verdict_cache_hits + gate.verdict_cache_misses;
    digest.debug(&(rt.compilations(), rt.compile_cycles()));
    spliced
}

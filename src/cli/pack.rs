//! `mcss pack`: Stage-2 packers head to head against the Alg. 5 bound.

use super::{
    flag, load_trace, parse_budget, required, Args, Calibration, Positional, Spec, EFFECTIVE,
    INSTANCE, SCALE, TAU,
};
use cloud_cost::{FleetCostModel, InstanceType};
use mcss_core::ilp::{export_lp, IlpOptions};
use mcss_core::{AllocatorKind, McssInstance, SearchBudget, Solver, SolverParams};
use pubsub_model::Rate;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "pack",
    usage: "mcss pack <trace.tsv> --tau N [options]",
    summary: "compare Stage-2 packers (greedy CBP, FFD, anytime-refined) against the Alg. 5 lower bound",
    positional: Positional::Required("a trace path"),
    flags: &[
        TAU,
        INSTANCE,
        flag("--refine", "BUDGET", "local-search budget, as in solve --refine [unbounded: run until no move improves or the lower-bound certificate is met]"),
        flag("--mixed", "", "pack onto the heterogeneous catalogue fleet (FFD and --export-lp are homogeneous-only)"),
        flag("--export-lp", "FILE", "also write the exact integer program in CPLEX LP format, sized by the greedy VM count"),
        EFFECTIVE,
        SCALE,
    ],
};

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub trace: String,
    pub tau: u64,
    pub instance: InstanceType,
    pub mixed: bool,
    pub refine: SearchBudget,
    pub export_lp: Option<String>,
    pub calibration: Calibration,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    let opts = Opts {
        trace: args.positional(),
        tau: required(args.num("--tau")?, "--tau")?,
        instance: args.instance()?,
        mixed: args.switch("--mixed"),
        refine: args
            .parsed("--refine", parse_budget)?
            .unwrap_or(SearchBudget::UNBOUNDED),
        export_lp: args.text("--export-lp"),
        calibration: args.calibration()?,
    };
    if opts.mixed && opts.export_lp.is_some() {
        return Err(
            "--export-lp cannot be combined with --mixed: the LP formulation is \
             homogeneous (one capacity for every candidate VM)"
                .into(),
        );
    }
    Ok(opts)
}

/// Packs one selection every way and prints the comparison.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = load_trace(&opts.trace)?;
    let tau = Rate::new(opts.tau);
    let refining = SolverParams::default().with_refinement(opts.refine);
    let invalid = |e| format!("internal error — invalid refined allocation: {e}");
    if opts.mixed {
        let fleet = FleetCostModel::new(opts.calibration.catalogue());
        let inst =
            McssInstance::new(workload, tau, fleet.max_capacity()).map_err(|e| e.to_string())?;
        let solve = |params| Solver::new(params).solve_mixed(&inst, &fleet);
        let greedy = solve(SolverParams::default()).map_err(|e| e.to_string())?;
        let refined = solve(refining).map_err(|e| e.to_string())?;
        refined
            .allocation
            .validate(inst.workload(), tau)
            .map_err(invalid)?;
        for (label, r) in [
            ("greedy (mixed):", &greedy.report),
            ("refined:", &refined.report),
        ] {
            println!(
                "{label:<16} {} ({} VMs: {})",
                r.total_cost, r.vm_count, r.mix
            );
        }
        let gap = refined.report.optimality_gap();
        println!(
            "lower bound:     {} (gap {gap:.2}x)",
            refined.report.lower_bound_cost
        );
        if let Some(r) = &refined.refinement {
            println!("refinement: {r}");
        }
        return Ok(());
    }
    let cost = opts.calibration.cost_model(opts.instance);
    let inst = McssInstance::new(workload, tau, cost.capacity()).map_err(|e| e.to_string())?;
    let solve = |params| Solver::new(params).solve(&inst, &cost);
    let greedy = solve(SolverParams::default()).map_err(|e| e.to_string())?;
    let ffd = solve(SolverParams {
        allocator: AllocatorKind::FirstFitDecreasing,
        ..SolverParams::default()
    })
    .map_err(|e| e.to_string())?;
    let refined = solve(refining).map_err(|e| e.to_string())?;
    refined
        .allocation
        .validate(inst.workload(), tau)
        .map_err(invalid)?;
    for (label, r) in [
        ("greedy (CBP):", &greedy.report),
        ("FFD:", &ffd.report),
        ("refined:", &refined.report),
    ] {
        println!(
            "{label:<14} {} ({} VMs, {} bandwidth)",
            r.total_cost, r.vm_count, r.total_bandwidth
        );
    }
    let r = &refined.report;
    println!(
        "lower bound:   {} ({} VMs, {} volume)",
        r.lower_bound_cost, r.lower_bound_vms, r.lower_bound_volume
    );
    if let Some(r) = &refined.refinement {
        println!("refinement: {r}");
    }
    if let Some(path) = opts.export_lp {
        let max_vms = greedy.report.vm_count;
        std::fs::write(&path, export_lp(&inst, &cost, IlpOptions { max_vms }))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("LP written to {path}");
    }
    Ok(())
}

//! `mcss plan`: rank the instance catalogue by cost for one workload.

use super::{
    flag, load_trace, required, Args, Calibration, Positional, Spec, EFFECTIVE, SCALE, TAU,
};
use cloud_cost::FleetCostModel;
use mcss_core::planner::{plan_instance_type, plan_mixed, PlannerReport};
use mcss_core::Solver;
use pubsub_model::Rate;
use std::sync::Arc;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "plan",
    usage: "mcss plan <trace.tsv> --tau N [options]",
    summary: "rank instance types by cost",
    positional: Positional::Required("a trace path"),
    flags: &[
        TAU,
        flag("--mixed", "", "also solve one heterogeneous fleet over the whole catalogue and report it against the homogeneous winner (never more expensive)"),
        EFFECTIVE,
        SCALE,
    ],
};

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub trace: String,
    pub tau: u64,
    pub mixed: bool,
    pub calibration: Calibration,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        trace: args.positional(),
        tau: required(args.num("--tau")?, "--tau")?,
        mixed: args.switch("--mixed"),
        calibration: args.calibration()?,
    })
}

fn print_ranking(report: &PlannerReport) {
    for option in &report.ranked {
        println!(
            "{:<12} {} ({} VMs, {} bandwidth)",
            option.name,
            option.report.total_cost,
            option.report.vm_count,
            option.report.total_bandwidth
        );
    }
    for (name, err) in &report.skipped {
        println!("{name:<12} infeasible: {err}");
    }
}

/// Solves under every catalogued type and prints the ranking.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = Arc::new(load_trace(&opts.trace)?);
    let tau = Rate::new(opts.tau);
    let candidates = opts.calibration.catalogue();
    if opts.mixed {
        let fleet = FleetCostModel::new(candidates);
        let report = match plan_mixed(Arc::clone(&workload), tau, &fleet, Solver::default()) {
            Ok(report) => report,
            Err(e) => {
                // The mixed solve only fails when even the largest
                // tier cannot host a selected topic — every flavour
                // is then individually infeasible too. Print the
                // per-candidate diagnosis before bailing, like the
                // plain plan does.
                if let Ok(homogeneous) =
                    plan_instance_type(workload, tau, fleet.tiers(), Solver::default())
                {
                    print_ranking(&homogeneous);
                }
                return Err(e.to_string());
            }
        };
        print_ranking(&report.homogeneous);
        match report.homogeneous.best() {
            Some(best) => println!(
                "cheapest homogeneous: {} ({})",
                best.name, best.report.total_cost
            ),
            None => println!("no single instance type can host this workload"),
        }
        println!(
            "mixed fleet:          {} ({} VMs: {})",
            report.mixed.report.total_cost, report.mixed.report.vm_count, report.mixed.report.mix
        );
        println!(
            "mixed lower bound:    {} (gap {:.2}x)",
            report.mixed.report.lower_bound_cost,
            report.mixed.report.optimality_gap()
        );
        if let Some(savings) = report.savings() {
            let best_cost = report
                .homogeneous
                .best()
                .expect("savings imply a baseline")
                .report
                .total_cost;
            if best_cost.is_zero() {
                println!("mixed saves:          {savings}");
            } else {
                println!(
                    "mixed saves:          {savings} ({:.1}% of the homogeneous bill)",
                    100.0 * savings.as_dollars_f64() / best_cost.as_dollars_f64()
                );
            }
        }
        return Ok(());
    }
    let report = plan_instance_type(workload, tau, &candidates, Solver::default())
        .map_err(|e| e.to_string())?;
    print_ranking(&report);
    let best = report
        .best()
        .ok_or_else(|| "no instance type can host this workload".to_string())?;
    println!("cheapest: {}", best.name);
    if let Some(spread) = report.spread() {
        println!("spread:   {spread}");
    }
    Ok(())
}

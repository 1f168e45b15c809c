//! `mcss reprovision`: drift the workload and repair the fleet epoch by
//! epoch (§VI).

use super::{
    flag, required, simulate, Args, Calibration, Positional, Spec, WorkloadSource, CHURN,
    DRIFT_SEED, EFFECTIVE, INSTANCE, SCALE, SIGMA, STORE, TAU,
};
use cloud_cost::{FleetCostModel, InstanceType};
use mcss_core::dynamic::{DriftModel, Reprovisioner, WorkloadDelta};
use mcss_core::incremental::IncrementalConfig;
use mcss_core::{McssInstance, Solver};
use pubsub_model::Rate;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "reprovision",
    usage: "mcss reprovision <trace.tsv> --tau N [options]",
    summary: "drift the workload and repair the fleet epoch by epoch",
    positional: Positional::TraceOrStore,
    flags: &[
        TAU,
        flag("--epochs", "N", "drift/repair epochs to run [5]"),
        CHURN,
        SIGMA,
        DRIFT_SEED,
        flag("--fresh", "", "re-solve from scratch each epoch instead of the O(Δ) incremental repair"),
        flag("--threads", "N", "worker threads for shard-parallel epoch repair (bit-identical selections) [1]"),
        INSTANCE,
        flag("--mixed", "", "deploy on a heterogeneous fleet over the whole catalogue (--instance is ignored); selections stay bit-identical to the homogeneous run"),
        STORE,
        EFFECTIVE,
        SCALE,
        flag("--simulate", "", "replay each epoch through the broker simulation"),
    ],
};

#[derive(Clone, Debug)]
pub struct Opts {
    pub source: WorkloadSource,
    pub tau: u64,
    pub instance: InstanceType,
    pub epochs: u64,
    pub drift: DriftModel,
    pub fresh: bool,
    pub threads: usize,
    pub mixed: bool,
    pub calibration: Calibration,
    pub simulate: bool,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        tau: required(args.num("--tau")?, "--tau")?,
        source: args.source()?,
        instance: args.instance()?,
        epochs: args.nonzero("--epochs", "must be at least 1")?.unwrap_or(5),
        drift: args.drift()?,
        fresh: args.switch("--fresh"),
        threads: args
            .nonzero("--threads", "must be at least 1")?
            .unwrap_or(1),
        mixed: args.switch("--mixed"),
        calibration: args.calibration()?,
        simulate: args.switch("--simulate"),
    })
}

/// Runs the epochs, one line each, then the cumulative cost.
pub fn run(opts: Opts) -> Result<(), String> {
    let mut workload = opts.source.load()?;
    // In mixed mode the scalar cost model (largest tier) only
    // feeds the informational lower bound; epoch costs and
    // capacities come from the fleet.
    let fleet = opts
        .mixed
        .then(|| FleetCostModel::new(opts.calibration.catalogue()));
    let cost = match &fleet {
        Some(fleet) => fleet
            .tiers()
            .iter()
            .max_by_key(|t| t.capacity())
            .expect("catalogue is non-empty")
            .clone(),
        None => opts.calibration.cost_model(opts.instance),
    };
    let mut re = if opts.fresh {
        Reprovisioner::new(Solver::default())
    } else {
        Reprovisioner::incremental(
            Solver::default(),
            IncrementalConfig::default().with_repair_threads(opts.threads),
        )
    };
    if let Some(fleet) = &fleet {
        re = re.with_fleet(fleet.clone());
    }
    let DriftModel {
        rate_sigma: sigma,
        churn_prob: churn,
        seed,
    } = opts.drift;
    println!(
        "reprovisioning {} epochs ({}{}; churn {churn}, sigma {sigma}, seed {seed})",
        opts.epochs,
        if opts.fresh {
            "full re-solve per epoch"
        } else {
            "incremental O(Δ) repair"
        },
        if opts.mixed { ", mixed fleet" } else { "" }
    );
    let mut delta: Option<WorkloadDelta> = None;
    for epoch in 0..opts.epochs {
        let inst = McssInstance::new(workload.clone(), Rate::new(opts.tau), cost.capacity())
            .map_err(|e| e.to_string())?;
        let r = re
            .step_tracked(&inst, &cost, delta.as_ref())
            .map_err(|e| format!("epoch {epoch}: {e}"))?;
        r.allocation
            .validate(inst.workload(), inst.tau())
            .map_err(|e| format!("internal error — invalid epoch {epoch}: {e}"))?;
        let mut line = format!(
            "epoch {:>3}: {:>4} VMs ({:+}), cost {}, moved {} pairs, reused {}{}",
            r.epoch,
            r.report.vm_count,
            r.vm_delta,
            r.report.total_cost,
            r.pairs_moved,
            r.pairs_reused,
            if r.full_resolve { " [full solve]" } else { "" },
        );
        if let Some(typing) = r.allocation.typing() {
            line.push_str(&format!(", fleet {}", typing.mix()));
        }
        if opts.simulate {
            let (_, ok) = simulate(inst.workload(), &r.allocation, inst.tau());
            line.push_str(if ok {
                ", sim: satisfied"
            } else {
                ", sim: VIOLATED"
            });
        }
        println!("{line}");
        if epoch + 1 < opts.epochs {
            let (next, d) = opts.drift.evolve_tracked(&workload, epoch);
            workload = next;
            delta = Some(d);
        }
    }
    println!(
        "cumulative cost over {} epochs: {}",
        re.epochs(),
        re.cumulative_cost()
    );
    Ok(())
}

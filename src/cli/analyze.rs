//! `mcss analyze`: workload statistics, and optionally each VM's blast
//! radius.

use super::{
    flag, Args, Calibration, Positional, Spec, WorkloadSource, EFFECTIVE, INSTANCE, SCALE,
};
use cloud_cost::InstanceType;
use mcss_core::{McssInstance, Solver};
use mcss_store::StoreReader;
use pubsub_model::Rate;
use pubsub_sim::failure::fragility_profile;
use std::path::Path;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "analyze",
    usage: "mcss analyze <trace.tsv> [options]",
    summary: "print workload statistics",
    positional: Positional::TraceOrStore,
    flags: &[
        flag("--store", "FILE", "analyze an MCSSTOR1 store instead of a trace; also prints on-disk bytes per section next to the resident footprint"),
        flag("--blast-radius", "K", "solve the trace and print the top-K VMs by blast radius (subscribers starved if that VM dies); needs --tau"),
        flag("--tau", "N", "satisfaction threshold (with --blast-radius)"),
        INSTANCE,
        EFFECTIVE,
        SCALE,
    ],
};

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub source: WorkloadSource,
    /// Top-K VMs to rank, with the threshold to solve at.
    pub blast_radius: Option<(usize, u64)>,
    pub instance: InstanceType,
    pub calibration: Calibration,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    let blast_radius = match (
        args.nonzero("--blast-radius", "must be at least 1")?,
        args.num("--tau")?,
    ) {
        (Some(_), None) => return Err("--blast-radius needs --tau (it solves the trace)".into()),
        (k, tau) => k.zip(tau),
    };
    Ok(Opts {
        source: args.source()?,
        blast_radius,
        instance: args.instance()?,
        calibration: args.calibration()?,
    })
}

/// Prints the statistics, the store breakdown and the blast radii.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = opts.source.load()?;
    println!("{}", workload.stats());
    let issues = workload.validate();
    if issues.is_empty() {
        println!("structure:         regular (every topic followed, every subscriber interested)");
    } else {
        println!(
            "structure:         {} irregularities (first: {})",
            issues.len(),
            issues[0]
        );
    }
    println!(
        "{}",
        mcss_core::MemoryFootprint::measure(&workload, None, None)
    );
    if let WorkloadSource::Store(path) = &opts.source {
        // The on-disk shape of what we just loaded: one line
        // per section next to the resident footprint above.
        let reader = StoreReader::open(Path::new(path))
            .map_err(|e| format!("reopening store {path}: {e}"))?;
        let subs = workload.num_subscribers().max(1) as f64;
        println!(
            "\non-disk store:     {} bytes in {} sections ({:.1} bytes/subscriber)",
            reader.file_len(),
            reader.sections().len(),
            reader.file_len() as f64 / subs
        );
        for info in reader.sections() {
            println!("  {:<18} {:>12} bytes", info.name, info.len);
        }
    }
    if let Some((k, tau)) = opts.blast_radius {
        let cost = opts.calibration.cost_model(opts.instance);
        let inst = McssInstance::new(workload, Rate::new(tau), cost.capacity())
            .map_err(|e| e.to_string())?;
        let outcome = Solver::default()
            .solve(&inst, &cost)
            .map_err(|e| e.to_string())?;
        let profile = fragility_profile(&inst, &outcome.allocation);
        let mut ranked: Vec<(usize, usize)> = profile.iter().copied().enumerate().collect();
        // Starved-count descending, VM index ascending for ties.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!(
            "\nblast radius (top {} of {} VMs — subscribers starved if that VM dies):",
            k.min(ranked.len()),
            ranked.len()
        );
        for &(vm, starved) in ranked.iter().take(k) {
            let m = &outcome.allocation.vms()[vm];
            println!(
                "  vm {vm:>4}: {starved:>6} starved  ({} pairs, {} bandwidth)",
                m.pair_count(),
                m.used()
            );
        }
    }
    Ok(())
}

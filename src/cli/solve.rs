//! `mcss solve`: the two-stage MCSS pipeline over one workload.

use super::{
    flag, parse_budget, print_sim_verdict, required, simulate, Args, Calibration, Positional, Spec,
    WorkloadSource, EFFECTIVE, INSTANCE, SCALE, STORE, TAU,
};
use cloud_cost::InstanceType;
use mcss_core::{
    AllocatorKind, McssInstance, PartitionerKind, SearchBudget, SelectorKind, ShardingConfig,
    Solver, SolverParams,
};
use pubsub_model::Rate;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "solve",
    usage: "mcss solve <trace.tsv> --tau N [options]",
    summary: "solve MCSS over a trace file",
    positional: Positional::TraceOrStore,
    flags: &[
        TAU,
        INSTANCE,
        flag("--selector", "NAME", "gsp | rsp | shared | optimal [gsp]"),
        flag("--allocator", "NAME", "cbp | ffbp [cbp]"),
        flag("--shards", "N", "partition subscribers and solve shard-parallel [1]"),
        flag("--threads", "N", "worker threads (shard solves, or parallel GSP when --shards is 1) [shards]"),
        flag("--partitioner", "NAME", "topic | hash [topic]"),
        flag("--refine", "BUDGET", "post-process the packing with the anytime local search: \"500\" caps moves, \"100ms\"/\"2s\" caps wall-clock (wall-clock runs are not reproducible step for step) [off]"),
        STORE,
        EFFECTIVE,
        SCALE,
        flag("--simulate", "", "replay the window through the broker simulation"),
    ],
};

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub source: WorkloadSource,
    pub tau: u64,
    pub instance: InstanceType,
    pub selector: SelectorKind,
    pub allocator: AllocatorKind,
    pub shards: usize,
    /// Worker threads; 0 lets the sharded solver pick.
    pub threads: usize,
    pub partitioner: PartitionerKind,
    pub refine: Option<SearchBudget>,
    pub calibration: Calibration,
    pub simulate: bool,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    let selector = args.parsed("--selector", |name| match name {
        "gsp" => Ok(SelectorKind::Greedy),
        "rsp" => Ok(SelectorKind::Random { seed: 42 }),
        "shared" => Ok(SelectorKind::SharedAware),
        "optimal" => Ok(SelectorKind::Optimal),
        other => Err(format!("unknown selector {other:?}")),
    })?;
    let allocator = args.parsed("--allocator", |name| match name {
        "cbp" => Ok(AllocatorKind::custom_full()),
        "ffbp" => Ok(AllocatorKind::FirstFit),
        other => Err(format!("unknown allocator {other:?}")),
    })?;
    let partitioner = args.parsed("--partitioner", |name| match name {
        "topic" => Ok(PartitionerKind::TopicLocality),
        "hash" => Ok(PartitionerKind::Hash { seed: 42 }),
        other => Err(format!("unknown partitioner {other:?}")),
    })?;
    Ok(Opts {
        tau: required(args.num("--tau")?, "--tau")?,
        source: args.source()?,
        instance: args.instance()?,
        selector: selector.unwrap_or(SelectorKind::Greedy),
        allocator: allocator.unwrap_or_else(AllocatorKind::custom_full),
        shards: args.nonzero("--shards", "must be at least 1")?.unwrap_or(1),
        threads: args
            .nonzero("--threads", "must be at least 1")?
            .unwrap_or(0),
        partitioner: partitioner.unwrap_or_default(),
        refine: args.parsed("--refine", parse_budget)?,
        calibration: args.calibration()?,
        simulate: args.switch("--simulate"),
    })
}

/// Solves and prints the pipeline report.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = opts.source.load()?;
    let cost = opts.calibration.cost_model(opts.instance);
    let instance = McssInstance::new(workload, Rate::new(opts.tau), cost.capacity())
        .map_err(|e| e.to_string())?;
    // --threads without sharding parallelizes Stage 1 in place
    // (only the greedy selector has a parallel variant).
    let selector = match (opts.shards, opts.threads, opts.selector) {
        (0 | 1, t, SelectorKind::Greedy) if t > 1 => SelectorKind::GreedyParallel { threads: t },
        (_, _, s) => s,
    };
    let sharding = (opts.shards > 1).then(|| {
        ShardingConfig::new(opts.shards)
            .with_threads(opts.threads)
            .with_partitioner(opts.partitioner)
    });
    let solver = Solver::new(SolverParams {
        selector,
        allocator: opts.allocator,
        sharding,
        refine: opts.refine,
    });
    let outcome = solver.solve(&instance, &cost).map_err(|e| e.to_string())?;
    outcome
        .allocation
        .validate(instance.workload(), instance.tau())
        .map_err(|e| format!("internal error — invalid allocation: {e}"))?;
    println!("{}", outcome.report);
    if let Some(r) = &outcome.refinement {
        println!("refinement: {r}");
    }
    println!(
        "bandwidth at full scale: {:.2} GB",
        cost.volume_to_gb(outcome.report.total_bandwidth)
    );
    if opts.simulate {
        let (report, ok) = simulate(instance.workload(), &outcome.allocation, instance.tau());
        println!("\nsimulation:\n{report}");
        print_sim_verdict("operational satisfaction", ok);
    }
    Ok(())
}

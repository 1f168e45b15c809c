//! `mcss serve`: the event-sourced drift daemon (§VI) against a
//! synthetic subscription stream.

use super::drill::{parse_drill_schedule, report_missing, resolve_kill, KillSpec};
use super::generate::Family;
use super::{
    flag, load_store, print_sim_verdict, simulate, Args, Calibration, Positional, Spec, CHURN,
    DRIFT_SEED, EFFECTIVE, INSTANCE, SCALE, SIGMA,
};
use cloud_cost::{CostModel, InstanceType};
use mcss_core::dynamic::DriftModel;
use mcss_core::serve::{Daemon, Driver, EpochStats, Event, ServeConfig};
use pubsub_model::Rate;
use std::path::PathBuf;
use std::time::Instant;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "serve",
    usage: "mcss serve --trace <spotify|twitter> [options]",
    summary: "run the event-sourced drift daemon against a synthetic subscription stream",
    positional: Positional::None,
    flags: &[
        flag("--trace", "FAMILY", "spotify | twitter (required unless --store)"),
        flag("--store", "FILE", "seed the stream from an ingested MCSSTOR1 store instead of a generated --trace family (--size and --seed are then ignored)"),
        flag("--size", "N", "subscribers (spotify) or users (twitter) [2000]"),
        flag("--seed", "N", "trace RNG seed [42]"),
        flag("--tau", "N", "satisfaction threshold [100]"),
        INSTANCE,
        flag("--epochs", "N", "drift batches to stream [10]"),
        flag("--epoch-events", "N", "close an epoch every N buffered events (watermark); default: one epoch per batch"),
        flag("--epoch-ms", "N", "close an epoch once N wall-clock ms have elapsed, checked at batch boundaries"),
        CHURN,
        SIGMA,
        DRIFT_SEED,
        flag("--dir", "PATH", "state directory (event log + snapshots) [fresh directory under the system tmpdir]"),
        flag("--snapshot-every", "N", "snapshot every N applied epochs (0 = never) [8]"),
        flag("--threads", "N", "worker threads for shard-parallel epoch repair (bit-identical selections) [1]"),
        flag("--resume", "", "recover from --dir (snapshot load + log replay), then continue the stream"),
        flag("--drill", "SPEC", "schedule VM failures: \"EPOCH:KILL;...\" where KILL is a kill list (see drill --kill); e.g. \"2:0-3;5:20%\" (incompatible with --resume)"),
        flag("--repair-budget", "N", "SLA budget: at most N orphaned pairs re-placed per epoch; the rest carry over [unbounded]"),
        flag("--compact-every", "N", "run a Stage-2 compaction pass every N applied epochs (skipped while repairs are deferred or failed VMs are down) [off]"),
        flag("--compact-steps", "N", "local-search moves per compaction pass (steps, never wall-clock — replay stays deterministic) [2048]"),
        flag("--sync-retries", "N", "retry a failed epoch fsync N times [0]"),
        flag("--retry-backoff-ms", "N", "sleep between fsync retries [0]"),
        EFFECTIVE,
        SCALE,
        flag("--summary", "FILE", "write a machine-readable run summary (JSON)"),
        flag("--simulate", "", "replay the final fleet through the broker sim"),
    ],
};

/// Where the event stream starts.
#[derive(Clone, Debug, PartialEq)]
pub enum Stream {
    /// A generated trace of `size` subscribers (or users) from `seed`.
    Generated {
        family: Family,
        size: usize,
        seed: u64,
    },
    /// An ingested `MCSSTOR1` store.
    Store(String),
}

#[derive(Clone, Debug)]
pub struct Opts {
    pub stream: Stream,
    pub tau: u64,
    pub instance: InstanceType,
    pub epochs: u64,
    pub epoch_events: Option<u64>,
    pub epoch_ms: Option<u64>,
    pub drift: DriftModel,
    pub dir: Option<String>,
    pub snapshot_every: u64,
    pub threads: usize,
    pub resume: bool,
    /// Failure drills by batch index, sorted.
    pub drill: Vec<(u64, KillSpec)>,
    pub repair_budget: Option<u64>,
    pub compact_every: Option<u64>,
    pub compact_steps: u64,
    pub sync_retries: u32,
    pub retry_backoff_ms: u64,
    pub calibration: Calibration,
    pub summary: Option<String>,
    pub simulate: bool,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    let family = args.parsed("--trace", Family::parse)?;
    let stream = match (family, args.text("--store")) {
        (Some(_), Some(_)) => {
            return Err("--trace and --store are mutually exclusive (one initial workload)".into())
        }
        (None, None) => {
            return Err("--trace is required: spotify | twitter (or --store FILE)".into())
        }
        (None, Some(path)) => Stream::Store(path),
        (Some(family), None) => Stream::Generated {
            family,
            size: family.size(args, 2_000)?,
            seed: args.num_or("--seed", 42)?,
        },
    };
    let opts = Opts {
        stream,
        tau: args.num_or("--tau", 100)?,
        instance: args.instance()?,
        epochs: args
            .nonzero("--epochs", "must be at least 1")?
            .unwrap_or(10),
        epoch_events: args.nonzero("--epoch-events", "must be positive")?,
        epoch_ms: args.nonzero("--epoch-ms", "must be positive")?,
        drift: args.drift()?,
        dir: args.text("--dir"),
        snapshot_every: args.num_or("--snapshot-every", 8)?,
        threads: args
            .nonzero("--threads", "must be at least 1")?
            .unwrap_or(1),
        resume: args.switch("--resume"),
        drill: args
            .parsed("--drill", parse_drill_schedule)?
            .unwrap_or_default(),
        repair_budget: args.nonzero(
            "--repair-budget",
            "must be positive (omit it to drain unbounded)",
        )?,
        compact_every: args.nonzero(
            "--compact-every",
            "must be positive (omit it to disable compaction)",
        )?,
        compact_steps: args
            .nonzero("--compact-steps", "must be positive")?
            .unwrap_or(2_048),
        sync_retries: args.num_or("--sync-retries", 0)?,
        retry_backoff_ms: args.num_or("--retry-backoff-ms", 0)?,
        calibration: args.calibration()?,
        summary: args.text("--summary"),
        simulate: args.switch("--simulate"),
    };
    if opts.epoch_events.is_some() && opts.epoch_ms.is_some() {
        return Err("--epoch-events and --epoch-ms are mutually exclusive".into());
    }
    if opts.resume && opts.epoch_ms.is_some() {
        return Err(
            "--resume cannot replay wall-clock epochs; use --epoch-events or the \
             default one-epoch-per-batch mode"
                .into(),
        );
    }
    if opts.resume && opts.dir.is_none() {
        return Err("--resume needs --dir (the state directory to recover)".into());
    }
    if opts.resume && !opts.drill.is_empty() {
        return Err(
            "--drill cannot be combined with --resume: the drill's failure events \
             are already in the recovered log"
                .into(),
        );
    }
    if args.switch("--compact-steps") && opts.compact_every.is_none() {
        return Err("--compact-steps needs --compact-every".into());
    }
    Ok(opts)
}

/// Streams the drift batches through the daemon, one line per epoch.
pub fn run(opts: Opts) -> Result<(), String> {
    let tau = Rate::new(opts.tau);
    let cost = opts.calibration.cost_model(opts.instance);
    let capacity = cost.capacity();
    let state_dir = opts
        .dir
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("mcss-serve-{}", std::process::id())));
    let mut config = ServeConfig::new(tau, capacity)
        .with_snapshot_every(opts.snapshot_every)
        .with_threads(opts.threads)
        .with_sync_retries(opts.sync_retries, opts.retry_backoff_ms);
    if let Some(events) = opts.epoch_events {
        config = config.with_epoch_events(events);
    }
    if let Some(pairs) = opts.repair_budget {
        config = config.with_repair_budget(pairs);
    }
    if let Some(every) = opts.compact_every {
        config = config.with_compaction(every, opts.compact_steps);
    }
    let cost_box: Box<dyn CostModel> = Box::new(cost);
    let mut daemon = if opts.resume {
        Daemon::resume(&state_dir, config, cost_box)
    } else {
        Daemon::create(&state_dir, config, cost_box)
    }
    .map_err(|e| e.to_string())?;
    if opts.resume {
        println!(
            "recovered {} applied epochs, {} pending events from {}",
            daemon.epochs_applied(),
            daemon.pending_events(),
            state_dir.display()
        );
    }

    // The stream label doubles as the summary JSON's "trace".
    let (initial, label, size) = match &opts.stream {
        Stream::Store(path) => {
            let initial = load_store(path)?;
            let size = initial.num_subscribers();
            (initial, format!("store:{path}"), size)
        }
        Stream::Generated { family, size, seed } => (
            family.generate(*size, *seed),
            family.name().to_string(),
            *size,
        ),
    };
    let mut driver = Driver::new(initial, opts.drift);
    let epochs = opts.epochs;
    println!(
        "serving {epochs} {label} drift batches (tau {}, capacity {}, state {})",
        opts.tau,
        capacity.get(),
        state_dir.display()
    );

    // A resumed daemon has already absorbed a prefix of the
    // deterministic driver stream: whole batches in per-batch
    // mode, an exact event count in watermark mode. Skip it.
    let mut skip_events = match (opts.resume, opts.epoch_events) {
        (true, Some(watermark)) => daemon.epochs_applied() * watermark + daemon.pending_events(),
        _ => 0,
    };
    let skip_batches = if opts.resume && opts.epoch_events.is_none() {
        daemon.epochs_applied()
    } else {
        0
    };

    let mut stats: Vec<EpochStats> = Vec::new();
    let mut record = |s: Option<EpochStats>| {
        if let Some(s) = s {
            print_epoch(&s);
            stats.push(s);
        }
    };
    let mut total_events = 0u64;
    let started = Instant::now();
    let mut last_tick = Instant::now();
    for batch_index in 0..epochs {
        let events = if batch_index == 0 {
            driver.initial_events()
        } else {
            driver.next_epoch_events()
        };
        if batch_index < skip_batches {
            continue; // the driver still had to advance its RNG
        }
        for event in events {
            if skip_events > 0 {
                skip_events -= 1;
                continue;
            }
            total_events += 1;
            record(daemon.submit(event).map_err(|e| e.to_string())?);
        }
        // Scheduled failure drills land after the batch's drift
        // events, so the kill and its budgeted repair fold into
        // this epoch.
        for (epoch_at, spec) in &opts.drill {
            if *epoch_at != batch_index {
                continue;
            }
            let fleet = daemon.allocation().map(|a| a.vm_count()).unwrap_or(0);
            let (slots, missing) = resolve_kill(spec, fleet);
            println!("drill at batch {batch_index}: killing VMs {slots:?}");
            report_missing(&missing);
            for slot in slots {
                total_events += 1;
                record(
                    daemon
                        .submit(Event::VmFail { slot })
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        match (opts.epoch_events, opts.epoch_ms) {
            (Some(_), _) => {} // the watermark closes epochs
            (None, Some(ms)) => {
                if last_tick.elapsed().as_millis() as u64 >= ms {
                    record(daemon.tick().map_err(|e| e.to_string())?);
                    last_tick = Instant::now();
                }
            }
            (None, None) => record(daemon.tick().map_err(|e| e.to_string())?),
        }
    }
    // Flush whatever is still buffered in the final epoch.
    record(daemon.tick().map_err(|e| e.to_string())?);
    // A tight --repair-budget can leave orphans queued past the
    // last batch; keep closing repair-only epochs until healed.
    while daemon.pending_repairs() > 0 {
        match daemon.tick().map_err(|e| e.to_string())? {
            Some(s) => record(Some(s)),
            None => break,
        }
    }
    let elapsed = started.elapsed();

    if let Some(allocation) = daemon.allocation() {
        let workload = daemon.workload().expect("an allocation implies a workload");
        allocation
            .validate(workload, tau)
            .map_err(|e| format!("internal error — invalid allocation: {e}"))?;
        if opts.simulate {
            let (_, ok) = simulate(workload, &allocation, tau);
            print_sim_verdict("simulation", ok);
        }
    }
    let events_per_sec = total_events as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "served {} epochs / {} events in {:.2}s ({:.0} events/s); state in {}",
        stats.len(),
        total_events,
        elapsed.as_secs_f64(),
        events_per_sec,
        state_dir.display()
    );

    if let Some(path) = opts.summary {
        let mut apply_ms: Vec<f64> = stats
            .iter()
            .map(|s| s.apply_time.as_secs_f64() * 1e3)
            .collect();
        apply_ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let pct = |p: f64| -> f64 {
            if apply_ms.is_empty() {
                0.0
            } else {
                apply_ms[(((apply_ms.len() - 1) as f64) * p).round() as usize]
            }
        };
        let compaction_moves: u64 = stats.iter().map(|s| s.compaction_moves).sum();
        let json = format!(
            "{{\n  \"trace\": \"{label}\",\n  \"subscribers\": {size},\n  \
             \"epochs\": {},\n  \"events\": {total_events},\n  \
             \"duration_s\": {:.3},\n  \"events_per_sec\": {events_per_sec:.1},\n  \
             \"apply_ms_p50\": {:.3},\n  \"apply_ms_p99\": {:.3},\n  \
             \"compaction_moves\": {compaction_moves},\n  \
             \"final_vms\": {},\n  \"final_cost\": \"{}\",\n  \"resumed\": {}\n}}\n",
            stats.len(),
            elapsed.as_secs_f64(),
            pct(0.5),
            pct(0.99),
            stats.last().map(|s| s.vm_count).unwrap_or(0),
            stats
                .last()
                .map(|s| s.fleet_cost.to_string())
                .unwrap_or_default(),
            opts.resume,
        );
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("summary written to {path}");
    }
    Ok(())
}

/// One stdout line per applied epoch, shared by every serve mode.
fn print_epoch(s: &EpochStats) {
    let repair = if s.vms_failed > 0 || s.pairs_repaired > 0 || s.repair_deferred > 0 {
        format!(
            " [{} VMs failed, {} pairs repaired, {} deferred]",
            s.vms_failed, s.pairs_repaired, s.repair_deferred
        )
    } else {
        String::new()
    };
    let compaction = if s.compaction_moves > 0 {
        format!(
            " [compacted: {} moves, saved {}]",
            s.compaction_moves, s.compaction_saved
        )
    } else {
        String::new()
    };
    println!(
        "epoch {:>3}: {:>5} events, {:>4} VMs, cost {}, +{} -{} pairs (evicted {}, reused {}), {:.2} ms{}{}{compaction}",
        s.epoch,
        s.events_applied,
        s.vm_count,
        s.fleet_cost,
        s.pairs_placed,
        s.pairs_removed,
        s.pairs_evicted,
        s.pairs_reused,
        s.apply_time.as_secs_f64() * 1e3,
        if s.full_resolve { " [full solve]" } else { "" },
        repair,
    );
}

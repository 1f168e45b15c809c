//! End-to-end benchmark of the MCSS allocator: cold plans (store load →
//! GSP → CBP → Alg. 5 bound) and open-loop serve epochs through the
//! event-sourced daemon, with a separate traced run that times each
//! layer from outside. See `README.md` in this directory.

pub mod check;
pub mod gen;
pub mod serve;
pub mod trace;

use crate::check::check;
use crate::gen::{Drift, Kills};
use crate::serve::{open_loop, Counters, LoopStats, ReDrive, Setup};
use crate::trace::{Tracer, NO_EPOCH};
use cloud_cost::{instances, Ec2CostModel, Money};
use mcss_bench::scenario::Scenario;
use mcss_core::serve::{Daemon, EventLog, ServeConfig, Snapshot, LOG_FILE, SNAPSHOT_FILE};
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{lower_bound, Allocation, LowerBound, McssInstance};
use mcss_store::WorkloadStoreExt;
use pubsub_model::{Bandwidth, Rate, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which generated trace a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `Scenario::spotify`: sparse interests, many small topics.
    Spotify,
    /// `Scenario::twitter`: dense topic sharing, heavy-tailed rates.
    Twitter,
}

/// One benchmark workload. Every workload runs the same pipeline —
/// set-up, cold plans, open-loop serve epochs, crash and resume — and
/// the fields decide where its time goes.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Trace family.
    pub family: Family,
    /// Subscribers (Spotify) or users (Twitter).
    pub size: usize,
    /// Share of subscribers that swap one interest per epoch.
    pub churn: f64,
    /// Log-normal σ of per-epoch topic re-rates (`0`: none).
    pub sigma: f64,
    /// Open-loop epoch period; the offered rate is one epoch's batch
    /// per period.
    pub period: Duration,
    /// Share of `--seconds` given to cold plans; the rest serves.
    pub plan_share: f64,
    /// Scheduled VM failures and recoveries.
    pub kills: Option<Kills>,
    /// Daemon repair budget (pairs per epoch).
    pub repair_budget: Option<u64>,
    /// Daemon compaction cadence (epochs) and step budget.
    pub compact: Option<(u64, u64)>,
    /// Daemon snapshot cadence (epochs); positive.
    pub snapshot_every: u64,
}

/// Satisfaction threshold `τ` of every workload.
const TAU: Rate = Rate::new(100);

/// Set-ups per run: at least this many, and more while they take less
/// than [`SETUP_SHARE`] of `--seconds`; `setup_s` is their median.
const SETUPS: usize = 3;

/// Share of `--seconds` that extra set-ups may take.
const SETUP_SHARE: f64 = 0.05;

/// Epochs past the last snapshot that every resume replays.
const RESUME_TAIL: usize = 2;

/// Generator seed of every workload's instance (the seed the figure
/// harness uses for its Twitter trace).
const TRACE_SEED: u64 = 20131030;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["plan-twitter", "serve-trickle", "serve-churn"];

/// The specification of workload `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        family: Family::Spotify,
        size: 0,
        churn: 0.001,
        sigma: 0.0,
        period: Duration::from_millis(300),
        plan_share: 0.2,
        kills: None,
        repair_budget: None,
        compact: None,
        snapshot_every: 10,
    };
    match name {
        // Cold plans of a dense-sharing instance: the time goes to
        // store, Stage 1 and Stage 2. A short trickle leg closes the run
        // so that it reports the same serve metrics as the others.
        "plan-twitter" => Some(Spec {
            name: "plan-twitter",
            family: Family::Twitter,
            size: 200_000,
            period: Duration::from_millis(200),
            plan_share: 0.5,
            snapshot_every: 40,
            ..base
        }),
        // Δ ≪ n: ~1k churned subscribers per epoch at 1M, no re-rates,
        // so epoch time shows the per-epoch O(n) floor.
        "serve-trickle" => Some(Spec {
            name: "serve-trickle",
            size: 1_000_000,
            snapshot_every: 20,
            ..base
        }),
        // Δ-proportional work: 5% churn plus re-rates dirty nearly every
        // row; VM kills are repaired under a budget, recovered, and
        // compaction runs between them.
        "serve-churn" => Some(Spec {
            name: "serve-churn",
            size: 100_000,
            churn: 0.05,
            sigma: 0.05,
            period: Duration::from_millis(120),
            plan_share: 0.4,
            kills: Some(Kills {
                first: 5,
                every: 30,
                vms: 4,
                recover_after: 20,
                slot_range: 32,
            }),
            repair_budget: Some(200),
            compact: Some((10, 2_048)),
            snapshot_every: 10,
            ..base
        }),
        _ => None,
    }
}

impl Spec {
    /// Serve epochs for a run of `seconds`: as many whole snapshot
    /// cycles as fit, plus [`RESUME_TAIL`] epochs, so that the final
    /// resume always loads a snapshot and replays the same short tail.
    pub fn epochs(&self, seconds: f64) -> usize {
        let fit = ((1.0 - self.plan_share) * seconds / self.period.as_secs_f64()) as usize;
        let cycles = (fit.saturating_sub(RESUME_TAIL) / self.snapshot_every as usize).max(1);
        cycles * self.snapshot_every as usize + RESUME_TAIL
    }

    /// The workload's fixed instance. Generated traces vary a lot
    /// between generator seeds (heavy-tailed topic popularity moves the
    /// fleet by ~10%), so the instance is a fixed data set per workload
    /// and `--seed` drives the traffic — drift, churn picks, re-rate noise
    /// and VM kills — against it.
    fn scenario(&self) -> Scenario {
        match self.family {
            Family::Spotify => Scenario::spotify(self.size, TRACE_SEED),
            Family::Twitter => Scenario::twitter(self.size, TRACE_SEED),
        }
    }

    fn config(&self, capacity: Bandwidth) -> ServeConfig {
        let mut config = ServeConfig::new(TAU, capacity).with_snapshot_every(self.snapshot_every);
        if let Some(pairs) = self.repair_budget {
            config = config.with_repair_budget(pairs);
        }
        if let Some((every, steps)) = self.compact {
            config = config.with_compaction(every, steps);
        }
        config
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result: its correctness tally and its metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: plans, events, epochs, fleet checks and
    /// resumes.
    pub attempted: u64,
    /// Operations that failed: rejected events, invariant violations,
    /// mismatches between runs that must be identical.
    pub failed: u64,
    /// Metrics, end-to-end (untraced run) or per-layer (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {what}");
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Resident set size of this process in MiB, after handing the
/// allocator's free pages back to the kernel so that it counts live
/// memory rather than how fragmented the heap happens to be.
pub fn rss_mb() -> Result<f64, String> {
    trim_heap();
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".into())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
    // free heap pages to the kernel and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// The inputs of one run, all generated before anything is timed.
struct Inputs {
    spec: Spec,
    seed: u64,
    seconds: f64,
    epochs: usize,
    workload: Arc<Workload>,
    cost: Ec2CostModel,
    setup: Setup,
}

impl Inputs {
    fn new(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
        let scenario = spec.scenario();
        let cost = scenario.cost_model(instances::C3_LARGE);
        let setup = Setup {
            config: spec.config(cost.capacity()),
            cost: cost.clone(),
        };
        Inputs {
            spec: spec.clone(),
            seed,
            seconds,
            epochs: spec.epochs(seconds),
            workload: scenario.workload,
            cost,
            setup,
        }
    }

    fn tau(&self) -> Rate {
        self.setup.config.tau
    }

    fn capacity(&self) -> Bandwidth {
        self.setup.config.capacity
    }

    fn batches(&self) -> Vec<gen::Batch> {
        let drift = Drift {
            churn: self.spec.churn,
            sigma: self.spec.sigma,
            max_rate: Rate::new((self.capacity().get() / 4).max(1)),
        };
        gen::batches(
            &self.workload,
            drift,
            self.spec.kills,
            self.epochs,
            self.seed,
        )
    }
}

/// What the cold plans measured: the first plan's fleet, which every
/// later plan must reproduce exactly, and every timed plan.
struct Plans {
    times_s: Vec<f64>,
    fleet: Allocation,
    bound: LowerBound,
    pairs: u64,
    /// The Alg. 5 bound on the first plan's workload, priced.
    bound_cost: Money,
}

/// One window of cold plans of the stored workload: until half the
/// workload's plan share of `--seconds` is spent, and at least three
/// timed after one untimed warm-up plan that lets the allocator's heap
/// grow. Each run has two windows, before and after the serve phase, so
/// that the median spans more of the machine's slow and fast spells. The first plan ever is checked in full and kept in
/// `plans`; every later plan must reproduce it exactly.
fn plan_window(
    inputs: &Inputs,
    store: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
    plans: &mut Option<Plans>,
) -> Result<(), String> {
    let (tau, capacity, cost) = (inputs.tau(), inputs.capacity(), &inputs.cost);
    let budget = Duration::from_secs_f64(inputs.spec.plan_share * inputs.seconds / 2.0);
    let started = Instant::now();
    let mut timed = 0;
    let mut warm = false;
    while timed < 3 || started.elapsed() < budget {
        let t0 = Instant::now();
        let workload = tracer
            .span("store.load", NO_EPOCH, || Workload::from_store(store))
            .map_err(|e| e.to_string())?;
        let instance =
            McssInstance::new(Arc::new(workload), tau, capacity).map_err(|e| e.to_string())?;
        let selection = tracer
            .span("stage1.select", NO_EPOCH, || {
                GreedySelectPairs::new().select(&instance)
            })
            .map_err(|e| e.to_string())?;
        let fleet = tracer
            .span("stage2.allocate", NO_EPOCH, || {
                CustomBinPacking::new(CbpConfig::full()).allocate(
                    instance.workload(),
                    &selection,
                    capacity,
                    cost,
                )
            })
            .map_err(|e| e.to_string())?;
        let bound = tracer.span("lower_bound", NO_EPOCH, || {
            lower_bound(instance.workload(), tau, capacity)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let pairs = selection.pair_count();
        match plans {
            None => {
                let claimed = fleet.cost(cost);
                let verdict = check(instance.workload(), &fleet, tau, capacity, cost, claimed);
                out.op(
                    verdict.ok(),
                    &format!("cold plan check: {:?}", verdict.violations),
                );
                *plans = Some(Plans {
                    times_s: Vec::new(),
                    fleet,
                    bound,
                    pairs,
                    bound_cost: verdict.lower_bound,
                });
            }
            Some(first) => {
                out.op(
                    fleet == first.fleet && bound == first.bound && pairs == first.pairs,
                    "a repeated cold plan differs from the first",
                );
                if warm {
                    first.times_s.push(elapsed);
                    timed += 1;
                }
            }
        }
        warm = true;
    }
    Ok(())
}

/// Set-up, repeated at least [`SETUPS`] times and while the repeats take
/// less than [`SETUP_SHARE`] of `--seconds`: write the workload store
/// and bootstrap a server with its full solve. Returns the last server
/// with its bootstrap counters, the set-up times and the store write
/// times.
fn set_up<S>(
    inputs: &Inputs,
    store: &Path,
    mut bootstrap: impl FnMut() -> Result<(S, Counters), String>,
) -> Result<(S, Counters, Vec<f64>, Vec<f64>), String> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut write_ms = Vec::new();
    let mut last = None;
    while setup_s.len() < SETUPS || started.elapsed().as_secs_f64() < SETUP_SHARE * inputs.seconds {
        drop(last.take());
        let t0 = Instant::now();
        inputs.workload.to_store(store).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        last = Some(bootstrap()?);
        setup_s.push(t0.elapsed().as_secs_f64());
        write_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    let (server, counters) = last.expect("at least one set-up");
    Ok((server, counters, setup_s, write_ms))
}

/// Counts the loop's events, epochs and rejections, and checks that every
/// scheduled VM failure took effect.
fn tally_loop(out: &mut Outcome, stats: &LoopStats, expected_fails: &[usize]) {
    out.attempted += stats.events + stats.counters.len() as u64;
    out.failed += stats.rejected;
    if stats.rejected > 0 {
        eprintln!("failed: {} events rejected", stats.rejected);
    }
    for (k, (c, &want)) in stats.counters.iter().zip(expected_fails).enumerate() {
        if c.vms_failed != want {
            out.failed += 1;
            eprintln!(
                "failed: epoch {k} failed {} VMs, {want} were killed",
                c.vms_failed
            );
        }
    }
}

fn expected_fails(batches: &[gen::Batch]) -> Vec<usize> {
    batches
        .iter()
        .map(|b| {
            b.iter()
                .filter(|e| matches!(e, mcss_core::serve::Event::VmFail { .. }))
                .count()
        })
        .collect()
}

/// The live daemon's final state, kept across its crash.
struct Live {
    workload: Workload,
    selection: mcss_core::Selection,
    allocation: Allocation,
    cost: Money,
}

impl Live {
    fn capture(daemon: &Daemon, cost: Money) -> Result<Live, String> {
        let missing = || "the daemon has applied no epoch".to_string();
        Ok(Live {
            workload: daemon.workload().ok_or_else(missing)?.clone(),
            selection: daemon.selection().ok_or_else(missing)?.clone(),
            allocation: daemon.allocation().ok_or_else(missing)?,
            cost,
        })
    }

    /// Checks a resumed daemon: bit-identical to the live one, and a
    /// valid fleet.
    fn check_resumed(&self, resumed: &Daemon, inputs: &Inputs, out: &mut Outcome) {
        let identical = resumed.workload() == Some(&self.workload)
            && resumed.selection() == Some(&self.selection)
            && resumed.allocation().as_ref() == Some(&self.allocation);
        out.op(identical, "the resumed daemon differs from the live one");
        if let Some(allocation) = resumed.allocation() {
            let verdict = check(
                &self.workload,
                &allocation,
                inputs.tau(),
                inputs.capacity(),
                &inputs.cost,
                self.cost,
            );
            out.op(
                verdict.ok(),
                &format!("resumed fleet check: {:?}", verdict.violations),
            );
        }
    }
}

/// Runs workload `spec` with inputs from `seed`, measuring for about
/// `seconds`, with state files under `state` (created, and left for the
/// caller to remove). The untraced run reports the end-to-end metrics;
/// the traced run reports per-layer metrics.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    state: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(state).map_err(|e| e.to_string())?;
    let inputs = Inputs::new(spec, seed, seconds);
    let initial = gen::initial_events(&inputs.workload);
    let batches = inputs.batches();
    let expected = expected_fails(&batches);
    let store = state.join("workload.mcss");
    let serve_dir = state.join("serve");
    let mut out = Outcome::default();
    let mut plan_tracer = Tracer::new(traced);
    if traced {
        run_traced(
            &inputs,
            initial,
            batches,
            &expected,
            &store,
            state,
            &mut plan_tracer,
            &mut out,
        )?;
        return Ok(out);
    }

    let (mut daemon, _, setup_s, _) = set_up(&inputs, &store, || {
        inputs.setup.daemon(&serve_dir, &initial)
    })?;
    drop(initial);
    let mut plans = None;
    plan_window(&inputs, &store, &mut plan_tracer, &mut out, &mut plans)?;
    let stats = open_loop(&mut daemon, batches, spec.period)?;
    let rss = rss_mb()?;
    tally_loop(&mut out, &stats, &expected);

    let final_cost = stats
        .counters
        .last()
        .ok_or("no serve epoch ran")?
        .fleet_cost;
    let live = Live::capture(&daemon.0, final_cost)?;
    let verdict = check(
        &live.workload,
        &live.allocation,
        inputs.tau(),
        inputs.capacity(),
        &inputs.cost,
        final_cost,
    );
    out.op(
        verdict.ok(),
        &format!("final fleet check: {:?}", verdict.violations),
    );
    drop(daemon);
    let resumed = Daemon::resume(
        &serve_dir,
        inputs.setup.config,
        Box::new(inputs.cost.clone()),
    )
    .map_err(|e| e.to_string())?;
    live.check_resumed(&resumed, &inputs, &mut out);
    drop(resumed);
    plan_window(&inputs, &store, &mut plan_tracer, &mut out, &mut plans)?;
    let plans = plans.expect("plans ran");

    out.push("setup_s", median(&setup_s), "s");
    out.push("fleet_cost_usd", final_cost.as_dollars_f64(), "usd");
    out.push(
        "lb_gap",
        final_cost.as_dollars_f64() / verdict.lower_bound.as_dollars_f64(),
        "ratio",
    );
    out.push("events_per_s", stats.events as f64 / stats.busy_s, "1/s");
    out.push(
        "freshness_ms_p50",
        percentile(&stats.freshness_ms, 0.5),
        "ms",
    );
    let p90 = percentile(&stats.freshness_ms, 0.9);
    let epochs_beyond = stats
        .epoch_freshness_max_ms
        .iter()
        .filter(|&&f| f > p90)
        .count();
    if epochs_beyond < 10 {
        eprintln!("warning: only {epochs_beyond} epochs lie beyond the freshness p90");
    }
    out.push("freshness_ms_p90", p90, "ms");
    out.push("epoch_ms_p50", median(&stats.epoch_ms), "ms");
    out.push("rss_mb", rss, "MiB");
    eprintln!(
        "{}: {} plans, {} epochs, {} events, {} VMs, plan gap {:.4}, generator late ≤ {:.3} ms",
        spec.name,
        plans.times_s.len(),
        stats.counters.len(),
        stats.events,
        live.allocation.vm_count(),
        plans.fleet.cost(&inputs.cost).as_dollars_f64() / plans.bound_cost.as_dollars_f64(),
        stats.late_ms_max
    );
    Ok(out)
}

/// The traced run: the same set-up, plans and open-loop serve phase with
/// a span around every layer call, the serve epochs re-driven from
/// outside; then the daemon itself on the same inputs, whose per-epoch
/// counters and final state the re-drive must reproduce exactly.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    inputs: &Inputs,
    initial: gen::Batch,
    batches: Vec<gen::Batch>,
    expected: &[usize],
    store: &Path,
    state: &Path,
    plan_tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = &inputs.spec;
    let redrive_dir = state.join("redrive");
    let daemon_dir = state.join("serve");

    let (mut redrive, redrive_boot, _, write_ms) = set_up(inputs, store, || {
        ReDrive::create(&inputs.setup, &redrive_dir, &initial)
    })?;
    let mut plans = None;
    plan_window(inputs, store, plan_tracer, out, &mut plans)?;
    let traced = open_loop(&mut redrive, batches, spec.period)?;
    tally_loop(out, &traced, expected);
    let (re_selection, re_allocation) = redrive.state().ok_or("re-drive applied no epoch")?;
    let log_bytes = file_len(&redrive_dir.join(LOG_FILE));
    let ReDrive { tracer, totals, .. } = redrive;
    out.attempted += totals.checks;
    out.failed += totals.check_failures;

    let (mut daemon, daemon_boot) = inputs.setup.daemon(&daemon_dir, &initial)?;
    drop(initial);
    let untraced = open_loop(&mut daemon, inputs.batches(), spec.period)?;
    out.op(
        redrive_boot == daemon_boot,
        "bootstrap counters differ from the daemon's",
    );
    for (k, (a, b)) in traced.counters.iter().zip(&untraced.counters).enumerate() {
        out.op(
            a == b,
            &format!("epoch {} counters: re-drive {a:?}, daemon {b:?}", k + 1),
        );
    }
    out.op(
        traced.counters.len() == untraced.counters.len()
            && daemon.0.selection() == Some(&re_selection)
            && daemon.0.allocation().as_ref() == Some(&re_allocation),
        "the re-drive's final state differs from the daemon's",
    );

    let final_cost = untraced
        .counters
        .last()
        .ok_or("no serve epoch ran")?
        .fleet_cost;
    let live = Live::capture(&daemon.0, final_cost)?;
    drop(daemon);
    let t0 = Instant::now();
    let snapshot = Snapshot::load(&daemon_dir.join(SNAPSHOT_FILE)).map_err(|e| e.to_string())?;
    let snapshot_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (log, records) = EventLog::open(&daemon_dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
    let replayed = records.iter().filter(|r| r.seq > snapshot.last_seq).count();
    drop((log, records, snapshot));
    let t0 = Instant::now();
    let resumed = Daemon::resume(
        &daemon_dir,
        inputs.setup.config,
        Box::new(inputs.cost.clone()),
    )
    .map_err(|e| e.to_string())?;
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    live.check_resumed(&resumed, inputs, out);
    drop(resumed);
    plan_window(inputs, store, plan_tracer, out, &mut plans)?;
    let plans = plans.expect("plans ran");

    // Epoch 0 is the bootstrap full solve: layer figures cover the
    // measured epochs only.
    let serve = |name: &str| -> Vec<f64> {
        tracer
            .named(name)
            .filter(|s| s.epoch > 0)
            .map(|s| s.ms())
            .collect()
    };
    let serve_total = |name: &str| serve(name).iter().sum::<f64>();
    let measured = &totals.changed[1..];
    let epochs = measured.len() as u64;
    let changed_subs: u64 = measured.iter().map(|c| c.0).sum();
    let changed_topics: u64 = measured.iter().map(|c| c.1).sum();
    let counters = &traced.counters;
    let sum = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    let coverage = tracer.epoch_coverage();
    let measured_cov = &coverage[1..];
    let epoch_ms: Vec<f64> = measured_cov.iter().map(|c| c.0).collect();
    let self_ms: Vec<f64> = measured_cov.iter().map(|c| c.0 - c.1).collect();
    let covered: f64 = measured_cov.iter().map(|c| c.1).sum();
    let serve_events: f64 = traced.events as f64;
    let edit_ms = serve_total("model.edit");
    let append_ms = serve_total("log.append");

    out.push("store.write_ms", median(&write_ms), "ms");
    out.push("store.bytes", file_len(store), "bytes");
    out.push(
        "store.load_ms",
        median(&plan_tracer.durations_ms("store.load")),
        "ms",
    );
    out.push(
        "stage1.select_ms",
        median(&plan_tracer.durations_ms("stage1.select")),
        "ms",
    );
    out.push("stage1.pairs_selected", plans.pairs as f64, "count");
    out.push(
        "stage2.allocate_ms",
        median(&plan_tracer.durations_ms("stage2.allocate")),
        "ms",
    );
    out.push("stage2.vms", plans.fleet.vm_count() as f64, "count");
    out.push(
        "stage2.lb_gap",
        plans.fleet.cost(&inputs.cost).as_dollars_f64() / plans.bound_cost.as_dollars_f64(),
        "ratio",
    );
    out.push(
        "lower_bound.ms",
        median(&plan_tracer.durations_ms("lower_bound")),
        "ms",
    );
    out.push("plan.ms", median(&plans.times_s) * 1e3, "ms");
    out.push(
        "model.edit_ns_per_event",
        edit_ms * 1e6 / serve_events,
        "ns/event",
    );
    out.push("model.commit_ms", median(&serve("model.commit")), "ms");
    out.push(
        "model.changed_subs",
        ratio(changed_subs as f64, epochs as f64),
        "count/epoch",
    );
    out.push(
        "model.changed_topics",
        ratio(changed_topics as f64, epochs as f64),
        "count/epoch",
    );
    out.push(
        "incremental.step_ms",
        median(&serve("incremental.step")),
        "ms",
    );
    out.push("incremental.pairs_placed", sum(|c| c.placed), "count");
    out.push("incremental.pairs_removed", sum(|c| c.removed), "count");
    out.push("incremental.pairs_evicted", sum(|c| c.evicted), "count");
    out.push("incremental.pairs_reused", sum(|c| c.reused), "count");
    out.push(
        "incremental.full_resolves",
        sum(|c| u64::from(c.full_resolve)),
        "count",
    );
    out.push(
        "incremental.step_us_per_changed_sub",
        serve_total("incremental.step") * 1e3 / changed_subs.max(1) as f64,
        "us/sub",
    );
    out.push("repair.ms", mean(&serve("repair")), "ms");
    out.push("repair.pairs_replaced", totals.repaired as f64, "count");
    out.push(
        "repair.pairs_deferred",
        totals.deferred as f64,
        "pair-epochs",
    );
    out.push("compact.ms", mean(&serve("compact")), "ms");
    out.push("compact.moves", totals.compact_moves as f64, "count");
    out.push(
        "compact.saved_usd",
        totals.compact_saved.as_dollars_f64(),
        "usd",
    );
    out.push("compact.passes_run", totals.compact_run as f64, "count");
    out.push("compact.passes_due", totals.compact_due as f64, "count");
    out.push(
        "compact.run_ratio",
        ratio(totals.compact_run as f64, totals.compact_due as f64),
        "ratio",
    );
    out.push("ledger.export_ms", median(&serve("ledger.export")), "ms");
    out.push(
        "log.append_ns_per_event",
        append_ms * 1e6 / serve_events,
        "ns/event",
    );
    out.push(
        "log.bytes_per_event",
        log_bytes / totals.events as f64,
        "bytes/event",
    );
    out.push("log.sync_ms", median(&serve("log.sync")), "ms");
    out.push("log.fsyncs", totals.fsyncs as f64, "count");
    out.push("snapshot.write_ms", mean(&serve("snapshot.write")), "ms");
    out.push("snapshot.bytes", totals.snapshot_bytes as f64, "bytes");
    out.push("snapshot.load_ms", snapshot_load_ms, "ms");
    out.push("resume.ms", resume_ms, "ms");
    out.push("resume.replay_ms", resume_ms - snapshot_load_ms, "ms");
    out.push("resume.replayed_events", replayed as f64, "count");
    out.push("epoch.traced_ms_p50", median(&epoch_ms), "ms");
    out.push("epoch.self_ms_p50", median(&self_ms), "ms");
    out.push(
        "trace.coverage",
        covered / epoch_ms.iter().sum::<f64>(),
        "ratio",
    );
    out.push(
        "trace.overhead_pct",
        (median(&epoch_ms) / median(&untraced.epoch_ms) - 1.0) * 100.0,
        "%",
    );
    out.push("gen_late_ms_max", untraced.late_ms_max, "ms");
    eprintln!(
        "{} traced: {} epochs re-driven and compared, {} plans",
        spec.name,
        counters.len(),
        plans.times_s.len()
    );
    Ok(())
}

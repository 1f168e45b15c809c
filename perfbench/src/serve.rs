//! The serve side: an open-loop event generator that drives either the
//! real `Daemon` or, in the traced run, a re-drive of the daemon's epoch
//! through the same public calls with a span around each.

use crate::check::check;
use crate::gen::{send_offsets, Batch};
use crate::trace::Tracer;
use cloud_cost::{CostModel, Ec2CostModel, Money};
use mcss_core::dynamic::WorkloadDelta;
use mcss_core::incremental::{IncrementalConfig, IncrementalReallocator, SlaBudget};
use mcss_core::serve::{Daemon, EpochStats, Event, EventLog, ServeConfig, Snapshot};
use mcss_core::serve::{LOG_FILE, SNAPSHOT_FILE};
use mcss_core::{Allocation, McssInstance, SearchBudget, Selection};
use pubsub_model::{Workload, WorkloadEdit};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-epoch counters the daemon reports, which the re-drive must
/// reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Pairs newly placed.
    pub placed: u64,
    /// Pairs removed.
    pub removed: u64,
    /// Pairs evicted from overflowing VMs.
    pub evicted: u64,
    /// Selected pairs reused by dirty tracking.
    pub reused: u64,
    /// Whether the epoch re-solved from scratch.
    pub full_resolve: bool,
    /// VMs failed this epoch.
    pub vms_failed: usize,
    /// Orphaned pairs re-placed this epoch.
    pub repaired: u64,
    /// Orphaned pairs still deferred.
    pub deferred: u64,
    /// Compaction moves.
    pub compaction_moves: u64,
    /// Cost saved by compaction.
    pub compaction_saved: Money,
    /// Live VMs.
    pub vm_count: usize,
    /// Fleet cost after the epoch.
    pub fleet_cost: Money,
}

impl From<&EpochStats> for Counters {
    fn from(s: &EpochStats) -> Counters {
        Counters {
            placed: s.pairs_placed,
            removed: s.pairs_removed,
            evicted: s.pairs_evicted,
            reused: s.pairs_reused,
            full_resolve: s.full_resolve,
            vms_failed: s.vms_failed,
            repaired: s.pairs_repaired,
            deferred: s.repair_deferred,
            compaction_moves: s.compaction_moves,
            compaction_saved: s.compaction_saved,
            vm_count: s.vm_count,
            fleet_cost: s.fleet_cost,
        }
    }
}

/// Something the open loop can feed: the daemon, or its re-drive.
pub trait Server {
    /// Submits events in order; returns how many the program rejected.
    fn submit(&mut self, events: &[Event]) -> Result<u64, String>;
    /// Closes the current epoch.
    fn tick(&mut self) -> Result<Counters, String>;
}

/// The daemon, driven only through `submit` and `tick`.
#[derive(Debug)]
pub struct DaemonServer(pub Daemon);

impl Server for DaemonServer {
    fn submit(&mut self, events: &[Event]) -> Result<u64, String> {
        let mut rejected = 0;
        for &event in events {
            match self.0.submit(event) {
                Ok(_) => {}
                Err(mcss_core::serve::ServeError::Rejected(_)) => rejected += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(rejected)
    }

    fn tick(&mut self) -> Result<Counters, String> {
        match self.0.tick().map_err(|e| e.to_string())? {
            Some(stats) => Ok(Counters::from(&stats)),
            None => Err("an epoch closed with nothing to apply".into()),
        }
    }
}

/// What one open-loop serve phase measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Caller-observed `tick` durations, one per epoch.
    pub epoch_ms: Vec<f64>,
    /// Per event: from its scheduled send until the `tick` that applied
    /// it returned.
    pub freshness_ms: Vec<f64>,
    /// Per epoch: the largest freshness among its events.
    pub epoch_freshness_max_ms: Vec<f64>,
    /// Seconds spent inside `submit` and `tick`.
    pub busy_s: f64,
    /// Events submitted.
    pub events: u64,
    /// Events the program rejected.
    pub rejected: u64,
    /// How late the generator sent its most overdue event.
    pub late_ms_max: f64,
    /// Per-epoch counters.
    pub counters: Vec<Counters>,
}

/// Drives `server` open-loop: the events of batch `k` are due evenly
/// over the period `[k·P, (k+1)·P)` and are submitted once due, whether
/// or not the server has kept up; the epoch closes with `tick` at
/// `(k+1)·P`, or as soon as the submissions finish when they run late.
pub fn open_loop(
    server: &mut dyn Server,
    batches: Vec<Batch>,
    period: Duration,
) -> Result<LoopStats, String> {
    let period_s = period.as_secs_f64();
    let mut stats = LoopStats::default();
    let origin = Instant::now() + Duration::from_millis(5);
    for (k, batch) in batches.into_iter().enumerate() {
        let base = k as f64 * period_s;
        let due: Vec<f64> = send_offsets(batch.len(), period_s)
            .map(|o| base + o)
            .collect();
        let mut i = 0;
        while i < batch.len() {
            let now = sleep_until(origin, due[i]);
            let j = i + due[i..].partition_point(|&d| d <= now);
            stats.late_ms_max = stats.late_ms_max.max((now - due[i]) * 1e3);
            let t0 = Instant::now();
            stats.rejected += server.submit(&batch[i..j])?;
            stats.busy_s += t0.elapsed().as_secs_f64();
            i = j;
        }
        sleep_until(origin, base + period_s);
        let t0 = Instant::now();
        stats.counters.push(server.tick()?);
        let t1 = Instant::now();
        stats.busy_s += (t1 - t0).as_secs_f64();
        stats.epoch_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let applied = t1.saturating_duration_since(origin).as_secs_f64();
        let mut worst = 0.0f64;
        for d in &due {
            let fresh = (applied - d) * 1e3;
            worst = worst.max(fresh);
            stats.freshness_ms.push(fresh);
        }
        stats.epoch_freshness_max_ms.push(worst);
        stats.events += batch.len() as u64;
    }
    Ok(stats)
}

/// Sleeps until `at` seconds after `origin`; returns the time then.
fn sleep_until(origin: Instant, at: f64) -> f64 {
    let now = Instant::now()
        .saturating_duration_since(origin)
        .as_secs_f64();
    if at > now {
        std::thread::sleep(Duration::from_secs_f64(at - now));
    }
    Instant::now()
        .saturating_duration_since(origin)
        .as_secs_f64()
}

/// Serve settings shared by the daemon and its re-drive.
#[derive(Clone, Debug)]
pub struct Setup {
    /// The daemon configuration.
    pub config: ServeConfig,
    /// The cost model.
    pub cost: Ec2CostModel,
}

impl Setup {
    /// A fresh daemon in `dir`, bootstrapped with `initial` and its first
    /// (full-solve) epoch applied.
    pub fn daemon(
        &self,
        dir: &Path,
        initial: &[Event],
    ) -> Result<(DaemonServer, Counters), String> {
        let _ = std::fs::remove_dir_all(dir);
        let daemon = Daemon::create(dir, self.config, Box::new(self.cost.clone()))
            .map_err(|e| e.to_string())?;
        let mut server = DaemonServer(daemon);
        let counters = bootstrap(&mut server, initial)?;
        Ok((server, counters))
    }
}

/// Submits the bootstrap batch and closes epoch 0.
pub fn bootstrap(server: &mut dyn Server, initial: &[Event]) -> Result<Counters, String> {
    let rejected = server.submit(initial)?;
    if rejected > 0 {
        return Err(format!("{rejected} bootstrap events were rejected"));
    }
    server.tick()
}

/// Epochs between fleet checks in the re-drive.
pub const CHECK_EVERY: u64 = 10;

/// Per-run totals of the re-driven epochs beyond what spans record.
#[derive(Clone, Debug, Default)]
pub struct ReDriveTotals {
    /// Events edited into the workload mirror.
    pub events: u64,
    /// Log records appended (events plus epoch marks).
    pub appended: u64,
    /// Log fsyncs.
    pub fsyncs: u64,
    /// Per epoch: changed subscribers and topics in the commit.
    pub changed: Vec<(u64, u64)>,
    /// Compaction passes due.
    pub compact_due: u64,
    /// Compaction passes that ran.
    pub compact_run: u64,
    /// Compaction moves.
    pub compact_moves: u64,
    /// Dollars saved by compaction.
    pub compact_saved: Money,
    /// Pairs re-placed by repair.
    pub repaired: u64,
    /// Carry-over queue length summed over epochs (pair-epochs).
    pub deferred: u64,
    /// Size of the last snapshot written.
    pub snapshot_bytes: u64,
    /// Fleet checks run at regular epochs.
    pub checks: u64,
    /// Fleet checks that found a violation.
    pub check_failures: u64,
}

/// The daemon's epoch, re-driven from outside through the public calls
/// the daemon itself makes, in the daemon's order, with a span around
/// each call. Between epochs it exports the fleet once more in
/// isolation (`ledger.export`) and, every [`CHECK_EVERY`] epochs, checks
/// it.
#[derive(Debug)]
pub struct ReDrive {
    setup: Setup,
    dir: PathBuf,
    log: EventLog,
    edit: WorkloadEdit,
    prev: Option<Arc<Workload>>,
    realloc: IncrementalReallocator,
    epochs_applied: u64,
    pending: u64,
    last_applied: u64,
    fleet_ops: Vec<Event>,
    /// The spans recorded so far.
    pub tracer: Tracer,
    /// Counts beyond the spans.
    pub totals: ReDriveTotals,
}

impl ReDrive {
    /// A fresh re-drive with its state in `dir`, bootstrapped with
    /// `initial` (epoch 0 is the full solve, traced like any other).
    pub fn create(
        setup: &Setup,
        dir: &Path,
        initial: &[Event],
    ) -> Result<(ReDrive, Counters), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let log = EventLog::create(&dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
        let mut redrive = ReDrive {
            setup: setup.clone(),
            dir: dir.to_path_buf(),
            log,
            edit: WorkloadEdit::new(),
            prev: None,
            realloc: IncrementalReallocator::new(
                IncrementalConfig::default().with_repair_threads(setup.config.threads),
            ),
            epochs_applied: 0,
            pending: 0,
            last_applied: 0,
            fleet_ops: Vec::new(),
            tracer: Tracer::new(true),
            totals: ReDriveTotals::default(),
        };
        let counters = bootstrap(&mut redrive, initial)?;
        Ok((redrive, counters))
    }

    /// The final selection and fleet.
    pub fn state(&self) -> Option<(Selection, Allocation)> {
        self.realloc
            .checkpoint()
            .map(|(s, l, c)| (s.clone(), l.to_allocation(c)))
    }

    fn epoch(&self) -> u32 {
        self.epochs_applied as u32
    }

    fn close_epoch(&mut self) -> Result<Counters, String> {
        let e = self.epoch();
        let config = self.setup.config;
        let cost = &self.setup.cost;
        let tracer = &mut self.tracer;
        let epoch_start = Instant::now();
        let mark_seq = tracer
            .span("log.append", e, || {
                self.log.append(Event::EpochMark {
                    epoch: self.epochs_applied,
                })
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("log.sync", e, || self.log.sync())
            .map_err(|e| e.to_string())?;
        self.totals.appended += 1;
        self.totals.fsyncs += 1;
        self.pending = 0;

        let edit = &mut self.edit;
        let prev = self.prev.as_deref();
        let committed = tracer.span("model.commit", e, || {
            let (workload, changed_topics, changed_subscribers) = edit.commit(prev);
            let delta = WorkloadDelta {
                changed_topics,
                changed_subscribers,
            };
            McssInstance::new(Arc::new(workload), config.tau, config.capacity)
                .map(|instance| (instance, delta))
        });
        let (instance, delta) = committed.map_err(|e| e.to_string())?;
        self.totals.changed.push((
            delta.changed_subscribers.len() as u64,
            delta.changed_topics.len() as u64,
        ));
        let realloc = &mut self.realloc;
        let outcome = tracer
            .span("incremental.step", e, || {
                realloc.step_with_delta(&instance, cost, &delta)
            })
            .map_err(|e| e.to_string())?;
        self.prev = Some(instance.workload_arc());

        let mut fails = Vec::new();
        let mut recovers = Vec::new();
        for op in std::mem::take(&mut self.fleet_ops) {
            match op {
                Event::VmFail { slot } => fails.push(slot as usize),
                Event::VmRecover { slot } => recovers.push(slot as usize),
                _ => unreachable!("only fleet ops are buffered"),
            }
        }
        let mut allocation = outcome.allocation;
        let (mut vms_failed, mut repaired, mut deferred) = (0, 0, 0);
        if !fails.is_empty() || realloc.pending_repair_pairs() > 0 {
            let budget = SlaBudget {
                max_pairs: config.repair_budget,
                deadline: None,
            };
            let report = tracer
                .span("repair", e, || {
                    realloc.repair_failures(&instance, &fails, budget)
                })
                .map_err(|e| e.to_string())?;
            vms_failed = report.vms_failed;
            repaired = report.pairs_replaced;
            deferred = report.pairs_deferred;
            allocation = report.allocation;
            self.totals.repaired += repaired;
            self.totals.deferred += deferred;
        }
        for slot in recovers {
            realloc.recover_slot(slot);
        }
        let mut vm_count = allocation.vm_count();
        let mut fleet_cost =
            cost.vm_cost(vm_count) + cost.bandwidth_cost(allocation.total_bandwidth());
        let (mut moves, mut saved) = (0, Money::ZERO);
        if let Some(every) = config.compact_every {
            if (self.epochs_applied + 1).is_multiple_of(every) {
                self.totals.compact_due += 1;
                let budget = SearchBudget::steps(config.compact_steps);
                let report = tracer.span("compact", e, || realloc.compact(&instance, cost, budget));
                if let Some(report) = report {
                    self.totals.compact_run += 1;
                    moves = report.steps;
                    saved = report.saved();
                    if report.steps > 0 {
                        let (_, ledger, _) = realloc.checkpoint().expect("compacted state");
                        vm_count = ledger.vm_count();
                        fleet_cost = report.final_cost;
                    }
                }
            }
        }
        self.totals.compact_moves += moves;
        self.totals.compact_saved += saved;
        self.last_applied = mark_seq;
        self.epochs_applied += 1;
        if config.snapshot_every > 0 && self.epochs_applied.is_multiple_of(config.snapshot_every) {
            let path = self.dir.join(SNAPSHOT_FILE);
            let (last_seq, epochs_applied) = (self.last_applied, self.epochs_applied);
            tracer
                .span("snapshot.write", e, || {
                    let (selection, ledger, capacity) =
                        realloc.checkpoint().expect("applied epoch");
                    Snapshot {
                        last_seq,
                        epochs_applied,
                        tau: config.tau,
                        capacity,
                        workload: instance.workload().clone(),
                        selection: selection.clone(),
                        slots: ledger.snapshot_slots(),
                    }
                    .write(&path)
                })
                .map_err(|e| e.to_string())?;
            self.totals.snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        }
        let epoch_end = Instant::now();
        tracer.record("epoch", e, epoch_start, epoch_end);

        let exported = tracer.span("ledger.export", e, || {
            realloc
                .checkpoint()
                .map(|(_, ledger, capacity)| ledger.to_allocation(capacity))
        });
        // A fleet with repairs still deferred starves their subscribers
        // by design; it is checked once the budgeted repair has drained.
        if self.epochs_applied.is_multiple_of(CHECK_EVERY) && deferred == 0 {
            let exported = exported.expect("applied epoch");
            let verdict = check(
                instance.workload(),
                &exported,
                config.tau,
                config.capacity,
                cost,
                fleet_cost,
            );
            self.totals.checks += 1;
            if !verdict.ok() {
                self.totals.check_failures += 1;
                eprintln!("epoch {e} fleet check failed: {:?}", verdict.violations);
            }
        }
        Ok(Counters {
            placed: outcome.pairs_placed,
            removed: outcome.pairs_removed,
            evicted: outcome.pairs_evicted,
            reused: outcome.pairs_reused,
            full_resolve: outcome.full_resolve,
            vms_failed,
            repaired,
            deferred,
            compaction_moves: moves,
            compaction_saved: saved,
            vm_count,
            fleet_cost,
        })
    }
}

impl Server for ReDrive {
    fn submit(&mut self, events: &[Event]) -> Result<u64, String> {
        let e = self.epoch();
        let edit = &mut self.edit;
        let fleet_ops = &mut self.fleet_ops;
        let accepted: Vec<bool> = self.tracer.span("model.edit", e, || {
            events
                .iter()
                .map(|&event| match event {
                    Event::Rerate { topic, rate } => edit.rerate(topic, rate).is_ok(),
                    Event::Subscribe { subscriber, topic } => {
                        edit.subscribe(subscriber, topic).is_ok()
                    }
                    Event::Unsubscribe { subscriber, topic } => {
                        edit.unsubscribe(subscriber, topic);
                        true
                    }
                    Event::VmFail { .. } | Event::VmRecover { .. } => {
                        fleet_ops.push(event);
                        true
                    }
                    Event::EpochMark { .. } => false,
                })
                .collect()
        });
        let log = &mut self.log;
        let appended = self.tracer.span("log.append", e, || {
            let mut n = 0u64;
            for (&event, _) in events.iter().zip(&accepted).filter(|(_, &ok)| ok) {
                log.append(event).map_err(|e| e.to_string())?;
                n += 1;
            }
            Ok::<u64, String>(n)
        })?;
        self.totals.events += events.len() as u64;
        self.totals.appended += appended;
        self.pending += appended;
        Ok(events.len() as u64 - appended)
    }

    fn tick(&mut self) -> Result<Counters, String> {
        if self.pending == 0 && self.realloc.pending_repair_pairs() == 0 {
            return Err("an epoch closed with nothing to apply".into());
        }
        self.close_epoch()
    }
}

//! `mcss drill`: kill VMs out of a fresh solve and repair the fleet under
//! an SLA pairs budget; also the kill-list grammar `serve --drill` uses.

use super::{
    flag, load_trace, required, Args, Calibration, Positional, Spec, EFFECTIVE, INSTANCE, SCALE,
    TAU,
};
use cloud_cost::InstanceType;
use mcss_core::incremental::{IncrementalConfig, IncrementalReallocator, SlaBudget};
use mcss_core::McssInstance;
use pubsub_model::Rate;
use pubsub_sim::failure::fail_vms;
use std::ops::RangeInclusive;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "drill",
    usage: "mcss drill <trace.tsv> --tau N --kill SPEC [options]",
    summary: "kill VMs and repair the fleet under an SLA pairs budget",
    positional: Positional::Required("a trace path"),
    flags: &[
        TAU,
        flag("--kill", "SPEC", "kill list (required): indices \"0,3,9\", a range \"0-7\", mixed \"0,4-6\", or a fleet share \"20%\""),
        flag("--sla-pairs", "N", "repair at most N pairs per epoch [unbounded]"),
        flag("--max-epochs", "N", "give up if not drained after N repair epochs [64]"),
        INSTANCE,
        EFFECTIVE,
        SCALE,
    ],
};

/// A parsed kill list: explicit VM slots or a share of the fleet.
#[derive(Clone, Debug, PartialEq)]
pub enum KillSpec {
    /// Explicit slots — `0,3,9`, `0-7`, or mixed `0,4-6` — one range per
    /// item, kept unexpanded until the fleet size bounds them.
    List(Vec<RangeInclusive<u32>>),
    /// A leading share of the fleet — `20%` kills the first ⌈20%·n⌉ VMs
    /// (a correlated-rack / region-outage stand-in).
    Percent(u32),
}

/// Parses a kill list. Slots are `u32`, the event log's slot type; a
/// larger index is refused here rather than truncated later.
pub fn parse_kill(spec: &str) -> Result<KillSpec, String> {
    if let Some(pct) = spec.strip_suffix('%') {
        let pct: u32 = pct
            .parse()
            .map_err(|e| format!("bad kill share {spec:?}: {e}"))?;
        if pct == 0 || pct > 100 {
            return Err(format!("kill share {spec:?} must be in 1%..=100%"));
        }
        return Ok(KillSpec::Percent(pct));
    }
    let mut ranges = Vec::new();
    for item in spec.split(',') {
        let (a, b) = item.split_once('-').unwrap_or((item, item));
        let slot = |digits: &str| {
            digits.parse::<u32>().map_err(|e| {
                format!(
                    "bad kill slot {digits:?} in {item:?} (slots are 0..={}): {e}",
                    u32::MAX
                )
            })
        };
        let (a, b) = (slot(a)?, slot(b)?);
        if a > b {
            return Err(format!("kill range {item:?} runs backwards"));
        }
        ranges.push(a..=b);
    }
    Ok(KillSpec::List(ranges))
}

/// Turns a kill spec into the slots of an `n`-VM fleet, in kill-list
/// order, plus the parts of the list past the fleet's end. Ranges expand
/// only up to `n`.
pub fn resolve_kill(spec: &KillSpec, n: usize) -> (Vec<u32>, Vec<RangeInclusive<u32>>) {
    let n = u32::try_from(n).unwrap_or(u32::MAX);
    let ranges = match spec {
        KillSpec::List(ranges) => ranges.clone(),
        // Shares round up; 100% of n never exceeds n.
        KillSpec::Percent(pct) => match (u64::from(n) * u64::from(*pct)).div_ceil(100) {
            0 => Vec::new(),
            k => vec![0..=(k - 1) as u32],
        },
    };
    let (mut slots, mut missing) = (Vec::new(), Vec::new());
    for range in ranges {
        let (a, b) = range.into_inner();
        slots.extend(a..b.saturating_add(1).min(n));
        if b >= n {
            missing.push(a.max(n)..=b);
        }
    }
    (slots, missing)
}

/// Prints the part of a kill list past the fleet's end, in the kill-list
/// grammar (`[7, 9-12]`).
pub fn report_missing(missing: &[RangeInclusive<u32>]) {
    if missing.is_empty() {
        return;
    }
    let items: Vec<String> = missing
        .iter()
        .map(|r| match (r.start(), r.end()) {
            (a, b) if a == b => a.to_string(),
            (a, b) => format!("{a}-{b}"),
        })
        .collect();
    println!("  kill list names missing VMs: [{}]", items.join(", "));
}

/// Parses a serve drill schedule: `"EPOCH:KILL;EPOCH:KILL"`.
pub fn parse_drill_schedule(spec: &str) -> Result<Vec<(u64, KillSpec)>, String> {
    let mut schedule = Vec::new();
    for entry in spec.split(';') {
        let (epoch, kill) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad drill entry {entry:?}, want EPOCH:KILL"))?;
        let epoch: u64 = epoch
            .parse()
            .map_err(|e| format!("bad drill epoch {epoch:?}: {e}"))?;
        schedule.push((epoch, parse_kill(kill)?));
    }
    schedule.sort_by_key(|&(epoch, _)| epoch);
    Ok(schedule)
}

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub trace: String,
    pub tau: u64,
    pub kill: KillSpec,
    pub sla_pairs: Option<u64>,
    pub max_epochs: u64,
    pub instance: InstanceType,
    pub calibration: Calibration,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        trace: args.positional(),
        tau: required(args.num("--tau")?, "--tau")?,
        kill: required(args.parsed("--kill", parse_kill)?, "--kill")?,
        sla_pairs: args.nonzero(
            "--sla-pairs",
            "must be positive (omit it to drain unbounded)",
        )?,
        max_epochs: args
            .nonzero("--max-epochs", "must be at least 1")?
            .unwrap_or(64),
        instance: args.instance()?,
        calibration: args.calibration()?,
    })
}

/// Solves, kills, repairs until drained and prints the verdict.
pub fn run(opts: Opts) -> Result<(), String> {
    let workload = load_trace(&opts.trace)?;
    let cost = opts.calibration.cost_model(opts.instance);
    let inst = McssInstance::new(workload, Rate::new(opts.tau), cost.capacity())
        .map_err(|e| e.to_string())?;
    let mut realloc = IncrementalReallocator::new(IncrementalConfig::default());
    let outcome = realloc.step(&inst, &cost).map_err(|e| e.to_string())?;
    let baseline = outcome.allocation;
    let baseline_delivered = baseline.delivered_rates(inst.workload());
    let (slots, missing) = resolve_kill(&opts.kill, baseline.vm_count());
    println!(
        "baseline: {} VMs, {} pairs; killing {slots:?}",
        baseline.vm_count(),
        baseline.pair_count(),
    );
    report_missing(&missing);
    let slots: Vec<usize> = slots.into_iter().map(|s| s as usize).collect();

    // Blast radius first — what the outage looks like before any
    // repair runs.
    let impact = fail_vms(&inst, &baseline, &slots);
    println!(
        "impact: {} VMs down, {} pairs lost, {} delivery volume lost, {} starved",
        impact.vms_failed,
        impact.pairs_lost,
        impact.volume_lost,
        impact.starved.len()
    );

    // Repair under the SLA budget, epoch by epoch.
    let budget = match opts.sla_pairs {
        Some(pairs) => SlaBudget::pairs(pairs),
        None => SlaBudget::UNBOUNDED,
    };
    let mut fails: &[usize] = &slots;
    let mut epoch = 0u64;
    let healed = loop {
        epoch += 1;
        let report = realloc
            .repair_failures(&inst, fails, budget)
            .map_err(|e| e.to_string())?;
        fails = &[];
        println!(
            "repair epoch {epoch}: +{} pairs ({} deferred, {} starved, shortfall {}), {:.2} ms",
            report.pairs_replaced,
            report.pairs_deferred,
            report.starved.len(),
            report.shortfall,
            report.elapsed.as_secs_f64() * 1e3
        );
        if report.drained {
            break report.allocation;
        }
        if epoch >= opts.max_epochs {
            return Err(format!(
                "SLA budget left {} pairs unplaced after {} epochs; raise \
                 --sla-pairs or --max-epochs",
                report.pairs_deferred, opts.max_epochs
            ));
        }
    };

    // The drained repair must restore every subscriber to exactly
    // the satisfaction the fresh solve delivered.
    let healed_delivered = healed.delivered_rates(inst.workload());
    healed
        .validate(inst.workload(), inst.tau())
        .map_err(|e| format!("internal error — repaired fleet invalid: {e}"))?;
    if healed_delivered == baseline_delivered {
        println!(
            "verdict: drained in {epoch} epochs; satisfaction bit-identical to the \
             fresh solve ({} VMs vs {} before the drill)",
            healed.vm_count(),
            baseline.vm_count()
        );
        Ok(())
    } else {
        Err("repair drained but satisfaction diverged from the fresh solve".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_slots_above_u32_are_refused_at_parse() {
        // Expanding this range eagerly would allocate 800 GB and abort;
        // it must be a named parse error instead.
        let err = parse_kill("0-100000000000").unwrap_err();
        assert!(err.contains("slots are 0..=4294967295"), "{err}");
        assert!(parse_kill("4294967296").is_err());
        // Truncating 2^32 to a u32 slot would kill VM 0.
        let err = parse_drill_schedule("1:4294967296").unwrap_err();
        assert!(err.contains("4294967296"), "{err}");
        assert_eq!(
            parse_kill("4294967295").unwrap(),
            KillSpec::List(vec![u32::MAX..=u32::MAX])
        );
    }

    #[test]
    fn wide_ranges_expand_only_up_to_the_fleet() {
        let spec = parse_kill("2-4294967295").unwrap();
        assert_eq!(resolve_kill(&spec, 4), (vec![2, 3], vec![4..=u32::MAX]));
        // Items wholly past the fleet are reported as given.
        let spec = parse_kill("0,7,9-12").unwrap();
        assert_eq!(resolve_kill(&spec, 5), (vec![0], vec![7..=7, 9..=12]));
        let all = KillSpec::List(vec![0..=u32::MAX]);
        assert_eq!(resolve_kill(&all, 0), (vec![], vec![0..=u32::MAX]));
    }
}

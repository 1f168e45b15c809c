//! An independent checker for the paper's invariants, recomputed from
//! the raw placements rather than trusted from `Allocation::validate`:
//!
//! * every placed pair is a real interest and is placed once;
//! * every subscriber receives at least `τ_v = min(τ, Σ_{t∈T_v} ev_t)`;
//! * no VM carries more than `BC` (`bw_b = Σ_pairs ev_t + Σ_topics ev_t`,
//!   paper Eq. 2), and each VM's recorded bandwidth matches;
//! * the reported cost equals `C1(|B|) + C2(Σ bw_b)` priced by the cost
//!   model;
//! * that cost is at least the Alg. 5 lower bound, which is recomputed
//!   here and must equal the program's own `lower_bound`.

use cloud_cost::{CostModel, Money};
use mcss_core::{lower_bound, Allocation};
use pubsub_model::{Bandwidth, Rate, Workload};

/// What one check found. Empty `violations` means the fleet passed.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// One line per violated invariant (capped, with a final count).
    pub violations: Vec<String>,
    /// The Alg. 5 bound on this workload, priced by the cost model.
    pub lower_bound: Money,
}

impl Verdict {
    /// True when no invariant is violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn flag(&mut self, what: String) {
        const SHOWN: usize = 8;
        if self.violations.len() < SHOWN {
            self.violations.push(what);
        } else if self.violations.len() == SHOWN {
            self.violations.push("… further violations omitted".into());
        }
    }
}

/// Checks `allocation` against `workload` at threshold `tau` and
/// capacity `capacity`, and `claimed_cost` against the cost model.
pub fn check(
    workload: &Workload,
    allocation: &Allocation,
    tau: Rate,
    capacity: Bandwidth,
    cost: &dyn CostModel,
    claimed_cost: Money,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(allocation.pair_count() as usize);
    let mut total = 0u64;
    for (b, vm) in allocation.vms().iter().enumerate() {
        let mut used = 0u64;
        for p in vm.placements() {
            if p.topic.index() >= workload.num_topics() {
                verdict.flag(format!("VM {b} hosts unknown topic {}", p.topic.index()));
                continue;
            }
            let rate = workload.rate(p.topic).get();
            used += rate * (p.subscribers.len() as u64 + 1);
            pairs.extend(
                p.subscribers
                    .iter()
                    .map(|v| (v.index() as u32, p.topic.index() as u32)),
            );
        }
        if used > capacity.get() {
            verdict.flag(format!(
                "VM {b} carries {used} > capacity {}",
                capacity.get()
            ));
        }
        if used != vm.used().get() {
            verdict.flag(format!(
                "VM {b} records bandwidth {} but its placements need {used}",
                vm.used().get()
            ));
        }
        total += used;
    }

    pairs.sort_unstable();
    let mut delivered = vec![0u64; workload.num_subscribers()];
    for (i, &(v, t)) in pairs.iter().enumerate() {
        if i > 0 && pairs[i - 1] == (v, t) {
            verdict.flag(format!("pair (topic {t}, subscriber {v}) is placed twice"));
            continue;
        }
        let sub = pubsub_model::SubscriberId::new(v);
        let topic = pubsub_model::TopicId::new(t);
        if v as usize >= workload.num_subscribers() || !workload.interests(sub).contains(&topic) {
            verdict.flag(format!(
                "pair (topic {t}, subscriber {v}) is not an interest"
            ));
            continue;
        }
        delivered[v as usize] += workload.rate(topic).get();
    }

    let mut lb_volume = 0u64;
    for v in workload.subscribers() {
        let interests = workload.interests(v);
        if interests.is_empty() {
            continue;
        }
        let rates = interests.iter().map(|&t| workload.rate(t).get());
        let tau_v = rates.clone().sum::<u64>().min(tau.get());
        lb_volume += tau_v.max(rates.min().unwrap_or(0));
        if delivered[v.index()] < tau_v {
            verdict.flag(format!(
                "subscriber {} receives {} < τ_v {tau_v}",
                v.index(),
                delivered[v.index()]
            ));
        }
    }

    let program_lb = lower_bound(workload, tau, capacity);
    if program_lb.volume.get() != lb_volume || program_lb.vms != lb_volume.div_ceil(capacity.get())
    {
        verdict.flag(format!(
            "lower_bound reports volume {} / {} VMs, recomputed {lb_volume} / {}",
            program_lb.volume.get(),
            program_lb.vms,
            lb_volume.div_ceil(capacity.get())
        ));
    }
    verdict.lower_bound = cost.total_cost(
        lb_volume.div_ceil(capacity.get()) as usize,
        Bandwidth::new(lb_volume),
    );

    let recomputed =
        cost.vm_cost(allocation.vm_count()) + cost.bandwidth_cost(Bandwidth::new(total));
    if recomputed != claimed_cost {
        verdict.flag(format!(
            "reported cost {claimed_cost} but C1 + C2 = {recomputed}"
        ));
    }
    if recomputed < verdict.lower_bound {
        verdict.flag(format!(
            "cost {recomputed} is below the lower bound {}",
            verdict.lower_bound
        ));
    }
    verdict
}

//! An independent CustomBinPacking (full preset) used as a test oracle.
//!
//! It follows the same packing rules as `CustomBinPacking` with
//! `CbpConfig::full()`, sharing only `cheaper_to_distribute` (Alg. 7)
//! and `Allocation::from_groups` with it: topic groups come
//! from one `Vec<SubscriberId>` per topic of the universe instead of the
//! `TopicGroups` CSR inversion, the groups themselves are sorted instead
//! of an index permutation, and the per-VM rows and used-bandwidth
//! counter are kept here rather than in the crate's `VmBuild`. A
//! divergence in either implementation shows up as an `Allocation`
//! mismatch.

use cloud_cost::CostModel;
use mcss_core::stage2::cheaper_to_distribute;
use mcss_core::{Allocation, McssError, Selection};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Groups the selected pairs by topic: one vector per topic of the
/// universe, filled row-major, empty topics dropped, in topic-id order.
fn group_by_topic(selection: &Selection, workload: &Workload) -> Vec<(TopicId, Vec<SubscriberId>)> {
    let mut groups: Vec<Vec<SubscriberId>> = vec![Vec::new(); workload.num_topics()];
    for (vi, tv) in selection.rows().enumerate() {
        let v = SubscriberId::new(vi as u32);
        for &t in tv {
            groups[t.index()].push(v);
        }
    }
    groups
        .into_iter()
        .enumerate()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(ti, vs)| (TopicId::new(ti as u32), vs))
        .collect()
}

/// One VM being filled: its topic rows sorted by topic id, and its used
/// bandwidth (each hosted topic pays its incoming stream once).
#[derive(Default)]
struct Vm {
    rows: Vec<(TopicId, Vec<SubscriberId>)>,
    used: Bandwidth,
}

impl Vm {
    fn free(&self, capacity: Bandwidth) -> Bandwidth {
        capacity.saturating_sub(self.used)
    }

    fn add_batch(&mut self, t: TopicId, rate: Rate, vs: &[SubscriberId]) {
        if vs.is_empty() {
            return;
        }
        let n = vs.len() as u64;
        match self.rows.binary_search_by_key(&t, |&(tt, _)| tt) {
            Ok(pos) => {
                self.used += rate * n;
                self.rows[pos].1.extend_from_slice(vs);
            }
            Err(pos) => {
                self.used += rate * (n + 1);
                self.rows.insert(pos, (t, vs.to_vec()));
            }
        }
    }
}

/// CustomBinPacking (Alg. 4) with every optimization on:
/// topic grouping, total-volume order, most-free VM first and the
/// Alg. 7 cost decision.
///
/// # Errors
///
/// [`McssError::InfeasibleTopic`] if a selected topic cannot fit on an
/// empty VM.
pub fn reference_cbp_allocate(
    workload: &Workload,
    selection: &Selection,
    capacity: Bandwidth,
    cost: &dyn CostModel,
) -> Result<Allocation, McssError> {
    let mut groups = group_by_topic(selection, workload);
    // Optimization (c), TotalVolume order (ties by ascending topic id;
    // the sort is stable over the id-ordered groups).
    groups.sort_by_key(|(t, vs)| Reverse(u128::from(workload.rate(*t).get()) * vs.len() as u128));

    let mut vms: Vec<Vm> = Vec::new();
    let mut total_bw = Bandwidth::ZERO;
    let mut free_heap: BinaryHeap<(Bandwidth, Reverse<usize>)> = BinaryHeap::new();

    for (topic, subscribers) in &groups {
        let rate = workload.rate(*topic);
        if rate.pair_cost() > capacity {
            return Err(McssError::InfeasibleTopic {
                topic: *topic,
                required: rate.pair_cost(),
                capacity,
            });
        }

        let all = u128::from(rate.get()) * (subscribers.len() as u128 + 1);
        if let Some(current) = vms.last_mut() {
            if all <= u128::from(current.free(capacity).get()) {
                current.add_batch(*topic, rate, subscribers);
                total_bw += rate * (subscribers.len() as u64 + 1);
                free_heap.push((current.free(capacity), Reverse(vms.len() - 1)));
                continue;
            }
        }

        let mut remaining: &[SubscriberId] = subscribers;
        let distribute = if vms.is_empty() {
            false
        } else {
            // Optimization (e): the Alg. 7 cost comparison.
            let frees: Vec<Bandwidth> = vms.iter().map(|vm| vm.free(capacity)).collect();
            cheaper_to_distribute(
                &frees,
                capacity,
                rate,
                remaining.len() as u64,
                vms.len(),
                total_bw,
                cost,
                false,
            )
        };

        if distribute {
            // Optimization (d): most-free VM first via a lazy heap.
            while !remaining.is_empty() {
                let Some((free, Reverse(idx))) = free_heap.pop() else {
                    break;
                };
                if vms[idx].free(capacity) != free {
                    continue; // stale entry; the fresh one is queued
                }
                if free < rate.pair_cost() {
                    free_heap.push((free, Reverse(idx)));
                    break;
                }
                let fit = free.div_rate(rate) - 1;
                let take = (fit as usize).min(remaining.len());
                vms[idx].add_batch(*topic, rate, &remaining[..take]);
                total_bw += rate * (take as u64 + 1);
                free_heap.push((vms[idx].free(capacity), Reverse(idx)));
                remaining = &remaining[take..];
            }
        }

        while !remaining.is_empty() {
            let mut vm = Vm::default();
            let fit = capacity.div_rate(rate) - 1; // ≥ 1 by feasibility
            let take = (fit as usize).min(remaining.len());
            vm.add_batch(*topic, rate, &remaining[..take]);
            total_bw += rate * (take as u64 + 1);
            vms.push(vm);
            free_heap.push((
                vms.last().expect("just pushed").free(capacity),
                Reverse(vms.len() - 1),
            ));
            remaining = &remaining[take..];
        }
    }

    Ok(Allocation::from_groups(
        vms.into_iter().map(|vm| vm.rows).collect(),
        workload,
        capacity,
    ))
}

//! Seeded input generation. Everything the program receives — the
//! initial workload, every epoch's event batch and the VM failure
//! schedule — is produced here, before any timed phase starts, from the
//! benchmark's `--seed` alone.

use mcss_core::serve::Event;
use pubsub_model::{Rate, SubscriberId, TopicId, Workload};
use std::collections::{BTreeSet, HashMap};

/// SplitMix64: a small, fast, fully specified generator, so the inputs
/// for a seed never change with a dependency's version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal deviate (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// How the workload drifts from one epoch to the next.
#[derive(Clone, Copy, Debug)]
pub struct Drift {
    /// Share of subscribers that swap one interest per epoch.
    pub churn: f64,
    /// Log-normal σ of the per-epoch rate noise applied to every topic
    /// (`0` means no re-rates).
    pub sigma: f64,
    /// Re-rated topics are clamped to this rate, the same tail clamp the
    /// scenario applied, so every topic keeps fitting on one VM.
    pub max_rate: Rate,
}

/// VM failures and recoveries injected into the event stream.
#[derive(Clone, Copy, Debug)]
pub struct Kills {
    /// First epoch with a kill.
    pub first: usize,
    /// Epochs between kills.
    pub every: usize,
    /// VMs failed per kill.
    pub vms: u32,
    /// Epochs after a kill at which its slots recover. Compaction skips
    /// epochs while failed slots are down, so recovering them is what
    /// lets compaction run again.
    pub recover_after: usize,
    /// Kill slots are drawn from `0..slot_range`, a range the fleet's
    /// live slots cover on every seed.
    pub slot_range: u32,
}

/// The events of one epoch, in submission order.
pub type Batch = Vec<Event>;

/// Generates `epochs` batches of drift against `initial`, plus the
/// scheduled fleet events. The generator keeps its own copy of only the
/// rows it changed, so one epoch costs O(Δ), not O(subscribers).
pub fn batches(
    initial: &Workload,
    drift: Drift,
    kills: Option<Kills>,
    epochs: usize,
    seed: u64,
) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 1);
    let mut rates: Vec<Rate> = initial.rates().to_vec();
    let mut rows: HashMap<u32, Vec<TopicId>> = HashMap::new();
    let n = initial.num_subscribers() as u64;
    let num_topics = initial.num_topics() as u64;
    let churned = ((n as f64) * drift.churn).round() as usize;
    let mut recover_at: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut out = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let mut batch = Vec::new();
        if drift.sigma > 0.0 {
            for (ti, rate) in rates.iter_mut().enumerate() {
                let noise = (drift.sigma * rng.normal()).exp();
                let next = Rate::new(
                    (((rate.get() as f64) * noise).round().max(1.0) as u64)
                        .min(drift.max_rate.get()),
                );
                if next != *rate {
                    *rate = next;
                    batch.push(Event::Rerate {
                        topic: TopicId::new(ti as u32),
                        rate: next,
                    });
                }
            }
        }
        let mut picked = BTreeSet::new();
        while picked.len() < churned.min(n as usize) {
            picked.insert(rng.below(n) as u32);
        }
        for vi in picked {
            let v = SubscriberId::new(vi);
            let row = rows
                .entry(vi)
                .or_insert_with(|| initial.interests(v).to_vec());
            if row.is_empty() || num_topics < 2 {
                continue;
            }
            let dropped = row.swap_remove(rng.below(row.len() as u64) as usize);
            let added = loop {
                let t = TopicId::new(rng.below(num_topics) as u32);
                if t != dropped && !row.contains(&t) {
                    break t;
                }
            };
            row.push(added);
            batch.push(Event::Unsubscribe {
                subscriber: v,
                topic: dropped,
            });
            batch.push(Event::Subscribe {
                subscriber: v,
                topic: added,
            });
        }
        if let Some(k) = kills {
            // A kill lands only if a whole cycle fits before the run
            // ends, so every repair drains and the final fleet is whole.
            if epoch >= k.first && (epoch - k.first) % k.every == 0 && epoch + k.every <= epochs {
                let mut slots = BTreeSet::new();
                while slots.len() < k.vms.min(k.slot_range) as usize {
                    slots.insert(rng.below(u64::from(k.slot_range)) as u32);
                }
                batch.extend(slots.iter().map(|&slot| Event::VmFail { slot }));
                recover_at.push((epoch + k.recover_after, slots.into_iter().collect()));
            }
            for (_, slots) in recover_at.iter().filter(|(at, _)| *at == epoch) {
                batch.extend(slots.iter().map(|&slot| Event::VmRecover { slot }));
            }
        }
        out.push(batch);
    }
    out
}

/// The bootstrap batch: one `Rerate` per topic, then one `Subscribe` per
/// interest pair, in subscriber order.
pub fn initial_events(workload: &Workload) -> Batch {
    let mut events = Vec::with_capacity(workload.num_topics() + workload.pair_count() as usize);
    for (ti, &rate) in workload.rates().iter().enumerate() {
        events.push(Event::Rerate {
            topic: TopicId::new(ti as u32),
            rate,
        });
    }
    for v in workload.subscribers() {
        for &topic in workload.interests(v) {
            events.push(Event::Subscribe {
                subscriber: v,
                topic,
            });
        }
    }
    events
}

/// Open-loop send times for one epoch's batch, in seconds from the
/// start of the epoch's period: evenly spaced over the period, so the
/// offered rate is the batch size divided by the period.
pub fn send_offsets(events: usize, period_s: f64) -> impl Iterator<Item = f64> {
    let step = period_s / events.max(1) as f64;
    (0..events).map(move |i| i as f64 * step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::from_parts(
            vec![Rate::new(5), Rate::new(7), Rate::new(9), Rate::new(11)],
            (0..40)
                .map(|v| vec![TopicId::new(v % 4), TopicId::new((v + 1) % 4)])
                .collect(),
        )
    }

    #[test]
    fn same_seed_same_batches() {
        let drift = Drift {
            churn: 0.1,
            sigma: 0.05,
            max_rate: Rate::new(20),
        };
        let a = batches(&workload(), drift, None, 5, 3);
        let b = batches(&workload(), drift, None, 5, 3);
        let c = batches(&workload(), drift, None, 5, 4);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert!(a.iter().all(|batch| !batch.is_empty()));
    }
}

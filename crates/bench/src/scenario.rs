//! Scenario builders: generated traces with paper-scale compensation.

use cloud_cost::{Ec2CostModel, InstanceType};
use mcss_core::{McssError, McssInstance};
use pubsub_model::{Rate, Workload};
use pubsub_traces::{SpotifyLike, TwitterLike};
use std::sync::Arc;

/// Subscribers in the paper's Spotify trace (§IV-B).
pub const PAPER_SPOTIFY_SUBSCRIBERS: u64 = 4_900_000;
/// Subscribers in the paper's Twitter trace (§IV-B).
pub const PAPER_TWITTER_SUBSCRIBERS: u64 = 30_000_000;

/// A generated workload plus the paper-scale context needed to price it.
///
/// Capacity calibration: experiments use
/// [`Ec2CostModel::paper_effective`], the per-VM event budget implied by
/// the paper's reported VM counts, scaled by the synthetic/paper
/// subscriber ratio. Because rates stay at natural scale while capacity
/// shrinks, a handful of extreme-tail topics (bots, celebrities) could
/// individually exceed a scaled VM; those rates are clamped to a quarter
/// of the smallest capacity in play and the count is recorded in
/// [`Scenario::clamped_topics`] (a scale artifact — at full scale every
/// topic fits comfortably).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name ("spotify" / "twitter").
    pub name: &'static str,
    /// The generated workload (rates possibly tail-clamped, see above).
    pub workload: Arc<Workload>,
    /// The subscriber count of the paper trace this stands in for.
    pub paper_subscribers: u64,
    /// Number of topics whose rate was clamped to keep the scaled
    /// instance feasible.
    pub clamped_topics: usize,
}

impl Scenario {
    /// Spotify-like scenario at the given synthetic subscriber count.
    pub fn spotify(subscribers: usize, seed: u64) -> Scenario {
        Scenario::assemble(
            "spotify",
            SpotifyLike::new(subscribers, seed).generate(),
            PAPER_SPOTIFY_SUBSCRIBERS,
        )
    }

    /// Twitter-like scenario at the given synthetic universe size.
    pub fn twitter(users: usize, seed: u64) -> Scenario {
        Scenario::assemble(
            "twitter",
            TwitterLike::new(users, seed).generate(),
            PAPER_TWITTER_SUBSCRIBERS,
        )
    }

    fn assemble(name: &'static str, workload: Workload, paper_subscribers: u64) -> Scenario {
        // The binding capacity across the experiments is the smallest
        // instance type (c3.large) at this scenario's scale.
        let smallest = Ec2CostModel::paper_effective(cloud_cost::instances::C3_LARGE)
            .with_volume_scale(workload.num_subscribers().max(1) as u64, paper_subscribers)
            .capacity();
        let max_rate = Rate::new((smallest.get() / 4).max(1));
        let mut clamped = 0usize;
        let rates: Vec<Rate> = workload
            .rates()
            .iter()
            .map(|&r| {
                if r > max_rate {
                    clamped += 1;
                    max_rate
                } else {
                    r
                }
            })
            .collect();
        let workload = if clamped > 0 {
            let interests = workload
                .subscribers()
                .map(|v| workload.interests(v).to_vec())
                .collect();
            Workload::from_parts(rates, interests)
        } else {
            workload
        };
        Scenario {
            name,
            workload: Arc::new(workload),
            paper_subscribers,
            clamped_topics: clamped,
        }
    }

    /// The paper's cost model for an instance type, scale-compensated for
    /// this scenario's synthetic size and using the effective capacity
    /// calibration.
    pub fn cost_model(&self, instance: InstanceType) -> Ec2CostModel {
        Ec2CostModel::paper_effective(instance).with_volume_scale(
            self.workload.num_subscribers() as u64,
            self.paper_subscribers,
        )
    }

    /// An MCSS instance over this scenario at threshold `τ` with the
    /// instance type's (scaled, effective) capacity.
    ///
    /// # Errors
    ///
    /// Propagates [`McssError::ZeroCapacity`] (cannot occur for the
    /// catalogued instance types).
    pub fn instance(&self, tau: u64, instance: InstanceType) -> Result<McssInstance, McssError> {
        let cost = self.cost_model(instance);
        McssInstance::new(Arc::clone(&self.workload), Rate::new(tau), cost.capacity())
    }
}

/// Reads a `NAME=value` override from the environment, for sizing
/// experiments without recompiling (e.g. `MCSS_SPOTIFY_SUBS=250000`).
/// An unset variable yields `default`.
///
/// # Panics
///
/// If the variable is set to anything but a positive integer (`250k`,
/// `0`, non-Unicode bytes): a typo must stop the run, not size it
/// silently at the default or reach a generator as an empty workload.
/// The message names the variable.
pub fn env_size(name: &str, default: usize) -> usize {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_size(name, raw.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

fn parse_size(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name}={raw:?} is not a positive integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_cost::instances;

    #[test]
    fn scenarios_build_and_scale() {
        let s = Scenario::spotify(500, 1);
        assert_eq!(s.name, "spotify");
        let cost = s.cost_model(instances::C3_LARGE);
        // Effective scaled capacity: 5e7 × (subs / 4.9M).
        let expected = 50_000_000u64 * s.workload.num_subscribers() as u64 / 4_900_000;
        assert_eq!(cost.capacity().get(), expected.max(1));
        let inst = s.instance(10, instances::C3_LARGE).unwrap();
        assert_eq!(inst.tau(), Rate::new(10));
    }

    #[test]
    fn every_topic_fits_after_clamping() {
        for s in [Scenario::spotify(2_000, 3), Scenario::twitter(2_000, 3)] {
            let inst = s.instance(10, instances::C3_LARGE).unwrap();
            inst.check_all_topics_fit()
                .unwrap_or_else(|e| panic!("{} scenario infeasible: {e}", s.name));
        }
    }

    #[test]
    fn twitter_tail_requires_clamping_at_small_scale() {
        // Bot rates reach 1e5; a 2k-user scenario has capacity ≈ 3.3k,
        // so clamping must have engaged.
        let s = Scenario::twitter(2_000, 5);
        assert!(s.clamped_topics > 0);
    }

    #[test]
    fn env_size_falls_back() {
        assert_eq!(env_size("MCSS_DEFINITELY_UNSET_VAR", 42), 42);
        assert_eq!(
            parse_size("MCSS_SPOTIFY_SUBS", Some("250000"), 7),
            Ok(250_000)
        );
        // Set but unusable: refused by name, never replaced by the default.
        for bad in ["250k", "0", "", "-5", "1e6"] {
            let err = parse_size("MCSS_SPOTIFY_SUBS", Some(bad), 100_000).unwrap_err();
            assert!(err.starts_with("MCSS_SPOTIFY_SUBS="), "{bad:?}: {err}");
        }
    }
}

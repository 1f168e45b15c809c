//! Tiny-size runs of every workload, checked against the metric lists in
//! `BENCHMARK.json`, and negative tests of the fleet checker.

use cloud_cost::{CostModel, LinearCostModel, Money};
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_core::{Allocation, McssInstance};
use mcss_perfbench::check::check;
use mcss_perfbench::gen::Kills;
use mcss_perfbench::{run, spec, Spec, WORKLOADS};
use pubsub_model::{Bandwidth, Rate, SubscriberId, TopicId, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        chunk[at..at + chunk[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

/// The workload shrunk so one run takes about a second.
fn tiny(name: &str) -> Spec {
    let spec = spec(name).expect("known workload");
    let size = match name {
        "serve-trickle" => 20_000,
        _ => 3_000,
    };
    Spec {
        size,
        period: Duration::from_millis(20),
        kills: spec.kills.map(|k| Kills {
            first: 2,
            every: 8,
            recover_after: 4,
            ..k
        }),
        compact: spec.compact.map(|(_, steps)| (4, steps)),
        snapshot_every: spec.snapshot_every.min(10),
        ..spec
    }
}

fn state_dir(name: &str, traced: bool) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{traced}"))
}

fn smoke(name: &str, traced: bool) {
    let dir = state_dir(name, traced);
    let outcome = run(&tiny(name), 7, 0.5, traced, &dir).expect("run completes");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "{name}: failed operations");
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let section = if traced { "per_layer" } else { "end_to_end" };
    assert_eq!(
        emitted,
        declared(section),
        "{name}: metrics differ from {section}"
    );
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    if !traced {
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{name}: {:?}",
            outcome.metrics
        );
    }
}

#[test]
fn every_workload_is_declared() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    for name in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}

#[test]
fn plan_twitter_emits_every_metric() {
    smoke("plan-twitter", false);
    smoke("plan-twitter", true);
}

#[test]
fn serve_trickle_emits_every_metric() {
    smoke("serve-trickle", false);
    smoke("serve-trickle", true);
}

#[test]
fn serve_churn_emits_every_metric() {
    smoke("serve-churn", false);
    smoke("serve-churn", true);
}

fn t(i: u32) -> TopicId {
    TopicId::new(i)
}

fn v(i: u32) -> SubscriberId {
    SubscriberId::new(i)
}

/// Three subscribers of topic 0 (rate 10) and one of topic 1 (rate 10).
fn workload() -> Workload {
    Workload::from_parts(
        vec![Rate::new(10), Rate::new(10)],
        vec![vec![t(0)], vec![t(0)], vec![t(0)], vec![t(1)]],
    )
}

#[test]
fn checker_catches_an_overfull_vm_and_a_starved_subscriber() {
    let w = workload();
    let cost = LinearCostModel::vm_only(Money::from_dollars(1));
    let capacity = Bandwidth::new(25);
    // One VM serving topic 0 to all three of its subscribers carries
    // 10 · (3 + 1) = 40 > 25, and subscriber 3 gets nothing.
    let bad = Allocation::from_groups(vec![vec![(t(0), vec![v(0), v(1), v(2)])]], &w, capacity);
    let verdict = check(&w, &bad, Rate::new(10), capacity, &cost, bad.cost(&cost));
    let text = verdict.violations.join("\n");
    assert!(text.contains("VM 0 carries 40 > capacity 25"), "{text}");
    assert!(text.contains("subscriber 3 receives 0"), "{text}");
}

#[test]
fn checker_catches_a_misreported_cost_and_a_foreign_pair() {
    let w = workload();
    let cost = LinearCostModel::vm_only(Money::from_dollars(1));
    let capacity = Bandwidth::new(100);
    let fleet = Allocation::from_groups(
        vec![vec![
            (t(0), vec![v(0), v(1), v(2), v(3)]),
            (t(1), vec![v(3)]),
        ]],
        &w,
        capacity,
    );
    let verdict = check(
        &w,
        &fleet,
        Rate::new(10),
        capacity,
        &cost,
        Money::from_dollars(7),
    );
    let text = verdict.violations.join("\n");
    assert!(
        text.contains("(topic 0, subscriber 3) is not an interest"),
        "{text}"
    );
    assert!(text.contains("reported cost"), "{text}");
}

#[test]
fn checker_accepts_a_solved_fleet() {
    let w = workload();
    let cost = LinearCostModel::vm_only(Money::from_dollars(1));
    let capacity = Bandwidth::new(25);
    let instance = McssInstance::new(w.clone(), Rate::new(10), capacity).expect("instance");
    let selection = GreedySelectPairs::new()
        .select(&instance)
        .expect("selection");
    let fleet = CustomBinPacking::new(CbpConfig::full())
        .allocate(&w, &selection, capacity, &cost)
        .expect("allocation");
    let verdict = check(
        &w,
        &fleet,
        Rate::new(10),
        capacity,
        &cost,
        fleet.cost(&cost),
    );
    assert!(verdict.ok(), "{:?}", verdict.violations);
    assert!(fleet.cost(&cost) >= verdict.lower_bound);
    assert_eq!(verdict.lower_bound, cost.total_cost(2, Bandwidth::new(40)));
}

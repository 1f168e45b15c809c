//! Equivalences checked on generated Spotify- and Twitter-shaped
//! scenarios rather than on small random instances:
//!
//! * a workload written as a TSV trace and as an `MCSSTOR1` store reads
//!   back equal to the generator's copy, derived arenas included, at a
//!   size where the store reader streams sections in several chunks;
//! * CustomBinPacking packs exactly like the independent reference
//!   packer that `crates/core/tests/proptests.rs` also uses.

use cloud_cost::instances;
use mcss_bench::scenario::Scenario;
use mcss_core::stage1::{GreedySelectPairs, PairSelector};
use mcss_core::stage2::{Allocator, CbpConfig, CustomBinPacking};
use mcss_store::{StoreReader, WorkloadStoreExt};
use pubsub_model::Workload;
use pubsub_traces::io::{read_workload, write_workload};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;

#[path = "../crates/core/tests/support/reference_cbp.rs"]
mod reference_cbp;

/// The store reader's streaming chunk (`STREAM_CHUNK` in
/// `crates/store/src/format.rs`). A section longer than this is
/// verified by stitching per-chunk CRCs.
const STREAM_CHUNK: u64 = 512 * 1024;

/// Per-test scratch dir so concurrent tests never collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcss-scenario-equivalence-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_same_workload(what: &str, got: &Workload, want: &Workload) {
    assert!(got == want, "{what}: workload diverged from the generator");
    for v in want.subscribers() {
        assert_eq!(got.interests(v), want.interests(v), "{what}: {v} interests");
        assert_eq!(
            got.ranked_interests(v),
            want.ranked_interests(v),
            "{what}: {v} ranked interests"
        );
    }
    for t in want.topics() {
        assert_eq!(got.rate(t), want.rate(t), "{what}: {t} rate");
        assert_eq!(
            got.subscribers_of(t),
            want.subscribers_of(t),
            "{what}: {t} followers"
        );
    }
}

#[test]
fn store_and_trace_round_trip_multi_chunk_scenarios() {
    // Sized so that the interest, ranked and follower sections each pass
    // one streaming chunk (~9 bytes per Spotify subscriber, ~78 per
    // Twitter user).
    let dir = scratch("round-trip");
    for scenario in [
        Scenario::spotify(64_000, 20140113),
        Scenario::twitter(8_000, 20131030),
    ] {
        let name = scenario.name;
        let want = &*scenario.workload;
        let trace = dir.join(format!("{name}.tsv"));
        let store = dir.join(format!("{name}.mcss"));

        let mut out = BufWriter::new(File::create(&trace).expect("create trace"));
        write_workload(&mut out, want).expect("write trace");
        out.flush().expect("flush trace");
        want.to_store(&store).expect("write store");

        let largest = StoreReader::open(&store)
            .expect("open store")
            .sections()
            .iter()
            .map(|s| s.len)
            .max()
            .expect("a workload store has sections");
        assert!(
            largest > STREAM_CHUNK,
            "{name}: largest section is {largest} bytes, one chunk; grow the scenario"
        );

        let parsed = read_workload(BufReader::new(File::open(&trace).expect("open trace")))
            .expect("parse trace");
        assert_same_workload(&format!("{name} trace"), &parsed, want);
        let loaded = Workload::from_store(&store).expect("load store");
        assert_same_workload(&format!("{name} store"), &loaded, want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cbp_matches_reference_packer_on_scenarios() {
    for scenario in [
        Scenario::spotify(4_000, 20140113),
        Scenario::twitter(3_000, 20131030),
    ] {
        for instance in [instances::C3_LARGE, instances::C3_XLARGE] {
            let cost = scenario.cost_model(instance);
            for tau in [10u64, 100, 1000] {
                let inst = scenario.instance(tau, instance).expect("valid capacity");
                let sel = GreedySelectPairs::new().select(&inst).expect("gsp");
                let packed = CustomBinPacking::new(CbpConfig::full())
                    .allocate(inst.workload(), &sel, inst.capacity(), &cost)
                    .expect("feasible scenario");
                let reference = reference_cbp::reference_cbp_allocate(
                    inst.workload(),
                    &sel,
                    inst.capacity(),
                    &cost,
                )
                .expect("feasible scenario");
                assert!(
                    packed == reference,
                    "{} {} τ={tau}: CBP diverged from the reference packer",
                    scenario.name,
                    instance.name()
                );
            }
        }
    }
}

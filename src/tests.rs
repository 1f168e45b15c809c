//! Parse-level and end-to-end tests of the subcommands, kept at the
//! binary's root as `tests::<name>`; tests of the parser machinery itself
//! live next to it in `cli`.

use crate::cli::drill::{self, parse_kill, resolve_kill, KillSpec};
use crate::cli::generate::{self, Family};
use crate::cli::serve::{self, Stream};
use crate::cli::{
    analyze, ingest, pack, parse_budget, plan, reprovision, run, solve, Calibration, Command,
    WorkloadSource,
};
use cloud_cost::instances;
use mcss_core::dynamic::DriftModel;
use mcss_core::{AllocatorKind, PartitionerKind, SearchBudget, SelectorKind};

fn parse(words: &[&str]) -> Result<Command, String> {
    let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
    crate::cli::parse(&args)
}

/// The calibration most end-to-end runs use: effective capacity with a
/// gentle scale ratio.
fn effective(synth: u64) -> Calibration {
    Calibration {
        effective: true,
        scale: Some((synth, 100_000)),
    }
}

fn drift(churn: f64, sigma: f64, seed: u64) -> DriftModel {
    DriftModel {
        rate_sigma: sigma,
        churn_prob: churn,
        seed,
    }
}

fn generate_spotify(size: usize, seed: u64, path: &std::path::Path) {
    run(Command::Generate(generate::Opts {
        family: Family::Spotify,
        size,
        seed,
        out: Some(path.display().to_string()),
    }))
    .unwrap();
}

fn serve_opts(state: &std::path::Path) -> serve::Opts {
    serve::Opts {
        stream: Stream::Generated {
            family: Family::Spotify,
            size: 250,
            seed: 4,
        },
        tau: 40,
        instance: instances::C3_LARGE,
        epochs: 3,
        epoch_events: None,
        epoch_ms: None,
        drift: drift(0.2, 0.1, 7),
        dir: Some(state.display().to_string()),
        snapshot_every: 1,
        threads: 2,
        resume: false,
        drill: Vec::new(),
        repair_budget: None,
        compact_every: Some(2),
        compact_steps: 512,
        sync_retries: 0,
        retry_backoff_ms: 0,
        calibration: effective(250),
        summary: None,
        simulate: true,
    }
}

#[test]
fn help_variants() {
    assert!(matches!(parse(&[]).unwrap(), Command::Help));
    assert!(matches!(parse(&["help"]).unwrap(), Command::Help));
    assert!(matches!(parse(&["--help"]).unwrap(), Command::Help));
}

#[test]
fn solve_defaults_and_flags() {
    let cmd = parse(&[
        "solve",
        "t.tsv",
        "--tau",
        "100",
        "--instance",
        "c3.xlarge",
        "--effective",
        "--scale",
        "100/4900",
        "--simulate",
    ])
    .unwrap();
    match cmd {
        Command::Solve(opts) => {
            assert_eq!(opts.source, WorkloadSource::Trace("t.tsv".into()));
            assert_eq!(opts.tau, 100);
            assert_eq!(opts.instance.name(), "c3.xlarge");
            assert!(opts.calibration.effective);
            assert_eq!(opts.calibration.scale, Some((100, 4900)));
            assert!(opts.simulate);
        }
        other => panic!("parsed {other:?}"),
    }
}

#[test]
fn solve_requires_tau() {
    let err = parse(&["solve", "t.tsv"]).unwrap_err();
    assert!(err.contains("--tau"));
}

#[test]
fn store_source_parses_everywhere() {
    for cmd in ["solve", "reprovision", "analyze"] {
        // --store replaces the positional trace path.
        let parsed = if cmd == "analyze" {
            parse(&[cmd, "--store", "w.mcss"])
        } else {
            parse(&[cmd, "--store", "w.mcss", "--tau", "10"])
        }
        .unwrap_or_else(|e| panic!("{cmd} --store failed: {e}"));
        let source = match parsed {
            Command::Solve(solve::Opts { source, .. })
            | Command::Reprovision(reprovision::Opts { source, .. })
            | Command::Analyze(analyze::Opts { source, .. }) => source,
            other => panic!("parsed {other:?}"),
        };
        assert_eq!(source, WorkloadSource::Store("w.mcss".into()));
        // Both sources at once is ambiguous; neither is missing input.
        let err = parse(&[cmd, "t.tsv", "--store", "w.mcss", "--tau", "10"]).unwrap_err();
        assert!(err.contains("not both"), "{cmd}: {err}");
        let err = if cmd == "analyze" {
            parse(&[cmd])
        } else {
            parse(&[cmd, "--tau", "10"])
        }
        .unwrap_err();
        assert!(err.contains("--store"), "{cmd}: {err}");
    }
}

#[test]
fn serve_store_replaces_the_trace_family() {
    let cmd = parse(&["serve", "--store", "w.mcss", "--epochs", "2"]).unwrap();
    match cmd {
        // No generated family: the stream is the store.
        Command::Serve(opts) => assert_eq!(opts.stream, Stream::Store("w.mcss".into())),
        other => panic!("parsed {other:?}"),
    }
    let err = parse(&["serve", "--trace", "spotify", "--store", "w.mcss"]).unwrap_err();
    assert!(err.contains("mutually exclusive"), "unexpected: {err}");
    let err = parse(&["serve", "--epochs", "2"]).unwrap_err();
    assert!(err.contains("--store"), "unexpected: {err}");
}

#[test]
fn ingest_parses_and_requires_out() {
    let cmd = parse(&["ingest", "t.tsv", "--out", "w.mcss"]).unwrap();
    match cmd {
        Command::Ingest(opts) => assert_eq!(
            opts,
            ingest::Opts {
                trace: "t.tsv".into(),
                out: "w.mcss".into()
            }
        ),
        other => panic!("parsed {other:?}"),
    }
    assert!(parse(&["ingest", "t.tsv"]).unwrap_err().contains("--out"));
    assert!(parse(&["ingest"]).is_err());
    assert!(parse(&["ingest", "t.tsv", "--out", "w.mcss", "--frob"]).is_err());
}

#[test]
fn rejects_unknown_inputs() {
    assert!(parse(&["frobnicate"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "1", "--selector", "magic"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "1", "--instance", "m1.tiny"]).is_err());
    assert!(parse(&["generate", "facebook"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "xyz"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "1", "--scale", "5"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "1", "--scale", "0/5"]).is_err());
}

#[test]
fn generate_parses() {
    let cmd = parse(&[
        "generate", "twitter", "--size", "500", "--seed", "9", "--out", "x.tsv",
    ])
    .unwrap();
    match cmd {
        Command::Generate(opts) => assert_eq!(
            opts,
            generate::Opts {
                family: Family::Twitter,
                size: 500,
                seed: 9,
                out: Some("x.tsv".into())
            }
        ),
        other => panic!("parsed {other:?}"),
    }
}

#[test]
fn end_to_end_generate_and_solve_via_tempfile() {
    let dir = std::env::temp_dir().join("mcss-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.tsv");
    generate_spotify(300, 3, &path);
    let analyze = |source: WorkloadSource, blast_radius, calibration| {
        run(Command::Analyze(analyze::Opts {
            source,
            blast_radius,
            instance: instances::C3_LARGE,
            calibration,
        }))
    };
    let trace = || WorkloadSource::Trace(path.display().to_string());
    analyze(trace(), None, Calibration::default()).unwrap();
    analyze(trace(), Some((3, 50)), effective(300)).unwrap();
    // Ingest the trace into a store and drive the same commands
    // from it — the store path must be a drop-in replacement.
    let store = dir.join("trace.mcss");
    run(Command::Ingest(ingest::Opts {
        trace: path.display().to_string(),
        out: store.display().to_string(),
    }))
    .unwrap();
    let stored = || WorkloadSource::Store(store.display().to_string());
    analyze(stored(), None, Calibration::default()).unwrap();
    // A gentle scale ratio: at 300/4.9M the effective capacity would
    // shrink below a single loud topic's pair cost (the scale
    // artifact DESIGN.md §3 describes — the Scenario harness clamps
    // for that; the raw CLI intentionally does not).
    let solve_opts = solve::Opts {
        source: stored(),
        tau: 50,
        instance: instances::C3_LARGE,
        selector: SelectorKind::Greedy,
        allocator: AllocatorKind::custom_full(),
        shards: 1,
        threads: 0,
        partitioner: PartitionerKind::default(),
        refine: None,
        calibration: effective(300),
        simulate: true,
    };
    run(Command::Solve(solve_opts.clone())).unwrap();
    // The same trace again, shard-parallel, and ranked by the planner.
    run(Command::Solve(solve::Opts {
        source: trace(),
        shards: 4,
        threads: 2,
        partitioner: PartitionerKind::Hash { seed: 42 },
        refine: Some(SearchBudget::steps(256)),
        ..solve_opts
    }))
    .unwrap();
    for mixed in [false, true] {
        run(Command::Plan(plan::Opts {
            trace: path.display().to_string(),
            tau: 50,
            mixed,
            calibration: effective(300),
        }))
        .unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn shard_flags_parse_and_validate() {
    let cmd = parse(&[
        "solve",
        "t.tsv",
        "--tau",
        "10",
        "--shards",
        "4",
        "--threads",
        "2",
        "--partitioner",
        "hash",
    ])
    .unwrap();
    match cmd {
        Command::Solve(opts) => {
            assert_eq!(opts.shards, 4);
            assert_eq!(opts.threads, 2);
            assert_eq!(opts.partitioner, PartitionerKind::Hash { seed: 42 });
        }
        other => panic!("parsed {other:?}"),
    }
    let err = parse(&["solve", "t.tsv", "--tau", "10", "--shards", "0"]).unwrap_err();
    assert!(err.contains("--shards"), "unexpected: {err}");
    assert!(parse(&["solve", "t.tsv", "--tau", "10", "--threads", "0"]).is_err());
    assert!(parse(&["solve", "t.tsv", "--tau", "10", "--partitioner", "magic"]).is_err());
}

#[test]
fn refine_budget_grammar() {
    assert_eq!(parse_budget("500").unwrap(), SearchBudget::steps(500));
    assert_eq!(
        parse_budget("100ms").unwrap(),
        SearchBudget::time(std::time::Duration::from_millis(100))
    );
    assert_eq!(
        parse_budget("2s").unwrap(),
        SearchBudget::time(std::time::Duration::from_secs(2))
    );
    assert!(parse_budget("0ms").is_err());
    assert!(parse_budget("0s").is_err());
    assert!(parse_budget("fast").is_err());
    // A zero step budget is legal: an explicit no-op refinement.
    assert_eq!(parse_budget("0").unwrap(), SearchBudget::steps(0));

    let cmd = parse(&["solve", "t.tsv", "--tau", "10", "--refine", "64"]).unwrap();
    assert!(matches!(
        cmd,
        Command::Solve(solve::Opts {
            refine: Some(b),
            ..
        }) if b == SearchBudget::steps(64)
    ));
    assert!(parse(&["solve", "t.tsv", "--tau", "10", "--refine"]).is_err());
}

#[test]
fn pack_parses_and_validates() {
    let cmd = parse(&["pack", "t.tsv", "--tau", "100"]).unwrap();
    match cmd {
        Command::Pack(opts) => {
            assert_eq!(opts.trace, "t.tsv");
            assert_eq!(opts.tau, 100);
            assert!(!opts.mixed);
            assert_eq!(opts.refine, SearchBudget::UNBOUNDED);
            assert_eq!(opts.export_lp, None);
        }
        other => panic!("parsed {other:?}"),
    }
    let cmd = parse(&[
        "pack",
        "t.tsv",
        "--tau",
        "100",
        "--refine",
        "100ms",
        "--export-lp",
        "prog.lp",
    ])
    .unwrap();
    assert!(matches!(
        cmd,
        Command::Pack(pack::Opts {
            export_lp: Some(ref p),
            ..
        }) if p == "prog.lp"
    ));
    assert!(parse(&["pack", "t.tsv"]).unwrap_err().contains("--tau"));
    // The LP formulation is homogeneous-only.
    let err = parse(&[
        "pack",
        "t.tsv",
        "--tau",
        "1",
        "--mixed",
        "--export-lp",
        "p.lp",
    ])
    .unwrap_err();
    assert!(err.contains("--export-lp"), "unexpected: {err}");
    assert!(parse(&["pack", "t.tsv", "--tau", "1", "--frob"]).is_err());
}

#[test]
fn pack_runs_end_to_end() {
    let dir = std::env::temp_dir().join(format!("mcss-cli-pack-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.tsv");
    let lp = dir.join("prog.lp");
    generate_spotify(300, 3, &trace);
    let opts = pack::Opts {
        trace: trace.display().to_string(),
        tau: 50,
        instance: instances::C3_LARGE,
        mixed: false,
        refine: SearchBudget::steps(512),
        export_lp: Some(lp.display().to_string()),
        calibration: effective(300),
    };
    run(Command::Pack(opts.clone())).unwrap();
    let program = std::fs::read_to_string(&lp).unwrap();
    assert!(program.starts_with("\\ MCSS integer program"));
    assert!(program.contains("Minimize"));
    run(Command::Pack(pack::Opts {
        mixed: true,
        export_lp: None,
        ..opts
    }))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_compaction_flags_parse_and_validate() {
    let cmd = parse(&[
        "serve",
        "--trace",
        "spotify",
        "--compact-every",
        "4",
        "--compact-steps",
        "128",
    ])
    .unwrap();
    assert!(matches!(
        cmd,
        Command::Serve(serve::Opts {
            compact_every: Some(4),
            compact_steps: 128,
            ..
        })
    ));
    // Defaults: compaction off, 2048 steps when enabled bare.
    let cmd = parse(&["serve", "--trace", "spotify"]).unwrap();
    assert!(matches!(
        cmd,
        Command::Serve(serve::Opts {
            compact_every: None,
            compact_steps: 2_048,
            ..
        })
    ));
    assert!(parse(&["serve", "--trace", "spotify", "--compact-every", "0"]).is_err());
    assert!(parse(&[
        "serve",
        "--trace",
        "spotify",
        "--compact-every",
        "4",
        "--compact-steps",
        "0"
    ])
    .is_err());
    assert!(parse(&["serve", "--trace", "spotify", "--compact-steps", "64"]).is_err());
}

#[test]
fn reprovision_parses_and_validates() {
    let cmd = parse(&[
        "reprovision",
        "t.tsv",
        "--tau",
        "50",
        "--epochs",
        "3",
        "--churn",
        "0.25",
        "--sigma",
        "0.2",
        "--drift-seed",
        "9",
        "--threads",
        "4",
        "--fresh",
        "--simulate",
    ])
    .unwrap();
    match cmd {
        Command::Reprovision(opts) => {
            assert_eq!(opts.source, WorkloadSource::Trace("t.tsv".into()));
            assert_eq!(opts.tau, 50);
            assert_eq!(opts.epochs, 3);
            assert_eq!(opts.drift.churn_prob, 0.25);
            assert_eq!(opts.drift.rate_sigma, 0.2);
            assert_eq!(opts.drift.seed, 9);
            assert!(opts.fresh);
            assert_eq!(opts.threads, 4);
            assert!(opts.simulate);
        }
        other => panic!("parsed {other:?}"),
    }
    let cmd = parse(&["reprovision", "t.tsv", "--tau", "5", "--mixed"]).unwrap();
    assert!(matches!(
        cmd,
        Command::Reprovision(reprovision::Opts {
            mixed: true,
            threads: 1,
            ..
        })
    ));
    assert!(parse(&["reprovision", "t.tsv"])
        .unwrap_err()
        .contains("--tau"));
    assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--epochs", "0"]).is_err());
    assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--churn", "1.5"]).is_err());
    assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--sigma", "-0.1"]).is_err());
    assert!(parse(&["reprovision", "t.tsv", "--tau", "1", "--threads", "0"]).is_err());
}

#[test]
fn reprovision_runs_end_to_end() {
    let dir = std::env::temp_dir().join("mcss-cli-reprovision-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.tsv");
    generate_spotify(250, 4, &path);
    for fresh in [false, true] {
        for mixed in [false, true] {
            run(Command::Reprovision(reprovision::Opts {
                source: WorkloadSource::Trace(path.display().to_string()),
                tau: 40,
                instance: instances::C3_LARGE,
                epochs: 3,
                drift: drift(0.3, 0.0, 11),
                fresh,
                threads: 2,
                mixed,
                calibration: effective(250),
                simulate: true,
            }))
            .unwrap();
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_parses_and_requires_tau() {
    let cmd = parse(&["plan", "t.tsv", "--tau", "25", "--effective"]).unwrap();
    match cmd {
        Command::Plan(opts) => assert_eq!(
            opts,
            plan::Opts {
                trace: "t.tsv".into(),
                tau: 25,
                mixed: false,
                calibration: Calibration {
                    effective: true,
                    scale: None,
                },
            }
        ),
        other => panic!("parsed {other:?}"),
    }
    let cmd = parse(&["plan", "t.tsv", "--tau", "25", "--mixed"]).unwrap();
    assert!(matches!(cmd, Command::Plan(plan::Opts { mixed: true, .. })));
    assert!(parse(&["plan", "t.tsv"]).unwrap_err().contains("--tau"));
}

#[test]
fn serve_flags_parse_and_validate() {
    let cmd = parse(&[
        "serve",
        "--trace",
        "spotify",
        "--size",
        "500",
        "--tau",
        "30",
        "--epochs",
        "4",
        "--epoch-events",
        "64",
        "--snapshot-every",
        "2",
        "--threads",
        "3",
        "--dir",
        "/tmp/d",
        "--summary",
        "s.json",
        "--simulate",
    ])
    .unwrap();
    match cmd {
        Command::Serve(opts) => {
            assert!(matches!(
                opts.stream,
                Stream::Generated {
                    family: Family::Spotify,
                    size: 500,
                    ..
                }
            ));
            assert_eq!(opts.tau, 30);
            assert_eq!(opts.epochs, 4);
            assert_eq!(opts.epoch_events, Some(64));
            assert_eq!(opts.snapshot_every, 2);
            assert_eq!(opts.threads, 3);
            assert_eq!(opts.dir.as_deref(), Some("/tmp/d"));
            assert_eq!(opts.summary.as_deref(), Some("s.json"));
            assert!(opts.simulate && !opts.resume);
        }
        other => panic!("parsed {other:?}"),
    }
    assert!(parse(&["serve"]).unwrap_err().contains("--trace"));
    assert!(parse(&["serve", "--trace", "spotify", "--threads", "0"]).is_err());
    assert!(parse(&["serve", "--trace", "mastodon"]).is_err());
    let err = parse(&["serve", "--trace", "spotify", "--epoch-events", "0"]).unwrap_err();
    assert!(err.contains("--epoch-events must be positive"));
    assert!(parse(&[
        "serve",
        "--trace",
        "spotify",
        "--epoch-events",
        "5",
        "--epoch-ms",
        "10"
    ])
    .is_err());
    assert!(parse(&["serve", "--trace", "spotify", "--resume"])
        .unwrap_err()
        .contains("--dir"));
    assert!(parse(&[
        "serve",
        "--trace",
        "spotify",
        "--resume",
        "--dir",
        "d",
        "--epoch-ms",
        "5"
    ])
    .is_err());
    assert!(parse(&["serve", "--trace", "spotify", "--epochs", "0"]).is_err());
}

#[test]
fn serve_runs_and_resumes_end_to_end() {
    let dir = std::env::temp_dir().join(format!("mcss-cli-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");
    let summary = dir.join("summary.json");
    let opts = serve::Opts {
        summary: Some(summary.display().to_string()),
        ..serve_opts(&state)
    };
    run(Command::Serve(opts.clone())).unwrap();
    let json = std::fs::read_to_string(&summary).unwrap();
    assert!(json.contains("\"events_per_sec\""));
    assert!(json.contains("\"epochs\": 3"));
    // Recover from the state directory and stream two more batches.
    run(Command::Serve(serve::Opts {
        epochs: 5,
        // Resuming with a different repair thread count is legal —
        // threads is a runtime knob, not part of the snapshot.
        threads: 1,
        resume: true,
        ..opts
    }))
    .unwrap();
    let json = std::fs::read_to_string(&summary).unwrap();
    assert!(json.contains("\"resumed\": true"));
    assert!(
        json.contains("\"epochs\": 2"),
        "resume applies only the new batches: {json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_trace_file_is_reported() {
    let err = run(Command::Analyze(analyze::Opts {
        source: WorkloadSource::Trace("/definitely/not/here.tsv".into()),
        blast_radius: None,
        instance: instances::C3_LARGE,
        calibration: Calibration::default(),
    }))
    .unwrap_err();
    assert!(err.contains("opening"));
}

#[test]
fn kill_spec_grammar() {
    assert_eq!(
        parse_kill("0,3,9").unwrap(),
        KillSpec::List(vec![0..=0, 3..=3, 9..=9])
    );
    assert_eq!(parse_kill("0-7").unwrap(), KillSpec::List(vec![0..=7]));
    assert_eq!(
        parse_kill("1,4-6,9").unwrap(),
        KillSpec::List(vec![1..=1, 4..=6, 9..=9])
    );
    assert_eq!(parse_kill("20%").unwrap(), KillSpec::Percent(20));
    assert!(parse_kill("5-3").unwrap_err().contains("backwards"));
    assert!(parse_kill("0%").is_err());
    assert!(parse_kill("150%").is_err());
    assert!(parse_kill("").is_err());
    assert!(parse_kill("a,b").is_err());

    let slots = |spec: &KillSpec, n: usize| resolve_kill(spec, n).0;
    // Slots past the fleet are reported as missing, not killed.
    assert_eq!(
        resolve_kill(&KillSpec::List(vec![2..=2, 5..=5]), 4),
        (vec![2], vec![5..=5])
    );
    assert_eq!(slots(&KillSpec::List(vec![2..=2, 5..=5]), 6), vec![2, 5]);
    assert_eq!(slots(&KillSpec::Percent(20), 10), vec![0, 1]);
    // Shares round up: 20% of a 3-VM fleet is still one whole VM.
    assert_eq!(slots(&KillSpec::Percent(20), 3), vec![0]);
    assert_eq!(slots(&KillSpec::Percent(100), 2), vec![0, 1]);
    assert!(slots(&KillSpec::Percent(50), 0).is_empty());
}

#[test]
fn drill_parses_and_validates() {
    let cmd = parse(&[
        "drill",
        "t.tsv",
        "--tau",
        "40",
        "--kill",
        "0-3",
        "--sla-pairs",
        "100",
        "--max-epochs",
        "8",
        "--effective",
    ])
    .unwrap();
    match cmd {
        Command::Drill(opts) => {
            assert_eq!(opts.trace, "t.tsv");
            assert_eq!(opts.tau, 40);
            assert_eq!(opts.kill, KillSpec::List(vec![0..=3]));
            assert_eq!(opts.sla_pairs, Some(100));
            assert_eq!(opts.max_epochs, 8);
            assert!(opts.calibration.effective);
        }
        other => panic!("parsed {other:?}"),
    }
    assert!(parse(&["drill", "t.tsv", "--kill", "0"])
        .unwrap_err()
        .contains("--tau"));
    assert!(parse(&["drill", "t.tsv", "--tau", "5"])
        .unwrap_err()
        .contains("--kill"));
    assert!(parse(&[
        "drill",
        "t.tsv",
        "--tau",
        "5",
        "--kill",
        "0",
        "--sla-pairs",
        "0"
    ])
    .is_err());
    assert!(parse(&["drill", "t.tsv", "--tau", "5", "--kill", "7-2"]).is_err());
}

#[test]
fn serve_drill_flags_parse_and_validate() {
    let cmd = parse(&[
        "serve",
        "--trace",
        "spotify",
        "--drill",
        "5:20%;2:0-3",
        "--repair-budget",
        "50",
        "--sync-retries",
        "2",
        "--retry-backoff-ms",
        "10",
    ])
    .unwrap();
    match cmd {
        Command::Serve(opts) => {
            // Schedule comes back sorted by epoch.
            assert_eq!(
                opts.drill,
                vec![(2, KillSpec::List(vec![0..=3])), (5, KillSpec::Percent(20)),]
            );
            assert_eq!(opts.repair_budget, Some(50));
            assert_eq!(opts.sync_retries, 2);
            assert_eq!(opts.retry_backoff_ms, 10);
        }
        other => panic!("parsed {other:?}"),
    }
    assert!(parse(&["serve", "--trace", "spotify", "--drill", "nope"]).is_err());
    assert!(parse(&["serve", "--trace", "spotify", "--repair-budget", "0"]).is_err());
    assert!(
        parse(&["serve", "--trace", "spotify", "--resume", "--dir", "d", "--drill", "1:0"])
            .unwrap_err()
            .contains("--resume")
    );
}

#[test]
fn analyze_blast_radius_parses_and_validates() {
    let cmd = parse(&[
        "analyze",
        "t.tsv",
        "--blast-radius",
        "5",
        "--tau",
        "40",
        "--effective",
    ])
    .unwrap();
    assert!(matches!(
        cmd,
        Command::Analyze(analyze::Opts {
            blast_radius: Some((5, 40)),
            calibration: Calibration {
                effective: true,
                ..
            },
            ..
        })
    ));
    assert!(parse(&["analyze", "t.tsv", "--blast-radius", "5"])
        .unwrap_err()
        .contains("--tau"));
    assert!(parse(&["analyze", "t.tsv", "--blast-radius", "0"]).is_err());
}

#[test]
fn drill_runs_end_to_end() {
    let dir = std::env::temp_dir().join(format!("mcss-cli-drill-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.tsv");
    generate_spotify(300, 3, &path);
    let opts = drill::Opts {
        trace: path.display().to_string(),
        tau: 50,
        kill: KillSpec::Percent(20),
        sla_pairs: None,
        max_epochs: 64,
        instance: instances::C3_LARGE,
        calibration: effective(300),
    };
    // Unbounded repair drains in one epoch; a tight budget takes
    // several; both must end bit-identical (run() errors otherwise).
    for sla_pairs in [None, Some(25)] {
        run(Command::Drill(drill::Opts {
            sla_pairs,
            ..opts.clone()
        }))
        .unwrap();
    }
    // A kill list with typos still drills the valid indices.
    run(Command::Drill(drill::Opts {
        kill: KillSpec::List(vec![0..=0, 9_999..=9_999]),
        max_epochs: 4,
        ..opts
    }))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_drill_runs_end_to_end() {
    let dir =
        std::env::temp_dir().join(format!("mcss-cli-serve-drill-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("state");
    run(Command::Serve(serve::Opts {
        epochs: 4,
        threads: 1,
        drill: vec![(1, KillSpec::List(vec![0..=0])), (2, KillSpec::Percent(20))],
        repair_budget: Some(10),
        compact_every: None,
        compact_steps: 2_048,
        sync_retries: 1,
        ..serve_opts(&state)
    }))
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

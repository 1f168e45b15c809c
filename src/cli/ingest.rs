//! `mcss ingest`: convert a trace to the binary `MCSSTOR1` store.

use super::{flag, load_trace, required, Args, Positional, Spec};
use mcss_store::{StoreReader, WorkloadStoreExt};
use std::path::Path;
use std::time::Instant;

#[rustfmt::skip]
pub const SPEC: Spec = Spec {
    name: "ingest",
    usage: "mcss ingest <trace.tsv> --out <file.mcss>",
    summary: "convert a trace to the binary MCSSTOR1 store (load it back with --store, zero rebuild)",
    positional: Positional::Required("a trace path"),
    flags: &[flag("--out", "FILE", "output store path (required)")],
};

#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    pub trace: String,
    pub out: String,
}

pub fn parse(args: &Args) -> Result<Opts, String> {
    Ok(Opts {
        trace: args.positional(),
        out: required(args.text("--out"), "--out")?,
    })
}

/// Parses the trace, writes the store and reopens it to verify.
pub fn run(opts: Opts) -> Result<(), String> {
    let Opts { trace, out } = opts;
    let parse_started = Instant::now();
    let workload = load_trace(&trace)?;
    let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3;
    workload
        .to_store(Path::new(&out))
        .map_err(|e| format!("writing store {out}: {e}"))?;
    let reader =
        StoreReader::open(Path::new(&out)).map_err(|e| format!("verifying store {out}: {e}"))?;
    println!(
        "ingested {} topics / {} subscribers / {} pairs into {out}",
        workload.num_topics(),
        workload.num_subscribers(),
        workload.pair_count()
    );
    println!(
        "store: {} bytes in {} sections (trace parsed in {parse_ms:.1} ms; \
         store loads skip that entirely)",
        reader.file_len(),
        reader.sections().len()
    );
    Ok(())
}

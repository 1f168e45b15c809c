//! The `mcss` command line, table-driven.
//!
//! Each subcommand module declares its flags once, in a [`Spec`]. One
//! generic parser checks the argument words against that table, the
//! module's `parse` reads its typed options out of the resulting [`Args`],
//! and `mcss help` is rendered from the same tables, so the parser and the
//! help text cannot drift apart.

pub mod analyze;
pub mod drill;
pub mod generate;
pub mod ingest;
pub mod pack;
pub mod plan;
pub mod reprovision;
pub mod serve;
pub mod solve;

use cloud_cost::{instances, Ec2CostModel, InstanceType};
use mcss_core::dynamic::DriftModel;
use mcss_core::{Allocation, SearchBudget};
use mcss_store::WorkloadStoreExt;
use pubsub_model::{Rate, Workload};
use pubsub_sim::{SimConfig, SimReport, Simulation};
use pubsub_traces::io::read_workload;
use std::fmt::Display;
use std::str::FromStr;

/// One row of a subcommand's flag table.
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder (`N`, `FILE`); empty for a switch.
    pub metavar: &'static str,
    /// Help text, ending with the `[default]` where there is one.
    pub help: &'static str,
}

/// A table row; an empty `metavar` makes the flag a switch.
pub const fn flag(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar,
        help,
    }
}

/// What a subcommand takes before its flags.
#[derive(PartialEq)]
pub enum Positional {
    None,
    /// One required word, described for the error when it is missing.
    Required(&'static str),
    /// A trace path, or `--store FILE` in its place.
    TraceOrStore,
}

/// A subcommand's declaration: everything the parser and the help know.
pub struct Spec {
    pub name: &'static str,
    pub usage: &'static str,
    pub summary: &'static str,
    pub positional: Positional,
    pub flags: &'static [Flag],
}

// Flag rows several subcommands share word for word.
#[rustfmt::skip]
const INSTANCE: Flag = flag("--instance", "NAME", "c3.large | c3.xlarge | c3.2xlarge [c3.large]");
#[rustfmt::skip]
const EFFECTIVE: Flag = flag("--effective", "", "use the figure-calibrated capacity (DESIGN.md §3)");
const SCALE: Flag = flag("--scale", "SYNTH/PAPER", "volume-scale compensation ratio");
const TAU: Flag = flag("--tau", "N", "satisfaction threshold (required)");
#[rustfmt::skip]
const CHURN: Flag = flag("--churn", "P", "per-subscriber interest-swap probability [0.1]");
const SIGMA: Flag = flag("--sigma", "S", "log-std of per-epoch rate noise [0.1]");
const DRIFT_SEED: Flag = flag("--drift-seed", "N", "drift RNG seed [42]");
#[rustfmt::skip]
const STORE: Flag = flag("--store", "FILE", "load the workload from an MCSSTOR1 store instead of the positional trace path");

/// A parsed invocation.
#[derive(Debug)]
pub enum Command {
    Help,
    Solve(solve::Opts),
    Pack(pack::Opts),
    Plan(plan::Opts),
    Reprovision(reprovision::Opts),
    Serve(serve::Opts),
    Drill(drill::Opts),
    Generate(generate::Opts),
    Ingest(ingest::Opts),
    Analyze(analyze::Opts),
}

type Parser = fn(&Args) -> Result<Command, String>;

/// Every subcommand in help order, with the parser of its typed options.
#[rustfmt::skip]
pub const COMMANDS: [(&Spec, Parser); 9] = [
    (&solve::SPEC, |a| solve::parse(a).map(Command::Solve)),
    (&pack::SPEC, |a| pack::parse(a).map(Command::Pack)),
    (&plan::SPEC, |a| plan::parse(a).map(Command::Plan)),
    (&reprovision::SPEC, |a| reprovision::parse(a).map(Command::Reprovision)),
    (&serve::SPEC, |a| serve::parse(a).map(Command::Serve)),
    (&drill::SPEC, |a| drill::parse(a).map(Command::Drill)),
    (&generate::SPEC, |a| generate::parse(a).map(Command::Generate)),
    (&ingest::SPEC, |a| ingest::parse(a).map(Command::Ingest)),
    (&analyze::SPEC, |a| analyze::parse(a).map(Command::Analyze)),
];

/// Parses the words after the program name.
pub fn parse(words: &[String]) -> Result<Command, String> {
    let Some((name, rest)) = words.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let (spec, parser) = COMMANDS
        .iter()
        .find(|(spec, _)| spec.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `mcss help`"))?;
    parser(&Args::parse(spec, rest)?)
}

pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => {
            print!("{}", help());
            Ok(())
        }
        Command::Solve(opts) => solve::run(opts),
        Command::Pack(opts) => pack::run(opts),
        Command::Plan(opts) => plan::run(opts),
        Command::Reprovision(opts) => reprovision::run(opts),
        Command::Serve(opts) => serve::run(opts),
        Command::Drill(opts) => drill::run(opts),
        Command::Generate(opts) => generate::run(opts),
        Command::Ingest(opts) => ingest::run(opts),
        Command::Analyze(opts) => analyze::run(opts),
    }
}

/// A subcommand's arguments, checked against its [`Spec`]: every flag is
/// declared, given at most once, and has its value.
pub struct Args {
    spec: &'static Spec,
    positional: Option<String>,
    /// `(flag, value)` pairs; switches carry `""`.
    values: Vec<(&'static str, String)>,
}

impl Args {
    pub fn parse(spec: &'static Spec, words: &[String]) -> Result<Self, String> {
        let (positional, rest) = match words.split_first() {
            Some((first, rest))
                if spec.positional != Positional::None && !first.starts_with("--") =>
            {
                (Some(first.clone()), rest)
            }
            _ => (None, words),
        };
        if let (Positional::Required(what), None) = (&spec.positional, &positional) {
            return Err(format!("{} needs {what}", spec.name));
        }
        let mut values: Vec<(&'static str, String)> = Vec::new();
        let mut words = rest.iter();
        while let Some(word) = words.next() {
            let flag = spec
                .flags
                .iter()
                .find(|f| f.name == word)
                .ok_or_else(|| format!("unknown {} flag {word:?}", spec.name))?;
            if values.iter().any(|&(name, _)| name == flag.name) {
                return Err(format!("{} given twice", flag.name));
            }
            let value = match flag.metavar {
                "" => "",
                metavar => words
                    .next()
                    .ok_or_else(|| format!("{} needs {metavar}", flag.name))?,
            };
            values.push((flag.name, value.to_owned()));
        }
        Ok(Args {
            spec,
            positional,
            values,
        })
    }

    /// The raw value of `name`, if given. Asking for a flag the command
    /// does not declare is a bug, caught in debug builds.
    fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.spec.flags.iter().any(|f| f.name == name),
            "{} declares no flag {name}",
            self.spec.name
        );
        let (_, value) = self.values.iter().find(|(flag, _)| *flag == name)?;
        Some(value)
    }

    /// The positional argument of a command that requires one.
    pub fn positional(&self) -> String {
        self.positional.clone().expect("Args::parse requires it")
    }

    pub fn switch(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    pub fn text(&self, name: &str) -> Option<String> {
        self.raw(name).map(str::to_owned)
    }

    /// The value of `name` through `parse`, whose error is reported as is.
    pub fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.raw(name).map(parse).transpose()
    }

    pub fn num<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed(name, |raw| {
            raw.parse()
                .map_err(|e| format!("bad {name} value {raw:?}: {e}"))
        })
    }

    pub fn num_or<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.num(name)?.unwrap_or(default))
    }

    /// A number that must not be zero; `rule` completes the error
    /// (`"must be at least 1"`).
    pub fn nonzero<T>(&self, name: &str, rule: &str) -> Result<Option<T>, String>
    where
        T: FromStr<Err: Display> + Default + PartialEq,
    {
        match self.num(name)? {
            Some(v) if v == T::default() => Err(format!("{name} {rule}")),
            v => Ok(v),
        }
    }

    /// The positional trace path or `--store FILE`: exactly one of them.
    pub fn source(&self) -> Result<WorkloadSource, String> {
        let cmd = self.spec.name;
        match (self.positional.clone(), self.text("--store")) {
            (Some(t), None) => Ok(WorkloadSource::Trace(t)),
            (None, Some(s)) => Ok(WorkloadSource::Store(s)),
            (Some(_), Some(_)) => Err(format!(
                "{cmd} takes either a trace path or --store, not both"
            )),
            (None, None) => Err(format!("{cmd} needs a trace path or --store FILE")),
        }
    }

    pub fn instance(&self) -> Result<InstanceType, String> {
        let name = self.raw("--instance").unwrap_or("c3.large");
        let instance = instances::ALL.iter().find(|i| i.name() == name);
        instance
            .copied()
            .ok_or_else(|| format!("unknown instance type {name:?}"))
    }

    pub fn calibration(&self) -> Result<Calibration, String> {
        Ok(Calibration {
            effective: self.switch("--effective"),
            scale: self.parsed("--scale", parse_scale)?,
        })
    }

    /// `--churn`, `--sigma` and `--drift-seed`.
    pub fn drift(&self) -> Result<DriftModel, String> {
        let churn = self.num_or("--churn", 0.1f64)?;
        if !(0.0..=1.0).contains(&churn) {
            return Err("--churn must be a probability in [0, 1]".into());
        }
        let sigma = self.num_or("--sigma", 0.1f64)?;
        if sigma < 0.0 {
            return Err("--sigma must be non-negative".into());
        }
        Ok(DriftModel {
            rate_sigma: sigma,
            churn_prob: churn,
            seed: self.num_or("--drift-seed", 42)?,
        })
    }
}

pub fn required<T>(value: Option<T>, name: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("{name} is required"))
}

/// How capacity and prices are calibrated (`--effective`, `--scale`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Calibration {
    pub effective: bool,
    /// Volume-scale compensation `(synthetic, paper)`.
    pub scale: Option<(u64, u64)>,
}

impl Calibration {
    pub fn cost_model(self, instance: InstanceType) -> Ec2CostModel {
        let cost = if self.effective {
            Ec2CostModel::paper_effective(instance)
        } else {
            Ec2CostModel::paper_default(instance)
        };
        match self.scale {
            Some((synth, paper)) => cost.with_volume_scale(synth, paper),
            None => cost,
        }
    }

    /// The whole instance catalogue under this calibration: the
    /// candidates for `plan` and the tiers of a `--mixed` fleet.
    pub fn catalogue(self) -> Vec<Ec2CostModel> {
        instances::ALL.iter().map(|&i| self.cost_model(i)).collect()
    }
}

/// Where a command's workload comes from: a TSV trace (parsed row by
/// row) or an ingested `MCSSTOR1` store (one read plus checksums, zero
/// per-row work — see `docs/STORE.md`).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSource {
    Trace(String),
    Store(String),
}

impl WorkloadSource {
    pub fn load(&self) -> Result<Workload, String> {
        match self {
            WorkloadSource::Trace(path) => load_trace(path),
            WorkloadSource::Store(path) => load_store(path),
        }
    }
}

pub fn load_trace(path: &str) -> Result<Workload, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    read_workload(std::io::BufReader::new(file)).map_err(|e| e.to_string())
}

pub fn load_store(path: &str) -> Result<Workload, String> {
    Workload::from_store(path.as_ref()).map_err(|e| format!("loading store {path}: {e}"))
}

/// Replays `allocation` through the broker simulation; `true` when every
/// subscriber reached `tau`.
pub fn simulate(workload: &Workload, allocation: &Allocation, tau: Rate) -> (SimReport, bool) {
    let report = Simulation::new(SimConfig::default()).run(workload, allocation);
    let ok = report.all_satisfied(workload, tau);
    (report, ok)
}

pub fn print_sim_verdict(label: &str, ok: bool) {
    let verdict = if ok {
        "all subscribers satisfied"
    } else {
        "VIOLATED"
    };
    println!("{label}: {verdict}");
}

fn parse_scale(spec: &str) -> Result<(u64, u64), String> {
    let (a, b) = spec
        .split_once('/')
        .ok_or_else(|| format!("bad scale {spec:?}, want SYNTH/PAPER"))?;
    let a: u64 = a.parse().map_err(|e| format!("bad scale numerator: {e}"))?;
    let b: u64 = b
        .parse()
        .map_err(|e| format!("bad scale denominator: {e}"))?;
    if a == 0 || b == 0 {
        return Err("scale parts must be positive".into());
    }
    Ok((a, b))
}

/// Budget grammar for `--refine`: a bare integer caps local-search
/// moves (deterministic, replay-safe); an `ms`/`s` suffix caps
/// wall-clock instead.
pub fn parse_budget(spec: &str) -> Result<SearchBudget, String> {
    let time = |digits: &str, unit: fn(u64) -> std::time::Duration| match digits.parse::<u64>() {
        Ok(0) => Err(format!("--refine budget {spec:?} must be positive")),
        Ok(n) => Ok(SearchBudget::time(unit(n))),
        Err(e) => Err(format!("bad --refine budget {spec:?}: {e}")),
    };
    if let Some(ms) = spec.strip_suffix("ms") {
        return time(ms, std::time::Duration::from_millis);
    }
    if let Some(secs) = spec.strip_suffix('s') {
        return time(secs, std::time::Duration::from_secs);
    }
    let steps = spec
        .parse()
        .map_err(|_| format!("bad --refine budget {spec:?}: want moves, Nms, or Ns"))?;
    Ok(SearchBudget::steps(steps))
}

/// The `mcss help` text, rendered from the command tables.
pub fn help() -> String {
    let mut out =
        String::from("mcss — Minimum Cost Subscriber Satisfaction solver (ICDCS 2014)\n\nUSAGE:\n");
    for (spec, _) in &COMMANDS {
        push_entry(&mut out, &format!("  {}", spec.usage), 45, spec.summary);
    }
    push_entry(&mut out, "  mcss help", 45, "this text");
    let takes_store: Vec<&str> = COMMANDS
        .iter()
        .filter(|(spec, _)| spec.positional == Positional::TraceOrStore)
        .map(|(spec, _)| spec.name)
        .collect();
    out.push('\n');
    let note = format!(
        "Commands that take <trace.tsv> positionally ({}) accept --store FILE instead: the \
         workload then loads from an ingested MCSSTOR1 store — one read plus checksums, no \
         per-row parsing.",
        takes_store.join(", ")
    );
    push_entry(&mut out, "", 0, &note);
    for (spec, _) in &COMMANDS {
        out.push_str(&format!("\n{} OPTIONS:\n", spec.name.to_uppercase()));
        for flag in spec.flags {
            let lead = format!("  {} {}", flag.name, flag.metavar);
            push_entry(&mut out, lead.trim_end(), 25, flag.help);
        }
    }
    out
}

/// Appends `lead`, then `text` word-wrapped at 79 columns into a column
/// starting at `indent`; a lead too long for the column gets its own line.
fn push_entry(out: &mut String, lead: &str, indent: usize, text: &str) {
    let mut line = format!("{lead:<indent$}");
    if !lead.is_empty() && lead.len() >= indent {
        out.push_str(lead);
        out.push('\n');
        line = " ".repeat(indent);
    }
    for word in text.split_whitespace() {
        let width = line.chars().count();
        if width > indent {
            if width + 1 + word.chars().count() > 79 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            } else {
                line.push(' ');
            }
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(w: &[&str]) -> Vec<String> {
        w.iter().map(|s| s.to_string()).collect()
    }

    /// Every (subcommand, flag) pair the CLI accepts, with a sample value
    /// (`""` for a switch). Adding, dropping or renaming an option must
    /// show up here as well as in the tables and the help.
    const SURFACE: [(&str, &str, &str); 79] = [
        ("solve", "--tau", "5"),
        ("solve", "--instance", "c3.xlarge"),
        ("solve", "--selector", "rsp"),
        ("solve", "--allocator", "ffbp"),
        ("solve", "--shards", "2"),
        ("solve", "--threads", "2"),
        ("solve", "--partitioner", "hash"),
        ("solve", "--refine", "64"),
        ("solve", "--store", "w.mcss"),
        ("solve", "--effective", ""),
        ("solve", "--scale", "1/2"),
        ("solve", "--simulate", ""),
        ("pack", "--tau", "5"),
        ("pack", "--instance", "c3.xlarge"),
        ("pack", "--refine", "100ms"),
        ("pack", "--mixed", ""),
        ("pack", "--export-lp", "p.lp"),
        ("pack", "--effective", ""),
        ("pack", "--scale", "1/2"),
        ("plan", "--tau", "5"),
        ("plan", "--mixed", ""),
        ("plan", "--effective", ""),
        ("plan", "--scale", "1/2"),
        ("reprovision", "--tau", "5"),
        ("reprovision", "--epochs", "2"),
        ("reprovision", "--churn", "0.2"),
        ("reprovision", "--sigma", "0.3"),
        ("reprovision", "--drift-seed", "7"),
        ("reprovision", "--fresh", ""),
        ("reprovision", "--threads", "2"),
        ("reprovision", "--instance", "c3.xlarge"),
        ("reprovision", "--mixed", ""),
        ("reprovision", "--store", "w.mcss"),
        ("reprovision", "--effective", ""),
        ("reprovision", "--scale", "1/2"),
        ("reprovision", "--simulate", ""),
        ("serve", "--trace", "twitter"),
        ("serve", "--store", "w.mcss"),
        ("serve", "--size", "100"),
        ("serve", "--seed", "7"),
        ("serve", "--tau", "5"),
        ("serve", "--instance", "c3.xlarge"),
        ("serve", "--epochs", "2"),
        ("serve", "--epoch-events", "64"),
        ("serve", "--epoch-ms", "10"),
        ("serve", "--churn", "0.2"),
        ("serve", "--sigma", "0.3"),
        ("serve", "--drift-seed", "7"),
        ("serve", "--dir", "d"),
        ("serve", "--snapshot-every", "2"),
        ("serve", "--threads", "2"),
        ("serve", "--resume", ""),
        ("serve", "--drill", "1:0-3;2:20%"),
        ("serve", "--repair-budget", "5"),
        ("serve", "--compact-every", "2"),
        ("serve", "--compact-steps", "64"),
        ("serve", "--sync-retries", "1"),
        ("serve", "--retry-backoff-ms", "1"),
        ("serve", "--effective", ""),
        ("serve", "--scale", "1/2"),
        ("serve", "--summary", "s.json"),
        ("serve", "--simulate", ""),
        ("drill", "--tau", "5"),
        ("drill", "--kill", "0,2-3"),
        ("drill", "--sla-pairs", "5"),
        ("drill", "--max-epochs", "3"),
        ("drill", "--instance", "c3.xlarge"),
        ("drill", "--effective", ""),
        ("drill", "--scale", "1/2"),
        ("generate", "--size", "100"),
        ("generate", "--seed", "7"),
        ("generate", "--out", "o.tsv"),
        ("ingest", "--out", "o.mcss"),
        ("analyze", "--store", "w.mcss"),
        ("analyze", "--blast-radius", "2"),
        ("analyze", "--tau", "5"),
        ("analyze", "--instance", "c3.xlarge"),
        ("analyze", "--effective", ""),
        ("analyze", "--scale", "1/2"),
    ];

    /// A minimal valid invocation of `cmd` that also gives `flag`.
    fn invocation(cmd: &str, flag: &str, sample: &str) -> Vec<String> {
        let mut w = vec![cmd];
        match cmd {
            "generate" => w.push("spotify"),
            "serve" => {}
            _ if flag == "--store" => {}
            _ => w.push("t.tsv"),
        }
        let base: &[&str] = match cmd {
            "solve" | "pack" | "plan" | "reprovision" => &["--tau", "5"],
            "drill" => &["--tau", "5", "--kill", "0"],
            "serve" if flag == "--store" => &[],
            "serve" => &["--trace", "spotify"],
            "ingest" => &["--out", "o.mcss"],
            _ => &[],
        };
        for pair in base.chunks(2) {
            if pair[0] != flag {
                w.extend(pair);
            }
        }
        // Flags that are only legal next to another one.
        match flag {
            "--resume" => w.extend(["--dir", "d"]),
            "--compact-steps" => w.extend(["--compact-every", "2"]),
            "--blast-radius" => w.extend(["--tau", "5"]),
            _ => {}
        }
        w.push(flag);
        if !sample.is_empty() {
            w.push(sample);
        }
        words(&w)
    }

    #[test]
    fn flag_surface_is_frozen_and_matches_help() {
        let declared: Vec<(&str, &str)> = COMMANDS
            .iter()
            .flat_map(|(spec, _)| spec.flags.iter().map(|f| (spec.name, f.name)))
            .collect();
        let frozen: Vec<(&str, &str)> = SURFACE.iter().map(|&(c, f, _)| (c, f)).collect();
        assert_eq!(
            declared, frozen,
            "the flag tables drifted from the frozen surface"
        );

        let help = help();
        for (cmd, flag, sample) in SURFACE {
            let words = invocation(cmd, flag, sample);
            if let Err(e) = parse(&words) {
                panic!("{words:?} failed to parse: {e}");
            }
            let section = help
                .split(&format!("\n{} OPTIONS:\n", cmd.to_uppercase()))
                .nth(1)
                .and_then(|rest| rest.split("\n\n").next())
                .unwrap_or_else(|| panic!("no {cmd} section in help"));
            assert!(
                section
                    .lines()
                    .any(|l| l.trim_start().split(' ').next() == Some(flag)),
                "{cmd} {flag} missing from help"
            );
        }
        for (spec, _) in &COMMANDS {
            assert!(help.contains(spec.usage), "{} usage missing", spec.name);
        }
        assert!(help.contains("accept --store FILE instead"));
    }

    #[test]
    fn parser_errors_name_the_flag() {
        let err = |w: &[&str]| parse(&words(w)).unwrap_err();
        // A repeated flag is refused, not silently overridden.
        assert_eq!(
            err(&["serve", "--trace", "spotify", "--drill", "1:0", "--drill", "2:0"]),
            "--drill given twice"
        );
        assert_eq!(
            err(&["solve", "t.tsv", "--tau", "1", "--frob"]),
            "unknown solve flag \"--frob\""
        );
        assert_eq!(
            err(&["solve", "t.tsv", "--tau", "1", "--scale"]),
            "--scale needs SYNTH/PAPER"
        );
        assert_eq!(err(&["drill"]), "drill needs a trace path");
        assert_eq!(
            err(&["drill", "--tau", "1"]),
            "drill needs a trace path",
            "a flag is never taken for the positional"
        );
        assert_eq!(
            err(&["solve", "t.tsv", "--tau", "1", "--threads", "0"]),
            "--threads must be at least 1"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan declares no flag --instance")]
    fn reading_an_undeclared_flag_panics_in_debug_builds() {
        let args = Args::parse(&plan::SPEC, &words(&["t.tsv"])).unwrap();
        let _ = args.instance();
    }
}

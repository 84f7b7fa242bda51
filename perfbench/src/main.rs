//! Serving benchmark for `pdqi`: generates a seeded workload, starts `pdqi serve`
//! as a child process, drives it over the wire (closed loop for its capacity, open
//! loop for latencies), checks every answer against an in-process oracle, and
//! prints the metrics.
//!
//! ```text
//! pdqi-perfbench --workload <serve_hot|adhoc_scan> --seed N --seconds S
//!                --trace <0|1> --pdqi <path to pdqi> --out <results directory>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the same
//! requests in-process through each layer's public functions with spans and prints
//! the per-layer table (see `trace.rs`). The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod oracle;
mod run;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads. Each stresses different layers (see `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A small recurring pool of prepared reads: framing, dispatch, lease, render.
    ServeHot,
    /// A fresh query per operation: planner, evaluation, repair-product enumeration.
    AdhocScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "adhoc_scan" => Some(Workload::AdhocScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::AdhocScan => "adhoc_scan",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pdqi: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| values.get(name).ok_or_else(|| format!("--{name} is required"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed takes an integer")?,
        seconds: get("seconds")?.parse().map_err(|_| "--seconds takes a number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        pdqi: PathBuf::from(get("pdqi")?),
        out: PathBuf::from(get("out")?),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form detail recorded in the results file (steps, lateness, table).
    pub detail: Vec<String>,
}

/// nproc, CPU model, kernel, rustc and the commit (or, outside git, the binary's
/// hash): recorded with every result.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    // git must not look above the working directory: outside a repository the
    // commit is unknown, not some enclosing repository's.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string());
    // FNV-1a of the measured binary pins the build when there is no commit.
    let binary = std::fs::read(&args.pdqi).unwrap_or_default();
    let hash = binary
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{rustc}\" commit={commit} pdqi_fnv1a={hash:016x}"
    )
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let fingerprint = fingerprint(&args);
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("# machine {fingerprint}");
    let report = if args.trace { trace::run(&args) } else { run::run(&args) };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for metric in &report.metrics {
        println!(
            "{:<34} {:>14.4} {:<8} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!("fail_frac {fail_frac} ({} of {} attempted)", report.failed, report.attempted);
    for mismatch in report.mismatches.iter().take(10) {
        println!("# mismatch: {mismatch}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    // JSON has no NaN or infinity: a metric without a value is a failed run.
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} has no finite value", bad.name);
        return ExitCode::FAILURE;
    }
    let correct = report.failed == 0 && report.mismatches.is_empty();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    // The full record: fingerprint, samples per metric and the run's detail.
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"machine\": {}, \"samples\": {{{}}}, \"detail\": [{}], \"result\": {line}}}\n",
        json_string(args.workload.name()),
        args.seed,
        args.trace,
        json_string(&fingerprint),
        report.metrics.iter().map(|m| format!("{}: {}", json_string(m.name), m.samples)).collect::<Vec<_>>().join(", "),
        report.detail.iter().map(|d| json_string(d)).collect::<Vec<_>>().join(", "),
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

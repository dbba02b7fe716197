//! perfbench — the repository benchmark (see README.md and `run_cli`).
//!
//! ```text
//! perfbench --workload <campaign-cold|campaign-warm|serve-stream> --seed <n>
//!           --seconds <s> --trace <0|1> [--workload-seed <n>]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). Exits 1 when any correctness check fails, 2 on bad usage.

mod campaign;
mod host;
mod serve;
mod spans;
pub mod spec;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload-generation seed of every figure (`gdp_bench::SWEEP_SEED`).
const DEFAULT_WORKLOAD_SEED: u64 = gdp_bench::SWEEP_SEED;

/// Parsed command line.
pub(crate) struct Args {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Run seed: orders the campaign's workloads and names the served
    /// tenants. Results are checked to be independent of it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Seed the campaign's workloads are generated from.
    pub workload_seed: u64,
    /// Benchmark state: fixtures, temporary caches, trace files.
    pub state: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <campaign-cold|campaign-warm|serve-stream> \
--seed <n> --seconds <s> --trace <0|1> [--workload-seed <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut workload_seed = DEFAULT_WORKLOAD_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--workload-seed" => workload_seed = num(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        workload_seed,
        state: state_dir(),
    })
}

/// `<target dir>/perfbench-state`: beside the build, so a clean checkout
/// starts without fixtures and `.gitignore`d build output holds them.
fn state_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // <target>/release/perfbench → <target>
    let target =
        exe.parent().and_then(Path::parent).expect("executable sits in <target>/<profile>");
    target.join("perfbench-state")
}

/// What one run measured and checked.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Operations attempted (campaign jobs, or tenant sessions).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Run-level check failures (digest, cache, row mismatches).
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Print a human-readable line with the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Per-layer metrics of layers the workload does not reach read 0
    /// (`host.calib_ns` is set by [`run_cli`] for every workload).
    pub fn fill_unreached(&mut self) {
        for m in spec::PER_LAYER {
            if m.name != "host.calib_ns" {
                self.metrics.entry(m.name).or_insert(0.0);
            }
        }
    }

    /// End a run that failed before measuring: every metric it owes
    /// prints as null, so the failure, not a missing key, is what shows.
    pub fn failed_early(mut self, args: &Args, msg: String) -> Outcome {
        self.fail(msg);
        let wanted = if args.trace { spec::PER_LAYER } else { spec::END_TO_END };
        for m in wanted {
            self.metrics.entry(m.name).or_insert(f64::NAN);
        }
        self
    }
}

/// Identity of a traced run, written into every span.
fn run_id(args: &Args) -> String {
    format!("{}-seed{}-pid{}", args.workload, args.seed, std::process::id())
}

/// Write a traced run's spans under `<state>/traces/`.
fn write_trace(tr: &spans::Tracer, args: &Args, out: &mut Outcome) {
    let path =
        args.state.join("traces").join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    match tr.write_chrome(&path) {
        Ok(()) => out.note(format!("trace written to {}", path.display())),
        Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
    }
}

/// Record `setup_s`, the median of the set-up `times`, with a note of
/// their range.
fn report_setup(out: &mut Outcome, times: &[f64]) {
    let (lo, hi) = (quantile(times, 0.0), quantile(times, 1.0));
    out.note(format!("set-up: {} repeats, {lo:.6e}..{hi:.6e} s", times.len()));
    out.set("setup_s", median(times));
}

/// Median (of a copy); NaN when empty.
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` in [0, 1] (of a copy); NaN when empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// FNV-1a 64 of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64: the benchmark's seeded generator (job order, tenant ids).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that reads back
        // exactly: every digit as measured.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Parse the command line, run one workload, print the result.
pub fn run_cli() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let info = host::RunInfo::gather(&root);
    println!(
        "perfbench {} seed={} workload_seed={} seconds={} trace={} nproc={} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.workload_seed,
        args.seconds,
        u8::from(args.trace),
        info.nproc,
        info.rustc,
        info.commit
    );
    let calib_start = host::calib_ns();
    let mut out = match args.workload.as_str() {
        spec::COLD => campaign::cold(&args),
        spec::WARM => campaign::warm(&args),
        _ => serve::run(&args),
    };
    let calib_end = host::calib_ns();
    out.note(format!("host.calib_ns start={calib_start} end={calib_end}"));
    if args.trace {
        out.set("host.calib_ns", (calib_start + calib_end) as f64 / 2.0);
    }

    let wanted = if args.trace { spec::PER_LAYER } else { spec::END_TO_END };
    for m in wanted {
        if !out.metrics.contains_key(m.name) {
            panic!("workload {} did not report {}", args.workload, m.name);
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value) in &out.metrics {
        println!("{name:<36} {value:>20.6} {}", spec::unit(name));
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = wanted
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(out.metrics[m.name]),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! The benchmark's own tests: its metric table against `BENCHMARK.json`,
//! and whole runs of the built command. Runs take minutes (a cold
//! campaign is ~45 s on a 2-CPU host); they share one state directory,
//! so they take a lock and run one at a time.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

use gdp_runner::Json;
use perfbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};

static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(name)
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

/// A name: a letter or digit, then at most 63 letters, digits, `_`, `.`
/// and `-`.
fn valid_name(n: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()) && n.chars().all(ok)
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_table_matches_benchmark_json_and_every_name_is_valid() {
    let b = benchmark_json();
    let table = |ms: &[perfbench::spec::Metric]| -> Vec<(String, String, String)> {
        ms.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect()
    };
    assert_eq!(names(b.get("end_to_end").expect("end_to_end")), table(END_TO_END));
    assert_eq!(names(b.get("per_layer").expect("per_layer")), table(PER_LAYER));
    let workloads: Vec<String> =
        names(b.get("workloads").expect("workloads")).into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "invalid metric name {}", m.name);
        assert!(valid_unit(m.unit), "invalid unit {} of {}", m.unit, m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}: better = {}", m.name, m.better);
        assert!(seen.insert(m.name), "{} is listed twice", m.name);
    }
    for w in &workloads {
        assert!(valid_name(w), "invalid workload name {w}");
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is end-to-end");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn every_should_move_entry_names_an_end_to_end_metric_and_a_workload() {
    let layers_with_targets = PER_LAYER.iter().filter(|m| !m.moves.is_empty()).count();
    assert!(layers_with_targets >= PER_LAYER.len() - 3, "only host and bench probes move nothing");
    for m in PER_LAYER {
        for (metric, workload) in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *metric),
                "{}: unknown metric {metric}",
                m.name
            );
            assert!(WORKLOADS.contains(workload), "{}: unknown workload {workload}", m.name);
        }
    }
}

/// Run the built command; returns its exit status success and the
/// metrics of its result line.
fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    workload_seed: u64,
) -> (bool, BTreeMap<String, f64>) {
    let _one = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_file(""))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--workload-seed",
            &workload_seed.to_string(),
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e:?}"));
    assert_eq!(result.get("correct"), Some(&Json::Bool(out.status.success())), "{stdout}");
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)))
            .collect(),
        other => panic!("metrics: {other:?}"),
    };
    (out.status.success(), metrics)
}

/// Per-layer metrics that are counts of deterministic work.
const COUNTS: &[&str] = &[
    "sim.instrs",
    "sim.cycles",
    "sim.skip_frac",
    "trace.bytes_written",
    "cache.stores",
    "trace.bytes_read",
    "trace.hit_frac",
    "session.events",
    "session.intervals",
];

#[test]
fn deterministic_counts_repeat_exactly_and_equal_the_gate_on_cold() {
    let gate_text = std::fs::read_to_string(repo_file("BENCH_gate.json")).expect("BENCH_gate.json");
    let gate = Json::parse(&gate_text).expect("gate parses");
    let strict = gate.get("strict_counters").expect("strict counters");
    let g = |n: &str| strict.get(n).and_then(Json::as_f64).expect("gate counter");
    for workload in WORKLOADS {
        let (ok_a, a) = run(workload, 11, 1, true, 2018);
        let (ok_b, b) = run(workload, 12, 1, true, 2018);
        assert!(ok_a && ok_b, "{workload}: both traced runs pass their checks");
        for c in COUNTS {
            assert_eq!(a[*c].to_bits(), b[*c].to_bits(), "{workload}: {c} repeats exactly");
        }
        if workload == "campaign-cold" {
            assert_eq!(a["session.events"], g("session.events"));
            assert_eq!(a["session.intervals"], g("session.intervals"));
            assert_eq!(a["cache.stores"], g("cache.stores"));
            assert_eq!(a["sim.cycles"], g("engine.cycles"));
            assert!(a["bench.unattributed_frac"] < 0.05, "cold: {}", a["bench.unattributed_frac"]);
        }
        if workload == "campaign-warm" {
            assert_eq!(a["session.events"], g("session.events"));
            assert_eq!(a["session.intervals"], g("session.intervals"));
            assert_eq!(a["trace.hit_frac"], 1.0);
            assert!(a["bench.unattributed_frac"] < 0.05, "warm: {}", a["bench.unattributed_frac"]);
        }
    }
}

#[test]
fn held_out_workload_seed_matches_its_pinned_digests_on_both_campaigns() {
    // Exit status success means every cell digest matched the pin.
    for workload in ["campaign-cold", "campaign-warm"] {
        let (ok, m) = run(workload, 5, 1, false, 7);
        assert!(ok, "{workload} at workload seed 7");
        assert!(m["gdp_o_ipc_rms_err"] > 0.0);
    }
}

/// The pinned 2018 digest is that of `fig3 --tiny --json`'s data cells.
/// Needs a results file from the figure binary, so it runs on request:
/// `cargo run --release -p gdp-bench --bin fig3 -- --tiny --json` at the
/// repository root, then `cargo test --release -- --ignored`.
#[test]
#[ignore = "needs results/fig3.json from a fig3 --tiny --json run"]
fn pinned_digest_equals_fig3_data_cells() {
    let text = std::fs::read_to_string(repo_file("results/fig3.json")).expect("results/fig3.json");
    let doc = Json::parse(&text).expect("fig3 results parse");
    let cells = doc.get("data").and_then(|d| d.get("cells")).expect("data.cells");
    let fnv = |b: &[u8]| {
        b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ u64::from(*x)).wrapping_mul(0x100_0000_01b3)
        })
    };
    assert_eq!(fnv(cells.to_pretty().as_bytes()), 0xeda1_70e8_208a_a942);
}

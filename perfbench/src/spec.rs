//! The benchmark's metric table: every metric's unit, direction and
//! layer, and for each per-layer metric the end-to-end metrics (on which
//! workloads) it should move. `BENCHMARK.json` lists the same names and
//! units; the package tests hold the two in step.

/// The three workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = [COLD, WARM, SERVE];
/// Fig. 3 `--tiny` campaign simulated live into an empty trace cache.
pub const COLD: &str = "campaign-cold";
/// The same campaign replayed from a complete trace cache.
pub const WARM: &str = "campaign-warm";
/// Closed-loop tenant sessions through `gdp-serve`.
pub const SERVE: &str = "serve-stream";

/// One metric.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The program layer the metric measures (`end-to-end` for the
    /// user-visible metrics).
    pub layer: &'static str,
    /// `(end-to-end metric, workload)` pairs a change in this layer
    /// should move; empty for end-to-end metrics and host probes.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, layer: "end-to-end", moves: &[] }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric { name, unit, better, layer, moves }
}

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("sim_instrs_per_s", "instrs/s", "higher"),
    e2e("cpu_ns_per_instr", "ns", "lower"),
    e2e("events_per_s", "events/s", "higher"),
    e2e("cpu_ns_per_event", "ns", "lower"),
    e2e("interval_p50_us", "us", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("gdp_o_ipc_rms_err", "ipc", "lower"),
];

const SIM: &[(&str, &str)] = &[("sim_instrs_per_s", COLD)];
const READ: &[(&str, &str)] = &[("events_per_s", WARM)];
const SERVING: &[(&str, &str)] = &[("events_per_s", SERVE), ("interval_p50_us", SERVE)];
const LOADED: &[(&str, &str)] = &[("cpu_ns_per_event", SERVE)];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A
/// metric of a layer the workload does not reach reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("experiments.shared_live_s", "s", "lower", "gdp-sim via gdp-experiments", SIM),
    layer("experiments.private_s", "s", "lower", "gdp-sim via gdp-experiments", SIM),
    layer("sim.shared_ns_per_cycle", "ns", "lower", "gdp-sim", SIM),
    layer("sim.private_ns_per_cycle", "ns", "lower", "gdp-sim", SIM),
    layer("sim.skip_frac", "frac", "higher", "gdp-sim", SIM),
    layer("sim.instrs", "count", "lower", "gdp-sim", SIM),
    layer("sim.cycles", "count", "lower", "gdp-sim", SIM),
    layer("trace.encode_s", "s", "lower", "gdp-trace write", SIM),
    layer("trace.store_s", "s", "lower", "gdp-trace write", SIM),
    layer("trace.bytes_written", "bytes", "lower", "gdp-trace write", SIM),
    layer("cache.stores", "count", "lower", "gdp-trace write", SIM),
    layer("experiments.summarize_s", "s", "lower", "gdp-experiments", SIM),
    layer("trace.load_s", "s", "lower", "gdp-trace read", READ),
    layer("trace.decode_ns_per_byte", "ns/B", "lower", "gdp-trace read", READ),
    layer("trace.bytes_read", "bytes", "lower", "gdp-trace read", READ),
    layer("trace.hit_frac", "frac", "higher", "gdp-trace read", READ),
    layer("session.transparent_ns_per_event", "ns", "lower", "estimator stack", READ),
    layer("session.asm_ns_per_event", "ns", "lower", "estimator stack", READ),
    layer("session.events", "count", "lower", "estimator stack", READ),
    layer("session.intervals", "count", "lower", "estimator stack", READ),
    layer("experiments.private_decode_s", "s", "lower", "gdp-experiments", READ),
    layer("experiments.score_s", "s", "lower", "gdp-experiments", READ),
    layer(
        "session.embedded_ns_per_event",
        "ns",
        "lower",
        "estimator stack",
        &[("events_per_s", SERVE)],
    ),
    layer("serve.overhead_ns_per_event", "ns", "lower", "gdp-serve", SERVING),
    layer("serve.encode_ns_per_event", "ns", "lower", "gdp-serve", SERVING),
    layer("serve.frame_ns_per_byte", "ns/B", "lower", "gdp-serve", SERVING),
    layer("serve.hello_us_p50", "us", "lower", "gdp-serve", SERVING),
    layer("serve.interval_p99_us", "us", "lower", "gdp-serve", SERVING),
    layer("serve.shutdown_ms", "ms", "lower", "gdp-serve", SERVING),
    layer("serve.sys_cpu_frac", "frac", "lower", "gdp-serve", LOADED),
    layer("serve.vcsw_per_interval", "count", "lower", "gdp-serve", LOADED),
    layer("serve.threads_peak", "count", "lower", "gdp-serve", LOADED),
    layer("host.calib_ns", "ns", "lower", "host", &[]),
    layer("bench.trace_overhead_frac", "frac", "lower", "benchmark", &[]),
    layer("bench.unattributed_frac", "frac", "lower", "benchmark", &[]),
];

/// The unit of a known metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

//! `campaign-cold` and `campaign-warm`: the Fig. 3 `--tiny` accuracy
//! campaign (9 cells, 12 workloads, 80 jobs, all five techniques) on one
//! worker, simulated live into an empty trace cache, or replayed from a
//! complete one.
//!
//! Untraced runs drive the program's own glue: `generate_workloads`,
//! then `evaluate_workload_traced` with a `CampaignTraces` policy, once
//! per workload. Traced runs make the same calls one layer at a time
//! (the order `CampaignTraces` makes them in), with a span around each.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gdp_bench::{aggregate, all_cells, cell_accuracy_json, Scale, SweepCell};
use gdp_experiments::{
    checkpoint_key, evaluate_workload_traced, private_base, private_from_trace, private_to_trace,
    private_trace_key, record_shared_metered, shared_trace_key_for, summarize_checkpoints,
    transparent_subset, CampaignTraces, ExperimentConfig, PrivateRun, ReplaySession, SharedRun,
    Technique, WorkloadAccuracy, WorkloadEval,
};
use gdp_runner::Json;
use gdp_telemetry::MetricsRegistry;
use gdp_trace::{
    decode_private, decode_shared, encode_checkpoints, encode_private, encode_shared, TraceCache,
};
use gdp_workloads::{generate_workloads, LlcClass, Workload};

use crate::host::{self, Usage};
use crate::spans::Tracer;
use crate::{fnv64, median, report_setup, run_id, splitmix, write_trace, Args, Outcome};

/// Pinned FNV-1a digests of the campaign's `cells` (the `data.cells`
/// array of `fig3 --tiny --json`, as `gdp_runner::Json::to_pretty`
/// prints it): `(workload seed, whole array, each cell in order)`.
/// 2018 is the figures' seed; 7 is held out (never used while tuning).
const PINNED: &[(u64, u64, [u64; 9])] = &[
    (
        2018,
        0xeda1_70e8_208a_a942,
        [
            0xe0e9_b8c5_0738_f883,
            0x9f9a_2f29_0022_f1cd,
            0x1807_7d71_a3e1_05e2,
            0xb35f_12e5_ce55_9444,
            0xa401_462c_66ec_ba5a,
            0x1d70_ef0f_8e78_90d5,
            0xe8c6_b5e9_e31f_8722,
            0xaa1a_a7ee_92be_3328,
            0x1c38_dd89_7e45_b831,
        ],
    ),
    (
        7,
        0xe253_d02a_c5db_6058,
        [
            0xda98_a0e6_3039_7f5d,
            0x0ae2_7e07_c311_197c,
            0x3320_f9d7_8dcd_dacc,
            0x3394_213a_37df_e36c,
            0xd95b_3078_33bb_5c5b,
            0xf858_6e4e_aa58_8839,
            0xfe03_a69b_5050_8adf,
            0xfbdc_3630_6943_25cf,
            0x8614_ccc1_7181_22bf,
        ],
    ),
];

/// How many times set-up runs; its median is `setup_s`. Cold set-up is
/// tens of microseconds, so it is repeated enough for a steady median.
const COLD_SETUP_REPEATS: usize = 101;
const WARM_SETUP_REPEATS: usize = 7;

/// The campaign's inputs: per cell its configuration and workloads, and
/// the order (from the run seed) in which workloads are evaluated.
struct Plan {
    cells: Vec<(SweepCell, ExperimentConfig, Vec<Workload>)>,
    order: Vec<(usize, usize)>,
}

impl Plan {
    fn new(workload_seed: u64, seed: u64) -> Plan {
        let (h, m, l) = Scale::Tiny.class_counts();
        let cells: Vec<_> = all_cells()
            .into_iter()
            .map(|c| {
                let count = match c.class {
                    LlcClass::H => h,
                    LlcClass::M => m,
                    LlcClass::L => l,
                };
                let ws = generate_workloads(c.cores, c.class, count, workload_seed);
                (c, Scale::Tiny.xcfg(c.cores), ws)
            })
            .collect();
        let mut order: Vec<(usize, usize)> = cells
            .iter()
            .enumerate()
            .flat_map(|(ci, (_, _, ws))| (0..ws.len()).map(move |wi| (ci, wi)))
            .collect();
        // Fisher–Yates from the run seed: results must not depend on it.
        let mut r = seed;
        for i in (1..order.len()).rev() {
            r = splitmix(r);
            order.swap(i, (r % (i as u64 + 1)) as usize);
        }
        Plan { cells, order }
    }

    /// Jobs of one workload: transparent and invasive shared runs plus
    /// one private run per core.
    fn jobs_of(&self, ci: usize) -> u64 {
        2 + self.cells[ci].0.cores as u64
    }

    fn jobs(&self) -> u64 {
        self.order.iter().map(|&(ci, _)| self.jobs_of(ci)).sum()
    }
}

/// One evaluated workload of a pass.
struct Evaluated {
    ci: usize,
    wi: usize,
    acc: WorkloadAccuracy,
    secs: f64,
}

/// One pass over the whole campaign.
struct Pass {
    wall_s: f64,
    cpu: Usage,
    evaluated: Vec<Evaluated>,
}

/// The campaign's scored result.
struct Scored {
    digest: u64,
    cells: Vec<u64>,
    gdp_o_err: f64,
}

fn score(plan: &Plan, evaluated: &[Evaluated]) -> Scored {
    let mut by_cell: Vec<Vec<Option<&WorkloadAccuracy>>> =
        plan.cells.iter().map(|(_, _, ws)| vec![None; ws.len()]).collect();
    for e in evaluated {
        by_cell[e.ci][e.wi] = Some(&e.acc);
    }
    let mut jsons = Vec::new();
    let mut gdp_o = Vec::new();
    for ((cell, _, _), accs) in plan.cells.iter().zip(by_cell) {
        let accs: Vec<WorkloadAccuracy> =
            accs.into_iter().map(|a| a.expect("every workload evaluated").clone()).collect();
        let agg = aggregate(&accs);
        let t =
            agg.techniques.iter().position(|t| *t == Technique::GDP_O).expect("GDP-O evaluated");
        gdp_o.push(agg.ipc_rms[t]);
        jsons.push(cell_accuracy_json(&cell.label(), &agg));
    }
    Scored {
        cells: jsons.iter().map(|j| fnv64(j.to_pretty().as_bytes())).collect(),
        digest: fnv64(Json::Arr(jsons).to_pretty().as_bytes()),
        gdp_o_err: gdp_o.iter().sum::<f64>() / gdp_o.len() as f64,
    }
}

/// Check a scored pass against the pinned digests; returns the jobs of
/// mismatching cells (all counted as failed).
fn check(plan: &Plan, workload_seed: u64, s: &Scored, out: &mut Outcome) -> u64 {
    let Some((_, whole, cells)) = PINNED.iter().find(|p| p.0 == workload_seed) else {
        let cells: Vec<String> = s.cells.iter().map(|c| format!("0x{c:016x}")).collect();
        out.note(format!(
            "digest 0x{:016x} cells [{}] (workload seed {workload_seed} is not pinned)",
            s.digest,
            cells.join(", ")
        ));
        return 0;
    };
    let mut failed = 0;
    for (ci, (got, want)) in s.cells.iter().zip(cells).enumerate() {
        if got != want {
            let (cell, _, ws) = &plan.cells[ci];
            out.fail(format!("cell {} digest {got:016x}, pinned {want:016x}", cell.label()));
            failed += ws.len() as u64 * plan.jobs_of(ci);
        }
    }
    if s.digest != *whole && failed == 0 {
        out.fail(format!("campaign digest {:016x}, pinned {whole:016x}", s.digest));
    }
    failed
}

/// One untraced pass through the program's own glue.
fn run_pass(plan: &Plan, traces: &CampaignTraces) -> Pass {
    let cpu0 = Usage::now();
    let t0 = Instant::now();
    let mut evaluated = Vec::with_capacity(plan.order.len());
    for &(ci, wi) in &plan.order {
        let (_, xcfg, ws) = &plan.cells[ci];
        let t = Instant::now();
        let acc = evaluate_workload_traced(&ws[wi], xcfg, &Technique::ALL, Some(traces));
        evaluated.push(Evaluated { ci, wi, acc, secs: t.elapsed().as_secs_f64() });
    }
    Pass { wall_s: t0.elapsed().as_secs_f64(), cpu: Usage::now().since(&cpu0), evaluated }
}

/// What a complete cache holds: entry counts and the simulated work its
/// traces cover. Read back from disk, so it also checks that every
/// stored entry decodes.
#[derive(Default)]
struct CacheCounts {
    shared: u64,
    private: u64,
    state: u64,
    events: u64,
    intervals: u64,
    instrs: u64,
    /// Bytes of the entries a warm replay reads (shared and private).
    replay_bytes: u64,
    intervals_by_workload: BTreeMap<String, u64>,
}

impl CacheCounts {
    fn read(dir: &Path) -> Result<CacheCounts, String> {
        let mut c = CacheCounts::default();
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .map(|e| e.map(|e| e.path()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        names.sort();
        for path in names {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            if name.starts_with("state-") {
                c.state += 1;
                continue;
            }
            let bytes = std::fs::read(&path).map_err(|e| format!("{name}: {e}"))?;
            if name.starts_with("shared-") {
                let t = decode_shared(&bytes).map_err(|e| format!("{name}: {e:?}"))?;
                c.shared += 1;
                c.events += t.event_count() as u64;
                c.intervals += t.intervals.len() as u64;
                c.instrs += t.final_stats.iter().map(|s| s.committed_instrs).sum::<u64>();
                *c.intervals_by_workload.entry(t.workload.clone()).or_default() +=
                    t.intervals.len() as u64;
            } else if name.starts_with("private-") {
                let t = decode_private(&bytes).map_err(|e| format!("{name}: {e:?}"))?;
                c.private += 1;
                c.instrs += t.total.committed_instrs;
            } else {
                return Err(format!("unexpected cache entry {name}"));
            }
            c.replay_bytes += bytes.len() as u64;
        }
        Ok(c)
    }

    fn entries(&self) -> u64 {
        self.shared + self.private + self.state
    }

    fn to_text(&self) -> String {
        let mut s = format!(
            "shared {}\nprivate {}\nstate {}\nevents {}\nintervals {}\ninstrs {}\nreplay_bytes {}\n",
            self.shared,
            self.private,
            self.state,
            self.events,
            self.intervals,
            self.instrs,
            self.replay_bytes
        );
        for (w, n) in &self.intervals_by_workload {
            s += &format!("workload {w} {n}\n");
        }
        s
    }

    fn from_text(text: &str) -> Option<CacheCounts> {
        let mut c = CacheCounts::default();
        for line in text.lines() {
            let mut it = line.split(' ');
            let key = it.next()?;
            if key == "workload" {
                let w = it.next()?;
                c.intervals_by_workload.insert(w.to_string(), it.next()?.parse().ok()?);
                continue;
            }
            let v: u64 = it.next()?.parse().ok()?;
            match key {
                "shared" => c.shared = v,
                "private" => c.private = v,
                "state" => c.state = v,
                "events" => c.events = v,
                "intervals" => c.intervals = v,
                "instrs" => c.instrs = v,
                "replay_bytes" => c.replay_bytes = v,
                _ => return None,
            }
        }
        Some(c)
    }
}

/// Entries one complete campaign stores: per workload a transparent and
/// an invasive trace, each with its checkpoint file, plus one private
/// trace per core.
fn expected_entries(plan: &Plan) -> u64 {
    plan.order.iter().map(|&(ci, _)| 4 + plan.cells[ci].0.cores as u64).sum()
}

/// Per-pass end-to-end metrics from a pass and the work it covered.
struct PassRates {
    instrs_per_s: f64,
    cpu_ns_per_instr: f64,
    events_per_s: f64,
    cpu_ns_per_event: f64,
    interval_p50_us: f64,
}

fn rates(plan: &Plan, pass: &Pass, counts: &CacheCounts) -> PassRates {
    // Wall time per core-interval (one estimate row per core), median over
    // the workloads: per core, the 2-, 4- and 8-core workloads cost
    // alike, so the median does not jump between unlike workloads.
    let per_row: Vec<f64> = pass
        .evaluated
        .iter()
        .map(|e| {
            let (cell, _, ws) = &plan.cells[e.ci];
            let n = counts.intervals_by_workload.get(&ws[e.wi].name).copied().unwrap_or(0);
            e.secs * 1e6 / (n.max(1) * cell.cores as u64) as f64
        })
        .collect();
    let cpu = pass.cpu.cpu_ns() as f64;
    PassRates {
        instrs_per_s: counts.instrs as f64 / pass.wall_s,
        cpu_ns_per_instr: cpu / counts.instrs as f64,
        events_per_s: counts.events as f64 / pass.wall_s,
        cpu_ns_per_event: cpu / counts.events as f64,
        interval_p50_us: median(&per_row),
    }
}

fn set_rates(out: &mut Outcome, r: &[PassRates]) {
    let m = |f: fn(&PassRates) -> f64| median(&r.iter().map(f).collect::<Vec<_>>());
    out.set("sim_instrs_per_s", m(|r| r.instrs_per_s));
    out.set("cpu_ns_per_instr", m(|r| r.cpu_ns_per_instr));
    out.set("events_per_s", m(|r| r.events_per_s));
    out.set("cpu_ns_per_event", m(|r| r.cpu_ns_per_event));
    out.set("interval_p50_us", m(|r| r.interval_p50_us));
}

/// Repeat `setup`; return the last result and every repeat's time.
fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repeat"), times))
}

/// Share of the passes' wall time that no layer span covers.
fn unattributed(tr: &Tracer) -> f64 {
    let totals = tr.totals();
    let pass = totals.get("pass").map_or(0, |t| t.total_ns);
    let structural: u64 =
        ["pass", "workload"].iter().filter_map(|n| totals.get(n)).map(|t| t.self_ns).sum();
    structural as f64 / pass.max(1) as f64
}

// ------------------------------------------------------------------ cold

/// Remove what an interrupted earlier run left under `state` (runs in
/// one build directory are sequential).
fn remove_stale(state: &Path, prefix: &str) {
    for e in std::fs::read_dir(state).into_iter().flatten().flatten() {
        if e.file_name().to_str().is_some_and(|n| n.starts_with(prefix)) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// `campaign-cold`: the campaign simulated live, recording into a
/// fresh, empty cache; passes repeat until `--seconds` have passed.
pub fn cold(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    remove_stale(&args.state, "cold-");
    let work = args.state.join(format!("cold-{}", std::process::id()));
    let first_dir = work.join("pass-0");
    let setup = timed_setup(COLD_SETUP_REPEATS, || {
        let plan = Plan::new(args.workload_seed, args.seed);
        Ok((CampaignTraces::new(&first_dir, true, false), plan))
    });
    let ((mut traces, plan), setup_s) = match setup {
        Ok(s) => s,
        Err(e) => return out.failed_early(args, e),
    };
    report_setup(&mut out, &setup_s);
    host::reset_peak_rss();

    let start = Instant::now();
    let mut rates_v = Vec::new();
    let mut pass_walls = Vec::new();
    let mut dir = first_dir.clone();
    let mut k = 0;
    let mut traced = None;
    loop {
        let pass = run_pass(&plan, &traces);
        out.attempted += plan.jobs();
        let scored = score(&plan, &pass.evaluated);
        let failed = check(&plan, args.workload_seed, &scored, &mut out);
        out.failed += failed;
        out.set("gdp_o_ipc_rms_err", scored.gdp_o_err);
        let stores = traces.stats().stores;
        match CacheCounts::read(&dir) {
            Ok(counts)
                if counts.entries() == expected_entries(&plan) && stores == counts.entries() =>
            {
                rates_v.push(rates(&plan, &pass, &counts));
                out.note(format!(
                    "pass {k}: {:.3} s, {} jobs, {} cache stores, {} events, {} intervals, {} instrs, digest {:016x}",
                    pass.wall_s, plan.jobs(), stores, counts.events, counts.intervals, counts.instrs, scored.digest
                ));
            }
            Ok(counts) => out.fail(format!(
                "cold cache holds {} entries after {stores} stores, expected {}",
                counts.entries(),
                expected_entries(&plan)
            )),
            Err(e) => out.fail(format!("cold cache unreadable: {e}")),
        }
        pass_walls.push(pass.wall_s);
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
        if args.trace && traced.is_none() {
            // The traced pass, after one untraced pass for the overhead.
            dir = work.join(format!("pass-{k}"));
            traced = Some(cold_traced(args, &plan, &dir, &mut out));
            let _ = std::fs::remove_dir_all(&dir);
            k += 1;
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        dir = work.join(format!("pass-{k}"));
        traces = CampaignTraces::new(&dir, true, false);
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    set_rates(&mut out, &rates_v);
    let _ = std::fs::remove_dir_all(&work);
    if let Some((tr, wall)) = traced {
        out.set("bench.trace_overhead_frac", wall / median(&pass_walls) - 1.0);
        out.set("bench.unattributed_frac", unattributed(&tr));
        write_trace(&tr, args, &mut out);
        out.fill_unreached();
    }
    out
}

/// The cold campaign, one layer call at a time, in the order
/// `CampaignTraces` (record) makes the calls. Encoding is timed on its
/// own as well as inside each store, so `trace.store_s` is store time
/// net of encoding. Returns the tracer and the pass's wall time.
fn cold_traced(args: &Args, plan: &Plan, dir: &Path, out: &mut Outcome) -> (Tracer, f64) {
    let tr = Tracer::new(run_id(args));
    let cache = TraceCache::new(dir);
    let shared_reg = Arc::new(MetricsRegistry::new());
    let private_reg = MetricsRegistry::new();
    let (mut bytes_written, mut events, mut intervals, mut instrs) = (0u64, 0u64, 0u64, 0u64);
    let mut evaluated = Vec::new();
    let mut store_err = None;
    let t0 = Instant::now();
    tr.span("pass", || {
        for &(ci, wi) in &plan.order {
            let (_, xcfg, ws) = &plan.cells[ci];
            let w = &ws[wi];
            let t = Instant::now();
            let acc = tr.span("workload", || {
                let techniques = Technique::canonical(&Technique::ALL);
                let transparent = transparent_subset(&techniques);
                let invasive: Vec<Technique> =
                    techniques.iter().copied().filter(Technique::is_invasive).collect();
                let mut shared = |ts: &[Technique]| -> SharedRun {
                    let inv = ts.iter().any(Technique::is_invasive);
                    let key = shared_trace_key_for(xcfg, w, ts);
                    let (run, trace) = tr.span("experiments.shared_live", || {
                        record_shared_metered(w, xcfg, ts, Some(Arc::clone(&shared_reg)))
                    });
                    events += trace.event_count() as u64;
                    intervals += trace.intervals.len() as u64;
                    instrs += run.final_stats.iter().map(|s| s.committed_instrs).sum::<u64>();
                    bytes_written += tr.span("trace.encode", || encode_shared(&trace).len()) as u64;
                    if let Err(e) = tr.span("trace.store", || cache.store_shared(&key, &trace)) {
                        store_err = Some(e.to_string());
                    }
                    let cks =
                        tr.span("experiments.summarize", || summarize_checkpoints(&trace, xcfg));
                    bytes_written +=
                        tr.span("trace.encode", || encode_checkpoints(&cks).len()) as u64;
                    if let Err(e) = tr.span("trace.store", || {
                        cache.store_checkpoints(&checkpoint_key(xcfg, w, inv), &cks)
                    }) {
                        store_err = Some(e.to_string());
                    }
                    run
                };
                let t_run = shared(&transparent);
                let a_run = shared(&invasive);
                let eval = tr.span("experiments.assemble", || {
                    WorkloadEval::from_runs(w, xcfg, t_run, Some(a_run))
                });
                let privates: Vec<PrivateRun> = (0..eval.cores())
                    .map(|core| {
                        let bench = eval.bench_name(core);
                        let base = private_base(core);
                        let key = private_trace_key(xcfg, bench, base, &eval.checkpoints_for(core));
                        let run = tr.span("experiments.private", || {
                            eval.run_private_for_metered(core, Some(&private_reg))
                        });
                        instrs += run.total.committed_instrs;
                        let (pt, n) = tr.span("trace.encode", || {
                            let pt = private_to_trace(&run, bench, base);
                            let n = encode_private(&pt).len();
                            (pt, n)
                        });
                        bytes_written += n as u64;
                        if let Err(e) = tr.span("trace.store", || cache.store_private(&key, &pt)) {
                            store_err = Some(e.to_string());
                        }
                        run
                    })
                    .collect();
                tr.span("experiments.score", || eval.finish(&privates))
            });
            evaluated.push(Evaluated { ci, wi, acc, secs: t.elapsed().as_secs_f64() });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    if let Some(e) = store_err {
        out.fail(format!("traced store failed: {e}"));
    }
    let scored = score(plan, &evaluated);
    out.attempted += plan.jobs();
    let failed = check(plan, args.workload_seed, &scored, out);
    out.failed += failed;

    let shared = shared_reg.snapshot();
    let private = private_reg.snapshot();
    let c = |s: &gdp_telemetry::Snapshot, n: &str| s.counter(n).unwrap_or(0);
    let (shared_cycles, private_cycles) =
        (c(&shared, "engine.cycles"), c(&private, "engine.cycles"));
    let skipped = c(&shared, "engine.cycles_skipped") + c(&private, "engine.cycles_skipped");
    if c(&shared, "session.events") != events || c(&shared, "session.intervals") != intervals {
        out.fail(format!(
            "session counters {}/{} disagree with the recorded traces {events}/{intervals}",
            c(&shared, "session.events"),
            c(&shared, "session.intervals")
        ));
    }
    let shared_live = tr.secs("experiments.shared_live");
    let private_s = tr.secs("experiments.private");
    let encode_s = tr.secs("trace.encode");
    out.set("experiments.shared_live_s", shared_live);
    out.set("experiments.private_s", private_s);
    out.set("sim.shared_ns_per_cycle", shared_live * 1e9 / shared_cycles.max(1) as f64);
    out.set("sim.private_ns_per_cycle", private_s * 1e9 / private_cycles.max(1) as f64);
    out.set("sim.skip_frac", skipped as f64 / (shared_cycles + private_cycles).max(1) as f64);
    out.set("sim.instrs", instrs as f64);
    out.set("sim.cycles", (shared_cycles + private_cycles) as f64);
    out.set("trace.encode_s", encode_s);
    out.set("trace.store_s", tr.secs("trace.store") - encode_s);
    out.set("trace.bytes_written", bytes_written as f64);
    out.set("cache.stores", cache.stats().stores as f64);
    out.set("experiments.summarize_s", tr.secs("experiments.summarize"));
    out.set("session.events", events as f64);
    out.set("session.intervals", intervals as f64);
    out.set("experiments.score_s", tr.secs("experiments.score"));
    (tr, wall)
}

// ------------------------------------------------------------------ warm

/// Directory of the complete cache the warm workload replays.
fn fixture_dir(args: &Args) -> PathBuf {
    args.state.join(format!("fixture-ws{}", args.workload_seed))
}

/// Record the fixture once per build directory: a cold pass through the
/// program's own record path into a temporary directory, checked, then
/// renamed into place with its counts. Not part of any timing.
fn ensure_fixture(args: &Args, out: &mut Outcome) -> Result<(PathBuf, CacheCounts), String> {
    let dir = fixture_dir(args);
    let manifest = dir.join("counts.txt");
    if let Some(c) =
        std::fs::read_to_string(&manifest).ok().and_then(|t| CacheCounts::from_text(&t))
    {
        return Ok((dir.join("cache"), c));
    }
    let t = Instant::now();
    remove_stale(&args.state, "fixture-tmp-");
    let tmp = args.state.join(format!("fixture-tmp-{}", std::process::id()));
    let plan = Plan::new(args.workload_seed, args.seed);
    let traces = CampaignTraces::new(tmp.join("cache"), true, false);
    let pass = run_pass(&plan, &traces);
    let scored = score(&plan, &pass.evaluated);
    let mut scratch = Outcome::default();
    if check(&plan, args.workload_seed, &scored, &mut scratch) > 0 || !scratch.errors.is_empty() {
        return Err(format!("fixture recording failed its checks: {:?}", scratch.errors));
    }
    let counts = CacheCounts::read(&tmp.join("cache"))?;
    if counts.entries() != expected_entries(&plan) {
        return Err(format!(
            "fixture holds {} entries, expected {}",
            counts.entries(),
            expected_entries(&plan)
        ));
    }
    std::fs::write(tmp.join("counts.txt"), counts.to_text()).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    out.note(format!(
        "recorded the warm fixture in {:.1} s (once per build directory)",
        t.elapsed().as_secs_f64()
    ));
    Ok((dir.join("cache"), counts))
}

/// Set-up of one warm run: the plan, and every entry a replay reads,
/// checked present and read once so replays start from the page cache.
fn warm_setup(args: &Args, cache: &Path, counts: &CacheCounts) -> Result<Plan, String> {
    let plan = Plan::new(args.workload_seed, args.seed);
    let mut entries = 0u64;
    let mut bytes = 0u64;
    for e in std::fs::read_dir(cache).map_err(|e| format!("{}: {e}", cache.display()))? {
        let path = e.map_err(|e| e.to_string())?.path();
        entries += 1;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.starts_with("state-") {
            bytes += std::fs::read(&path).map_err(|e| format!("{name}: {e}"))?.len() as u64;
        }
    }
    if entries != counts.entries() || bytes != counts.replay_bytes {
        return Err(format!(
            "warm fixture changed: {entries} entries / {bytes} bytes, recorded {} / {}",
            counts.entries(),
            counts.replay_bytes
        ));
    }
    Ok(plan)
}

/// `campaign-warm`: the campaign replayed from a complete cache on one
/// worker (`CampaignTraces` with replay only); passes repeat until
/// `--seconds` have passed.
pub fn warm(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (cache, counts) = match ensure_fixture(args, &mut out) {
        Ok(f) => f,
        Err(e) => return out.failed_early(args, e),
    };
    let (plan, setup_s) =
        match timed_setup(WARM_SETUP_REPEATS, || warm_setup(args, &cache, &counts)) {
            Ok(s) => s,
            Err(e) => return out.failed_early(args, e),
        };
    report_setup(&mut out, &setup_s);
    host::reset_peak_rss();

    let replayed_entries = counts.shared + counts.private;
    let start = Instant::now();
    let mut rates_v = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let tr = args.trace.then(|| Tracer::new(run_id(args)));
    let mut layer = WarmLayers::default();
    loop {
        let traces = CampaignTraces::new(&cache, false, true);
        let pass = run_pass(&plan, &traces);
        out.attempted += plan.jobs();
        let s = traces.stats();
        if s.misses > 0 || s.stores > 0 || s.hits != replayed_entries {
            out.fail(format!(
                "warm pass: {} hits, {} misses, {} stores; expected {replayed_entries} hits only",
                s.hits, s.misses, s.stores
            ));
        }
        let scored = score(&plan, &pass.evaluated);
        let failed = check(&plan, args.workload_seed, &scored, &mut out);
        out.failed += failed;
        out.set("gdp_o_ipc_rms_err", scored.gdp_o_err);
        rates_v.push(rates(&plan, &pass, &counts));
        walls.push(pass.wall_s);
        out.note(format!(
            "pass {}: {:.3} s, {} hits, digest {:016x}",
            walls.len() - 1,
            pass.wall_s,
            s.hits,
            scored.digest
        ));
        if let Some(tr) = &tr {
            let t = Instant::now();
            let evaluated = tr.span("pass", || warm_traced(tr, &plan, &cache, &mut layer));
            traced_walls.push(t.elapsed().as_secs_f64());
            out.attempted += plan.jobs();
            if evaluated.len() == plan.order.len() {
                let failed = check(&plan, args.workload_seed, &score(&plan, &evaluated), &mut out);
                out.failed += failed;
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    set_rates(&mut out, &rates_v);
    if let Some(tr) = tr {
        let passes = traced_walls.len() as f64;
        if layer.misses > 0 {
            out.fail(format!("traced warm passes missed {} entries", layer.misses));
        }
        out.set("trace.load_s", tr.secs("trace.load") / passes);
        out.set(
            "trace.decode_ns_per_byte",
            tr.secs("trace.decode") * 1e9 / layer.shared_bytes.max(1) as f64,
        );
        out.set("trace.bytes_read", (layer.bytes_read as f64 / passes).round());
        out.set("trace.hit_frac", layer.hits as f64 / (layer.hits + layer.misses).max(1) as f64);
        out.set(
            "session.transparent_ns_per_event",
            tr.secs("session.transparent") * 1e9 / layer.transparent_events.max(1) as f64,
        );
        out.set(
            "session.asm_ns_per_event",
            tr.secs("session.asm") * 1e9 / layer.asm_events.max(1) as f64,
        );
        out.set("session.events", counts.events as f64);
        out.set("session.intervals", counts.intervals as f64);
        out.set("experiments.private_decode_s", tr.secs("experiments.private_decode") / passes);
        out.set("experiments.score_s", tr.secs("experiments.score") / passes);
        out.set("bench.trace_overhead_frac", median(&traced_walls) / median(&walls) - 1.0);
        out.set("bench.unattributed_frac", unattributed(&tr));
        write_trace(&tr, args, &mut out);
        out.fill_unreached();
    }
    out
}

/// Work counts of the traced warm passes.
#[derive(Default)]
struct WarmLayers {
    hits: u64,
    misses: u64,
    bytes_read: u64,
    shared_bytes: u64,
    transparent_events: u64,
    asm_events: u64,
}

/// One warm pass, one layer call at a time, in the order `CampaignTraces`
/// (replay, one worker) makes the calls. Reading an entry and decoding it
/// are timed apart; a missing or undecodable entry is a counted miss.
fn warm_traced(tr: &Tracer, plan: &Plan, cache_dir: &Path, l: &mut WarmLayers) -> Vec<Evaluated> {
    let cache = TraceCache::new(cache_dir);
    let mut evaluated = Vec::new();
    for &(ci, wi) in &plan.order {
        let (_, xcfg, ws) = &plan.cells[ci];
        let w = &ws[wi];
        let t = Instant::now();
        let acc = tr.span("workload", || {
            let techniques = Technique::canonical(&Technique::ALL);
            let transparent = transparent_subset(&techniques);
            let invasive: Vec<Technique> =
                techniques.iter().copied().filter(Technique::is_invasive).collect();
            let mut shared = |ts: &[Technique]| -> Option<SharedRun> {
                let path = cache.path("shared", &shared_trace_key_for(xcfg, w, ts));
                let bytes = tr.span("trace.load", || std::fs::read(path)).ok();
                let trace =
                    bytes.as_ref().and_then(|b| tr.span("trace.decode", || decode_shared(b)).ok());
                let Some(trace) = trace else {
                    l.misses += 1;
                    return None;
                };
                let n = bytes.map_or(0, |b| b.len() as u64);
                l.hits += 1;
                l.bytes_read += n;
                l.shared_bytes += n;
                let invasive = ts.iter().any(Technique::is_invasive);
                let events = trace.event_count() as u64;
                if invasive {
                    l.asm_events += events;
                } else {
                    l.transparent_events += events;
                }
                let name = if invasive { "session.asm" } else { "session.transparent" };
                Some(tr.span(name, || ReplaySession::new(&trace, xcfg, ts).into_report()))
            };
            let t_run = shared(&transparent)?;
            let a_run = shared(&invasive)?;
            let eval = tr.span("experiments.assemble", || {
                WorkloadEval::from_runs(w, xcfg, t_run, Some(a_run))
            });
            let mut privates = Vec::with_capacity(eval.cores());
            for core in 0..eval.cores() {
                let key = private_trace_key(
                    xcfg,
                    eval.bench_name(core),
                    private_base(core),
                    &eval.checkpoints_for(core),
                );
                let bytes =
                    tr.span("trace.load", || std::fs::read(cache.path("private", &key))).ok();
                let run = bytes.as_ref().and_then(|b| {
                    tr.span("experiments.private_decode", || {
                        decode_private(b).ok().map(|t| private_from_trace(&t))
                    })
                });
                let Some(run) = run else {
                    l.misses += 1;
                    return None;
                };
                l.hits += 1;
                l.bytes_read += bytes.map_or(0, |b| b.len() as u64);
                privates.push(run);
            }
            Some(tr.span("experiments.score", || eval.finish(&privates)))
        });
        if let Some(acc) = acc {
            evaluated.push(Evaluated { ci, wi, acc, secs: t.elapsed().as_secs_f64() });
        }
    }
    evaluated
}

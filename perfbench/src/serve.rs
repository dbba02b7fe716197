//! `serve-stream`: closed-loop tenant sessions through `gdp-serve` over
//! the in-process channel transport (`serve_channel`, 2 shards).
//!
//! Two client threads each run back-to-back tenant sessions — connect,
//! Hello, the 26 intervals of the recorded 2c-H `--tiny` trace with a
//! window of 4 intervals in flight, Finish — until `--seconds` have
//! passed. Each session starts only when the previous one has finished,
//! so a slower server receives less load. Every served row is compared
//! bit for bit with the embedded `ReplaySession`'s row as it arrives
//! (~50 ns a row against ~10 ms a session, and no memory that grows
//! with the session count). Interval frames are encoded once at set-up,
//! so the window times serving, not the client's encoder; that encoder
//! is measured on its own in the traced run.

use std::time::{Duration, Instant};

use gdp_bench::{aggregate, Scale};
use gdp_experiments::{
    record_shared, CoreInterval, ExperimentConfig, PrivateRun, ReplaySession, SharedRun,
    StreamSession, Technique, WorkloadEval,
};
use gdp_serve::proto::{decode_client, encode_client};
use gdp_serve::{serve_channel, ChannelConnector, ClientMsg, ServeConfig, Server, TenantClient};
use gdp_sim::stats::CoreStats;
use gdp_trace::{FrameAssembler, TraceInterval};
use gdp_workloads::{generate_workloads, LlcClass, Workload};

use crate::host::{self, Usage};
use crate::spans::Tracer;
use crate::{median, quantile, report_setup, run_id, splitmix, write_trace, Args, Outcome};

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const WINDOW: usize = 4;
/// How many times set-up runs; its median is `setup_s`.
const SETUP_REPEATS: usize = 9;

/// The served stream and everything needed to check and score it.
struct Stage {
    workload: Workload,
    xcfg: ExperimentConfig,
    techniques: Vec<Technique>,
    intervals: Vec<TraceInterval>,
    frames: Vec<Vec<u8>>,
    reference: Vec<Vec<CoreInterval>>,
    cycles: u64,
    final_stats: Vec<CoreStats>,
    privates: Vec<PrivateRun>,
    events: u64,
    instrs: u64,
}

/// Set-up: record the 2c-H stream, replay it embedded for the reference
/// rows, run the private ground truth that scores them, encode the
/// interval frames, and start the server.
fn setup(workload_seed: u64) -> Result<(Stage, Server, ChannelConnector), String> {
    let (h, _, _) = Scale::Tiny.class_counts();
    let workload = generate_workloads(2, LlcClass::H, h, workload_seed).swap_remove(0);
    let xcfg = Scale::Tiny.xcfg(2);
    let techniques = Technique::canonical(&[Technique::GDP, Technique::GDP_O]);
    let (live, trace) = record_shared(&workload, &xcfg, &techniques);
    let reference = ReplaySession::new(&trace, &xcfg, &techniques).into_report().intervals;
    if !rows_equal(&reference, &live.intervals) {
        return Err("embedded replay differs from the live run it recorded".into());
    }
    let eval = WorkloadEval::from_runs(&workload, &xcfg, live, None);
    let privates = (0..eval.cores()).map(|c| eval.run_private_for(c)).collect();
    let frames =
        trace.intervals.iter().map(|iv| encode_client(&ClientMsg::Interval(iv.clone()))).collect();
    let instrs = trace
        .intervals
        .iter()
        .flat_map(|iv| &iv.boundaries)
        .map(|b| b.instr_end - b.instr_start)
        .sum();
    let stage = Stage {
        events: trace.event_count() as u64,
        instrs,
        cycles: trace.cycles,
        final_stats: trace.final_stats,
        intervals: trace.intervals,
        workload,
        xcfg: xcfg.clone(),
        techniques,
        frames,
        reference,
        privates,
    };
    let (server, connector) =
        serve_channel(ServeConfig { shards: SHARDS, ..ServeConfig::new(xcfg) });
    Ok((stage, server, connector))
}

fn core_bit_eq(x: &CoreInterval, y: &CoreInterval) -> bool {
    x.instr_start == y.instr_start
        && x.instr_end == y.instr_end
        && x.stats == y.stats
        && x.lambda.to_bits() == y.lambda.to_bits()
        && x.shared_latency.to_bits() == y.shared_latency.to_bits()
        && x.estimates.len() == y.estimates.len()
        && x.estimates.iter().zip(&y.estimates).all(|(e, f)| {
            e.cpi.to_bits() == f.cpi.to_bits()
                && e.sigma_sms.to_bits() == f.sigma_sms.to_bits()
                && e.cpl == f.cpl
                && e.overlap.to_bits() == f.overlap.to_bits()
        })
}

fn row_eq(a: &[CoreInterval], b: &[CoreInterval]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| core_bit_eq(x, y))
}

fn rows_equal(a: &[Vec<CoreInterval>], b: &[Vec<CoreInterval>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| row_eq(x, y))
}

/// Run `f` in a span when tracing.
fn span<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// What one client thread did in a window.
#[derive(Default)]
struct ClientStats {
    sessions: u64,
    failed: u64,
    errors: Vec<String>,
    lat_ns: Vec<u64>,
    hello_ns: Vec<u64>,
    threads_peak: u64,
}

/// One tenant session; returns an error on any protocol failure or row
/// that differs from the reference.
fn session(
    conn: &ChannelConnector,
    stage: &Stage,
    tenant: u64,
    tr: Option<&Tracer>,
    st: &mut ClientStats,
) -> Result<(), String> {
    let mut client = span(tr, "serve.connect", || conn.connect().map(TenantClient::over))
        .map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let (resumed, _) = span(tr, "serve.hello", || client.hello(tenant, 2, &stage.techniques))
        .map_err(|e| format!("hello: {e}"))?;
    st.hello_ns.push(t.elapsed().as_nanos() as u64);
    if resumed != 0 {
        return Err(format!("fresh tenant {tenant} resumed at {resumed}"));
    }
    if tr.is_some() {
        st.threads_peak = st.threads_peak.max(host::threads());
    }
    span(tr, "serve.stream", || -> Result<(), String> {
        let mut sent = Vec::with_capacity(stage.frames.len());
        let mut next = 0usize;
        let mut recv = |client: &mut TenantClient, sent: &[Instant], next: &mut usize| {
            let (index, row) = client.recv_row().map_err(|e| format!("row {}: {e}", *next))?;
            st.lat_ns.push(sent[*next].elapsed().as_nanos() as u64);
            if index != *next as u64 || !row_eq(&row, &stage.reference[*next]) {
                return Err(format!(
                    "row {index} (expected {next}) differs from the embedded session"
                ));
            }
            *next += 1;
            Ok(())
        };
        for frame in &stage.frames {
            if sent.len() - next >= WINDOW {
                recv(&mut client, &sent, &mut next)?;
            }
            sent.push(Instant::now());
            client.send_raw(frame).map_err(|e| format!("send: {e}"))?;
        }
        while next < sent.len() {
            recv(&mut client, &sent, &mut next)?;
        }
        Ok(())
    })?;
    span(tr, "serve.finish", || -> Result<(), String> {
        client.finish().map_err(|e| format!("finish: {e}"))?;
        match client.recv_msg() {
            Ok(gdp_serve::ServerMsg::Done { intervals })
                if intervals == stage.frames.len() as u64 =>
            {
                Ok(())
            }
            other => Err(format!("expected Done, got {other:?}")),
        }
    })
}

/// A measured window: both clients run sessions until `seconds` pass.
struct Window {
    wall_s: f64,
    cpu: Usage,
    stats: ClientStats,
}

fn window(
    conn: &ChannelConnector,
    stage: &Stage,
    args: &Args,
    pass: u64,
    tr: Option<&Tracer>,
) -> Window {
    let cpu0 = Usage::now();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let per_client: Vec<ClientStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    Tracer::set_lane(c as u64 + 1);
                    let mut st = ClientStats::default();
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let tenant = splitmix(args.seed ^ (pass << 56) ^ ((c as u64) << 48) ^ k);
                        k += 1;
                        st.sessions += 1;
                        if let Err(e) =
                            span(tr, "session", || session(conn, stage, tenant, tr, &mut st))
                        {
                            st.failed += 1;
                            if st.errors.len() < 3 {
                                st.errors.push(format!("client {c} tenant {tenant}: {e}"));
                            }
                        }
                    }
                    st
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = Usage::now().since(&cpu0);
    let mut stats = ClientStats::default();
    for st in per_client {
        stats.sessions += st.sessions;
        stats.failed += st.failed;
        stats.errors.extend(st.errors);
        stats.lat_ns.extend(st.lat_ns);
        stats.hello_ns.extend(st.hello_ns);
        stats.threads_peak = stats.threads_peak.max(st.threads_peak);
    }
    Window { wall_s, cpu, stats }
}

impl Window {
    fn ok_sessions(&self) -> u64 {
        self.stats.sessions - self.stats.failed
    }

    fn events(&self, stage: &Stage) -> f64 {
        (self.ok_sessions() * stage.events) as f64
    }

    fn account(&self, out: &mut Outcome) {
        out.attempted += self.stats.sessions;
        out.failed += self.stats.failed;
        for e in &self.stats.errors {
            out.fail(e.clone());
        }
    }
}

fn ns_quantile(v: &[u64], q: f64) -> f64 {
    quantile(&v.iter().map(|&x| x as f64).collect::<Vec<_>>(), q)
}

/// Median ns per call of `f` over repeats filling about `budget`.
fn probe(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_nanos() as f64);
    }
    median(&times)
}

/// `serve-stream`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server, _)) = last.take() {
            Server::shutdown(server);
        }
        let t = Instant::now();
        match setup(args.workload_seed) {
            Ok(s) => last = Some(s),
            Err(e) => return out.failed_early(args, e),
        }
        times.push(t.elapsed().as_secs_f64());
    }
    let (stage, server, conn) = last.expect("set-up ran");
    report_setup(&mut out, &times);
    host::reset_peak_rss();

    let w = window(&conn, &stage, args, 0, None);
    w.account(&mut out);
    let events = w.events(&stage);
    let cpu = w.cpu.cpu_ns() as f64;
    let instrs = (w.ok_sessions() * stage.instrs) as f64;
    out.set("events_per_s", events / w.wall_s);
    out.set("cpu_ns_per_event", cpu / events);
    out.set("sim_instrs_per_s", instrs / w.wall_s);
    out.set("cpu_ns_per_instr", cpu / instrs);
    out.set("interval_p50_us", ns_quantile(&w.stats.lat_ns, 0.5) / 1e3);
    out.set("peak_rss_mb", host::peak_rss_mb());
    // Every served row was checked bit-equal to its reference row, so the
    // reference rows score what was served.
    let served = SharedRun {
        techniques: stage.techniques.clone(),
        intervals: stage.reference.clone(),
        cycles: stage.cycles,
        final_stats: stage.final_stats.clone(),
    };
    let acc =
        WorkloadEval::from_runs(&stage.workload, &stage.xcfg, served, None).finish(&stage.privates);
    let agg = aggregate(&[acc]);
    let gdp_o = agg.techniques.iter().position(|t| *t == Technique::GDP_O).expect("GDP-O served");
    out.set("gdp_o_ipc_rms_err", agg.ipc_rms[gdp_o]);
    out.note(format!(
        "window: {:.3} s, {} sessions ({} failed), {} intervals, {} events, hello p50 {:.1} us",
        w.wall_s,
        w.stats.sessions,
        w.stats.failed,
        w.ok_sessions() * stage.frames.len() as u64,
        events,
        ns_quantile(&w.stats.hello_ns, 0.5) / 1e3
    ));

    if args.trace {
        traced(args, &stage, &conn, &w, &mut out);
        let t = Instant::now();
        server.shutdown();
        out.set("serve.shutdown_ms", t.elapsed().as_secs_f64() * 1e3);
        out.fill_unreached();
    } else {
        server.shutdown();
    }
    out
}

/// The traced run's extras: a second window with spans around every
/// layer call of each session, and probes of the layers one at a time.
fn traced(args: &Args, stage: &Stage, conn: &ChannelConnector, plain: &Window, out: &mut Outcome) {
    let tr = Tracer::new(run_id(args));
    let tw = window(conn, stage, args, 1, Some(&tr));
    tw.account(out);
    let layer_ns: u64 =
        tr.totals().iter().filter(|(n, _)| n.starts_with("serve.")).map(|(_, t)| t.total_ns).sum();
    out.set("bench.unattributed_frac", 1.0 - layer_ns as f64 / (CLIENTS as f64 * tw.wall_s * 1e9));
    let plain_eps = plain.events(stage) / plain.wall_s;
    out.set("bench.trace_overhead_frac", plain_eps / (tw.events(stage) / tw.wall_s) - 1.0);

    let budget = Duration::from_millis(300);
    let mut embedded_ok = true;
    let embedded = probe(budget, || {
        let mut s = StreamSession::new(&stage.xcfg, &stage.techniques);
        for (iv, want) in stage.intervals.iter().zip(&stage.reference) {
            embedded_ok &= row_eq(&s.feed_interval(&iv.events, &iv.boundaries), want);
        }
    }) / stage.events as f64;
    if !embedded_ok {
        out.fail("the embedded StreamSession differs from the reference rows".into());
    }
    let encode = probe(budget, || {
        for iv in &stage.intervals {
            std::hint::black_box(encode_client(&ClientMsg::Interval(iv.clone())));
        }
    }) / stage.events as f64;
    let bytes: usize = stage.frames.iter().map(Vec::len).sum();
    let max_events = ServeConfig::new(stage.xcfg.clone()).max_events_per_interval;
    let mut frames_ok = true;
    let frame = probe(budget, || {
        let mut asm = FrameAssembler::new();
        let mut n = 0;
        for f in &stage.frames {
            asm.push(f);
            while let Ok(Some(fr)) = asm.next_frame() {
                frames_ok &= decode_client(&fr, 2, max_events).is_ok();
                n += 1;
            }
        }
        frames_ok &= n == stage.frames.len();
    }) / bytes as f64;
    if !frames_ok {
        out.fail("the interval frames do not reassemble and decode".into());
    }
    let cpu_per_event = plain.cpu.cpu_ns() as f64 / plain.events(stage);
    out.set("session.embedded_ns_per_event", embedded);
    out.set("serve.overhead_ns_per_event", cpu_per_event - embedded);
    out.set("serve.encode_ns_per_event", encode);
    out.set("serve.frame_ns_per_byte", frame);
    out.set("serve.hello_us_p50", ns_quantile(&plain.stats.hello_ns, 0.5) / 1e3);
    out.set("serve.interval_p99_us", ns_quantile(&plain.stats.lat_ns, 0.99) / 1e3);
    out.set("serve.sys_cpu_frac", plain.cpu.sys_ns as f64 / plain.cpu.cpu_ns().max(1) as f64);
    let intervals = plain.ok_sessions() * stage.frames.len() as u64;
    out.set("serve.vcsw_per_interval", plain.cpu.vcsw as f64 / intervals.max(1) as f64);
    out.set("serve.threads_peak", tw.stats.threads_peak as f64);
    out.set("session.events", stage.events as f64);
    out.set("session.intervals", stage.frames.len() as f64);
    write_trace(&tr, args, out);
}

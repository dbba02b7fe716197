//! Microbenchmarks for the trace codec kernels and replay throughput.
//!
//! Run with `cargo bench -p gdp-trace --bench codec`. The headline
//! figures are events/second for decoding a shared trace and for
//! replaying a GDP + GDP-O estimator pair over it — the two costs a
//! warm-cache campaign pays instead of cycle-level simulation — plus the
//! two kernels under them: CRC-32 over 1 MiB (every file section and
//! stream frame) and reassembling a stream of interval frames (the serve
//! receive path).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gdp_core::model::EstimatorBank;
use gdp_core::{GdpEstimator, GdpVariant};
use gdp_sim::mem::Interference;
use gdp_sim::probe::{ProbeEvent, StallCause};
use gdp_sim::stats::CoreStats;
use gdp_sim::types::{CoreId, ReqId};
use gdp_trace::codec::crc32;
use gdp_trace::{
    decode_shared, encode_frame, encode_interval_payload, encode_shared, replay_estimates,
    Boundary, FrameAssembler, SharedTrace, TraceInterval,
};

/// A synthetic but realistically-shaped trace: `intervals` intervals of
/// `events_per_interval` mixed events across 2 cores.
fn synthetic_trace(intervals: usize, events_per_interval: usize) -> SharedTrace {
    let mut cycle = 0u64;
    let mut req = 0u64;
    let ivs: Vec<TraceInterval> = (0..intervals)
        .map(|i| {
            let mut events = Vec::with_capacity(events_per_interval);
            for e in 0..events_per_interval {
                let core = CoreId((e % 2) as u8);
                cycle += 3 + (e as u64 % 7);
                match e % 4 {
                    0 => {
                        req += 1;
                        events.push(ProbeEvent::LoadL1Miss {
                            core,
                            req: ReqId(req),
                            block: (req * 64) % (1 << 20),
                            cycle,
                        });
                    }
                    1 => events.push(ProbeEvent::LoadL1MissDone {
                        core,
                        req: ReqId(req),
                        block: (req * 64) % (1 << 20),
                        cycle: cycle + 120,
                        sms: e % 8 < 6,
                        latency: 120 + (e as u64 % 80),
                        interference: Interference {
                            ring: e as u64 % 9,
                            mc_queue: e as u64 % 30,
                            mc_row: (e as i64 % 21) - 10,
                        },
                        llc_hit: Some(e % 3 == 0),
                        post_llc: e as u64 % 160,
                    }),
                    2 => events.push(ProbeEvent::LlcAccess {
                        core,
                        block: (req * 64) % (1 << 20),
                        cycle,
                        hit: e % 3 != 0,
                        req: ReqId(req),
                    }),
                    _ => events.push(ProbeEvent::Stall {
                        core,
                        start: cycle,
                        end: cycle + 40 + (e as u64 % 100),
                        cause: StallCause::Load,
                        blocking_block: Some((req * 64) % (1 << 20)),
                        blocking_req: Some(ReqId(req)),
                        blocking_sms: Some(true),
                        blocking_interference: None,
                    }),
                }
            }
            let boundary = |c: u64| Boundary {
                instr_start: i as u64 * 10_000 + c,
                instr_end: (i as u64 + 1) * 10_000 + c,
                stats: CoreStats {
                    committed_instrs: 10_000,
                    commit_cycles: 9_000,
                    stall_sms: 12_000,
                    cycles: 25_000,
                    sms_loads: 100,
                    sms_latency_sum: 18_000,
                    ..Default::default()
                },
                lambda: 140.0 + c as f64,
                shared_latency: 180.0 + c as f64,
            };
            TraceInterval { events, boundaries: vec![boundary(0), boundary(1)] }
        })
        .collect();
    SharedTrace {
        cores: 2,
        workload: "bench-2c".to_string(),
        cycles: cycle,
        final_stats: vec![CoreStats::default(); 2],
        intervals: ivs,
    }
}

fn estimators() -> EstimatorBank {
    EstimatorBank::all_subscribed(vec![
        Box::new(GdpEstimator::new(GdpVariant::Gdp, 2, 32)),
        Box::new(GdpEstimator::new(GdpVariant::GdpO, 2, 32)),
    ])
}

fn bench_codec(c: &mut Criterion) {
    let trace = synthetic_trace(50, 2_000);
    let events = trace.event_count();
    let bytes = encode_shared(&trace);
    println!(
        "trace: {events} events over {} intervals, {} bytes encoded ({:.2} B/event)",
        trace.intervals.len(),
        bytes.len(),
        bytes.len() as f64 / events as f64
    );

    c.bench_function(&format!("encode_shared/{events}_events"), |b| {
        b.iter(|| black_box(encode_shared(black_box(&trace))))
    });
    c.bench_function(&format!("decode_shared/{events}_events"), |b| {
        b.iter(|| black_box(decode_shared(black_box(&bytes)).expect("decodes")))
    });
    let mib: Vec<u8> =
        (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    c.bench_function("crc32/1MiB", |b| b.iter(|| black_box(crc32(black_box(&mib)))));
    let stream: Vec<u8> = trace
        .intervals
        .iter()
        .flat_map(|iv| encode_frame(2, &encode_interval_payload(iv)))
        .collect();
    let n_frames = trace.intervals.len();
    c.bench_function(&format!("frame_assemble/{n_frames}_frames"), |b| {
        b.iter(|| {
            let mut asm = FrameAssembler::new();
            let mut n = 0;
            // Arrive in 64 KiB reads, as from a socket.
            for chunk in black_box(&stream).chunks(64 << 10) {
                asm.push(chunk);
                while let Some(f) = asm.next_frame().expect("clean stream") {
                    n += black_box(f).payload.len();
                }
            }
            assert_eq!(asm.buffered(), 0);
            n
        })
    });
    c.bench_function(&format!("replay_gdp_gdpo/{events}_events"), |b| {
        b.iter_batched(
            estimators,
            |mut bank| black_box(replay_estimates(black_box(&trace), &mut bank)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function(&format!("decode_and_replay/{events}_events"), |b| {
        b.iter_batched(
            estimators,
            |mut bank| {
                let t = decode_shared(black_box(&bytes)).expect("decodes");
                black_box(replay_estimates(&t, &mut bank))
            },
            BatchSize::SmallInput,
        )
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_codec
}
criterion_main!(benches);

//! Hostile interval frames: a frame claiming more events than an
//! interval may carry is refused with the typed `INTERVAL` error before
//! any of its events is decoded or allocated for.

mod common;

use common::xcfg;

use gdp_experiments::Technique;
use gdp_serve::proto::{decode_client, MSG_INTERVAL};
use gdp_serve::{serve_channel, ServeConfig, ServerMsg, TenantClient};
use gdp_trace::codec::{TraceError, Writer};
use gdp_trace::{encode_frame, Frame};

/// An interval payload claiming `n` events and holding `n` `IntervalEnd`
/// events (tag, zero delta: the smallest event, 2 bytes) and no
/// boundaries.
fn interval_ends(n: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(n);
    for _ in 0..n {
        w.u8(4);
        w.u8(0);
    }
    w.varint(0);
    w.into_bytes()
}

/// Peak resident set of this process (`VmHWM`), in bytes.
#[cfg(target_os = "linux")]
fn peak_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: u64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("kB");
    kb * 1024
}

#[test]
fn the_event_count_is_checked_before_any_event() {
    // The count is over the bound and the first "event" is garbage:
    // the refusal must name the count, not the garbage, so no event
    // was decoded (or allocated for) first.
    let max_events = ServeConfig::new(xcfg(2)).max_events_per_interval;
    let mut w = Writer::new();
    w.varint(max_events as u64 + 1);
    w.bytes(&[0xFF; 32]);
    let frame = Frame { tag: MSG_INTERVAL, payload: w.into_bytes() };
    assert_eq!(
        decode_client(&frame, 2, max_events),
        Err(TraceError::BadSection { section: "INTERVAL" })
    );
    // At the bound the same frame decodes up to the garbage.
    assert!(matches!(
        decode_client(&frame, 2, max_events + 1),
        Err(TraceError::BadTag { what: "event", .. })
    ));
}

#[test]
fn a_16mb_frame_of_8m_events_is_refused_without_decoding_it() {
    // 8,000,000 events in one 16,000,005-byte frame: under the 16 MiB
    // frame cap, eight times the default events-per-interval bound.
    // Decoding it all would cost the reader thread ~1 s and ~700 MB, so
    // the bound must be applied before the events are decoded.
    let payload = interval_ends(8_000_000);
    assert_eq!(payload.len(), 16_000_005);
    let wire = encode_frame(MSG_INTERVAL, &payload);
    drop(payload);

    #[cfg(target_os = "linux")]
    let before = peak_rss();
    let cores = 2;
    let (server, connector) = serve_channel(ServeConfig::new(xcfg(cores)));
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.hello(1, cores, &[Technique::GDP]).expect("admission");
    c.send_raw(&wire).expect("send the hostile frame");
    match c.recv_msg() {
        Ok(ServerMsg::Error(m)) => {
            assert!(m.contains("BadSection") && m.contains("INTERVAL"), "typed error, got {m:?}")
        }
        other => panic!("expected the typed INTERVAL error, got {other:?}"),
    }
    server.shutdown();

    // What the exchange may hold is a few copies of the 16 MB frame in
    // transit and reassembly; decoded events would add ~800 MB.
    #[cfg(target_os = "linux")]
    {
        let grown = peak_rss().saturating_sub(before);
        assert!(grown < 256 << 20, "peak RSS grew by {} MB", grown >> 20);
    }
}

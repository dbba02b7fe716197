//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's files, around each call into
//! a layer of the program: name, start, end, parent span and run id,
//! kept in memory and written out once at the end as Chrome trace-event
//! JSON (loadable in Perfetto). A span's self time is its duration minus
//! the part its children cover; children of one span never overlap,
//! because every span is opened and closed on one thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

struct Rec {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    lane: u64,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    /// Open spans of this thread (innermost last) and its lane.
    static OPEN: RefCell<(Vec<u64>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

/// In-memory span store of one traced run.
pub struct Tracer {
    run: String,
    origin: Instant,
    recs: Mutex<Vec<Rec>>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer for run `run` (written as every span's `run` argument).
    pub fn new(run: String) -> Tracer {
        Tracer { run, origin: Instant::now(), recs: Mutex::new(Vec::new()) }
    }

    /// Put the calling thread's spans on timeline lane `lane`.
    pub fn set_lane(lane: u64) {
        OPEN.with(|o| o.borrow_mut().1 = lane);
    }

    /// Run `f` inside a span named `name`, a child of the thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let (id, parent, lane) = {
            let mut recs = self.recs.lock().expect("span store poisoned by a panicked thread");
            let id = recs.len() as u64;
            let (parent, lane) = OPEN.with(|o| {
                let mut o = o.borrow_mut();
                let parent = o.0.last().copied();
                o.0.push(id);
                (parent, o.1)
            });
            recs.push(Rec { id, parent, name, lane, start_ns: start, end_ns: start });
            (id, parent, lane)
        };
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let popped = o.borrow_mut().0.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
        });
        let mut recs = self.recs.lock().expect("span store poisoned by a panicked thread");
        let r = &mut recs[id as usize];
        debug_assert_eq!((r.parent, r.lane), (parent, lane));
        r.end_ns = end;
        out
    }

    /// Per-name duration and self-time totals.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let recs = self.recs.lock().expect("span store poisoned by a panicked thread");
        let mut child_ns = vec![0u64; recs.len()];
        for r in recs.iter() {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for r in recs.iter() {
            let dur = r.end_ns - r.start_ns;
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[r.id as usize]);
        }
        out
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
    }

    /// Write every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events, µs timestamps, one `tid` per lane).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let recs = self.recs.lock().expect("span store poisoned by a panicked thread");
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut lanes: Vec<u64> = recs.iter().map(|r| r.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in &lanes {
            let _ = writeln!(
                s,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{}\"}}}},",
                if *lane == 0 { "main".to_string() } else { format!("client {lane}") }
            );
        }
        for (i, r) in recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent},\
                 \"run\":\"{}\"}}}}",
                r.name,
                r.lane,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.id,
                self.run,
            );
            s.push_str(if i + 1 < recs.len() { ",\n" } else { "\n" });
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new("test".into());
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }
}

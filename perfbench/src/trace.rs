//! In-memory span tracer for the traced (`--trace 1`) run.
//!
//! Spans are opened and closed only by the benchmark's own code, around
//! its calls into each layer's public functions. Each thread keeps its
//! open spans on a stack, so a span opened while another is open becomes
//! its child; a span's *self time* is its duration minus the durations of
//! its direct children. Self times are folded into per-kind totals and
//! log-linear histograms as spans close, and the most recent spans of each
//! thread are kept in a bounded ring that [`write_recent`] writes out at
//! exit. Nothing here runs in the untraced run: callers gate every call on
//! a compile-time `TRACED` flag.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use wtm_stm::Resolution;

/// Every span the benchmark records, one per layer boundary it crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Prepopulate,
    Atomic,
    Body,
    Resolve,
    OnBegin,
    OnCommit,
    OnAbort,
    ScenarioBuild,
    SchedBuild,
    RunEvents,
}

pub const SPAN_KINDS: usize = 10;

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Prepopulate => "workloads.prepopulate",
            Span::Atomic => "stm.atomic",
            Span::Body => "workloads.body",
            Span::Resolve => "cm.resolve",
            Span::OnBegin => "cm.on_begin",
            Span::OnCommit => "cm.on_commit",
            Span::OnAbort => "cm.on_abort",
            Span::ScenarioBuild => "sim.scenario_build",
            Span::SchedBuild => "sim.sched_build",
            Span::RunEvents => "sim.run_events",
        }
    }
}

/// Log-linear histogram: exact below 64, then 32 sub-buckets per power
/// of two (about 3% resolution).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB: u32 = 32;
const HIST_BUCKETS: usize = 64 + (64 - 6) * SUB as usize;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < 64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mant = (v >> (e - 5)) as u32 & (SUB - 1);
        (64 + (e - 6) * SUB + mant) as usize
    }

    fn lower_bound(b: usize) -> u64 {
        if b < 64 {
            return b as u64;
        }
        let e = (b - 64) as u32 / SUB + 6;
        let mant = (b - 64) as u64 % u64::from(SUB);
        (1u64 << e) | (mant << (e - 5))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile (0..=1) as its bucket's lower bound; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Per-kind totals of closed spans, mergeable across threads.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: [u64; SPAN_KINDS],
    pub self_ns: [u64; SPAN_KINDS],
    pub hist: [Hist; SPAN_KINDS],
    /// `cm.resolve` verdicts: retry, abort self, abort enemy.
    pub verdicts: [u64; 3],
}

impl Agg {
    fn merge(&mut self, o: &Agg) {
        for k in 0..SPAN_KINDS {
            self.count[k] += o.count[k];
            self.self_ns[k] += o.self_ns[k];
            self.hist[k].merge(&o.hist[k]);
        }
        for (a, b) in self.verdicts.iter_mut().zip(o.verdicts) {
            *a += b;
        }
    }

    pub fn of(&self, s: Span) -> (u64, u64, &Hist) {
        let k = s as usize;
        (self.count[k], self.self_ns[k], &self.hist[k])
    }
}

/// One closed span as written out at exit.
#[derive(Clone, Copy)]
struct Rec {
    id: u64,
    parent: u64,
    txn: u64,
    kind: Span,
    start: u64,
    end: u64,
}

struct Open {
    id: u64,
    kind: Span,
    start: u64,
    child_ns: u64,
}

const RING: usize = 4096;

struct Local {
    tag: u64,
    next_id: u64,
    stack: Vec<Open>,
    agg: Agg,
    ring: Vec<Rec>,
    ring_pos: usize,
}

static BASE: OnceLock<Instant> = OnceLock::new();
static THREAD_TAGS: AtomicU64 = AtomicU64::new(1);
static GLOBAL: Mutex<Option<Agg>> = Mutex::new(None);
static RECENT: Mutex<Vec<Rec>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tag: THREAD_TAGS.fetch_add(1, Ordering::Relaxed),
        next_id: 0,
        stack: Vec::with_capacity(8),
        agg: Agg::default(),
        ring: Vec::new(),
        ring_pos: 0,
    });
}

fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped, so a span closes on every exit path.
pub struct Guard(());

/// Open a span of `kind` on this thread.
pub fn span(kind: Span) -> Guard {
    let start = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next_id += 1;
        let id = (l.tag << 40) | l.next_id;
        l.stack.push(Open {
            id,
            kind,
            start,
            child_ns: 0,
        });
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else { return };
            let dur = end.saturating_sub(open.start);
            let self_ns = dur.saturating_sub(open.child_ns);
            let parent = l.stack.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.id
            });
            // Spans of one transaction share the id of its root span.
            let txn = l.stack.first().map_or(open.id, |root| root.id);
            let k = open.kind as usize;
            l.agg.count[k] += 1;
            l.agg.self_ns[k] += self_ns;
            l.agg.hist[k].record(self_ns);
            let rec = Rec {
                id: open.id,
                parent,
                txn,
                kind: open.kind,
                start: open.start,
                end,
            };
            if l.ring.len() < RING {
                l.ring.push(rec);
            } else {
                let pos = l.ring_pos;
                l.ring[pos] = rec;
                l.ring_pos = (pos + 1) % RING;
            }
        });
    }
}

/// Count one `cm.resolve` verdict on this thread.
pub fn verdict(r: Resolution) {
    let i = match r {
        Resolution::Retry => 0,
        Resolution::AbortSelf => 1,
        Resolution::AbortEnemy => 2,
    };
    LOCAL.with(|l| l.borrow_mut().agg.verdicts[i] += 1);
}

/// Move this thread's totals and recent spans into the process-wide
/// collection. Worker threads call it before they exit.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let agg = std::mem::take(&mut l.agg);
        GLOBAL
            .lock()
            .expect("trace collector poisoned by a panicking thread")
            .get_or_insert_with(Agg::default)
            .merge(&agg);
        let pos = l.ring_pos;
        let ring = std::mem::take(&mut l.ring);
        l.ring_pos = 0;
        let mut recent = RECENT
            .lock()
            .expect("trace collector poisoned by a panicking thread");
        recent.extend_from_slice(&ring[pos..]);
        recent.extend_from_slice(&ring[..pos]);
        let excess = recent.len().saturating_sub(4 * RING);
        recent.drain(..excess);
    });
}

/// Take everything flushed so far, leaving the collector empty.
pub fn take() -> Agg {
    GLOBAL
        .lock()
        .expect("trace collector poisoned by a panicking thread")
        .take()
        .unwrap_or_default()
}

/// Write the most recent spans as JSON lines (times in ns since the
/// first span of the process).
pub fn write_recent(path: &Path) -> std::io::Result<()> {
    let recent = RECENT
        .lock()
        .expect("trace collector poisoned by a panicking thread");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in recent.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            r.id,
            r.parent,
            r.txn,
            r.kind.name(),
            r.start,
            r.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_round_trip_within_resolution() {
        for v in [0u64, 1, 63, 64, 65, 100, 1000, 12_345, 1 << 40] {
            let lb = Hist::lower_bound(Hist::bucket(v));
            assert!(lb <= v && v - lb <= v / 32, "v={v} lb={lb}");
        }
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50);
        assert!(h.quantile(0.99) >= 96);
    }

    #[test]
    fn self_time_excludes_children() {
        std::thread::spawn(|| {
            {
                let _a = span(Span::Atomic);
                let _b = span(Span::Body);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            flush();
        })
        .join()
        .expect("tracing thread panicked");
        let agg = take();
        let (n_atomic, atomic_self, _) = agg.of(Span::Atomic);
        let (n_body, body_self, _) = agg.of(Span::Body);
        assert_eq!((n_atomic, n_body), (1, 1));
        assert!(body_self >= 5_000_000);
        assert!(atomic_self < body_self);
    }
}

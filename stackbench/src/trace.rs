//! Spans recorded in memory around the benchmark's calls into each
//! layer, and the per-layer accounting derived from them.
//!
//! An op's root span is named `op`; its id is the op id. A span opened
//! on a thread that has no open span of its own (a shard writer thread
//! calling the data-plane wrapper) is attached to the op in flight.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The op thread's `Sched` when the span opened and when it closed.
    /// Read only for the root span and for spans the op's own thread
    /// opens outside any other span, so that what the thread did
    /// between those spans is known gap by gap.
    pub sched: Option<(Sched, Sched)>,
}

pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    /// The op in flight while tracing (0 = none).
    op: AtomicU64,
    next_id: AtomicU64,
    /// Spans in fixed-size chunks, so that a push never moves the spans
    /// already recorded: growing one flat vector copies all of them
    /// while an op is in flight, which showed as holes of up to 1 ms in
    /// traced ops at each doubling.
    spans: Mutex<Vec<Vec<Span>>>,
}

const CHUNK: usize = 4096;

thread_local! {
    /// Ids of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Set on a thread once it has begun an op: that thread's
    /// scheduler clock, read at the boundaries of its top-level spans.
    static OP_THREAD: RefCell<Option<SchedClock>> = const { RefCell::new(None) };
}

/// The calling thread's `Sched`, if it is an op thread.
fn op_thread_sched() -> Option<Sched> {
    OP_THREAD.with(|c| c.borrow().as_ref().and_then(SchedClock::read))
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            op: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An op's root span, open.
pub struct OpenOp {
    id: u64,
    start_ns: u64,
    sched: Option<Sched>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Open the root span of an op on the calling thread if tracing is on.
    pub fn begin_op(&self) -> Option<OpenOp> {
        if !self.on.load(Ordering::SeqCst) {
            return None;
        }
        let sched = OP_THREAD.with(|c| c.borrow_mut().get_or_insert_with(SchedClock::open).read());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // SeqCst: a writer thread that sees the op id must also see it
        // in flight when it records its span.
        self.op.store(id, Ordering::SeqCst);
        Some(OpenOp {
            id,
            start_ns: self.now_ns(),
            sched,
        })
    }

    /// Close an op's root span, on the thread that opened it.
    pub fn end_op(&self, opened: Option<OpenOp>) {
        if let Some(o) = opened {
            let end_ns = self.now_ns();
            let sched = op_thread_sched();
            self.op.store(0, Ordering::SeqCst);
            self.push(Span {
                id: o.id,
                op: o.id,
                parent: 0,
                name: "op",
                start_ns: o.start_ns,
                end_ns,
                sched: o.sched.zip(sched),
            });
        }
    }

    /// Run `f` inside a span named `name` of the op in flight.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let op = self.op.load(Ordering::SeqCst);
        if op == 0 {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(op);
            s.push(id);
            parent
        });
        let top = parent == op;
        let sched0 = if top { op_thread_sched() } else { None };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let sched1 = if top { op_thread_sched() } else { None };
        OPEN.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            op,
            parent,
            name,
            start_ns,
            end_ns,
            sched: sched0.zip(sched1),
        });
        out
    }

    fn push(&self, span: Span) {
        let mut chunks = self.spans.lock().expect("span buffer poisoned");
        match chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(span),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(span);
                chunks.push(c);
            }
        }
    }

    /// Every span recorded so far, by start time.
    pub fn take(&self) -> Vec<Span> {
        let chunks = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        let mut all: Vec<Span> = chunks.into_iter().flatten().collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-layer totals over the traced ops.
#[derive(Default, Debug)]
pub struct Breakdown {
    pub ops: u64,
    /// Span name → (spans, summed self time in ns).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Smallest share of an op's wall time accounted for (`accounted_ns`).
    pub min_accounted: f64,
    /// Ops with less than `CONSERVATION` of their wall time accounted for.
    pub unaccounted_ops: u64,
}

/// The share of each op's wall time that must be accounted for. Time
/// outside every layer span counts only while the kernel shows the op's
/// thread kept off its CPU between two of its calls (`off_cpu_ns`); any
/// other uncovered time is a call the spans miss.
pub const CONSERVATION: f64 = 0.9;

/// Ops in a hundred that may miss `CONSERVATION`. Interrupts that hit
/// the op's thread between two spans count as its CPU time; they strike
/// single ops at random, while a call the spans miss shows in every op
/// that makes it.
pub const STRAY_OPS_PER_100: u64 = 1;

/// How long the op thread was kept off its CPU between two readings
/// `a` and `b` that are `wall_ns` apart: its wait in the run queue, plus,
/// if it was never switched out, all the time it did not run, which
/// the hypervisor took (steal). A thread that blocks in a call is
/// switched out, so a blocking call the spans miss is never excused,
/// nor is a call that computes, which shows as CPU time.
fn off_cpu_ns(a: Sched, b: Sched, wall_ns: u64) -> u64 {
    let waited = b.wait_ns.saturating_sub(a.wait_ns);
    let stolen = if b.slices == a.slices {
        wall_ns.saturating_sub(b.cpu_ns.saturating_sub(a.cpu_ns))
    } else {
        0
    };
    waited + stolen
}

/// Nanoseconds of the op `root` accounted for: covered by a layer span
/// of the op on any thread, or spent with the op's thread off its CPU
/// in a gap between its top-level spans (`tops`, each with its
/// `sched`). A gap's off-CPU time is excused only up to the part of the
/// gap that no span covers; time off CPU inside a span is already covered.
fn accounted_ns(root: &Span, intervals: &mut [(u64, u64)], tops: &mut [Span]) -> u64 {
    let (lo, hi) = (root.start_ns, root.end_ns);
    let covered_ns = covered(lo, hi, intervals);
    let Some((s_lo, s_hi)) = root.sched else {
        return covered_ns;
    };
    tops.sort_by_key(|t| t.start_ns);
    let bounds = tops
        .iter()
        .filter_map(|t| t.sched.map(|(s0, s1)| ((t.start_ns, s0), (t.end_ns, s1))));
    let mut excused = 0;
    let mut gap_start = (lo, s_lo);
    for (open, close) in bounds.chain(std::iter::once(((hi, s_hi), (hi, s_hi)))) {
        let ((a, sa), (b, sb)) = (gap_start, open);
        if b > a {
            let uncovered = (b - a) - covered(a, b, intervals);
            excused += off_cpu_ns(sa, sb, b - a).min(uncovered);
        }
        gap_start = close;
    }
    covered_ns + excused
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut in_op: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut tops: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name != "op") {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
            in_op.entry(s.op).or_default().push((s.start_ns, s.end_ns));
            if s.sched.is_some() {
                tops.entry(s.op).or_default().push(*s);
            }
        }
        let mut b = Breakdown {
            min_accounted: 1.0,
            ..Breakdown::default()
        };
        for s in spans {
            let kids = children.get_mut(&s.id).map(Vec::as_mut_slice);
            let child_ns = kids.map_or(0, |k| covered(s.start_ns, s.end_ns, k));
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns);
            let e = b.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
            if s.name == "op" {
                b.ops += 1;
                let wall = (s.end_ns - s.start_ns).max(1);
                let all = in_op.entry(s.id).or_default();
                let top = tops.entry(s.id).or_default();
                let accounted = accounted_ns(s, all, top).min(wall) as f64 / wall as f64;
                b.min_accounted = b.min_accounted.min(accounted);
                if accounted < CONSERVATION {
                    b.unaccounted_ops += 1;
                }
            }
        }
        b
    }

    /// Summed self time of spans named `name`, in µs per op.
    pub fn us_per_op(&self, name: &str) -> f64 {
        let ns = self.by_name.get(name).map_or(0, |e| e.1);
        ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// Mean self time of one span named `name`, in µs.
    pub fn us_per_span(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n.max(1) as f64)
    }
}

/// What the kernel reports a thread did so far.
#[derive(Clone, Copy, Debug)]
pub struct Sched {
    /// Time on a CPU (`CLOCK_THREAD_CPUTIME_ID`); the kernel leaves out
    /// time the hypervisor took from the virtual CPU (steal).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU (schedstat).
    pub wait_ns: u64,
    /// Times the thread was switched in (schedstat).
    pub slices: u64,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's `Sched`, from `/proc/thread-self/schedstat` and
/// its CPU-time clock. Open it on the thread it describes.
pub struct SchedClock(Option<std::fs::File>);

impl SchedClock {
    pub fn open() -> SchedClock {
        SchedClock(std::fs::File::open("/proc/thread-self/schedstat").ok())
    }

    /// `None` where the kernel does not report it, which leaves nothing
    /// excused and the conservation check strict.
    pub fn read(&self) -> Option<Sched> {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; 96];
        let n = self.0.as_ref()?.read_at(&mut buf, 0).ok()?;
        let mut fields = std::str::from_utf8(&buf[..n]).ok()?.split_whitespace();
        let mut next = || fields.next()?.parse::<u64>().ok();
        let (_, wait_ns, slices) = (next()?, next()?, next()?);
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(Sched {
            cpu_ns: ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64,
            wait_ns,
            slices,
        })
    }
}

/// Write spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"op":{},"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}{}}}"#,
            s.op,
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.sched.map_or(String::new(), |(a, b)| format!(
                r#","sched":[[{},{},{}],[{},{},{}]]"#,
                a.cpu_ns, a.wait_ns, a.slices, b.cpu_ns, b.wait_ns, b.slices
            ))
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, op: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            op,
            parent,
            name,
            start_ns: s,
            end_ns: e,
            sched: None,
        }
    }

    /// A span with the op thread's scheduler clock read at its ends.
    fn clocked(mut sp: Span, open: Sched, close: Sched) -> Span {
        sp.sched = Some((open, close));
        sp
    }

    fn at(cpu_ns: u64, wait_ns: u64, slices: u64) -> Sched {
        Sched {
            cpu_ns,
            wait_ns,
            slices,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 12), (0, 3), (10, 20), (30, 40)];
        assert_eq!(covered(2, 35, &mut iv), 1 + 15 + 5);
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_all_threads() {
        let spans = [
            clocked(span(1, 1, 0, "op", 0, 100), at(0, 0, 1), at(100, 0, 1)),
            clocked(
                span(2, 1, 1, "core.handle", 0, 50),
                at(0, 0, 1),
                at(50, 0, 1),
            ),
            span(3, 1, 2, "p4sim.write", 10, 30),
            // A writer-thread span attached to the op.
            span(4, 1, 1, "p4sim.write", 45, 92),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.by_name["core.handle"], (1, 30));
        assert_eq!(b.by_name["p4sim.write"], (2, 20 + 47));
        assert_eq!(b.by_name["op"], (1, 8));
        assert!((b.min_accounted - 0.92).abs() < 1e-9);
        assert_eq!(b.unaccounted_ops, 0);
    }

    #[test]
    fn only_the_wait_between_spans_excuses_uncovered_time() {
        // Each op: a call covering 0..80 of 100 ns, 20 ns uncovered; the
        // thread is switched out inside the call and again after it.
        let op = |id, wait_in_call, wait_at_end| {
            [
                clocked(
                    span(id, id, 0, "op", 0, 100),
                    at(0, 0, 1),
                    at(60, wait_at_end, 3),
                ),
                clocked(
                    span(id + 1, id, id, "ovsdb.transact", 0, 80),
                    at(0, 0, 1),
                    at(55, wait_in_call, 2),
                ),
            ]
        };
        // 15 ns queued after the call: 95% accounted.
        let waited_between = op(1, 0, 15);
        // 20 ns queued, 15 of it inside the call: only 5 excused, 85%.
        let waited_inside = op(3, 15, 20);
        let b = Breakdown::of(&[waited_between, waited_inside].concat());
        assert_eq!(b.ops, 2);
        assert_eq!(b.unaccounted_ops, 1);
        assert!((b.min_accounted - 0.85).abs() < 1e-9);
    }

    #[test]
    fn a_wait_is_excused_only_up_to_the_uncovered_part_of_its_gap() {
        // The op thread waits 10 ns in the gap 50..80, but a writer span
        // covers 50..75 of it: only the 5 uncovered ns are excused. The
        // gap 90..100 has no wait and stays unaccounted.
        let spans = [
            clocked(span(1, 1, 0, "op", 0, 100), at(0, 0, 1), at(70, 10, 3)),
            clocked(
                span(2, 1, 1, "ovsdb.transact", 0, 50),
                at(0, 0, 1),
                at(40, 0, 1),
            ),
            span(3, 1, 1, "p4sim.write", 50, 75),
            clocked(
                span(4, 1, 1, "shard.flush_wait", 80, 90),
                at(50, 10, 2),
                at(60, 10, 2),
            ),
        ];
        let b = Breakdown::of(&spans);
        assert!((b.min_accounted - 0.90).abs() < 1e-9);
        assert_eq!(b.unaccounted_ops, 0);
    }

    #[test]
    fn time_not_run_is_excused_only_if_the_thread_was_never_switched_out() {
        // A call covers 0..60 of 100 ns; the thread runs 10 ns of the
        // 40 ns gap after it.
        let op = |id, close: Sched| {
            [
                clocked(span(id, id, 0, "op", 0, 100), at(0, 0, 1), close),
                clocked(
                    span(id + 1, id, id, "ovsdb.transact", 0, 60),
                    at(0, 0, 1),
                    at(60, 0, 1),
                ),
            ]
        };
        // Never switched out: the 30 ns it did not run were stolen, 90%.
        let stolen = op(1, at(70, 0, 1));
        // Switched out without waiting to run: it blocked in a call the
        // spans miss, 60%.
        let blocked = op(3, at(70, 0, 2));
        // Ran the whole gap: a call the spans miss computed, 60%.
        let computed = op(5, at(100, 0, 1));
        let b = Breakdown::of(&[stolen, blocked, computed].concat());
        assert_eq!(b.ops, 3);
        assert_eq!(b.unaccounted_ops, 2);
        assert!((b.min_accounted - 0.60).abs() < 1e-9);
    }

    #[test]
    fn sched_clock_reads_the_calling_thread() {
        let clock = SchedClock::open();
        let (Some(a), Some(b)) = (clock.read(), {
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_millis(5) {}
            clock.read()
        }) else {
            return; // no schedstat: the check stays strict
        };
        assert!(b.cpu_ns >= a.cpu_ns + 1_000_000, "{a:?} {b:?}");
        assert!(b.wait_ns >= a.wait_ns && b.slices >= a.slices);
    }
}

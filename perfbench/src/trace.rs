//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions (see [`crate::timed`]); nothing inside
//! the program is instrumented. Recording is on only during the traced
//! steps of [`alternate`]; elsewhere a wrapped call pays one relaxed
//! atomic load.
//!
//! Two kinds of span exist:
//!
//! * an **op** span covers one unit of workload progress (a training
//!   epoch, a checkpoint write, one ACT request) and carries the op id
//!   that every span recorded inside it shares;
//! * a **layer** span covers one call into a layer. Its time is also
//!   charged to the enclosing op, whose *self* time is its duration minus
//!   the layer spans it contains.
//!
//! Per-name totals are aggregated as spans close. Raw events are kept up
//! to [`EVENT_CAP`] for the Chrome trace export.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qmarl_harness::json::Json;

/// Raw events kept for the Chrome trace file; aggregation continues past
/// the cap.
pub const EVENT_CAP: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    /// The op the current thread is inside, with the layer time charged
    /// to it so far.
    static CURRENT_OP: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    static THREAD_ID: u64 = next_thread_id();
}

fn next_thread_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Work items the spans covered (batch rows; 1 for single calls).
    pub rows: u64,
    /// Summed duration.
    pub ns: u64,
    /// Summed self time (op spans only): duration minus contained layer spans.
    pub self_ns: u64,
    /// Whether these are op spans.
    pub op: bool,
}

struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
    op: Option<u64>,
    rows: u64,
}

struct Recorder {
    origin: Instant,
    aggs: Vec<(&'static str, Agg)>,
    events: Vec<Event>,
    dropped: u64,
}

impl Recorder {
    fn agg(&mut self, name: &'static str) -> &mut Agg {
        let idx = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[idx].1
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    RECORDER
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Starts a fresh recording; every span closed from now on is kept.
fn enable() {
    *lock() = Some(Recorder {
        origin: Instant::now(),
        aggs: Vec::new(),
        events: Vec::new(),
        dropped: 0,
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Pauses (`false`) or resumes (`true`) an [`enable`]d recording, so
/// traced and untraced passes can alternate. Spans open when the
/// recording pauses still record when they close.
fn set_active(on: bool) {
    ENABLED.store(on && lock().is_some(), Ordering::SeqCst);
}

/// Runs `rounds` rounds of one untraced and one traced `step(round,
/// traced)`, alternating which side goes first so drift in machine speed
/// hits both alike, with a recording active during the traced steps
/// only. Returns the untraced and traced wall seconds and the recording.
pub fn alternate(
    rounds: u64,
    mut step: impl FnMut(u64, bool) -> Result<(), String>,
) -> Result<(f64, f64, Trace), String> {
    let mut wall = [0.0; 2];
    enable();
    let mut result = Ok(());
    'rounds: for round in 0..rounds {
        let traced_first = round % 2 == 1;
        for traced in [traced_first, !traced_first] {
            set_active(traced);
            let t0 = Instant::now();
            result = step(round, traced);
            wall[usize::from(traced)] += t0.elapsed().as_secs_f64();
            if result.is_err() {
                break 'rounds;
            }
        }
    }
    let trace = finish();
    result.map(|()| (wall[0], wall[1], trace))
}

/// Stops recording and returns what was recorded.
fn finish() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    let rec = lock().take().expect("finish() without enable()");
    Trace {
        aggs: rec.aggs,
        events: rec.events,
        dropped: rec.dropped,
    }
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span records when it is dropped"]
pub struct Span {
    name: &'static str,
    rows: u64,
    start: Option<Instant>,
    op: Option<u64>,
    /// The op this span replaced as the thread's current op (op spans).
    outer: Option<Option<(u64, u64)>>,
}

/// Opens a layer span over `rows` work items.
pub fn layer(name: &'static str, rows: usize) -> Span {
    if !enabled() {
        return Span::inert(name);
    }
    Span {
        name,
        rows: rows as u64,
        start: Some(Instant::now()),
        op: CURRENT_OP.with(|c| c.get()).map(|(id, _)| id),
        outer: None,
    }
}

/// Opens an op span with id `id`; layer spans opened on this thread
/// until it closes share the id and are charged to it.
pub fn op(name: &'static str, id: u64) -> Span {
    if !enabled() {
        return Span::inert(name);
    }
    let outer = CURRENT_OP.with(|c| c.replace(Some((id, 0))));
    Span {
        name,
        rows: 1,
        start: Some(Instant::now()),
        op: Some(id),
        outer: Some(outer),
    }
}

impl Span {
    fn inert(name: &'static str) -> Span {
        Span {
            name,
            rows: 0,
            start: None,
            op: None,
            outer: None,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let self_ns = match self.outer {
            Some(outer) => {
                let (_, child_ns) = CURRENT_OP.with(|c| c.replace(outer)).unwrap_or((0, 0));
                Some(dur_ns.saturating_sub(child_ns))
            }
            None => {
                CURRENT_OP.with(|c| {
                    if let Some((id, child_ns)) = c.get() {
                        c.set(Some((id, child_ns + dur_ns)));
                    }
                });
                None
            }
        };
        let tid = THREAD_ID.with(|t| *t);
        // Drop must not panic: a poisoned or finished recorder loses the span.
        let Ok(mut guard) = RECORDER.lock() else {
            return;
        };
        let Some(rec) = guard.as_mut() else { return };
        let start_ns = start.saturating_duration_since(rec.origin).as_nanos() as u64;
        let agg = rec.agg(self.name);
        agg.calls += 1;
        agg.rows += self.rows;
        agg.ns += dur_ns;
        agg.self_ns += self_ns.unwrap_or(0);
        agg.op = self_ns.is_some();
        if rec.events.len() < EVENT_CAP {
            rec.events.push(Event {
                name: self.name,
                start_ns,
                dur_ns,
                tid,
                op: self.op,
                rows: self.rows,
            });
        } else {
            rec.dropped += 1;
        }
    }
}

/// A finished recording.
pub struct Trace {
    aggs: Vec<(&'static str, Agg)>,
    events: Vec<Event>,
    dropped: u64,
}

impl Trace {
    /// Totals of `name` (zero when no such span closed).
    pub fn get(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Every span name with its totals, in first-seen order.
    pub fn aggs(&self) -> &[(&'static str, Agg)] {
        &self.aggs
    }

    /// Events beyond [`EVENT_CAP`] that the export leaves out.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recording in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete event per span, `args.id` the op id.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut args = vec![("rows".to_string(), Json::Num(e.rows as f64))];
                if let Some(id) = e.op {
                    args.push(("id".to_string(), Json::Num(id as f64)));
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(e.name.into())),
                    (
                        "cat".into(),
                        Json::Str(e.name.split('.').next().unwrap_or("").into()),
                    ),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(e.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(e.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(e.tid as f64)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .render()
    }
}

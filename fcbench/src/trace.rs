//! In-memory span sink for the traced run.
//!
//! Every span carries a name, start and end (nanoseconds since the sink was
//! created), the round id the algorithm decorator published, a job id (the
//! client-model instance that ran it, 0 outside client jobs) and its parent
//! span. Spans are pushed into a fixed set of preallocated buffers: each
//! thread claims one buffer the first time it records and keeps it for its
//! lifetime, so recording is one uncontended lock plus a push. Nothing is
//! written out until the run ends and [`Sink::drain`] collects the buffers.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Number of span buffers. Threads map onto them round-robin; two threads
/// that share a buffer stay correct (the buffer is behind a mutex).
const BUFFERS: usize = 8;
/// Deepest span nesting a thread can hold open.
const MAX_DEPTH: usize = 8;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"nn.conv2d.fwd"`.
    pub name: &'static str,
    /// Unique span id (never 0).
    pub id: u32,
    /// Id of the enclosing span, or of the current round span when the
    /// recording thread had no span open.
    pub parent: u32,
    /// Round id published by the algorithm decorator when the span closed.
    pub round: u32,
    /// Client-model instance that ran the span (0 outside client jobs).
    pub job: u32,
    /// Start, nanoseconds since the sink epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the sink epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    static BUFFER: Cell<usize> = const { Cell::new(usize::MAX) };
    static STACK: Cell<[u32; MAX_DEPTH]> = const { Cell::new([0; MAX_DEPTH]) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static JOB: Cell<u32> = const { Cell::new(0) };
}

static NEXT_BUFFER: AtomicUsize = AtomicUsize::new(0);

/// The shared span sink. Decorators hold it through an `Arc`; every clone of
/// a traced model records into the same sink.
pub struct Sink {
    epoch: Instant,
    buffers: Vec<Mutex<Vec<Span>>>,
    next_id: AtomicU32,
    round: AtomicU32,
    round_span: AtomicU32,
    in_round: AtomicBool,
    main: ThreadId,
    model_clones: AtomicUsize,
    fallback_calls: AtomicUsize,
    last_global_end: AtomicU64,
}

impl Sink {
    /// Creates a sink whose buffers each hold `capacity` spans before they
    /// grow. The creating thread is the round thread.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            buffers: (0..BUFFERS)
                .map(|_| Mutex::new(Vec::with_capacity(capacity)))
                .collect(),
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            round_span: AtomicU32::new(0),
            in_round: AtomicBool::new(false),
            main: std::thread::current().id(),
            model_clones: AtomicUsize::new(0),
            fallback_calls: AtomicUsize::new(0),
            last_global_end: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the sink epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether the caller runs on the round thread (the thread that created
    /// the sink).
    pub fn on_round_thread(&self) -> bool {
        std::thread::current().id() == self.main
    }

    /// Opens a span on the calling thread without a guard: it becomes the
    /// parent of spans the thread opens until [`Sink::close`] is called on
    /// the same thread.
    pub fn open(&self, name: &'static str) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let depth = DEPTH.with(Cell::get);
        let parent = if depth == 0 {
            self.round_span.load(Ordering::Relaxed)
        } else {
            STACK.with(|s| s.get()[(depth - 1).min(MAX_DEPTH - 1)])
        };
        if depth < MAX_DEPTH {
            STACK.with(|s| {
                let mut stack = s.get();
                stack[depth] = id;
                s.set(stack);
            });
        }
        DEPTH.with(|d| d.set(depth + 1));
        OpenSpan {
            name,
            id,
            parent,
            start_ns: self.now(),
        }
    }

    /// Closes a span opened by [`Sink::open`] and returns its end time.
    pub fn close(&self, open: OpenSpan) -> u64 {
        let end_ns = self.now();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        self.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            round: self.round.load(Ordering::Relaxed),
            job: JOB.with(Cell::get),
            start_ns: open.start_ns,
            end_ns,
        });
        end_ns
    }

    /// Opens a span on the calling thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            open: Some(self.open(name)),
        }
    }

    /// Records an already timed span whose parent is the current round span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(Span {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.round_span.load(Ordering::Relaxed),
            round: self.round.load(Ordering::Relaxed),
            job: JOB.with(Cell::get),
            start_ns,
            end_ns,
        });
    }

    fn push(&self, span: Span) {
        let mut slot = BUFFER.with(Cell::get);
        if slot == usize::MAX {
            slot = NEXT_BUFFER.fetch_add(1, Ordering::Relaxed) % BUFFERS;
            BUFFER.with(|b| b.set(slot));
        }
        self.buffers[slot]
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Publishes `round`, opens its `engine.round` span (the parent of every
    /// later span recorded without an open span of its own) and marks
    /// client-model calls as training until [`Sink::leave_round`].
    pub fn begin_round(&self, round: usize) -> SpanGuard<'_> {
        self.round.store(round as u32, Ordering::Relaxed);
        self.round_span.store(0, Ordering::Relaxed);
        let guard = self.span("engine.round");
        self.round_span.store(guard.id(), Ordering::Relaxed);
        self.in_round.store(true, Ordering::Relaxed);
        guard
    }

    /// Marks the end of `run_round`: later client-model calls are eval.
    pub fn leave_round(&self) {
        self.in_round.store(false, Ordering::Relaxed);
    }

    /// Whether the algorithm is inside `run_round` (client-model calls are
    /// training jobs) rather than evaluating.
    pub fn in_round(&self) -> bool {
        self.in_round.load(Ordering::Relaxed)
    }

    /// Sets the client-model instance the calling thread works for.
    pub fn set_job(&self, job: u32) {
        JOB.with(|j| j.set(job));
    }

    /// Counts one `clone_model` of a traced model and returns the clone's
    /// instance id (ids start at 1).
    pub fn note_model_clone(&self) -> u32 {
        self.model_clones.fetch_add(1, Ordering::Relaxed) as u32 + 1
    }

    /// Number of traced-model clones so far.
    pub fn model_clones(&self) -> usize {
        self.model_clones.load(Ordering::Relaxed)
    }

    /// Counts one call of an allocating fallback method on a decorator.
    pub fn note_fallback(&self) {
        self.fallback_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of allocating-fallback calls so far.
    pub fn fallback_calls(&self) -> usize {
        self.fallback_calls.load(Ordering::Relaxed)
    }

    /// Remembers when global-model generation finished; evaluation starts
    /// there.
    pub fn set_global_end(&self, end_ns: u64) {
        self.last_global_end.store(end_ns, Ordering::Relaxed);
    }

    /// Records the evaluation span, from the end of global-model generation
    /// to now (called by the per-evaluation observer).
    pub fn mark_eval_done(&self) {
        let start = self.last_global_end.load(Ordering::Relaxed);
        self.record("eval", start, self.now());
    }

    /// Takes every recorded span, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buffer in &self.buffers {
            all.append(&mut buffer.lock().expect("span buffer poisoned"));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// A span opened by [`Sink::open`] and not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    name: &'static str,
    id: u32,
    parent: u32,
    start_ns: u64,
}

/// An open span; closing happens on drop.
pub struct SpanGuard<'a> {
    sink: &'a Sink,
    open: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// The span's id.
    pub fn id(&self) -> u32 {
        self.open.map_or(0, |o| o.id)
    }

    /// Closes the span now and returns its end time.
    pub fn finish(mut self) -> u64 {
        let open = self.open.take().expect("a guard closes once");
        self.sink.close(open)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.sink.close(open);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let sink = Sink::new(16);
        let round = sink.begin_round(3);
        let round_id = round.id();
        round.finish();
        sink.leave_round();
        let outer = sink.span("outer");
        let outer_id = outer.id();
        {
            let _inner = sink.span("inner");
        }
        drop(outer);
        let spans = sink.drain();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(
            outer.parent, round_id,
            "top-level spans hang under the round span"
        );
        assert_eq!(inner.parent, outer_id);
        assert_eq!(inner.round, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}

//! Hierarchical spans recorded into per-thread buffers.
//!
//! A [`Span`] is an RAII guard: creation stamps an id (per-run sequence
//! counter), a parent (the enclosing span on this thread, or an explicit
//! one for work handed to other threads) and a start time; drop stamps
//! the duration and pushes one event onto a **thread-local buffer** —
//! no lock, no shared write. Buffers spill into a global pending list
//! when they grow past a threshold, when a span opened with
//! [`span_under`] closes as its thread's outermost span, and when their
//! thread exits; the flush ([`crate::shutdown`]) merges pending + its
//! own thread's buffer and orders everything by id.
//!
//! When the recorder is disabled, [`span`] returns an inert guard: one
//! relaxed atomic load, no allocation, nothing recorded.

use std::cell::RefCell;
use std::fmt::Display;
use std::sync::Mutex;

use crate::event::Event;
use crate::next_id;

/// Spill a thread's buffer into the global pending list once it holds
/// this many events (amortizes the mutex to 1/N span drops).
const SPILL_AT: usize = 256;

static PENDING: Mutex<Vec<Event>> = Mutex::new(Vec::new());

struct LocalBuf {
    events: Vec<Event>,
}

impl LocalBuf {
    fn spill(&mut self) {
        if self.events.is_empty() {
            return;
        }
        PENDING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(&mut self.events);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.spill();
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const { RefCell::new(LocalBuf { events: Vec::new() }) };
    /// The stack of open span ids on this thread (for implicit parents).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Discards all buffered span events (current thread + pending).
pub(crate) fn clear_pending() {
    PENDING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    BUF.with(|b| b.borrow_mut().events.clear());
}

/// Moves every buffered span event out of the recorder. Events from
/// threads that are still alive and below their spill threshold are not
/// visible — the modref flows join all worker threads before flushing.
pub(crate) fn drain_pending() -> Vec<Event> {
    let mut out: Vec<Event> = std::mem::take(
        &mut PENDING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    BUF.with(|b| out.append(&mut b.borrow_mut().events));
    out
}

/// An open span. Records itself on drop; inert when the recorder was
/// disabled at creation.
#[derive(Debug)]
pub struct Span {
    /// `None` = inert (recorder disabled at creation).
    data: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(String, String)>,
    /// Whether this span was pushed on the thread-local stack (explicit
    /// parents skip the stack so cross-thread children don't adopt
    /// unrelated local spans).
    on_stack: bool,
    /// Whether the parent was given explicitly ([`span_under`]): work
    /// handed to this thread by another one.
    handed_off: bool,
}

/// Opens a span named `name` under the innermost open span of this
/// thread (or as a root).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { data: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open(name, parent, true, false)
}

/// Opens a span with an explicit parent id — for work fanned out to
/// other threads, where the logical parent is not on this thread's
/// stack. `parent` 0 makes it a root.
#[inline]
pub fn span_under(parent: u64, name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { data: None };
    }
    open(name, parent, true, true)
}

fn open(name: &'static str, parent: u64, on_stack: bool, handed_off: bool) -> Span {
    let id = next_id();
    if on_stack {
        STACK.with(|s| s.borrow_mut().push(id));
    }
    Span {
        data: Some(SpanData {
            id,
            parent,
            name,
            start_ns: crate::now_ns(),
            attrs: Vec::new(),
            on_stack,
            handed_off,
        }),
    }
}

impl Span {
    /// Attaches a `key=value` attribute (builder style). No-op on inert
    /// spans.
    pub fn attr(mut self, key: &str, value: impl Display) -> Self {
        if let Some(d) = &mut self.data {
            d.attrs.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// This span's id (0 when inert) — pass to [`span_under`] for
    /// children created on other threads.
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }

    /// Nanoseconds since the span opened (0 when inert or in
    /// logical-clock mode).
    pub fn elapsed_ns(&self) -> u64 {
        self.data
            .as_ref()
            .map_or(0, |d| crate::now_ns().saturating_sub(d.start_ns))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else {
            return;
        };
        let mut outermost = false;
        if d.on_stack {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards drop LIFO per thread; tolerate a leaked guard by
                // popping through it.
                while let Some(top) = stack.pop() {
                    if top == d.id {
                        break;
                    }
                }
                outermost = stack.is_empty();
            });
        }
        // A flush may have happened while the span was open; the event
        // would belong to a closed run, so drop it.
        if !crate::enabled() {
            return;
        }
        let dur_ns = crate::now_ns().saturating_sub(d.start_ns);
        BUF.with(|b| {
            let mut buf = b.borrow_mut();
            buf.events.push(Event::Span {
                id: d.id,
                parent: d.parent,
                name: d.name.to_string(),
                start_ns: d.start_ns,
                dur_ns,
                attrs: d.attrs,
            });
            // Handed-off work finishing on its thread spills at once: a
            // scoped thread counts as joined before its thread-local
            // buffer drops, so a flush right after the scope could
            // otherwise miss the work's events.
            if buf.events.len() >= SPILL_AT || (d.handed_off && outermost) {
                buf.spill();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, shutdown, ClockMode};

    #[test]
    fn nesting_links_parents() {
        let _l = crate::testlock::hold();
        init(ClockMode::Logical);
        let (outer_id, inner_id);
        {
            let outer = span("outer");
            outer_id = outer.id();
            let inner = span("inner");
            inner_id = inner.id();
            drop(inner);
            drop(outer);
        }
        let trace = shutdown();
        let mut saw_inner = false;
        for e in &trace.events {
            if let Event::Span {
                id, parent, name, ..
            } = e
            {
                if name == "inner" {
                    assert_eq!(*id, inner_id);
                    assert_eq!(*parent, outer_id);
                    saw_inner = true;
                }
                if name == "outer" {
                    assert_eq!(*parent, 0);
                }
            }
        }
        assert!(saw_inner);
    }

    #[test]
    fn cross_thread_spans_merge_at_flush() {
        let _l = crate::testlock::hold();
        init(ClockMode::Logical);
        let root = span("root");
        let root_id = root.id();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _child = span_under(root_id, "child").attr("t", "x");
                });
            }
        });
        drop(root);
        let trace = shutdown();
        let children = trace.spans_named("child");
        assert_eq!(children.len(), 4);
        for c in children {
            if let Event::Span { parent, attrs, .. } = c {
                assert_eq!(*parent, root_id);
                assert_eq!(attrs[0], ("t".to_string(), "x".to_string()));
            }
        }
        // Events are ordered by id.
        let ids: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}

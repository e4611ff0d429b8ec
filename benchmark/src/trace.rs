//! Outside-in tracing, entirely from benchmark code: a [`TimedTransport`]
//! that times and counts what the service does to its transport and
//! captures frames, and a [`Tracer`] that records a span (name, start, end,
//! parent, instance id) around every call into a layer. Spans stay in
//! memory; [`Tracer::write_jsonl`] writes them out when the run ends.
//!
//! A layer's self time is its spans' duration minus the part their child
//! spans cover; the ledger in [`crate::ledger`] is built on that.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbvc_obs::LinkHealth;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_transport::{AuthEvent, Transport};

use crate::probe::{Call, Probe};

/// Spans kept for `trace.jsonl` (the aggregates cover every span).
pub const SPAN_CAP: usize = 200_000;
/// Frames captured for the codec micro-timings.
pub const FRAME_CAP: usize = 4096;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in order of opening.
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at top level.
    pub parent: u64,
    /// What was called.
    pub call: Call,
    /// The instance it served, 0 if none in particular.
    pub instance: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Totals of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Spans closed.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ duration covered by child spans and timed sends.
    pub child_ns: u64,
}

impl CallTotals {
    /// Σ duration not covered by children.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// What one timed region (one traced repetition) cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Region {
    /// Wall time of the region.
    pub wall_ns: u64,
    /// Allocations made while it ran, process-wide.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Time the driver thread spent inside outermost geometry-kernel spans.
    pub kernel_ns: u64,
}

/// Everything the tracer has seen so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Per call, indexed by [`Call::index`]: spans closed inside a timed
    /// region.
    pub calls: [CallTotals; Call::ALL.len()],
    /// Per call: spans closed outside any timed region (set-up, drain, the
    /// cold restart).
    pub outside: [CallTotals; Call::ALL.len()],
    /// Duration of every in-region `poll` span, ns.
    pub poll_ns: Vec<u64>,
    /// Σ duration of the `poll` spans during which a frame moved.
    pub busy_poll_ns: u64,
    /// In-region `Transport::send` calls and the time inside them.
    pub sends: u64,
    /// See `sends`.
    pub send_ns: u64,
    /// Bytes handed to `Transport::send`.
    pub send_bytes: u64,
    /// Frames the in-region receive calls returned.
    pub frames_received: u64,
    /// Timed regions, in order.
    pub regions: Vec<Region>,
}

struct State {
    totals: Totals,
    spans: Vec<Span>,
    /// `(sender, bytes)` of captured frames.
    frames: Vec<(ProcessId, Vec<u8>)>,
}

struct Shared {
    epoch: Instant,
    next_id: AtomicU64,
    /// Frames sent + received so far; lets a `poll` span tell whether
    /// anything moved while it was open.
    moved: AtomicU64,
    /// Whether a timed region is open (there is one driver, so one flag).
    in_region: AtomicBool,
    /// Frames captured so far (checked before cloning one).
    captured: AtomicU64,
    /// Allocations the tracer itself made for captured frames, and their
    /// bytes: taken out of the regions' allocation counts.
    own_allocs: AtomicU64,
    own_bytes: AtomicU64,
    state: Mutex<State>,
}

/// A span that has been opened on this thread and not yet closed.
struct Open {
    id: u64,
    child_ns: u64,
    moved_at_open: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// The probe of the traced binary. Clones share one recording.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with nothing recorded; its epoch is now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                moved: AtomicU64::new(0),
                in_region: AtomicBool::new(false),
                captured: AtomicU64::new(0),
                own_allocs: AtomicU64::new(0),
                own_bytes: AtomicU64::new(0),
                // Reserved up front so that recording does not allocate
                // inside a timed region.
                state: Mutex::new(State {
                    totals: Totals {
                        poll_ns: Vec::with_capacity(1 << 20),
                        ..Totals::default()
                    },
                    spans: Vec::with_capacity(SPAN_CAP),
                    frames: Vec::with_capacity(FRAME_CAP),
                }),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the totals valid, so a panic elsewhere while
        // the lock was held does not make them unusable.
        self.shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A copy of the totals so far.
    #[must_use]
    pub fn totals(&self) -> Totals {
        self.state().totals.clone()
    }

    /// The captured frames, `(sender, bytes)`.
    #[must_use]
    pub fn captured_frames(&self) -> Vec<(ProcessId, Vec<u8>)> {
        self.state().frames.clone()
    }

    /// Write the kept spans as JSON lines, oldest first, after one header
    /// line saying how many spans there were in all.
    ///
    /// # Errors
    /// The I/O failure.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let state = self.state();
        let all: u64 = state
            .totals
            .calls
            .iter()
            .chain(&state.totals.outside)
            .map(|c| c.count)
            .sum();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"t\":\"header\",\"workload\":\"{workload}\",\"spans_recorded\":{all},\"spans_written\":{},\"clock\":\"ns since tracer epoch\"}}",
            state.spans.len()
        )?;
        for s in &state.spans {
            writeln!(
                out,
                "{{\"t\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"instance\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.call.as_str(),
                s.instance,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// A copy of `frame` for the codec micro-timings, while there is room.
    fn capture(&self, frame: &[u8]) -> Option<Vec<u8>> {
        (self.shared.captured.load(Ordering::Relaxed) < FRAME_CAP as u64).then(|| {
            self.shared.captured.fetch_add(1, Ordering::Relaxed);
            self.shared.own_allocs.fetch_add(1, Ordering::Relaxed);
            self.shared
                .own_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            frame.to_vec()
        })
    }

    /// Charge `ns` spent inside `Transport::send` to the enclosing span.
    fn note_send(&self, ns: u64, bytes: usize, frame: Option<(ProcessId, Vec<u8>)>) {
        STACK.with_borrow_mut(|stack| {
            if let Some(top) = stack.last_mut() {
                top.child_ns += ns;
            }
        });
        self.shared.moved.fetch_add(1, Ordering::Relaxed);
        let in_region = self.shared.in_region.load(Ordering::Relaxed);
        let mut state = self.state();
        if in_region {
            state.totals.sends += 1;
            state.totals.send_ns += ns;
            state.totals.send_bytes += bytes as u64;
        }
        if let Some(frame) = frame {
            state.frames.push(frame);
        }
    }

    fn note_received(&self, frames: usize) {
        self.shared
            .moved
            .fetch_add(frames as u64, Ordering::Relaxed);
        if self.shared.in_region.load(Ordering::Relaxed) {
            self.state().totals.frames_received += frames as u64;
        }
    }
}

impl Probe for Tracer {
    type Wrapped<T: Transport> = TimedTransport<T>;

    fn wrap<T: Transport>(&self, inner: T) -> TimedTransport<T> {
        TimedTransport {
            inner,
            tracer: self.clone(),
        }
    }

    fn span<R>(&self, call: Call, instance: u64, f: impl FnOnce() -> R) -> R {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let moved_at_open = self.shared.moved.load(Ordering::Relaxed);
        let parent = STACK.with_borrow_mut(|stack| {
            let parent = stack.last().map_or(0, |open| open.id);
            stack.push(Open {
                id,
                child_ns: 0,
                moved_at_open,
            });
            parent
        });
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        let dur = end_ns.saturating_sub(start_ns);
        let open = STACK.with_borrow_mut(|stack| {
            let open = stack.pop().expect("span stack is balanced");
            if let Some(enclosing) = stack.last_mut() {
                enclosing.child_ns += dur;
            }
            open
        });
        let moved = self.shared.moved.load(Ordering::Relaxed) != open.moved_at_open;
        let in_region = self.shared.in_region.load(Ordering::Relaxed);
        let mut state = self.state();
        let totals = if in_region {
            &mut state.totals.calls[call.index()]
        } else {
            &mut state.totals.outside[call.index()]
        };
        totals.count += 1;
        totals.total_ns += dur;
        totals.child_ns += open.child_ns;
        if call == Call::Poll && in_region {
            state.totals.poll_ns.push(dur);
            if moved {
                state.totals.busy_poll_ns += dur;
            }
        }
        if state.spans.len() < SPAN_CAP {
            state.spans.push(Span {
                id,
                parent,
                call,
                instance,
                start_ns,
                end_ns,
            });
        }
        result
    }

    fn region<R>(&self, f: impl FnOnce() -> R) -> R {
        let _ = rbvc_obs::take_thread_kernel_nanos();
        let own = || {
            (
                self.shared.own_allocs.load(Ordering::Relaxed),
                self.shared.own_bytes.load(Ordering::Relaxed),
            )
        };
        let ((allocs, bytes), (own_allocs, own_bytes)) = (crate::alloc::snapshot(), own());
        self.shared.in_region.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        let result = f();
        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.in_region.store(false, Ordering::Relaxed);
        let ((allocs_after, bytes_after), (own_allocs_after, own_bytes_after)) =
            (crate::alloc::snapshot(), own());
        let kernel_ns = rbvc_obs::take_thread_kernel_nanos();
        self.state().totals.regions.push(Region {
            wall_ns,
            allocs: (allocs_after - allocs).saturating_sub(own_allocs_after - own_allocs),
            alloc_bytes: (bytes_after - bytes).saturating_sub(own_bytes_after - own_bytes),
            kernel_ns,
        });
        result
    }
}

/// A transport that times and counts what is done to it. `send` is timed
/// and counted without a span of its own (there are hundreds per decision);
/// `flush` and the receive calls are spans.
pub struct TimedTransport<T> {
    inner: T,
    tracer: Tracer,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
        let from = self.inner.local_id();
        let len = frame.len();
        // Captured before the frame moves into the transport; only frames
        // that cross a link (self-deliveries are not wire traffic).
        let captured = if dst == from {
            None
        } else {
            self.tracer.capture(&frame)
        };
        let t0 = Instant::now();
        let result = self.inner.send(dst, frame);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracer
            .note_send(ns, len, captured.map(|bytes| (from, bytes)));
        result
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        let Self { inner, tracer } = self;
        tracer.span(Call::Flush, 0, || inner.flush())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        let Self { inner, tracer } = self;
        let frames = tracer.span(Call::Recv, 0, || inner.recv_timeout(timeout));
        tracer.note_received(frames.len());
        frames
    }

    fn recv_timeout_stamped(&mut self, timeout: Duration) -> Vec<(ProcessId, u64, Vec<u8>)> {
        let Self { inner, tracer } = self;
        let frames = tracer.span(Call::Recv, 0, || inner.recv_timeout_stamped(timeout));
        tracer.note_received(frames.len());
        frames
    }

    fn take_reconnects(&mut self) -> Vec<ProcessId> {
        self.inner.take_reconnects()
    }

    fn link_health(&self) -> Vec<LinkHealth> {
        self.inner.link_health()
    }

    fn take_auth_events(&mut self) -> Vec<AuthEvent> {
        self.inner.take_auth_events()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }

    fn errors(&self) -> ErrorLog {
        self.inner.errors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_transport::in_proc_mesh;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        let mut mesh: Vec<_> = in_proc_mesh(2)
            .into_iter()
            .map(|ep| tracer.wrap(ep))
            .collect();
        tracer.region(|| {
            tracer.span(Call::Poll, 7, || {
                mesh[0].send(1, vec![1, 2, 3]).expect("send");
                mesh[0].flush().expect("flush");
            });
            let got = tracer.span(Call::Poll, 0, || {
                mesh[1].recv_timeout_stamped(Duration::ZERO)
            });
            assert_eq!(got.len(), 1);
            // A poll during which nothing moves.
            tracer.span(Call::Poll, 0, || {});
        });
        // Outside a region: counted apart, and not as a poll of the ledger.
        tracer.span(Call::Poll, 0, || {});
        let t = tracer.totals();
        assert_eq!(t.outside[Call::Poll.index()].count, 1);
        let poll = t.calls[Call::Poll.index()];
        let flush = t.calls[Call::Flush.index()];
        let recv = t.calls[Call::Recv.index()];
        assert_eq!((poll.count, flush.count, recv.count), (3, 1, 1));
        assert_eq!(poll.child_ns, flush.total_ns + recv.total_ns + t.send_ns);
        assert!(poll.self_ns() <= poll.total_ns);
        assert_eq!((t.sends, t.send_bytes, t.frames_received), (1, 3, 1));
        assert_eq!(t.poll_ns.len(), 3);
        assert!(t.busy_poll_ns <= poll.total_ns && t.busy_poll_ns >= t.poll_ns[0] + t.poll_ns[1]);
        assert_eq!(t.regions.len(), 1);
        assert!(t.regions[0].wall_ns >= poll.total_ns);
        assert_eq!(tracer.captured_frames(), vec![(0, vec![1, 2, 3])]);

        let dir = std::env::temp_dir().join(format!("rbvc-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("trace.jsonl");
        tracer.write_jsonl(&path, "unit").expect("written");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("json line"))
            .collect();
        assert_eq!(lines.len(), 1 + 6);
        assert_eq!(
            lines[0]
                .get("spans_recorded")
                .and_then(serde_json::Value::as_u64),
            Some(6)
        );
        // The flush span closes first and names the first poll as parent.
        let flush_line = &lines[1];
        assert_eq!(
            flush_line.get("name").and_then(serde_json::Value::as_str),
            Some("transport_flush")
        );
        assert_eq!(
            flush_line.get("parent").and_then(serde_json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            lines[2].get("instance").and_then(serde_json::Value::as_u64),
            Some(7)
        );
    }
}

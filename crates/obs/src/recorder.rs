//! Event recorders and the [`Obs`] emission handle.
//!
//! Engines hold an [`Obs`] (cheap to clone, `Send + Sync`) and call
//! [`Obs::emit`] with a *closure* that builds the event. When the attached
//! recorder is disabled — the default no-op — the closure never runs, so
//! instrumented hot paths pay one boolean load and no allocation.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::clock;
use crate::event::Event;

/// A sink for structured events. Implementations must be thread-safe:
/// engines emit concurrently from every node thread.
pub trait Recorder: Send + Sync {
    /// Fast-path check: when `false`, emission sites skip event
    /// construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event (already timestamped).
    fn record(&self, event: Event);
}

/// The default recorder: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// Cloneable emission handle: a shared recorder plus optional default node
/// and instance tags applied to events that did not set their own.
/// Timestamps come from
/// the process-wide monotonic clock ([`crate::clock`]), so every handle —
/// and every thread — stamps onto one coherent timeline.
#[derive(Clone)]
pub struct Obs {
    recorder: Arc<dyn Recorder>,
    node: Option<u32>,
    instance: Option<u64>,
}

impl Obs {
    /// Handle over the given recorder.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Obs {
        Obs {
            recorder,
            node: None,
            instance: None,
        }
    }

    /// The disabled handle (no-op recorder). This is `Default` too.
    #[must_use]
    pub fn noop() -> Obs {
        Obs::new(Arc::new(NoopRecorder))
    }

    /// A clone of this handle that stamps `node` on every event emitted
    /// through it that has no node tag of its own.
    #[must_use]
    pub fn with_node(&self, node: u32) -> Obs {
        Obs {
            node: Some(node),
            ..self.clone()
        }
    }

    /// A clone of this handle that stamps consensus instance `instance` on
    /// every event emitted through it that has no instance tag of its own.
    #[must_use]
    pub fn with_instance(&self, instance: u64) -> Obs {
        Obs {
            instance: Some(instance),
            ..self.clone()
        }
    }

    /// Whether emission sites should bother constructing events.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Microseconds since the process-wide monotonic epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        clock::now_us()
    }

    /// Emit the event built by `build` — *iff* the recorder is enabled.
    /// The closure only runs on the enabled path, so call sites may
    /// allocate freely inside it.
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        if !self.recorder.enabled() {
            return;
        }
        let mut event = build();
        event.time_us = self.now_us();
        if event.node.is_none() {
            event.node = self.node;
        }
        if event.instance.is_none() {
            event.instance = self.instance;
        }
        self.recorder.record(event);
    }

    /// The underlying recorder (to tee it with another sink).
    #[must_use]
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::noop()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("node", &self.node)
            .field("instance", &self.instance)
            .finish()
    }
}

struct RingInner {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// Bounded in-memory recorder: keeps the most recent `capacity` events,
/// counting (not silently discarding) overflow. The flight recorder keeps
/// its ring in one and dumps it from the panic hook, so a lock poisoned by
/// a panicking emitter is still read: every update leaves the ring whole.
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingRecorder {
    /// Ring holding at most `capacity` events (capacity 0 is clamped to 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy of the buffered events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.contents().0
    }

    /// The buffered events, oldest first, and the eviction count, read
    /// together.
    pub(crate) fn contents(&self) -> (Vec<Event>, u64) {
        let inner = self.lock();
        (inner.buf.iter().cloned().collect(), inner.dropped)
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// True iff no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: Event) {
        let mut inner = self.lock();
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }
}

/// Fan-out recorder: clones every event to each child sink. The standard
/// way to keep a run's primary sink (a ring) *and* the always-on
/// [`crate::health::FlightRecorder`] fed from one [`Obs`] handle.
pub struct TeeRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// Tee over the given sinks (empty behaves like [`NoopRecorder`]).
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> TeeRecorder {
        TeeRecorder { sinks }
    }
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: Event) {
        let enabled: Vec<&Arc<dyn Recorder>> =
            self.sinks.iter().filter(|s| s.enabled()).collect();
        let Some((last, rest)) = enabled.split_last() else {
            return;
        };
        for sink in rest {
            sink.record(event.clone());
        }
        last.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn noop_obs_never_builds_the_event() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.emit(|| unreachable!("no-op recorder must not construct events"));
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let ring = Arc::new(RingRecorder::new(2));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        for i in 0..5u64 {
            obs.emit(|| Event::new(EventKind::Decide).instance(i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(events[0].instance, Some(3));
        assert_eq!(events[1].instance, Some(4));
    }

    #[test]
    fn baked_tags_apply_to_untagged_events_only() {
        let ring = Arc::new(RingRecorder::new(8));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn Recorder>).with_node(7);
        obs.emit(|| Event::new(EventKind::Decide));
        obs.emit(|| Event::new(EventKind::Decide).node(2));
        let tagged = obs.with_instance(40);
        tagged.emit(|| Event::new(EventKind::Decide));
        tagged.emit(|| Event::new(EventKind::Decide).instance(41));
        let events = ring.snapshot();
        let tags: Vec<_> = events.iter().map(|e| (e.node, e.instance)).collect();
        assert_eq!(
            tags,
            [(Some(7), None), (Some(2), None), (Some(7), Some(40)), (Some(7), Some(41))]
        );
    }

    #[test]
    fn tee_fans_out_to_every_enabled_sink() {
        let a = Arc::new(RingRecorder::new(8));
        let b = Arc::new(RingRecorder::new(8));
        let tee = TeeRecorder::new(vec![
            Arc::clone(&a) as Arc<dyn Recorder>,
            Arc::new(NoopRecorder),
            Arc::clone(&b) as Arc<dyn Recorder>,
        ]);
        assert!(tee.enabled());
        let obs = Obs::new(Arc::new(tee));
        obs.emit(|| Event::new(EventKind::Decide).instance(1));
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
        assert!(!TeeRecorder::new(vec![Arc::new(NoopRecorder)]).enabled());
        assert!(!TeeRecorder::new(Vec::new()).enabled());
    }

    #[test]
    fn timestamps_are_monotone_nondecreasing() {
        let ring = Arc::new(RingRecorder::new(8));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        for _ in 0..3 {
            obs.emit(|| Event::new(EventKind::RoundStart));
        }
        let t: Vec<u64> = ring.snapshot().iter().map(|e| e.time_us).collect();
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ring_recorder_survives_concurrent_node_threads() {
        // The thread-safety contract of the ring buffer under the one-thread-
        // per-node runtimes: many OS threads hammering one shared recorder
        // must lose nothing and tear nothing. Every (node, seq) pair is
        // encoded in the event detail and must come back exactly once with a
        // self-consistent node tag.
        use std::collections::HashSet;

        let threads = 8usize;
        let per_thread = 500usize;
        let ring = Arc::new(RingRecorder::new(threads * per_thread));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.with_node(t as u32);
                std::thread::spawn(move || {
                    for seq in 0..per_thread {
                        obs.emit(|| {
                            Event::new(EventKind::RoundStart).detail(format!("node={t} seq={seq}"))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("emitter thread panicked");
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), threads * per_thread, "no event lost");
        assert_eq!(ring.dropped(), 0);
        let mut seen: HashSet<(u32, usize)> = HashSet::new();
        for e in &events {
            let detail = e.detail.as_deref().expect("detail present");
            let node: u32 = detail
                .split_whitespace()
                .find_map(|f| f.strip_prefix("node="))
                .and_then(|v| v.parse().ok())
                .expect("node field intact");
            let seq: usize = detail
                .split_whitespace()
                .find_map(|f| f.strip_prefix("seq="))
                .and_then(|v| v.parse().ok())
                .expect("seq field intact");
            assert_eq!(e.node, Some(node), "node tag torn from detail");
            assert!(seen.insert((node, seq)), "duplicate event ({node},{seq})");
        }
        assert_eq!(seen.len(), threads * per_thread);
    }
}

//! The phase clock: where the node's own wall time goes, always on.
//!
//! One cell of cumulative nanoseconds per [`Phase`]. The service is in
//! exactly one phase at any moment and tells the clock when that changes
//! ([`PhaseClock::enter`]): the time since the previous boundary is charged
//! to the phase being left, so the cells partition the wall time since the
//! service was built exactly — a poll costs one clock read per boundary and
//! nothing per frame. Everything reported is a difference of that array:
//! a slot keeps the cells as they stood at its launch and the decision gets
//! the difference, which sums to its latency by construction; a poll's own
//! split is the difference from the end of the previous poll.
//!
//! `kernel` is the one cell not delimited by a boundary of the poll loop:
//! the geometry kernels keep a per-thread total of their outermost spans
//! ([`rbvc_obs::thread_kernel_nanos`]), and what that total grew by during a
//! `dispatch` span is moved out of `dispatch` when the span is charged.
//! `wire` is not a phase: no node can see it without a byte on the wire,
//! and it stays where it is measured from outside (`tcp.one_hop_us`).

use std::time::Instant;

use rbvc_obs::{Histogram, Registry};

/// What a service is doing with its thread, as the phase clock sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between two `poll` calls: the caller's time (launches, submits,
    /// whatever else shares the thread).
    Outside,
    /// Blocked in the transport receive.
    Wait,
    /// Decode, receive gates, state machines (their sends encoded as they
    /// are produced), timer ticks — minus [`Phase::Kernel`].
    Dispatch,
    /// Outermost geometry-kernel spans on this thread during `dispatch`.
    Kernel,
    /// WAL appends, history copies and transport queueing of what the
    /// dispatch produced; collecting the poll's decisions.
    Route,
    /// The group commit's one `write` of the batch.
    Write,
    /// The group commit's `fdatasync`.
    Fsync,
    /// The transport flush.
    Flush,
    /// Surfacing decisions, client backfill, the health turn.
    Rest,
}

impl Phase {
    /// Every phase, in cell order.
    pub const ALL: [Phase; 9] = [
        Phase::Outside,
        Phase::Wait,
        Phase::Dispatch,
        Phase::Kernel,
        Phase::Route,
        Phase::Write,
        Phase::Fsync,
        Phase::Flush,
        Phase::Rest,
    ];

    /// Stable name: the `phase` label on `/metrics` and the key of E17's
    /// `phase_share`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Outside => "outside",
            Phase::Wait => "wait",
            Phase::Dispatch => "dispatch",
            Phase::Kernel => "kernel",
            Phase::Route => "route",
            Phase::Write => "write",
            Phase::Fsync => "fsync",
            Phase::Flush => "flush",
            Phase::Rest => "rest",
        }
    }
}

/// Nanoseconds per phase, indexed as [`Phase::ALL`]: the clock's cumulative
/// cells, or a difference of two readings of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos([u64; Phase::ALL.len()]);

impl PhaseNanos {
    /// One phase's cell.
    #[must_use]
    pub fn get(&self, phase: Phase) -> u64 {
        self.0[phase as usize]
    }

    /// Sum over the phases: the wall time the cells partition.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(phase, nanoseconds)` for every phase, in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().zip(self.0)
    }

    /// `(name, nanoseconds)` for every phase, in [`Phase::ALL`] order.
    #[must_use]
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        self.iter().map(|(phase, ns)| (phase.as_str(), ns)).collect()
    }

    /// What the cells grew by since the `earlier` reading of the same clock.
    #[must_use]
    pub fn since(&self, earlier: &PhaseNanos) -> PhaseNanos {
        PhaseNanos(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Cell-wise sum (several nodes' clocks into one mesh-wide split).
    pub fn add(&mut self, other: &PhaseNanos) {
        for (cell, more) in self.0.iter_mut().zip(other.0) {
            *cell += more;
        }
    }
}

/// The `/metrics` series fed from the clocks, shared by every service a
/// thread drives and resolved on that thread's first sample: building a
/// service costs the registry nothing, and a driver thread pays the twenty
/// lookups once, not once per mesh it sets up.
struct Meters {
    /// `service.decide.latency_us`.
    latency: Histogram,
    /// `service.decide.phase_us{phase}`, indexed as [`Phase::ALL`].
    decide: [Histogram; Phase::ALL.len()],
    /// `service.poll.phase_us{phase}`, indexed as [`Phase::ALL`].
    poll: [Histogram; Phase::ALL.len()],
    /// `service.frame.queue_us`.
    queue: Histogram,
}

thread_local!(static METERS: Meters = Meters::resolve());

impl Meters {
    /// One sample, in µs, per phase the split spent any time in (a mesh
    /// without a WAL never enters `write` or `fsync`: no sample, not a zero).
    fn record_split(per_phase: &[Histogram; Phase::ALL.len()], split: &PhaseNanos) {
        for (hist, (_, ns)) in per_phase.iter().zip(split.iter()) {
            if ns > 0 {
                hist.record(ns / 1_000);
            }
        }
    }

    fn resolve() -> Meters {
        let reg = Registry::global();
        let per_phase = |name: &str| {
            Phase::ALL.map(|phase| reg.histogram_with(name, &[("phase", phase.as_str())]))
        };
        Meters {
            latency: reg.histogram("service.decide.latency_us"),
            decide: per_phase("service.decide.phase_us"),
            poll: per_phase("service.poll.phase_us"),
            queue: reg.histogram("service.frame.queue_us"),
        }
    }
}

/// How long the oldest frame of a poll's batch sat between its arrival at
/// the transport and the dispatch (`service.frame.queue_us`).
pub(super) fn record_queue(queue_us: u64) {
    METERS.with(|meters| meters.queue.record(queue_us));
}

/// One decision's latency and its split (`service.decide.*`).
pub(super) fn record_decision(latency_us: u64, phases: &PhaseNanos) {
    METERS.with(|meters| {
        meters.latency.record(latency_us);
        Meters::record_split(&meters.decide, phases);
    });
}

pub(super) struct PhaseClock {
    cells: PhaseNanos,
    /// The phase the service is in, entered at `mark`.
    phase: Phase,
    mark: Instant,
    /// This thread's kernel total at `mark`.
    kernel_mark: u64,
    /// The cells as the previous poll left them.
    poll_mark: PhaseNanos,
}

impl PhaseClock {
    /// A clock at zero, in [`Phase::Outside`].
    pub(super) fn new() -> Self {
        PhaseClock {
            cells: PhaseNanos::default(),
            phase: Phase::Outside,
            mark: Instant::now(),
            kernel_mark: rbvc_obs::thread_kernel_nanos(),
            poll_mark: PhaseNanos::default(),
        }
    }

    /// A boundary: charge the time since the previous one to the phase being
    /// left and continue in `next`. Returns the boundary's instant.
    pub(super) fn enter(&mut self, next: Phase) -> Instant {
        let now = Instant::now();
        let kernel_total = rbvc_obs::thread_kernel_nanos();
        let span = u64::try_from((now - self.mark).as_nanos()).unwrap_or(u64::MAX);
        // Kernel spans lie inside the dispatch span that contains them; a
        // total that grew in any other phase is another service's work on a
        // shared thread.
        let kernel = match self.phase {
            Phase::Dispatch => kernel_total.saturating_sub(self.kernel_mark).min(span),
            _ => 0,
        };
        self.cells.0[self.phase as usize] += span - kernel;
        self.cells.0[Phase::Kernel as usize] += kernel;
        (self.phase, self.mark, self.kernel_mark) = (next, now, kernel_total);
        now
    }

    /// A boundary that stays in the current phase: the instant and the
    /// cells as of it, which is what a launch keeps and a decision is
    /// measured against.
    pub(super) fn now(&mut self) -> (Instant, PhaseNanos) {
        let now = self.enter(self.phase);
        (now, self.cells)
    }

    /// The cells as of the last boundary.
    pub(super) fn cells(&self) -> PhaseNanos {
        self.cells
    }

    /// Close a poll: `busy` polls (frames in or out, a decision) record
    /// their split, the `outside` span before them included, to
    /// `service.poll.phase_us`; idle ones only move the mark, so the
    /// histograms describe polls that did something.
    pub(super) fn end_poll(&mut self, busy: bool) {
        let cells = self.cells;
        if busy {
            let split = cells.since(&self.poll_mark);
            METERS.with(|meters| Meters::record_split(&meters.poll, &split));
        }
        self.poll_mark = cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells partition the time between the first and the last boundary
    /// exactly, whatever the order of phases, and kernel time is carved out
    /// of dispatch only.
    #[test]
    fn cells_partition_the_time_between_boundaries() {
        use rbvc_obs::{thread_kernel_nanos, time_kernel, Kernel};
        assert!(Phase::ALL.iter().enumerate().all(|(i, &phase)| phase as usize == i));
        let nap = || std::thread::sleep(std::time::Duration::from_micros(200));
        let mut clock = PhaseClock::new();
        let (t0, at_start) = clock.now();
        clock.enter(Phase::Wait);
        time_kernel(Kernel::GammaOracle, nap); // another service's: stays in `wait`
        clock.enter(Phase::Dispatch);
        let kernel_before = thread_kernel_nanos();
        nap();
        time_kernel(Kernel::GammaOracle, nap);
        let kernel = thread_kernel_nanos() - kernel_before;
        clock.enter(Phase::Fsync);
        nap();
        let (t1, at_end) = clock.now();
        let split = at_end.since(&at_start);
        assert_eq!(u128::from(split.total()), (t1 - t0).as_nanos(), "exact, not approximate");
        assert_eq!(split.get(Phase::Kernel), kernel, "the span inside dispatch, nothing else");
        for phase in [Phase::Wait, Phase::Dispatch, Phase::Kernel, Phase::Fsync] {
            assert!(split.get(phase) >= 200_000, "{}: {split:?}", phase.as_str());
        }
        assert_eq!(split.get(Phase::Route) + split.get(Phase::Rest), 0, "never entered");
        assert_eq!(clock.cells(), at_end);
    }
}

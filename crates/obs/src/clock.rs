//! Process-wide monotonic trace clock.
//!
//! Every span and event timestamp in a trace is microseconds since one
//! process-wide monotonic epoch, captured lazily on first use. Monotonic
//! means a reader never sees time going backwards within a node; the
//! wall-clock instant of the epoch is captured once alongside it (and
//! written into the trace header by [`crate::JsonlRecorder`]), so absolute
//! times can be reconstructed offline without ever stamping events from
//! the — adjustable, non-monotonic — system clock.
//!
//! All threads of a process share this epoch: reader threads stamping
//! frame arrivals and service threads stamping dispatches produce one
//! coherent per-process timeline. Nothing aligns the clocks of two
//! processes: whatever crosses a link is measured from outside
//! (`tcp.one_hop_us`), not reconstructed from stamps.

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The epoch: a monotonic anchor plus the wall-clock microseconds (since
/// the Unix epoch) at which it was captured.
fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Microseconds since the process-wide monotonic epoch. Monotone
/// non-decreasing across all threads.
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(epoch().0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Wall-clock microseconds since the Unix epoch at the moment the
/// monotonic epoch was captured: `wall_epoch_unix_us() + now_us()`
/// approximates the current wall time, and a trace header carrying this
/// value anchors the whole trace on the calendar.
#[must_use]
pub fn wall_epoch_unix_us() -> u64 {
    epoch().1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotone_and_epoch_is_stable() {
        let w1 = wall_epoch_unix_us();
        let a = now_us();
        let b = now_us();
        assert!(b >= a, "monotonic clock must not run backwards");
        assert_eq!(wall_epoch_unix_us(), w1, "epoch is captured once");
        // The epoch was captured after 2020 (sanity on the wall anchor).
        assert!(w1 > 1_577_836_800_000_000, "wall epoch looks pre-2020: {w1}");
    }

    #[test]
    fn threads_share_one_timeline() {
        let t0 = now_us();
        let from_thread = std::thread::spawn(now_us).join().expect("thread");
        assert!(from_thread >= t0, "spawned thread sees the same epoch");
    }
}

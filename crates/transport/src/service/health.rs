//! The self-diagnosis part of the service: the stall detector, the flight
//! recorder, and the rate-limited `/status` publisher.
//!
//! The core feeds [`Health::tick`] once per poll with what it can see —
//! per-instance progress, the transport's link health, the poll's fsync
//! time — and builds the `/status` snapshot when the tick says one is due;
//! everything else about a stall (events, escalation, the dump) is decided
//! here.

use std::path::PathBuf;
use std::sync::Arc;

use rbvc_obs::{
    Event, EventKind, FlightRecorder, InstanceProgress, LinkHealth, Obs, Recorder, Registry,
    StallConfig, StallDetector, StallEvent, StatusBoard, StatusSnapshot, TeeRecorder,
};

/// Configuration for the service's `enable_health`.
#[derive(Clone, Default)]
pub struct HealthConfig {
    /// Stall deadlines (detection + escalation-to-dump).
    pub stall: StallConfig,
    /// Where flight-recorder dumps land; `None` runs the detector without
    /// a flight recorder.
    pub flight_dir: Option<PathBuf>,
    /// Status board the node publishes its `/status` snapshot to; `None`
    /// skips publishing.
    pub status: Option<StatusBoard>,
}

/// Interval between [`StatusBoard`] publishes: `/status` is a human/CI
/// endpoint, re-rendering the snapshot every poll would be pure overhead.
const STATUS_PUBLISH_INTERVAL_US: u64 = 20_000;

/// Flight-recorder ring capacity (events).
const FLIGHT_CAPACITY: usize = 4096;

pub(super) struct Health {
    detector: StallDetector,
    flight: Option<Arc<FlightRecorder>>,
    board: Option<StatusBoard>,
    /// Last status publish (µs, shared monotonic clock) — rate limiter.
    last_publish_us: u64,
}

impl Health {
    /// Arm health for `node`. With a flight directory configured, the second
    /// value is the event sink the service must switch to: `obs` teed into
    /// the always-on flight recorder (which also dumps on a panic).
    pub(super) fn new(node: u32, cfg: HealthConfig, obs: &Obs) -> (Health, Option<Obs>) {
        let detector = StallDetector::new(node, cfg.stall, Registry::global().clone());
        let flight = cfg.flight_dir.map(|dir| {
            Arc::new(FlightRecorder::new(node, dir, FLIGHT_CAPACITY, Registry::global().clone()))
        });
        let teed = flight.as_ref().map(|f| {
            rbvc_obs::arm_panic_hook(f);
            let sinks: Vec<Arc<dyn Recorder>> = vec![obs.recorder().clone(), f.clone()];
            Obs::new(Arc::new(TeeRecorder::new(sinks)))
        });
        (Health { detector, flight, board: cfg.status, last_publish_us: 0 }, teed)
    }

    /// The detector, for the read-only stall accessors and `/status`.
    pub(super) fn detector(&self) -> &StallDetector {
        &self.detector
    }

    /// One health turn: feed the detector, surface its stall events into
    /// the trace, and dump the flight ring on escalation. Returns whether a
    /// `/status` snapshot is due for [`Self::publish`].
    pub(super) fn tick(
        &mut self,
        obs: &Obs,
        now_us: u64,
        fsync_us: u64,
        progress: &[InstanceProgress],
        links: &[LinkHealth],
    ) -> bool {
        self.detector.note_fsync(now_us, fsync_us);
        for ev in self.detector.observe(now_us, progress, links) {
            let (kind, report, escalated) = match &ev {
                StallEvent::Detected(r) => (EventKind::StallDetected, r, false),
                StallEvent::Escalated(r) => (EventKind::StallDetected, r, true),
                StallEvent::Cleared(r) => (EventKind::StallCleared, r, false),
            };
            obs.emit(|| {
                Event::new(kind)
                    .instance(report.instance)
                    .round(report.round)
                    .detail(report.detail(escalated))
            });
            // After the event, so the dump contains it.
            if escalated {
                if let Some(f) = &self.flight {
                    f.dump("stall");
                }
            }
        }
        let due = self.board.is_some()
            && (self.last_publish_us == 0
                || now_us.saturating_sub(self.last_publish_us) >= STATUS_PUBLISH_INTERVAL_US);
        if due {
            self.last_publish_us = now_us;
        }
        due
    }

    /// Put `snapshot` on the status board.
    pub(super) fn publish(&self, snapshot: &StatusSnapshot) {
        if let Some(board) = &self.board {
            board.publish(snapshot.node, snapshot.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol, VecD};
    use rbvc_obs::FlightDump;
    use rbvc_store::Wal;

    use super::*;
    use crate::service::{ConsensusService, InstanceProto};
    use crate::transport::in_proc_mesh;

    /// Run fifty decisions on a 4-node mesh, node 0 with a flight recorder
    /// (and every node with a WAL when `durable`), and return the instances
    /// whose `decide` the ring still holds plus its eviction count.
    fn decides_in_the_flight_ring(durable: bool) -> (Vec<u64>, Option<u64>) {
        let (n, decisions) = (4usize, 50u64);
        let dir = std::env::temp_dir().join(format!("rbvc-flight-ring-{durable}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        for (i, svc) in services.iter_mut().enumerate() {
            if durable {
                svc.attach_wal(Wal::open(dir.join(format!("node{i}.wal"))).expect("open").0);
            }
            svc.enable_health(HealthConfig {
                flight_dir: (i == 0).then(|| dir.join("flight")),
                ..HealthConfig::default()
            });
            for k in 1..=decisions {
                let input = VecD::from_slice(&[i as f64 + k as f64, 1.0]);
                let mode = DeltaMode::MinDelta(Norm::L2);
                let va = VerifiedAveraging::new(i, n, 0, input, mode, 3, Tol::default());
                svc.add_instance(k, InstanceProto::Va(va)).unwrap();
            }
            svc.start_deferred();
        }
        // One instance at a time, so the first `decide` is the oldest
        // thing the ring is asked to keep.
        for k in 1..=decisions {
            for svc in &mut services {
                svc.launch(k).unwrap();
            }
            let mut spins = 0;
            while services.iter().any(|s| s.decision(k).is_none()) {
                for svc in &mut services {
                    let _ = svc.poll(Duration::ZERO);
                }
                spins += 1;
                assert!(spins < 10_000, "instance {k} failed to decide");
            }
        }
        let flight = services[0].health.as_ref().and_then(|h| h.flight.as_ref()).expect("armed");
        let dump = flight.dump("test").expect("dump written");
        let ring = FlightDump::parse(&std::fs::read_to_string(dump).unwrap()).expect("parses");
        assert_eq!(ring.unknown_records, 0, "every record shape is known");
        let decides = ring
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Decide && e.detail.as_deref().is_some_and(|d| d.starts_with("latency_us=")))
            .filter_map(|e| e.instance)
            .collect();
        drop(services);
        let _ = std::fs::remove_dir_all(&dir);
        (decides, ring.ring_dropped)
    }

    /// The black box keeps what matters: with no per-frame span in the event
    /// stream, fifty decisions' worth of events fit the ring, the first
    /// decision's `decide` included.
    #[test]
    fn the_flight_ring_still_holds_the_first_decide_after_fifty_decisions() {
        let (decides, dropped) = decides_in_the_flight_ring(false);
        assert_eq!(dropped, Some(0), "nothing was evicted");
        assert_eq!(decides, (1..=50).collect::<Vec<_>>(), "every decide, the first included");
    }

    /// A durable node's ring holds decisions too: WAL appends are counted on
    /// `/metrics` (`wal.append.records`), not recorded one event each.
    #[test]
    fn the_flight_ring_still_holds_the_first_decide_with_a_wal_attached() {
        let (decides, dropped) = decides_in_the_flight_ring(true);
        assert_eq!(dropped, Some(0), "nothing was evicted");
        assert_eq!(decides, (1..=50).collect::<Vec<_>>(), "every decide, the first included");
    }
}

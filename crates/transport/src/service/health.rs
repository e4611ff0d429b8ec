//! The self-diagnosis part of the service: the stall detector and the
//! flight recorder.
//!
//! The driver feeds [`Health::tick`] once per poll with what it can see —
//! per-instance progress, the transport's link health, the phase clock's
//! cumulative commit time; everything else about a stall (events, escalation, the dump) is
//! decided here, and what it finds is on `/metrics` (`health.stall.*`).

use std::path::PathBuf;
use std::sync::Arc;

use rbvc_obs::{
    Event, EventKind, FlightRecorder, InstanceProgress, LinkHealth, Obs, Registry, StallConfig,
    StallDetector, StallEvent,
};

/// Configuration for the service's `enable_health`.
#[derive(Clone, Default)]
pub struct HealthConfig {
    /// Stall deadlines (detection + escalation-to-dump).
    pub stall: StallConfig,
    /// Where flight-recorder dumps land; `None` runs the detector without
    /// a flight recorder.
    pub flight_dir: Option<PathBuf>,
}

/// Flight-recorder ring capacity (events).
const FLIGHT_CAPACITY: usize = 4096;

pub(super) struct Health {
    /// Read by the driver's stall accessors.
    pub(super) detector: StallDetector,
}

impl Health {
    /// Arm health for `node`, and the event handle the service emits
    /// through from here on: over the always-on flight recorder (which also
    /// dumps on a panic) when a flight directory is configured, a no-op
    /// otherwise.
    pub(super) fn new(node: u32, cfg: HealthConfig) -> (Health, Obs) {
        let detector = StallDetector::new(node, cfg.stall, Registry::global().clone());
        let obs = match cfg.flight_dir {
            Some(dir) => {
                let flight =
                    Arc::new(FlightRecorder::new(node, dir, FLIGHT_CAPACITY, Registry::global().clone()));
                rbvc_obs::arm_panic_hook(&flight);
                Obs::new(flight).with_node(node)
            }
            None => Obs::default(),
        };
        (Health { detector }, obs)
    }

    /// One health turn: feed the detector, surface its stall events into
    /// the trace, and dump the flight ring on escalation. `commit_us` is the
    /// node's cumulative `write` + `fsync` time in µs.
    pub(super) fn tick(
        &mut self,
        obs: &Obs,
        now_us: u64,
        commit_us: u64,
        progress: &[InstanceProgress],
        links: &[LinkHealth],
    ) {
        for ev in self.detector.observe(now_us, commit_us, progress, links) {
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
            if let (true, Some(f)) = (escalated, obs.flight()) {
                f.dump("stall");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol, VecD};
    use rbvc_obs::{prometheus_text, FlightDump};
    use rbvc_store::Wal;

    use super::*;
    use crate::service::tests::{bvc_instance, tmp_dir, va_instance};
    use crate::service::{ConsensusService, InstanceProto};
    use crate::transport::in_proc_mesh;

    /// The black box keeps what matters: with no per-frame span in the event
    /// stream, and WAL appends counted on `/metrics` (`wal.append.records`)
    /// rather than recorded one event each, fifty decisions' worth of a
    /// durable node's events fit the ring, the first decision's `decide`
    /// included — and each decision is one `decide`, the service's, with
    /// its latency.
    #[test]
    fn the_flight_ring_still_holds_the_first_decide_after_fifty_decisions() {
        let (n, decisions) = (4usize, 50u64);
        let dir = tmp_dir("flight-ring");
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.attach_wal(Wal::open(dir.join(format!("node{i}.wal"))).expect("open").0);
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
        let flight = services[0].node.obs.flight().expect("armed");
        let dump = flight.dump("test").expect("dump written");
        let ring = FlightDump::parse(&std::fs::read_to_string(dump).unwrap()).expect("parses");
        assert_eq!(ring.unknown_records, 0, "every record shape is known");
        let decides: Vec<_> = ring.events.iter().filter(|e| e.kind == EventKind::Decide).collect();
        assert!(
            decides.iter().all(|e| e.detail.as_deref().is_some_and(|d| d.starts_with("latency_us="))),
            "one decide per decision: the service's, with its latency"
        );
        let instances: Vec<u64> = decides.iter().filter_map(|e| e.instance).collect();
        assert_eq!(ring.ring_dropped, Some(0), "nothing was evicted");
        assert_eq!(instances, (1..=decisions).collect::<Vec<_>>(), "every decide, the first included");
        drop(services);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mute node stalls its peers' round-0 barrier: the health subsystem
    /// must detect the stall before long, blame exactly the mute sender,
    /// clear the stall when the sender wakes up, and show both on
    /// `/metrics` while they happen.
    #[test]
    fn live_stall_is_detected_blamed_cleared_and_visible_on_metrics() {
        let n = 3;
        // One sample of the global `/metrics` page. Other tests share the
        // registry, so the blame counter is read as a delta.
        let sample = |series: &str| -> Option<u64> {
            prometheus_text(Registry::global())
                .lines()
                .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        };
        let (active, blame) =
            ("health_stall_active{node=\"0\"}", "health_stall_blame{node=\"0\",peer=\"2\"}");
        let blamed_before = sample(blame).unwrap_or(0);
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(7, bvc_instance(i, n, 0, &[i as f64])).unwrap();
            svc.enable_health(HealthConfig {
                stall: StallConfig { deadline_us: 15_000, dump_deadline_us: 10_000_000 },
                ..HealthConfig::default()
            });
        }
        // Nodes 0 and 1 start and poll; node 2 stays mute (registered but
        // never started), so their barrier waits on sender 2 forever.
        services[0].start().unwrap();
        services[1].start().unwrap();
        for _ in 0..40 {
            for svc in &mut services[..2] {
                let _ = svc.poll(Duration::from_millis(1));
            }
            if services[0].stalls_raised() > 0 && services[1].stalls_raised() > 0 {
                break;
            }
        }
        for svc in &services[..2] {
            assert_eq!(svc.node.progress_rows(&[]).len(), 1, "the open instance is the one row");
            let active = svc.active_stalls();
            assert_eq!(active.len(), 1, "one stalled instance expected");
            assert_eq!(active[0].instance, 7);
            assert_eq!(active[0].waiting_on, vec![2], "blame must name the mute sender");
        }
        assert_eq!(sample(active), Some(1), "/metrics must show the stall");
        assert!(sample(blame) > Some(blamed_before), "/metrics must blame the mute sender");
        // Wake the mute node: the barrier fills, everyone decides, and the
        // stall clears without lingering as active.
        services[2].start().unwrap();
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::from_millis(1));
            }
            spins += 1;
            assert!(spins < 3000, "mesh failed to decide after the stall cleared");
        }
        for svc in &services[..2] {
            assert!(svc.node.progress_rows(&[]).is_empty(), "a decided instance costs no row");
            assert!(svc.active_stalls().is_empty(), "stall must clear once decided");
            let reports = svc.health_reports();
            assert!(reports.iter().any(|r| r.cleared_at_us.is_some()));
        }
        assert_eq!(sample(active), Some(0), "the cleared stall leaves /metrics");
    }

    /// A clean fully-polled mesh must never raise a stall (zero false
    /// positives at the default deadlines).
    #[test]
    fn clean_run_raises_no_stalls() {
        let n = 4;
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(3, bvc_instance(i, n, 1, &[i as f64, 1.0])).unwrap();
            svc.add_instance(4, va_instance(i, n, &[i as f64, 1.0])).unwrap();
            svc.enable_health(HealthConfig::default());
            svc.start().unwrap();
            assert_eq!(svc.node.progress_rows(&[]).len(), 2);
        }
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                // The detector is handed the open instances and the ones
                // this poll decided — never those decided before it.
                let open = svc.node.undecided;
                let decided_now = svc.poll(Duration::from_millis(1));
                assert_eq!(svc.node.progress_rows(&decided_now).len(), open);
                assert_eq!(svc.node.progress_rows(&[]).len(), svc.node.undecided);
            }
            spins += 1;
            assert!(spins < 3000, "clean mesh failed to decide");
        }
        for svc in &services {
            assert_eq!(svc.stalls_raised(), 0, "clean run must not raise stalls");
        }
    }
}

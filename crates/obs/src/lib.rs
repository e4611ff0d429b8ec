//! `rbvc-obs` — the observability layer of the relaxed-BVC workspace.
//!
//! Three independent facilities, all designed so that the protocol engines
//! stay allocation-free when observation is off:
//!
//! * **Structured events** ([`Event`], [`EventKind`]) emitted through a
//!   cheap [`Recorder`] behind an [`Obs`] handle. The no-op recorder costs
//!   one relaxed atomic-free boolean check per emission site and never
//!   constructs the event (emission takes a closure). Recorders: no-op,
//!   in-memory ring buffer ([`RingRecorder`]), fan-out ([`TeeRecorder`]),
//!   and the always-on [`FlightRecorder`] below — the one file sink.
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   lock-free handles over atomics, log2-bucket histograms with exact
//!   merge, and the [`ExecutionTrace`] counters the `rbvc-sim` engines and
//!   `rbvc_core::runner` report.
//! * **Kernel timing** ([`Kernel`], [`time_kernel`]) — process-wide
//!   monotonic spans around the hot geometry kernels (simplex LP, Wolfe
//!   nearest point, Γ and Ψ oracles), off by default; the per-thread total
//!   of outermost spans ([`thread_kernel_nanos`]) is always on and is the
//!   `kernel` cell of the service's phase clock (DESIGN.md §11).
//!
//! On top of those: [`clock`] pins every timestamp to one process-wide
//! monotonic epoch (wall-anchored once, in each dump's header), and
//! [`serve`] exposes any [`Registry`] as a live Prometheus-text `/metrics`
//! endpoint ([`MetricsServer`]).
//!
//! [`health`] is the self-diagnosis layer: a per-instance stall detector
//! with phase + peer blame ([`StallDetector`], [`StallReport`]), a
//! per-link straggler monitor ([`LinkMonitor`], [`LinkHealth`]), the
//! [`StatusBoard`] behind the live `/status` endpoint, and the always-on
//! [`FlightRecorder`] black box (teed next to any primary sink via
//! [`TeeRecorder`]) with its reader, [`FlightDump`].

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod health;
pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod timing;

pub use event::{detail_field, Event, EventKind};
pub use health::{
    arm_panic_hook, progress_token, render_shares, ClientStatus, FlightDump, FlightRecorder,
    InstanceProgress, LinkAuthState, LinkHealth, LinkMonitor, StallConfig, StallDetector,
    StallEvent, StallPhase, StallReport, StatusBoard, StatusSnapshot, WalStatus,
};
pub use metrics::{
    Counter, ExecutionTrace, Gauge, HistSnapshot, Histogram, MetricValue, Registry,
};
pub use recorder::{NoopRecorder, Obs, Recorder, RingRecorder, TeeRecorder};
pub use serve::{prometheus_text, scrape_once, scrape_path, MetricsServer};
pub use timing::{
    kernel_snapshot, kernel_timing_enabled, reset_kernel_timers, set_kernel_timing,
    take_thread_kernel_nanos, thread_kernel_nanos, time_kernel, Kernel, KernelStat,
};

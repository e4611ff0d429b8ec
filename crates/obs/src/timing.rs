//! Monotonic timing spans around the hot geometry kernels.
//!
//! The kernels (simplex LP, Wolfe nearest-point, the Γ and Ψ oracles) are
//! pure functions called from deep inside protocol state machines, so
//! threading a registry through them would pollute every signature.
//! Instead, this module keeps one process-wide set of atomic
//! (calls, nanoseconds) cells, gated by a single `AtomicBool` that
//! defaults to off: an untimed *nested* call costs one relaxed load and one
//! thread-local read.
//!
//! Recorded spans are *inclusive* — a Ψ oracle that calls the LP solver
//! internally is charged for the LP time too, and the LP cell is charged
//! in parallel. The per-kernel rows therefore do not sum to wall time;
//! they answer "how much wall time has this kernel on its stack".
//!
//! Alongside the process-wide cells there is one *thread-local* wall-time
//! accumulator that is always on: it charges only outermost kernel spans
//! (no nesting double-count, and two clock reads per `delta_star` /
//! `gamma_point` call rather than per Wolfe iteration), so the difference
//! of two [`thread_kernel_nanos`] reads is exactly "how long this thread
//! was inside kernel code in between" — the `kernel` cell of the service's
//! phase clock.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::Value;

/// The instrumented kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// Dense two-phase simplex solves (`LpProblem::solve`).
    LpSolve,
    /// Wolfe nearest-point-in-hull iterations.
    WolfeNearest,
    /// Γ oracle: safe-point / Γ-membership computations.
    GammaOracle,
    /// Ψ oracle: the δ* min-max optimization.
    PsiOracle,
}

impl Kernel {
    /// Every kernel, in report order.
    pub const ALL: [Kernel; 4] = [
        Kernel::LpSolve,
        Kernel::WolfeNearest,
        Kernel::GammaOracle,
        Kernel::PsiOracle,
    ];

    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::LpSolve => "lp_solve",
            Kernel::WolfeNearest => "wolfe_nearest",
            Kernel::GammaOracle => "gamma_oracle",
            Kernel::PsiOracle => "psi_oracle",
        }
    }

    /// Inverse of [`Kernel::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL.iter().copied().find(|k| k.as_str() == s)
    }

    fn index(self) -> usize {
        match self {
            Kernel::LpSolve => 0,
            Kernel::WolfeNearest => 1,
            Kernel::GammaOracle => 2,
            Kernel::PsiOracle => 3,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static NANOS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Turn kernel timing on or off process-wide.
pub fn set_kernel_timing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel spans are currently being recorded.
#[must_use]
pub fn kernel_timing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every kernel cell (timing stays in its current on/off state).
pub fn reset_kernel_timers() {
    for i in 0..4 {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

thread_local! {
    /// Outermost-span nanoseconds on this thread since it started.
    static TL_NANOS: Cell<u64> = const { Cell::new(0) };
    /// [`TL_NANOS`] as the last [`take_thread_kernel_nanos`] left it.
    static TL_TAKEN: Cell<u64> = const { Cell::new(0) };
    /// Current kernel-span nesting depth on this thread.
    static TL_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Run `f`, charging its wall time to `kernel`'s process-wide cell when
/// timing is on and — for an outermost span, timing on or off — to this
/// thread's wall accumulator.
pub fn time_kernel<T>(kernel: Kernel, f: impl FnOnce() -> T) -> T {
    let enabled = ENABLED.load(Ordering::Relaxed);
    let depth = TL_DEPTH.get();
    if !enabled && depth > 0 {
        return f();
    }
    TL_DEPTH.set(depth + 1);
    let start = Instant::now();
    let result = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    TL_DEPTH.set(depth);
    if enabled {
        let i = kernel.index();
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        NANOS[i].fetch_add(nanos, Ordering::Relaxed);
    }
    if depth == 0 {
        // Only outermost spans feed the thread-local wall accumulator:
        // nested oracle→LP time is already inside the outer span.
        TL_NANOS.set(TL_NANOS.get().saturating_add(nanos));
    }
    result
}

/// Nanoseconds the calling thread has spent in outermost kernel spans since
/// it started. Monotone and never reset, so any two reads bracket a region:
/// unlike the process-wide cells this never mixes threads, which is what
/// lets a single-threaded service poll loop carve kernel time out of its
/// own dispatch span even when many node threads share the process.
#[must_use]
pub fn thread_kernel_nanos() -> u64 {
    TL_NANOS.get()
}

/// [`thread_kernel_nanos`] since the previous call of this function on the
/// calling thread (or thread start).
#[must_use]
pub fn take_thread_kernel_nanos() -> u64 {
    let total = TL_NANOS.get();
    total - TL_TAKEN.replace(total)
}

/// One kernel's accumulated cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStat {
    /// Which kernel.
    pub kernel: Kernel,
    /// Timed invocations.
    pub calls: u64,
    /// Total inclusive nanoseconds.
    pub nanos: u64,
}

impl KernelStat {
    /// Mean microseconds per call (NaN when never called).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.nanos as f64 / self.calls as f64 / 1e3
        }
    }

    /// Render as one JSONL record line: `{"t":"kernel",...}`.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let doc = Value::Object(vec![
            ("t".into(), Value::Str("kernel".into())),
            ("name".into(), Value::Str(self.kernel.as_str().into())),
            ("calls".into(), Value::UInt(self.calls)),
            ("nanos".into(), Value::UInt(self.nanos)),
        ]);
        let mut out = String::new();
        doc.render(&mut out);
        out
    }

    /// Parse a `{"t":"kernel",...}` record; `None` for other lines.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<KernelStat> {
        if v.get("t")?.as_str()? != "kernel" {
            return None;
        }
        Some(KernelStat {
            kernel: Kernel::parse(v.get("name")?.as_str()?)?,
            calls: v.get("calls")?.as_u64()?,
            nanos: v.get("nanos")?.as_u64()?,
        })
    }
}

/// Read every kernel's cells, in [`Kernel::ALL`] order.
#[must_use]
pub fn kernel_snapshot() -> Vec<KernelStat> {
    Kernel::ALL
        .iter()
        .map(|&kernel| {
            let i = kernel.index();
            KernelStat {
                kernel,
                calls: CALLS[i].load(Ordering::Relaxed),
                nanos: NANOS[i].load(Ordering::Relaxed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cells are process-wide, so this single test exercises the whole
    // on/off/reset lifecycle to stay self-contained under parallel test
    // threads (other tests in this crate never enable timing).
    #[test]
    fn spans_accumulate_only_while_enabled() {
        reset_kernel_timers();
        let r = time_kernel(Kernel::LpSolve, || 7);
        assert_eq!(r, 7);
        assert_eq!(kernel_snapshot()[0].calls, 0, "off by default");

        // Off, the thread accumulator still runs — fed once per nest, by
        // the outermost span — and nothing reaches the process-wide cells.
        // On its own thread, so the accumulator starts at zero.
        std::thread::spawn(|| {
            time_kernel(Kernel::GammaOracle, || {
                std::thread::sleep(std::time::Duration::from_micros(300));
                let inside = thread_kernel_nanos();
                time_kernel(Kernel::LpSolve, || {
                    std::thread::sleep(std::time::Duration::from_micros(300));
                });
                assert_eq!(thread_kernel_nanos(), inside, "a nested span adds nothing of its own");
            });
            let once = thread_kernel_nanos();
            assert!((600_000..60_000_000).contains(&once), "one span over both sleeps: {once}");
        })
        .join()
        .expect("no panic");
        assert!(kernel_snapshot().iter().all(|s| s.calls == 0 && s.nanos == 0), "timing is off");

        set_kernel_timing(true);
        time_kernel(Kernel::LpSolve, || std::thread::sleep(std::time::Duration::from_micros(50)));
        time_kernel(Kernel::PsiOracle, || ());
        set_kernel_timing(false);

        let snap = kernel_snapshot();
        let lp = snap.iter().find(|s| s.kernel == Kernel::LpSolve).unwrap();
        let psi = snap.iter().find(|s| s.kernel == Kernel::PsiOracle).unwrap();
        assert_eq!(lp.calls, 1);
        assert!(lp.nanos >= 50_000, "span covers the sleep");
        assert_eq!(psi.calls, 1);
        assert!(lp.mean_us() >= 50.0);

        let line = lp.to_json_line();
        let v = serde_json::from_str(&line).expect("parses");
        assert_eq!(KernelStat::from_value(&v), Some(*lp));

        // Thread-local accumulator: outermost spans only, per thread, fed
        // once per nest. Runs on its own thread so this test's earlier
        // spans don't pollute the accumulator.
        set_kernel_timing(true);
        std::thread::spawn(|| {
            assert_eq!(thread_kernel_nanos(), 0, "a fresh thread starts at zero");
            time_kernel(Kernel::PsiOracle, || {
                time_kernel(Kernel::LpSolve, || {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                })
            });
            let total = thread_kernel_nanos();
            assert!(total >= 200_000, "outer span covers the sleep: {total}");
            // Generous upper bound: a double-counted nest would at least
            // double the sleep; scheduling jitter stays well below 100x.
            assert!(total < 2 * 200_000 * 100, "nested span must not double-count: {total}");
            assert_eq!(take_thread_kernel_nanos(), total, "the first take sees everything");
            assert_eq!(take_thread_kernel_nanos(), 0, "a take marks what it returned");
            assert_eq!(thread_kernel_nanos(), total, "and leaves the running total alone");
        })
        .join()
        .expect("no panic");
        set_kernel_timing(false);

        reset_kernel_timers();
        assert!(kernel_snapshot().iter().all(|s| s.calls == 0 && s.nanos == 0));
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.as_str()), Some(k));
        }
        assert_eq!(Kernel::parse("bogus"), None);
    }
}

//! The four workloads. Names are fixed: later issues cite them.
//!
//! Each stresses a different layer and bypasses the others, so that an
//! optimisation has one workload that exercises its mechanism and at least
//! one on which the prediction is "no change" (see README.md).

use std::time::Duration;

use crate::client::ClientPlan;
use crate::mesh::{Inputs, MeshPlan, Mix};

/// What a workload runs: a static in-process mesh, or clients over TCP.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// The three in-process workloads.
    Mesh(MeshPlan),
    /// `client-open`.
    Client(ClientPlan),
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Message handling dominates; geometry kernels are bypassed.
    VaMesh,
    /// The paper's regime: the general δ* solver dominates.
    BvcRelaxed,
    /// `rbvc-store` dominates: fsync-bound, ends in a cold restart.
    DurableMesh,
    /// The user-visible path: clients over authenticated loopback TCP.
    ClientOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::VaMesh,
        Workload::BvcRelaxed,
        Workload::DurableMesh,
        Workload::ClientOpen,
    ];

    /// The fixed name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::VaMesh => "va-mesh",
            Workload::BvcRelaxed => "bvc-relaxed",
            Workload::DurableMesh => "durable-mesh",
            Workload::ClientOpen => "client-open",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Repetitions when no `--seconds` budget is given.
    #[must_use]
    pub fn default_reps(self) -> usize {
        match self {
            Workload::VaMesh => 30,
            Workload::BvcRelaxed => 4,
            Workload::DurableMesh => 60,
            Workload::ClientOpen => 10,
        }
    }

    /// What the workload runs. `smoke` runs quarter-size repetitions.
    #[must_use]
    pub fn plan(self, smoke: bool) -> Plan {
        let shrink = |x: usize| if smoke { x.div_ceil(4) } else { x };
        let deadline = Duration::from_secs(60);
        match self {
            Workload::VaMesh => Plan::Mesh(MeshPlan {
                n: 4,
                f: 1,
                d: 3,
                mix: Mix::AllVa,
                inputs: Inputs::PerSeed,
                // Three rounds leave 0.79 of disagreement on this input box;
                // six bring it to ~0.03, inside the 0.1 the check demands.
                va_rounds: 6,
                instances: shrink(400),
                window: 16,
                durable: false,
                deadline,
            }),
            Workload::BvcRelaxed => Plan::Mesh(MeshPlan {
                // 3f+1 <= n < (d+1)f+1: Γ(S) is empty and δ* > 0, so the
                // general δ* solver runs. f = 1 or d = 2 would hit
                // closed-form/LP fast paths costing microseconds.
                n: 7,
                f: 2,
                d: 3,
                mix: Mix::AllBvc,
                inputs: Inputs::FixedPool,
                va_rounds: 1,
                // Eight, not more: a repetition is ~2.5 s of solver time, and
                // the floor needs every poll seen undisturbed at least once.
                instances: shrink(8),
                window: 4,
                durable: false,
                deadline,
            }),
            Workload::DurableMesh => Plan::Mesh(MeshPlan {
                n: 4,
                f: 1,
                d: 3,
                mix: Mix::EveryThirdBvc,
                inputs: Inputs::PerSeed,
                va_rounds: 6,
                // Fifty, not more: what a poll costs on ext4 follows the
                // device's mood, and the floor needs every poll seen often
                // (~46 repetitions a run: spread 2.2 % over eight runs where
                // 23 repetitions of 100, interleaved with them, spread 9.1 %).
                instances: shrink(50),
                window: 16,
                durable: true,
                deadline,
            }),
            Workload::ClientOpen => Plan::Client(ClientPlan::standard(smoke)),
        }
    }
}

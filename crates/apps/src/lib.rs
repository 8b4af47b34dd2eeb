//! # pidcomm-apps — benchmark applications on the PID-Comm framework
//!
//! The paper's five benchmark applications (§VII), each implemented on the
//! simulated PIM system with real data flowing through the collective
//! library, validated bit-exactly against plain CPU reference
//! implementations, and profiled with the paper's per-primitive + kernel
//! decomposition:
//!
//! * [`mlp`] — 5-layer perceptron, column-partitioned, ReduceScatter
//!   between layers.
//! * [`bfs`] — frontier BFS with AllReduce(Or) on visited bitmaps.
//! * [`cc`] — connected components via min-label AllReduce.
//! * [`gnn`] — 2-D partitioned GNN in both RS&AR and AR&AG variants.
//! * [`dlrm`] — 3-D partitioned recommendation model (AlltoAll /
//!   ReduceScatter / AlltoAll).

// The modeled engine takes no unsafe shortcuts; any future unsafe
// fast path belongs in pim_sim, under simlint's unsafe-audit lint.
#![forbid(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod cost;
pub mod dlrm;
pub mod gnn;
pub mod mlp;
pub mod profile;

pub use profile::AppProfile;

/// Result of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Modeled PIM execution profile.
    pub profile: AppProfile,
    /// Modeled CPU-only reference time (roofline, §VIII-G comparisons).
    pub cpu_ns: f64,
    /// Whether the PIM result matched the CPU reference bit-exactly.
    pub validated: bool,
}

/// Result of one supervised application run (the `run_*_resilient`
/// entry points): the ordinary [`AppRun`] plus the run-level recovery
/// record.
///
/// Each app has one runner, written against [`pidcomm::Supervisor`];
/// `run_*_in` is that runner with no fault plan and the default policy,
/// returning [`ResilientRun::run`]. A run never panics on output
/// divergence — degraded execution is the point — and instead reports the
/// divergence as [`ResilientRun::mismatched`] with `validated: false`.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// Profile, CPU reference time and validation flag. The profile
    /// records *committed* attempts; [`ResilientRun::modeled_ns`] is the
    /// full modeled time including failed attempts and recovery charges.
    pub run: AppRun,
    /// Typed outcome of the run.
    pub outcome: pidcomm::RunOutcome,
    /// Total retries consumed (plan-level and iteration-level).
    pub retries: u32,
    /// PEs quarantined by the health ledger, ascending.
    pub quarantined: Vec<u32>,
    /// Output elements that differ from the CPU reference (the
    /// degraded-output delta). On an aborted run, the full output length.
    pub mismatched: u64,
    /// Full modeled time from the system meter: every attempt, retry
    /// setup, rollback and degraded recompute charge.
    pub modeled_ns: f64,
    /// Fault epochs skipped by exponential backoff.
    pub backoff_epochs: u64,
    /// Iteration rollbacks performed.
    pub checkpoint_restores: u64,
}

/// Fails with `err()` unless `ok`: the apps' configuration checks, which
/// reject a layout an app cannot host with a typed error, not a panic.
pub(crate) fn ensure(ok: bool, err: impl FnOnce() -> pidcomm::Error) -> pidcomm::Result<()> {
    if ok {
        Ok(())
    } else {
        Err(err())
    }
}

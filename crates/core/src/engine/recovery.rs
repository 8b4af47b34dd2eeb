//! Verified execution: detect-and-recover around a chain of collectives.
//!
//! The MPI/ULFM-style layer over the plan/execute split. Its one unit is
//! a [`FusedPlan`] of one or more steps — a single collective is a chain
//! of one ([`crate::Communicator::execute_verified`] forms it). A chain is
//! the natural unit to verify, retry and replan around, because no step's
//! source region is written by that step
//! ([`crate::engine::validate_spec`] rejects overlapping buffers) and the
//! rollback image covers everything the chain writes — a failed attempt
//! can always be re-run from intact inputs.
//!
//! Three tiers, in escalation order:
//!
//! 1. **Verify**: with a fault plan attached, every execution runs with
//!    read-after-write verification on; detected corruption
//!    ([`crate::Error::DataCorruption`]) and stuck PEs
//!    ([`crate::Error::PeFailed`]) surface at the execute boundary. With
//!    no fault plan a landed byte cannot differ from its source, so
//!    verification stays as the caller left it (a caller's own
//!    [`PimSystem::set_verify_writes`] is preserved).
//! 2. **Retry**: transient faults are epoch-keyed and each step execution
//!    is one epoch, so a bounded number of re-runs clears them. The failed
//!    attempt is first rolled back from a pre-execution image of the
//!    chain's merged MRAM windows ([`FusedPlan::regions`]: every step's
//!    source and destination extents plus hook-written extras) — phase-A
//!    reordering destructively pre-rotates the sources in place, and a
//!    mid-chain fault leaves earlier steps' landings committed, so a
//!    blind re-run would compute silent garbage. The retry unit is the
//!    whole chain: it re-runs from step 0, inter-step hooks included. Each
//!    retry pays the failed attempt's full modeled cost (already on the
//!    meter) plus a fixed resynchronization setup (the [`CostSheet`]
//!    recovery counter).
//! 3. **Degrade**: a *persistently* failed PE cannot be retried around.
//!    The chain still completes: after restoring the chain-entry state,
//!    the host re-computes each step's semantics directly (the
//!    [`crate::oracle`] reference path) from the members' still-readable
//!    MRAM, lands results on the surviving PEs, and charges the
//!    recomputation at word-granular host-modulation cost — degraded
//!    execution is visible in modeled time, never hidden. The dead PE's
//!    outputs are dropped, and its *inputs* are taken from its bank as-is
//!    (on UPMEM the host reaches a bank regardless of DPU health).
//!
//! Run-level supervision ([`crate::engine::supervisor`]) builds on these
//! same pieces: its [`HealthLedger`] receives per-PE attribution of every
//! detected fault, and a chain touching a PE it has quarantined degrades
//! up front via [`run_degraded`] instead of burning retries rediscovering
//! it.

use pim_sim::{Breakdown, Checkpoint, FaultPlan, PimSystem};

use crate::config::Primitive;
use crate::engine::plan::CollectivePlan;
use crate::engine::prepared::FusedPlan;
use crate::engine::sheet::CostSheet;
use crate::engine::supervisor::HealthLedger;
use crate::engine::{logical_volumes, Execution};
use crate::error::{Error, Result};
use crate::hypercube::HypercubeManager;
use crate::oracle;
use crate::report::CommReport;

/// How [`crate::Communicator::execute_verified`] responds to detected
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum number of re-runs after a transient fault (detected
    /// corruption or a transiently stuck PE) before giving up.
    pub max_retries: u32,
    /// Whether a persistently failed PE degrades to host-side recompute
    /// (`true`) or surfaces [`Error::PeFailed`] (`false`).
    pub degrade: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            degrade: true,
        }
    }
}

/// Outcome of a verified chain execution (a single collective is a chain
/// of one step).
///
/// The report rule: `reports` are the per-step reports of the pass that
/// committed, and `breakdown` spans every attempt plus recovery charges.
/// On a clean first attempt each report is bit-identical to a standalone
/// execution of its step and `breakdown` is the sum of their breakdowns;
/// after a retry or a degradation only `breakdown` carries the failed
/// attempts, the retry setups and the degraded recompute.
#[derive(Debug, Clone)]
pub struct VerifiedExecution {
    /// One report per step from the pass that committed.
    pub reports: Vec<CommReport>,
    /// Aggregate modeled time across every attempt, including recovery
    /// charges.
    pub breakdown: Breakdown,
    /// Host output buffers of a trailing Gather/Reduce step, one per group.
    pub host_out: Option<Vec<Vec<u8>>>,
    /// Number of whole-chain re-runs that were needed (0 on a clean first
    /// attempt).
    pub retries: u32,
    /// Whether the result was produced by degraded host-side recompute.
    pub degraded: bool,
}

/// Arms read-after-write verification for one recovery entry point:
/// on when a fault plan is attached (the same condition under which
/// [`run_verified`] captures the rollback image) or when the caller
/// already enabled it. Returns the caller's setting for the entry point
/// to restore.
fn arm_verify(sys: &mut PimSystem) -> bool {
    let prev = sys.verify_writes();
    sys.set_verify_writes(prev || sys.fault_plan().is_some());
    prev
}

/// Captures the pre-execution rollback image over the chain's merged
/// region list — every step's touched windows plus the hook-written
/// extras, so a fault in step *k* rolls back steps `0..k`'s landings, the
/// hooks' intermediate writes and step *k*'s permuted sources in one
/// restore.
fn capture(sys: &PimSystem, chain: &FusedPlan) -> Checkpoint {
    let mut ckpt = Checkpoint::new();
    sys.checkpoint_regions(chain.regions(), &mut ckpt);
    ckpt
}

/// Runs `chain` with verification armed ([`arm_verify`]), retrying
/// transient faults and degrading around persistent PE failures per
/// `policy`. `host_in` feeds step 0 (see [`FusedPlan::execute_with`]);
/// `hook(k, sys)` runs between steps `k` and `k + 1` of every pass.
///
/// With `ledger`, every detected fault (corruption, stuck detection,
/// retry, persistent failure) is attributed to its PE, so run-level
/// supervision can quarantine repeat offenders. A retry re-runs
/// inter-step hooks too, which is safe by the chain contract (hooks
/// derive everything they write from host state plus covered regions).
/// The rollback image is captured only while a fault plan is attached,
/// so with no fault plan this is byte- and modeled-bit-identical to
/// [`FusedPlan::execute_with`].
pub(crate) fn run_verified(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    chain: &FusedPlan,
    host_in: Option<&[Vec<u8>]>,
    policy: &RecoveryPolicy,
    ledger: Option<&mut HealthLedger>,
    hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<VerifiedExecution> {
    let before = sys.meter();
    let prev = arm_verify(sys);
    let snapshot = sys.fault_plan().is_some().then(|| capture(sys, chain));
    let result = drive(
        sys,
        manager,
        chain,
        host_in,
        policy,
        &before,
        snapshot.as_ref(),
        ledger,
        hook,
    );
    sys.set_verify_writes(prev);
    result
}

/// Degrades `chain` up front, without attempting a normal execution —
/// the run-level supervisor's path for chains whose members include
/// already-quarantined PEs: every step runs as host-side oracle
/// recompute, hooks run between steps as usual. Writes additionally skip
/// every quarantined PE (its transport is known-bad; landing bytes there
/// would only re-detect what the ledger already knows).
pub(crate) fn run_degraded(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    chain: &FusedPlan,
    host_in: Option<&[Vec<u8>]>,
    ledger: &HealthLedger,
    hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<VerifiedExecution> {
    let before = sys.meter();
    let prev = arm_verify(sys);
    let result = degrade_chain(sys, manager, chain, host_in, &before, 0, Some(ledger), hook);
    sys.set_verify_writes(prev);
    result
}

#[allow(clippy::too_many_arguments)]
fn drive(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    chain: &FusedPlan,
    host_in: Option<&[Vec<u8>]>,
    policy: &RecoveryPolicy,
    before: &Breakdown,
    snapshot: Option<&Checkpoint>,
    mut ledger: Option<&mut HealthLedger>,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<VerifiedExecution> {
    let mut retries = 0u32;
    loop {
        match chain.execute_with(sys, host_in, &mut hook) {
            Ok(exec) => {
                return Ok(VerifiedExecution {
                    reports: exec.reports,
                    breakdown: sys.meter().since(before),
                    host_out: exec.host_out,
                    retries,
                    degraded: false,
                });
            }
            Err(err @ (Error::DataCorruption { .. } | Error::PeFailed { .. })) => {
                let persistent = match (&err, sys.fault_plan()) {
                    (Error::PeFailed { pe, .. }, Some(fp)) => fp.pe_failed_persistent(*pe),
                    _ => false,
                };
                if let Some(ledger) = ledger.as_deref_mut() {
                    match &err {
                        Error::DataCorruption { pe, .. } => ledger.record_corruption(*pe),
                        Error::PeFailed { pe, .. } if persistent => ledger.record_failure(*pe),
                        Error::PeFailed { pe, .. } => ledger.record_stuck(*pe),
                        _ => unreachable!("matched above"),
                    }
                }
                if persistent {
                    if policy.degrade {
                        // The failed pass may have left partial step
                        // landings and permuted sources; the oracle needs
                        // the chain-entry state back.
                        if let Some(img) = snapshot {
                            sys.restore_regions(img);
                        }
                        return degrade_chain(
                            sys,
                            manager,
                            chain,
                            host_in,
                            before,
                            retries,
                            ledger.as_deref(),
                            hook,
                        );
                    }
                    return Err(err);
                }
                if retries >= policy.max_retries {
                    return Err(err);
                }
                // Roll the whole chain back — a mid-chain fault leaves
                // earlier steps committed and step k's sources permuted —
                // then re-run from step 0 under fresh fault epochs.
                if let Some(img) = snapshot {
                    sys.restore_regions(img);
                }
                retries += 1;
                if let (
                    Some(ledger),
                    Error::DataCorruption { pe, .. } | Error::PeFailed { pe, .. },
                ) = (ledger.as_deref_mut(), &err)
                {
                    ledger.record_retry(*pe);
                }
                // The failed attempt's work is already on the meter; the
                // retry additionally pays one resynchronization setup,
                // tallied on the dedicated recovery counter.
                let mut sheet = CostSheet::new(sys.geometry().channels());
                sheet.recovery_retries = 1; // simlint: allow(cost-sheet, reason = "fault-recovery surcharge outside the plan's cost model by design; cost-only execution models the fault-free run")
                sheet.apply(sys);
            }
            Err(err) => return Err(err),
        }
    }
}

/// Graceful degradation of a whole chain: each step recomputes host-side
/// ([`degrade`]), with the inter-step hooks between them.
#[allow(clippy::too_many_arguments)]
fn degrade_chain(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    chain: &FusedPlan,
    host_in: Option<&[Vec<u8>]>,
    before: &Breakdown,
    retries: u32,
    quarantine: Option<&HealthLedger>,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<VerifiedExecution> {
    let steps = chain.steps();
    let mut reports = Vec::with_capacity(steps.len());
    let mut host_out = None;
    for (k, step) in steps.iter().enumerate() {
        let host_in = if k == 0 { host_in } else { None };
        let exec = degrade(sys, manager, step, host_in, quarantine)?;
        reports.push(exec.report);
        host_out = exec.host_out;
        if k + 1 < steps.len() {
            hook(k, sys)?;
        }
    }
    Ok(VerifiedExecution {
        reports,
        breakdown: sys.meter().since(before),
        host_out,
        retries,
        degraded: true,
    })
}

/// Whether `pe` is stuck under the attached fault plan (if any).
fn is_stuck(fault: Option<&FaultPlan>, pe: pim_sim::PeId) -> bool {
    fault.is_some_and(|fp| fp.pe_stuck(pe.index() as u32))
}

/// Graceful degradation of one step: the host recomputes the collective's
/// semantics directly from the members' MRAM (the oracle reference path),
/// landing results on every non-stuck PE — additionally skipping PEs the
/// given ledger (if any) has quarantined. The moved bytes are charged to
/// the [`CostSheet`] recovery counter at word-granular host-modulation
/// cost; the step's report spans exactly that recompute.
fn degrade(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    quarantine: Option<&HealthLedger>,
) -> Result<Execution> {
    let before = sys.meter();
    let groups = manager.groups(&plan.mask)?;
    let b = plan.spec.bytes_per_node;
    let n = plan.n;
    let src = plan.spec.src_offset;
    let dst = plan.spec.dst_offset;
    let (op, dtype) = (plan.op, plan.spec.dtype);
    let fault = sys.fault_plan().cloned();
    let fault = fault.as_deref();
    let skip = |pe: pim_sim::PeId| {
        is_stuck(fault, pe)
            || quarantine.is_some_and(|ledger| ledger.is_quarantined(pe.index() as u32))
    };

    let mut moved: u64 = 0;
    let mut host_out: Option<Vec<Vec<u8>>> =
        matches!(plan.primitive, Primitive::Gather | Primitive::Reduce).then(Vec::new);

    for (g, group) in groups.iter().enumerate() {
        // Inputs: the reading primitives peek every member's source
        // region — a dead DPU's bank is still host-readable.
        let ins: Vec<Vec<u8>> =
            if matches!(plan.primitive, Primitive::Scatter | Primitive::Broadcast) {
                Vec::new()
            } else {
                moved += (group.members.len() * b) as u64;
                group
                    .members
                    .iter()
                    .map(|&pe| sys.pe(pe).peek(src, b))
                    .collect()
            };

        // Per-member outputs landing at `dst`, or host-side outputs.
        let outs: Vec<Vec<u8>> = match plan.primitive {
            Primitive::AlltoAll => oracle::alltoall(&ins),
            Primitive::ReduceScatter => oracle::reduce_scatter(&ins, op, dtype),
            Primitive::AllReduce => oracle::all_reduce(&ins, op, dtype),
            Primitive::AllGather => oracle::all_gather(&ins),
            Primitive::Scatter => oracle::scatter(&host_in.unwrap()[g], n),
            Primitive::Broadcast => oracle::broadcast(&host_in.unwrap()[g], n),
            Primitive::Gather => {
                host_out.as_mut().unwrap().push(oracle::gather(&ins));
                Vec::new()
            }
            Primitive::Reduce => {
                host_out
                    .as_mut()
                    .unwrap()
                    .push(oracle::reduce(&ins, op, dtype));
                Vec::new()
            }
        };
        for (&pe, out) in group.members.iter().zip(&outs) {
            // The dead PE receives nothing — its writes would be dropped
            // anyway; skipping keeps verification records clean.
            if skip(pe) {
                continue;
            }
            sys.pe_mut(pe).write(dst, out);
            moved += out.len() as u64;
        }
    }

    // Degraded landings still run verified: a fault plan that also
    // corrupts healthy PEs' writes is detected, not absorbed.
    if let Some(ev) = sys.take_corruption() {
        return Err(Error::DataCorruption {
            pe: ev.pe,
            offset: ev.offset,
            expected: ev.expected,
            found: ev.found,
            epoch: ev.epoch,
        });
    }

    let mut sheet = CostSheet::new(sys.geometry().channels());
    sheet.recovery_bytes = moved; // simlint: allow(cost-sheet, reason = "verified-execution readback tally outside the plan's cost model by design; cost-only execution models the unverified run")
    sheet.apply(sys);

    let (bytes_in, bytes_out) =
        logical_volumes(plan.primitive, b, n, plan.num_nodes, plan.num_groups);
    Ok(Execution {
        report: CommReport {
            primitive: plan.primitive,
            opt: plan.opt,
            breakdown: sys.meter().since(&before),
            bytes_in,
            bytes_out,
            group_size: n,
            num_groups: plan.num_groups,
        },
        host_out,
    })
}

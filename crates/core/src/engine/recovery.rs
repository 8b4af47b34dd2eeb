//! Verified execution: detect-and-recover around a collective plan.
//!
//! The MPI/ULFM-style layer over the plan/execute split: a
//! [`crate::engine::plan::CollectivePlan`] is the natural unit to verify,
//! retry and replan around, because the source region is never written
//! during execution ([`crate::engine::validate_spec`] rejects overlapping
//! buffers) — a failed attempt can always be re-run from intact inputs.
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
//! 2. **Retry**: transient faults are epoch-keyed and each execution is one
//!    epoch, so a bounded number of re-runs clears them. The failed
//!    attempt is first rolled back from a pre-execution image of the
//!    plan's touched MRAM windows — phase-A reordering destructively
//!    pre-rotates the sources in place, so a blind re-run would
//!    double-permute them into silent garbage. The image is scoped to the
//!    plan's validated source/destination extents (nothing else changes
//!    during execution), not the whole MRAM. Each retry pays the failed
//!    attempt's full modeled cost (already on the meter) plus a fixed
//!    resynchronization setup (the [`CostSheet`] recovery counter).
//! 3. **Degrade**: a *persistently* failed PE cannot be retried around.
//!    The collective still completes: the host re-computes the semantics
//!    directly (the [`crate::oracle`] reference path) from the members'
//!    still-readable MRAM, lands results on the surviving PEs, and charges
//!    the recomputation at word-granular host-modulation cost — degraded
//!    execution is visible in modeled time, never hidden. The dead PE's
//!    outputs are dropped, and its *inputs* are taken from its bank as-is
//!    (on UPMEM the host reaches a bank regardless of DPU health).
//!
//! Run-level supervision ([`crate::engine::supervisor`]) builds on these
//! same pieces: its [`HealthLedger`] receives per-PE attribution of every
//! detected fault, and PEs it has quarantined degrade up front via
//! [`run_degraded`] instead of burning retries rediscovering them.
//!
//! Fused chains ([`FusedPlan`]) recover as one unit: the rollback image
//! covers the chain's *merged* region list (every step's touched windows
//! plus hook-written intermediates), so a fault detected mid-chain —
//! after earlier steps already committed their landings — restores the
//! chain-entry state in one [`PimSystem::restore_regions`] and re-runs
//! from step 0 ([`run_verified_fused`]).

use pim_sim::{Breakdown, Checkpoint, FaultPlan, PimSystem};

use crate::config::Primitive;
use crate::engine::logical_volumes;
use crate::engine::plan::CollectivePlan;
use crate::engine::prepared::{FusedPlan, PreparedScatter};
use crate::engine::sheet::CostSheet;
use crate::engine::supervisor::HealthLedger;
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

/// Outcome of a verified execution: the report spans *all* attempts (a
/// retried collective is visibly slower than a clean one), plus how much
/// recovery it took.
#[derive(Debug, Clone)]
pub struct VerifiedExecution {
    /// Aggregate report over every attempt, including recovery charges.
    pub report: CommReport,
    /// Host output buffers (Gather/Reduce only), one per group.
    pub host_out: Option<Vec<Vec<u8>>>,
    /// Number of re-runs that were needed (0 on a clean first attempt).
    pub retries: u32,
    /// Whether the result was produced by degraded host-side recompute.
    pub degraded: bool,
}

/// Outcome of a verified fused-chain execution: per-step reports from the
/// committing pass plus an aggregate breakdown spanning every attempt.
#[derive(Debug, Clone)]
pub struct FusedVerifiedExecution {
    /// One report per step from the pass that committed (bit-identical to
    /// standalone executions on a clean first attempt).
    pub reports: Vec<CommReport>,
    /// Aggregate modeled time across every attempt, including recovery
    /// charges — equals the sum of the step breakdowns on a clean run.
    pub breakdown: Breakdown,
    /// Host output buffers of a trailing Gather/Reduce step.
    pub host_out: Option<Vec<Vec<u8>>>,
    /// Number of whole-chain re-runs that were needed.
    pub retries: u32,
    /// Whether the result was produced by degraded host-side recompute.
    pub degraded: bool,
}

/// Arms read-after-write verification for one recovery entry point:
/// on when a fault plan is attached (the same condition [`capture`] uses
/// for the rollback image) or when the caller already enabled it.
/// Returns the caller's setting for the entry point to restore.
fn arm_verify(sys: &mut PimSystem) -> bool {
    let prev = sys.verify_writes();
    sys.set_verify_writes(prev || sys.fault_plan().is_some());
    prev
}

/// Captures the pre-execution rollback image: the plan's touched MRAM
/// windows only (source extent — phase-A reordering is destructive in
/// place — plus destination extent), captured only when a fault plan is
/// attached, so the clean path never pays for the copy.
fn capture(sys: &PimSystem, plan: &CollectivePlan) -> Checkpoint {
    let mut ckpt = Checkpoint::new();
    sys.checkpoint_regions(&plan.touched_regions(), &mut ckpt);
    ckpt
}

/// As [`capture`], over a fused chain's merged region list — every step's
/// touched windows plus the hook-written extras, so a fault in step *k*
/// rolls back steps `0..k`'s landings and the hooks' intermediate writes
/// in one restore.
fn capture_fused(sys: &PimSystem, fused: &FusedPlan) -> Checkpoint {
    let mut ckpt = Checkpoint::new();
    sys.checkpoint_regions(fused.regions(), &mut ckpt);
    ckpt
}

/// Runs `plan` with verification armed ([`arm_verify`]), retrying
/// transient faults and degrading around persistent PE failures per
/// `policy`.
pub(crate) fn run_verified(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    policy: &RecoveryPolicy,
) -> Result<VerifiedExecution> {
    run_verified_tracked(sys, manager, plan, host_in, policy, None)
}

/// As [`run_verified`], but additionally attributing every detected fault
/// (corruption, stuck detection, retry, persistent failure) to its PE in
/// `ledger`, so run-level supervision can quarantine repeat offenders.
pub(crate) fn run_verified_tracked(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    policy: &RecoveryPolicy,
    ledger: Option<&mut HealthLedger>,
) -> Result<VerifiedExecution> {
    let before = sys.meter();
    let prev = arm_verify(sys);
    let snapshot = sys.fault_plan().is_some().then(|| capture(sys, plan));
    let result = drive(
        sys,
        manager,
        plan,
        host_in,
        policy,
        &before,
        snapshot.as_ref(),
        ledger,
    );
    sys.set_verify_writes(prev);
    result
}

/// Degrades `plan` up front, without attempting a normal execution —
/// the run-level supervisor's path for plans whose members include
/// already-quarantined PEs. Writes additionally skip every quarantined PE
/// (its transport is known-bad; landing bytes there would only re-detect
/// what the ledger already knows).
pub(crate) fn run_degraded(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    ledger: &HealthLedger,
) -> Result<VerifiedExecution> {
    let before = sys.meter();
    let prev = arm_verify(sys);
    let result = degrade(sys, manager, plan, host_in, &before, 0, Some(ledger));
    sys.set_verify_writes(prev);
    result
}

/// Runs a fused chain with verification armed ([`arm_verify`]), retrying
/// transient faults and degrading around persistent PE failures per
/// `policy`.
///
/// The retry unit is the **whole chain**: a fault in step *k* restores
/// the chain's merged rollback regions (all steps' touched windows plus
/// hook-written extras), charges one resynchronization setup, and
/// re-runs from step 0 — inter-step hooks re-run too, which is safe by
/// the fusion contract (hooks derive everything they write from host
/// state plus covered regions). With no fault plan attached this is
/// byte- and modeled-bit-identical to [`FusedPlan::execute_with`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_verified_fused(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    fused: &FusedPlan,
    staged: Option<&PreparedScatter>,
    policy: &RecoveryPolicy,
    ledger: Option<&mut HealthLedger>,
    hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    fused.check_staged(staged)?;
    let before = sys.meter();
    let prev = arm_verify(sys);
    let snapshot = sys
        .fault_plan()
        .is_some()
        .then(|| capture_fused(sys, fused));
    let result = drive_fused(
        sys,
        manager,
        fused,
        staged,
        policy,
        &before,
        snapshot.as_ref(),
        ledger,
        hook,
    );
    sys.set_verify_writes(prev);
    result
}

/// Degrades a fused chain up front (the supervisor's path for chains
/// whose members include already-quarantined PEs): every step runs as
/// host-side oracle recompute, hooks run between steps as usual.
pub(crate) fn run_degraded_fused(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    fused: &FusedPlan,
    staged: Option<&PreparedScatter>,
    ledger: &HealthLedger,
    hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    fused.check_staged(staged)?;
    let before = sys.meter();
    let prev = arm_verify(sys);
    let result = degrade_fused(sys, manager, fused, staged, &before, 0, Some(ledger), hook);
    sys.set_verify_writes(prev);
    result
}

#[allow(clippy::too_many_arguments)]
fn drive_fused(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    fused: &FusedPlan,
    staged: Option<&PreparedScatter>,
    policy: &RecoveryPolicy,
    before: &Breakdown,
    snapshot: Option<&Checkpoint>,
    mut ledger: Option<&mut HealthLedger>,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    let mut retries = 0u32;
    loop {
        match fused.execute_with(sys, staged, &mut hook) {
            Ok(exec) => {
                return Ok(FusedVerifiedExecution {
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
                        // The failed pass left partial step landings and
                        // possibly permuted sources; the oracle needs the
                        // chain-entry state back.
                        if let Some(img) = snapshot {
                            sys.restore_regions(img);
                        }
                        return degrade_fused(
                            sys,
                            manager,
                            fused,
                            staged,
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
                let mut sheet = CostSheet::new(sys.geometry().channels());
                sheet.recovery_retries = 1; // simlint: allow(cost-sheet, reason = "fault-recovery surcharge outside the plan's cost model by design; cost-only execution models the fault-free run")
                sheet.apply(sys);
            }
            Err(err) => return Err(err),
        }
    }
}

/// Graceful degradation of a fused chain: each step recomputes host-side
/// (as [`degrade`]), with the inter-step hooks between them. Step 0 of a
/// rooted-send chain rebuilds its original host buffers from the staged
/// image ([`PreparedScatter::unstage`]).
#[allow(clippy::too_many_arguments)]
fn degrade_fused(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    fused: &FusedPlan,
    staged: Option<&PreparedScatter>,
    before: &Breakdown,
    retries: u32,
    quarantine: Option<&HealthLedger>,
    mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
) -> Result<FusedVerifiedExecution> {
    let mut reports = Vec::with_capacity(fused.steps().len());
    let mut host_out = None;
    for (k, step) in fused.steps().iter().enumerate() {
        let host_in = if k == 0 {
            staged.map(PreparedScatter::unstage)
        } else {
            None
        };
        let step_before = sys.meter();
        let exec = degrade(
            sys,
            manager,
            step,
            host_in.as_deref(),
            &step_before,
            0,
            quarantine,
        )?;
        reports.push(exec.report);
        host_out = exec.host_out;
        if k + 1 < fused.steps().len() {
            hook(k, sys)?;
        }
    }
    Ok(FusedVerifiedExecution {
        reports,
        breakdown: sys.meter().since(before),
        host_out,
        retries,
        degraded: true,
    })
}

#[allow(clippy::too_many_arguments)]
fn drive(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    policy: &RecoveryPolicy,
    before: &pim_sim::Breakdown,
    snapshot: Option<&Checkpoint>,
    mut ledger: Option<&mut HealthLedger>,
) -> Result<VerifiedExecution> {
    let mut retries = 0u32;
    loop {
        match plan.run(sys, host_in) {
            Ok(exec) => {
                let mut report = exec.report;
                // Span all attempts: a clean first attempt reproduces the
                // unverified breakdown bit-for-bit (nothing else charged
                // between `before` and the run), while a recovered one
                // carries every failed attempt plus the retry setups.
                report.breakdown = sys.meter().since(before);
                return Ok(VerifiedExecution {
                    report,
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
                        // Failed transient attempts (if any) permuted the
                        // sources; the oracle needs them pristine.
                        if retries > 0 {
                            if let Some(img) = snapshot {
                                sys.restore_regions(img);
                            }
                        }
                        return degrade(
                            sys,
                            manager,
                            plan,
                            host_in,
                            before,
                            retries,
                            ledger.as_deref(),
                        );
                    }
                    return Err(err);
                }
                if retries >= policy.max_retries {
                    return Err(err);
                }
                // Roll the failed attempt back — phase A destroyed the
                // sources — then re-run under a fresh fault epoch.
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

/// Whether `pe` is stuck under the attached fault plan (if any).
fn is_stuck(fault: Option<&FaultPlan>, pe: pim_sim::PeId) -> bool {
    fault.is_some_and(|fp| fp.pe_stuck(pe.index() as u32))
}

/// Graceful degradation: the host recomputes the collective's semantics
/// directly from the members' MRAM (the oracle reference path), landing
/// results on every non-stuck PE — additionally skipping PEs the given
/// ledger (if any) has quarantined. The moved bytes are charged to the
/// [`CostSheet`] recovery counter at word-granular host-modulation cost.
fn degrade(
    sys: &mut PimSystem,
    manager: &HypercubeManager,
    plan: &CollectivePlan,
    host_in: Option<&[Vec<u8>]>,
    before: &pim_sim::Breakdown,
    retries: u32,
    quarantine: Option<&HealthLedger>,
) -> Result<VerifiedExecution> {
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
    Ok(VerifiedExecution {
        report: CommReport {
            primitive: plan.primitive,
            opt: plan.opt,
            breakdown: sys.meter().since(before),
            bytes_in,
            bytes_out,
            group_size: n,
            num_groups: plan.num_groups,
        },
        host_out,
        retries,
        degraded: true,
    })
}

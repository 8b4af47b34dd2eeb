//! Chains: the one execution unit of the verified and supervised tiers.
//!
//! A [`FusedPlan`] is a chain of one or more [`CollectivePlan`]s over one
//! geometry. Step *k*'s output rows sit in PE MRAM exactly where step
//! *k+1*'s plan reads them, with optional host kernels
//! ([`FusedPlan::execute_with`] hooks) between steps and **no host
//! staging round-trip anywhere in the chain**. Each step keeps its own
//! fault epoch, cost sheet and meter window, so per-step [`CommReport`]s
//! are bit-identical to issuing the plans separately — chaining removes
//! host-side copies and per-call overhead, never changes the charged
//! schedule. A single collective is a chain of one step: the recovery
//! tier ([`crate::engine::recovery`]) and the run-level supervisor
//! ([`crate::engine::supervisor`]) execute nothing else.
//!
//! # Chain contract
//!
//! [`FusedPlan::new`] enforces the chain shape: at least one step, all
//! sharing one [`DimmGeometry`]; only the first step may be a host-rooted
//! send (Scatter/Broadcast — its `host_in` is passed to the chain's
//! execute), only the last may be a host-rooted receive (Gather/Reduce),
//! and every step's buffers must satisfy its own plan validation.
//! Inter-step hooks must derive everything they write from host state
//! plus MRAM the chain's rollback regions cover
//! ([`FusedPlan::with_regions`] adds hook-written regions), so a verified
//! retry of the chain re-runs them deterministically.
//!
//! # Lifecycle
//!
//! plan (once, usually [`crate::Communicator::plan_cached`]) → fuse (once)
//! → execute ×N.

use std::sync::Arc;

use pim_sim::geometry::DimmGeometry;
use pim_sim::PimSystem;

use crate::config::Primitive;
use crate::engine::plan::CollectivePlan;
use crate::error::{Error, Result};
use crate::report::CommReport;

/// Outcome of one fused-chain execution: per-step reports (bit-identical
/// to issuing the plans separately) and the final step's host outputs.
#[derive(Debug, Clone)]
pub struct FusedExecution {
    /// One report per step, in chain order.
    pub reports: Vec<CommReport>,
    /// Host output buffers of a trailing Gather/Reduce step.
    pub host_out: Option<Vec<Vec<u8>>>,
}

/// A chain of one or more collectives over one geometry executed as a
/// unit. See the module docs for the chain contract.
pub struct FusedPlan {
    steps: Vec<Arc<CollectivePlan>>,
    /// Merged union of every step's touched MRAM windows plus any
    /// hook-written extras — the rollback image a verified retry of the
    /// chain needs.
    regions: Vec<(usize, usize)>,
}

/// Merges a region list into a minimal sorted set of disjoint windows.
fn merge_regions(mut regs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    regs.retain(|&(_, len)| len > 0);
    regs.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (off, len) in regs {
        match merged.last_mut() {
            Some((m_off, m_len)) if off <= *m_off + *m_len => {
                let end = (off + len).max(*m_off + *m_len);
                *m_len = end - *m_off;
            }
            _ => merged.push((off, len)),
        }
    }
    merged
}

impl FusedPlan {
    /// Fuses `steps` into one chain, validating the chain contract:
    /// ≥ 1 step, one shared geometry, host-rooted sends only first,
    /// host-rooted receives only last.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidHostData`] on a contract violation,
    /// [`Error::ShapeSystemMismatch`] on mixed geometries.
    pub fn new(steps: Vec<Arc<CollectivePlan>>) -> Result<Self> {
        Self::with_regions(steps, &[])
    }

    /// As [`FusedPlan::new`], additionally covering `extra` MRAM windows
    /// `(offset, len)` in the chain's rollback image — every region an
    /// inter-step hook writes must be listed here, or a mid-chain retry
    /// would re-run the hook over half-committed state.
    ///
    /// # Errors
    ///
    /// As [`FusedPlan::new`].
    pub fn with_regions(steps: Vec<Arc<CollectivePlan>>, extra: &[(usize, usize)]) -> Result<Self> {
        if steps.is_empty() {
            return Err(Error::InvalidHostData(
                "a fused plan needs at least one step".into(),
            ));
        }
        let geometry = steps[0].geometry;
        for step in &steps[1..] {
            if step.geometry != geometry {
                return Err(Error::ShapeSystemMismatch {
                    nodes: steps[0].num_nodes,
                    pes: step.geometry.num_pes(),
                });
            }
        }
        let last = steps.len() - 1;
        for (k, step) in steps.iter().enumerate() {
            let p = step.primitive();
            if k > 0 && matches!(p, Primitive::Scatter | Primitive::Broadcast) {
                return Err(Error::InvalidHostData(format!(
                    "step {k} is a host-rooted send ({p}); only the first fused step may be"
                )));
            }
            if k < last && matches!(p, Primitive::Gather | Primitive::Reduce) {
                return Err(Error::InvalidHostData(format!(
                    "step {k} is a host-rooted receive ({p}); only the last fused step may be"
                )));
            }
        }
        let mut regions: Vec<(usize, usize)> = steps
            .iter()
            .flat_map(|s| s.touched_regions())
            .chain(extra.iter().copied())
            .collect();
        regions = merge_regions(regions);
        Ok(Self { steps, regions })
    }

    /// The chained plans, in execution order.
    pub fn steps(&self) -> &[Arc<CollectivePlan>] {
        &self.steps
    }

    /// The shared geometry of every step.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.steps[0].geometry
    }

    /// The merged MRAM windows a rollback image of one chain execution
    /// must cover: every step's touched regions plus the hook-written
    /// extras passed to [`FusedPlan::with_regions`]. Apps extend their
    /// iteration checkpoint lists with these.
    pub fn regions(&self) -> &[(usize, usize)] {
        &self.regions
    }

    /// Executes the chain: step 0 with `host_in` (exactly as
    /// [`CollectivePlan::execute_with_host`] takes it: `Some` when the
    /// chain starts with a rooted send, `None` otherwise), then each
    /// subsequent step directly over the previous step's in-MRAM output,
    /// with `hook(k, sys)` run between step `k` and `k + 1` (host kernels
    /// on the intermediate state). Each step charges and reports exactly
    /// as a standalone execution of its plan.
    ///
    /// # Errors
    ///
    /// As the individual plans' execute methods ([`Error::InvalidHostData`]
    /// when `host_in` does not match step 0). A failed step or hook
    /// leaves the chain partially executed — the verified tier
    /// ([`crate::engine::recovery`]) rolls back and retries whole chains.
    pub fn execute_with(
        &self,
        sys: &mut PimSystem,
        host_in: Option<&[Vec<u8>]>,
        mut hook: impl FnMut(usize, &mut PimSystem) -> Result<()>,
    ) -> Result<FusedExecution> {
        let mut reports = Vec::with_capacity(self.steps.len());
        let mut host_out = None;
        for (k, step) in self.steps.iter().enumerate() {
            let exec = step.run(sys, if k == 0 { host_in } else { None })?;
            reports.push(exec.report);
            host_out = exec.host_out;
            if k + 1 < self.steps.len() {
                hook(k, sys)?;
            }
        }
        Ok(FusedExecution { reports, host_out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_regions_sorts_merges_and_drops_empties() {
        assert_eq!(
            merge_regions(vec![(100, 50), (0, 10), (140, 20), (5, 0), (8, 4)]),
            vec![(0, 12), (100, 60)]
        );
        assert_eq!(merge_regions(vec![]), vec![]);
        // Adjacent windows coalesce.
        assert_eq!(merge_regions(vec![(0, 8), (8, 8)]), vec![(0, 16)]);
    }
}

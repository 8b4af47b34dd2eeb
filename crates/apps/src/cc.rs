//! Connected components on the PID-Comm framework (§VII-D).
//!
//! Min-label propagation: every vertex starts with its own id as label;
//! each iteration, every PE lowers the labels of its owned vertices' from
//! their neighborhoods, and an `AllReduce(Min)` merges the label arrays
//! globally. Iteration stops when the labels reach a fixed point. Directed
//! inputs are preprocessed to undirected, as in the paper.
//!
//! The per-iteration `AllReduce(Min)` plan is built once (pooled in the
//! worker's arena plan cache) and re-executed every level, and the
//! expansion is *frontier-sparse*: a vertex's neighborhood minimum can
//! only change when the vertex or one of its neighbors changed label in
//! the previous merge, so each iteration recomputes only the dirty
//! vertices — provably bit-identical to the full scan (see
//! [`run_cc_resilient_in`]), while the modeled kernel charge stays the
//! full-scan edge count the device would pay.

use std::sync::Arc;

use pidcomm::{
    par_pes, BufferSpec, Communicator, DimMask, HypercubeManager, HypercubeShape, Iteration,
    OptLevel, PlanCache, Primitive, RunPolicy, Supervisor,
};
use pidcomm_data::CsrGraph;
use pim_sim::{kernels, DType, DimmGeometry, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::profile::AppProfile;
use crate::{AppRun, ResilientRun};

/// CC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcConfig {
    /// Number of PEs (1-D hypercube).
    pub pes: usize,
    /// Communication optimization level.
    pub opt: OptLevel,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting — and the
    /// sweep harness uses it to split a machine budget between concurrent
    /// app runs and per-run cluster fan-out.
    pub threads: usize,
}

/// CPU reference: min-label propagation to a fixed point. Returns final
/// labels (the minimum vertex id of each component) and a roofline time.
///
/// Runs frontier-sparse like the PIM kernel (see [`run_cc_resilient_in`]
/// for the proof that skipping clean vertices is bit-identical), but the
/// roofline charges the full per-pass edge scan the dense reference
/// performed — the label sequence, pass count and modeled time are
/// unchanged.
fn cpu_reference(graph: &CsrGraph) -> (Vec<u32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let n = graph.num_vertices();
    let total_edges: u64 = (0..n as u32).map(|v| graph.degree(v) as u64).sum();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut dirty = vec![true; n];
    let mut edges_scanned = 0u64;
    loop {
        let mut changed = false;
        let prev = labels.clone();
        for v in 0..n {
            if !dirty[v] {
                continue;
            }
            let mut m = prev[v];
            for &t in graph.neighbors(v as u32) {
                m = m.min(prev[t as usize]);
            }
            if m < labels[v] {
                labels[v] = m;
            }
        }
        edges_scanned += total_edges;
        // Next pass: only vertices whose own or neighboring label moved
        // can produce a new minimum.
        let mut next = vec![false; n];
        for v in 0..n {
            if labels[v] != prev[v] {
                changed = true;
                next[v] = true;
                for &t in graph.neighbors(v as u32) {
                    next[t as usize] = true;
                }
            }
        }
        dirty = next;
        if !changed {
            break;
        }
    }
    let time = cpu.time_mixed_ns(2 * edges_scanned, 0, 64 * edges_scanned);
    (labels, time)
}

/// Dataset-scale compensation for kernel charges (see EXPERIMENTS.md),
/// analogous to BFS but smaller: CC is the paper's most
/// communication-dominated benchmark.
const KERNEL_SCALE: f64 = 1.5;

/// Number of distinct components in a label array.
pub fn component_count(labels: &[u32]) -> usize {
    let mut roots: Vec<u32> = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Runs connected components and validates labels against the CPU
/// reference.
///
/// # Errors
///
/// Propagates collective validation errors.
pub fn run_cc(cfg: &CcConfig, graph: &CsrGraph) -> pidcomm::Result<AppRun> {
    run_cc_in(cfg, graph, &mut SystemArena::new())
}

/// As [`run_cc`], but sourcing the `PimSystem`, staging buffers and
/// collective plans from `arena` (and returning them to it), so repeated
/// runs — e.g. consecutive sweep cells on one worker — reuse allocations
/// *and* plans. This is [`run_cc_resilient_in`] with no fault plan and
/// the default policy.
///
/// # Errors
///
/// As [`run_cc`].
pub fn run_cc_in(
    cfg: &CcConfig,
    graph: &CsrGraph,
    arena: &mut SystemArena,
) -> pidcomm::Result<AppRun> {
    run_cc_resilient_in(cfg, graph, None, RunPolicy::default(), arena).map(|r| r.run)
}

/// As [`run_cc`], but under a fault plan and run-level supervision (see
/// [`Supervisor`]): collectives run verified with quarantine-aware
/// recovery, each label-propagation pass commits through an iteration
/// boundary, and unrecoverable faults end the run with a typed
/// [`pidcomm::RunOutcome`], never a fault error. With `fault = None`
/// nothing is verified and the run is [`run_cc`]'s.
///
/// Like BFS, CC carries no live MRAM state across passes — every pass
/// re-encodes the label array from the committed host mirror — so
/// iteration checkpoints are empty and a re-run replays the pass from
/// committed host state.
///
/// # Errors
///
/// As [`run_cc`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_cc_resilient(
    cfg: &CcConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_cc_resilient_in(cfg, graph, fault, policy, &mut SystemArena::new())
}

/// As [`run_cc_resilient`], sourcing allocations from `arena`. The one
/// CC runner: every other entry point wraps it.
///
/// # Frontier-sparse expansion
///
/// After a merge, `labels[v] = min(prev[v], min over neighbors prev[t])`.
/// For a vertex whose own label and all of whose neighbors' labels are
/// unchanged since that merge, recomputing the neighborhood minimum
/// provably returns `labels[v]` again: every unchanged neighbor `t` has
/// `labels[t] = prev[t] ≥ labels[v]` (it participated in the minimum that
/// produced `labels[v]`). So each iteration only recomputes the *dirty*
/// vertices — those that changed or have a changed neighbor — writing
/// `labels[v]` (already in the prototype) for the rest, bit-identical to
/// the full scan. The modeled kernel charge stays the full owned-edge
/// count: the device kernel would still stream every owned adjacency
/// list, and that count is constant per PE across iterations.
///
/// # Errors
///
/// As [`run_cc_resilient`].
pub fn run_cc_resilient_in(
    cfg: &CcConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let graph = graph.to_undirected();
    let p = cfg.pes;
    let n = graph.num_vertices();
    let geom = DimmGeometry::with_pes(p);
    let mut sys = arena.system(geom);
    if let Some(fp) = &fault {
        sys.attach_fault_plan(fp.clone());
        sys.set_verify_writes(true);
    }
    let mut plans = arena.take_extension::<PlanCache>();
    let manager = HypercubeManager::new(HypercubeShape::linear(p)?, geom)?;
    let comm = Communicator::new(manager)
        .with_opt(cfg.opt)
        .with_threads(cfg.threads);
    let mask = DimMask::all(comm.manager().shape());
    let mut profile = AppProfile::new("CC", format!("{n}v"));
    let mut sup = Supervisor::new(p, policy);

    let per_pe = n.div_ceil(p);
    // Label array (u32 per vertex) padded to AllReduce alignment; the pad
    // is filled with u32::MAX, the Min identity.
    let label_bytes = (n * 4).next_multiple_of(8 * p);

    // Adjacency partitions (same layout as BFS).
    let slice_bytes = {
        let max_bytes = (0..p)
            .map(|pe| {
                let lo = pe * per_pe;
                let hi = ((pe + 1) * per_pe).min(n);
                (lo..hi)
                    .map(|v| 4 + 4 * graph.degree(v as u32))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        max_bytes.next_multiple_of(8).max(8)
    };
    let adj_host = [arena.bytes(p * slice_bytes)];

    let src_off = slice_bytes.next_multiple_of(64);
    let dst_off = src_off + label_bytes.next_multiple_of(64);

    let scatter_plan = comm.plan_cached(
        &mut plans,
        Primitive::Scatter,
        &mask,
        &BufferSpec::new(0, 0, slice_bytes).with_dtype(DType::U32),
        ReduceKind::Sum,
    )?;
    // The per-iteration merge plan, built once for the whole fixed-point
    // loop (and pooled across runs): CC issues the identical AllReduce
    // every level.
    let merge_plan = comm.plan_cached(
        &mut plans,
        Primitive::AllReduce,
        &mask,
        &BufferSpec::new(src_off, dst_off, label_bytes).with_dtype(DType::U32),
        ReduceKind::Min,
    )?;
    let reduce_plan = comm.plan_cached(
        &mut plans,
        Primitive::Reduce,
        &mask,
        &BufferSpec::new(dst_off, 0, label_bytes).with_dtype(DType::U32),
        ReduceKind::Min,
    )?;

    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut merged = vec![0u32; n];
    // The label array every PE's local copy starts from, encoded once per
    // iteration (pad = u32::MAX, the Min identity) instead of re-encoded
    // per PE.
    let mut proto = vec![0u8; label_bytes];
    // The modeled per-PE expansion charge streams every owned adjacency
    // list — a constant across iterations, precomputed once.
    let owned_edges: Vec<u64> = (0..p)
        .map(|pid| {
            let lo = pid * per_pe;
            let hi = ((pid + 1) * per_pe).min(n);
            (lo..hi).map(|v| graph.degree(v as u32) as u64).sum()
        })
        .collect();
    // Dirty set for the frontier-sparse expansion (see the doc comment);
    // iteration 1 recomputes everything.
    let mut dirty = vec![true; n];
    let mut iterations = 0usize;

    let mut result: Option<Vec<u32>> = None;
    'run: {
        // Setup: the adjacency scatter restages from the host buffer, so
        // a re-run needs no checkpointed MRAM state. The buffer is dead
        // once the setup commits.
        let setup = sup.iteration(&mut sys, arena, &[], |sys, at| {
            Ok(at
                .collective(&comm, sys, &scatter_plan, Some(&adj_host))?
                .reports[0]
                .clone())
        });
        let [adj_host] = adj_host;
        arena.recycle_bytes(adj_host);
        match setup? {
            Iteration::Done(report) => profile.record(&report),
            Iteration::Abort(_) => break 'run,
        }

        // The pass cap guards termination under heavily degraded
        // execution (corrupted merges are not guaranteed monotone); a
        // clean propagation converges in at most `n` passes regardless.
        loop {
            iterations += 1;

            proto.fill(0xFF);
            kernels::encode_u32(&labels, &mut proto[..n * 4]);

            // Each pass rewrites the label regions wholesale from the
            // committed host mirrors, so the checkpoint is empty; a
            // re-run replays the pass exactly.
            match sup.iteration(&mut sys, arena, &[], |sys, at| {
                // PE kernel: the shared prototype lands in MRAM directly
                // from the host mirror, then each PE lowers only its owned
                // *dirty* vertices' labels in place (clean vertices keep
                // their prototype value, which the full scan would
                // reproduce). Labels and the dirty set are shared
                // read-only.
                let kernels = par_pes(sys.pes_mut(), cfg.threads, |pid, pe| {
                    // simlint: hot(begin, cc label lowering)
                    let lo = pid * per_pe;
                    let hi = ((pid + 1) * per_pe).min(n);
                    pe.write(src_off, &proto);
                    for v in lo..hi {
                        if !dirty[v] {
                            continue;
                        }
                        let mut m = labels[v];
                        for &t in graph.neighbors(v as u32) {
                            m = m.min(labels[t as usize]);
                        }
                        pe.write(src_off + v * 4, &m.to_le_bytes());
                    }
                    // Random per-edge accesses pay small-DMA granularity
                    // (~64 B); the device streams all owned adjacency
                    // lists.
                    let edges = owned_edges[pid];
                    KERNEL_SCALE * pe_kernel_ns(48 * edges + label_bytes as u64, 10 * edges)
                    // simlint: hot(end)
                });
                let max_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                sys.run_kernel(max_kernel);
                let report = at.collective(&comm, sys, &merge_plan, None)?.reports[0].clone();
                // Read the merged labels back from the first healthy PE
                // (identical on every PE; a degraded execution skips
                // landing output on quarantined PEs, whose copy is stale).
                let read_pe = geom
                    .pes()
                    .find(|pe| !at.ledger().is_quarantined(pe.index() as u32))
                    .or_else(|| geom.pes().next())
                    .expect("system has at least one PE");
                sys.pe_mut(read_pe).read_u32s(dst_off, &mut merged);
                Ok((max_kernel, report))
            })? {
                Iteration::Done((max_kernel, report)) => {
                    profile.record_kernel(max_kernel + sys.model().kernel_launch_ns);
                    profile.record(&report);
                }
                Iteration::Abort(_) => break 'run,
            }

            // Commit: fold the merged labels into the host mirrors.
            // Changed vertices and their neighborhoods form the next dirty
            // set; a fixed point leaves it empty and ends the loop.
            let mut changed = false;
            dirty.fill(false);
            for v in 0..n {
                if merged[v] != labels[v] {
                    changed = true;
                    dirty[v] = true;
                    for &t in graph.neighbors(v as u32) {
                        dirty[t as usize] = true;
                    }
                }
            }
            labels.copy_from_slice(&merged);
            if !changed || iterations > n {
                break;
            }
        }

        // Final labels via Reduce(Min) — every PE holds the global array,
        // the host takes the reduction (a no-op numerically). It reads
        // the merged array left by the last pass (reads cannot be
        // corrupted, and the body writes nothing), so the checkpoint
        // stays empty.
        match sup.iteration(&mut sys, arena, &[], |sys, at| {
            let exec = at.collective(&comm, sys, &reduce_plan, None)?;
            Ok((
                exec.reports[0].clone(),
                exec.host_out.expect("reduce produces host output"),
            ))
        })? {
            Iteration::Done((report, reduced)) => {
                profile.record(&report);
                let mut final_labels = vec![0u32; n];
                kernels::decode_u32(&reduced[0][..n * 4], &mut final_labels);
                result = Some(final_labels);
            }
            Iteration::Abort(_) => {}
        }
    }

    let (expected, cpu_ns) = cpu_reference(&graph);
    let (mismatched, validated) = match &result {
        Some(r) => {
            let mm = r.iter().zip(&expected).filter(|(a, b)| a != b).count()
                + r.len().abs_diff(expected.len());
            (mm as u64, mm == 0)
        }
        None => (expected.len() as u64, false),
    };
    profile.dataset = format!("{n}v/{}it", iterations);
    let modeled_ns = sys.meter().total();
    sys.detach_fault_plan();
    sys.set_verify_writes(false);
    arena.recycle(sys);
    arena.put_extension(plans);

    Ok(ResilientRun {
        run: AppRun {
            profile,
            cpu_ns,
            validated,
        },
        outcome: sup.outcome(),
        retries: sup.retries(),
        quarantined: sup.ledger().quarantined(),
        mismatched,
        modeled_ns,
        backoff_epochs: sup.backoff_epochs(),
        checkpoint_restores: sup.checkpoint_restores(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidcomm_data::{rmat, RmatParams};

    #[test]
    fn cc_validates_on_small_graph() {
        let graph = rmat(10, 4, RmatParams::skewed(9));
        let run = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Reduce) > 0.0);
    }

    #[test]
    fn component_count_matches_union_find() {
        let graph = CsrGraph::from_edges(10, vec![(0, 1), (1, 2), (4, 5), (7, 8)]);
        let run = run_cc(
            &CcConfig {
                threads: 0,
                pes: 8,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        assert!(run.validated);
        // Components: {0,1,2}, {3}, {4,5}, {6}, {7,8}, {9} = 6.
        let (labels, _) = cpu_reference(&graph.to_undirected());
        assert_eq!(component_count(&labels), 6);
    }

    #[test]
    fn long_chain_converges_through_the_sparse_frontier() {
        // A path graph needs many label-propagation iterations with an
        // ever-shrinking dirty set — the shape the frontier-sparse
        // expansion exists for. Validation against the dense CPU fixed
        // point pins bit-identical labels; a second run on the same arena
        // reuses the warm plans.
        let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
        let graph = CsrGraph::from_edges(64, edges);
        let cfg = CcConfig {
            threads: 0,
            pes: 8,
            opt: OptLevel::Full,
        };
        let mut arena = pim_sim::SystemArena::new();
        let first = run_cc_in(&cfg, &graph, &mut arena).unwrap();
        assert!(first.validated);
        assert!(first.profile.dataset.contains("it"));
        let second = run_cc_in(&cfg, &graph, &mut arena).unwrap();
        assert!(first == second, "warm-plan rerun diverges");
    }

    #[test]
    fn baseline_matches_and_is_slower() {
        let graph = rmat(9, 4, RmatParams::skewed(13));
        let full = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Full,
            },
            &graph,
        )
        .unwrap();
        let base = run_cc(
            &CcConfig {
                threads: 0,
                pes: 64,
                opt: OptLevel::Baseline,
            },
            &graph,
        )
        .unwrap();
        assert!(base.profile.comm_ns() > full.profile.comm_ns());
        assert!((base.profile.kernel_ns - full.profile.kernel_ns).abs() < 1e-6);
    }
}

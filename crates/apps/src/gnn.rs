//! Graph neural network on a 2-D hypercube (§VII-B, Fig. 12, Algorithm 1).
//!
//! A GNN layer is an aggregation (sparse A·F) followed by a combination
//! (dense I·W). The PEs form an `s × s` grid; PE `(x, y)` holds adjacency
//! tiles and one block of the feature matrix. Two communication strategies
//! are implemented, matching the paper's variants:
//!
//! * **RS&AR**: partial aggregates are `ReduceScatter`'d across the active
//!   dimension, each PE combines its row sub-block with the full weight
//!   matrix, and an `AllReduce` assembles the next layer's feature block.
//! * **AR&AG**: aggregates are `AllReduce`'d, each PE combines one column
//!   block of the weights, and an `AllGather` concatenates the column
//!   blocks.
//!
//! The active dimension alternates between layers (`"10" ⇄ "01"`,
//! Algorithm 1), which keeps every PE's feature block aligned with its
//! rank in the next layer's communication group.

use std::sync::Arc;

use pidcomm::{
    par_pes, par_pes_with, BufferSpec, Communicator, DimMask, Error, HypercubeManager,
    HypercubeShape, Iteration, OptLevel, PlanCache, Primitive, RunPolicy, Supervisor,
};
use pidcomm_data::{CsrGraph, MatI32};
use pim_sim::{kernels, DType, DimmGeometry, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::profile::AppProfile;
use crate::{ensure, AppRun, ResilientRun};

/// GNN communication strategy (Table III lists both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnVariant {
    /// ReduceScatter + AllReduce.
    RsAr,
    /// AllReduce + AllGather.
    ArAg,
}

impl GnnVariant {
    /// Label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            GnnVariant::RsAr => "RS&AR",
            GnnVariant::ArAg => "AR&AG",
        }
    }
}

/// GNN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnConfig {
    /// Number of PEs; must be a perfect square (the paper notes GNNs
    /// "require symmetric partitioning", §VIII-G).
    pub pes: usize,
    /// Feature dimension `f` (divisible by `sqrt(pes)`).
    pub feature_dim: usize,
    /// Number of layers (the paper uses 3).
    pub layers: usize,
    /// Communication strategy.
    pub variant: GnnVariant,
    /// Communication optimization level.
    pub opt: OptLevel,
    /// Element width of features/weights (I8/I16/I32; the paper's word-bit
    /// sensitivity study, §VIII-F). 8-bit elements let ReduceScatter and
    /// AllReduce skip domain transfer entirely.
    pub dtype: DType,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting — and the
    /// sweep harness uses it to split a machine budget between concurrent
    /// app runs and per-run cluster fan-out.
    pub threads: usize,
}

/// Wraps `v` to the declared element width (sign-extending truncation),
/// matching what fixed-width PE arithmetic would produce.
fn wrap(v: i32, dtype: DType) -> i32 {
    match dtype {
        DType::I8 | DType::U8 => v as i8 as i32,
        DType::I16 | DType::U16 => v as i16 as i32,
        _ => v,
    }
}

/// Element size in bytes.
fn esize(dtype: DType) -> usize {
    dtype.size_bytes()
}

/// Deserializes a matrix at the declared width via the sign-extending
/// `kernels::decode_sext`.
fn mat_from_bytes(rows: usize, cols: usize, bytes: &[u8], dtype: DType) -> MatI32 {
    assert_eq!(bytes.len(), rows * cols * esize(dtype));
    let mut m = MatI32::zeros(rows, cols);
    kernels::decode_sext(dtype, bytes, m.as_mut_slice());
    m
}

/// Dataset-scale compensation for kernel charges: the harness graphs and
/// feature dims are ~10x below PubMed/Reddit scale, and PE compute shrinks
/// superlinearly (f^2 combination) while communication shrinks linearly in
/// f. This factor restores the paper's kernel-to-communication ratio
/// (Fig. 13); see EXPERIMENTS.md.
const KERNEL_SCALE: f64 = 6.0;

fn isqrt(p: usize) -> pidcomm::Result<usize> {
    let s = (p as f64).sqrt().round() as usize;
    ensure(p > 0 && s * s == p, || {
        Error::InvalidShape(format!("GNN needs a square PE count, got {p}"))
    })?;
    Ok(s)
}

fn relu(v: i32) -> i32 {
    v.max(0)
}

/// CPU reference: `F <- relu((A · F) · W_l)` per layer with wrapping
/// arithmetic. Returns the final feature matrix and a roofline time.
fn cpu_reference(graph: &CsrGraph, f0: &MatI32, weights: &[MatI32], dtype: DType) -> (MatI32, f64) {
    let cpu = CpuModel::xeon_5215();
    let n = graph.num_vertices();
    let f = f0.cols();
    let mut feat = f0.clone();
    let mut time = 0.0;
    for w in weights {
        // Aggregation: I[u] = sum over (u, v) of F[v], at element width.
        let mut agg = MatI32::zeros(n, f);
        for (u, v) in graph.edges() {
            for c in 0..f {
                let val = wrap(
                    agg.get(u as usize, c).wrapping_add(feat.get(v as usize, c)),
                    dtype,
                );
                agg.set(u as usize, c, val);
            }
        }
        // Combination + ReLU at element width.
        let mut comb = MatI32::zeros(n, f);
        for r in 0..n {
            for k in 0..f {
                let a = agg.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..f {
                    let val = wrap(
                        comb.get(r, c).wrapping_add(a.wrapping_mul(w.get(k, c))),
                        dtype,
                    );
                    comb.set(r, c, val);
                }
            }
        }
        for r in 0..n {
            for c in 0..f {
                comb.set(r, c, relu(comb.get(r, c)));
            }
        }
        feat = comb;
        let edges = graph.num_edges() as u64;
        time += cpu.time_mixed_ns(
            edges * f as u64 + 2 * (n * f * f) as u64,
            (n * f * 4) as u64 * 2 + (n * f * f) as u64 / 16,
            edges * (f as u64 * 4 + 8),
        );
    }
    (feat, time)
}

/// Sparse tile: edges of A with source in row-block `i` and target in
/// column-block `j`, stored as (local row, local col) pairs.
fn tiles(graph: &CsrGraph, s: usize) -> Vec<Vec<Vec<(u32, u32)>>> {
    let n = graph.num_vertices();
    let bs = n / s;
    let mut t = vec![vec![Vec::new(); s]; s];
    for (u, v) in graph.edges() {
        let (i, j) = (u as usize / bs, v as usize / bs);
        t[i][j].push(((u as usize % bs) as u32, (v as usize % bs) as u32));
    }
    t
}

/// Runs the GNN benchmark and validates against the CPU reference.
///
/// # Errors
///
/// [`Error::InvalidShape`] if `layers` is 0, `pes` is not a square
/// `s × s`, the vertex count does not divide by `s²` or `feature_dim` by
/// `s`; [`Error::InvalidBuffer`] if `dtype` is wider than 4 bytes or a
/// feature block breaks the collectives' `8 × s` alignment; plus
/// collective validation errors.
pub fn run_gnn(cfg: &GnnConfig, graph: &CsrGraph) -> pidcomm::Result<AppRun> {
    run_gnn_in(cfg, graph, &mut SystemArena::new())
}

/// As [`run_gnn`], but sourcing the `PimSystem` from `arena` (and
/// returning it), so repeated runs — e.g. consecutive sweep cells on one
/// worker — reuse allocations. This is [`run_gnn_resilient_in`] with no
/// fault plan and the default policy.
///
/// # Errors
///
/// As [`run_gnn`].
pub fn run_gnn_in(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    arena: &mut SystemArena,
) -> pidcomm::Result<AppRun> {
    run_gnn_resilient_in(cfg, graph, None, RunPolicy::default(), arena).map(|r| r.run)
}

/// As [`run_gnn`], but under a fault plan and run-level supervision (see
/// [`Supervisor`]): collectives run verified with quarantine-aware
/// recovery, each layer commits through an iteration checkpoint of the
/// live feature block, and unrecoverable faults end the run with a typed
/// [`pidcomm::RunOutcome`], never a fault error. With `fault = None`
/// nothing is verified or checkpointed and the run is [`run_gnn`]'s.
///
/// # Errors
///
/// As [`run_gnn`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_gnn_resilient(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_gnn_resilient_in(cfg, graph, fault, policy, &mut SystemArena::new())
}

/// As [`run_gnn_resilient`], sourcing allocations from `arena`. The one
/// GNN runner: every other entry point wraps it.
///
/// # Errors
///
/// As [`run_gnn_resilient`].
pub fn run_gnn_resilient_in(
    cfg: &GnnConfig,
    graph: &CsrGraph,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let s = isqrt(p)?;
    let f = cfg.feature_dim;
    let n = graph.num_vertices();
    // The final gather reads the layout the last layer's collective
    // leaves (every group member holding its group's row-block).
    ensure(cfg.layers > 0, || {
        Error::InvalidShape("GNN needs at least one layer".into())
    })?;
    ensure(n.is_multiple_of(s * s) && f.is_multiple_of(s), || {
        Error::InvalidShape(format!(
            "GNN on {s}x{s} PEs needs vertices ({n}) divisible by {} and feature dim ({f}) by {s}",
            s * s
        ))
    })?;
    let bs = n / s; // vertices per block
    let es = esize(cfg.dtype);
    ensure(es <= 4, || {
        Error::InvalidBuffer(format!(
            "GNN supports 1/2/4-byte elements, got {} ({es} bytes)",
            cfg.dtype
        ))
    })?;
    let block_bytes = bs * f * es;
    ensure(block_bytes.is_multiple_of(8 * s), || {
        Error::InvalidBuffer(format!(
            "GNN feature block of {block_bytes} bytes breaks the collectives' 8 x {s} alignment"
        ))
    })?;

    let geom = DimmGeometry::with_pes(p);
    let mut sys = arena.system(geom);
    if let Some(fp) = &fault {
        sys.attach_fault_plan(fp.clone());
        sys.set_verify_writes(true);
    }
    let mut plans = arena.take_extension::<PlanCache>();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![s, s])?, geom)?;
    let comm = Communicator::new(manager)
        .with_opt(cfg.opt)
        .with_threads(cfg.threads);
    let mut profile = AppProfile::new(
        format!("GNN {}", cfg.variant.label()),
        format!("{n}v/int{}", 8 * es),
    );
    let mut sup = Supervisor::new(p, policy);

    let tile = tiles(graph, s);
    let weights: Vec<MatI32> = (0..cfg.layers)
        .map(|l| MatI32::random(f, f, 3, 0x6e6e + l as u64))
        .collect();
    let f0 = MatI32::random(n, f, 3, 0xfea7);

    // MRAM layout.
    const FEAT: usize = 0; // this PE's current feature block (bs x f)
    let partial_off = block_bytes.next_multiple_of(64);
    let reduced_off = partial_off + block_bytes.next_multiple_of(64);
    let out_off = reduced_off + block_bytes.next_multiple_of(64);

    // Initial feature blocks: at layer 0 the active mask is "10" (x
    // varies within a group), so PE (x, y) must hold block x. The
    // per-group payloads come from (and return to) the arena's buffer-set
    // pool; feature rows are encoded straight into their rank-major slot.
    let mask0: DimMask = "10".parse()?;
    let groups0 = comm.manager().groups(&mask0)?;
    let mut scatter_bufs = arena.byte_set(groups0.len(), s * block_bytes);
    for g in &groups0 {
        let buf = &mut scatter_bufs[g.id];
        for rank in 0..g.members.len() {
            // Member `rank` holds feature rows [rank*bs, (rank+1)*bs).
            let dst = &mut buf[rank * block_bytes..(rank + 1) * block_bytes];
            for (lr, r) in (rank * bs..(rank + 1) * bs).enumerate() {
                kernels::encode_trunc(
                    cfg.dtype,
                    f0.row(r),
                    &mut dst[lr * f * es..(lr + 1) * f * es],
                );
            }
        }
    }
    let scatter_plan = comm.plan_cached(
        &mut plans,
        Primitive::Scatter,
        &mask0,
        &BufferSpec::new(0, FEAT, block_bytes).with_dtype(cfg.dtype),
        ReduceKind::Sum,
    )?;

    'run: {
        // Setup: the feature scatter restages everything from the host
        // buffers, so a re-run needs no checkpointed MRAM state. The
        // payloads are dead once the setup commits.
        let setup = sup.iteration(&mut sys, arena, &[], |sys, at| {
            Ok(at
                .collective(&comm, sys, &scatter_plan, Some(&scatter_bufs))?
                .reports[0]
                .clone())
        });
        arena.recycle_byte_set(scatter_bufs);
        match setup? {
            Iteration::Done(report) => profile.record(&report),
            Iteration::Abort(_) => break 'run,
        }

        for (layer, w) in weights.iter().enumerate() {
            let mask: DimMask = if layer % 2 == 0 {
                "10".parse()?
            } else {
                "01".parse()?
            };
            // Host-kernel work items run one per PE; recover each PE's
            // (group, rank) coordinates up front since groups partition
            // the PE array exactly.
            let groups = comm.manager().groups(&mask)?;
            let mut owner = vec![(0usize, 0usize); p];
            for g in &groups {
                for (rank, &pe) in g.members.iter().enumerate() {
                    owner[pe.index()] = (g.id, rank);
                }
            }
            // The two per-layer plans, built (cached) outside the retry
            // body. Masks alternate, so each is planned at most twice.
            let (first_plan, second_plan) = match cfg.variant {
                GnnVariant::RsAr => (
                    comm.plan_cached(
                        &mut plans,
                        Primitive::ReduceScatter,
                        &mask,
                        &BufferSpec::new(partial_off, reduced_off, block_bytes)
                            .with_dtype(cfg.dtype),
                        ReduceKind::Sum,
                    )?,
                    comm.plan_cached(
                        &mut plans,
                        Primitive::AllReduce,
                        &mask,
                        &BufferSpec::new(partial_off, out_off, block_bytes).with_dtype(cfg.dtype),
                        ReduceKind::Sum,
                    )?,
                ),
                GnnVariant::ArAg => (
                    comm.plan_cached(
                        &mut plans,
                        Primitive::AllReduce,
                        &mask,
                        &BufferSpec::new(partial_off, reduced_off, block_bytes)
                            .with_dtype(cfg.dtype),
                        ReduceKind::Sum,
                    )?,
                    comm.plan_cached(
                        &mut plans,
                        Primitive::AllGather,
                        &mask,
                        &BufferSpec::new(partial_off, out_off, bs * (f / s) * es)
                            .with_dtype(cfg.dtype),
                        ReduceKind::Sum,
                    )?,
                ),
            };
            // The pair runs as one fused chain: step 0's reduced
            // aggregates land in MRAM, the combination kernel runs over
            // them as the inter-step hook, and step 1 consumes its output
            // directly — no host staging between the pair. Under a fault
            // plan the chain's merged rollback image covers both steps'
            // regions, so a mid-chain fault restores and replays the
            // whole pair (the hook re-runs deterministically from step
            // 0's restored output).
            let fused = comm.fuse(vec![first_plan.clone(), second_plan.clone()], &[])?;

            // The live state at a layer boundary is the feature block
            // (everything else is rewritten from it or read-only).
            match sup.iteration(&mut sys, arena, &[(FEAT, block_bytes)], |sys, at| {
                // Aggregation kernel: within its group, PE of rank r
                // computes A[i_group][r] · F_r, a partial of row-block
                // i_group. Per-edge row accumulation runs as an `add_wrap`
                // segment-sum over the feature block decoded into
                // per-worker scratch.
                let kernels = par_pes_with(
                    sys.pes_mut(),
                    cfg.threads,
                    || (vec![0i32; bs * f], vec![0i32; bs * f]),
                    |(fblk, partial), pid, pe| {
                        // simlint: hot(begin, gnn aggregation)
                        let (gid, rank) = owner[pid];
                        pe.read_sext(FEAT, cfg.dtype, fblk);
                        partial.fill(0);
                        let t = &tile[gid][rank];
                        for &(u, v) in t {
                            let (u, v) = (u as usize, v as usize);
                            kernels::add_wrap(
                                cfg.dtype,
                                &mut partial[u * f..(u + 1) * f],
                                &fblk[v * f..(v + 1) * f],
                            );
                        }
                        pe.write_trunc(partial_off, cfg.dtype, partial);
                        let edges = t.len() as u64;
                        KERNEL_SCALE
                            * pe_kernel_ns(
                                edges * (f * es) as u64 + block_bytes as u64,
                                4 * edges * f as u64,
                            )
                        // simlint: hot(end)
                    },
                );
                let agg_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                sys.run_kernel(agg_kernel);

                let (comb_kernel, first_report, second_report) = match cfg.variant {
                    GnnVariant::RsAr => {
                        let sub_rows = bs / s;
                        let mut comb_kernel = 0.0f64;
                        let exec = at.fused(&comm, sys, &fused, None, |_, sys| {
                            let kernels = par_pes_with(
                                sys.pes_mut(),
                                cfg.threads,
                                || (vec![0i32; sub_rows * f], vec![0i32; bs * f]),
                                |(rows, out), pid, pe| {
                                    // simlint: hot(begin, gnn rs-ar combine)
                                    let (_, rank) = owner[pid];
                                    let sub_bytes = sub_rows * f * es;
                                    pe.read_sext(reduced_off, cfg.dtype, rows);
                                    out.fill(0);
                                    let base = rank * sub_rows * f;
                                    for r in 0..sub_rows {
                                        let acc = &mut out[base + r * f..base + (r + 1) * f];
                                        for k in 0..f {
                                            let a = rows[r * f + k];
                                            if a == 0 {
                                                continue;
                                            }
                                            kernels::axpy_wrap(cfg.dtype, acc, a, w.row(k));
                                        }
                                    }
                                    kernels::relu_i32(&mut out[base..base + sub_rows * f]);
                                    pe.write_trunc(partial_off, cfg.dtype, out);
                                    KERNEL_SCALE
                                        * pe_kernel_ns(
                                            (sub_bytes + f * f * es) as u64,
                                            12 * (sub_rows * f * f) as u64,
                                        )
                                    // simlint: hot(end)
                                },
                            );
                            comb_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                            sys.run_kernel(comb_kernel);
                            Ok(())
                        })?;
                        let mut reports = exec.reports.into_iter();
                        let first_report = reports.next().expect("fused pair: RS report");
                        let second_report = reports.next().expect("fused pair: AR report");
                        (comb_kernel, first_report, second_report)
                    }
                    GnnVariant::ArAg => {
                        let sub_cols = f / s;
                        let mut comb_kernel = 0.0f64;
                        let exec = at.fused(&comm, sys, &fused, None, |_, sys| {
                            let kernels = par_pes_with(
                                sys.pes_mut(),
                                cfg.threads,
                                || (vec![0i32; bs * f], vec![0i32; bs * sub_cols]),
                                |(agg, colblk), pid, pe| {
                                    // simlint: hot(begin, gnn ar-ag combine)
                                    let (_, rank) = owner[pid];
                                    pe.read_sext(reduced_off, cfg.dtype, agg);
                                    colblk.fill(0);
                                    for r in 0..bs {
                                        let acc = &mut colblk[r * sub_cols..(r + 1) * sub_cols];
                                        for k in 0..f {
                                            let a = agg[r * f + k];
                                            if a == 0 {
                                                continue;
                                            }
                                            let wcols =
                                                &w.row(k)[rank * sub_cols..(rank + 1) * sub_cols];
                                            kernels::axpy_wrap(cfg.dtype, acc, a, wcols);
                                        }
                                    }
                                    kernels::relu_i32(colblk);
                                    pe.write_trunc(partial_off, cfg.dtype, colblk);
                                    KERNEL_SCALE
                                        * pe_kernel_ns(
                                            (block_bytes + f * sub_cols * es) as u64,
                                            12 * (bs * f * sub_cols) as u64,
                                        )
                                    // simlint: hot(end)
                                },
                            );
                            comb_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                            sys.run_kernel(comb_kernel);
                            Ok(())
                        })?;
                        let mut reports = exec.reports.into_iter();
                        let first_report = reports.next().expect("fused pair: AR report");
                        let second_report = reports.next().expect("fused pair: AG report");
                        // The gathered layout is column-block-major;
                        // interleaving it back to row-major is a pure row
                        // scatter (decode + re-encode at one width is the
                        // identity on bytes), one `copy_rows` per block
                        // through per-worker scratch.
                        let colblk_bytes = bs * sub_cols * es;
                        par_pes_with(
                            sys.pes_mut(),
                            cfg.threads,
                            || vec![0u8; block_bytes],
                            |full, _, pe| {
                                // simlint: hot(begin, gnn layout transpose)
                                {
                                    let bytes = pe.read(out_off, block_bytes);
                                    for blk in 0..s {
                                        kernels::copy_rows(
                                            full,
                                            blk * sub_cols * es,
                                            f * es,
                                            &bytes[blk * colblk_bytes..(blk + 1) * colblk_bytes],
                                            0,
                                            sub_cols * es,
                                            sub_cols * es,
                                            bs,
                                        );
                                    }
                                }
                                pe.write(out_off, full);
                                // simlint: hot(end)
                            },
                        );
                        (comb_kernel, first_report, second_report)
                    }
                };

                // The result block becomes the next layer's feature block.
                par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                    // simlint: hot(begin, gnn feature rotate)
                    pe.copy_within_region(out_off, FEAT, block_bytes);
                    // simlint: hot(end)
                });
                Ok((agg_kernel, first_report, comb_kernel, second_report))
            })? {
                Iteration::Done((agg_kernel, first_report, comb_kernel, second_report)) => {
                    profile.record_kernel(agg_kernel + sys.model().kernel_launch_ns);
                    profile.record(&first_report);
                    profile.record_kernel(comb_kernel + sys.model().kernel_launch_ns);
                    profile.record(&second_report);
                }
                Iteration::Abort(_) => break 'run,
            }
        }
    }

    // Final gather and validation, outside the labeled block so an
    // aborted run still reports its mismatch count.
    let (expected, cpu_ns) = cpu_reference(graph, &f0, &weights, cfg.dtype);
    let mut mismatched = (n * f) as u64;
    if sup.outcome() != pidcomm::RunOutcome::DeadlineExceeded
        && sup.outcome() != pidcomm::RunOutcome::BudgetExhausted
    {
        let last_mask: DimMask = if (cfg.layers - 1).is_multiple_of(2) {
            "10".parse()?
        } else {
            "01".parse()?
        };
        let gather_plan = comm.plan_cached(
            &mut plans,
            Primitive::Gather,
            &last_mask,
            &BufferSpec::new(FEAT, 0, block_bytes).with_dtype(cfg.dtype),
            ReduceKind::Sum,
        )?;
        match sup.iteration(&mut sys, arena, &[], |sys, at| {
            let exec = at.collective(&comm, sys, &gather_plan, None)?;
            Ok((
                exec.reports[0].clone(),
                exec.host_out.expect("gather produces host output"),
            ))
        })? {
            Iteration::Done((report, gathered)) => {
                profile.record(&report);
                // After the final layer every member of group g holds
                // block g (the group's row-block); take rank 0's copy.
                let groups = comm.manager().groups(&last_mask)?;
                let mut mm = 0u64;
                for g in &groups {
                    let blk = &gathered[g.id][..block_bytes];
                    let got = mat_from_bytes(bs, f, blk, cfg.dtype);
                    for r in 0..bs {
                        mm += got
                            .row(r)
                            .iter()
                            .zip(expected.row(g.id * bs + r))
                            .filter(|(a, b)| a != b)
                            .count() as u64;
                    }
                }
                mismatched = mm;
            }
            Iteration::Abort(_) => {}
        }
    }
    let validated = mismatched == 0;
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

    fn small_graph() -> CsrGraph {
        rmat(10, 4, RmatParams::skewed(21)) // 1024 vertices
    }

    #[test]
    fn gnn_rsar_validates() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 3,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let run = run_gnn(&cfg, &small_graph()).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
    }

    #[test]
    fn gnn_arag_validates() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 3,
            variant: GnnVariant::ArAg,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let run = run_gnn(&cfg, &small_graph()).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllReduce) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AllGather) > 0.0);
    }

    #[test]
    fn variants_agree_with_each_other() {
        let g = small_graph();
        let mk = |variant| GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        let a = run_gnn(&mk(GnnVariant::RsAr), &g).unwrap();
        let b = run_gnn(&mk(GnnVariant::ArAg), &g).unwrap();
        // Both validate against the same CPU reference -> they agree.
        assert!(a.validated && b.validated);
    }

    #[test]
    fn narrow_widths_validate_and_int8_skips_domain_transfer() {
        let g = small_graph();
        let mk = |dtype| GnnConfig {
            threads: 0,
            pes: 64,
            feature_dim: 16,
            layers: 2,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype,
        };
        let i8run = run_gnn(&mk(DType::I8), &g).unwrap();
        let i16run = run_gnn(&mk(DType::I16), &g).unwrap();
        assert!(i8run.validated && i16run.validated);
        // 8-bit elements avoid domain transfer in RS/AR (§V-C); the
        // remaining DT comes only from Scatter/Gather, so even though the
        // int8 run moves half the bytes of int16, its DT drops by far more
        // than half.
        assert!(
            i8run.profile.comm.domain_transfer < 0.4 * i16run.profile.comm.domain_transfer,
            "int8 DT {} vs int16 DT {}",
            i8run.profile.comm.domain_transfer,
            i16run.profile.comm.domain_transfer
        );
    }

    #[test]
    fn non_square_pes_rejected() {
        let cfg = GnnConfig {
            threads: 0,
            pes: 128,
            feature_dim: 16,
            layers: 1,
            variant: GnnVariant::RsAr,
            opt: OptLevel::Full,
            dtype: DType::I32,
        };
        match run_gnn(&cfg, &small_graph()) {
            Err(pidcomm::Error::InvalidShape(msg)) => assert!(msg.contains("square PE count")),
            other => panic!("expected InvalidShape, got {other:?}"),
        }
    }
}

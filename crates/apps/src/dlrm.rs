//! Deep learning recommendation model on a 3-D hypercube (§VII-A, Fig. 11).
//!
//! The embedding stage is partitioned three ways, mapped to the hypercube
//! axes: **x** splits the embedding dimension (column division), **y**
//! splits each table's rows (row division), and **z** splits the tables
//! (table division). The communication structure follows Fig. 11:
//!
//! 1. `AlltoAll("111")` distributes the batch's lookup indices to the PEs
//!    owning the referenced tables and rows (duplicated across x, since
//!    every column shard needs them).
//! 2. A lookup kernel sum-pools each sample's rows (multi-hot features).
//! 3. `ReduceScatter("010")` combines the row-shard partial sums along y.
//! 4. `AlltoAll("101")` relocates the pooled vectors so each PE ends with
//!    complete embedding vectors for its sample subset.
//!
//! The run is validated bit-exactly against a direct CPU pooling reference
//! and finishes with the top-MLP kernel and a Gather.

use std::sync::Arc;

use pidcomm::{
    par_chunks, par_pes, par_pes_with, BufferSpec, Communicator, DimMask, Error, HypercubeManager,
    HypercubeShape, Iteration, OptLevel, PlanCache, Primitive, RunPolicy, Supervisor,
};
use pidcomm_data::dlrm::{embedding_value, generate_batch, DlrmConfig};
use pim_sim::{kernels, DType, DimmGeometry, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::profile::AppProfile;
use crate::{ensure, AppRun, ResilientRun};

/// Rows summed per (sample, table) lookup (multi-hot pooling).
const POOL_K: usize = 2;

/// DLRM run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlrmRunConfig {
    /// Workload (tables, rows, embedding dim, batch).
    pub workload: DlrmConfig,
    /// Number of PEs.
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

/// Hypercube split `[x, y, z]` for a PE count (x = column division,
/// y = row division, z = table division ≤ number of tables).
fn split(pes: usize, tables: usize, dim: usize) -> pidcomm::Result<[usize; 3]> {
    let tz = tables.min(8);
    ensure(
        pes > 0 && tz > 0 && dim > 0 && pes.is_multiple_of(tz),
        || {
            Error::InvalidShape(format!(
                "DLRM needs an embedding dim ({dim}) and a PE count ({pes}) divisible by \
             the table division ({tz})"
            ))
        },
    )?;
    let rest = pes / tz;
    // Column division cannot exceed the embedding dimension.
    let tx = (1 << (rest.trailing_zeros() / 2)).min(dim).min(8);
    let ty = rest / tx;
    Ok([tx, ty, tz])
}

/// One lookup routed through the index AlltoAll: `(sample, table, row)`
/// packed into a u64.
fn pack(sample: usize, table: usize, row: u32) -> u64 {
    ((sample as u64) << 32) | ((table as u64) << 24) | row as u64
}

fn unpack(v: u64) -> (usize, usize, u32) {
    (
        (v >> 32) as usize,
        ((v >> 24) & 0xFF) as usize,
        (v & 0xFF_FFFF) as u32,
    )
}

/// Sentinel marking a padding slot in index chunks.
const PAD: u64 = u64::MAX;

/// Per-worker cache of materialized embedding rows: `embedding_value` is a
/// per-element hash, and the same `(table, row)` is looked up many times
/// across samples (multi-hot pooling over a bounded row space), so each
/// worker materializes a touched row once and pooling runs as `add_wrap`
/// calls over the cached slice instead of per-element hash calls. The row
/// space is bounded (`tables × rows_per_table`), so the cache is a flat
/// slot table indexed directly — no hashing on the lookup path. Purely a
/// memoization — the cached values are the deterministic
/// `embedding_value` outputs, so sums are bit-identical.
struct RowCache {
    d: usize,
    rows_per_table: usize,
    slots: Vec<Option<Box<[i32]>>>,
}

impl RowCache {
    fn new(w: &DlrmConfig) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(w.num_tables * w.rows_per_table, || None);
        Self {
            d: w.embedding_dim,
            rows_per_table: w.rows_per_table,
            slots,
        }
    }

    /// The cached full-width row for `(table, row)`, materialized on
    /// first touch.
    fn row(&mut self, table: usize, row: u32) -> &[i32] {
        let d = self.d;
        self.slots[table * self.rows_per_table + row as usize]
            .get_or_insert_with(|| (0..d).map(|c| embedding_value(table, row, c)).collect())
    }
}

/// CPU reference: pooled embedding vectors per sample (all tables
/// concatenated), plus a roofline time for lookup + pooling.
fn cpu_reference(cfg: &DlrmConfig, batch: &pidcomm_data::LookupBatch) -> (Vec<Vec<i32>>, f64) {
    let cpu = CpuModel::xeon_5215();
    let d = cfg.embedding_dim;
    let mut rows = RowCache::new(cfg);
    let mut out = Vec::with_capacity(cfg.batch_size);
    for tables in batch.indices.iter() {
        let mut vec = vec![0i32; cfg.num_tables * d];
        for (t, &r0) in tables.iter().enumerate() {
            for k in 0..POOL_K {
                let row = ((r0 as usize + k * 97) % cfg.rows_per_table) as u32;
                let vals = rows.row(t, row);
                kernels::add_wrap(DType::I32, &mut vec[t * d..(t + 1) * d], vals);
            }
        }
        out.push(vec);
    }
    let lookups = (cfg.batch_size * cfg.num_tables * POOL_K) as u64;
    let time = cpu.time_mixed_ns(lookups * d as u64, 0, lookups * (d as u64 * 4 + 64));
    (out, time)
}

/// Runs DLRM and validates the pooled embedding vectors.
///
/// # Errors
///
/// [`Error::InvalidShape`] when the PEs cannot be split three ways over
/// the tables, rows and embedding dimension, or the batch does not
/// divide across the PEs (at least one sample per relocation
/// destination); plus collective validation errors.
pub fn run_dlrm(cfg: &DlrmRunConfig) -> pidcomm::Result<AppRun> {
    run_dlrm_in(cfg, &mut SystemArena::new())
}

/// As [`run_dlrm`], but sourcing the `PimSystem` and staging buffers from
/// `arena` (and returning them to it), so repeated runs — e.g. consecutive
/// sweep cells on one worker — reuse allocations. This is
/// [`run_dlrm_resilient_in`] with no fault plan and the default policy.
///
/// # Errors
///
/// As [`run_dlrm`].
pub fn run_dlrm_in(cfg: &DlrmRunConfig, arena: &mut SystemArena) -> pidcomm::Result<AppRun> {
    run_dlrm_resilient_in(cfg, None, RunPolicy::default(), arena).map(|r| r.run)
}

/// As [`run_dlrm`], but under a fault plan and run-level supervision (see
/// [`Supervisor`]): collectives run verified with quarantine-aware
/// recovery, the embedding pipeline (index AlltoAll → lookup →
/// ReduceScatter → relocation AlltoAll) commits as one iteration, and
/// unrecoverable faults end the run with a typed [`pidcomm::RunOutcome`],
/// never a fault error. With `fault = None` nothing is verified and the
/// run is [`run_dlrm`]'s.
///
/// Every pipeline stage restages its inputs from host data or from
/// buffers written earlier in the same attempt, so iteration checkpoints
/// are empty and a re-run replays the whole pipeline.
///
/// # Errors
///
/// As [`run_dlrm`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_dlrm_resilient(
    cfg: &DlrmRunConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_dlrm_resilient_in(cfg, fault, policy, &mut SystemArena::new())
}

/// As [`run_dlrm_resilient`], sourcing allocations from `arena`. The one
/// DLRM runner: every other entry point wraps it.
///
/// # Errors
///
/// As [`run_dlrm_resilient`].
#[allow(clippy::needless_range_loop)] // src/dst PE ids drive the routing math
pub fn run_dlrm_resilient_in(
    cfg: &DlrmRunConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let w = &cfg.workload;
    let p = cfg.pes;
    let d = w.embedding_dim;
    let t = w.num_tables;
    let [tx, ty, tz] = split(p, t, d)?;
    ensure(
        tx * ty * tz == p
            && d.is_multiple_of(tx)
            && w.rows_per_table.is_multiple_of(ty)
            && t.is_multiple_of(tz),
        || {
            Error::InvalidShape(format!(
                "DLRM split {tx}x{ty}x{tz} of {p} PEs does not divide \
                 dim {d}, {} rows per table and {t} tables",
                w.rows_per_table
            ))
        },
    )?;
    let comps = d / tx; // embedding components per column shard
    let tables_per_z = t / tz;
    let rows_per_y = w.rows_per_table / ty;
    let bs = w.batch_size;
    // After the ReduceScatter, each y-fixed group of tx*tz members splits
    // the y-chunk's samples among its members for the relocation
    // AlltoAll("101"); every member needs at least one.
    let samples_per_y = bs / ty;
    let n2 = tx * tz;
    let samples_per_dest = samples_per_y / n2;
    ensure(bs.is_multiple_of(p) && samples_per_dest >= 1, || {
        Error::InvalidShape(format!(
            "DLRM batch {bs} must divide across {p} PEs with at least one sample per \
             relocation destination"
        ))
    })?;

    let geom = DimmGeometry::with_pes(p);
    let mut sys = arena.system(geom);
    if let Some(fp) = &fault {
        sys.attach_fault_plan(fp.clone());
        sys.set_verify_writes(true);
    }
    let mut plans = arena.take_extension::<PlanCache>();
    let manager = HypercubeManager::new(HypercubeShape::new(vec![tx, ty, tz])?, geom)?;
    let comm = Communicator::new(manager)
        .with_opt(cfg.opt)
        .with_threads(cfg.threads);
    let mut profile = AppProfile::new("DLRM", format!("d{d}"));
    let mut sup = Supervisor::new(p, policy);

    let batch = generate_batch(w);
    let coords = |pe: usize| {
        let x = pe % tx;
        let y = (pe / tx) % ty;
        let z = pe / (tx * ty);
        (x, y, z)
    };

    // Host staging, all computed up front so every attempt restages the
    // identical bytes.

    // ---- Raw batch shards (sample indices). -----------------------------
    let mask_all = DimMask::all(comm.manager().shape());
    let shard = bs / p;
    let shard_bytes = (shard * t * 8).next_multiple_of(8);
    let mut batch_host = arena.bytes(p * shard_bytes);
    par_chunks(&mut batch_host, shard_bytes, cfg.threads, |pe, chunk| {
        for si in 0..shard {
            let s = pe * shard + si;
            for (ti, &row) in batch.indices[s].iter().enumerate() {
                let v = pack(s, ti, row);
                let off = (si * t + ti) * 8;
                chunk[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
    });
    let batch_host = [batch_host];

    // ---- Index routing for AlltoAll("111"). -----------------------------
    // Destination of (sample, table, row): z = table shard, y = row shard,
    // every x (duplicated). Chunk capacity is computed exactly, then
    // padded uniformly. Each source PE's routing depends only on its own
    // batch shard, so the expansion fans out one host-kernel work item
    // per source row of the flat [src * p + dst] routing grid, whose p^2
    // lists come from (and return to) the arena's index-list pool.
    let mut per_dest = arena.index_lists(p * p);
    par_chunks(&mut per_dest, p, cfg.threads, |src, dests| {
        for si in 0..shard {
            let s = src * shard + si;
            for (ti, &r0) in batch.indices[s].iter().enumerate() {
                for k in 0..POOL_K {
                    let row = ((r0 as usize + k * 97) % w.rows_per_table) as u32;
                    let dz = ti / tables_per_z;
                    let dy = row as usize / rows_per_y;
                    for dx in 0..tx {
                        let dst = dx + tx * (dy + ty * dz);
                        dests[dst].push(pack(s, ti, row));
                    }
                }
            }
        }
    });
    let max_entries = per_dest.iter().map(Vec::len).max().unwrap_or(0).max(1);
    let chunk_entries = max_entries.next_multiple_of(2).max(2);
    let idx_b = p * chunk_entries * 8;
    let idx_src = shard_bytes.next_multiple_of(64);
    let idx_dst = idx_src + idx_b.next_multiple_of(64);

    // ---- Remaining MRAM layout. -----------------------------------------
    // Partial buffer: all samples x owned tables x owned components.
    let partial_entries = bs * tables_per_z * comps;
    let partial_bytes = (partial_entries * 4).next_multiple_of(8 * ty);
    let pool_src = idx_dst + idx_b.next_multiple_of(64);
    let pool_dst = pool_src + partial_bytes.next_multiple_of(64);
    // After the RS, PE (x, y, z) holds chunk y: samples sub-range
    // [y*bs/ty, ...) of the pooled (table z-shard, comps x-shard) values.
    // Within each y-fixed group, member (x, z) holds the y-chunk's
    // samples for its (comps, tables) shard; destination (x', z') owns a
    // samples sub-subset and wants all shards.
    let rs_chunk_bytes = partial_bytes / ty;
    let aa2_chunk = samples_per_dest * tables_per_z * comps * 4;
    let aa2_b = (n2 * aa2_chunk).next_multiple_of(8 * n2);
    let aa2_src = pool_dst + rs_chunk_bytes.next_multiple_of(64);
    let aa2_dst = aa2_src + aa2_b.next_multiple_of(64);
    let aa2_payload = n2 * aa2_chunk;
    let score_bytes = (samples_per_dest * 8).next_multiple_of(8);
    let score_off = aa2_dst + aa2_b.next_multiple_of(64);

    // ---- Plans (pooled across runs in the arena cache). -----------------
    let scatter_plan = comm.plan_cached(
        &mut plans,
        Primitive::Scatter,
        &mask_all,
        &BufferSpec::new(0, 0, shard_bytes).with_dtype(DType::U64),
        ReduceKind::Sum,
    )?;
    let idx_aa_plan = comm.plan_cached(
        &mut plans,
        Primitive::AlltoAll,
        &mask_all,
        &BufferSpec::new(idx_src, idx_dst, idx_b).with_dtype(DType::U64),
        ReduceKind::Sum,
    )?;
    let mask_y: DimMask = "010".parse()?;
    let rs_plan = comm.plan_cached(
        &mut plans,
        Primitive::ReduceScatter,
        &mask_y,
        &BufferSpec::new(pool_src, pool_dst, partial_bytes).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;
    let mask_xz: DimMask = "101".parse()?;
    let aa2_plan = comm.plan_cached(
        &mut plans,
        Primitive::AlltoAll,
        &mask_xz,
        &BufferSpec::new(aa2_src, aa2_dst, aa2_b).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;
    let gather_plan = comm.plan_cached(
        &mut plans,
        Primitive::Gather,
        &mask_all,
        &BufferSpec::new(score_off, 0, score_bytes).with_dtype(DType::I64),
        ReduceKind::Sum,
    )?;
    // The pipeline core runs as one fused chain: index AlltoAll →
    // ReduceScatter → relocation AlltoAll, with the pooled lookup and the
    // rank-major repack as inter-step hooks, so no intermediate result
    // takes a host staging round-trip. Under a fault plan a mid-chain
    // fault restores the chain's merged region image (which covers the
    // encoded index buffer, so the hooks replay deterministically) and
    // re-runs the whole pipeline.
    let fused_pipeline = comm.fuse(
        vec![idx_aa_plan.clone(), rs_plan.clone(), aa2_plan.clone()],
        &[],
    )?;

    let (expected, cpu_lookup_ns) = cpu_reference(w, &batch);
    let mut mismatched = (bs * t * d) as u64;
    'run: {
        // Setup: the batch scatter restages from the host buffer, which
        // is dead once the setup commits.
        let setup = sup.iteration(&mut sys, arena, &[], |sys, at| {
            Ok(at
                .collective(&comm, sys, &scatter_plan, Some(&batch_host))?
                .reports[0]
                .clone())
        });
        let [batch_host] = batch_host;
        arena.recycle_bytes(batch_host);
        match setup? {
            Iteration::Done(report) => profile.record(&report),
            Iteration::Abort(_) => break 'run,
        }

        // The embedding pipeline as one iteration: every stage restages
        // its input from host data or same-attempt buffers, so the
        // checkpoint is empty and a re-run replays the whole pipeline.
        match sup.iteration(&mut sys, arena, &[], |sys, at| {
            // Encode each source PE's routed index chunks (PAD-padded)
            // into its AlltoAll send buffer.
            par_pes_with(
                sys.pes_mut(),
                cfg.threads,
                Vec::new,
                |buf: &mut Vec<u8>, src, pe| {
                    // simlint: hot(begin, dlrm index encode)
                    buf.clear();
                    buf.resize(idx_b, 0xFF); // PAD everywhere
                    for (dst, entries) in per_dest[src * p..(src + 1) * p].iter().enumerate() {
                        let off = dst * chunk_entries * 8;
                        kernels::encode_u64(entries, &mut buf[off..off + entries.len() * 8]);
                    }
                    pe.write(idx_src, buf);
                    // simlint: hot(end)
                },
            );
            let mut max_kernel = 0.0f64;
            let exec = at.fused(&comm, sys, &fused_pipeline, None, |step, sys| {
                match step {
                    // After the index AlltoAll: sum-pool owned rows.
                    // Each worker materializes every touched (table, row)
                    // embedding row once into its private cache; pooling
                    // then runs as an `add_wrap` over the PE's column
                    // slice of the cached row — the same multi-hot rows
                    // recur across samples, and all PEs of one worker
                    // share the cache.
                    0 => {
                        let kernels = par_pes_with(
                            sys.pes_mut(),
                            cfg.threads,
                            || (vec![0i32; partial_entries], RowCache::new(w)),
                            |(partial, rows), pid, pe| {
                                // simlint: hot(begin, dlrm pooled lookup)
                                let (x, y, z) = coords(pid);
                                let _ = y;
                                partial.fill(0);
                                let mut lookups = 0u64;
                                {
                                    let received = pe.read(idx_dst, idx_b);
                                    for e in received.chunks_exact(8) {
                                        let v = u64::from_le_bytes(e.try_into().unwrap());
                                        if v == PAD {
                                            continue;
                                        }
                                        let (s, ti, row) = unpack(v);
                                        // Degraded transport can deliver
                                        // corrupted entries; skip anything
                                        // out of range instead of indexing
                                        // with garbage (clean runs never
                                        // hit this — every routed entry is
                                        // valid).
                                        if s >= bs
                                            || ti >= t
                                            || row as usize >= w.rows_per_table
                                            || ti / tables_per_z != z
                                        {
                                            continue;
                                        }
                                        let local_t = ti % tables_per_z;
                                        lookups += 1;
                                        let base = (s * tables_per_z + local_t) * comps;
                                        let vals = rows.row(ti, row);
                                        kernels::add_wrap(
                                            DType::I32,
                                            &mut partial[base..base + comps],
                                            &vals[x * comps..(x + 1) * comps],
                                        );
                                    }
                                }
                                pe.write_i32s(pool_src, partial);
                                // simlint: allow(pe-choke-point, reason = "zero-fills freshly staged PE-local scratch pad, not transport; the payload above goes through the typed-view encoder")
                                pe.slice_mut(
                                    pool_src + partial_entries * 4,
                                    partial_bytes - partial_entries * 4,
                                )
                                .fill(0);
                                pe_kernel_ns(
                                    lookups * (comps as u64 * 4 + 8),
                                    6 * lookups * comps as u64,
                                )
                                // simlint: hot(end)
                            },
                        );
                        max_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                        sys.run_kernel(max_kernel);
                    }
                    // After the ReduceScatter: stage the RS chunk as
                    // destination-rank-major chunks. The chunk layout
                    // ([sample in y-range][local table][comp] i32)
                    // already *is* rank-major — destination rank r's
                    // samples are the contiguous sub-range
                    // [r * samples_per_dest, (r+1) * samples_per_dest) —
                    // so the rearrangement is one in-PE copy plus zeroing
                    // the pad.
                    _ => {
                        par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                            // simlint: hot(begin, dlrm rank-major repack)
                            pe.copy_within_region(pool_dst, aa2_src, aa2_payload);
                            // simlint: allow(pe-choke-point, reason = "zero-fills the PE-local alignment pad after an in-PE copy, not transport")
                            pe.slice_mut(aa2_src + aa2_payload, aa2_b - aa2_payload)
                                .fill(0);
                            // simlint: hot(end)
                        });
                    }
                }
                Ok(())
            })?;
            let mut reports = exec.reports.into_iter();
            let aa1_report = reports.next().expect("fused pipeline: index AA report");
            let rs_report = reports.next().expect("fused pipeline: RS report");
            let aa2_report = reports.next().expect("fused pipeline: AA2 report");
            Ok((aa1_report, max_kernel, rs_report, aa2_report))
        })? {
            Iteration::Done((aa1_report, max_kernel, rs_report, aa2_report)) => {
                profile.record(&aa1_report);
                profile.record_kernel(max_kernel + sys.model().kernel_launch_ns);
                profile.record(&rs_report);
                profile.record(&aa2_report);
            }
            Iteration::Abort(_) => break 'run,
        }

        // Assembly + divergence count (read-only, no writes to
        // supervise): per-chunk payloads decode as one `decode_i32` run into
        // per-worker scratch, then scatter as comps-wide rows into the
        // sample vector.
        let per_pe_mm = par_pes_with(
            sys.pes_mut(),
            cfg.threads,
            || (vec![0i32; t * d], vec![0i32; tables_per_z * comps]),
            |(vec, run), pid, pe| {
                // simlint: hot(begin, dlrm vector assembly)
                let (x, y, z) = coords(pid);
                let my_rank = x + tx * z; // rank within the "101" group (x fastest)
                let received = pe.read(aa2_dst, aa2_b);
                let mut mm = 0u64;
                for sd in 0..samples_per_dest {
                    let s = y * samples_per_y + my_rank * samples_per_dest + sd;
                    vec.fill(0);
                    for src_rank in 0..n2 {
                        let (sx, sz) = (src_rank % tx, src_rank / tx);
                        let base = src_rank * aa2_chunk + sd * tables_per_z * comps * 4;
                        kernels::decode_i32(&received[base..base + tables_per_z * comps * 4], run);
                        for lt in 0..tables_per_z {
                            let at = (sz * tables_per_z + lt) * d + sx * comps;
                            vec[at..at + comps].copy_from_slice(&run[lt * comps..(lt + 1) * comps]);
                        }
                    }
                    mm += vec.iter().zip(&expected[s]).filter(|(a, b)| a != b).count() as u64;
                }
                mm
                // simlint: hot(end)
            },
        );
        mismatched = per_pe_mm.into_iter().sum();

        // Bottom + top MLP stack: each PE processes its samples through 8
        // dense layers of width t*d (compute only; the paper profiles this
        // as Kernel — DLRM is its most kernel-heavy benchmark). Then the
        // score gather; scores restage each attempt.
        let width = (t * d) as u64;
        let mlp_ops = samples_per_dest as u64 * 8 * 12 * width * width;
        let mlp_bytes = samples_per_dest as u64 * 8 * width * 4;
        let kernel = pe_kernel_ns(mlp_bytes, mlp_ops);
        match sup.iteration(&mut sys, arena, &[], |sys, at| {
            sys.run_kernel(kernel);
            par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                // simlint: hot(begin, dlrm score staging)
                // simlint: allow(pe-choke-point, reason = "stages PE-local placeholder scores before the Gather, not transport; the Gather itself moves them through Pe::write")
                pe.slice_mut(score_off, score_bytes).fill(1);
                // simlint: hot(end)
            });
            Ok(at.collective(&comm, sys, &gather_plan, None)?.reports[0].clone())
        })? {
            Iteration::Done(report) => {
                profile.record_kernel(kernel + sys.model().kernel_launch_ns);
                profile.record(&report);
            }
            Iteration::Abort(_) => {}
        }
    }
    arena.recycle_index_lists(per_dest);

    let validated = mismatched == 0;
    // The CPU reference also runs the top MLP.
    let width = (t * d) as u64;
    let cpu = CpuModel::xeon_5215();
    let cpu_mlp_ns = cpu.time_ns(bs as u64 * 8 * 2 * width * width, bs as u64 * 8 * width * 4);
    let modeled_ns = sys.meter().total();
    sys.detach_fault_plan();
    sys.set_verify_writes(false);
    arena.recycle(sys);
    arena.put_extension(plans);

    Ok(ResilientRun {
        run: AppRun {
            profile,
            cpu_ns: cpu_lookup_ns + cpu_mlp_ns,
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

    fn workload() -> DlrmConfig {
        DlrmConfig {
            num_tables: 8,
            rows_per_table: 1 << 10,
            embedding_dim: 16,
            batch_size: 1024,
            seed: 7,
        }
    }

    #[test]
    fn dlrm_validates_on_64_pes() {
        let cfg = DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_dlrm(&cfg).unwrap();
        assert!(run.validated);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::AlltoAll) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
    }

    #[test]
    fn dlrm_baseline_matches_and_is_slower() {
        let full = run_dlrm(&DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Full,
        })
        .unwrap();
        let base = run_dlrm(&DlrmRunConfig {
            threads: 0,
            workload: workload(),
            pes: 64,
            opt: OptLevel::Baseline,
        })
        .unwrap();
        assert!(base.validated);
        assert!(base.profile.comm_ns() > full.profile.comm_ns());
    }

    #[test]
    fn split_shapes_are_consistent() {
        for pes in [64, 128, 256, 512, 1024] {
            let [x, y, z] = split(pes, 8, 16).unwrap();
            assert_eq!(x * y * z, pes, "pes {pes}");
            assert!(x <= 16 && z <= 8);
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let v = pack(12345, 7, 0x00AB_CDEF);
        assert_eq!(unpack(v), (12345, 7, 0x00AB_CDEF));
    }
}

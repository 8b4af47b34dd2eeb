//! The optimized PID-Comm execution paths (§V of the paper).
//!
//! Every primitive follows the same three-phase structure:
//!
//! 1. **PE-assisted reordering** (phase A): each PE locally permutes its
//!    chunks so that, afterwards, every burst the host reads contains eight
//!    words with *distinct destinations* — one per lane.
//! 2. **Streaming host modulation** (phase B): the host reads bursts,
//!    applies a single register-level permutation (a byte-lane shuffle when
//!    cross-domain modulation applies, otherwise DT ∘ word-shift ∘ DT) and
//!    optionally a vertical SIMD reduction, then writes the register
//!    straight back to the destination entangled group. No host-memory
//!    staging.
//! 3. **PE-assisted reordering** (phase C): destination PEs fix up the
//!    local order of the received chunks.
//!
//! The index arithmetic for arbitrary groups: a communication group of size
//! `N` decomposes as `N = L × M` (lane ranks × entangled groups, see
//! [`EgCluster`]). A source PE with lane rank `i` pre-rotates the chunks
//! inside each destination-EG part by `i`, so the burst at part `m_d`,
//! slot `k` carries, in lane rank `i`, the chunk destined to lane rank
//! `(k + i) mod L` of EG `m_d`. Rotating the register by `k` aligns every
//! word with its destination lane, and the whole register is written to EG
//! `m_d` in one burst. Packed sibling instances (groups sharing the
//! entangled groups) rotate in lock-step inside the same register.
//!
//! # Execution engine
//!
//! Clusters touch disjoint entangled groups, so each cluster runs as an
//! independent task: it receives an exclusive [`EgView`] over its PEs and a
//! private [`CostSheet`], and the tasks fan out over scoped threads
//! ([`super::parallel`]). Sheets are merged in cluster order afterwards;
//! since every counter is an exact integer, the merged totals — and hence
//! the modeled times — are byte-identical to serial execution no matter how
//! the clusters were scheduled. Inside a task, the `(m_s, m_d, k)` loops
//! move whole chunks per call through the batched burst-run transport
//! instead of one 64-byte burst at a time.
//!
//! Every function here executes a [`CollectivePlan`]: the phase-A/C
//! permutation tables ([`PermCache`]), the per-cluster rotation schedules
//! and the resolved thread fan-out were all derived at *plan* time, so a
//! plan held across iterations (or pooled in a `PlanCache`) pays none of
//! that per call — the seed implementation recomputed the tables once per
//! PE per entangled group, the pre-plan engine once per call.
//!
//! # Fault model
//!
//! The streaming loops need no fault hooks of their own: every byte they
//! land — lane-permuted row writes, batched burst runs, reduction results
//! — funnels through [`pim_sim::pe::Pe::write`] on the destination PE (an
//! [`EgView`] borrows the system's hooked PEs), which is where
//! [`pim_sim::FaultPlan`] injection and read-after-write verification
//! live. Phase-A/C reordering ([`pim_sim::pe::Pe::permute_blocks`]) and
//! the typed in-place views are PE-local *compute*, deliberately outside
//! the transport fault scope (see `pim_sim::pe`). With no fault plan
//! attached and verification off, none of these paths change behavior by
//! a single byte or modeled nanosecond.

#![allow(clippy::needless_range_loop)] // loop indices drive offset math

use std::collections::HashMap;

use pim_sim::domain::{LanePerm, IDENTITY_PERM};
use pim_sim::dtype::{fill_identity, DType, ReduceKind};
use pim_sim::geometry::{BURST_BYTES, LANES};
use pim_sim::system::EgView;
use pim_sim::PimSystem;

use crate::config::{OptLevel, Primitive, Technique};
use crate::engine::parallel;
use crate::engine::plan::{ClusterSched, CollectivePlan};
use crate::engine::sheet::CostSheet;
use crate::hypercube::EgCluster;

/// The per-PE pre-permutation of phase A: destination slot `m_d * l + k`
/// receives the chunk originally at `((k + i_src) % l) + l * m_d`.
fn pre_perm(i_src: usize, l: usize, m: usize) -> Vec<usize> {
    (0..l * m)
        .map(|p| {
            let (m_d, k) = (p / l, p % l);
            ((k + i_src) % l) + l * m_d
        })
        .collect()
}

/// The per-PE post-permutation of phase C: final slot `s = m_s * l + i_s`
/// receives the chunk that arrived at slot `m_s * l + ((i_dst - i_s) % l)`.
fn post_perm(i_dst: usize, l: usize, m: usize) -> Vec<usize> {
    (0..l * m)
        .map(|s| {
            let (m_s, i_s) = (s / l, s % l);
            m_s * l + ((i_dst + l - i_s) % l)
        })
        .collect()
}

/// Memoized phase-A/C permutation tables.
///
/// `pre_perm`/`post_perm` depend only on `(lane rank, L, M)`, so one table
/// set per distinct cluster shape serves every PE of every EG — the seed
/// implementation recomputed them once per PE per entangled group.
///
/// Phase C is additionally stored in *placement* form: `place[i_dst][k]`
/// is the within-part slot where the register arriving at within-part slot
/// `k` finally belongs (the inverse of [`post_perm`] per part). The
/// streaming writes use it to land every register directly in its final
/// slot, fusing the phase-C PE kernel into phase B.
// Keyed-lookup only (simlint: map-iteration): both tables are read through
// `pre()`/`place()` index lookups, never iterated, so hash order can't
// reach schedules or modeled time. Audited for ISSUE 8; if iteration ever
// becomes necessary, sort the keys first or switch to BTreeMap.
pub(crate) struct PermCache {
    /// `(l, m)` → pre-permutations indexed by source lane rank.
    pre: HashMap<(usize, usize), Vec<Vec<usize>>>,
    /// `(l, m)` → within-part final slots indexed by destination lane
    /// rank, then arrival slot.
    place: HashMap<(usize, usize), Vec<Vec<usize>>>,
}

impl PermCache {
    /// Builds the tables for every distinct `(L, M)` among `clusters`.
    pub(crate) fn for_clusters(clusters: &[EgCluster]) -> Self {
        let mut pre = HashMap::new();
        let mut place = HashMap::new();
        for c in clusters {
            let key = (c.lane_count, c.eg_count());
            let (l, m) = key;
            pre.entry(key)
                .or_insert_with(|| (0..l).map(|i| pre_perm(i, l, m)).collect());
            place.entry(key).or_insert_with(|| {
                (0..l)
                    .map(|i_dst| {
                        // Invert post_perm within one part: the table maps
                        // final slot -> arrival slot, identically per part.
                        let post = post_perm(i_dst, l, m);
                        let mut inv = vec![0usize; l];
                        for (s, &arrival) in post.iter().take(l).enumerate() {
                            inv[arrival % l] = s % l;
                        }
                        inv
                    })
                    .collect()
            });
        }
        Self { pre, place }
    }

    /// Pre-permutations for a cluster shape, indexed by lane rank.
    pub(crate) fn pre(&self, l: usize, m: usize) -> &[Vec<usize>] {
        &self.pre[&(l, m)]
    }

    /// Within-part final-slot placements for a cluster shape, indexed by
    /// destination lane rank, then arrival slot.
    pub(crate) fn place(&self, l: usize, m: usize) -> &[Vec<usize>] {
        &self.place[&(l, m)]
    }
}

/// Per-lane destination offsets for a register arriving at within-part
/// slot `k` of part `base`: lane `d` lands at its *final* slot (the fused
/// phase-C placement), `chunk` bytes apart.
fn final_offsets(
    place: &[Vec<usize>],
    rank: &[usize; LANES],
    dst: usize,
    base: usize,
    k: usize,
    chunk: usize,
) -> [usize; LANES] {
    core::array::from_fn(|d| dst + (base + place[rank[d]][k]) * chunk)
}

/// The lane rank of every physical lane of a cluster (`rank[lane]` is the
/// lane's index within its packed group).
pub(crate) fn lane_ranks(c: &EgCluster) -> [usize; LANES] {
    let mut rank = [0usize; LANES];
    for g in &c.groups {
        for (i, &lane) in g.lanes.iter().enumerate() {
            rank[lane] = i;
        }
    }
    rank
}

/// One cluster's execution context: exclusive PE access, private cost
/// sheet, the plan's precomputed per-cluster schedule, and a slot for
/// host-side outputs of rooted primitives.
struct ClusterTask<'c, 'v> {
    view: EgView<'v>,
    sheet: CostSheet,
    cluster: &'c EgCluster,
    sched: &'c ClusterSched,
    /// `(group_id, buffer)` pairs produced by Gather/Reduce.
    out: Vec<(usize, Vec<u8>)>,
}

/// Splits `sys` into per-cluster views, runs `f` over all of the plan's
/// clusters on up to the plan's resolved thread count, merges the private
/// sheets in cluster order and returns the host outputs sorted by group
/// id.
fn run_clustered(
    sys: &mut PimSystem,
    sheet: &mut CostSheet,
    plan: &CollectivePlan,
    f: impl Fn(&mut ClusterTask) + Sync,
) -> Vec<(usize, Vec<u8>)> {
    // Plans of primitives whose execution never reads a schedule
    // (Scatter/Gather/Broadcast, and the baseline path) carry an *empty*
    // schedule vector; anything else must be parallel to the clusters —
    // a partial vector is a broken plan invariant, and direct indexing
    // turns it into an immediate panic instead of silent corruption.
    static NO_SCHED: ClusterSched = ClusterSched {
        rotations: Vec::new(),
        rank: [0; LANES],
    };
    let sched_of = |i: usize| {
        if plan.sched.is_empty() {
            &NO_SCHED
        } else {
            &plan.sched[i]
        }
    };
    let channels = sys.geometry().channels();
    // The per-cluster EG partition was cloned out of the clusters on every
    // call until ISSUE 10 hoisted it to plan time (`plan.parts`) — repeat
    // executes of a warm plan now allocate nothing before the fan-out.
    let views = sys.split_eg_views(&plan.parts);
    let mut tasks: Vec<ClusterTask> = views
        .into_iter()
        .zip(plan.clusters.iter().enumerate())
        .map(|(view, (i, cluster))| ClusterTask {
            view,
            sheet: CostSheet::new(channels),
            cluster,
            sched: sched_of(i),
            out: Vec::new(),
        })
        .collect();
    parallel::par_for_each(&mut tasks, plan.cluster_threads, f);

    let mut outs = Vec::new();
    for task in tasks {
        sheet.merge(&task.sheet);
        outs.extend(task.out);
    }
    outs.sort_by_key(|(gid, _)| *gid);
    outs
}

/// Runs phase A for one cluster: every PE rotates its `n` chunks of
/// `chunk` bytes at `offset` according to its lane rank.
fn pre_reorder_cluster(task: &mut ClusterTask, offset: usize, chunk: usize, cache: &PermCache) {
    let c = task.cluster;
    let (l, m) = (c.lane_count, c.eg_count());
    let tables = cache.pre(l, m);
    for g in &c.groups {
        for (i_src, &lane) in g.lanes.iter().enumerate() {
            for slot in 0..m {
                task.view
                    .pe_mut(slot, lane)
                    .permute_blocks(offset, chunk, l * m, &tables[i_src]);
            }
        }
    }
}

/// Charges `blocks` host-side modulations of a non-arithmetic primitive:
/// a single byte-lane shuffle per block when cross-domain modulation is
/// enabled, otherwise the DT ∘ word-shift ∘ DT sequence (staged through
/// host memory when in-register modulation is disabled).
///
/// The *functional* modulation happens in the host domain during the row
/// write ([`EgView::write_rows`] with the rotation as the lane
/// permutation) — byte-identical to shuffling each raw burst, by the
/// fusion identity of [`pim_sim::domain`] — so only the model's operation
/// counts are recorded here, exactly as the per-burst path charged them.
fn modulate_charges(sheet: &mut CostSheet, primitive: Primitive, opt: OptLevel, blocks: u64) {
    if opt.enables(Technique::CrossDomain, primitive) {
        sheet.shuffle_blocks += blocks;
    } else {
        sheet.dt_blocks += 2 * blocks;
        sheet.shuffle_blocks += blocks;
        if !opt.enables(Technique::InRegister, primitive) {
            // Spill + reload around the host-memory modulation pass.
            sheet.stream_bytes += 2 * BURST_BYTES as u64 * blocks;
        }
    }
}

/// Records every `CostSheet` charge one cluster of `plan` incurs on the
/// streaming path — the **single source of truth** for streaming costs.
///
/// The functional executors below call this once per cluster task and move
/// bytes with no in-loop accounting; the cost-only path
/// ([`charge`]) calls it for every cluster without touching PE memory.
/// Both therefore tally the *identical integer* counters: the formulas
/// here are the exact loop aggregations of the original per-`(m_s, m_d,
/// k)` charges (every counter is a `u64`, so summing per-iteration charges
/// in any grouping is exact), and the one `u64 → f64` conversion happens
/// later, in [`CostSheet::apply`]/[`CostSheet::apply_to`].
fn charge_cluster(sheet: &mut CostSheet, plan: &CollectivePlan, c: &EgCluster) {
    let p = plan.primitive;
    let (opt, dtype) = (plan.opt, plan.spec.dtype);
    let b = plan.spec.bytes_per_node;
    let (l, m) = (c.lane_count, c.eg_count());
    let n = l * m;
    match p {
        Primitive::AlltoAll => {
            // Triple loop (m_s, m_d, k): read burst + modulation + write
            // burst per iteration.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk / 8 * BURST_BYTES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            modulate_charges(sheet, p, opt, (m * m * l) as u64 * words);
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::ReduceScatter => {
            // Per destination part: the shared reduction loop over all
            // (m_s, k) sources, then one reduced row write.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            if !dtype.is_byte_sized() {
                // Write-back domain transfer of the reduced registers.
                sheet.dt_blocks += m as u64 * words;
            }
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
        Primitive::AllReduce => {
            // Reduction phase (as ReduceScatter's), then the fused
            // distribution fan-out: every reduced register is shuffled and
            // written to every (k, m_d) destination.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            if !dtype.is_byte_sized() {
                // One domain transfer per reduced register (per m_v).
                sheet.dt_blocks += m as u64 * words;
            }
            sheet.shuffle_blocks += (m * l * m) as u64 * words;
            if !opt.enables(Technique::InRegister, p) {
                sheet.stream_bytes += (m * l * m) as u64 * 2 * run;
            }
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::AllGather => {
            // One read burst per source part, then a modulated write per
            // (k, m_d) destination.
            let chunk = b;
            let words = (chunk / 8) as u64;
            let run = (chunk / 8 * BURST_BYTES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], run);
            }
            modulate_charges(sheet, p, opt, (m * m * l) as u64 * words);
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], (m * l) as u64 * run);
            }
        }
        Primitive::Scatter => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            sheet.stream_bytes += m as u64 * run;
            if !opt.enables(Technique::InRegister, p) {
                // Conventional path first rearranges the host buffer in
                // host memory before transferring.
                sheet.scatter_bytes += m as u64 * run;
            }
            sheet.dt_blocks += m as u64 * words;
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
        Primitive::Gather => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], run);
            }
            sheet.dt_blocks += m as u64 * words;
            if !opt.enables(Technique::InRegister, p) {
                sheet.scatter_bytes += m as u64 * run;
            }
            sheet.stream_bytes += m as u64 * run;
        }
        Primitive::Reduce => {
            // The reduction loop per destination part, then one streaming
            // copy of the accumulator to the host.
            let chunk = b / n;
            let words = (chunk / 8) as u64;
            let run = (chunk * LANES) as u64;
            for m_s in 0..m {
                sheet.streamed(c.channels[m_s], (m * l) as u64 * run);
            }
            align_reduce_charges(sheet, dtype, p, opt, (m * m * l) as u64 * words);
            sheet.stream_bytes += m as u64 * run;
        }
        Primitive::Broadcast => {
            let words = (b / 8) as u64;
            let run = words * BURST_BYTES as u64;
            sheet.stream_bytes += run;
            sheet.dt_blocks += words;
            for m_d in 0..m {
                sheet.streamed(c.channels[m_d], run);
            }
        }
    }
}

/// Cost-only accounting for the streaming path: tallies onto `sheet`
/// exactly what the functional executor of `plan` would, cluster by
/// cluster, without touching PE memory. PE-reorder kernel charges live on
/// the system meter, not the sheet — the cost-only caller
/// ([`CollectivePlan::charge_cost_only`]) replays those separately.
pub(crate) fn charge(sheet: &mut CostSheet, plan: &CollectivePlan) {
    for c in &plan.clusters {
        charge_cluster(sheet, plan, c);
    }
    sheet.transfer_phases += 1;
}

/// AlltoAll (§V-A, Fig. 7d).
pub(crate) fn alltoall(sys: &mut PimSystem, sheet: &mut CostSheet, plan: &CollectivePlan) {
    let cache = &plan.cache;
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let bytes_per_node = plan.spec.bytes_per_node;
    sys.charge_pe_reorder(bytes_per_node as u64);

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let n = l * m;
        let chunk = bytes_per_node / n;
        let sigmas = &task.sched.rotations;

        charge_cluster(&mut task.sheet, plan, c);
        pre_reorder_cluster(task, src, chunk, cache);

        // Phase B with phase C fused into the write: the register read at
        // part m_d, slot k of EG m_s lands directly in its *final* slot on
        // EG m_d (per-lane placement), so no destination-side PE kernel
        // has to run afterwards. The model still charges the phase-C
        // reorder — the device would execute it — while the
        // simulator skips the byte shuffling it can prove redundant.
        let place = cache.place(l, m);
        let rank = task.sched.rank;
        for m_s in 0..m {
            for m_d in 0..m {
                for k in 0..l {
                    let off_s = src + (m_d * l + k) * chunk;
                    let offs = final_offsets(place, &rank, dst, m_s * l, k, chunk);
                    task.view
                        .copy_rows(m_s, off_s, m_d, &offs, chunk, &sigmas[k]);
                }
            }
        }
    });
    sheet.transfer_phases += 1;
    sys.charge_pe_reorder(bytes_per_node as u64);
}

/// Charges `blocks` align-and-reduce steps: for 8-bit element types the
/// whole step stays in the raw domain (the host can interpret single bytes
/// without domain transfer, §V-C); otherwise each block is
/// domain-transferred first. As with [`modulate_charges`], the functional
/// work runs row-wise in the host domain and only the counts are recorded
/// here.
fn align_reduce_charges(
    sheet: &mut CostSheet,
    dtype: DType,
    primitive: Primitive,
    opt: OptLevel,
    blocks: u64,
) {
    if !dtype.is_byte_sized() {
        sheet.dt_blocks += blocks;
    }
    sheet.shuffle_blocks += blocks;
    sheet.reduce_blocks += blocks;
    if !opt.enables(Technique::InRegister, primitive) {
        sheet.stream_bytes += 2 * BURST_BYTES as u64 * blocks;
    }
}

/// Accumulates every `(m_s, k)` source run of destination part `m_d` into
/// the per-lane rows of `acc` — the shared reduction loop of
/// ReduceScatter, AllReduce and Reduce. Lane row `d` accumulates source
/// row `sigma[d]` straight out of PE memory (no staging copy), the
/// host-domain form of aligning each burst with the rotation before the
/// vertical SIMD reduction. Purely functional: its costs are part of
/// [`charge_cluster`]'s per-primitive tallies.
#[allow(clippy::too_many_arguments)]
fn reduce_part(
    task: &mut ClusterTask,
    acc: &mut [u8],
    sigmas: &[LanePerm],
    m_d: usize,
    src: usize,
    chunk: usize,
    dtype: DType,
    op: ReduceKind,
) {
    let c = task.cluster;
    let (l, m) = (c.lane_count, c.eg_count());
    fill_identity(op, dtype, acc);
    for m_s in 0..m {
        for k in 0..l {
            task.view.reduce_rows(
                m_s,
                src + (m_d * l + k) * chunk,
                chunk,
                acc,
                &sigmas[k],
                op,
                dtype,
            );
        }
    }
}

/// ReduceScatter (§V-B2, Fig. 8b).
pub(crate) fn reduce_scatter(sys: &mut PimSystem, sheet: &mut CostSheet, plan: &CollectivePlan) {
    let cache = &plan.cache;
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let (bytes_per_node, dtype, op) = (plan.spec.bytes_per_node, plan.spec.dtype, plan.op);
    sys.charge_pe_reorder(bytes_per_node as u64);

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let n = l * m;
        let chunk = bytes_per_node / n;
        let sigmas = task.sched.rotations.as_slice();

        charge_cluster(&mut task.sheet, plan, c);
        pre_reorder_cluster(task, src, chunk, cache);

        let mut acc = vec![0u8; LANES * chunk];
        for m_d in 0..m {
            reduce_part(task, &mut acc, sigmas, m_d, src, chunk, dtype, op);
            task.view.write_rows(m_d, dst, chunk, &acc, &IDENTITY_PERM);
        }
    });
    sheet.transfer_phases += 1;
}

/// AllReduce (§V-B3, Fig. 8c): ReduceScatter's reduction phase fused with
/// AllGather's distribution phase — the reduced registers are scattered to
/// all PEs without a round-trip through PIM memory.
pub(crate) fn all_reduce(sys: &mut PimSystem, sheet: &mut CostSheet, plan: &CollectivePlan) {
    let cache = &plan.cache;
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let (bytes_per_node, dtype, op) = (plan.spec.bytes_per_node, plan.spec.dtype, plan.op);
    sys.charge_pe_reorder(bytes_per_node as u64);

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let n = l * m;
        let chunk = bytes_per_node / n;
        let sigmas = task.sched.rotations.as_slice();

        charge_cluster(&mut task.sheet, plan, c);
        pre_reorder_cluster(task, src, chunk, cache);

        // Reduction phase: one accumulator region per destination EG.
        let mut accs: Vec<Vec<u8>> = vec![vec![0u8; LANES * chunk]; m];
        for (m_d, acc) in accs.iter_mut().enumerate() {
            reduce_part(task, acc, sigmas, m_d, src, chunk, dtype, op);
        }

        // Distribution phase: the model charges one domain transfer per
        // reduced register and one shuffle per written register (see
        // charge_cluster) — the reference flow rotates in the store loop —
        // while the functional rotation rides the row writes' lane
        // permutation, and the phase-C reorder is fused into per-lane
        // final-slot placement exactly as in AlltoAll.
        let place = cache.place(l, m);
        let rank = task.sched.rank;
        for (m_v, acc) in accs.iter().enumerate() {
            for k in 0..l {
                let offs = final_offsets(place, &rank, dst, m_v * l, k, chunk);
                for m_d in 0..m {
                    task.view.write_rows_at(m_d, &offs, chunk, acc, &sigmas[k]);
                }
            }
        }
    });
    sheet.transfer_phases += 1;
    sys.charge_pe_reorder(bytes_per_node as u64);
}

/// AllGather (§V-B1, Fig. 8a).
pub(crate) fn all_gather(sys: &mut PimSystem, sheet: &mut CostSheet, plan: &CollectivePlan) {
    let cache = &plan.cache;
    let (src, dst) = (plan.spec.src_offset, plan.spec.dst_offset);
    let chunk = plan.spec.bytes_per_node;

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let sigmas = &task.sched.rotations;
        let place = cache.place(l, m);
        let rank = task.sched.rank;
        charge_cluster(&mut task.sheet, plan, c);
        for m_s in 0..m {
            for k in 0..l {
                let offs = final_offsets(place, &rank, dst, m_s * l, k, chunk);
                for m_d in 0..m {
                    task.view.copy_rows(m_s, src, m_d, &offs, chunk, &sigmas[k]);
                }
            }
        }
    });
    sheet.transfer_phases += 1;

    sys.charge_pe_reorder((plan.n * chunk) as u64);
}

/// Scatter (§V-B4: the write-back half of ReduceScatter, host as root).
/// `host_in` is indexed by group id; each entry holds `N * bytes_per_node`
/// bytes laid out by destination rank.
pub(crate) fn scatter(
    sys: &mut PimSystem,
    sheet: &mut CostSheet,
    plan: &CollectivePlan,
    host_in: &[Vec<u8>],
) {
    let dst = plan.spec.dst_offset;
    let bytes_per_node = plan.spec.bytes_per_node;

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let mut rows = vec![0u8; LANES * bytes_per_node];
        charge_cluster(&mut task.sheet, plan, c);
        for m_d in 0..m {
            // Assemble the rows: each lane's span of the per-group host
            // buffer is contiguous, one memcpy per lane.
            for g in &c.groups {
                for (i, &lane) in g.lanes.iter().enumerate() {
                    let rank = i + l * m_d;
                    let off = rank * bytes_per_node;
                    rows[lane * bytes_per_node..(lane + 1) * bytes_per_node]
                        .copy_from_slice(&host_in[g.group_id][off..off + bytes_per_node]);
                }
            }
            task.view
                .write_rows(m_d, dst, bytes_per_node, &rows, &IDENTITY_PERM);
        }
    });
    sheet.transfer_phases += 1;
}

/// Gather (§V-B4: AllGather's read step followed by domain transfer).
/// Returns host buffers indexed by group id, `N * bytes_per_node` each.
pub(crate) fn gather(
    sys: &mut PimSystem,
    sheet: &mut CostSheet,
    plan: &CollectivePlan,
) -> Vec<Vec<u8>> {
    let src = plan.spec.src_offset;
    let bytes_per_node = plan.spec.bytes_per_node;
    let num_groups = plan.num_groups;

    let outs = run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let mut host: Vec<(usize, Vec<u8>)> = c
            .groups
            .iter()
            .map(|g| (g.group_id, vec![0u8; c.group_size() * bytes_per_node]))
            .collect();
        let mut rows = vec![0u8; LANES * bytes_per_node];
        charge_cluster(&mut task.sheet, plan, c);
        for m_s in 0..m {
            task.view
                .read_rows_into(m_s, src, bytes_per_node, &mut rows);
            for (gi, g) in c.groups.iter().enumerate() {
                for (i, &lane) in g.lanes.iter().enumerate() {
                    let rank = i + l * m_s;
                    let off = rank * bytes_per_node;
                    host[gi].1[off..off + bytes_per_node]
                        .copy_from_slice(&rows[lane * bytes_per_node..(lane + 1) * bytes_per_node]);
                }
            }
        }
        task.out = host;
    });
    sheet.transfer_phases += 1;

    collect_host_out(outs, num_groups)
}

/// Reduce (§V-B4: the reduction half of ReduceScatter with the host as
/// root). Returns per-group reduced vectors of `bytes_per_node` bytes.
pub(crate) fn reduce(
    sys: &mut PimSystem,
    sheet: &mut CostSheet,
    plan: &CollectivePlan,
) -> Vec<Vec<u8>> {
    let cache = &plan.cache;
    let src = plan.spec.src_offset;
    let (bytes_per_node, dtype, op) = (plan.spec.bytes_per_node, plan.spec.dtype, plan.op);
    let num_groups = plan.num_groups;
    sys.charge_pe_reorder(bytes_per_node as u64);

    let outs = run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let (l, m) = (c.lane_count, c.eg_count());
        let n = l * m;
        let chunk = bytes_per_node / n;
        let sigmas = task.sched.rotations.as_slice();

        charge_cluster(&mut task.sheet, plan, c);
        pre_reorder_cluster(task, src, chunk, cache);

        let mut host: Vec<(usize, Vec<u8>)> = c
            .groups
            .iter()
            .map(|g| (g.group_id, vec![0u8; bytes_per_node]))
            .collect();
        let mut acc = vec![0u8; LANES * chunk];
        for m_d in 0..m {
            reduce_part(task, &mut acc, sigmas, m_d, src, chunk, dtype, op);
            // The accumulator rows already hold word order for every
            // element width (for 8-bit elements this is the free raw-domain
            // reinterpretation of the model: no DT charged).
            for (gi, g) in task.cluster.groups.iter().enumerate() {
                for (i, &lane) in g.lanes.iter().enumerate() {
                    let rank = i + l * m_d;
                    let off = rank * chunk;
                    host[gi].1[off..off + chunk]
                        .copy_from_slice(&acc[lane * chunk..(lane + 1) * chunk]);
                }
            }
        }
        task.out = host;
    });
    sheet.transfer_phases += 1;

    collect_host_out(outs, num_groups)
}

/// Broadcast (§V-B4): the native driver path — one domain transfer per
/// block, reused for every destination PE of the group. No technique
/// applies; it is already bus-bound (Table II, §VIII-B).
pub(crate) fn broadcast(
    sys: &mut PimSystem,
    sheet: &mut CostSheet,
    plan: &CollectivePlan,
    host_in: &[Vec<u8>],
) {
    let dst = plan.spec.dst_offset;
    let bytes_per_node = plan.spec.bytes_per_node;

    run_clustered(sys, sheet, plan, |task| {
        let c = task.cluster;
        let m = c.eg_count();
        let mut rows = vec![0u8; LANES * bytes_per_node];
        charge_cluster(&mut task.sheet, plan, c);
        for g in &c.groups {
            for &lane in &g.lanes {
                rows[lane * bytes_per_node..(lane + 1) * bytes_per_node]
                    .copy_from_slice(&host_in[g.group_id][..bytes_per_node]);
            }
        }
        for m_d in 0..m {
            task.view
                .write_rows(m_d, dst, bytes_per_node, &rows, &IDENTITY_PERM);
        }
    });
    sheet.transfer_phases += 1;
}

/// Places per-cluster `(group_id, buffer)` outputs into the dense
/// group-indexed vector the public API returns.
fn collect_host_out(outs: Vec<(usize, Vec<u8>)>, num_groups: usize) -> Vec<Vec<u8>> {
    let mut host_out: Vec<Vec<u8>> = vec![Vec::new(); num_groups];
    for (gid, buf) in outs {
        host_out[gid] = buf;
    }
    host_out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre- and post-permutations must compose with the burst-level
    /// rotation schedule to the AlltoAll permutation; here we check their
    /// standalone algebra.
    #[test]
    fn pre_perm_is_a_permutation_for_all_shapes() {
        for l in [1usize, 2, 4, 8] {
            for m in [1usize, 2, 3, 4, 16] {
                for i_src in 0..l {
                    let p = pre_perm(i_src, l, m);
                    let mut seen = vec![false; l * m];
                    for &x in &p {
                        assert!(!seen[x], "l={l} m={m} i={i_src}");
                        seen[x] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn post_perm_is_a_permutation_for_all_shapes() {
        for l in [1usize, 2, 4, 8] {
            for m in [1usize, 2, 3, 4, 16] {
                for i_dst in 0..l {
                    let p = post_perm(i_dst, l, m);
                    let mut seen = vec![false; l * m];
                    for &x in &p {
                        assert!(!seen[x], "l={l} m={m} i={i_dst}");
                        seen[x] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn pre_perm_keeps_parts_and_rotates_within() {
        // Slot m_d*l+k must source a chunk of the same destination-EG part.
        let (l, m) = (4usize, 3usize);
        for i_src in 0..l {
            let p = pre_perm(i_src, l, m);
            for (slot, &src) in p.iter().enumerate() {
                assert_eq!(slot / l, src / l, "chunks never cross parts");
                assert_eq!((slot % l + i_src) % l, src % l, "rotation by lane rank");
            }
        }
    }

    #[test]
    fn pre_perm_with_zero_lane_rank_is_identity() {
        let p = pre_perm(0, 8, 4);
        assert!(p.iter().enumerate().all(|(i, &x)| i == x));
        // ...and so is the post-permutation for destination lane rank 0
        // only at slots whose source lane rank is 0.
        let q = post_perm(0, 1, 16);
        assert!(
            q.iter().enumerate().all(|(i, &x)| i == x),
            "l=1 is trivially identity"
        );
    }

    #[test]
    fn post_perm_inverts_arrival_order() {
        // If chunk from source rank s arrives at slot m_s*l + (i_d - i_s)%l,
        // the post-permutation must place it at slot s = m_s*l + i_s.
        let (l, m) = (8usize, 2usize);
        for i_d in 0..l {
            let p = post_perm(i_d, l, m);
            for m_s in 0..m {
                for i_s in 0..l {
                    let arrival = m_s * l + ((i_d + l - i_s) % l);
                    let final_slot = m_s * l + i_s;
                    assert_eq!(p[final_slot], arrival);
                }
            }
        }
    }

    #[test]
    fn perm_cache_matches_closed_form() {
        // The cache must hand back exactly the closed-form tables for
        // every lane rank of every cluster shape it was built for: the
        // pre tables verbatim, and the placement tables as the per-part
        // inverse of the closed-form post-permutation.
        use crate::hypercube::{build_clusters, HypercubeManager};
        use crate::HypercubeShape;
        use pim_sim::DimmGeometry;

        let manager = HypercubeManager::new(
            HypercubeShape::new(vec![4, 2, 4]).unwrap(),
            DimmGeometry::new(2, 1, 2),
        )
        .unwrap();
        for mask in ["100", "010", "001", "110", "101", "111"] {
            let clusters = build_clusters(&manager, &mask.parse().unwrap()).unwrap();
            let cache = PermCache::for_clusters(&clusters);
            for c in &clusters {
                let (l, m) = (c.lane_count, c.eg_count());
                for i in 0..l {
                    assert_eq!(cache.pre(l, m)[i], pre_perm(i, l, m), "{mask} pre i={i}");
                    // Writing each arrival slot k of every part directly to
                    // place[i][k] must equal applying post_perm afterwards:
                    // post[final] = arrival  <=>  place[arrival] = final.
                    let post = post_perm(i, l, m);
                    let place = &cache.place(l, m)[i];
                    for m_s in 0..m {
                        for i_s in 0..l {
                            let arrival = post[m_s * l + i_s];
                            assert_eq!(
                                m_s * l + place[arrival % l],
                                m_s * l + i_s,
                                "{mask} i={i} part {m_s} slot {i_s}"
                            );
                        }
                    }
                }
            }
        }
    }
}

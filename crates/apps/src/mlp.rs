//! Multi-layer perceptron on the PID-Comm framework (§VII-E).
//!
//! The feature matrix is column-partitioned across the PEs (1-D
//! hypercube): PE `p` owns `f/P` columns of each weight matrix and the
//! matching slice of the activation vector. Each layer computes a
//! full-length *partial* output vector per PE (its columns' contribution),
//! which a ReduceScatter sums and redistributes so every PE ends with its
//! slice of the next activation — exactly the paper's structure
//! (Scatter → [kernel → ReduceScatter]×L → Gather). The per-layer
//! ReduceScatter plan is built once for the whole stack (pooled in the
//! worker's arena plan cache) and re-executed each layer.
//!
//! The weights are generated straight into the PE-column order the
//! Scatter sends, one `MatI32::entry` per element: no row-major matrix
//! is ever built. The CPU reference reads that host image column by
//! column, so it depends neither on PE memory nor on `pim_sim::kernels`.

use std::sync::Arc;

use pidcomm::{
    par_chunks, par_pes, par_pes_with, BufferSpec, Communicator, DimMask, Error, HypercubeManager,
    HypercubeShape, Iteration, OptLevel, PlanCache, Primitive, RunPolicy, Supervisor,
};
use pidcomm_data::MatI32;
use pim_sim::{kernels, DType, DimmGeometry, FaultPlan, ReduceKind, SystemArena};

use crate::cost::{pe_kernel_ns, CpuModel};
use crate::profile::AppProfile;
use crate::{ensure, AppRun, ResilientRun};

/// MLP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlpConfig {
    /// Feature width `f` (the paper uses 16k and 32k; scaled presets use
    /// 2048 and 4096 — the same 8× scaling as the datasets).
    pub features: usize,
    /// Number of layers (the paper uses 5).
    pub layers: usize,
    /// Number of PEs.
    pub pes: usize,
    /// Communication optimization level (Baseline vs PID-Comm).
    pub opt: OptLevel,
    /// Engine thread budget for the app's collectives: `0` = auto,
    /// `1` = the serial reference schedule. Purely an execution knob —
    /// profiles and results are byte-identical at every setting — and the
    /// sweep harness uses it to split a machine budget between concurrent
    /// app runs and per-run cluster fan-out.
    pub threads: usize,
}

impl MlpConfig {
    /// The paper's "16k" configuration, scaled 8×.
    pub fn feat16k(pes: usize, opt: OptLevel) -> Self {
        Self {
            features: 2048,
            layers: 5,
            pes,
            opt,
            threads: 0,
        }
    }

    /// The paper's "32k" configuration, scaled 8×.
    pub fn feat32k(pes: usize, opt: OptLevel) -> Self {
        Self {
            features: 4096,
            layers: 5,
            pes,
            opt,
            threads: 0,
        }
    }

    fn label(&self) -> String {
        format!("{}f", self.features)
    }
}

fn relu(v: i32) -> i32 {
    v.max(0)
}

/// Seed of layer `l`'s weight matrix `W_l`.
fn weight_seed(l: usize) -> u64 {
    0x9a77 + l as u64
}

/// Fills the host weight image the Scatter sends: PE `pe`'s
/// `layers * f * cols` little-endian `i32`s hold, layer by layer, its
/// owned columns `[pe*cols, (pe+1)*cols)` of `W_l`, each column a
/// contiguous f-length run. Element `W_l[r][c]` is generated in place as
/// [`MatI32::entry`]`(r * f + c, 4, weight_seed(l))`, the same value as
/// `MatI32::random(f, f, 4, weight_seed(l)).get(r, c)`.
fn stage_weights(w_host: &mut [u8], f: usize, cols: usize, layers: usize, threads: usize) {
    par_chunks(w_host, layers * f * cols * 4, threads, |pe, chunk| {
        for (k, column) in chunk.chunks_exact_mut(f * 4).enumerate() {
            let (seed, c) = (weight_seed(k / cols), pe * cols + k % cols);
            for (r, dst) in column.chunks_exact_mut(4).enumerate() {
                dst.copy_from_slice(&MatI32::entry(r * f + c, 4, seed).to_le_bytes());
            }
        }
    });
}

/// CPU reference: `x <- relu(W_l x)` per layer, wrapping arithmetic. Reads
/// `W_l`'s column `c` as its contiguous run in the host image
/// [`stage_weights`] built (host input only, never PE memory), with a plain
/// decode + multiply-add loop independent of `pim_sim::kernels`.
fn cpu_reference(w_host: &[u8], x0: &[i32], cols: usize, layers: usize) -> (Vec<i32>, f64) {
    let cpu = CpuModel::xeon_5215();
    let f = x0.len();
    let w_slice_bytes = layers * f * cols * 4;
    let mut x = x0.to_vec();
    let mut time = 0.0;
    for l in 0..layers {
        let mut y = vec![0i32; f];
        for (c, &xv) in x.iter().enumerate() {
            if xv == 0 {
                continue;
            }
            let start = (c / cols) * w_slice_bytes + (l * cols + c % cols) * f * 4;
            let column = w_host[start..start + f * 4].chunks_exact(4);
            for (yv, w) in y.iter_mut().zip(column) {
                let w = i32::from_le_bytes(w.try_into().unwrap());
                *yv = yv.wrapping_add(w.wrapping_mul(xv));
            }
        }
        x = y.into_iter().map(relu).collect();
        // 2 ops per MAC; streams the whole weight matrix once.
        time += cpu.time_ns(2 * (f * f) as u64, (f * f * 4 + f * 8) as u64);
    }
    (x, time)
}

/// Runs the MLP benchmark and validates the PIM result against the CPU
/// reference.
///
/// # Errors
///
/// [`Error::InvalidShape`] if `features` does not divide across `pes`,
/// [`Error::InvalidBuffer`] if it breaks the ReduceScatter alignment
/// (`4 × features` a multiple of `8 × pes`), plus collective validation
/// errors.
pub fn run_mlp(cfg: &MlpConfig) -> pidcomm::Result<AppRun> {
    run_mlp_in(cfg, &mut SystemArena::new())
}

/// As [`run_mlp`], but sourcing the `PimSystem` and staging buffers from
/// `arena` (and returning them to it), so repeated runs — e.g. consecutive
/// sweep cells on one worker — reuse allocations. This is
/// [`run_mlp_resilient_in`] with no fault plan and the default policy.
///
/// # Errors
///
/// As [`run_mlp`].
pub fn run_mlp_in(cfg: &MlpConfig, arena: &mut SystemArena) -> pidcomm::Result<AppRun> {
    run_mlp_resilient_in(cfg, None, RunPolicy::default(), arena).map(|r| r.run)
}

/// As [`run_mlp`], but under a fault plan and run-level supervision (see
/// [`Supervisor`]): collectives run verified with quarantine-aware
/// recovery, each layer commits through an iteration checkpoint of the
/// live activation slice, and unrecoverable faults end the run with a
/// typed [`pidcomm::RunOutcome`], never a fault error. With
/// `fault = None` nothing is verified or checkpointed and the run is
/// [`run_mlp`]'s.
///
/// # Errors
///
/// As [`run_mlp`] (never typed fault errors — those are consumed by the
/// supervisor).
pub fn run_mlp_resilient(
    cfg: &MlpConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
) -> pidcomm::Result<ResilientRun> {
    run_mlp_resilient_in(cfg, fault, policy, &mut SystemArena::new())
}

/// As [`run_mlp_resilient`], sourcing allocations from `arena`. The one
/// MLP runner: every other entry point wraps it.
///
/// # Errors
///
/// As [`run_mlp_resilient`].
pub fn run_mlp_resilient_in(
    cfg: &MlpConfig,
    fault: Option<Arc<FaultPlan>>,
    policy: RunPolicy,
    arena: &mut SystemArena,
) -> pidcomm::Result<ResilientRun> {
    let p = cfg.pes;
    let f = cfg.features;
    ensure(p > 0 && f.is_multiple_of(p), || {
        Error::InvalidShape(format!(
            "MLP features {f} must divide evenly across {p} PEs"
        ))
    })?;
    ensure((f * 4).is_multiple_of(8 * p), || {
        Error::InvalidBuffer(format!(
            "MLP ReduceScatter alignment: 4 x {f} features must be a multiple of 8 x {p} PEs"
        ))
    })?;
    let cols = f / p;

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
    let mut profile = AppProfile::new("MLP", cfg.label());
    let mut sup = Supervisor::new(p, policy);

    // Deterministic input.
    let x0: Vec<i32> = (0..f).map(|i| ((i * 37 + 11) % 9) as i32 - 4).collect();

    // Layout: activation slice at SLICE, partial vectors at PARTIAL,
    // reduced output at OUT, then every layer's weight column slices.
    let slice_bytes = cols * 4;
    let partial_bytes = f * 4;
    const SLICE: usize = 0;
    let partial_off = slice_bytes.next_multiple_of(64);
    let out_off = partial_off + partial_bytes.next_multiple_of(64);
    let w_off = out_off + slice_bytes.next_multiple_of(64);
    let w_slice_bytes = cfg.layers * f * cols * 4;

    // The initial activation, and the weight column slices of all layers
    // at once: PE p receives columns [p*cols, (p+1)*cols) of every W_l.
    let host_x: Vec<Vec<u8>> = vec![x0.iter().flat_map(|v| v.to_le_bytes()).collect()];
    let mut w_host = arena.bytes(p * w_slice_bytes);
    stage_weights(&mut w_host, f, cols, cfg.layers, cfg.threads);

    let x_scatter_plan = comm.plan_cached(
        &mut plans,
        Primitive::Scatter,
        &mask,
        &BufferSpec::new(0, SLICE, slice_bytes).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;
    let w_scatter_plan = comm.plan_cached(
        &mut plans,
        Primitive::Scatter,
        &mask,
        &BufferSpec::new(0, w_off, w_slice_bytes).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;
    // The per-layer reduction plan, built once for the whole stack (and
    // pooled across runs): every layer issues the identical
    // ReduceScatter.
    let rs_plan = comm.plan_cached(
        &mut plans,
        Primitive::ReduceScatter,
        &mask,
        &BufferSpec::new(partial_off, out_off, partial_bytes).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;
    let gather_plan = comm.plan_cached(
        &mut plans,
        Primitive::Gather,
        &mask,
        &BufferSpec::new(SLICE, 0, slice_bytes).with_dtype(DType::I32),
        ReduceKind::Sum,
    )?;

    let mut result: Option<Vec<i32>> = None;
    'run: {
        // Setup: both scatters restage everything from host buffers, so a
        // re-run needs no checkpointed MRAM state. The weight image stays
        // live for the CPU reference.
        let setup = sup.iteration(&mut sys, arena, &[], |sys, at| {
            let a = at.collective(&comm, sys, &x_scatter_plan, Some(&host_x))?;
            let b = at.collective(
                &comm,
                sys,
                &w_scatter_plan,
                Some(core::slice::from_ref(&w_host)),
            )?;
            Ok([a.reports[0].clone(), b.reports[0].clone()])
        });
        match setup? {
            Iteration::Done(reports) => {
                for r in &reports {
                    profile.record(r);
                }
            }
            Iteration::Abort(_) => break 'run,
        }

        for l in 0..cfg.layers {
            // The live state at a layer boundary is the activation slice
            // (everything else is rewritten from it or read-only).
            match sup.iteration(&mut sys, arena, &[(SLICE, slice_bytes)], |sys, at| {
                // PE kernel: partial_p = sum over owned columns c of
                // x[c] * W[:,c], with ReLU applied to the incoming slice
                // (except the first layer, whose input is raw). One
                // host-kernel work item per PE; the activation slice and
                // partial vector live in per-worker scratch, and the gemv
                // runs as fused decode+axpy over the weight columns
                // already staged *in PE MRAM* (each owned column is a
                // contiguous f-length typed lane there).
                let kernels = par_pes_with(
                    sys.pes_mut(),
                    cfg.threads,
                    || (vec![0i32; cols], vec![0i32; f]),
                    |(xs, partial), _, pe| {
                        // simlint: hot(begin, mlp gemv)
                        pe.read_i32s(SLICE, xs);
                        if l > 0 {
                            kernels::relu_i32(xs);
                        }
                        partial.fill(0);
                        let layer_off = w_off + l * cols * f * 4;
                        let wbytes = pe.read(layer_off, cols * f * 4);
                        for (ci, &xv) in xs.iter().enumerate() {
                            if xv == 0 {
                                continue;
                            }
                            kernels::axpy_i32_bytes(
                                partial,
                                xv,
                                &wbytes[ci * f * 4..(ci + 1) * f * 4],
                            );
                        }
                        pe.write_i32s(partial_off, partial);
                        pe_kernel_ns((f * cols * 4 + f * 8) as u64, (12 * f * cols) as u64)
                        // simlint: hot(end)
                    },
                );
                let max_kernel = kernels.into_iter().fold(0.0f64, f64::max);
                sys.run_kernel(max_kernel);
                // ReduceScatter the partials: PE p ends with elements
                // [p*cols, (p+1)*cols) of the summed output, which becomes
                // the next activation slice.
                let report = at.collective(&comm, sys, &rs_plan, None)?.reports[0].clone();
                par_pes(sys.pes_mut(), cfg.threads, |_, pe| {
                    // simlint: hot(begin, mlp slice rotate)
                    pe.copy_within_region(out_off, SLICE, slice_bytes);
                    // simlint: hot(end)
                });
                Ok((max_kernel, report))
            })? {
                Iteration::Done((max_kernel, report)) => {
                    profile.record_kernel(max_kernel + sys.model().kernel_launch_ns);
                    profile.record(&report);
                }
                Iteration::Abort(_) => break 'run,
            }
        }

        // Gather the final activation (pre-ReLU of the last layer's
        // output, so apply ReLU on the host like the reference does).
        match sup.iteration(&mut sys, arena, &[], |sys, at| {
            let exec = at.collective(&comm, sys, &gather_plan, None)?;
            Ok((
                exec.reports[0].clone(),
                exec.host_out.expect("gather produces host output"),
            ))
        })? {
            Iteration::Done((report, gathered)) => {
                profile.record(&report);
                result = Some(
                    gathered[0]
                        .chunks_exact(4)
                        .map(|c| relu(i32::from_le_bytes(c.try_into().unwrap())))
                        .collect(),
                );
            }
            Iteration::Abort(_) => {}
        }
    }

    let (expected, cpu_ns) = cpu_reference(&w_host, &x0, cols, cfg.layers);
    arena.recycle_bytes(w_host);
    let (mismatched, validated) = match &result {
        Some(r) => {
            let mm = r.iter().zip(&expected).filter(|(a, b)| a != b).count()
                + r.len().abs_diff(expected.len());
            (mm as u64, mm == 0)
        }
        None => (expected.len() as u64, false),
    };
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

    #[test]
    fn staged_image_is_the_column_major_transpose_of_the_weights() {
        let (f, p, layers) = (512, 64, 3);
        let cols = f / p;
        let mut w_host = vec![0u8; layers * f * f * 4];
        stage_weights(&mut w_host, f, cols, layers, 0);
        let weights: Vec<MatI32> = (0..layers)
            .map(|l| MatI32::random(f, f, 4, weight_seed(l)))
            .collect();
        let mut words = w_host.chunks_exact(4);
        for pe in 0..p {
            for (l, w) in weights.iter().enumerate() {
                for c in pe * cols..(pe + 1) * cols {
                    for r in 0..f {
                        let v = i32::from_le_bytes(words.next().unwrap().try_into().unwrap());
                        assert_eq!(v, w.get(r, c), "pe {pe} layer {l} ({r}, {c})");
                    }
                }
            }
        }
        assert!(words.next().is_none());
    }

    #[test]
    fn mlp_validates_on_64_pes() {
        let cfg = MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Full,
        };
        let run = run_mlp(&cfg).unwrap();
        assert!(run.validated);
        assert!(run.profile.total_ns() > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::ReduceScatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Scatter) > 0.0);
        assert!(run.profile.primitive_ns(pidcomm::Primitive::Gather) > 0.0);
        assert!(run.cpu_ns > 0.0);
    }

    #[test]
    fn baseline_is_slower_but_equal() {
        let full = run_mlp(&MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Full,
        })
        .unwrap();
        let base = run_mlp(&MlpConfig {
            threads: 0,
            features: 512,
            layers: 3,
            pes: 64,
            opt: OptLevel::Baseline,
        })
        .unwrap();
        assert!(base.validated && full.validated);
        assert!(
            base.profile.comm_ns() > full.profile.comm_ns(),
            "baseline comm should be slower"
        );
        // Kernels are identical.
        assert!((base.profile.kernel_ns - full.profile.kernel_ns).abs() < 1e-6);
    }
}

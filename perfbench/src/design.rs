//! `design`: the analytic path. `pidcomm::autotune` over the eight
//! `bench_json --autotune` requests, and cost-only scoring
//! (`Communicator::plan` + `cost_only_report`) of the 58 `bench_json
//! --design` grid cells. No PE memory is touched, and nothing depends on
//! the seed: every pass is checked against `BENCH_autotune.json` and
//! `BENCH_design.json`.

use pidcomm::{
    autotune, BufferSpec, CollectivePlan, Communicator, DType, HypercubeManager, HypercubeShape,
    OptLevel, Primitive, ReduceKind, TuneRequest,
};
use pim_sim::{DimmGeometry, TimeModel};

use crate::harness::{check_bits, Gate, Pass, Workload};
use crate::json::{self, Value};
use crate::trace;

/// Autotune fan-out over candidates: the whole 2-core budget. Interleaved
/// runs on a 2-vCPU host spread less at 2 threads than at 1.
const THREADS: usize = 2;

/// One `bench_json --design` cell: report key plus what to plan.
struct DesignCell {
    sweep: &'static str,
    label: String,
    pes: usize,
    dims: Vec<usize>,
    mask: &'static str,
    bytes: usize,
    dtype: DType,
    prim: Primitive,
}

/// The `bench_json --design` grid (fig19x, fig20x, fig22x), in its order.
fn design_cells() -> Vec<DesignCell> {
    let mut cells = Vec::new();
    for pes in [64usize, 128, 256, 512, 1024] {
        let x = 1usize << (pes.trailing_zeros() / 2);
        for (sweep, dims, mask, bytes) in [
            ("fig19x-1D", vec![pes], "1", 64 * 1024),
            ("fig19x-2D", vec![x, pes / x], "10", 8 * 1024),
        ] {
            let prim = Primitive::AllReduce;
            let label = "AR".into();
            cells.push(DesignCell {
                sweep,
                label,
                pes,
                dims,
                mask,
                bytes,
                dtype: DType::U64,
                prim,
            });
        }
    }
    for ax in 1u32..=8 {
        for ay in 1u32..=(9 - ax) {
            let dims = vec![1usize << ax, 1usize << ay, 1usize << (10 - ax - ay)];
            cells.push(DesignCell {
                sweep: "fig20x",
                label: format!("{}x{}x{}", dims[0], dims[1], dims[2]),
                pes: 1024,
                bytes: (8 * dims[0] * 32).max(4096),
                dims,
                mask: "100",
                dtype: DType::U64,
                prim: Primitive::AllReduce,
            });
        }
    }
    for prim in [
        Primitive::ReduceScatter,
        Primitive::AllReduce,
        Primitive::Reduce,
    ] {
        for dtype in [DType::U8, DType::U16, DType::U32, DType::U64] {
            cells.push(DesignCell {
                sweep: "fig22x",
                label: format!("{}/{dtype}", prim.abbrev()),
                pes: 1024,
                dims: vec![32, 32],
                mask: "10",
                bytes: 8 * 1024,
                dtype,
                prim,
            });
        }
    }
    cells
}

/// One `bench_json --autotune` request.
pub struct TuneCase {
    app: &'static str,
    dataset: String,
    /// Metric slug.
    pub slug: String,
    prim: Primitive,
    bytes: usize,
    dtype: DType,
    default_dims: Vec<usize>,
    default_mask: &'static str,
}

/// The eight autotune requests: each application's dominant collective at
/// its 1024-PE default shape, plus three fig20 defaults.
pub fn tune_cases() -> Vec<TuneCase> {
    use Primitive::{AllReduce, AlltoAll, ReduceScatter};
    type Row = (
        &'static str,
        &'static str,
        Primitive,
        usize,
        DType,
        &'static [usize],
        &'static str,
    );
    // (app, metric slug, primitive, bytes, dtype, default dims, default mask)
    #[rustfmt::skip]
    let apps: [Row; 5] = [
        ("MLP", "mlp", ReduceScatter, 16 * 1024, DType::I32, &[1024], "1"),
        ("DLRM", "dlrm", AlltoAll, 4096, DType::I32, &[8, 16, 8], "010"),
        ("GNN RS&AR", "gnn-rsar", ReduceScatter, 8192, DType::I32, &[32, 32], "10"),
        ("BFS", "bfs", AllReduce, 8192, DType::U8, &[1024], "1"),
        ("CC", "cc", AllReduce, 8192, DType::U32, &[1024], "1"),
    ];
    let mut cases: Vec<TuneCase> = apps
        .into_iter()
        .map(|(app, slug, prim, bytes, dtype, dims, mask)| TuneCase {
            app,
            dataset: format!("{prim:?}"),
            slug: format!("{slug}.{}", prim.abbrev()),
            prim,
            bytes,
            dtype,
            default_dims: dims.to_vec(),
            default_mask: mask,
        })
        .collect();
    for dims in [[8, 64, 2], [128, 4, 2], [64, 4, 4]] {
        let label = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
        cases.push(TuneCase {
            app: "fig20",
            slug: format!("fig20.{label}"),
            dataset: label,
            prim: AllReduce,
            bytes: (8 * dims[0] * 32).max(4096),
            dtype: DType::U64,
            default_dims: dims.to_vec(),
            default_mask: "100",
        });
    }
    cases
}

fn plan(
    geom: DimmGeometry,
    dims: &[usize],
    mask: &str,
    spec: &BufferSpec,
    prim: Primitive,
    opt: OptLevel,
) -> pidcomm::Result<CollectivePlan> {
    let manager = HypercubeManager::new(HypercubeShape::new(dims.to_vec())?, geom)?;
    let comm = Communicator::new(manager).with_opt(opt).with_threads(1);
    let mask = mask.parse()?;
    trace::span("engine.plan", || {
        comm.plan(prim, &mask, spec, ReduceKind::Sum)
    })
}

/// What one autotune request produced.
struct Tuned {
    default_ns: f64,
    tuned_ns: f64,
    explored: usize,
    skipped: usize,
}

pub struct Design {
    model: TimeModel,
    cells: Vec<DesignCell>,
    tunes: Vec<TuneCase>,
    design_ref: Vec<Value>,
    autotune_ref: Vec<Value>,
}

impl Design {
    pub fn new() -> Result<Self, String> {
        Ok(Self {
            model: TimeModel::upmem(),
            cells: design_cells(),
            tunes: tune_cases(),
            design_ref: json::load_results("BENCH_design.json")?,
            autotune_ref: json::load_results("BENCH_autotune.json")?,
        })
    }

    fn tune(&self, t: &TuneCase) -> pidcomm::Result<Tuned> {
        let geom = DimmGeometry::upmem_1024();
        let dst = t.bytes.next_multiple_of(64).max(64 * 1024);
        let spec = BufferSpec::new(0, dst, t.bytes).with_dtype(t.dtype);
        let default = plan(
            geom,
            &t.default_dims,
            t.default_mask,
            &spec,
            t.prim,
            OptLevel::Full,
        )?;
        let default_ns =
            trace::span("engine.cost_only", || default.cost_only_report(&self.model)).time_ns();
        let req = TuneRequest::new(t.prim, spec, geom).with_threads(THREADS);
        let (_, report) = trace::span(&format!("engine.autotune.{}", t.slug), || {
            autotune(&req, &self.model)
        })?;
        Ok(Tuned {
            default_ns,
            tuned_ns: report.best().modeled_ns,
            explored: report.explored.len(),
            skipped: report.skipped,
        })
    }

    fn check_tune(&self, t: &TuneCase, r: &Tuned) -> Result<(), String> {
        if r.tuned_ns > r.default_ns {
            return Err(format!(
                "tuned {} ns lost to the default shape {} ns",
                r.tuned_ns, r.default_ns
            ));
        }
        let key = [("app", t.app), ("dataset", t.dataset.as_str())];
        let row = json::find_row(&self.autotune_ref, &key).ok_or("no BENCH_autotune.json row")?;
        for (k, got) in [("explored", r.explored), ("skipped", r.skipped)] {
            let want = row.get(k).and_then(Value::as_u64);
            if want != Some(got as u64) {
                return Err(format!("{k} = {got}, BENCH_autotune.json {want:?}"));
            }
        }
        let bits = row.get("modeled_bits").and_then(Value::as_str);
        check_bits("BENCH_autotune.json", r.tuned_ns, bits)
    }

    fn score(&self, c: &DesignCell) -> pidcomm::Result<f64> {
        let geom = DimmGeometry::with_pes(c.pes);
        let dst = 2 * c.bytes.next_multiple_of(64) + 64;
        let spec = BufferSpec::new(0, dst, c.bytes).with_dtype(c.dtype);
        let plan = plan(geom, &c.dims, c.mask, &spec, c.prim, OptLevel::Full)?;
        Ok(trace::span("engine.cost_only", || plan.cost_only_report(&self.model)).time_ns())
    }
}

impl Workload for Design {
    type State = ();

    fn name(&self) -> &'static str {
        "design"
    }

    fn engine_threads(&self) -> usize {
        THREADS
    }

    /// Set-up is one untimed, checked warm-up pass. It is not traced, so
    /// the per-layer metrics cover timed passes only.
    fn setup(&self, gate: &mut Gate) -> Result<(), String> {
        trace::untraced(|| self.pass(&mut (), gate));
        Ok(())
    }

    fn pass(&self, _: &mut (), gate: &mut Gate) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            modeled_ns: 0.0,
        };
        for t in &self.tunes {
            let label = format!("autotune {}/{}", t.app, t.dataset);
            let (out, secs) = gate.op(
                &label,
                &mut (),
                |_| self.tune(t).map_err(|e| e.to_string()),
                |_, r| self.check_tune(t, r),
            );
            pass.wall_s += secs;
            if let Some(r) = out {
                pass.modeled_ns += r.tuned_ns;
                trace::count("engine.autotune_explored", r.explored as f64);
            }
        }
        for c in &self.cells {
            let label = format!("design {}/{}/{}", c.sweep, c.label, c.pes);
            let (out, secs) = gate.op(
                &label,
                &mut (),
                |_| self.score(c).map_err(|e| e.to_string()),
                |_, ns| {
                    let pes = c.pes.to_string();
                    let key = [
                        ("app", c.sweep),
                        ("dataset", c.label.as_str()),
                        ("pes", pes.as_str()),
                    ];
                    let row = json::find_row(&self.design_ref, &key);
                    let bits = row
                        .and_then(|r| r.get("modeled_bits"))
                        .and_then(Value::as_str);
                    check_bits("BENCH_design.json", *ns, bits)
                },
            );
            pass.wall_s += secs;
            pass.modeled_ns += out.unwrap_or(0.0);
        }
        pass
    }
}

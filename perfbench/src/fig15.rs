//! `fig15`: the twelve Table-III application cases × {Baseline, Full} at
//! 1024 PEs on the serial schedule, each cell on a fresh `SystemArena`.

use pidcomm::OptLevel;
use pidcomm_apps::bfs::{default_source, run_bfs_in, BfsConfig};
use pidcomm_apps::cc::{run_cc_in, CcConfig};
use pidcomm_apps::dlrm::{run_dlrm_in, DlrmRunConfig};
use pidcomm_apps::gnn::{run_gnn_in, GnnConfig, GnnVariant};
use pidcomm_apps::mlp::{run_mlp_in, MlpConfig};
use pidcomm_apps::AppRun;
use pidcomm_data::dlrm::DlrmConfig;
use pidcomm_data::{rmat, CsrGraph, RmatParams};
use pim_sim::{DType, SystemArena};

use crate::harness::{check_bits, derive_seed, Gate, Pass, Workload, DEFAULT_SEED};
use crate::json::{self, Value};
use crate::trace;

const PES: usize = 1024;
const OPTS: [OptLevel; 2] = [OptLevel::Baseline, OptLevel::Full];

/// The twelve cases: (report app name, metric slug, dataset label).
pub const CASES: [(&str, &str, &str); 12] = [
    ("DLRM", "dlrm", "16"),
    ("DLRM", "dlrm", "32"),
    ("GNN RS&AR", "gnn-rsar", "PM"),
    ("GNN RS&AR", "gnn-rsar", "RD"),
    ("GNN AR&AG", "gnn-arag", "PM"),
    ("GNN AR&AG", "gnn-arag", "RD"),
    ("BFS", "bfs", "LJ"),
    ("BFS", "bfs", "LG"),
    ("CC", "cc", "LJ"),
    ("CC", "cc", "LG"),
    ("MLP", "mlp", "16k"),
    ("MLP", "mlp", "32k"),
];

/// The four graphs, generated from the seed. At the default seed they are
/// the harness graphs `pidcomm_bench::apps::{lj, lg, pm, rd}`.
pub struct Graphs {
    lj: CsrGraph,
    lg: CsrGraph,
    pm: CsrGraph,
    rd: CsrGraph,
}

pub struct Fig15 {
    seed: u64,
    /// `BENCH_apps.json` rows, checked at the default seed.
    reference: Vec<Value>,
}

impl Fig15 {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            reference: json::load_results("BENCH_apps.json")?,
        })
    }

    /// Runs one cell, sourcing its system from `arena`.
    fn run_cell(
        &self,
        g: &Graphs,
        case: usize,
        opt: OptLevel,
        arena: &mut SystemArena,
    ) -> pidcomm::Result<AppRun> {
        let (pes, threads) = (PES, 1);
        let dlrm = |dim, arena: &mut SystemArena| {
            let mut workload = DlrmConfig::criteo_like(dim);
            workload.batch_size = 2048;
            workload.seed = derive_seed(self.seed, workload.seed);
            let cfg = DlrmRunConfig {
                workload,
                pes,
                opt,
                threads,
            };
            run_dlrm_in(&cfg, arena)
        };
        let gnn = |variant, graph: &CsrGraph, arena: &mut SystemArena| {
            let cfg = GnnConfig {
                pes,
                feature_dim: 64,
                layers: 3,
                variant,
                opt,
                dtype: DType::I32,
                threads,
            };
            run_gnn_in(&cfg, graph, arena)
        };
        let bfs = |graph: &CsrGraph, arena: &mut SystemArena| {
            let cfg = BfsConfig { pes, opt, threads };
            run_bfs_in(&cfg, graph, default_source(graph), arena)
        };
        let cc = |graph: &CsrGraph, arena: &mut SystemArena| {
            run_cc_in(&CcConfig { pes, opt, threads }, graph, arena)
        };
        let mlp = |features, arena: &mut SystemArena| {
            let cfg = MlpConfig {
                features,
                layers: 5,
                pes,
                opt,
                threads,
            };
            run_mlp_in(&cfg, arena)
        };
        match case {
            0 => dlrm(16, arena),
            1 => dlrm(32, arena),
            2 => gnn(GnnVariant::RsAr, &g.pm, arena),
            3 => gnn(GnnVariant::RsAr, &g.rd, arena),
            4 => gnn(GnnVariant::ArAg, &g.pm, arena),
            5 => gnn(GnnVariant::ArAg, &g.rd, arena),
            6 => bfs(&g.lj, arena),
            7 => bfs(&g.lg, arena),
            8 => cc(&g.lj, arena),
            9 => cc(&g.lg, arena),
            10 => mlp(2048, arena),
            _ => mlp(4096, arena),
        }
    }
}

fn graph(
    name: &str,
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    undirected: bool,
) -> CsrGraph {
    let g = trace::span(&format!("data.rmat.{name}"), || {
        rmat(scale, edge_factor, params)
    });
    if undirected {
        trace::span(&format!("data.to_undirected.{name}"), || g.to_undirected())
    } else {
        g
    }
}

impl Workload for Fig15 {
    type State = Graphs;

    fn name(&self) -> &'static str {
        "fig15"
    }

    fn engine_threads(&self) -> usize {
        1
    }

    fn setup(&self, _gate: &mut Gate) -> Result<Graphs, String> {
        let s = |base| derive_seed(self.seed, base);
        Ok(Graphs {
            lj: graph("lj", 15, 16, RmatParams::skewed(s(0x117e)), true),
            lg: graph("lg", 13, 10, RmatParams::skewed(s(0x6a11a)), true),
            pm: graph("pm", 11, 4, RmatParams::uniform(s(0x9d)), false),
            rd: graph("rd", 11, 25, RmatParams::skewed(s(0x4edd17)), false),
        })
    }

    fn pass(&self, graphs: &mut Graphs, gate: &mut Gate) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            modeled_ns: 0.0,
        };
        for (case, (app, slug, dataset)) in CASES.iter().enumerate() {
            for opt in OPTS {
                let label = format!("{app}/{dataset}/{opt:?}");
                let span = format!("apps.cell.{slug}.{dataset}.{opt:?}");
                let (run, secs) = gate.op(
                    &label,
                    graphs,
                    |g| {
                        // A fresh arena per cell, so every cell pays its own
                        // first writes; it is dropped after the timer stops.
                        let mut arena = SystemArena::new();
                        let run = trace::span(&span, || self.run_cell(g, case, opt, &mut arena));
                        run.map(|r| (r, arena)).map_err(|e| e.to_string())
                    },
                    |_, (run, _)| {
                        if !run.validated {
                            return Err("output differs from the CPU reference".into());
                        }
                        if self.seed != DEFAULT_SEED {
                            return Ok(());
                        }
                        let opt = format!("{opt:?}");
                        let row = json::find_row(
                            &self.reference,
                            &[
                                ("app", app),
                                ("dataset", dataset),
                                ("opt", &opt),
                                ("pes", "1024"),
                            ],
                        );
                        let bits = row
                            .and_then(|r| r.get("modeled_bits"))
                            .and_then(Value::as_str);
                        check_bits("BENCH_apps.json", run.profile.total_ns(), bits)
                    },
                );
                pass.wall_s += secs;
                pass.modeled_ns += run.map_or(0.0, |(r, _)| r.profile.total_ns());
            }
        }
        pass
    }
}

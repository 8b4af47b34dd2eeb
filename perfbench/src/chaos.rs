//! `chaos`: the 35-cell soak — 5 small cases × {clean, flip, storm,
//! dead-pe} × quarantine on/off at 64 PEs — through
//! `pidcomm_bench::chaos::ChaosCase::run_in`, with fault seeds derived
//! from the run's seed.

use pidcomm::OptLevel;
use pidcomm_apps::{AppRun, ResilientRun};
use pidcomm_bench::apps;
use pidcomm_bench::chaos::{self, ChaosCase, ChaosCell, FaultProfile};
use pim_sim::SystemArena;

use crate::harness::{check_bits, derive_seed, Gate, Pass, Workload, DEFAULT_SEED};
use crate::json::{self, Value};
use crate::trace;

const PES: usize = 64;

/// Metric slugs of the five soak applications, in `chaos::cases()` order.
pub const APPS: [&str; 5] = ["dlrm", "gnn-rsar", "bfs", "cc", "mlp"];

pub struct State {
    cases: Vec<ChaosCase>,
    cells: Vec<ChaosCell>,
    /// The plain runners' results: every clean cell must equal its case's.
    plain: Vec<AppRun>,
    arena: SystemArena,
    /// The first pass's record of every cell; later passes must repeat it.
    first: Vec<Option<String>>,
}

pub struct Chaos {
    seed: u64,
    /// `BENCH_chaos.json` rows, checked at the default seed.
    reference: Vec<Value>,
}

impl Chaos {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            reference: json::load_results("BENCH_chaos.json")?,
        })
    }

    fn check_cell(&self, s: &State, i: usize, run: &ResilientRun) -> Result<(), String> {
        let cell = &s.cells[i];
        if cell.profile == FaultProfile::Clean && run.run != s.plain[cell.case] {
            return Err("clean resilient run differs from the plain runner".into());
        }
        if matches!(run.outcome, pidcomm::RunOutcome::Completed)
            && (!run.run.validated || run.mismatched != 0)
        {
            return Err("completed run does not match its CPU reference".into());
        }
        if let Some(first) = &s.first[i] {
            if *first != record(run) {
                return Err(format!(
                    "run differs from the first pass: {} vs {first}",
                    record(run)
                ));
            }
        }
        if self.seed != DEFAULT_SEED {
            return Ok(());
        }
        let app = s.cases[cell.case].app;
        let dataset = cell.dataset();
        let row = json::find_row(&self.reference, &[("app", app), ("dataset", &dataset)])
            .ok_or_else(|| format!("{app}/{dataset}: no BENCH_chaos.json row"))?;
        let want = |k: &str| row.get(k).and_then(Value::as_u64);
        let pinned = [
            ("retries", u64::from(run.retries)),
            ("backoff_epochs", run.backoff_epochs),
            ("checkpoint_restores", run.checkpoint_restores),
            ("quarantined", run.quarantined.len() as u64),
            ("mismatched", run.mismatched),
        ];
        for (k, got) in pinned {
            if want(k) != Some(got) {
                return Err(format!("{k} = {got}, BENCH_chaos.json {:?}", want(k)));
            }
        }
        let outcome = row.get("outcome").and_then(Value::as_str);
        if outcome != Some(run.outcome.label()) {
            return Err(format!(
                "outcome {}, BENCH_chaos.json {outcome:?}",
                run.outcome.label()
            ));
        }
        if row.get("validated").and_then(Value::as_bool) != Some(run.run.validated) {
            return Err("validated flag differs from BENCH_chaos.json".into());
        }
        let bits = row.get("modeled_bits").and_then(Value::as_str);
        check_bits("BENCH_chaos.json", run.modeled_ns, bits)
    }
}

/// Everything a cell's result pins, as one comparable line.
fn record(run: &ResilientRun) -> String {
    format!(
        "{} retries={} backoff={} restores={} quarantined={:?} mismatched={} modeled={:016x} validated={}",
        run.outcome.label(),
        run.retries,
        run.backoff_epochs,
        run.checkpoint_restores,
        run.quarantined,
        run.mismatched,
        run.modeled_ns.to_bits(),
        run.run.validated
    )
}

impl Workload for Chaos {
    type State = State;

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn engine_threads(&self) -> usize {
        1
    }

    fn setup(&self, gate: &mut Gate) -> Result<State, String> {
        let cases = chaos::cases();
        let mut cells = chaos::soak_cells(cases.len());
        for c in &mut cells {
            c.seed = derive_seed(self.seed, c.seed);
        }
        let mut arena = SystemArena::new();
        let mut plain = Vec::new();
        for (i, case) in apps::small_cases().iter().enumerate() {
            let (run, _) = gate.op(
                &format!("{} plain", case.app),
                &mut arena,
                |arena| {
                    let name = format!("apps.plain.{}", APPS[i]);
                    Ok(trace::span(&name, || {
                        case.run_in(PES, OptLevel::Full, 1, arena)
                    }))
                },
                |_, run| {
                    run.validated
                        .then_some(())
                        .ok_or("plain run not validated".into())
                },
            );
            plain.push(run.ok_or(format!("{}: plain reference run failed", case.app))?);
        }
        let first = vec![None; cells.len()];
        let mut state = State {
            cases,
            cells,
            plain,
            arena,
            first,
        };
        // One untimed, untraced warm-up pass over the soak; it also records
        // the results every timed pass must repeat.
        trace::untraced(|| self.pass(&mut state, gate));
        Ok(state)
    }

    fn pass(&self, s: &mut State, gate: &mut Gate) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            modeled_ns: 0.0,
        };
        for i in 0..s.cells.len() {
            let cell = s.cells[i];
            let app = s.cases[cell.case].app;
            let label = format!("{app}/{}", cell.dataset());
            let span = format!("chaos.cell.{}.{}", APPS[cell.case], cell.profile.label());
            let (run, secs) = gate.op(
                &label,
                s,
                |s| {
                    let case = &s.cases[cell.case];
                    let fault = cell.profile.plan(cell.seed);
                    Ok(trace::span(&span, || {
                        case.run_in(PES, fault, cell.policy(), &mut s.arena)
                    }))
                },
                |s, run| self.check_cell(s, i, run),
            );
            pass.wall_s += secs;
            if let Some(run) = run {
                pass.modeled_ns += run.modeled_ns;
                trace::count("recovery.retries", f64::from(run.retries));
                trace::count("recovery.restores", run.checkpoint_restores as f64);
                trace::count("recovery.backoff_epochs", run.backoff_epochs as f64);
                trace::count("recovery.quarantined", run.quarantined.len() as f64);
                trace::count("recovery.committed_ns", run.run.profile.total_ns());
                trace::count("recovery.modeled_ns", run.modeled_ns);
                s.first[i].get_or_insert_with(|| record(&run));
            }
        }
        pass
    }
}

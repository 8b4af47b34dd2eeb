//! `fig14`: all eight primitives × {Baseline, Full} at the fig14 geometry
//! (1024 PEs, shape (32, 32), mask `10`, 32 KiB per node, U64 Sum). Each
//! configuration is planned once in set-up and executed many times on one
//! system that set-up has already written, so first writes into fresh
//! memory land in `setup_s`. Sources are refilled before every execution
//! (outside the timer) and every output is compared with `pidcomm::oracle`.

use pidcomm::{
    oracle, BufferSpec, CollectivePlan, CommReport, Communicator, DimMask, HypercubeManager,
    HypercubeShape, OptLevel, Primitive,
};
use pim_sim::{DType, DimmGeometry, PeId, PimSystem, ReduceKind, TimeModel};

use crate::harness::{splitmix64, Gate, Pass, Workload, DEFAULT_SEED};
use crate::json::{self, Value};
use crate::trace;

/// Bytes per node of the chunked primitives (AA, RS, AR, Reduce).
const BYTES: usize = 32 * 1024;
const OPTS: [OptLevel; 2] = [OptLevel::Baseline, OptLevel::Full];
/// Engine fan-out: the whole 2-core budget.
pub const THREADS: usize = 2;

/// Metric slugs of the primitives, in `Primitive::ALL` order.
pub fn prim_slugs() -> impl Iterator<Item = &'static str> {
    Primitive::ALL.into_iter().map(Primitive::abbrev)
}

/// One byte buffer per PE, group member or group.
type Buffers = Vec<Vec<u8>>;

/// What a configuration must leave behind.
enum Expected {
    /// Per PE (by index): the bytes at the destination offset.
    PerPe(Vec<Vec<u8>>),
    /// Per group: the host output buffer.
    Host(Vec<Vec<u8>>),
}

/// One primitive's inputs and oracle outputs, shared by both opt levels.
struct PrimData {
    /// Bytes of each PE's source region the primitive reads (0 for
    /// host-rooted sends).
    src_len: usize,
    /// Host input per group (Scatter, Broadcast).
    host_in: Vec<Vec<u8>>,
    expected: Expected,
}

struct Config {
    data: usize,
    plan: CollectivePlan,
    /// Report of the warm-up execution; every later one must equal it.
    first: Option<CommReport>,
    /// Span name of a timed execution.
    span: String,
    /// Span name of the warm-up execution in set-up.
    warm_span: String,
}

pub struct State {
    sys: PimSystem,
    /// Source bytes of every PE (`BYTES` each).
    src: Vec<Vec<u8>>,
    prims: Vec<PrimData>,
    configs: Vec<Config>,
}

pub struct Fig14 {
    seed: u64,
    /// `BENCH_streaming.json` rows (Full AA/RS/AR/AG modeled µs).
    reference: Vec<Value>,
}

impl Fig14 {
    pub fn new(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            reference: json::load_results("BENCH_streaming.json")?,
        })
    }

    /// Deterministic per-PE source bytes derived from the seed.
    fn source(&self, pe: usize) -> Vec<u8> {
        let mut x = splitmix64(self.seed ^ splitmix64(pe as u64 + 1));
        (0..BYTES / 8)
            .flat_map(|_| {
                x = splitmix64(x);
                x.to_le_bytes()
            })
            .collect()
    }
}

/// Destination offset clear of every source extent.
const DST: usize = 2 * BYTES + 64;
/// Bytes each PE touches: source plus the largest destination.
const EXTENT: usize = DST + BYTES;

fn execute(
    plan: &CollectivePlan,
    sys: &mut PimSystem,
    host_in: &[Vec<u8>],
) -> pidcomm::Result<(CommReport, Option<Vec<Vec<u8>>>)> {
    match plan.primitive() {
        Primitive::Scatter | Primitive::Broadcast => {
            plan.execute_with_host(sys, host_in).map(|r| (r, None))
        }
        Primitive::Gather | Primitive::Reduce => {
            plan.execute_to_host(sys).map(|(r, h)| (r, Some(h)))
        }
        _ => plan.execute(sys).map(|r| (r, None)),
    }
}

/// Writes the source region of every PE, as one span of `name`.
fn refill(sys: &mut PimSystem, src: &[Vec<u8>], len: usize, name: &str) {
    let bytes = (len * src.len()) as u64;
    trace::span_bytes(name, bytes, || {
        for (pe, data) in src.iter().enumerate() {
            sys.pe_mut(PeId(pe as u32)).write(0, &data[..len]);
        }
    });
}

fn check_output(
    state: &mut State,
    cfg: usize,
    report: &CommReport,
    host_out: Option<&Vec<Vec<u8>>>,
) -> Result<(), String> {
    let c = &state.configs[cfg];
    if let Some(first) = &c.first {
        if first != report {
            return Err(format!(
                "report differs from the first execution: {} ns vs {} ns",
                report.time_ns(),
                first.time_ns()
            ));
        }
    }
    match &state.prims[c.data].expected {
        Expected::PerPe(want) => {
            for (pe, w) in want.iter().enumerate() {
                let got = state.sys.pe_mut(PeId(pe as u32)).read(DST, w.len());
                if got != &w[..] {
                    return Err(format!("PE {pe}: output differs from the oracle"));
                }
            }
            Ok(())
        }
        Expected::Host(want) => match host_out {
            Some(got) if got == want => Ok(()),
            Some(_) => Err("host output differs from the oracle".into()),
            None => Err("no host output".into()),
        },
    }
}

impl Fig14 {
    /// Refills the sources a configuration reads, then executes it as one
    /// gated operation. Returns the timed seconds and the modeled ns.
    fn run_config(&self, state: &mut State, cfg: usize, gate: &mut Gate) -> (f64, f64) {
        let data = state.configs[cfg].data;
        let len = state.prims[data].src_len;
        if len > 0 {
            refill(&mut state.sys, &state.src, len, "sim.write");
        }
        // A report is the meter's f64 delta over the execution, so a meter
        // that carries earlier executions would round it differently;
        // clearing it makes every execution report a fresh system's bits.
        state.sys.take_meter();
        let label = state.configs[cfg].span.clone();
        let (out, secs) = gate.op(
            &label,
            state,
            |s| {
                let c = &s.configs[cfg];
                let host_in = &s.prims[c.data].host_in;
                let span = if c.first.is_some() {
                    &c.span
                } else {
                    &c.warm_span
                };
                trace::span(span, || execute(&c.plan, &mut s.sys, host_in))
                    .map_err(|e| e.to_string())
            },
            |s, (report, host_out)| check_output(s, cfg, report, host_out.as_ref()),
        );
        let modeled = out.as_ref().map_or(0.0, |(r, _)| r.time_ns());
        if let Some((report, _)) = out {
            state.configs[cfg].first.get_or_insert(report);
        }
        (secs, modeled)
    }

    /// At the default seed, the Full AA/RS/AR/AG times must match
    /// `BENCH_streaming.json` to its three decimals.
    fn check_reference(&self, state: &State) -> Result<(), String> {
        for c in &state.configs {
            let (Some(first), OptLevel::Full) = (&c.first, c.plan.opt()) else {
                continue;
            };
            let abbrev = c.plan.primitive().abbrev();
            let Some(row) = json::find_row(&self.reference, &[("primitive", abbrev)]) else {
                continue;
            };
            let want = row
                .get("modeled_us")
                .and_then(Value::num_text)
                .unwrap_or("");
            let got = format!("{:.3}", first.time_ns() / 1e3);
            if got != want {
                return Err(format!(
                    "{abbrev} Full: modeled {got} us, BENCH_streaming.json {want} us"
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Fig14 {
    type State = State;

    fn name(&self) -> &'static str {
        "fig14"
    }

    fn engine_threads(&self) -> usize {
        THREADS
    }

    fn setup(&self, gate: &mut Gate) -> Result<State, String> {
        let geom = DimmGeometry::upmem_1024();
        let shape = HypercubeShape::new(vec![32, 32]).map_err(|e| e.to_string())?;
        let mask: DimMask = "10".parse().map_err(|e: pidcomm::Error| e.to_string())?;
        let manager = HypercubeManager::new(shape, geom).map_err(|e| e.to_string())?;
        let groups = manager.groups(&mask).map_err(|e| e.to_string())?;
        let n = groups[0].members.len();
        let small = (BYTES / n).max(8).next_multiple_of(8);

        let src: Vec<Vec<u8>> = geom.pes().map(|pe| self.source(pe.index())).collect();
        let mut sys = trace::span("sim.system_alloc", || {
            PimSystem::with_model(geom, TimeModel::upmem())
        });
        // First writes into fresh memory: the whole extent of every PE.
        let mut image = vec![0u8; EXTENT];
        trace::span_bytes("sim.first_touch", (EXTENT * src.len()) as u64, || {
            for (pe, data) in src.iter().enumerate() {
                image[..BYTES].copy_from_slice(data);
                sys.pe_mut(PeId(pe as u32)).write(0, &image);
            }
        });

        let inputs = |len: usize| -> Vec<Vec<Vec<u8>>> {
            groups
                .iter()
                .map(|g| {
                    g.members
                        .iter()
                        .map(|pe| src[pe.index()][..len].to_vec())
                        .collect()
                })
                .collect()
        };
        let per_pe = |outs: Vec<Vec<Vec<u8>>>| {
            let mut want = vec![Vec::new(); src.len()];
            for (g, out) in groups.iter().zip(outs) {
                for (pe, o) in g.members.iter().zip(out) {
                    want[pe.index()] = o;
                }
            }
            Expected::PerPe(want)
        };
        let host_bytes = |len: usize, salt: u64| -> Vec<Vec<u8>> {
            (0..groups.len())
                .map(|g| {
                    let mut x = splitmix64(self.seed ^ salt ^ (g as u64) << 32);
                    (0..len)
                        .map(|_| {
                            x = splitmix64(x);
                            x as u8
                        })
                        .collect()
                })
                .collect()
        };
        let (sum, u64t) = (ReduceKind::Sum, DType::U64);
        let each = |len: usize, f: &dyn Fn(&[Vec<u8>]) -> Buffers| {
            per_pe(inputs(len).iter().map(|i| f(i)).collect())
        };
        let host = |len: usize, f: &dyn Fn(&[Vec<u8>]) -> Vec<u8>| {
            Expected::Host(inputs(len).iter().map(|i| f(i)).collect())
        };
        let (mut prims, mut configs) = (Vec::new(), Vec::new());
        for prim in Primitive::ALL {
            // (spec bytes per node, source bytes read, host input, oracle)
            let (bytes, src_len, host_in, expected) = match prim {
                Primitive::AlltoAll => (BYTES, BYTES, vec![], each(BYTES, &oracle::alltoall)),
                Primitive::ReduceScatter => {
                    let rs = |i: &[Vec<u8>]| oracle::reduce_scatter(i, sum, u64t);
                    (BYTES, BYTES, vec![], each(BYTES, &rs))
                }
                Primitive::AllReduce => {
                    let ar = |i: &[Vec<u8>]| oracle::all_reduce(i, sum, u64t);
                    (BYTES, BYTES, vec![], each(BYTES, &ar))
                }
                Primitive::AllGather => (small, small, vec![], each(small, &oracle::all_gather)),
                Primitive::Scatter => {
                    let h = host_bytes(n * small, 0x5ca7);
                    let outs = h.iter().map(|h| oracle::scatter(h, n)).collect();
                    (small, 0, h, per_pe(outs))
                }
                Primitive::Gather => (small, small, vec![], host(small, &oracle::gather)),
                Primitive::Reduce => {
                    let re = |i: &[Vec<u8>]| oracle::reduce(i, sum, u64t);
                    (BYTES, BYTES, vec![], host(BYTES, &re))
                }
                Primitive::Broadcast => {
                    let h = host_bytes(small, 0xb40a);
                    let outs = h.iter().map(|h| oracle::broadcast(h, n)).collect();
                    (small, 0, h, per_pe(outs))
                }
            };
            let spec = BufferSpec::new(0, DST, bytes).with_dtype(u64t);
            for opt in OPTS {
                let comm = Communicator::new(manager.clone())
                    .with_opt(opt)
                    .with_threads(THREADS);
                let plan = trace::span("engine.plan", || comm.plan(prim, &mask, &spec, sum))
                    .map_err(|e| format!("{} {opt:?}: plan: {e}", prim.abbrev()))?;
                configs.push(Config {
                    data: prims.len(),
                    plan,
                    first: None,
                    span: format!("engine.exec.{}.{opt:?}", prim.abbrev()),
                    warm_span: format!("engine.warmup.{}.{opt:?}", prim.abbrev()),
                });
            }
            prims.push(PrimData {
                src_len,
                host_in,
                expected,
            });
        }
        let mut state = State {
            sys,
            src,
            prims,
            configs,
        };
        // Warm-up: one checked execution of every configuration.
        for cfg in 0..state.configs.len() {
            self.run_config(&mut state, cfg, gate);
        }
        if self.seed == DEFAULT_SEED {
            gate.op(
                "BENCH_streaming.json",
                &mut state,
                |_| Ok(()),
                |s, _| self.check_reference(s),
            );
        }
        Ok(state)
    }

    fn pass(&self, state: &mut State, gate: &mut Gate) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            modeled_ns: 0.0,
        };
        if trace::enabled() {
            // One verified refill per traced pass, for the verified-write
            // transport rate. The bytes are the same as a plain refill.
            state.sys.set_verify_writes(true);
            refill(&mut state.sys, &state.src, BYTES, "sim.verified_write");
            state.sys.set_verify_writes(false);
        }
        for cfg in 0..state.configs.len() {
            let (secs, modeled) = self.run_config(state, cfg, gate);
            pass.wall_s += secs;
            pass.modeled_ns += modeled;
        }
        pass
    }
}

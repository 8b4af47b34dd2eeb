//! The run loop shared by every workload: repeated set-up, closed-loop
//! timed passes, the correctness gate and the metric report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::layers;
use crate::stats::median;
use crate::trace;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The seed that reproduces the committed `BENCH_*.json` references.
pub const DEFAULT_SEED: u64 = 0;

/// Counts attempted and failed operations.
///
/// An operation fails when it returns an error, panics, or its output
/// fails its check. A failure is recorded and the run goes on; it never
/// aborts the process.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Gate {
    /// Runs one operation: `run` is timed, `check` is not. Returns the
    /// operation's output (if it produced one and passed its check) and
    /// the seconds `run` took.
    pub fn op<S, T>(
        &mut self,
        label: &str,
        state: &mut S,
        run: impl FnOnce(&mut S) -> Result<T, String>,
        check: impl FnOnce(&mut S, &T) -> Result<(), String>,
    ) -> (Option<T>, f64) {
        self.attempted += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run(state)));
        let secs = t0.elapsed().as_secs_f64();
        let verdict = match out {
            Ok(Ok(v)) => match catch_unwind(AssertUnwindSafe(|| check(state, &v))) {
                Ok(Ok(())) => Ok(v),
                Ok(Err(e)) => Err(format!("wrong output: {e}")),
                Err(p) => Err(format!("check panicked: {}", pidcomm::panic_message(&*p))),
            },
            Ok(Err(e)) => Err(format!("error: {e}")),
            Err(p) => Err(format!("panicked: {}", pidcomm::panic_message(&*p))),
        };
        match verdict {
            Ok(v) => (Some(v), secs),
            Err(e) => {
                self.fail(label, e);
                (None, secs)
            }
        }
    }

    fn fail(&mut self, label: &str, reason: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(format!("{label}: {reason}"));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One timed pass over a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Seconds spent inside timed operations.
    pub wall_s: f64,
    /// Simulated time summed over the pass's operations.
    pub modeled_ns: f64,
}

/// A workload: inputs built by `setup`, then passes repeated until the
/// run's time is up.
pub trait Workload {
    type State;
    fn name(&self) -> &'static str;
    /// The engine thread budget the workload passes to `pidcomm`.
    fn engine_threads(&self) -> usize;
    /// Builds the inputs and everything else the first timed operation
    /// needs. Warm-up operations go through `gate` like timed ones.
    fn setup(&self, gate: &mut Gate) -> Result<Self::State, String>;
    fn pass(&self, state: &mut Self::State, gate: &mut Gate) -> Pass;
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub gate: Gate,
    pub passes: usize,
    /// `wall_s`, `setup_s`, `peak_rss_mb`, `modeled_ms`, `failed_frac`.
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<trace::Span>,
    pub counts: Vec<trace::Count>,
}

/// Runs `w`: [`SETUP_REPEATS`] set-ups, then passes until `args.seconds`
/// have gone by (at least one pass; a traced run alternates untraced and
/// traced passes and makes at least one of each).
pub fn run<W: Workload>(w: &W, args: &RunArgs) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    trace::set_enabled(args.trace);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        let s = trace::span("setup", || w.setup(&mut gate))?;
        setups.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    trace::set_enabled(false);
    let mut state = state.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut modeled = Vec::new();
    loop {
        let tracing = args.trace && plain.len() > traced.len();
        trace::set_enabled(tracing);
        let p = trace::span("pass", || w.pass(&mut state, &mut gate));
        trace::set_enabled(false);
        modeled.push(p.modeled_ns);
        let kind = if tracing { "traced" } else { "untraced" };
        eprintln!("pass {} ({kind}): {:.6} s", modeled.len(), p.wall_s);
        if tracing {
            traced.push(p.wall_s);
        } else {
            plain.push(p.wall_s);
        }
        let done = start.elapsed() >= budget && (!args.trace || !traced.is_empty());
        if done {
            break;
        }
    }
    drop(state);
    if modeled.iter().any(|m| m.to_bits() != modeled[0].to_bits()) {
        gate.attempted += 1;
        gate.fail("modeled", format!("pass totals differ: {modeled:?}"));
    }

    let wall_s = median(&plain).unwrap_or(0.0);
    let end_to_end = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        Metric::new("modeled_ms", modeled[0] / 1e6, "ms"),
        Metric::new("failed_frac", gate.failed_frac(), "fraction"),
    ];
    let (spans, counts) = trace::take();
    let per_layer = if args.trace {
        let overhead_s = median(&traced).unwrap_or(0.0) - wall_s;
        layers::derive(&spans, &counts, traced.len(), overhead_s)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        gate,
        passes: plain.len() + traced.len(),
        end_to_end,
        per_layer,
        spans,
        counts,
    })
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Derives a per-input seed: the default seed keeps each generator's
/// committed seed `base`, any other seed mixes into it.
pub fn derive_seed(seed: u64, base: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        splitmix64(base ^ splitmix64(seed))
    }
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Compares a modeled time with a committed `modeled_bits` string.
pub fn check_bits(what: &str, ns: f64, reference: Option<&str>) -> Result<(), String> {
    let got = format!("{:016x}", ns.to_bits());
    match reference {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("{what}: modeled bits {got}, reference {want}")),
        None => Err(format!("{what}: no committed reference")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_output_counts_as_a_failed_operation() {
        let mut gate = Gate::default();
        let mut out = vec![0u8; 4];
        let (ok, _) = gate.op(
            "good",
            &mut out,
            |o| Ok(o.len()),
            |_, n| {
                if *n == 4 {
                    Ok(())
                } else {
                    Err("bad length".into())
                }
            },
        );
        assert_eq!(ok, Some(4));
        // A deliberately wrong output: the run writes 1, the check expects 0.
        let (bad, _) = gate.op(
            "wrong",
            &mut out,
            |o| {
                o[0] = 1;
                Ok(())
            },
            |o, _| {
                if o[0] == 0 {
                    Ok(())
                } else {
                    Err("byte 0 is 1".into())
                }
            },
        );
        assert_eq!(bad, None);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(gate.failures[0].contains("wrong output: byte 0 is 1"));
        assert_eq!(gate.failed_frac(), 0.5);
    }

    #[test]
    fn errors_and_panics_fail_without_crashing() {
        let mut gate = Gate::default();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (a, _) = gate.op(
            "err",
            &mut (),
            |_| Err::<(), _>("typed".to_string()),
            |_, _| Ok(()),
        );
        let (b, _) = gate.op(
            "panic",
            &mut (),
            |_| -> Result<(), String> { panic!("boom") },
            |_, _| Ok(()),
        );
        let (c, _) = gate.op(
            "check-panic",
            &mut (),
            |_| Ok(()),
            |_, _| panic!("check boom"),
        );
        std::panic::set_hook(prev);
        assert!(a.is_none() && b.is_none() && c.is_none());
        assert_eq!((gate.attempted, gate.failed), (3, 3));
        assert!(gate.failures[1].contains("panicked: boom"));
        assert!(gate.failures[2].contains("check panicked: check boom"));
    }

    #[test]
    fn default_seed_keeps_committed_generator_seeds() {
        assert_eq!(derive_seed(DEFAULT_SEED, 0x117e), 0x117e);
        assert_ne!(derive_seed(1, 0x117e), 0x117e);
        assert_ne!(derive_seed(1, 0x117e), derive_seed(2, 0x117e));
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
    }

    #[test]
    fn bit_checks_compare_exact_patterns() {
        assert!(check_bits("x", 1.5, Some("3ff8000000000000")).is_ok());
        assert!(check_bits("x", 1.5000000000000002, Some("3ff8000000000000")).is_err());
        assert!(check_bits("x", 1.5, None).is_err());
    }
}

//! `perfbench` — the end-to-end and per-layer benchmark of the PID-Comm
//! reproduction.
//!
//! ```text
//! perfbench --workload <fig15|fig14|chaos|design|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the committed `BENCH_*.json` files are
//! read as correctness references. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics. The
//! line before it is the full record with the run's metadata. A traced
//! run also writes its spans to `.perfbench/` in the Trace Event Format.
//! See README.md next to this crate's manifest.

#![forbid(unsafe_code)]

mod chaos;
mod design;
mod fig14;
mod fig15;
mod harness;
mod json;
mod layers;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use harness::{Metric, Outcome, RunArgs, Workload, DEFAULT_SEED};
use trace::json_escape;

/// The end-to-end metrics the final line reports (`BENCHMARK.json`'s
/// `end_to_end`). `modeled_ms` and `failed_frac` go in the record line:
/// the first repeats exactly across runs by design, and the second is
/// the final line's `failed / attempted`.
const END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <fig15|fig14|chaos|design|all> [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<RunArgs> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

/// The first line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Machine and run metadata, as a JSON object.
fn metadata<W: Workload>(w: &W, args: &RunArgs, passes: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {}, \"seed_dependent\": {}, \"seconds\": {}, \"passes\": {passes}, \"traced\": {}, \"nproc\": {nproc}, \"engine_threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        w.name(),
        args.seed,
        args.seed == DEFAULT_SEED,
        w.name() != "design",
        args.seconds,
        args.trace,
        w.engine_threads(),
        json_escape(&command_line("rustc", &["-V"])),
        json_escape(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value reads as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report<W: Workload>(w: &W, args: &RunArgs, out: &Outcome) -> Result<(), String> {
    let meta = metadata(w, args, out.passes);
    let g = &out.gate;
    eprintln!(
        "== {} seed {}: {} passes, {} of {} operations failed",
        w.name(),
        args.seed,
        out.passes,
        g.failed,
        g.attempted
    );
    for f in &g.failures {
        eprintln!("FAILED {f}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let dir = ".perfbench";
        let path = format!("{dir}/trace-{}-seed{}.json", w.name(), args.seed);
        let text = trace::trace_event_json(
            &format!("perfbench {}", w.name()),
            &out.spans,
            &out.counts,
            &meta,
        );
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, text))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path} ({} spans)", out.spans.len());
    }
    let record: Vec<&Metric> = out.end_to_end.iter().chain(&out.per_layer).collect();
    println!(
        "{{\"record\": {{\"meta\": {meta}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}}}",
        g.attempted,
        g.failed,
        metrics_json(record.into_iter())
    );
    let reported: Vec<&Metric> = if args.trace {
        out.per_layer.iter().collect()
    } else {
        out.end_to_end
            .iter()
            .filter(|m| END_TO_END.contains(&m.name.as_str()))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        g.failed == 0 && g.attempted > 0,
        g.attempted,
        g.failed,
        metrics_json(reported.into_iter())
    );
    Ok(())
}

fn run<W: Workload>(w: Result<W, String>, args: &RunArgs) -> Result<(), String> {
    let w = w?;
    let out = harness::run(&w, args)?;
    report(&w, args, &out)
}

/// The workloads `--workload all` runs, in order.
const WORKLOADS: [&str; 4] = ["fig15", "fig14", "chaos", "design"];

/// Runs every workload in its own child process, one after another,
/// relaying each one's record line, then prints one summary line.
fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for wl in WORKLOADS {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let out = Command::new(&exe)
            .args([
                "--workload",
                wl,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{wl}: cannot run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let [.., record, last] = lines[..] else {
            return Err(format!("{wl}: exited with {} and no result", out.status));
        };
        let result = json::parse(last).map_err(|e| format!("{wl}: bad result line: {e}"))?;
        println!("{record}");
        correct &= result.get("correct").and_then(json::Value::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        failed += result
            .get("failed")
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}}}");
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let result = match args.workload.as_str() {
        "fig15" => run(fig15::Fig15::new(args.seed), &args),
        "fig14" => run(fig14::Fig14::new(args.seed), &args),
        "chaos" => run(chaos::Chaos::new(args.seed), &args),
        "design" => run(design::Design::new(), &args),
        "all" => run_all(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|n| {
                (
                    n.to_string(),
                    if *n == "peak_rss_mb" { "MB" } else { "s" }.to_string(),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = layers::defs()
            .into_iter()
            .map(|d| (d.name, d.unit.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(names_of(&doc, "workloads"), WORKLOADS);
    }

    fn names_of(doc: &json::Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }
}

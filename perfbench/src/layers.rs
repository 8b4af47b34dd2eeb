//! Per-layer metrics of the traced run, derived from span self times.
//!
//! Every traced run reports every metric below. A metric whose layer the
//! workload does not call reports 0 (and its sample count 0), so the same
//! names line up across workloads.

use crate::harness::Metric;
use crate::stats::median;
use crate::trace::{self, Count, Span};
use crate::{chaos, design, fig14, fig15};

/// How one metric is computed.
#[derive(Debug, Clone, PartialEq)]
enum Rule {
    /// Median self time of the spans with this name, in ms.
    MedianMs(String),
    /// Median self time, in µs.
    MedianUs(String),
    /// Number of spans with this name.
    Samples(String),
    /// Bytes over self time of the spans with this name, in GB/s.
    Gbps(String),
    /// Self time of the spans with this name, summed and divided by the
    /// number of traced passes, in ms.
    MsPerPass(String),
    /// Counter total divided by the number of traced passes.
    CountPerPass(String),
    /// 1 − committed / full modeled time over the chaos cells.
    WasteFrac,
    /// Median traced pass minus median untraced pass, in s.
    Overhead,
}

/// One per-layer metric: name, unit and rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    rule: Rule,
}

fn def(name: impl Into<String>, unit: &'static str, rule: Rule) -> Def {
    Def {
        name: name.into(),
        unit,
        rule,
    }
}

/// Every per-layer metric, in report order (the `per_layer` list of
/// BENCHMARK.json).
pub fn defs() -> Vec<Def> {
    use Rule::*;
    let mut d = Vec::new();
    for g in ["lj", "lg", "pm", "rd"] {
        d.push(def(
            format!("data.rmat_ms.{g}"),
            "ms",
            MedianMs(format!("data.rmat.{g}")),
        ));
    }
    d.push(def(
        "sim.system_alloc_ms",
        "ms",
        MedianMs("sim.system_alloc".into()),
    ));
    for (m, s) in [
        ("first_touch", "first_touch"),
        ("write", "write"),
        ("verified_write", "verified_write"),
    ] {
        d.push(def(
            format!("sim.{m}_gbps"),
            "GB/s",
            Gbps(format!("sim.{s}")),
        ));
    }
    d.push(def(
        "engine.plan_build_us",
        "us",
        MedianUs("engine.plan".into()),
    ));
    d.push(def(
        "engine.cost_only_us",
        "us",
        MedianUs("engine.cost_only".into()),
    ));
    for t in design::tune_cases() {
        let span = format!("engine.autotune.{}", t.slug);
        d.push(def(
            format!("engine.autotune_ms.{}", t.slug),
            "ms",
            MedianMs(span),
        ));
    }
    d.push(def(
        "engine.autotune_explored",
        "count",
        CountPerPass("engine.autotune_explored".into()),
    ));
    for p in fig14::prim_slugs() {
        for o in ["Baseline", "Full"] {
            let span = format!("engine.exec.{p}.{o}");
            d.push(def(
                format!("engine.exec_ms.{p}.{o}"),
                "ms",
                MedianMs(span.clone()),
            ));
            d.push(def(
                format!("engine.exec_n.{p}.{o}"),
                "count",
                Samples(span),
            ));
        }
    }
    for (_, slug, dataset) in fig15::CASES {
        for o in ["Baseline", "Full"] {
            let span = format!("apps.cell.{slug}.{dataset}.{o}");
            d.push(def(
                format!("apps.cell_ms.{slug}.{dataset}.{o}"),
                "ms",
                MedianMs(span),
            ));
        }
    }
    for app in chaos::APPS {
        for p in ["clean", "flip", "storm", "dead-pe"] {
            let span = format!("chaos.cell.{app}.{p}");
            d.push(def(
                format!("chaos.cell_ms.{app}.{p}"),
                "ms",
                MsPerPass(span),
            ));
        }
    }
    for c in ["retries", "restores", "backoff_epochs", "quarantined"] {
        d.push(def(
            format!("recovery.{c}"),
            "count",
            CountPerPass(format!("recovery.{c}")),
        ));
    }
    d.push(def("recovery.waste_frac", "fraction", WasteFrac));
    d.push(def("trace.overhead_s", "s", Overhead));
    d
}

/// Computes every metric of [`defs`] from one traced run.
pub fn derive(
    spans: &[Span],
    counts: &[Count],
    traced_passes: usize,
    overhead_s: f64,
) -> Vec<Metric> {
    let stats = trace::by_name(spans);
    let totals = trace::count_totals(counts);
    let passes = traced_passes.max(1) as f64;
    let self_ns = |name: &str| -> Vec<f64> {
        stats
            .get(name)
            .map(|s| s.self_ns.iter().map(|&t| t as f64).collect())
            .unwrap_or_default()
    };
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    defs()
        .into_iter()
        .map(|d| {
            let value = match &d.rule {
                Rule::MedianMs(s) => median(&self_ns(s)).unwrap_or(0.0) / 1e6,
                Rule::MedianUs(s) => median(&self_ns(s)).unwrap_or(0.0) / 1e3,
                Rule::Samples(s) => self_ns(s).len() as f64,
                Rule::Gbps(s) => {
                    let ns: f64 = self_ns(s).iter().sum();
                    let bytes = stats.get(s.as_str()).map_or(0, |st| st.bytes);
                    if ns > 0.0 {
                        bytes as f64 / ns
                    } else {
                        0.0
                    }
                }
                Rule::MsPerPass(s) => self_ns(s).iter().sum::<f64>() / 1e6 / passes,
                Rule::CountPerPass(c) => total(c) / passes,
                Rule::WasteFrac => {
                    let full = total("recovery.modeled_ns");
                    if full > 0.0 {
                        1.0 - total("recovery.committed_ns") / full
                    } else {
                        0.0
                    }
                }
                Rule::Overhead => overhead_s,
            };
            Metric::new(d.name, value, d.unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, bytes: u64) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            bytes,
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn names_are_unique_and_fit_the_budget() {
        let d = defs();
        let names: std::collections::BTreeSet<&str> = d.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), d.len());
        assert!(d.len() <= 128, "{} per-layer metrics", d.len());
    }

    #[test]
    fn metrics_use_self_time_medians_and_counts() {
        let spans = vec![
            span("pass", 0, 10_000_000, None, 0),
            span("engine.exec.AA.Full", 0, 2_000_000, Some(0), 0),
            span("engine.exec.AA.Full", 3_000_000, 4_000_000, Some(0), 0),
            span("engine.exec.AA.Full", 5_000_000, 9_000_000, Some(0), 0),
            // 1 GB in 0.5 s of self time.
            span("sim.write", 0, 1_000_000_000, None, 1_000_000_000),
            span("engine.plan", 100, 600_000_100, Some(4), 0),
        ];
        let counts = vec![
            Count {
                name: "recovery.retries".into(),
                ts_ns: 0,
                value: 3.0,
            },
            Count {
                name: "recovery.retries".into(),
                ts_ns: 1,
                value: 1.0,
            },
            Count {
                name: "recovery.modeled_ns".into(),
                ts_ns: 1,
                value: 200.0,
            },
            Count {
                name: "recovery.committed_ns".into(),
                ts_ns: 1,
                value: 150.0,
            },
        ];
        let m = derive(&spans, &counts, 2, 0.25);
        assert_eq!(value(&m, "engine.exec_ms.AA.Full"), 2.0);
        assert_eq!(value(&m, "engine.exec_n.AA.Full"), 3.0);
        assert_eq!(value(&m, "engine.exec_n.RS.Full"), 0.0);
        assert_eq!(value(&m, "sim.write_gbps"), 1e9 / 400_000_000.0);
        assert_eq!(value(&m, "engine.plan_build_us"), 600_000.0);
        assert_eq!(value(&m, "recovery.retries"), 2.0);
        assert_eq!(value(&m, "recovery.waste_frac"), 0.25);
        assert_eq!(value(&m, "trace.overhead_s"), 0.25);
        assert_eq!(value(&m, "apps.cell_ms.bfs.LG.Full"), 0.0);
    }
}

//! From outcomes and spans to the two metric sets, plus the human summary
//! printed to stderr.

use crate::harness::{host_peak_mb, Outcome};
use crate::metrics::{frac, self_time_name, Metrics, SPAN_LAYERS};
use crate::spans::{by_layer, durations_ms, Span};
use crate::stats::{median, percentile, tail_permille};

/// Virtual-clock latencies (ms) of the ops that ran.
pub fn latencies_ms(o: &Outcome) -> Vec<f64> {
    o.ops
        .iter()
        .filter_map(|op| op.latency_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    // The fastest of many set-ups spread over the run: the host only ever
    // adds time to a set-up, and set-ups of a few milliseconds swing by a
    // quarter between runs under that noise, their fastest by much less.
    let fastest = o.setup_s.iter().copied().reduce(f64::min);
    m.set("setup_s", fastest.unwrap_or(0.0));
    m.set("wall_s", median(&o.pass_s).unwrap_or(0.0));
    m.set("sim_ms", o.sim_ns as f64 / 1e6);
    m.set("h2d_mb", o.h2d_bytes as f64 / 1e6);
    m.set("host_peak_mb", o.host_peak_mb.unwrap_or_else(host_peak_mb));
    let lat = latencies_ms(o);
    m.set("p50_ms", percentile(&lat, 500).unwrap_or(0.0));
    m.set("p90_ms", percentile(&lat, 900).unwrap_or(0.0));
    let met = o
        .ops
        .iter()
        .filter(|op| op.ok && op.latency_ns.is_some_and(|l| l <= o.slo_limit_ns))
        .count();
    m.set("slo_frac", frac(met as f64, o.ops.len() as f64));
    m
}

/// Median duration (ms) of the spans named `name`, 0 when there are none.
fn median_ms(spans: &[Span], name: &str) -> f64 {
    median(&durations_ms(spans, name)).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run, next to the untraced run that
/// preceded it in the same process.
pub fn per_layer(traced: &Outcome, untraced: &Outcome, spans: &[Span]) -> Metrics {
    let mut m = traced.layers.clone();
    m.set("graph.build_s", median_ms(spans, "graph.build") / 1e3);
    m.set(
        "graph.patch.apply_ms",
        median_ms(spans, "graph.patch.apply"),
    );
    m.set("core.prepare_ms", median_ms(spans, "core.prepare"));
    for algo in ["bfs", "sssp", "cc", "pr"] {
        m.set(
            format!("core.session.run_ms.{algo}"),
            median_ms(spans, &format!("core.session.run.{algo}")),
        );
    }
    m.set("core.apply_patch_ms", median_ms(spans, "core.apply_patch"));
    m.set("core.repair_ms", median_ms(spans, "core.repair"));
    m.set("serve.serve_s", median_ms(spans, "serve.serve") / 1e3);
    let layers = by_layer(spans);
    for layer in SPAN_LAYERS {
        let mean_self_ms = layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 / l.count as f64 / 1e6);
        m.set(self_time_name(layer), mean_self_ms);
    }
    let plain = median(&untraced.pass_s).unwrap_or(0.0);
    let armed = median(&traced.pass_s).unwrap_or(0.0);
    m.set("obs.untraced_wall_s", plain);
    m.set("obs.traced_wall_s", armed);
    m.set("obs.trace_overhead_frac", frac(armed - plain, plain));
    let attempted = traced.attempted + untraced.attempted;
    let failed = traced.failed + untraced.failed;
    m.set("ops.attempted", attempted as f64);
    m.set("ops.failed_frac", frac(failed as f64, attempted as f64));
    m.set("ops.latency_samples", latencies_ms(traced).len() as f64);
    m
}

/// Human summary of an untraced run.
pub fn describe_end_to_end(workload: &str, o: &Outcome, m: &Metrics) -> String {
    let n = latencies_ms(o).len();
    let tail = tail_permille(n).map_or("none".to_string(), |pm| format!("p{}", pm as f64 / 10.0));
    let mut s = format!(
        "{workload}: {} set-up reps, {} passes, {} ops attempted, {} failed \
         (failed_frac {}); latency over {n} samples (tail rule allows {tail}); \
         slo limit {} ms\n",
        o.setup_s.len(),
        o.pass_s.len(),
        o.attempted,
        o.failed,
        frac(o.failed as f64, o.attempted as f64),
        o.slo_limit_ns as f64 / 1e6,
    );
    let walls: Vec<String> = o.pass_s.iter().map(|w| format!("{w:.3}")).collect();
    s.push_str(&format!("  pass walls (s): {}\n", walls.join(" ")));
    let setups: Vec<String> = o
        .setup_s
        .iter()
        .map(|t| format!("{:.2}", t * 1e3))
        .collect();
    s.push_str(&format!("  set-ups (ms): {}\n", setups.join(" ")));
    for name in m.names() {
        s.push_str(&format!("  {name:<14} {}\n", m.get(name).unwrap_or(0.0)));
    }
    s
}

/// Human summary of a traced run: every span layer's count, total and self
/// time, then the per-layer metrics.
pub fn describe_layers(workload: &str, spans: &[Span], m: &Metrics) -> String {
    let mut s = format!(
        "{workload} traced run: {} spans\n  {:<24} {:>7} {:>12} {:>12}\n",
        spans.len(),
        "layer",
        "spans",
        "total_ms",
        "self_ms"
    );
    for (name, l) in by_layer(spans) {
        s.push_str(&format!(
            "  {name:<24} {:>7} {:>12.3} {:>12.3}\n",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        ));
    }
    for name in m.names() {
        s.push_str(&format!("  {name:<36} {}\n", m.get(name).unwrap_or(0.0)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Op, Params};
    use crate::metrics::{per_layer_defs, END_TO_END};
    use crate::spans::Spans;
    use crate::workloads::Workload;

    fn tiny(traced: bool) -> Params {
        Params {
            seed: 3,
            seconds: 0.0,
            traced,
            tiny: true,
        }
    }

    #[test]
    fn setup_is_the_fastest_and_wall_the_median() {
        let o = Outcome {
            setup_s: vec![0.012, 0.009, 0.015],
            pass_s: vec![1.0, 3.0, 2.0],
            ..Outcome::default()
        };
        let m = end_to_end(&o);
        assert_eq!(m.get("setup_s"), Some(0.009));
        assert_eq!(m.get("wall_s"), Some(2.0));
    }

    #[test]
    fn slo_counts_failures_as_misses() {
        let o = Outcome {
            ops: vec![
                Op {
                    latency_ns: Some(1),
                    ok: true,
                },
                Op {
                    latency_ns: Some(1),
                    ok: false,
                },
                Op {
                    latency_ns: None,
                    ok: false,
                },
                Op {
                    latency_ns: Some(10),
                    ok: true,
                },
            ],
            slo_limit_ns: 5,
            ..Outcome::default()
        };
        let m = end_to_end(&o);
        assert_eq!(m.get("slo_frac"), Some(0.25));
        assert_eq!(latencies_ms(&o).len(), 3);
    }

    /// Every workload runs at test size, answers correctly, and emits
    /// every end-to-end metric non-zero and every per-layer metric.
    #[test]
    fn every_workload_emits_every_metric() {
        for w in Workload::ALL {
            let mut inert = Spans::new(false);
            let plain = w.run(&tiny(false), &mut inert);
            assert!(plain.attempted > 0, "{}", w.name());
            assert_eq!(plain.failed, 0, "{} failed ops", w.name());
            let e2e = end_to_end(&plain);
            for d in END_TO_END {
                let v = e2e.get(d.name).unwrap_or(0.0);
                assert!(v > 0.0, "{}: {} reads {v}", w.name(), d.name);
            }
            assert_eq!(e2e.names().count(), END_TO_END.len());

            let mut spans = Spans::new(true);
            let traced = w.run(&tiny(true), &mut spans);
            assert_eq!(traced.failed, 0);
            let layers = per_layer(&traced, &plain, spans.spans());
            let defs = per_layer_defs();
            for name in layers.names() {
                assert!(
                    defs.iter().any(|(n, _, _)| n == name),
                    "{}: {name} is not catalogued",
                    w.name()
                );
            }
            for layer in ["setup", "graph.build", "core.prepare", "oracle", "pass"] {
                assert!(
                    layers.get(&self_time_name(layer)).unwrap_or(0.0) > 0.0,
                    "{}: no self time for {layer}",
                    w.name()
                );
            }
            assert!(layers.get("graph.build_s").unwrap_or(0.0) > 0.0);
            assert!(layers.get("ops.attempted").unwrap_or(0.0) > 0.0);
        }
    }
}

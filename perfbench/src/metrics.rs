//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names,
//! units and directions; `BENCHMARK.json` repeats them and a test keeps
//! the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with tracing off. An
/// "op" is a query (traverse), an engine iteration (iterate), a mutation
/// batch (churn) or a job (serve).
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_ms", "ms", Lower, 0.15),
    e2e("h2d_mb", "MB", Lower, 0.2),
    e2e("host_peak_mb", "MB", Lower, 0.1),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.2),
    e2e("slo_frac", "fraction", Higher, 0.1),
];

/// Self-time layers: one `self.<layer>_ms` metric per span name.
pub const SPAN_LAYERS: [&str; 15] = [
    "setup",
    "graph.build",
    "graph.variants",
    "core.prepare",
    "oracle",
    "pass",
    "core.session.run.bfs",
    "core.session.run.sssp",
    "core.session.run.cc",
    "core.session.run.pr",
    "graph.patch.apply",
    "core.apply_patch",
    "core.repair",
    "serve.serve",
    "check",
];

/// Per-layer metrics, printed by every workload in the traced run. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [Def; 81] = [
    layer("graph.build_s", "s", Lower),
    layer("graph.patch.apply_ms", "ms", Lower),
    layer("graph.patch.splits", "count", Lower),
    layer("par.jobs_persistent", "count", Lower),
    layer("par.jobs_inline", "count", Lower),
    layer("par.chunks_served", "count", Lower),
    layer("par.job_wall_p50_us", "us", Lower),
    layer("core.prepare_ms", "ms", Lower),
    layer("core.session.run_ms.bfs", "ms", Lower),
    layer("core.session.run_ms.sssp", "ms", Lower),
    layer("core.session.run_ms.cc", "ms", Lower),
    layer("core.session.run_ms.pr", "ms", Lower),
    layer("core.session.iterations.bfs", "count", Lower),
    layer("core.session.iterations.sssp", "count", Lower),
    layer("core.session.iterations.cc", "count", Lower),
    layer("core.session.iterations.pr", "count", Lower),
    layer("core.session.sim_ms.bfs", "ms", Lower),
    layer("core.session.sim_ms.sssp", "ms", Lower),
    layer("core.session.sim_ms.cc", "ms", Lower),
    layer("core.session.sim_ms.pr", "ms", Lower),
    layer("core.session.active_edges", "count", Lower),
    layer("core.maps.sim_ms", "ms", Lower),
    layer("core.static.edge_frac", "fraction", Higher),
    layer("core.static.compute_sim_ms", "ms", Lower),
    layer("core.static.prestore_mb", "MB", Lower),
    layer("core.ondemand.gather_sim_ms", "ms", Lower),
    layer("core.ondemand.transfer_sim_ms", "ms", Lower),
    layer("core.ondemand.h2d_mb", "MB", Lower),
    layer("core.ondemand.h2d_ops", "count", Lower),
    layer("core.ondemand.payload_peak_mb", "MB", Lower),
    layer("core.ondemand.compute_sim_ms", "ms", Lower),
    layer("algos.kernel_edges", "count", Lower),
    layer("algos.kernel_launches", "count", Lower),
    layer("algos.kernel_sim_ms", "ms", Lower),
    layer("core.hotness.update_sim_ms", "ms", Lower),
    layer("core.hotness.refresh_mb", "MB", Lower),
    layer("core.hotness.repartitions", "count", Lower),
    layer("core.prefetch.issued_mb", "MB", Lower),
    layer("core.prefetch.ops", "count", Lower),
    layer("core.prefetch.hit_frac", "fraction", Higher),
    layer("core.prefetch.waste_mb", "MB", Lower),
    layer("core.codec.raw_mb", "MB", Lower),
    layer("core.codec.wire_frac", "fraction", Lower),
    layer("core.codec.declined", "count", Lower),
    layer("core.direction.pull_iters", "count", Lower),
    layer("core.apply_patch_ms", "ms", Lower),
    layer("core.repair_ms", "ms", Lower),
    layer("core.patch.sim_ms", "ms", Lower),
    layer("core.patch.wire_kb", "kB", Lower),
    layer("core.patch.refreshed_chunks", "count", Lower),
    layer("core.repair.sim_ms", "ms", Lower),
    layer("core.repair.iterations", "count", Lower),
    layer("core.repair.active_edges", "count", Lower),
    layer("core.repair.seeded", "count", Lower),
    layer("core.repair.restart", "count", Lower),
    layer("core.repair.fallback", "count", Lower),
    layer("serve.serve_s", "s", Lower),
    layer("serve.queue_p50_ms", "ms", Lower),
    layer("serve.queue_p90_ms", "ms", Lower),
    layer("serve.admission_p50_ms", "ms", Lower),
    layer("serve.h2d_p50_ms", "ms", Lower),
    layer("serve.compute_p50_ms", "ms", Lower),
    layer("serve.runs", "count", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.batch_occupancy", "lanes/run", Higher),
    layer("serve.sessions_built", "count", Lower),
    layer("serve.residency_hit_mb", "MB", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.replications", "count", Lower),
    layer("serve.replicated_mb", "MB", Lower),
    layer("sim.window_ms", "ms", Lower),
    layer("sim.link_busy_frac", "fraction", Lower),
    layer("sim.compute_busy_frac", "fraction", Higher),
    layer("sim.overlap_frac", "fraction", Higher),
    layer("sim.gpu_idle_ms", "ms", Lower),
    layer("obs.untraced_wall_s", "s", Lower),
    layer("obs.traced_wall_s", "s", Lower),
    layer("obs.trace_overhead_frac", "fraction", Lower),
    layer("ops.attempted", "count", Higher),
    layer("ops.failed_frac", "fraction", Lower),
    layer("ops.latency_samples", "count", Higher),
];

/// Every ratio metric and the metric that carries its base.
pub const RATIO_BASES: [(&str, &str); 10] = [
    ("core.static.edge_frac", "core.session.active_edges"),
    ("core.prefetch.hit_frac", "core.prefetch.ops"),
    ("core.codec.wire_frac", "core.codec.raw_mb"),
    ("serve.batch_occupancy", "serve.runs"),
    ("sim.link_busy_frac", "sim.window_ms"),
    ("sim.compute_busy_frac", "sim.window_ms"),
    ("sim.overlap_frac", "sim.window_ms"),
    ("obs.trace_overhead_frac", "obs.untraced_wall_s"),
    ("ops.failed_frac", "ops.attempted"),
    ("slo_frac", "ops.latency_samples"),
];

/// The self-time metric name of a span layer.
pub fn self_time_name(layer: &str) -> String {
    format!("self.{layer}_ms")
}

/// Every per-layer metric name: [`PER_LAYER`] plus one self time per
/// [`SPAN_LAYERS`] entry.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit, d.better))
        .chain(
            SPAN_LAYERS
                .iter()
                .map(|l| (self_time_name(l), "ms", Better::Lower)),
        )
        .collect()
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1–16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A set of measured values keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record `value` under `name` (replacing any earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The `metrics` object of the result line: every `(name, unit)` in
    /// `defs`, in catalog order, missing values reading 0.
    pub fn to_json(&self, defs: &[(String, &'static str)]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The benchmark's final stdout line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    defs: &[(String, &'static str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(defs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(seen.insert(d.name.to_string()), "duplicate {}", d.name);
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        for (name, unit, _) in per_layer_defs() {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(seen.len() <= 8 + 128);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up has the largest bound");
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("core.session.run_ms.bfs"));
        assert!(valid_name("self.graph.patch.apply_ms"));
        assert!(valid_name("9-lives_x.y"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("ünïcode"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_ratio_is_emitted_with_its_base() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|d| d.name.to_string())
            .chain(per_layer_defs().into_iter().map(|(n, _, _)| n))
            .collect();
        let is_ratio = |n: &str| n.ends_with("_frac") || n.ends_with("occupancy");
        for n in names.iter().filter(|n| is_ratio(n)) {
            let base = RATIO_BASES
                .iter()
                .find(|(r, _)| r == n)
                .map(|(_, b)| *b)
                .unwrap_or_else(|| panic!("ratio {n} has no declared base"));
            assert!(names.iter().any(|m| m == base), "{n}: base {base} missing");
        }
        for (r, _) in RATIO_BASES {
            assert!(names.iter().any(|m| m == r), "stale ratio {r}");
        }
    }

    /// `(name, unit, better, bound)` of every metric object in one section
    /// of `BENCHMARK.json`, in file order.
    fn section(text: &str, key: &str, end: &str) -> Vec<(String, String, String, Option<f64>)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let stop = text[start..].find(end).map_or(text.len(), |i| start + i);
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\""))? + f.len() + 2;
            let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
            let v = match rest.strip_prefix('"') {
                Some(s) => &s[..s.find('"')?],
                None => &rest[..rest.find([',', '}', '\n'])?],
            };
            Some(v.trim().to_string())
        };
        text[start..stop]
            .split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").expect("name"),
                    field(obj, "unit").expect("unit"),
                    field(obj, "better").expect("better"),
                    field(obj, "bound").map(|b| b.parse().expect("numeric bound")),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        ascetic_obs::json::validate(&text).expect("valid JSON");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    d.better.as_str().into(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(section(&text, "end_to_end", "\"per_layer\""), e2e);
        let layers: Vec<_> = per_layer_defs()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.as_str().to_string(), None))
            .collect();
        assert_eq!(section(&text, "per_layer", "]"), layers);
        for w in crate::workloads::Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "workload {} missing",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        let defs = vec![("setup_s".to_string(), "s"), ("wall_s".to_string(), "s")];
        let line = result_line(true, 3, 0, &m, &defs);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        ascetic_obs::json::validate(&line).expect("valid JSON");
    }
}

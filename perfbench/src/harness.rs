//! What every workload shares: run parameters, the timing loop, the
//! outcome a workload hands back, and the tally of engine run reports.

use std::time::Instant;

use ascetic_algos::inmemory::run_in_memory;
use ascetic_algos::{Algo, AnyProgram, ProgramOpts};
use ascetic_bench::setup::source_vertex;
use ascetic_core::{pool_metrics_snapshot, RunReport};
use ascetic_graph::{Csr, VertexId};
use ascetic_obs::{Histogram, MetricsSnapshot};

use crate::metrics::{frac, Metrics};
use crate::spans::Spans;

/// How one workload invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: f64,
    /// Arm the engine's virtual-clock tracer. A traced run sets up once
    /// and repeats no set-up between passes.
    pub traced: bool,
    /// Shrink every input to test size.
    pub tiny: bool,
}

impl Params {
    /// The measured phase: 2 to 50 passes, each followed by `setup_reps`
    /// throwaway set-ups unless the run is traced.
    pub fn schedule(&self, setup_reps: usize) -> Schedule {
        Schedule {
            min: 2,
            max: 50,
            setup_reps: if self.traced { 0 } else { setup_reps },
        }
    }
}

/// One op of the first measured pass: its latency on the virtual clock
/// (`None` when it never ran) and whether it produced the right answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Virtual-clock latency, ns.
    pub latency_ns: Option<u64>,
    /// Ran and matched the oracle.
    pub ok: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of each set-up: the one the passes use, then every
    /// throwaway repetition, s.
    pub setup_s: Vec<f64>,
    /// Host time of each measured pass, s.
    pub pass_s: Vec<f64>,
    /// Peak resident set after the first pass, MB (`None` when no pass
    /// ran).
    pub host_peak_mb: Option<f64>,
    /// Simulated time to complete the first pass's op set, ns.
    pub sim_ns: u64,
    /// Host→device wire bytes of the first pass.
    pub h2d_bytes: u64,
    /// The first pass's ops.
    pub ops: Vec<Op>,
    /// Latency limit an op must meet to count toward `slo_frac`, ns.
    pub slo_limit_ns: u64,
    /// Ops attempted over every pass.
    pub attempted: u64,
    /// Ops that failed over every pass (wrong answer, refused, errored).
    pub failed: u64,
    /// Deterministic per-layer counts from the first pass.
    pub layers: Metrics,
}

impl Outcome {
    /// Keep the measured phase's host figures.
    pub fn record(&mut self, t: Timings) {
        self.pass_s = t.pass_s;
        self.setup_s.extend(t.setup_s);
        self.host_peak_mb = t.host_peak_mb;
    }

    /// Count one checked op.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// splitmix64: spreads a user seed so neighbouring seeds give unrelated
/// streams (some generators keep only `seed | 1`).
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* stream for seed-drawn inputs.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the run seed and a per-input `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix_seed(seed, salt) | 1)
    }

    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One uniformly drawn element of a non-empty `pool`.
    pub fn pick(&mut self, pool: &[VertexId]) -> VertexId {
        pool[(self.next_u64() % pool.len() as u64) as usize]
    }
}

/// The vertices reachable from `g`'s hub: the giant component of an
/// undirected stand-in. Traversal sources are drawn from it, so a seed
/// never lands a query on a trivial fragment.
pub fn giant_component(g: &Csr) -> Vec<VertexId> {
    let hub = source_vertex(g);
    let mut seen = vec![false; g.num_vertices()];
    seen[hub as usize] = true;
    let mut queue = std::collections::VecDeque::from([hub]);
    while let Some(v) = queue.pop_front() {
        for &t in g.neighbors(v) {
            if !std::mem::replace(&mut seen[t as usize], true) {
                queue.push_back(t);
            }
        }
    }
    (0..g.num_vertices() as VertexId)
        .filter(|&v| seen[v as usize])
        .collect()
}

/// The span name of a session run of `algo`.
pub fn run_span(algo: Algo) -> &'static str {
    match algo {
        Algo::Bfs => "core.session.run.bfs",
        Algo::Sssp => "core.session.run.sssp",
        Algo::Cc => "core.session.run.cc",
        Algo::Pr => "core.session.run.pr",
        _ => "core.session.run.other",
    }
}

/// The registry program for `algo` rooted at `source`.
pub fn program(algo: Algo, source: VertexId) -> AnyProgram {
    algo.program(&ProgramOpts::from_source(source))
}

/// Fingerprint of the in-memory oracle's answer.
pub fn oracle_fp(g: &Csr, prog: &AnyProgram) -> u64 {
    run_in_memory(g, prog).output.fingerprint()
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `setup` once inside a `setup` span: its result and host seconds.
pub fn timed_setup<T>(spans: &mut Spans, setup: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
    let t = Instant::now();
    let open = spans.open("setup", 0);
    let made = setup(spans);
    spans.close(open);
    (made, secs(t))
}

/// How often the measured phase runs and repeats set-up.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Least passes.
    pub min: usize,
    /// Most passes.
    pub max: usize,
    /// Throwaway set-ups after each pass (none on a traced run).
    pub setup_reps: usize,
}

/// Host seconds of the measured phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timings {
    /// Each pass's own measure.
    pub pass_s: Vec<f64>,
    /// Each throwaway set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set after the first pass, before any throwaway
    /// set-up, MB.
    pub host_peak_mb: Option<f64>,
}

/// Run `pass` until `seconds` have gone by, at least `sched.min` and at
/// most `sched.max` times; `pass(i)` returns the host seconds it measured.
/// After each pass, `sched.setup_reps` set-ups are made, timed and
/// dropped, so that `setup_s` samples the host across the whole run, as
/// `wall_s` does, and not only in its first moments: this host's speed
/// drifts over seconds. The peak resident set is read before the first of
/// them, since a second copy of the set-up beside the first is the
/// benchmark's doing.
pub fn timed_passes<T>(
    seconds: f64,
    sched: Schedule,
    spans: &mut Spans,
    mut setup: impl FnMut(&mut Spans) -> T,
    mut pass: impl FnMut(usize, &mut Spans) -> f64,
) -> Timings {
    let t0 = Instant::now();
    let mut t = Timings::default();
    while t.pass_s.len() < sched.min || (t.pass_s.len() < sched.max && secs(t0) < seconds) {
        let i = t.pass_s.len();
        let open = spans.open("pass", 0);
        t.pass_s.push(pass(i, spans));
        spans.close(open);
        t.host_peak_mb.get_or_insert_with(host_peak_mb);
        for _ in 0..sched.setup_reps {
            t.setup_s.push(timed_setup(spans, &mut setup).1);
        }
    }
    t
}

/// Peak resident set of this process, MB (1e6 B), from `VmHWM`.
pub fn host_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Worker-pool counters accumulated between two snapshots.
pub fn emit_pool_delta(before: &MetricsSnapshot, m: &mut Metrics) {
    let d = pool_metrics_snapshot().diff(before);
    for (name, key) in [
        ("par.jobs_persistent", "pool.jobs_persistent"),
        ("par.jobs_inline", "pool.jobs_inline"),
        ("par.chunks_served", "pool.chunks_served"),
    ] {
        m.set(name, d.counter(key).unwrap_or(0) as f64);
    }
    if let Some(h) = d.histogram("pool.job_wall_ns") {
        m.set("par.job_wall_p50_us", histogram_p50(h) / 1e3);
    }
}

/// Median of a log2-bucketed histogram: the geometric middle of the
/// bucket holding the middle sample.
fn histogram_p50(h: &Histogram) -> f64 {
    let half = h.count().div_ceil(2);
    let mut seen = 0;
    for (i, &c) in h.buckets().iter().enumerate() {
        seen += c;
        if c > 0 && seen >= half {
            let (lo, hi) = Histogram::bucket_range(i);
            return ((lo.max(1) as f64) * (hi as f64)).sqrt();
        }
    }
    0.0
}

/// Per-layer counts summed over a set of engine runs.
#[derive(Clone, Debug, Default)]
pub struct EngineTally {
    per_algo: std::collections::BTreeMap<&'static str, (u64, u64)>,
    gen_map_ns: u64,
    static_compute_ns: u64,
    gather_ns: u64,
    transfer_ns: u64,
    ondemand_compute_ns: u64,
    update_ns: u64,
    active_edges: u64,
    static_edges: u64,
    prestore_wire_bytes: u64,
    h2d_wire_bytes: u64,
    h2d_ops: u64,
    payload_peak_bytes: u64,
    kernel_edges: u64,
    kernel_launches: u64,
    kernel_ns: u64,
    refresh_wire_bytes: u64,
    repartitions: u64,
    prefetch_bytes: u64,
    prefetch_ops: u64,
    prefetch_hits: u64,
    prefetch_waste_bytes: u64,
    codec_raw_bytes: u64,
    codec_wire_bytes: u64,
    codec_declined: u64,
    pull_iters: u64,
    window_ns: u64,
    link_busy_ns: u64,
    compute_busy_ns: u64,
    overlap_ns: u64,
    gpu_idle_ns: u64,
}

impl EngineTally {
    /// Add one run of the program registered as `algo`.
    pub fn add(&mut self, algo: &'static str, r: &RunReport) {
        let e = self.per_algo.entry(algo).or_default();
        e.0 += u64::from(r.iterations);
        e.1 += r.sim_time_ns;
        let b = &r.breakdown;
        self.gen_map_ns += b.gen_map_ns;
        self.static_compute_ns += b.static_compute_ns;
        self.gather_ns += b.gather_ns;
        self.transfer_ns += b.transfer_ns;
        self.ondemand_compute_ns += b.ondemand_compute_ns;
        self.update_ns += b.update_ns;
        for it in &r.per_iter {
            self.active_edges += it.active_edges;
            self.static_edges += it.static_edges;
            self.pull_iters += u64::from(it.pull);
        }
        self.prestore_wire_bytes += r.prestore_wire_bytes;
        self.h2d_wire_bytes += r.xfer.h2d_wire_bytes;
        self.h2d_ops += r.xfer.h2d_ops;
        self.payload_peak_bytes = self.payload_peak_bytes.max(r.peak_iteration_payload_bytes);
        self.kernel_edges += r.kernels.edges;
        self.kernel_launches += r.kernels.launches;
        self.kernel_ns += r.kernels.time_ns;
        self.refresh_wire_bytes += r.refresh_wire_bytes;
        self.repartitions += u64::from(r.repartitions);
        self.prefetch_bytes += r.prefetch_bytes;
        self.prefetch_ops += r.prefetch_ops;
        self.prefetch_hits += r.prefetch_hits;
        self.prefetch_waste_bytes += r.prefetch_wasted_bytes;
        let c = |k| r.metrics.counter(k).unwrap_or(0);
        self.codec_raw_bytes += c("compress.raw_bytes");
        self.codec_wire_bytes += c("compress.wire_bytes");
        self.codec_declined += c("compress.declined");
        for u in &r.utilization {
            self.window_ns += u.window_ns();
            self.link_busy_ns += u.link_busy_ns;
            self.compute_busy_ns += u.compute_busy_ns;
            self.overlap_ns += u.overlap_ns;
        }
        self.gpu_idle_ns += r.gpu_idle_ns;
    }

    /// Write the tally's per-layer metrics.
    pub fn emit(&self, m: &mut Metrics) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mb = |b: u64| b as f64 / 1e6;
        for (algo, &(iters, sim_ns)) in &self.per_algo {
            m.set(format!("core.session.iterations.{algo}"), iters as f64);
            m.set(format!("core.session.sim_ms.{algo}"), ms(sim_ns));
        }
        m.set("core.session.active_edges", self.active_edges as f64);
        m.set("core.maps.sim_ms", ms(self.gen_map_ns));
        m.set(
            "core.static.edge_frac",
            frac(self.static_edges as f64, self.active_edges as f64),
        );
        m.set("core.static.compute_sim_ms", ms(self.static_compute_ns));
        m.set("core.static.prestore_mb", mb(self.prestore_wire_bytes));
        m.set("core.ondemand.gather_sim_ms", ms(self.gather_ns));
        m.set("core.ondemand.transfer_sim_ms", ms(self.transfer_ns));
        m.set("core.ondemand.h2d_mb", mb(self.h2d_wire_bytes));
        m.set("core.ondemand.h2d_ops", self.h2d_ops as f64);
        m.set("core.ondemand.payload_peak_mb", mb(self.payload_peak_bytes));
        m.set("core.ondemand.compute_sim_ms", ms(self.ondemand_compute_ns));
        m.set("algos.kernel_edges", self.kernel_edges as f64);
        m.set("algos.kernel_launches", self.kernel_launches as f64);
        m.set("algos.kernel_sim_ms", ms(self.kernel_ns));
        m.set("core.hotness.update_sim_ms", ms(self.update_ns));
        m.set("core.hotness.refresh_mb", mb(self.refresh_wire_bytes));
        m.set("core.hotness.repartitions", self.repartitions as f64);
        m.set("core.prefetch.issued_mb", mb(self.prefetch_bytes));
        m.set("core.prefetch.ops", self.prefetch_ops as f64);
        m.set(
            "core.prefetch.hit_frac",
            frac(self.prefetch_hits as f64, self.prefetch_ops as f64),
        );
        m.set("core.prefetch.waste_mb", mb(self.prefetch_waste_bytes));
        m.set("core.codec.raw_mb", mb(self.codec_raw_bytes));
        m.set(
            "core.codec.wire_frac",
            frac(self.codec_wire_bytes as f64, self.codec_raw_bytes as f64),
        );
        m.set("core.codec.declined", self.codec_declined as f64);
        m.set("core.direction.pull_iters", self.pull_iters as f64);
        m.set("sim.window_ms", ms(self.window_ns));
        let w = self.window_ns as f64;
        m.set("sim.link_busy_frac", frac(self.link_busy_ns as f64, w));
        m.set(
            "sim.compute_busy_frac",
            frac(self.compute_busy_ns as f64, w),
        );
        m.set("sim.overlap_frac", frac(self.overlap_ns as f64, w));
        m.set("sim.gpu_idle_ms", ms(self.gpu_idle_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_seeds_differ_for_neighbours() {
        assert_ne!(mix_seed(2, 0), mix_seed(3, 0));
        assert_ne!(mix_seed(2, 0) | 1, mix_seed(3, 0) | 1);
        assert_ne!(mix_seed(2, 0), mix_seed(2, 1));
        assert_eq!(mix_seed(5, 1), mix_seed(5, 1));
    }

    #[test]
    fn giant_component_excludes_fragments() {
        // 0-1-2 joined both ways (2 is the hub), 3-4 a separate fragment
        let g = Csr::from_parts(vec![0, 1, 2, 4, 5, 6], vec![2, 2, 0, 1, 4, 3], None);
        assert_eq!(giant_component(&g), vec![0, 1, 2]);
        let mut rng = Rng::new(9, 0);
        assert!((0..20).all(|_| rng.pick(&[0, 1, 2]) <= 2));
    }

    #[test]
    fn timed_passes_respects_min_and_max() {
        let mut spans = Spans::new(true);
        let sched = |min, max, setup_reps| Schedule {
            min,
            max,
            setup_reps,
        };
        let t = timed_passes(0.0, sched(3, 5, 0), &mut spans, |_| (), |_, _| 1.0);
        assert_eq!(t.pass_s, vec![1.0; 3]);
        assert!(t.setup_s.is_empty());
        assert_eq!(spans.spans().len(), 3);
        let t = timed_passes(60.0, sched(1, 2, 0), &mut spans, |_| (), |_, _| 0.5);
        assert_eq!(t.pass_s.len(), 2);
    }

    #[test]
    fn set_up_repeats_after_every_pass() {
        let mut spans = Spans::new(true);
        let sched = Schedule {
            min: 2,
            max: 2,
            setup_reps: 3,
        };
        let mut made = 0;
        let t = timed_passes(0.0, sched, &mut spans, |_| made += 1, |_, _| 1.0);
        assert_eq!((made, t.setup_s.len(), t.pass_s.len()), (6, 6, 2));
        assert!(t.host_peak_mb.is_some());
        let names: Vec<_> = spans.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "setup").count(), 6);
        assert_eq!(names.iter().filter(|&&n| n == "pass").count(), 2);
    }

    #[test]
    fn histogram_median_lands_in_the_middle_bucket() {
        let mut h = Histogram::new();
        for v in [1000, 1100, 1200, 5000, 70_000] {
            h.observe(v);
        }
        let p50 = histogram_p50(&h);
        assert!((1024.0..2048.0).contains(&p50), "{p50}");
    }

    #[test]
    fn peak_memory_is_read() {
        assert!(host_peak_mb() > 0.0);
    }
}

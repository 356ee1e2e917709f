//! `serve`: a seed-drawn mixed BFS/SSSP/CC/PR job trace served open loop
//! on the virtual clock, in bursts at a fixed rate, by two simulated
//! devices on an NVLink fabric, residency policy, batching on, two host
//! threads.

use std::collections::BTreeMap;
use std::time::Instant;

use ascetic_bench::setup::Env;
use ascetic_core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::Csr;
use ascetic_serve::{serve, synthetic_mixed, Job, Policy, ServeConfig, ServeReport};
use ascetic_sim::InterconnectConfig;

use crate::harness::{
    emit_pool_delta, giant_component, mix_seed, oracle_fp, program, secs, timed_passes,
    timed_setup, Op, Outcome, Params, Rng,
};
use crate::spans::Spans;

/// Workload shape.
pub struct Spec {
    /// Dataset stand-in.
    pub dataset: DatasetId,
    /// Scale divisor (device memory scales with it).
    pub scale: u64,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Jobs due together in one burst.
    pub burst: usize,
    /// Spacing between bursts, ns on the serve clock.
    pub spacing_ns: u64,
    /// Simulated devices.
    pub devices: usize,
    /// Host threads.
    pub threads: usize,
    /// Job latency limit, ms (virtual clock).
    pub slo_ms: f64,
    /// Throwaway set-ups timed after each pass.
    pub setup_reps: usize,
}

/// The benchmark's shape.
pub const STANDARD: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 16_000,
    jobs: 240,
    burst: 6,
    spacing_ns: 9_000_000,
    devices: 2,
    threads: 2,
    slo_ms: 20.0,
    // a set-up takes about 10 ms, a pass about 5 s
    setup_reps: 12,
};

/// Test-sized shape.
pub const TINY: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 50_000,
    jobs: 12,
    burst: 6,
    spacing_ns: 9_000_000,
    devices: 2,
    threads: 2,
    slo_ms: 20.0,
    setup_reps: 1,
};

/// The serving configuration: the paper's scaled 10 GB device per
/// simulated GPU, residency policy, batching on, NVLink peer links.
pub fn config(spec: &Spec, traced: bool) -> ServeConfig {
    let cfg: AsceticConfig = Env::with_scale(spec.scale)
        .ascetic_cfg()
        .with_tracing(traced);
    ServeConfig::new(cfg, Policy::ResidencyAffinity)
        .with_devices(spec.devices)
        .with_interconnect(InterconnectConfig::nvlink())
}

struct Graphs {
    g: Csr,
    gw: Csr,
}

fn setup(spec: &Spec, sc: &ServeConfig, spans: &mut Spans) -> Graphs {
    let ds = spans.time("graph.build", 0, || {
        Dataset::build(spec.dataset, spec.scale)
    });
    let gw = spans.time("graph.variants", 0, || ds.weighted());
    let sys = AsceticSystem::new(sc.cfg);
    for g in [&ds.graph, &gw] {
        if let Err(e) = spans.time("core.prepare", 0, || sys.prepare(g)) {
            // serve refuses the variant's jobs itself; they count as failed
            eprintln!("serve: prepare failed: {e}");
        }
    }
    Graphs { g: ds.graph, gw }
}

/// Per-job oracle fingerprints, one in-memory run per distinct query.
fn oracles(gr: &Graphs, jobs: &[Job]) -> BTreeMap<u32, u64> {
    let mut by_query: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    jobs.iter()
        .map(|j| {
            let source = j.source.unwrap_or(0);
            let fp = *by_query.entry((j.kind.name(), source)).or_insert_with(|| {
                let g = if j.kind.weighted() { &gr.gw } else { &gr.g };
                oracle_fp(g, &program(j.kind, source))
            });
            (j.id, fp)
        })
        .collect()
}

/// Check every job of a report against the oracles: one entry per trace
/// job, in id order, `None` latency for a job that never ran.
fn judge(jobs: &[Job], rep: &ServeReport, oracle: &BTreeMap<u32, u64>) -> Vec<Op> {
    let done: BTreeMap<u32, _> = rep.jobs.iter().map(|j| (j.id, j)).collect();
    jobs.iter()
        .map(|job| match done.get(&job.id) {
            Some(j) => Op {
                latency_ns: Some(j.latency_ns()),
                ok: j.output.fingerprint() == oracle[&job.id],
            },
            None => Op {
                latency_ns: None,
                ok: false,
            },
        })
        .collect()
}

fn emit_report(rep: &ServeReport, out: &mut Outcome) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let lb = rep.latency_breakdown();
    let runs = rep.jobs.len() as u64 - u64::from(rep.batched_jobs) + u64::from(rep.batches);
    let m = &mut out.layers;
    m.set("serve.queue_p50_ms", ms(lb.queue.p50_ns));
    m.set("serve.queue_p90_ms", ms(lb.queue.p90_ns));
    m.set("serve.admission_p50_ms", ms(lb.admission.p50_ns));
    m.set("serve.h2d_p50_ms", ms(lb.h2d.p50_ns));
    m.set("serve.compute_p50_ms", ms(lb.compute.p50_ns));
    m.set("serve.runs", runs as f64);
    m.set("serve.batches", f64::from(rep.batches));
    m.set(
        "serve.batch_occupancy",
        rep.batch_occupancy_x100() as f64 / 100.0,
    );
    m.set("serve.sessions_built", f64::from(rep.sessions_built));
    m.set(
        "serve.residency_hit_mb",
        rep.residency_hit_bytes as f64 / 1e6,
    );
    m.set("serve.rejected", rep.rejected.len() as f64);
    m.set("serve.replications", f64::from(rep.replications));
    m.set("serve.replicated_mb", rep.replicated_bytes as f64 / 1e6);
}

/// Run the workload.
pub fn run(spec: &Spec, p: &Params, spans: &mut Spans) -> Outcome {
    ascetic_par::set_num_threads(spec.threads);
    let sc = config(spec, p.traced);
    let mut out = Outcome {
        slo_limit_ns: (spec.slo_ms * 1e6) as u64,
        ..Outcome::default()
    };
    let (gr, setup_s) = timed_setup(spans, |spans| setup(spec, &sc, spans));
    out.setup_s.push(setup_s);

    // Open loop: burst b is due at b × spacing whatever the system does,
    // so the generator is never late; latency runs from the due time. A
    // burst is one turn of the trace's kind cycle, so its two BFS and two
    // SSSP jobs can share batch lanes without a standing queue. Sources
    // are redrawn from the giant component, as on traverse.
    let mut jobs = synthetic_mixed(
        spec.jobs,
        gr.g.num_vertices(),
        mix_seed(p.seed, 5),
        spec.spacing_ns,
        spec.burst,
    );
    let pool = giant_component(&gr.g);
    let mut rng = Rng::new(p.seed, 6);
    for j in &mut jobs {
        j.source = j.source.map(|_| rng.pick(&pool));
    }
    let o = spans.open("oracle", 0);
    let oracle = oracles(&gr, &jobs);
    spans.close(o);

    let pool0 = ascetic_core::pool_metrics_snapshot();
    let setup_again = |spans: &mut Spans| setup(spec, &sc, spans);
    let timings = timed_passes(
        p.seconds,
        p.schedule(spec.setup_reps),
        spans,
        setup_again,
        |pass, spans| {
            let t = Instant::now();
            let served = spans.time("serve.serve", 0, || serve(&sc, &gr.g, Some(&gr.gw), &jobs));
            let ops = match &served {
                Ok(rep) => spans.time("check", 0, || judge(&jobs, rep, &oracle)),
                Err(e) => {
                    eprintln!("serve: {e}");
                    vec![
                        Op {
                            latency_ns: None,
                            ok: false,
                        };
                        jobs.len()
                    ]
                }
            };
            let wall = secs(t);
            for op in &ops {
                out.check(op.ok);
            }
            if pass == 0 {
                if let Ok(rep) = &served {
                    out.sim_ns = rep.makespan_ns;
                    out.h2d_bytes =
                        rep.prestore_bytes + rep.ondemand_h2d_bytes + rep.replicated_bytes;
                    emit_report(rep, &mut out);
                }
                out.ops = ops;
                emit_pool_delta(&pool0, &mut out.layers);
            }
            wall
        },
    );
    out.record(timings);
    out
}

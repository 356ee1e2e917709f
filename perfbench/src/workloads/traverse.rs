//! `traverse`: BFS and SSSP from seed-drawn sources on the social stand-in,
//! every adaptive planner on, one host thread. Each query runs one-shot.

use std::time::Instant;

use ascetic_algos::{Algo, AnyProgram};
use ascetic_bench::setup::Env;
use ascetic_core::{
    AsceticConfig, AsceticSession, AsceticSystem, CompressionMode, DirectionMode, OutOfCoreSystem,
    PrefetchMode, PrepareError,
};
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::Csr;

use crate::harness::{
    emit_pool_delta, giant_component, oracle_fp, program, run_span, secs, timed_passes,
    timed_setup, EngineTally, Op, Outcome, Params, Rng,
};
use crate::spans::Spans;

/// Workload shape.
pub struct Spec {
    /// Dataset stand-in.
    pub dataset: DatasetId,
    /// Scale divisor (device memory scales with it).
    pub scale: u64,
    /// BFS queries per pass.
    pub bfs: usize,
    /// SSSP queries per pass.
    pub sssp: usize,
    /// Host threads.
    pub threads: usize,
    /// Per-query latency limit, ms (virtual clock).
    pub slo_ms: f64,
    /// Throwaway set-ups timed after each pass.
    pub setup_reps: usize,
}

/// The benchmark's shape.
pub const STANDARD: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 8000,
    bfs: 60,
    sssp: 40,
    threads: 1,
    slo_ms: 60.0,
    // a set-up takes about 20 ms, a pass about 1.4 s
    setup_reps: 4,
};

/// Test-sized shape.
pub const TINY: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 50_000,
    bfs: 3,
    sssp: 3,
    threads: 1,
    slo_ms: 60.0,
    setup_reps: 1,
};

/// The engine configuration: the paper's scaled 10 GB device with every
/// adaptive planner on.
pub fn config(spec: &Spec, traced: bool) -> AsceticConfig {
    let env = Env::with_scale(spec.scale);
    env.ascetic_cfg()
        .with_prefetch(PrefetchMode::NextFrontier)
        .with_compression(CompressionMode::Adaptive)
        .with_direction(DirectionMode::Adaptive)
        .with_tracing(traced)
}

struct Graphs {
    g: Csr,
    gw: Csr,
}

/// Set-up: both graph variants, checked against the device. Each query
/// then runs one-shot on a session of its own (Table 4's protocol: every
/// run pays its prestore). A session carried from query to query would
/// make each query's cost depend on which sources came before it.
fn setup(spec: &Spec, cfg: AsceticConfig, spans: &mut Spans) -> Result<Graphs, PrepareError> {
    let ds = spans.time("graph.build", 0, || {
        Dataset::build(spec.dataset, spec.scale)
    });
    let gw = spans.time("graph.variants", 0, || ds.weighted());
    let sys = AsceticSystem::new(cfg);
    spans.time("core.prepare", 0, || sys.prepare(&ds.graph))?;
    spans.time("core.prepare", 0, || sys.prepare(&gw))?;
    Ok(Graphs { g: ds.graph, gw })
}

struct Query<'g> {
    algo: Algo,
    g: &'g Csr,
    prog: AnyProgram,
    oracle: u64,
}

/// Run the workload.
pub fn run(spec: &Spec, p: &Params, spans: &mut Spans) -> Outcome {
    ascetic_par::set_num_threads(spec.threads);
    let cfg = config(spec, p.traced);
    let mut out = Outcome {
        slo_limit_ns: (spec.slo_ms * 1e6) as u64,
        ..Outcome::default()
    };
    let (gr, setup_s) = timed_setup(spans, |spans| setup(spec, cfg, spans));
    out.setup_s.push(setup_s);
    let gr = match gr {
        Ok(gr) => gr,
        Err(e) => {
            eprintln!("traverse: prepare failed: {e}");
            for _ in 0..spec.bfs + spec.sssp {
                out.check(false);
                out.ops.push(Op {
                    latency_ns: None,
                    ok: false,
                });
            }
            return out;
        }
    };

    let mut rng = Rng::new(p.seed, 1);
    let pool = giant_component(&gr.g);
    let drawn: Vec<_> = [(Algo::Bfs, spec.bfs), (Algo::Sssp, spec.sssp)]
        .into_iter()
        .flat_map(|(algo, count)| vec![algo; count])
        .map(|algo| (algo, rng.pick(&pool)))
        .collect();
    let o = spans.open("oracle", 0);
    let queries: Vec<Query> = drawn
        .into_iter()
        .map(|(algo, source)| {
            let prog = program(algo, source);
            let g = if algo.weighted() { &gr.gw } else { &gr.g };
            Query {
                algo,
                g,
                oracle: oracle_fp(g, &prog),
                prog,
            }
        })
        .collect();
    spans.close(o);

    let mut tally = EngineTally::default();
    let pool0 = ascetic_core::pool_metrics_snapshot();
    let setup_again = |spans: &mut Spans| setup(spec, cfg, spans);
    let timings = timed_passes(
        p.seconds,
        p.schedule(spec.setup_reps),
        spans,
        setup_again,
        |pass, spans| {
            let t = Instant::now();
            for (qi, q) in queries.iter().enumerate() {
                let req = qi as u64;
                let mut sess = spans.time("core.prepare", req, || AsceticSession::new(cfg, q.g));
                let r = spans.time(run_span(q.algo), req, || sess.run(&q.prog));
                let ok = spans.time("check", req, || r.output.fingerprint() == q.oracle);
                out.check(ok);
                if pass == 0 {
                    out.sim_ns += r.sim_time_ns;
                    out.h2d_bytes += r.total_wire_bytes_with_prestore();
                    out.ops.push(Op {
                        latency_ns: Some(r.sim_time_ns),
                        ok,
                    });
                    tally.add(q.algo.name(), &r);
                }
            }
            if pass == 0 {
                emit_pool_delta(&pool0, &mut out.layers);
            }
            secs(t)
        },
    );
    out.record(timings);
    tally.emit(&mut out.layers);
    out
}

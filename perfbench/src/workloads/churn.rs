//! `churn`: converged BFS, SSSP, CC and PR answers on a small social
//! stand-in, kept fresh across a seed-drawn stream of insert/delete
//! batches by patching and incremental repair, one host thread. An op is
//! one batch; it is fresh when all four answers are.

use std::cell::OnceCell;
use std::time::Instant;

use ascetic_algos::{Algo, AnyProgram, VertexProgram};
use ascetic_bench::setup::{source_vertex, Env};
use ascetic_core::{
    repair_session, AsceticConfig, AsceticSession, AsceticSystem, DirectionMode, OutOfCoreSystem,
    RepairMode,
};
use ascetic_graph::datasets::{Dataset, DatasetId};
use ascetic_graph::{Csr, Mutation, PatchableCsr, VertexId, Weight};
use ascetic_mutate::synthetic_churn;

use crate::harness::{
    emit_pool_delta, mix_seed, oracle_fp, program, run_span, secs, timed_passes, timed_setup, Op,
    Outcome, Params,
};
use crate::spans::Spans;

/// Workload shape.
pub struct Spec {
    /// Dataset stand-in.
    pub dataset: DatasetId,
    /// Scale divisor (device memory scales with it).
    pub scale: u64,
    /// Mutation batches in the stream.
    pub batches: usize,
    /// Mutations per batch.
    pub batch_size: usize,
    /// Host threads.
    pub threads: usize,
    /// Per-batch freshness limit, ms (virtual clock).
    pub slo_ms: f64,
    /// Throwaway set-ups timed after each pass.
    pub setup_reps: usize,
}

/// The benchmark's shape.
pub const STANDARD: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 64_000,
    batches: 100,
    batch_size: 32,
    threads: 1,
    slo_ms: 20.0,
    // a set-up takes about 5 ms, a pass about 2 s
    setup_reps: 10,
};

/// Test-sized shape.
pub const TINY: Spec = Spec {
    dataset: DatasetId::Fk,
    scale: 50_000,
    batches: 3,
    batch_size: 20,
    threads: 1,
    slo_ms: 20.0,
    setup_reps: 1,
};

/// The programs, in update order; SSSP runs on the weighted variant.
pub const ALGOS: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr];

/// The engine configuration: the paper's scaled 10 GB device, defaults.
pub fn config(spec: &Spec, traced: bool) -> AsceticConfig {
    Env::with_scale(spec.scale)
        .ascetic_cfg()
        .with_tracing(traced)
}

/// The unweighted form of a mutation.
fn without_weight(m: Mutation) -> Mutation {
    match m {
        Mutation::Insert { src, dst, .. } => Mutation::Insert {
            src,
            dst,
            weight: None,
        },
        delete => delete,
    }
}

/// One graph variant: the built graph and whether the device accepted it.
struct Variant {
    base: Csr,
    prepared: bool,
}

/// One live answer: a program, the variant it runs on, and its per-epoch
/// oracle fingerprints.
struct Answer {
    algo: Algo,
    variant: usize,
    prog: AnyProgram,
    oracle: Vec<u64>,
}

/// Set-up: both graph variants, checked against the device.
fn setup(spec: &Spec, cfg: AsceticConfig, spans: &mut Spans) -> Vec<Variant> {
    let ds = spans.time("graph.build", 0, || {
        Dataset::build(spec.dataset, spec.scale)
    });
    let gw = spans.time("graph.variants", 0, || ds.weighted());
    let sys = AsceticSystem::new(cfg);
    [ds.graph, gw]
        .into_iter()
        .map(|base| {
            let prepared = spans.time("core.prepare", 0, || sys.prepare(&base));
            if let Err(e) = &prepared {
                eprintln!("churn: prepare failed: {e}");
            }
            Variant {
                base,
                prepared: prepared.is_ok(),
            }
        })
        .collect()
}

/// Visit the graph after each batch of `stream`, rebuilt from plain
/// adjacency rows by the canonical patch semantics of `ascetic_graph`'s
/// patch module: an insert appends to its source's row, a delete removes
/// every parallel copy. The oracles are built from these graphs, so they
/// share no code, and no defect, with the `PatchableCsr` they check.
fn for_each_epoch(base: &Csr, stream: &[Vec<Mutation>], mut visit: impl FnMut(&Csr)) {
    let mut rows: Vec<Vec<(VertexId, Weight)>> = (0..base.num_vertices() as VertexId)
        .map(|v| match base.weights() {
            Some(_) => base
                .neighbors(v)
                .iter()
                .copied()
                .zip(base.edge_weights(v).iter().copied())
                .collect(),
            None => base.neighbors(v).iter().map(|&t| (t, 0)).collect(),
        })
        .collect();
    for batch in stream {
        for &m in batch {
            match m {
                Mutation::Insert { src, dst, weight } => {
                    rows[src as usize].push((dst, weight.unwrap_or(0)))
                }
                Mutation::Delete { src, dst } => rows[src as usize].retain(|&(t, _)| t != dst),
            }
        }
        let mut offsets = vec![0];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for row in &rows {
            targets.extend(row.iter().map(|&(t, _)| t));
            weights.extend(row.iter().map(|&(_, w)| w));
            offsets.push(targets.len() as u64);
        }
        visit(&Csr::from_parts(
            offsets,
            targets,
            base.weights().map(|_| weights),
        ));
    }
}

/// Per-layer counts of the first pass.
#[derive(Default)]
struct Tally {
    splits: u64,
    patch_ns: u64,
    patch_wire: u64,
    refreshed: u64,
    repair_ns: u64,
    repair_iters: u64,
    repair_edges: u64,
    modes: [u64; 3],
}

/// Run the workload.
pub fn run(spec: &Spec, p: &Params, spans: &mut Spans) -> Outcome {
    ascetic_par::set_num_threads(spec.threads);
    let cfg = config(spec, p.traced);
    let mirror = cfg.direction != DirectionMode::Push;
    let mut out = Outcome {
        slo_limit_ns: (spec.slo_ms * 1e6) as u64,
        ..Outcome::default()
    };

    // Input: one stream drawn from the seed over the weighted graph; the
    // unweighted variant receives the same edges without their weights.
    let streams = {
        let gw = Dataset::build(spec.dataset, spec.scale).weighted();
        let weighted = synthetic_churn(&gw, spec.batches, spec.batch_size, mix_seed(p.seed, 3));
        let unweighted = weighted
            .iter()
            .map(|batch| batch.iter().map(|&m| without_weight(m)).collect())
            .collect();
        [unweighted, weighted]
    };

    let (variants, setup_s) = timed_setup(spans, |spans| setup(spec, cfg, spans));
    out.setup_s.push(setup_s);

    let o = spans.open("oracle", 0);
    let mut answers: Vec<Answer> = ALGOS
        .iter()
        .map(|&algo| {
            let variant = usize::from(algo.weighted());
            let base = &variants[variant].base;
            let prog = program(algo, source_vertex(base));
            Answer {
                algo,
                variant,
                oracle: vec![oracle_fp(base, &prog)],
                prog,
            }
        })
        .collect();
    for (vi, v) in variants.iter().enumerate() {
        for_each_epoch(&v.base, &streams[vi], |g| {
            for a in answers.iter_mut().filter(|a| a.variant == vi) {
                a.oracle.push(oracle_fp(g, &a.prog));
            }
        });
    }
    spans.close(o);

    let mut tally = Tally::default();
    let pool0 = ascetic_core::pool_metrics_snapshot();
    let setup_again = |spans: &mut Spans| setup(spec, cfg, spans);
    let timings = timed_passes(
        p.seconds,
        p.schedule(spec.setup_reps),
        spans,
        setup_again,
        |pass, spans| {
            // Per pass: a fresh patch store per variant and a freshly
            // prestored, converged session per program. None of this is the
            // update stream, so none of it is in the pass's wall time.
            let mut stores: Vec<PatchableCsr> = variants
                .iter()
                .map(|v| PatchableCsr::with_defaults(&v.base, mirror))
                .collect();
            // A session borrows each graph it is patched to for as long as it
            // lives (`apply_patch` takes `&'g Csr`), so every patched CSR of a
            // variant stays until the pass ends. The CSC mirror only feeds the
            // splice and is dropped after it.
            let epochs: Vec<Vec<OnceCell<Csr>>> = streams
                .iter()
                .map(|s| s.iter().map(|_| OnceCell::new()).collect())
                .collect();
            let mut live: Vec<_> = answers
                .iter()
                .enumerate()
                .map(|(ai, a)| {
                    if !variants[a.variant].prepared {
                        out.check(false);
                        return None;
                    }
                    let g0 = &variants[a.variant].base;
                    let mut sess =
                        spans.time("core.prepare", ai as u64, || AsceticSession::new(cfg, g0));
                    let state = a.prog.new_state(g0);
                    let r = spans.time(run_span(a.algo), ai as u64, || {
                        sess.run_with_state(&a.prog, &state, a.prog.initial_frontier(g0))
                    });
                    out.check(r.output.fingerprint() == a.oracle[0]);
                    Some((sess, state))
                })
                .collect();

            let t = Instant::now();
            // a variant the device refused, or whose patch was rejected, fails
            // every later update of its answers
            let mut broken: Vec<bool> = variants.iter().map(|v| !v.prepared).collect();
            for b in 0..spec.batches {
                let req = b as u64;
                // the batch is fresh once every answer is: its latency is the
                // slowest answer's patch + repair (each runs on its own device)
                let mut batch = Op {
                    latency_ns: Some(0),
                    ok: true,
                };
                for (vi, v) in variants.iter().enumerate() {
                    let patch = if broken[vi] {
                        None
                    } else {
                        let store = &mut stores[vi];
                        let applied = spans.time("graph.patch.apply", req, || {
                            let patch = store.apply(&streams[vi][b])?;
                            let _ = epochs[vi][b].set(store.to_csr());
                            Ok::<_, ascetic_graph::PatchError>((patch, store.to_csc()))
                        });
                        applied
                            .map_err(|e| eprintln!("churn: batch {b} rejected: {e}"))
                            .ok()
                    };
                    let Some((patch, csc_new)) = patch else {
                        broken[vi] = true;
                        for _ in answers.iter().filter(|a| a.variant == vi) {
                            out.check(false);
                        }
                        batch = Op {
                            latency_ns: None,
                            ok: false,
                        };
                        continue;
                    };
                    let g_new = epochs[vi][b].get().expect("filled with the patch");
                    let g_old = match b {
                        0 => &v.base,
                        _ => epochs[vi][b - 1].get().expect("earlier batch applied"),
                    };
                    if pass == 0 {
                        tally.splits += u64::from(patch.splits);
                    }
                    for (ai, a) in answers.iter().enumerate() {
                        if a.variant != vi {
                            continue;
                        }
                        let (sess, state) = live[ai].as_mut().expect("prepared variant");
                        let pa = spans.time("core.apply_patch", req, || {
                            sess.apply_patch(g_new, csc_new.as_ref(), &patch)
                        });
                        let rep = spans.time("core.repair", req, || {
                            repair_session(sess, &a.prog, state, g_old, &patch)
                        });
                        let ok = spans.time("check", req, || {
                            rep.report.output.fingerprint() == a.oracle[b + 1]
                        });
                        out.check(ok);
                        let latency = pa.patch_ns + rep.report.sim_time_ns;
                        batch.ok &= ok;
                        batch.latency_ns = batch.latency_ns.map(|l| l.max(latency));
                        if pass == 0 {
                            out.sim_ns += latency;
                            out.h2d_bytes +=
                                pa.wire_bytes + rep.report.total_wire_bytes_with_prestore();
                            tally.patch_ns += pa.patch_ns;
                            tally.patch_wire += pa.wire_bytes;
                            tally.refreshed += u64::from(pa.refreshed_chunks);
                            tally.repair_ns += rep.report.sim_time_ns;
                            tally.repair_iters += u64::from(rep.report.iterations);
                            tally.repair_edges += rep
                                .report
                                .per_iter
                                .iter()
                                .map(|it| it.active_edges)
                                .sum::<u64>();
                            tally.modes[match rep.mode {
                                RepairMode::Seeded => 0,
                                RepairMode::Restart => 1,
                                RepairMode::Fallback => 2,
                            }] += 1;
                        }
                    }
                }
                if pass == 0 {
                    out.ops.push(batch);
                }
            }
            let wall = secs(t);
            if pass == 0 {
                emit_pool_delta(&pool0, &mut out.layers);
            }
            wall
        },
    );
    out.record(timings);
    let m = &mut out.layers;
    m.set("graph.patch.splits", tally.splits as f64);
    m.set("core.patch.sim_ms", tally.patch_ns as f64 / 1e6);
    m.set("core.patch.wire_kb", tally.patch_wire as f64 / 1e3);
    m.set("core.patch.refreshed_chunks", tally.refreshed as f64);
    m.set("core.repair.sim_ms", tally.repair_ns as f64 / 1e6);
    m.set("core.repair.iterations", tally.repair_iters as f64);
    m.set("core.repair.active_edges", tally.repair_edges as f64);
    m.set("core.repair.seeded", tally.modes[0] as f64);
    m.set("core.repair.restart", tally.modes[1] as f64);
    m.set("core.repair.fallback", tally.modes[2] as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle epochs and the patch store agree on the canonical
    /// semantics, weighted and not.
    #[test]
    fn oracle_epochs_match_the_patch_store() {
        let ds = Dataset::build(DatasetId::Fk, 50_000);
        for g in [ds.weighted(), ds.graph] {
            let stream = synthetic_churn(&g, 4, 30, 11);
            let mut store = PatchableCsr::with_defaults(&g, false);
            let mut seen = 0;
            for_each_epoch(&g, &stream, |epoch| {
                store.apply(&stream[seen]).expect("generated batches apply");
                let patched = store.to_csr();
                assert_eq!(epoch.offsets(), patched.offsets());
                assert_eq!(epoch.targets(), patched.targets());
                assert_eq!(epoch.weights(), patched.weights());
                seen += 1;
            });
            assert_eq!(seen, stream.len());
        }
    }
}

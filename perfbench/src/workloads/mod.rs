//! The four workloads. Each pins its host thread count, builds its inputs
//! from the run seed, checks every op against an in-memory oracle, and
//! hands back an [`Outcome`].

pub mod churn;
pub mod iterate;
pub mod serve;
pub mod traverse;

use crate::harness::{Outcome, Params};
use crate::spans::Spans;

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sparse traversals with every planner on.
    Traverse,
    /// Dense iterative sweeps under paper defaults.
    Iterate,
    /// Patch and repair across a mutation stream.
    Churn,
    /// Open-loop multi-device serving.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Traverse,
        Workload::Iterate,
        Workload::Churn,
        Workload::Serve,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Traverse => "traverse",
            Workload::Iterate => "iterate",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run the workload at the benchmark's shape (or the test shape when
    /// `p.tiny`).
    pub fn run(self, p: &Params, spans: &mut Spans) -> Outcome {
        match (self, p.tiny) {
            (Workload::Traverse, false) => traverse::run(&traverse::STANDARD, p, spans),
            (Workload::Traverse, true) => traverse::run(&traverse::TINY, p, spans),
            (Workload::Iterate, false) => iterate::run(&iterate::STANDARD, p, spans),
            (Workload::Iterate, true) => iterate::run(&iterate::TINY, p, spans),
            (Workload::Churn, false) => churn::run(&churn::STANDARD, p, spans),
            (Workload::Churn, true) => churn::run(&churn::TINY, p, spans),
            (Workload::Serve, false) => serve::run(&serve::STANDARD, p, spans),
            (Workload::Serve, true) => serve::run(&serve::TINY, p, spans),
        }
    }
}

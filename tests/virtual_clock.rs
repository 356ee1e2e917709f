//! Virtual-clock goldens for the host data plane.
//!
//! The simulated numbers of a run — makespan, wire bytes, kernel edge
//! work, prefetch hits and pull iterations — depend only on the cost
//! model and the algorithm's fixed point, never on how the host moves
//! the bytes. These goldens pin them for BFS, SSSP, CC and PR under the
//! configurations that exercise every data-plane path: the adaptive
//! planner set (next-frontier prefetch, adaptive compression, adaptive
//! direction), forced compression, forced pull and the Subway baseline
//! (raw and compressed). A change to the gather, the H2D fill, the
//! atomic reductions or the CSC mirror that moved a single simulated
//! nanosecond or byte fails here; the failure prints the full table.

use ascetic::algos::{Bfs, Cc, PageRank, Sssp};
use ascetic::baselines::SubwaySystem;
use ascetic::core::{
    AsceticConfig, AsceticSession, AsceticSystem, CompressionMode, DirectionMode, OutOfCoreSystem,
    PrefetchMode, RunReport,
};
use ascetic::graph::datasets::{Dataset, DatasetId};
use ascetic::graph::Csr;
use ascetic::sim::DeviceConfig;

const SCALE: u64 = 30_000;

/// One pinned cell: `(config, algorithm, sim_time_ns, h2d_wire_bytes,
/// kernel_edges, prefetch_hits, pull_iterations)`.
type Golden = (&'static str, &'static str, u64, u64, u64, u64, u64);

const GOLDENS: &[Golden] = &[
    ("planners", "BFS", 163883, 34896, 25873, 1, 2),
    ("planners", "SSSP", 1738440, 2300408, 313453, 26, 0),
    ("planners", "CC", 838633, 642568, 255778, 2, 2),
    ("planners", "PR", 14048627, 9877108, 4162429, 78, 0),
    ("compress-always", "BFS", 499919, 63095, 85944, 0, 0),
    ("compress-always", "SSSP", 2051161, 2232496, 313453, 0, 0),
    ("compress-always", "CC", 1311300, 251878, 322601, 0, 0),
    ("compress-always", "PR", 16228406, 3000032, 4162429, 0, 0),
    ("pull", "BFS", 1284918, 1005176, 238034, 0, 5),
    ("pull", "CC", 1282924, 1005176, 164368, 0, 5),
    ("pull", "PR", 40214432, 33678648, 7992792, 0, 93),
    ("subway", "BFS", 375303, 362008, 85944, 0, 0),
    ("subway", "SSSP", 1540972, 2577256, 313453, 0, 0),
    ("subway", "CC", 754620, 1360804, 322601, 0, 0),
    ("subway", "PR", 10874059, 17457820, 4162429, 0, 0),
    ("subway-compress", "BFS", 401792, 113553, 85944, 0, 0),
    ("subway-compress", "SSSP", 1540972, 2577256, 313453, 0, 0),
    ("subway-compress", "CC", 786495, 428988, 322601, 0, 0),
    ("subway-compress", "PR", 11401194, 5392018, 4162429, 0, 0),
    ("session", "PR", 14048627, 9877108, 4162429, 78, 0),
    ("session", "BFS", 224434, 61740, 25873, 1, 2),
    ("session", "CC", 905064, 709332, 255778, 0, 2),
];

fn device(g: &Csr) -> DeviceConfig {
    DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2)
}

fn ascetic_cfg(g: &Csr) -> AsceticConfig {
    AsceticConfig::new(device(g)).with_chunk_bytes(1024)
}

/// Run BFS, SSSP (unless the config forces pull, which SSSP cannot do),
/// CC and PR on `sys` and record one cell each.
fn run_all<S: OutOfCoreSystem>(
    name: &'static str,
    sys: &S,
    g: &Csr,
    gw: &Csr,
    cells: &mut Vec<Golden>,
) {
    cells.push(cell(name, &sys.run(g, &Bfs::new(0))));
    if name != "pull" {
        cells.push(cell(name, &sys.run(gw, &Sssp::new(0))));
    }
    cells.push(cell(name, &sys.run(g, &Cc::new())));
    cells.push(cell(name, &sys.run(g, &PageRank::new())));
}

fn cell(config: &'static str, r: &RunReport) -> Golden {
    (
        config,
        r.algorithm,
        r.sim_time_ns,
        r.xfer.h2d_wire_bytes,
        r.kernels.edges,
        r.prefetch_hits,
        r.per_iter.iter().filter(|i| i.pull).count() as u64,
    )
}

#[test]
fn simulated_numbers_match_the_goldens() {
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = &ds.graph;
    let gw = ds.weighted();
    let mut cells = Vec::new();
    let planners = ascetic_cfg(g)
        .with_prefetch(PrefetchMode::NextFrontier)
        .with_compression(CompressionMode::Adaptive)
        .with_direction(DirectionMode::Adaptive);
    let always = ascetic_cfg(g).with_compression(CompressionMode::Always);
    let pull = ascetic_cfg(g).with_direction(DirectionMode::Pull);
    run_all(
        "planners",
        &AsceticSystem::new(planners),
        g,
        &gw,
        &mut cells,
    );
    run_all(
        "compress-always",
        &AsceticSystem::new(always),
        g,
        &gw,
        &mut cells,
    );
    run_all("pull", &AsceticSystem::new(pull), g, &gw, &mut cells);
    let subway = SubwaySystem::new(device(g));
    run_all("subway", &subway, g, &gw, &mut cells);
    let subway_always = SubwaySystem::new(device(g)).with_compression(CompressionMode::Always);
    run_all("subway-compress", &subway_always, g, &gw, &mut cells);
    // warm runs over one session: the static region, hotness and (on
    // the first pull-capable run) the CSC mirror carry from run to run
    let mut sess = AsceticSession::new(planners, g);
    cells.push(cell("session", &sess.run(&PageRank::new())));
    cells.push(cell("session", &sess.run(&Bfs::new(0))));
    cells.push(cell("session", &sess.run(&Cc::new())));
    assert_eq!(cells.as_slice(), GOLDENS, "virtual-clock drift");
}

//! The On-demand Engine (paper §3.1, Figure 4 steps ➋–➍).
//!
//! CPU-side machinery that turns `OndemandNodes` into a compact subgraph —
//! the Subway-style scheme the paper adopts ("Such requests are sent to
//! On-demand Engine, which is similar to the scheme used in Subway"):
//!
//! 1. **plan** — split the node list into batches whose edge payload fits
//!    the on-demand region (the paper's "divide the on-demand data into
//!    many smaller fragments ... and then transfer and process them in
//!    turn"); a vertex whose adjacency list alone exceeds the region is
//!    split across batches (partial delivery is part of the
//!    `VertexProgram` contract);
//! 2. **gather** — multi-threaded copy of the requested edge ranges from
//!    the host CSR, in device word format, *straight into the device
//!    window* the batch ships to ([`GatherBatch::gather_into`], called
//!    from the fill closure of `ascetic_sim::Gpu::h2d_fill_at`), with a
//!    per-entry index (`OndemandNodes` + offsets) for the kernel. Each
//!    byte moves once: no staging buffer sits between the CSR and the
//!    arena.
//!
//! The engine is pure data-plane; the [`crate::engine`] Manager charges the
//! gather/transfer costs.

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{
    exclusive_scan_in_place, parallel_exclusive_scan, parallel_parts, parallel_ranges,
};

/// One gather request: a vertex and the sub-range of its edges to deliver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatherEntry {
    /// Source vertex.
    pub vertex: VertexId,
    /// Edge-index range (absolute, into the CSR edge array).
    pub edges: std::ops::Range<u64>,
}

impl GatherEntry {
    /// Edges requested.
    pub fn num_edges(&self) -> u64 {
        self.edges.end - self.edges.start
    }
}

/// A planned batch: its requests plus the per-entry index into the
/// payload, which [`GatherBatch::gather_into`] writes into the window the
/// batch ships to.
#[derive(Clone, Debug)]
pub struct GatherBatch {
    /// Requests in this batch.
    pub entries: Vec<GatherEntry>,
    /// Word offset of each entry's payload within the window
    /// (length `entries.len() + 1`).
    pub offsets: Vec<u64>,
    /// Total edges in the batch.
    pub edges: u64,
}

impl GatherBatch {
    /// Index `entries` (one exclusive scan over their word lengths).
    pub fn new(g: &Csr, entries: Vec<GatherEntry>) -> GatherBatch {
        let wpe = g.words_per_edge() as u64;
        let mut lens: Vec<u64> = entries.iter().map(|e| e.num_edges() * wpe).collect();
        lens.push(0);
        // large frontiers get the two-pass parallel scan; small ones stay serial
        let (offsets, total_words) = if lens.len() > 8_192 {
            parallel_exclusive_scan(&lens)
        } else {
            let total = exclusive_scan_in_place(&mut lens);
            (lens, total)
        };
        GatherBatch {
            entries,
            offsets,
            edges: total_words / wpe,
        }
    }

    /// Payload words of the batch — the size of its device window.
    pub fn payload_words(&self) -> usize {
        *self.offsets.last().expect("offsets hold a trailing total") as usize
    }

    /// Payload bytes of the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_words() as u64 * 4
    }

    /// Bytes of the subgraph index shipped alongside the payload
    /// (vertex id + offset per entry, as in Subway's `OndemandNodes`).
    pub fn index_bytes(&self) -> u64 {
        (self.entries.len() * 8) as u64
    }

    /// The word range of entry `i` within the payload.
    pub fn entry_words(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Gather the payload from the host CSR into `window` (multi-threaded).
    /// Entry payloads are contiguous, so a static split of the entries
    /// over workers hands each a disjoint, contiguous slice of `window`
    /// to fill in place.
    ///
    /// # Panics
    /// Panics if `window` is not exactly [`GatherBatch::payload_words`]
    /// long.
    pub fn gather_into(&self, g: &Csr, window: &mut [u32]) {
        assert_eq!(
            window.len(),
            self.payload_words(),
            "window must fit the payload"
        );
        let ranges = parallel_ranges(self.entries.len(), |_, r| r);
        let mut parts: Vec<(&mut [u32], std::ops::Range<usize>)> = Vec::with_capacity(ranges.len());
        let mut rest = window;
        for er in ranges {
            let words = (self.offsets[er.end] - self.offsets[er.start]) as usize;
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(words);
            rest = tail;
            parts.push((mine, er));
        }
        parallel_parts(parts, |_, (mine, er)| {
            let base = self.offsets[er.start] as usize;
            for i in er {
                let w = self.entry_words(i);
                g.copy_edge_words(
                    self.entries[i].edges.clone(),
                    &mut mine[w.start - base..w.end - base],
                );
            }
        });
    }
}

/// Split `nodes` into batches whose payload fits `capacity_words`.
///
/// # Panics
/// Panics if `capacity_words` cannot hold a single edge entry.
pub fn plan_batches(g: &Csr, nodes: &[VertexId], capacity_words: usize) -> Vec<Vec<GatherEntry>> {
    let wpe = g.words_per_edge() as u64;
    assert!(
        capacity_words as u64 >= wpe,
        "on-demand region below one edge"
    );
    let cap_edges = capacity_words as u64 / wpe;

    let mut batches = Vec::new();
    let mut cur: Vec<GatherEntry> = Vec::new();
    let mut cur_edges = 0u64;
    for &v in nodes {
        let mut r = g.edge_range(v);
        while !r.is_empty() {
            let room = cap_edges - cur_edges;
            if room == 0 {
                batches.push(std::mem::take(&mut cur));
                cur_edges = 0;
                continue;
            }
            let take = (r.end - r.start).min(room);
            cur.push(GatherEntry {
                vertex: v,
                edges: r.start..r.start + take,
            });
            cur_edges += take;
            r.start += take;
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::GraphBuilder;

    fn graph() -> Csr {
        // degrees: v0=3, v1=1, v2=2
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        b.build()
    }

    #[test]
    fn single_batch_when_everything_fits() {
        let g = graph();
        let batches = plan_batches(&g, &[0, 1, 2], 100);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3);
        let total: u64 = batches[0].iter().map(|e| e.num_edges()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn splits_batches_at_capacity() {
        let g = graph();
        // capacity = 2 edges (2 words unweighted)
        let batches = plan_batches(&g, &[0, 1, 2], 2);
        let sizes: Vec<u64> = batches
            .iter()
            .map(|b| b.iter().map(|e| e.num_edges()).sum())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 2), "sizes {sizes:?}");
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, 6);
        // vertex 0 (deg 3) must be split across batches
        let v0_entries: Vec<_> = batches.iter().flatten().filter(|e| e.vertex == 0).collect();
        assert!(v0_entries.len() >= 2);
    }

    #[test]
    fn empty_nodes_yield_no_batches() {
        let g = graph();
        assert!(plan_batches(&g, &[], 100).is_empty());
    }

    #[test]
    fn zero_degree_vertices_are_skipped() {
        let g = graph();
        let batches = plan_batches(&g, &[3], 100);
        assert!(batches.is_empty(), "vertex 3 has no edges");
    }

    /// Index `entries` and gather them into a fresh window.
    fn gather(g: &Csr, entries: Vec<GatherEntry>) -> (GatherBatch, Vec<u32>) {
        let batch = GatherBatch::new(g, entries);
        let mut words = vec![u32::MAX; batch.payload_words()];
        batch.gather_into(g, &mut words);
        (batch, words)
    }

    #[test]
    fn gather_writes_correct_words_unweighted() {
        let g = graph();
        let (batch, words) = gather(&g, plan_batches(&g, &[0, 2], 100).remove(0));
        assert_eq!(batch.edges, 5);
        assert_eq!(words, vec![1, 2, 3, 0, 1]);
        assert_eq!(batch.entry_words(0), 0..3);
        assert_eq!(batch.entry_words(1), 3..5);
        assert_eq!(batch.payload_bytes(), 20);
        assert_eq!(batch.index_bytes(), 16);
    }

    #[test]
    fn gather_writes_correct_words_weighted() {
        let g = weighted_variant(&graph());
        let (batch, words) = gather(&g, plan_batches(&g, &[1], 100).remove(0));
        assert_eq!(batch.edges, 1);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], 3); // target
        assert_eq!(words[1], g.edge_weights(1)[0]); // weight
    }

    #[test]
    fn gather_matches_direct_serialization_on_random_graph() {
        let g = uniform_graph(500, 4_000, false, 3);
        let nodes: Vec<u32> = (0..500).step_by(3).collect();
        for entries in plan_batches(&g, &nodes, 512) {
            let (batch, words) = gather(&g, entries.clone());
            for (i, e) in entries.iter().enumerate() {
                let mut expect = Vec::new();
                g.write_edge_words(e.edges.clone(), &mut expect);
                assert_eq!(&words[batch.entry_words(i)], &expect[..]);
            }
        }
    }

    #[test]
    fn offsets_cover_payload_exactly() {
        let g = uniform_graph(200, 2_000, false, 7);
        let nodes: Vec<u32> = (0..200).collect();
        for entries in plan_batches(&g, &nodes, 1024) {
            let (batch, words) = gather(&g, entries);
            assert_eq!(*batch.offsets.last().unwrap() as usize, words.len());
            assert!(batch.offsets.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "window must fit")]
    fn gather_rejects_a_mis_sized_window() {
        let g = graph();
        let batch = GatherBatch::new(&g, plan_batches(&g, &[0], 100).remove(0));
        batch.gather_into(&g, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "below one edge")]
    fn rejects_tiny_capacity() {
        let g = weighted_variant(&graph());
        plan_batches(&g, &[0], 1);
    }
}

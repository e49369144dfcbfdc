//! What the workloads share: their generated documents, the correctness
//! gate's reference — the §3.3 materialized-view oracle
//! (`MaterializedBaseline`) — and the answer format the daemon ships.

use sxv_bench::{AdexWorkload, BomWorkload};
use sxv_core::{AccessSpec, Approach, MaterializedBaseline, SecurityView};
use sxv_gen::{GenConfig, Generator};
use sxv_xml::{json_escape, Document, NodeId};
use sxv_xpath::Path;

pub const APPROACHES: [(&str, Approach); 4] = [
    ("optimize", Approach::Optimize),
    ("rewrite", Approach::Rewrite),
    ("annotate", Approach::Annotate),
    ("naive", Approach::Naive),
];

pub fn approach_name(a: Approach) -> &'static str {
    APPROACHES.iter().find(|(_, x)| *x == a).map_or("?", |(n, _)| n)
}

/// The node set the view semantics defines for `query` over `doc`,
/// sorted. Materializes the view on first use and reuses it after.
pub struct Oracle<'a> {
    baseline: MaterializedBaseline<'a>,
}

impl<'a> Oracle<'a> {
    pub fn new(spec: &'a AccessSpec, view: &'a SecurityView) -> Oracle<'a> {
        Oracle { baseline: MaterializedBaseline::new(spec, view) }
    }

    pub fn answer(&mut self, doc: &Document, query: &Path) -> Result<Vec<NodeId>, String> {
        let mut nodes =
            self.baseline.answer(doc, query).map_err(|e| format!("oracle on {query}: {e}"))?;
        nodes.sort_unstable();
        Ok(nodes)
    }
}

/// Does an engine answer select exactly the oracle's nodes?
pub fn same_nodes(engine: &[NodeId], oracle_sorted: &[NodeId]) -> bool {
    let mut got = engine.to_vec();
    got.sort_unstable();
    got == oracle_sorted
}

/// One answer line exactly as `sxv query` prints it and the daemon ships
/// it: `<label> value` for elements, `#text value` for text nodes.
pub fn answer_line(doc: &Document, node: NodeId) -> String {
    match doc.label_opt(node) {
        Some(label) => format!("<{label}> {}", doc.string_value(node)),
        None => format!("#text {}", doc.string_value(node)),
    }
}

/// The daemon's `answers` array contents for `nodes`.
pub fn answers_json(doc: &Document, nodes: &[NodeId]) -> String {
    let lines: Vec<String> =
        nodes.iter().map(|&n| format!("\"{}\"", json_escape(&answer_line(doc, n)))).collect();
    lines.join(", ")
}

/// An Adex generator config whose `x*` counts stay within `branch`, so
/// document size varies little between seeds.
pub fn adex_config(branch: (usize, usize), seed: u64) -> GenConfig {
    AdexWorkload::dataset_config(branch.1, seed).with_min_branch(branch.0)
}

/// A BOM document of fixed shape: every subpart holds exactly two parts
/// down to `depth` element levels; only the values depend on the seed.
pub fn bom_document(bom: &BomWorkload, depth: usize, seed: u64) -> Document {
    let config = GenConfig::seeded(seed)
        .with_max_branch(2)
        .with_min_branch(2)
        .with_max_depth(depth)
        .with_values("partno", ["p-100", "p-200", "p-300", "p-400"])
        .with_values("name", ["acme", "globex", "initech"]);
    Generator::for_dtd(&bom.dtd, config).generate().expect("BOM DTD is consistent")
}

//! Intra-workspace function index and conservative call graph.
//!
//! Nodes are every non-test `fn` item the parser recovers from the scanned
//! files. Edges are *name-resolved*: a call site `helper(…)`, `self.helper(…)`
//! or `Type::helper(…)` produces an edge to **every** workspace function
//! named `helper`. That over-approximates real dispatch (two unrelated
//! `get` methods alias), which is the safe direction for a reachability
//! lint: a path that might be hot is treated as hot.
//!
//! Two deliberate holes keep the over-approximation from swallowing the
//! whole workspace (documented in docs/LINTS.md under "Hot-path roots and
//! the call graph"):
//!
//! * **Constructor boundary** — edges whose callee is named `new`,
//!   `default` or `with_capacity` are not traversed. Construction is the
//!   warm-up path by this repo's conventions (steady-state rounds build
//!   nothing — pinned at runtime by `round_alloc.rs`), and traversing every
//!   `new` would alias all constructors together.
//! * **Allocation sinks** — edges into `clone`/`to_vec`/`collect`-style
//!   callees are not traversed because those *call sites* are themselves
//!   what rule A001 flags; their bodies add nothing.
//!
//! The runtime half of the plane (`fedcross_tensor::alloc_guard` under the
//! `sanitize-alloc` feature) backstops whatever slips through these holes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{callees, parse, ParsedFile};
use crate::strip::{strip, Stripped};

/// Callee names that terminate traversal (see module docs).
pub const BOUNDARY_CALLEES: [&str; 14] = [
    // Constructor boundary.
    "new", "default", "with_capacity",
    // Allocation sinks — the call site is the finding, not the body.
    "clone", "cloned", "to_vec", "to_string", "to_owned", "collect", "boxed", "clone_model",
    "clone_layer", "params_flat", "from",
];

/// One scanned source file, pre-stripped and parsed.
pub struct IndexedFile {
    /// Workspace crate the file belongs to (`"core"`, `"tensor"`, …).
    pub crate_name: String,
    /// Bare file name (`"aggregation.rs"`).
    pub file_name: String,
    /// Path reported in findings.
    pub display_path: String,
    /// Code/comment split.
    pub stripped: Stripped,
    /// Item structure.
    pub parsed: ParsedFile,
}

/// A function node in the workspace call graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    /// Index into the file list.
    pub file: usize,
    /// Index into that file's `ParsedFile::fns`.
    pub item: usize,
}

/// The workspace-wide function index + call graph + hot-path reachability.
pub struct CallGraph {
    /// All nodes, in (file, declaration) order.
    pub nodes: Vec<FnRef>,
    /// Function name → node indices bearing that name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Per node: callee names referenced from its body.
    pub calls: Vec<Vec<String>>,
    /// Per node: whether it is a hot-path root, and why.
    pub root_kind: Vec<Option<&'static str>>,
    /// Per node: reachable from some root?
    pub reachable: Vec<bool>,
    /// Per node: BFS predecessor (for explaining reachability paths).
    pub parent: Vec<Option<usize>>,
}

/// Whether a file is a kernel file for root selection — mirrors the D004
/// scope: the whole `tensor` crate plus the named kernel files.
fn is_kernel_file(crate_name: &str, file_name: &str) -> bool {
    crate_name == crate::KERNEL_CRATE || crate::KERNEL_FILES.contains(&file_name)
}

/// Classifies a function as a hot-path root.
///
/// The root set is the repo's zero-alloc steady-state surface:
/// * every `pub fn *_into` kernel in a kernel file (the fused aggregation /
///   robust / buffered kernels and the whole tensor crate),
/// * the pooled training forms `forward_into` / `backward_into` /
///   `backward_into_discard` wherever they are implemented,
/// * the in-place optimizer (`Sgd::step` and its raw/with variants),
/// * the engine round loop (`run_segment_with_observer`), which pulls in
///   every algorithm's `run_round`, dispatch, upload and eval path.
fn root_kind_for(crate_name: &str, file_name: &str, name: &str, is_pub: bool) -> Option<&'static str> {
    if is_pub && name.ends_with("_into") && is_kernel_file(crate_name, file_name) {
        return Some("kernel *_into");
    }
    if matches!(name, "forward_into" | "backward_into" | "backward_into_discard") {
        return Some("pooled training form");
    }
    if file_name == "optim.rs" && matches!(name, "step" | "step_with" | "step_raw") {
        return Some("in-place optimizer step");
    }
    if file_name == "engine.rs" && name == "run_segment_with_observer" {
        return Some("engine round loop");
    }
    None
}

impl CallGraph {
    /// Strips + parses raw sources into indexed files. Exposed separately so
    /// the rule engine can reuse the per-file structures.
    pub fn index_files(
        files: &[(String, String, String, String)], // (crate, file, display, source)
    ) -> Vec<IndexedFile> {
        files
            .iter()
            .map(|(crate_name, file_name, display_path, source)| {
                let stripped = strip(source);
                let parsed = parse(&stripped);
                IndexedFile {
                    crate_name: crate_name.clone(),
                    file_name: file_name.clone(),
                    display_path: display_path.clone(),
                    stripped,
                    parsed,
                }
            })
            .collect()
    }

    /// Builds the graph and computes hot-path reachability.
    pub fn build(files: &[IndexedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.parsed.fns.iter().enumerate() {
                if item.in_test {
                    continue;
                }
                let node = nodes.len();
                nodes.push(FnRef { file: fi, item: ii });
                by_name.entry(item.name.clone()).or_default().push(node);
            }
        }
        let mut calls = Vec::with_capacity(nodes.len());
        let mut root_kind = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let file = &files[node.file];
            let item = &file.parsed.fns[node.item];
            calls.push(callees(&file.stripped, &file.parsed, node.item));
            root_kind.push(root_kind_for(
                &file.crate_name,
                &file.file_name,
                &item.name,
                item.is_pub,
            ));
        }

        // BFS from every root over name-resolved edges, skipping the
        // boundary callees.
        let boundary: BTreeSet<&str> = BOUNDARY_CALLEES.iter().copied().collect();
        let mut reachable = vec![false; nodes.len()];
        let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut queue = VecDeque::new();
        for (idx, kind) in root_kind.iter().enumerate() {
            if kind.is_some() {
                reachable[idx] = true;
                queue.push_back(idx);
            }
        }
        while let Some(idx) = queue.pop_front() {
            for callee in &calls[idx] {
                if boundary.contains(callee.as_str()) {
                    continue;
                }
                if let Some(targets) = by_name.get(callee) {
                    for &t in targets {
                        if !reachable[t] {
                            reachable[t] = true;
                            parent[t] = Some(idx);
                            queue.push_back(t);
                        }
                    }
                }
            }
        }

        CallGraph {
            nodes,
            by_name,
            calls,
            root_kind,
            reachable,
            parent,
        }
    }

    /// Human-readable label `crate/file.rs::name` for a node.
    pub fn label(&self, files: &[IndexedFile], node: usize) -> String {
        let r = self.nodes[node];
        let file = &files[r.file];
        format!("{}::{}", file.display_path, file.parsed.fns[r.item].name)
    }

    /// The call chain from a hot-path root to `node` (inclusive), shortest
    /// in BFS hops, as node indices. Empty if the node is unreachable.
    pub fn chain_to(&self, mut node: usize) -> Vec<usize> {
        if !self.reachable[node] {
            return Vec::new();
        }
        let mut chain = vec![node];
        while let Some(p) = self.parent[node] {
            chain.push(p);
            node = p;
        }
        chain.reverse();
        chain
    }

    /// A compact rendering of the root-to-node chain for finding messages:
    /// `root_name -> … -> fn_name`, elided in the middle when long.
    pub fn chain_label(&self, files: &[IndexedFile], node: usize) -> String {
        let chain = self.chain_to(node);
        let names: Vec<String> = chain
            .iter()
            .map(|&n| {
                let r = self.nodes[n];
                files[r.file].parsed.fns[r.item].name.clone()
            })
            .collect();
        if names.len() <= 5 {
            names.join(" -> ")
        } else {
            format!(
                "{} -> {} -> … -> {} -> {}",
                names[0],
                names[1],
                names[names.len() - 2],
                names[names.len() - 1]
            )
        }
    }

    /// Looks up nodes by bare function name (for `--reach`).
    pub fn nodes_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str, &str)]) -> (Vec<IndexedFile>, CallGraph) {
        let raw: Vec<(String, String, String, String)> = files
            .iter()
            .map(|(c, f, src)| (c.to_string(), f.to_string(), format!("{c}/{f}"), src.to_string()))
            .collect();
        let indexed = CallGraph::index_files(&raw);
        let g = CallGraph::build(&indexed);
        (indexed, g)
    }

    #[test]
    fn kernel_into_fns_are_roots_and_reach_their_helpers() {
        let (files, g) = graph(&[(
            "tensor",
            "ops.rs",
            "pub fn axpy_into(d: &mut [f32]) {\n    helper(d);\n}\npub fn axpy(d: &[f32]) -> Vec<f32> { vec![] }\nfn helper(d: &mut [f32]) {\n    leaf(d);\n}\nfn leaf(_d: &mut [f32]) {}\nfn island() {}\n",
        )]);
        let by = |name: &str| g.nodes_named(name)[0];
        assert_eq!(g.root_kind[by("axpy_into")], Some("kernel *_into"));
        assert!(g.reachable[by("helper")]);
        assert!(g.reachable[by("leaf")], "multi-hop reachability");
        assert!(!g.reachable[by("island")]);
        assert!(!g.reachable[by("axpy")], "allocating twins are not roots");
        let chain = g.chain_label(&files, by("leaf"));
        assert_eq!(chain, "axpy_into -> helper -> leaf");
    }

    #[test]
    fn name_resolution_is_conservative_across_files() {
        let (_, g) = graph(&[
            (
                "nn",
                "layers.rs",
                "pub fn forward_into(x: u32) {\n    shared_name(x);\n}\n",
            ),
            (
                "flsim",
                "other.rs",
                "pub fn shared_name(x: u32) {\n    deep(x);\n}\nfn deep(_x: u32) {}\n",
            ),
        ]);
        // The call resolves into the other file's same-named fn.
        assert!(g.reachable[g.nodes_named("shared_name")[0]]);
        assert!(g.reachable[g.nodes_named("deep")[0]]);
    }

    #[test]
    fn constructor_boundary_stops_traversal() {
        let (_, g) = graph(&[(
            "tensor",
            "ops.rs",
            "pub fn fuse_into(d: &mut [f32]) {\n    let s = Scratch::new();\n}\nimpl Scratch {\n    pub fn new() -> Self {\n        builds_everything()\n    }\n}\nfn builds_everything() -> Scratch { Scratch }\n",
        )]);
        assert!(!g.reachable[g.nodes_named("new")[0]]);
        assert!(!g.reachable[g.nodes_named("builds_everything")[0]]);
    }

    #[test]
    fn fallback_twin_edge_is_traversed() {
        let (_, g) = graph(&[(
            "nn",
            "layers.rs",
            "pub fn forward_into(d: &mut [f32]) {\n    let cold = forward(d);\n}\npub fn forward(d: &[f32]) -> Vec<f32> {\n    deep_alloc(d)\n}\nfn deep_alloc(d: &[f32]) -> Vec<f32> { d.to_vec() }\n",
        )]);
        // A pooled form that calls its allocating twin puts the twin on the
        // hot path like any other callee.
        assert!(g.reachable[g.nodes_named("forward")[0]], "allocating twin is hot");
        assert!(g.reachable[g.nodes_named("deep_alloc")[0]]);
        // …and so is an unrelated callee of the same pooled form.
        let (_, g) = graph(&[(
            "nn",
            "layers.rs",
            "pub fn forward_into(d: &mut [f32]) {\n    stage(d);\n}\nfn stage(_d: &mut [f32]) {}\n",
        )]);
        assert!(g.reachable[g.nodes_named("stage")[0]]);
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let (_, g) = graph(&[(
            "core",
            "aggregation.rs",
            "pub fn average_into(d: &mut [f32]) {}\n#[cfg(test)]\nmod tests {\n    fn probe() { average_into(&mut []); }\n}\n",
        )]);
        assert!(g.nodes_named("probe").is_empty());
    }

    #[test]
    fn optimizer_and_engine_roots_apply_by_file() {
        let (_, g) = graph(&[
            ("nn", "optim.rs", "pub fn step(m: u32) {\n    apply(m);\n}\nfn apply(_m: u32) {}\n"),
            ("core", "selection.rs", "pub fn step(m: u32) {}\n"),
        ]);
        let nodes = g.nodes_named("step");
        // Both `step`s exist; only the optim.rs one is a root…
        let kinds: Vec<_> = nodes.iter().map(|&n| g.root_kind[n]).collect();
        assert!(kinds.contains(&Some("in-place optimizer step")));
        assert!(kinds.contains(&None));
        // …but conservative name resolution still reaches the other when
        // something calls `step` — here nothing does, so it stays a root-only
        // property.
        assert!(g.reachable[g.nodes_named("apply")[0]]);
    }
}

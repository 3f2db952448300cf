//! Signal-flow graphs: nodes, weighted directed edges, and the forward-path
//! and loop enumeration Mason's rule needs.
//!
//! Node sets are stored as `u64` bitmasks (graphs from DPI construction of
//! OTA-scale circuits have ≤ ~20 nodes), which makes the non-touching-loop
//! tests in Mason's formula O(1).

use crate::rational::SymRational;
use std::collections::HashMap;
use std::fmt;

/// Node handle within an [`Sfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SfgNode(pub(crate) usize);

impl SfgNode {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A directed edge with a symbolic rational gain.
#[derive(Debug, Clone)]
pub struct SfgEdge {
    /// Source node.
    pub from: SfgNode,
    /// Destination node.
    pub to: SfgNode,
    /// Branch gain.
    pub gain: SymRational,
}

/// A forward path or loop: the visited node set (bitmask) and the product of
/// branch gains along it.
#[derive(Debug, Clone)]
pub struct PathGain {
    /// Bitmask of visited nodes.
    pub mask: u64,
    /// Product of edge gains.
    pub gain: SymRational,
    /// Node sequence (for diagnostics; loops start at their smallest node).
    pub nodes: Vec<SfgNode>,
}

/// A signal-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Sfg {
    names: Vec<String>,
    name_map: HashMap<String, usize>,
    edges: Vec<SfgEdge>,
}

impl Sfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Sfg::default()
    }

    /// Interns (or retrieves) a named node.
    ///
    /// # Panics
    /// Panics when more than 64 nodes are created (bitmask limit).
    pub fn node(&mut self, name: &str) -> SfgNode {
        if let Some(&i) = self.name_map.get(name) {
            return SfgNode(i);
        }
        let i = self.names.len();
        assert!(i < 64, "SFG limited to 64 nodes");
        self.names.push(name.to_string());
        self.name_map.insert(name.to_string(), i);
        SfgNode(i)
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Node name.
    pub fn node_name(&self, n: SfgNode) -> &str {
        &self.names[n.0]
    }

    /// Looks up a node by name.
    pub fn find_node(&self, name: &str) -> Option<SfgNode> {
        self.name_map.get(name).map(|&i| SfgNode(i))
    }

    /// Adds a directed edge; parallel edges between the same pair are
    /// merged by gain addition (standard SFG identity).
    pub fn add_edge(&mut self, from: SfgNode, to: SfgNode, gain: SymRational) {
        if gain.is_zero() {
            return;
        }
        if let Some(e) = self.edges.iter_mut().find(|e| e.from == from && e.to == to) {
            e.gain = &e.gain + &gain;
            return;
        }
        self.edges.push(SfgEdge { from, to, gain });
    }

    /// All edges.
    pub fn edges(&self) -> &[SfgEdge] {
        &self.edges
    }

    /// Outgoing edges of a node.
    fn out_edges(&self, n: SfgNode) -> impl Iterator<Item = &SfgEdge> {
        self.edges.iter().filter(move |e| e.from == n)
    }

    /// Enumerates all simple forward paths from `src` to `dst`.
    pub fn simple_paths(&self, src: SfgNode, dst: SfgNode) -> Vec<PathGain> {
        let mut out = Vec::new();
        let mut stack = vec![src];
        let mut visited = 1u64 << src.0;
        self.dfs_paths(
            src,
            dst,
            &mut stack,
            &mut visited,
            &SymRational::one(),
            &mut out,
        );
        out
    }

    fn dfs_paths(
        &self,
        cur: SfgNode,
        dst: SfgNode,
        stack: &mut Vec<SfgNode>,
        visited: &mut u64,
        gain: &SymRational,
        out: &mut Vec<PathGain>,
    ) {
        if cur == dst {
            out.push(PathGain {
                mask: *visited,
                gain: gain.clone(),
                nodes: stack.clone(),
            });
            return;
        }
        let next_edges: Vec<&SfgEdge> = self.out_edges(cur).collect();
        for e in next_edges {
            let bit = 1u64 << e.to.0;
            if *visited & bit != 0 {
                continue;
            }
            *visited |= bit;
            stack.push(e.to);
            let g = gain * &e.gain;
            self.dfs_paths(e.to, dst, stack, visited, &g, out);
            stack.pop();
            *visited &= !bit;
        }
    }

    /// Enumerates all simple loops (cycles), each reported once with its
    /// smallest node first.
    pub fn loops(&self) -> Vec<PathGain> {
        let mut out = Vec::new();
        for start in 0..self.names.len() {
            let s = SfgNode(start);
            let mut stack = vec![s];
            let mut visited = 1u64 << start;
            self.dfs_loops(
                s,
                s,
                start,
                &mut stack,
                &mut visited,
                &SymRational::one(),
                &mut out,
            );
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_loops(
        &self,
        cur: SfgNode,
        start: SfgNode,
        min_idx: usize,
        stack: &mut Vec<SfgNode>,
        visited: &mut u64,
        gain: &SymRational,
        out: &mut Vec<PathGain>,
    ) {
        let next_edges: Vec<&SfgEdge> = self.out_edges(cur).collect();
        for e in next_edges {
            if e.to == start {
                // Found a loop; record (canonical: only counted from its
                // smallest node, guaranteed by the min_idx pruning below).
                let g = gain * &e.gain;
                out.push(PathGain {
                    mask: *visited,
                    gain: g,
                    nodes: stack.clone(),
                });
                continue;
            }
            // Only visit nodes with index > min_idx so each cycle is
            // enumerated exactly once (rooted at its smallest node).
            if e.to.0 <= min_idx {
                continue;
            }
            let bit = 1u64 << e.to.0;
            if *visited & bit != 0 {
                continue;
            }
            *visited |= bit;
            stack.push(e.to);
            let g = gain * &e.gain;
            self.dfs_loops(e.to, start, min_idx, stack, visited, &g, out);
            stack.pop();
            *visited &= !bit;
        }
    }
}

impl fmt::Display for Sfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SFG with {} nodes, {} edges:",
            self.names.len(),
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {} : {}",
                self.names[e.from.0], self.names[e.to.0], e.gain
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymExpr;

    fn k(name: &str) -> SymRational {
        SymRational::from_expr(SymExpr::sym(name))
    }

    #[test]
    fn node_interning_and_limit() {
        let mut g = Sfg::new();
        let a = g.node("a");
        assert_eq!(g.node("a"), a);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.node_name(a), "a");
        assert_eq!(g.find_node("a"), Some(a));
        assert_eq!(g.find_node("zz"), None);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = Sfg::new();
        let a = g.node("a");
        let b = g.node("b");
        g.add_edge(a, b, k("x"));
        g.add_edge(a, b, k("y"));
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn simple_paths_in_diamond() {
        let mut g = Sfg::new();
        let s = g.node("s");
        let m1 = g.node("m1");
        let m2 = g.node("m2");
        let t = g.node("t");
        g.add_edge(s, m1, k("a"));
        g.add_edge(s, m2, k("b"));
        g.add_edge(m1, t, k("c"));
        g.add_edge(m2, t, k("d"));
        let paths = g.simple_paths(s, t);
        assert_eq!(paths.len(), 2);
        // Gains are a·c and b·d (order independent).
        let strs: Vec<String> = paths.iter().map(|p| p.gain.to_string()).collect();
        assert!(strs.iter().any(|s| s.contains('a') && s.contains('c')));
        assert!(strs.iter().any(|s| s.contains('b') && s.contains('d')));
    }

    #[test]
    fn loops_counted_once() {
        let mut g = Sfg::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        // Two-node loop a<->b, three-node loop a->b->c->a, self-loop on c.
        g.add_edge(a, b, k("p"));
        g.add_edge(b, a, k("q"));
        g.add_edge(b, c, k("r"));
        g.add_edge(c, a, k("s"));
        g.add_edge(c, c, k("t"));
        let loops = g.loops();
        assert_eq!(loops.len(), 3, "{loops:?}");
    }

    #[test]
    fn non_touching_detection() {
        let mut g = Sfg::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        let d = g.node("d");
        g.add_edge(a, b, k("x"));
        g.add_edge(b, a, k("y"));
        g.add_edge(c, d, k("u"));
        g.add_edge(d, c, k("v"));
        let loops = g.loops();
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].mask & loops[1].mask, 0);
    }

    #[test]
    fn no_paths_when_disconnected() {
        let mut g = Sfg::new();
        let a = g.node("a");
        let b = g.node("b");
        assert!(g.simple_paths(a, b).is_empty());
        assert!(g.loops().is_empty());
    }
}

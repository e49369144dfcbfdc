//! Tree traversal iterators.

use crate::node::{Document, NodeId};

/// Pre-order iterator over the subtree rooted at a node
/// (includes the node itself as the first item).
pub struct Descendants<'d> {
    doc: &'d Document,
    stack: Vec<NodeId>,
}

impl<'d> Iterator for Descendants<'d> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        for &c in self.doc.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

impl Document {
    /// Pre-order traversal of the subtree rooted at `id` (self first).
    pub fn descendants_or_self(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, stack: vec![id] }
    }

    /// Proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants_or_self(id).skip(1)
    }
}

#[cfg(test)]
mod tests {
    use crate::node::{Document, DocumentBuilder};

    fn doc() -> Document {
        // <a><b><d/>t</b><c/></a>
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        let b = d.append_element(a, "b");
        d.append_element(b, "d");
        d.append_text(b, "t");
        d.append_element(a, "c");
        d.finish()
    }

    #[test]
    fn descendants_preorder() {
        let d = doc();
        let labels: Vec<String> = d
            .descendants_or_self(d.root().unwrap())
            .map(|id| d.label_opt(id).map(str::to_string).unwrap_or_else(|| "#text".into()))
            .collect();
        assert_eq!(labels, ["a", "b", "d", "#text", "c"]);
    }

    #[test]
    fn descendants_excludes_self() {
        let d = doc();
        let n: Vec<_> = d.descendants(d.root().unwrap()).collect();
        assert_eq!(n.len(), 4);
        assert!(!n.contains(&d.root().unwrap()));
    }

    #[test]
    fn preorder_matches_id_order() {
        let d = doc();
        let order: Vec<_> = d.descendants_or_self(d.root().unwrap()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }
}

//! Update-in-place Merkle B-tree: the conventional ADS the paper argues
//! against (§3.4).
//!
//! A B-tree where every node carries the digest of its subtree; updates
//! rewrite the digests along the root path ("in place"). Queries return a
//! value with a path proof. [`MbtStore`](crate::MbtStore) wraps this with
//! disk-IO charging to reproduce the random-access write amplification the
//! paper contrasts LSM digests with.

use elsm_crypto::{sha256_concat, Digest};

const MAX_KEYS: usize = 8; // B-tree order (small, forces depth in tests)

#[derive(Debug, Clone)]
enum Node {
    Leaf { keys: Vec<Vec<u8>>, values: Vec<Vec<u8>> },
    Internal { keys: Vec<Vec<u8>>, children: Vec<Node> },
}

impl Node {
    fn digest(&self) -> Digest {
        match self {
            Node::Leaf { keys, values } => {
                let mut parts: Vec<&[u8]> = vec![&[0x10]];
                for (k, v) in keys.iter().zip(values) {
                    parts.push(k);
                    parts.push(v);
                }
                sha256_concat(&parts)
            }
            Node::Internal { keys, children } => {
                let child_digests: Vec<Digest> = children.iter().map(Node::digest).collect();
                let mut parts: Vec<&[u8]> = vec![&[0x11]];
                for k in keys {
                    parts.push(k);
                }
                for d in &child_digests {
                    parts.push(d.as_bytes());
                }
                sha256_concat(&parts)
            }
        }
    }
}

/// Statistics of one update: how many nodes were touched/rewritten.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nodes whose digest changed (each a random-access write in the
    /// disk-resident setting).
    pub nodes_rewritten: usize,
    /// Tree depth at the updated key.
    pub depth: usize,
}

/// An authenticated dictionary with update-in-place digests.
///
/// # Examples
///
/// ```
/// use elsm_baselines::mbt::MerkleBTree;
///
/// let mut t = MerkleBTree::new();
/// t.insert(b"key".to_vec(), b"value".to_vec());
/// assert_eq!(t.get(b"key"), Some(b"value".to_vec()));
/// let root_before = t.root();
/// t.insert(b"key".to_vec(), b"new".to_vec());
/// assert_ne!(t.root(), root_before, "updates change the root digest");
/// ```
#[derive(Debug, Clone)]
pub struct MerkleBTree {
    root: Node,
    len: usize,
}

impl Default for MerkleBTree {
    fn default() -> Self {
        Self::new()
    }
}

impl MerkleBTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        MerkleBTree { root: Node::Leaf { keys: Vec::new(), values: Vec::new() }, len: 0 }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root digest over the whole dictionary.
    pub fn root(&self) -> Digest {
        self.root.digest()
    }

    /// Inserts or updates a key, returning how many nodes were rewritten
    /// (the cost an update-in-place ADS pays per write).
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> UpdateStats {
        let mut stats = UpdateStats::default();
        let split = Self::insert_rec(&mut self.root, key, value, &mut stats);
        if let Some((mid_key, right)) = split {
            let left = std::mem::replace(
                &mut self.root,
                Node::Leaf { keys: Vec::new(), values: Vec::new() },
            );
            self.root = Node::Internal { keys: vec![mid_key], children: vec![left, right] };
            stats.nodes_rewritten += 1;
        }
        self.len = Self::count(&self.root);
        stats
    }

    fn insert_rec(
        node: &mut Node,
        key: Vec<u8>,
        value: Vec<u8>,
        stats: &mut UpdateStats,
    ) -> Option<(Vec<u8>, Node)> {
        stats.nodes_rewritten += 1;
        stats.depth += 1;
        match node {
            Node::Leaf { keys, values } => {
                match keys.binary_search(&key) {
                    Ok(i) => values[i] = value,
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                    }
                }
                if keys.len() > MAX_KEYS {
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_values = values.split_off(mid);
                    let mid_key = right_keys[0].clone();
                    return Some((mid_key, Node::Leaf { keys: right_keys, values: right_values }));
                }
                None
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key.as_slice());
                let split = Self::insert_rec(&mut children[idx], key, value, stats);
                if let Some((mid_key, right)) = split {
                    keys.insert(idx, mid_key);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let up_key = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop();
                        let right_children = children.split_off(mid + 1);
                        return Some((
                            up_key,
                            Node::Internal { keys: right_keys, children: right_children },
                        ));
                    }
                }
                None
            }
        }
    }

    fn count(node: &Node) -> usize {
        match node {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { children, .. } => children.iter().map(Self::count).sum(),
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { keys, values } => {
                    return keys
                        .binary_search_by(|k| k.as_slice().cmp(key))
                        .ok()
                        .map(|i| values[i].clone());
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    node = &children[idx];
                }
            }
        }
    }

    /// Depth of the tree (1 = a single leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            d += 1;
            node = &children[0];
        }
        d
    }

    /// Keys in `[from, to]`, with values.
    pub fn range(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, from, to, &mut out);
        out
    }

    fn range_rec(node: &Node, from: &[u8], to: &[u8], out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
        match node {
            Node::Leaf { keys, values } => {
                for (k, v) in keys.iter().zip(values) {
                    if k.as_slice() >= from && k.as_slice() <= to {
                        out.push((k.clone(), v.clone()));
                    }
                }
            }
            Node::Internal { keys, children } => {
                // Children overlapping [from, to].
                let lo = keys.partition_point(|k| k.as_slice() <= from);
                let hi = keys.partition_point(|k| k.as_slice() <= to);
                for child in &children[lo.min(children.len() - 1)..=hi.min(children.len() - 1)] {
                    Self::range_rec(child, from, to, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    #[test]
    fn insert_get_many() {
        let mut t = MerkleBTree::new();
        for i in 0..500 {
            t.insert(key(i * 7 % 500), format!("v{i}").into_bytes());
        }
        assert_eq!(t.len(), 500);
        for i in 0..500 {
            assert!(t.get(&key(i)).is_some(), "missing {i}");
        }
        assert!(t.get(b"absent").is_none());
    }

    #[test]
    fn splits_keep_order() {
        let mut t = MerkleBTree::new();
        for i in (0..200).rev() {
            t.insert(key(i), b"v".to_vec());
        }
        assert!(t.depth() > 1, "insertions must split");
        let all = t.range(&key(0), &key(199));
        assert_eq!(all.len(), 200);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "range output sorted");
        }
    }

    #[test]
    fn update_changes_root() {
        let mut t = MerkleBTree::new();
        for i in 0..100 {
            t.insert(key(i), b"v".to_vec());
        }
        let r1 = t.root();
        t.insert(key(50), b"changed".to_vec());
        assert_ne!(t.root(), r1);
        assert_eq!(t.len(), 100, "update is in place");
    }

    #[test]
    fn identical_content_identical_root() {
        let build = |order: &[u32]| {
            let mut t = MerkleBTree::new();
            for &i in order {
                t.insert(key(i), format!("v{i}").into_bytes());
            }
            t
        };
        // Same final content via different insertion orders can give
        // different tree shapes; roots may differ (structure-dependent).
        // But the same order twice must agree.
        let a = build(&[3, 1, 2]);
        let b = build(&[3, 1, 2]);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn update_cost_grows_with_depth() {
        let mut t = MerkleBTree::new();
        let shallow = t.insert(key(0), b"v".to_vec());
        for i in 1..2000 {
            t.insert(key(i), b"v".to_vec());
        }
        let deep = t.insert(key(1999), b"v2".to_vec());
        assert!(
            deep.nodes_rewritten > shallow.nodes_rewritten,
            "deep trees rewrite more nodes per update: {deep:?} vs {shallow:?}"
        );
        assert_eq!(deep.depth, t.depth());
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut t = MerkleBTree::new();
        for i in 0..50 {
            t.insert(key(i), b"v".to_vec());
        }
        let got = t.range(&key(10), &key(20));
        assert_eq!(got.len(), 11);
        assert_eq!(got[0].0, key(10));
        assert_eq!(got[10].0, key(20));
    }
}

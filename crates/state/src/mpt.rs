//! A copy-on-write (structurally-shared) hexary Merkle Patricia Trie.
//!
//! The paper validates deterministic serializability by comparing the Merkle
//! roots produced by parallel and serial execution (RQ1). This module
//! provides that oracle: a from-scratch MPT following Ethereum's node
//! encoding (hex-prefix paths, RLP node serialization, the `< 32` byte
//! inline-node rule and Keccak-256 hashing), so the canonical Ethereum trie
//! test vectors hold.
//!
//! Nodes are held through [`Arc`], and an update takes every node on its
//! root-to-leaf path through [`Arc::make_mut`]: a node this trie alone holds
//! is changed where it stands (a value replaced in its leaf, a child slot
//! overwritten in its branch), and a node with another holder — a clone of
//! the trie, or a thread still hashing the previous version — is copied
//! first, children shared, and the copy changed. So a clone is O(1) and
//! never sees a later write, the first write after a clone copies the paths
//! it touches, and every write after that to the same paths copies nothing.
//! New nodes are built only where the shape changes (a leaf or an extension
//! splits, a branch collapses).
//!
//! A node is one allocation: a path of up to 64 nibbles and a value of up to
//! 40 bytes live inline in it (longer ones spill to the heap), and the only
//! thing it caches is its *reference* — what its parent embeds: the node's
//! own RLP when shorter than 32 bytes, else `0xa0 ‖ keccak(RLP)` — held
//! inline as well. An update clears the reference of every node it passes,
//! and reaches a node only through a parent it has just made its own and
//! cleared, so a set reference proves the whole subtree beneath it clean.
//! The full RLP of a node is never stored: hashing appends it to one scratch
//! buffer per hashing thread, takes the reference and pops it again, so
//! computing a root allocates that buffer and nothing per node.
//!
//! [`index_root`] computes the root of an index-keyed list (a block's
//! transactions or receipts) through the same node encoder without building
//! a trie at all.
//!
//! # Examples
//!
//! ```
//! use dmvcc_state::Mpt;
//!
//! let mut trie = Mpt::new();
//! trie.insert(b"dog", b"puppy".to_vec());
//! let root_one = trie.root();
//! trie.insert(b"doge", b"coin".to_vec());
//! assert_ne!(trie.root(), root_one);
//! trie.remove(b"doge");
//! assert_eq!(trie.root(), root_one);
//! ```

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use dmvcc_primitives::rlp::{close_bytes, close_list, put_bytes, put_uint};
use dmvcc_primitives::{keccak256, H256};

/// Root hash of the empty trie: `keccak256(rlp(""))`.
pub fn empty_root() -> H256 {
    keccak256(&[0x80])
}

/// A byte string held inline up to `N` bytes and on the heap beyond.
#[derive(Debug, Clone)]
enum Small<const N: usize> {
    Inline { len: u8, bytes: [u8; N] },
    Heap(Vec<u8>),
}

/// A nibble path: every trie key of this repo is a 32-byte digest.
type Nibbles = Small<64>;
/// A stored value: `rlp(U256)` and `rlp(H256)` are at most 33 bytes.
type Value = Small<40>;

impl<const N: usize> Small<N> {
    /// `head ‖ tail`.
    fn concat(head: &[u8], tail: &[u8]) -> Self {
        let len = head.len() + tail.len();
        if len <= N {
            let mut bytes = [0u8; N];
            bytes[..head.len()].copy_from_slice(head);
            bytes[head.len()..len].copy_from_slice(tail);
            Small::Inline {
                len: len as u8,
                bytes,
            }
        } else {
            Small::Heap([head, tail].concat())
        }
    }

    fn from_vec(bytes: Vec<u8>) -> Self {
        if bytes.len() <= N {
            Self::concat(&bytes, &[])
        } else {
            Small::Heap(bytes)
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Small::Inline { len, bytes } => &bytes[..*len as usize],
            Small::Heap(bytes) => bytes,
        }
    }
}

/// Expands a key into nibbles (high nibble first).
fn to_nibbles(key: &[u8]) -> Nibbles {
    if key.len() * 2 <= 64 {
        let mut bytes = [0u8; 64];
        for (pair, &b) in bytes.chunks_exact_mut(2).zip(key) {
            pair[0] = b >> 4;
            pair[1] = b & 0x0f;
        }
        Small::Inline {
            len: (key.len() * 2) as u8,
            bytes,
        }
    } else {
        Small::Heap(key.iter().flat_map(|&b| [b >> 4, b & 0x0f]).collect())
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        path: Nibbles,
        value: Value,
    },
    Extension {
        path: Nibbles, // never empty
        child: Arc<Node>,
    },
    Branch {
        children: [Option<Arc<Node>>; 16],
        value: Option<Value>,
    },
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    /// Cached reference as seen from the parent. Empty on a fresh node and
    /// emptied by [`unshared`], so a set cache proves the whole subtree
    /// beneath it is clean.
    reference: OnceLock<NodeRef>,
}

/// The only copy of a node there is: [`Arc::make_mut`] takes it when an
/// update meets a node something else holds too. The children are shared,
/// and the reference is left empty because the copy is about to change.
impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            kind: self.kind.clone(),
            reference: OnceLock::new(),
        }
    }
}

/// The node in `slot` for an update to change where it stands: copied first
/// if `slot` is not its only holder, and without its cached reference.
fn unshared(slot: &mut Arc<Node>) -> &mut NodeKind {
    let node = Arc::make_mut(slot);
    node.reference.take();
    &mut node.kind
}

impl Node {
    fn new(kind: NodeKind) -> Arc<Node> {
        Arc::new(Node {
            kind,
            reference: OnceLock::new(),
        })
    }

    fn leaf(path: &[u8], value: Value) -> Arc<Node> {
        Node::new(NodeKind::Leaf {
            path: Nibbles::concat(path, &[]),
            value,
        })
    }

    fn extension(path: &[u8], child: Arc<Node>) -> Arc<Node> {
        Node::new(NodeKind::Extension {
            path: Nibbles::concat(path, &[]),
            child,
        })
    }

    /// This node's reference, hashing whatever beneath it is dirty. `buf`
    /// is the hashing thread's scratch stack: left as it was found.
    fn reference(&self, buf: &mut Vec<u8>) -> &NodeRef {
        self.reference.get_or_init(|| match &self.kind {
            NodeKind::Leaf { path, value } => leaf_ref(buf, path.as_slice(), value.as_slice()),
            NodeKind::Extension { path, child } => {
                let child = *child.reference(buf);
                extension_ref(buf, path.as_slice(), &child)
            }
            NodeKind::Branch { children, value } => branch_ref(
                buf,
                |nibble, buf| children[nibble].as_ref().map(|c| *c.reference(buf)),
                value.as_ref().map_or(&[], Value::as_slice),
            ),
        })
    }
}

/// What a parent embeds for a child, and what a root hashes to: the node's
/// own RLP when that is shorter than 32 bytes, else `0xa0 ‖ keccak(RLP)`.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    len: u8,
    bytes: [u8; 33],
}

impl NodeRef {
    /// Closes the node whose RLP list payload is `buf[start..]`, takes its
    /// reference and pops it off `buf`.
    fn close(buf: &mut Vec<u8>, start: usize) -> NodeRef {
        close_list(buf, start);
        let rlp = &buf[start..];
        let mut bytes = [0u8; 33];
        let len = if rlp.len() < 32 {
            bytes[..rlp.len()].copy_from_slice(rlp);
            rlp.len()
        } else {
            bytes[0] = 0xa0;
            bytes[1..].copy_from_slice(keccak256(rlp).as_bytes());
            33
        };
        buf.truncate(start);
        NodeRef {
            len: len as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// The node's hash — what [`Mpt::root`] returns for the root node. An
    /// inline reference is the node's RLP itself (under 32 bytes), so a
    /// 33-byte one can only be `0xa0 ‖ hash`.
    fn hash(&self) -> H256 {
        match self.bytes {
            [0xa0, hash @ ..] if self.len == 33 => H256(hash),
            _ => keccak256(self.as_slice()),
        }
    }
}

/// Appends the hex-prefix encoding of a nibble path, as an RLP string.
fn put_hex_prefix(buf: &mut Vec<u8>, nibbles: &[u8], leaf: bool) {
    let start = buf.len();
    let flag: u8 = if leaf { 2 } else { 0 };
    let even = if nibbles.len() % 2 == 1 {
        buf.push(((flag | 1) << 4) | nibbles[0]);
        &nibbles[1..]
    } else {
        buf.push(flag << 4);
        nibbles
    };
    buf.extend(even.chunks_exact(2).map(|pair| (pair[0] << 4) | pair[1]));
    close_bytes(buf, start);
}

fn leaf_ref(buf: &mut Vec<u8>, path: &[u8], value: &[u8]) -> NodeRef {
    let start = buf.len();
    put_hex_prefix(buf, path, true);
    put_bytes(buf, value);
    NodeRef::close(buf, start)
}

fn extension_ref(buf: &mut Vec<u8>, path: &[u8], child: &NodeRef) -> NodeRef {
    let start = buf.len();
    put_hex_prefix(buf, path, false);
    buf.extend_from_slice(child.as_slice());
    NodeRef::close(buf, start)
}

/// `child(nibble, buf)` yields the reference of the child in that slot; it
/// may use `buf` beyond its current length as scratch while the branch's
/// own payload sits below.
fn branch_ref(
    buf: &mut Vec<u8>,
    mut child: impl FnMut(usize, &mut Vec<u8>) -> Option<NodeRef>,
    value: &[u8],
) -> NodeRef {
    let start = buf.len();
    for nibble in 0..16 {
        match child(nibble, buf) {
            Some(reference) => buf.extend_from_slice(reference.as_slice()),
            None => buf.push(0x80),
        }
    }
    put_bytes(buf, value);
    NodeRef::close(buf, start)
}

/// A hashing thread's scratch buffer: a root-to-leaf stack of partly
/// written branch payloads (at most 532 bytes each) fits without growing.
fn scratch() -> Vec<u8> {
    Vec::with_capacity(4096)
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A Merkle Patricia Trie mapping byte keys to byte values.
///
/// Cloning is O(1): clones share structure and diverge copy-on-write as they
/// are updated — exactly what per-block state versioning needs — and a trie
/// with no clone alive is updated in place.
#[derive(Debug, Clone, Default)]
pub struct Mpt {
    root: Option<Arc<Node>>,
}

impl Mpt {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Mpt { root: None }
    }

    /// Returns the Keccak-256 root commitment of the current contents.
    pub fn root(&self) -> H256 {
        match &self.root {
            Some(node) => node.reference(&mut scratch()).hash(),
            None => empty_root(),
        }
    }

    /// Returns `true` if the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Inserts or replaces `key → value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is empty; encode absence by [`Mpt::remove`]
    /// instead (the MPT format cannot distinguish an empty value from a
    /// missing key).
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        assert!(!value.is_empty(), "Mpt::insert: empty value, use remove");
        let nibbles = to_nibbles(key);
        let value = Value::from_vec(value);
        match &mut self.root {
            Some(root) => insert_at(root, nibbles.as_slice(), value),
            None => self.root = Some(Node::leaf(nibbles.as_slice(), value)),
        }
    }

    /// Removes `key` if present. Returns `true` if an entry was removed.
    ///
    /// Looks before it changes anything: an absent key leaves every cached
    /// reference set and every shared node shared.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        if self.get_ref(key).is_none() {
            return false;
        }
        let root = self.root.as_mut().expect("the key was found");
        if remove_at(root, to_nibbles(key).as_slice()) {
            self.root = None;
        }
        true
    }

    /// Looks up the value stored at `key`, copying it out.
    ///
    /// Prefer [`Mpt::get_ref`] on hot paths — it borrows the value from
    /// the shared node instead of allocating a fresh `Vec` per read.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_ref(key).map(<[u8]>::to_vec)
    }

    /// Looks up the value stored at `key`, borrowing it from the trie.
    ///
    /// Allocation-free for keys up to 32 bytes (every trie key in this
    /// repo is a 32-byte Keccak digest): the nibble expansion lives on the
    /// stack and the returned slice aliases the `Arc`-shared node, so an
    /// oracle-path SLOAD compare costs zero heap traffic.
    pub fn get_ref(&self, key: &[u8]) -> Option<&[u8]> {
        let nibbles = to_nibbles(key);
        let mut node = self.root.as_deref()?;
        let mut path = nibbles.as_slice();
        loop {
            match &node.kind {
                NodeKind::Leaf { path: p, value } => {
                    return (p.as_slice() == path).then(|| value.as_slice());
                }
                NodeKind::Extension { path: p, child } => {
                    path = path.strip_prefix(p.as_slice())?;
                    node = child;
                }
                NodeKind::Branch { children, value } => {
                    let Some((&nibble, rest)) = path.split_first() else {
                        return value.as_ref().map(Value::as_slice);
                    };
                    node = children[nibble as usize].as_deref()?;
                    path = rest;
                }
            }
        }
    }

    /// The top-level branch node (descending through a root extension),
    /// if any: the fanout that parallel hashing partitions across workers.
    fn top_branch(&self) -> Option<&Arc<Node>> {
        let mut node = self.root.as_ref()?;
        loop {
            match &node.kind {
                NodeKind::Branch { .. } => return Some(node),
                NodeKind::Extension { child, .. } => node = child,
                NodeKind::Leaf { .. } => return None,
            }
        }
    }

    /// The children of the top-level branch whose references are not
    /// cached yet (the root itself when there is no branch).
    fn dirty_top(&self) -> Vec<&Arc<Node>> {
        let top = match self.top_branch().map(|branch| &branch.kind) {
            Some(NodeKind::Branch { children, .. }) => children.as_slice(),
            _ => std::slice::from_ref(&self.root),
        };
        top.iter()
            .flatten()
            .filter(|node| node.reference.get().is_none())
            .collect()
    }

    /// Number of top-level subtrees whose hashes must be recomputed for
    /// the next [`Mpt::root`] call.
    ///
    /// An update empties the `OnceLock` cache of every node on its path
    /// (copies and new nodes start empty), so a cached reference proves
    /// the entire subtree beneath it is clean.
    pub fn dirty_top_subtrees(&self) -> usize {
        self.dirty_top().len()
    }

    /// Returns `true` if the root hash is fully cached (a [`Mpt::root`]
    /// call would be a pure cache read).
    pub fn root_cached(&self) -> bool {
        self.root
            .as_ref()
            .is_none_or(|node| node.reference.get().is_some())
    }

    /// Computes the root, hashing dirty top-level subtrees on up to
    /// `threads` worker threads.
    ///
    /// Identical to [`Mpt::root`] by construction — both force the same
    /// thread-safe `OnceLock` caches, only the forcing order differs.
    /// Keccak-derived keys spread uniformly over the 16-way fanout, so
    /// partitioning the dirty children of the top branch balances well.
    /// Serial fallback when `threads <= 1` or fewer than two subtrees are
    /// dirty.
    pub fn root_parallel(&self, threads: usize) -> H256 {
        if threads > 1 {
            let dirty = self.dirty_top();
            if dirty.len() > 1 {
                let per_worker = dirty.len().div_ceil(threads.min(dirty.len()));
                std::thread::scope(|scope| {
                    for chunk in dirty.chunks(per_worker) {
                        scope.spawn(move || {
                            let mut buf = scratch();
                            for child in chunk {
                                child.reference(&mut buf);
                            }
                        });
                    }
                });
            }
        }
        self.root()
    }
}

/// Stores `value` at `path` beneath the node in `slot`.
fn insert_at(slot: &mut Arc<Node>, path: &[u8], value: Value) {
    let split = match unshared(slot) {
        NodeKind::Leaf {
            path: leaf_path,
            value: leaf_value,
        } => {
            let leaf_path = leaf_path.as_slice();
            if leaf_path == path {
                *leaf_value = value;
                return;
            }
            let common = common_prefix_len(leaf_path, path);
            let branch = make_branch(
                &leaf_path[common..],
                leaf_value.clone(),
                &path[common..],
                value,
            );
            wrap_extension(&path[..common], branch)
        }
        NodeKind::Extension {
            path: ext_path,
            child,
        } => {
            let ext_path = ext_path.as_slice();
            let common = common_prefix_len(ext_path, path);
            if common == ext_path.len() {
                return insert_at(child, &path[common..], value);
            }
            // Split the extension at the divergence point.
            let mut children: [Option<Arc<Node>>; 16] = Default::default();
            children[ext_path[common] as usize] =
                Some(wrap_extension(&ext_path[common + 1..], child.clone()));
            let mut branch_value = None;
            match path[common..].split_first() {
                Some((&nibble, rest)) => children[nibble as usize] = Some(Node::leaf(rest, value)),
                None => branch_value = Some(value),
            }
            let branch = Node::new(NodeKind::Branch {
                children,
                value: branch_value,
            });
            wrap_extension(&path[..common], branch)
        }
        NodeKind::Branch {
            children,
            value: branch_value,
        } => {
            match path.split_first() {
                Some((&nibble, rest)) => match &mut children[nibble as usize] {
                    Some(child) => insert_at(child, rest, value),
                    empty => *empty = Some(Node::leaf(rest, value)),
                },
                None => *branch_value = Some(value),
            }
            return;
        }
    };
    *slot = split;
}

/// Builds a branch holding two divergent suffixes (at least one non-empty).
fn make_branch(a_path: &[u8], a_value: Value, b_path: &[u8], b_value: Value) -> Arc<Node> {
    let mut children: [Option<Arc<Node>>; 16] = Default::default();
    let mut value = None;
    debug_assert!(
        !(a_path.is_empty() && b_path.is_empty()),
        "identical paths must be handled by the caller"
    );
    for (path, leaf_value) in [(a_path, a_value), (b_path, b_value)] {
        match path.split_first() {
            Some((&nibble, rest)) => children[nibble as usize] = Some(Node::leaf(rest, leaf_value)),
            None => value = Some(leaf_value),
        }
    }
    Node::new(NodeKind::Branch { children, value })
}

fn wrap_extension(prefix: &[u8], node: Arc<Node>) -> Arc<Node> {
    if prefix.is_empty() {
        node
    } else {
        Node::extension(prefix, node)
    }
}

/// Removes `path`, which is present, from beneath the node in `slot`.
/// Returns `true` if the node was the key's own leaf: the caller unlinks it.
fn remove_at(slot: &mut Arc<Node>, path: &[u8]) -> bool {
    let merged = match unshared(slot) {
        NodeKind::Leaf { .. } => return true,
        NodeKind::Extension {
            path: ext_path,
            child,
        } => {
            // The child is a branch, which a removal never empties: it
            // stays, or has collapsed into a node this extension absorbs.
            let emptied = remove_at(child, &path[ext_path.as_slice().len()..]);
            debug_assert!(!emptied, "an extension's child is a branch");
            if matches!(child.kind, NodeKind::Branch { .. }) {
                return false;
            }
            merge_extension(ext_path.as_slice(), child)
        }
        NodeKind::Branch { children, value } => {
            match path.split_first() {
                Some((&nibble, rest)) => {
                    let child = &mut children[nibble as usize];
                    if remove_at(child.as_mut().expect("the key was found"), rest) {
                        *child = None;
                    }
                }
                None => *value = None,
            }
            // Canonical form: a branch left with one child and no value
            // collapses into that child, one with only a value into a leaf.
            let mut populated = (0..16).filter(|&i| children[i].is_some());
            match (populated.next(), populated.next(), value.as_ref()) {
                (None, _, Some(value)) => Node::leaf(&[], value.clone()),
                (Some(nibble), None, None) => {
                    let child = children[nibble].as_ref().expect("populated index");
                    merge_extension(&[nibble as u8], child)
                }
                _ => return false,
            }
        }
    };
    *slot = merged;
    false
}

/// `child` with `prefix` put before its path: chained extensions and leaves
/// merge, so the canonical-form invariants (no extension-of-extension, no
/// extension-of-leaf) hold after a removal.
fn merge_extension(prefix: &[u8], child: &Arc<Node>) -> Arc<Node> {
    match &child.kind {
        NodeKind::Leaf { path, value } => Node::new(NodeKind::Leaf {
            path: Nibbles::concat(prefix, path.as_slice()),
            value: value.clone(),
        }),
        NodeKind::Extension { path, child } => Node::new(NodeKind::Extension {
            path: Nibbles::concat(prefix, path.as_slice()),
            child: child.clone(),
        }),
        NodeKind::Branch { .. } => Node::extension(prefix, child.clone()),
    }
}

/// One `(rlp(index), value)` pair of [`index_root`], as ranges into its two
/// flat buffers.
struct Item {
    key: Range<usize>,
    value: Range<usize>,
}

/// The key nibbles and values of an index-keyed list, sorted by key.
struct IndexTrie {
    keys: Vec<u8>,
    values: Vec<u8>,
}

impl IndexTrie {
    fn key(&self, item: &Item) -> &[u8] {
        &self.keys[item.key.clone()]
    }

    /// The reference of the node that holds `items` (sorted, at least one,
    /// all sharing their first `depth` nibbles), as the trie built by
    /// inserting them would have it.
    fn reference(&self, items: &[Item], depth: usize, buf: &mut Vec<u8>) -> NodeRef {
        let first = &self.key(&items[0])[depth..];
        if let [only] = items {
            return leaf_ref(buf, first, &self.values[only.value.clone()]);
        }
        let last = &self.key(&items[items.len() - 1])[depth..];
        let common = common_prefix_len(first, last);
        if common > 0 {
            let child = self.reference(items, depth + common, buf);
            return extension_ref(buf, &first[..common], &child);
        }
        // RLP is prefix-free: no key ends here, so the branch holds no
        // value and every item has a nibble at `depth`.
        let mut rest = items;
        branch_ref(
            buf,
            |nibble, buf| {
                let run = rest
                    .iter()
                    .take_while(|item| usize::from(self.key(item)[depth]) == nibble)
                    .count();
                let (head, tail) = rest.split_at(run);
                rest = tail;
                (run > 0).then(|| self.reference(head, depth + 1, buf))
            },
            &[],
        )
    }
}

/// The root of the trie mapping `rlp(i) → value i` for `i` in `0..count` —
/// Ethereum's transactions-root / receipts-root layout — computed without
/// building the trie.
///
/// `value(i, out)` appends value `i` (non-empty) to `out`. Keys and values
/// are laid out in two flat buffers in key order and the node references
/// are computed bottom-up over slices of them (one item → leaf; a prefix
/// common to the first and last → extension; else a 16-way split by
/// nibble), through the node encoder [`Mpt`] hashes with. The result equals
/// `Mpt::root` after `insert(rlp(i), value i)` for every `i`; the call
/// allocates its handful of buffers and nothing per item.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::rlp::encode_uint;
/// use dmvcc_state::{index_root, Mpt};
///
/// let values = [b"zero".to_vec(), b"one".to_vec(), b"two".to_vec()];
/// let mut trie = Mpt::new();
/// for (i, value) in values.iter().enumerate() {
///     trie.insert(&encode_uint(i as u64), value.clone());
/// }
/// let root = index_root(values.len(), |i, out| out.extend_from_slice(&values[i]));
/// assert_eq!(root, trie.root());
/// ```
pub fn index_root(count: usize, mut value: impl FnMut(usize, &mut Vec<u8>)) -> H256 {
    if count == 0 {
        return empty_root();
    }
    // Byte order of the keys: rlp(1..=0x7f) is the byte itself, rlp(0) is
    // 0x80, and from 0x80 up a length-tagged big-endian form that sorts
    // numerically.
    let by_key = (1..count.min(0x80)).chain(0..1).chain(0x80..count);
    let mut trie = IndexTrie {
        keys: Vec::with_capacity(count * 6),
        values: Vec::new(),
    };
    let mut items = Vec::with_capacity(count);
    let mut key = Vec::with_capacity(9);
    for i in by_key {
        key.clear();
        put_uint(&mut key, i as u64);
        let key_start = trie.keys.len();
        trie.keys
            .extend(key.iter().flat_map(|&b| [b >> 4, b & 0x0f]));
        let value_start = trie.values.len();
        value(i, &mut trie.values);
        items.push(Item {
            key: key_start..trie.keys.len(),
            value: value_start..trie.values.len(),
        });
    }
    trie.reference(&items, 0, &mut scratch()).hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn root_hex(trie: &Mpt) -> String {
        format!("{}", trie.root())
    }

    #[test]
    fn empty_trie_root_matches_ethereum() {
        let trie = Mpt::new();
        assert_eq!(
            root_hex(&trie),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
        assert!(trie.is_empty());
    }

    #[test]
    fn canonical_ethereum_vector_dogs_and_horse() {
        // From the ethereum/tests trietest suite ("branchingTests"/"dogs").
        let mut trie = Mpt::new();
        trie.insert(b"do", b"verb".to_vec());
        trie.insert(b"dog", b"puppy".to_vec());
        trie.insert(b"doge", b"coin".to_vec());
        trie.insert(b"horse", b"stallion".to_vec());
        assert_eq!(
            root_hex(&trie),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        );
    }

    #[test]
    fn canonical_ethereum_vector_single_pair() {
        // trietest "singleItem": {"A": "aaaa..a" (50 chars)}
        let mut trie = Mpt::new();
        trie.insert(b"A", vec![b'a'; 50]);
        assert_eq!(
            root_hex(&trie),
            "0xd23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab"
        );
    }

    #[test]
    fn insert_get_round_trip() {
        let mut trie = Mpt::new();
        trie.insert(b"alpha", b"1".to_vec());
        trie.insert(b"beta", b"2".to_vec());
        trie.insert(b"alphabet", b"3".to_vec());
        assert_eq!(trie.get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(trie.get(b"beta"), Some(b"2".to_vec()));
        assert_eq!(trie.get(b"alphabet"), Some(b"3".to_vec()));
        assert_eq!(trie.get(b"alph"), None);
        assert_eq!(trie.get(b"gamma"), None);
    }

    #[test]
    fn overwrite_changes_root_and_value() {
        let mut trie = Mpt::new();
        trie.insert(b"key", b"one".to_vec());
        let r1 = trie.root();
        trie.insert(b"key", b"two".to_vec());
        assert_ne!(trie.root(), r1);
        assert_eq!(trie.get(b"key"), Some(b"two".to_vec()));
    }

    #[test]
    fn insertion_order_independent() {
        let pairs: Vec<(&[u8], &[u8])> = vec![
            (b"do", b"verb"),
            (b"dog", b"puppy"),
            (b"doge", b"coin"),
            (b"horse", b"stallion"),
            (b"dodge", b"car"),
        ];
        let mut forward = Mpt::new();
        for (k, v) in &pairs {
            forward.insert(k, v.to_vec());
        }
        let mut backward = Mpt::new();
        for (k, v) in pairs.iter().rev() {
            backward.insert(k, v.to_vec());
        }
        assert_eq!(forward.root(), backward.root());
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut trie = Mpt::new();
        trie.insert(b"do", b"verb".to_vec());
        trie.insert(b"dog", b"puppy".to_vec());
        let before = trie.root();
        trie.insert(b"doge", b"coin".to_vec());
        assert!(trie.remove(b"doge"));
        assert_eq!(trie.root(), before);
        assert_eq!(trie.get(b"doge"), None);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut trie = Mpt::new();
        trie.insert(b"dog", b"puppy".to_vec());
        let root = trie.root();
        assert!(!trie.remove(b"cat"));
        assert!(!trie.remove(b"do"));
        assert!(!trie.remove(b"doge"));
        assert_eq!(trie.root(), root);
    }

    #[test]
    fn remove_all_returns_to_empty() {
        let mut trie = Mpt::new();
        let keys: Vec<Vec<u8>> = (0u32..50).map(|i| i.to_be_bytes().to_vec()).collect();
        for k in &keys {
            trie.insert(k, b"value".to_vec());
        }
        for k in &keys {
            assert!(trie.remove(k), "failed to remove {:?}", k);
        }
        assert_eq!(trie.root(), empty_root());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Mpt::new();
        a.insert(b"x", b"1".to_vec());
        let b = a.clone();
        a.insert(b"y", b"2".to_vec());
        assert_eq!(b.get(b"y"), None);
        assert_eq!(a.get(b"y"), Some(b"2".to_vec()));
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn get_ref_matches_get_without_copying() {
        let mut trie = Mpt::new();
        trie.insert(b"alpha", b"1".to_vec());
        trie.insert(b"beta", b"2".to_vec());
        trie.insert(b"alphabet", b"3".to_vec());
        for key in [b"alpha".as_slice(), b"beta", b"alphabet", b"alph", b"zz"] {
            assert_eq!(trie.get_ref(key).map(<[u8]>::to_vec), trie.get(key));
        }
        // Oversized keys take the heap spill path.
        let long = vec![7u8; 48];
        trie.insert(&long, b"long".to_vec());
        assert_eq!(trie.get_ref(&long), Some(b"long".as_slice()));
    }

    #[test]
    fn dirty_tracking_follows_mutation_and_hashing() {
        let mut trie = Mpt::new();
        for i in 0u32..64 {
            trie.insert(keccak256(&i.to_be_bytes()).as_bytes(), vec![1, 2, 3]);
        }
        assert!(!trie.root_cached());
        assert!(trie.dirty_top_subtrees() > 0);
        trie.root();
        assert!(trie.root_cached());
        assert_eq!(trie.dirty_top_subtrees(), 0);
        // One more insert dirties exactly the touched path's subtree.
        trie.insert(keccak256(&99u32.to_be_bytes()).as_bytes(), vec![9]);
        assert!(!trie.root_cached());
        assert_eq!(trie.dirty_top_subtrees(), 1);
    }

    #[test]
    fn parallel_root_equals_serial_root() {
        // Two independently-built tries with identical contents: one
        // hashed serially, one in parallel.
        for threads in [1usize, 2, 4, 8] {
            let mut serial = Mpt::new();
            let mut parallel = Mpt::new();
            for i in 0u32..300 {
                let key = keccak256(&i.to_be_bytes());
                let value = i.to_be_bytes().to_vec();
                serial.insert(key.as_bytes(), value.clone());
                parallel.insert(key.as_bytes(), value);
            }
            assert_eq!(serial.root(), parallel.root_parallel(threads));
            // Incremental re-dirtying hashes identically too.
            let key = keccak256(&1234u32.to_be_bytes());
            serial.insert(key.as_bytes(), b"x".to_vec());
            parallel.insert(key.as_bytes(), b"x".to_vec());
            assert_eq!(serial.root(), parallel.root_parallel(threads));
        }
    }

    #[test]
    fn parallel_root_handles_small_tries() {
        let trie = Mpt::new();
        assert_eq!(trie.root_parallel(8), empty_root());
        let mut one = Mpt::new();
        one.insert(b"k", b"v".to_vec());
        assert_eq!(one.root_parallel(8), one.root());
    }

    #[test]
    fn matches_reference_model_on_random_ops() {
        // Differential test against a BTreeMap model with a deterministic
        // pseudo-random operation stream.
        let mut trie = Mpt::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..2000 {
            let r = next();
            let key = (r % 200).to_be_bytes().to_vec();
            if r % 3 == 0 {
                trie.remove(&key);
                model.remove(&key);
            } else {
                let value = (r % 1000).to_be_bytes().to_vec();
                trie.insert(&key, value.clone());
                model.insert(key, value);
            }
        }
        for (k, v) in &model {
            assert_eq!(trie.get(k), Some(v.clone()));
        }
        // Rebuild from the model and compare roots: proves the incremental
        // updates reached the canonical form.
        let mut rebuilt = Mpt::new();
        for (k, v) in &model {
            rebuilt.insert(k, v.clone());
        }
        assert_eq!(trie.root(), rebuilt.root());
    }
}

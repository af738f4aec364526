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
//! root-to-leaf path for its own: a node this trie alone holds is changed
//! where it stands (a value replaced in its leaf, a child replaced in its
//! branch), and a node with another holder — a clone of the trie, or a
//! thread still hashing the previous version — is copied first, children
//! shared, and the copy changed. So a clone is O(1) and never sees a later
//! write, the first write after a clone copies the paths it touches, and
//! every write after that to the same paths copies nothing. New nodes are
//! built only where the shape changes: a leaf or an extension splits, a
//! branch gains or loses a child, a branch collapses.
//!
//! Each kind of node has its own size, and a node is one allocation. A leaf
//! holds its path and its value in one buffer, an extension its path and its
//! child; a path is packed two nibbles a byte, and up to 69 bytes of path and
//! value (a leaf's) or 37 of path (an extension's) live inline, longer ones
//! on the heap. A branch holds exactly the children it has, in a slice
//! allocated with it, so a branch that gains or loses a child is rebuilt
//! one wider or narrower; the 16-bit mask of their nibbles is held by its
//! parent, beside the pointer to it, so that a walk down the trie knows
//! where the next child lies before the branch is loaded. A parent holds
//! each child in 24 bytes. The only thing a node caches is its *reference*
//! — what its parent embeds: the node's own RLP when shorter than 32 bytes,
//! else `0xa0 ‖ keccak(RLP)` — held inline as well. An update clears the
//! reference of every node it passes, and reaches a node only through a
//! parent it has just made its own and cleared, so a set reference proves
//! the whole subtree beneath it clean. The full RLP of a node is never
//! stored. A dirty subtree is hashed level by level from the bottom: the
//! nodes of a level do not depend on each other, so a hashing thread encodes
//! a few hundred of them into its one buffer and hands the encodings to
//! [`keccak256_x4`] four at a time, those of as many rate blocks together.
//! Computing a root allocates that thread's handful of buffers and nothing
//! per node.
//!
//! [`index_root`] computes the root of an index-keyed list (a block's
//! transactions or receipts) through the same node encoder without building
//! a trie at all, its subtrees shared out to the hashing threads; there a
//! branch hashes its children four at a time.
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
use dmvcc_primitives::workers::{on_workers, Shares};
use dmvcc_primitives::{keccak256, keccak256_x4, H256};

use crate::workers::{default_hash_threads, workers_for};

/// Root hash of the empty trie: `keccak256(rlp(""))`.
pub fn empty_root() -> H256 {
    keccak256(&[0x80])
}

/// A run of nibbles inside packed bytes, high nibble first: nibble `i` of
/// the run is nibble `start + i` of `bytes`. A key is the run of all its
/// nibbles, and what is left of it below a node ends, as every path a node
/// holds does, at the end of a byte.
#[derive(Debug, Clone, Copy)]
struct Nibbles<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
}

impl<'a> Nibbles<'a> {
    /// Every nibble of `key`.
    fn of(key: &'a [u8]) -> Self {
        Nibbles {
            bytes: key,
            start: 0,
            len: 2 * key.len(),
        }
    }

    fn is_empty(self) -> bool {
        self.len == 0
    }

    fn at(self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        let at = self.start + i;
        self.bytes[at / 2] >> (4 * (1 - at % 2)) & 0x0f
    }

    /// The run without its first `n` nibbles.
    fn skip(self, n: usize) -> Self {
        debug_assert!(n <= self.len);
        let at = self.start + n;
        Nibbles {
            bytes: &self.bytes[at / 2..],
            start: at % 2,
            len: self.len - n,
        }
    }

    /// The first `n` nibbles of the run.
    fn take(self, n: usize) -> Self {
        debug_assert!(n <= self.len);
        Nibbles { len: n, ..self }
    }

    fn split_first(self) -> Option<(u8, Self)> {
        (!self.is_empty()).then(|| (self.at(0), self.skip(1)))
    }

    /// How many nibbles the two runs share from their first. Runs that
    /// start at the same half of a byte — a key and the path of a leaf it
    /// reaches — are compared a byte at a time.
    fn common_prefix_len(self, other: Nibbles) -> usize {
        let max = self.len.min(other.len);
        let mut same = 0;
        if self.start == other.start {
            if self.start == 1 {
                if max == 0 || self.at(0) != other.at(0) {
                    return 0;
                }
                same = 1;
            }
            let at = (self.start + same) / 2;
            let whole = (max - same) / 2;
            let (a, b) = (&self.bytes[at..at + whole], &other.bytes[at..at + whole]);
            same += 2 * a.iter().zip(b).take_while(|(x, y)| x == y).count();
        }
        same + (same..max)
            .take_while(|&i| self.at(i) == other.at(i))
            .count()
    }

    /// The run after `prefix`, if it starts with it.
    fn strip_prefix(self, prefix: Nibbles) -> Option<Self> {
        (self.common_prefix_len(prefix) == prefix.len).then(|| self.skip(prefix.len))
    }
}

impl PartialEq for Nibbles<'_> {
    /// Two runs that start at the same half of a byte and end at the end of
    /// one — a key below a leaf and the leaf's path — compare the half byte
    /// they may start with, then their bytes as slices.
    fn eq(&self, other: &Self) -> bool {
        let end = self.start + self.len;
        if self.len != other.len || self.start != other.start || end % 2 == 1 {
            return self.len == other.len && self.common_prefix_len(*other) == self.len;
        }
        let whole = self.start..end / 2;
        (self.start == 0 || self.at(0) == other.at(0))
            && self.bytes[whole.clone()] == other.bytes[whole]
    }
}

/// Sets nibble `at` of `out`, whose half byte there is zero.
fn set_nibble(out: &mut [u8], at: usize, nibble: u8) {
    out[at / 2] |= nibble << (4 * (1 - at % 2));
}

/// Writes `path` into the zeroed `out` from nibble `at` on, and returns the
/// nibble after it: a byte at a time where the two are at the same half of
/// a byte.
fn pack(out: &mut [u8], mut at: usize, path: Nibbles) -> usize {
    let mut i = 0;
    if at % 2 == path.start {
        if path.start == 1 && !path.is_empty() {
            set_nibble(out, at, path.at(0));
            (at, i) = (at + 1, 1);
        }
        let (to, from, whole) = (at / 2, (path.start + i) / 2, (path.len - i) / 2);
        out[to..to + whole].copy_from_slice(&path.bytes[from..from + whole]);
        (at, i) = (at + 2 * whole, i + 2 * whole);
    }
    for i in i..path.len {
        set_nibble(out, at, path.at(i));
        at += 1;
    }
    at
}

/// A nibble path and the bytes after it (a leaf's value; an extension has
/// none), the path packed two nibbles a byte so that it ends at the end of
/// a byte: inline up to `N` bytes in all, on the heap beyond.
#[derive(Debug)]
enum Packed<const N: usize> {
    Inline {
        nibbles: u8,
        len: u8,
        bytes: [u8; N],
    },
    Heap {
        nibbles: usize,
        bytes: Box<[u8]>,
    },
}

impl<const N: usize> Packed<N> {
    /// The paths of `parts` one after the other, then `tail`.
    fn new(parts: &[Nibbles], tail: &[u8]) -> Self {
        let nibbles: usize = parts.iter().map(|part| part.len).sum();
        let path_len = nibbles.div_ceil(2);
        let len = path_len + tail.len();
        let fill = |bytes: &mut [u8]| {
            let mut at = nibbles % 2;
            for &part in parts {
                at = pack(bytes, at, part);
            }
            bytes[path_len..len].copy_from_slice(tail);
        };
        if len <= N {
            let mut bytes = [0; N];
            fill(&mut bytes);
            Packed::Inline {
                nibbles: nibbles as u8,
                len: len as u8,
                bytes,
            }
        } else {
            let mut bytes = vec![0; len].into_boxed_slice();
            fill(&mut bytes);
            Packed::Heap { nibbles, bytes }
        }
    }

    /// The path and the bytes after it.
    fn parts(&self) -> (Nibbles<'_>, &[u8]) {
        let (nibbles, bytes) = match self {
            Packed::Inline {
                nibbles,
                len,
                bytes,
            } => (usize::from(*nibbles), &bytes[..usize::from(*len)]),
            Packed::Heap { nibbles, bytes } => (*nibbles, &bytes[..]),
        };
        let (path, tail) = bytes.split_at(nibbles.div_ceil(2));
        let path = Nibbles {
            bytes: path,
            start: nibbles % 2,
            len: nibbles,
        };
        (path, tail)
    }
}

/// A node of the trie, as its parent (or the trie, for the root) holds it.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Arc<Leaf>),
    Extension(Arc<Extension>),
    /// A branch, and which of its nibbles have a child: held here, beside
    /// the pointer, rather than in the branch, so that a walk down the trie
    /// knows where the next child lies before the branch is loaded.
    Branch(Mask, Arc<Branch>),
}

/// Which nibbles of a branch have a child: bit `n` for nibble `n`.
#[derive(Debug, Clone, Copy)]
struct Mask(u16);

impl Mask {
    /// The nibbles of the children in `slots`.
    fn of(slots: &[Option<Node>; 16]) -> Mask {
        let mut mask = Mask(0);
        for nibble in (0..16).filter(|&nibble| slots[usize::from(nibble)].is_some()) {
            mask = mask.with(nibble);
        }
        mask
    }

    fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    fn has(self, nibble: u8) -> bool {
        self.0 >> nibble & 1 == 1
    }

    /// How many children come before `nibble`'s: where in the branch's
    /// children it is, or would go. Counted by table, a byte at a time:
    /// baseline x86-64 has no population count instruction, and a walk
    /// down the trie waits for this at every branch.
    fn before(self, nibble: u8) -> usize {
        const ONES: [u8; 256] = {
            let mut ones = [0; 256];
            let mut byte = 0;
            while byte < 256 {
                ones[byte] = (byte as u8).count_ones() as u8;
                byte += 1;
            }
            ones
        };
        let [low, high] = (self.0 & ((1 << nibble) - 1)).to_le_bytes();
        usize::from(ONES[usize::from(low)] + ONES[usize::from(high)])
    }

    /// Where in the branch's children the child at `nibble` is, if it has
    /// one.
    fn slot(self, nibble: u8) -> Option<usize> {
        self.has(nibble).then(|| self.before(nibble))
    }

    fn with(self, nibble: u8) -> Mask {
        Mask(self.0 | 1 << nibble)
    }

    fn without(self, nibble: u8) -> Mask {
        Mask(self.0 & !(1 << nibble))
    }

    fn nibbles(self) -> impl Iterator<Item = u8> {
        (0..16).filter(move |&nibble| self.has(nibble))
    }
}

/// What is left of a key's path below its parent, and the key's value.
#[derive(Debug)]
struct Leaf {
    /// See [`Node::reference`].
    reference: OnceLock<NodeRef>,
    /// The path, then the value: a leaf of the state trie — 63 nibbles
    /// below the root and an `rlp(U256)` of up to 33 bytes — is held
    /// inline.
    body: Packed<69>,
}

/// A path that every key beneath shares, and the branch where they part.
#[derive(Debug)]
struct Extension {
    /// See [`Node::reference`].
    reference: OnceLock<NodeRef>,
    /// Never empty.
    path: Packed<37>,
    /// Always a branch.
    child: Node,
}

/// A branch sized by the children it has: built as a `BranchOf<[Node; N]>`
/// and held as a [`Branch`], one allocation either way. Which nibbles the
/// children are at, its parent holds ([`Node::Branch`]).
#[derive(Debug)]
struct BranchOf<C: ?Sized> {
    /// See [`Node::reference`].
    reference: OnceLock<NodeRef>,
    /// The value of a key that ends here — no key of the state trie does —
    /// held as the leaf of empty path that the branch collapses into when
    /// its children go.
    value: Option<Arc<Leaf>>,
    /// The children, in nibble order.
    children: C,
}

type Branch = BranchOf<[Node]>;

// What a node holds beside its reference cache (40 bytes on Linux), on a
// 64-bit host: a leaf 72 bytes, an extension 64 and a branch 8, plus 24 a
// child. A field added to a node fails the build here.
#[cfg(target_pointer_width = "64")]
const _: () = {
    let reference = size_of::<OnceLock<NodeRef>>();
    assert!(size_of::<Node>() == 24);
    assert!(size_of::<Leaf>() == reference + 72);
    assert!(size_of::<Extension>() == reference + 64);
    assert!(size_of::<BranchOf<[Node; 0]>>() == reference + 8);
    assert!(size_of::<BranchOf<[Node; 2]>>() == reference + 8 + 2 * 24);
};

impl Node {
    /// The node's reference as seen from its parent. Empty on a fresh node
    /// and emptied by whatever update passes the node, so a set cache
    /// proves the whole subtree beneath it is clean.
    fn reference(&self) -> &OnceLock<NodeRef> {
        match self {
            Node::Leaf(leaf) => &leaf.reference,
            Node::Extension(extension) => &extension.reference,
            Node::Branch(_, branch) => &branch.reference,
        }
    }

    /// Appends this node's closed RLP to `buf`. Every child's reference is
    /// set: whoever hashes a subtree hashes it from the bottom.
    fn put_rlp(&self, buf: &mut Vec<u8>) {
        fn hashed(child: &Node) -> &NodeRef {
            let reference = child.reference().get();
            reference.expect("a node is encoded after the level beneath it is hashed")
        }
        match self {
            Node::Leaf(leaf) => put_leaf(buf, leaf.path(), leaf.value()),
            Node::Extension(extension) => {
                put_extension(buf, extension.path(), hashed(&extension.child));
            }
            Node::Branch(mask, branch) => put_branch(
                buf,
                branch.slots(*mask).map(|child| child.map(hashed)),
                branch.value.as_deref().map_or(&[], Leaf::value),
            ),
        }
    }
}

impl Leaf {
    /// The leaf of the paths of `parts`, one after the other, and `value`.
    fn new(parts: &[Nibbles], value: &[u8]) -> Arc<Leaf> {
        Arc::new(Leaf {
            reference: OnceLock::new(),
            body: Packed::new(parts, value),
        })
    }

    fn path(&self) -> Nibbles<'_> {
        self.body.parts().0
    }

    fn value(&self) -> &[u8] {
        self.body.parts().1
    }
}

/// Whether `slot` is the only holder of its node. Nothing makes a `Weak`
/// of a node, and another holder can only be made from this one, which
/// the caller holds mutably: a count of one stays one.
fn unique<T: ?Sized>(slot: &Arc<T>) -> bool {
    Arc::strong_count(slot) == 1
}

impl Extension {
    /// The extension of the paths of `parts`, one after the other, over
    /// `child`.
    fn new(parts: &[Nibbles], child: Node) -> Arc<Extension> {
        Arc::new(Extension {
            reference: OnceLock::new(),
            path: Packed::new(parts, &[]),
            child,
        })
    }

    fn path(&self) -> Nibbles<'_> {
        self.path.parts().0
    }

    /// The extension in `slot` for an update to change where it stands:
    /// copied first, child shared, if `slot` is not its only holder, and
    /// without its cached reference.
    fn unshared(slot: &mut Arc<Extension>) -> &mut Extension {
        if !unique(slot) {
            *slot = Extension::new(&[slot.path()], slot.child.clone());
        }
        let extension = Arc::get_mut(slot).expect("a copy is its slot's alone");
        extension.reference.take();
        extension
    }
}

impl Branch {
    /// The branch of `count` children, allocated at its size.
    fn new(
        value: Option<Arc<Leaf>>,
        children: impl Iterator<Item = Node>,
        count: usize,
    ) -> Arc<Branch> {
        fn sized<const N: usize>(
            value: Option<Arc<Leaf>>,
            mut children: impl Iterator<Item = Node>,
        ) -> Arc<Branch> {
            let children: [Node; N] =
                std::array::from_fn(|_| children.next().expect("as many children as the count"));
            Arc::new(BranchOf {
                reference: OnceLock::new(),
                value,
                children,
            })
        }
        macro_rules! by_count {
            ($($count:literal)*) => {
                match count {
                    $($count => sized::<$count>(value, children),)*
                    _ => unreachable!("a branch has one to sixteen children"),
                }
            };
        }
        by_count!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }

    /// The node of the branch with a child at each nibble of `mask` —
    /// `children`, in nibble order.
    fn node(mask: Mask, value: Option<Arc<Leaf>>, children: impl Iterator<Item = Node>) -> Node {
        Node::Branch(mask, Branch::new(value, children, mask.count()))
    }

    /// The branch of the children in `slots`, nibble by nibble.
    fn collect(slots: [Option<Node>; 16], value: Option<Arc<Leaf>>) -> Node {
        Branch::node(Mask::of(&slots), value, slots.into_iter().flatten())
    }

    /// The sixteen slots of this branch, whose children are at the nibbles
    /// of `mask`.
    fn slots(&self, mask: Mask) -> impl Iterator<Item = Option<&Node>> {
        let mut children = self.children.iter();
        (0..16).map(move |nibble| match mask.has(nibble) {
            true => children.next(),
            false => None,
        })
    }

    /// A copy of this branch, children shared, with `child` at `nibble`,
    /// where it has none.
    fn with(&self, mask: Mask, nibble: u8, child: Node) -> Node {
        let (before, after) = self.children.split_at(mask.before(nibble));
        let children = before.iter().cloned().chain([child]);
        let children = children.chain(after.iter().cloned());
        Branch::node(mask.with(nibble), self.value.clone(), children)
    }

    /// A copy of this branch, children shared, without its child at
    /// `nibble`.
    fn without(&self, mask: Mask, nibble: u8) -> Node {
        let at = mask.slot(nibble).expect("a child to leave out");
        let children = self.children[..at].iter().chain(&self.children[at + 1..]);
        Branch::node(mask.without(nibble), self.value.clone(), children.cloned())
    }

    /// The branch in `slot` for an update to change where it stands: copied
    /// first at its size, children shared, if `slot` is not its only
    /// holder, and without its cached reference.
    fn unshared(slot: &mut Arc<Branch>) -> &mut Branch {
        if !unique(slot) {
            let children = slot.children.iter().cloned();
            *slot = Branch::new(slot.value.clone(), children, slot.children.len());
        }
        let branch = Arc::get_mut(slot).expect("a copy is its slot's alone");
        branch.reference.take();
        branch
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
    /// The reference of the node whose closed RLP is `rlp`, one node at a
    /// time: for a node that is all there is to hash — a root, the child of
    /// an extension. Where there are several, [`references`] takes them.
    fn of(rlp: &[u8]) -> NodeRef {
        if rlp.len() < 32 {
            NodeRef::inline(rlp)
        } else {
            NodeRef::hashed(keccak256(rlp))
        }
    }

    /// A node shorter than 32 bytes is embedded as it is.
    fn inline(rlp: &[u8]) -> NodeRef {
        let mut bytes = [0u8; 33];
        bytes[..rlp.len()].copy_from_slice(rlp);
        NodeRef {
            len: rlp.len() as u8,
            bytes,
        }
    }

    /// `0xa0 ‖ hash`: the RLP of the 32-byte string.
    fn hashed(hash: H256) -> NodeRef {
        let mut bytes = [0xa0; 33];
        bytes[1..].copy_from_slice(hash.as_bytes());
        NodeRef { len: 33, bytes }
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

/// Appends the hex-prefix encoding of a nibble path, as an RLP string: a
/// path that ends at the end of a byte, as a node's does, is copied as it
/// is packed.
fn put_hex_prefix(buf: &mut Vec<u8>, path: Nibbles, leaf: bool) {
    let start = buf.len();
    let flag: u8 = if leaf { 2 } else { 0 };
    let odd = path.len % 2;
    let first = if odd == 1 { path.at(0) } else { 0 };
    buf.push((flag | odd as u8) << 4 | first);
    let even = path.skip(odd);
    if even.start == 0 {
        buf.extend_from_slice(&even.bytes[..even.len / 2]);
    } else {
        let pairs = (0..even.len).step_by(2);
        buf.extend(pairs.map(|i| even.at(i) << 4 | even.at(i + 1)));
    }
    close_bytes(buf, start);
}

/// Appends the closed RLP of a leaf.
fn put_leaf(buf: &mut Vec<u8>, path: Nibbles, value: &[u8]) {
    let start = buf.len();
    put_hex_prefix(buf, path, true);
    put_bytes(buf, value);
    close_list(buf, start);
}

/// Appends the closed RLP of an extension.
fn put_extension(buf: &mut Vec<u8>, path: Nibbles, child: &NodeRef) {
    let start = buf.len();
    put_hex_prefix(buf, path, false);
    buf.extend_from_slice(child.as_slice());
    close_list(buf, start);
}

/// Appends the closed RLP of a branch with these sixteen children.
fn put_branch<'a>(
    buf: &mut Vec<u8>,
    children: impl Iterator<Item = Option<&'a NodeRef>>,
    value: &[u8],
) {
    let start = buf.len();
    for child in children {
        match child {
            Some(reference) => buf.extend_from_slice(reference.as_slice()),
            None => buf.push(0x80),
        }
    }
    put_bytes(buf, value);
    close_list(buf, start);
}

/// The references of the nodes whose closed RLP lies at `spans` of `buf`,
/// each handed to `set` with its index in `spans`; an empty span stands for
/// no node. An encoding shorter than 32 bytes is its own reference; the
/// others are hashed four at a time, those of as many rate blocks together
/// so that no lane waits for a longer one, and what is left over at the end
/// from the shortest up. Both the state trie (a level of dirty nodes) and an
/// index-keyed list (the children of a branch) hash through here.
fn references(buf: &[u8], spans: &[Range<usize>], mut set: impl FnMut(usize, NodeRef)) {
    let mut hash = |group: &[usize]| {
        if let [only] = *group {
            return set(only, NodeRef::of(&buf[spans[only].clone()]));
        }
        let mut lanes: [&[u8]; 4] = [&[]; 4];
        for (lane, &index) in lanes.iter_mut().zip(group) {
            *lane = &buf[spans[index].clone()];
        }
        for (&index, digest) in group.iter().zip(keccak256_x4(lanes)) {
            set(index, NodeRef::hashed(digest));
        }
    };
    // One to four blocks — a full branch is 532 bytes — and anything longer.
    let mut waiting = [[0usize; 4]; 5];
    let mut filled = [0usize; 5];
    for (index, span) in spans.iter().enumerate() {
        match span.len() {
            0 => {}
            1..32 => hash(&[index]),
            len => {
                let blocks = (len / KECCAK_RATE).min(4);
                waiting[blocks][filled[blocks]] = index;
                filled[blocks] += 1;
                if filled[blocks] == 4 {
                    hash(&waiting[blocks]);
                    filled[blocks] = 0;
                }
            }
        }
    }
    let (mut rest, mut count) = ([0usize; 4], 0);
    for (waiting, filled) in waiting.iter().zip(filled) {
        for &index in &waiting[..filled] {
            rest[count] = index;
            count += 1;
            if count == 4 {
                hash(&rest);
                count = 0;
            }
        }
    }
    if count > 0 {
        hash(&rest[..count]);
    }
}

/// Keccak-256's rate: an encoding of `len` bytes takes `len / 136 + 1`
/// permutations.
const KECCAK_RATE: usize = 136;

/// What one hashing thread owns, for as many subtrees as it takes: the
/// dirty nodes of the subtree in hand and the encodings of the nodes it is
/// about to hash. All four grow to the widest they have met and are never
/// handed back, so hashing allocates by levels and doublings, never by node.
#[derive(Default)]
struct Hasher<'a> {
    /// The dirty nodes beneath (and with) the subtree's root, breadth
    /// first: every level is one contiguous run.
    nodes: Vec<&'a Node>,
    /// Where each level starts in `nodes`, top down.
    levels: Vec<usize>,
    /// The closed RLP of up to [`Hasher::AT_ONCE`] nodes of one level.
    buf: Vec<u8>,
    /// Where each of them lies in `buf`.
    spans: Vec<Range<usize>>,
}

impl<'a> Hasher<'a> {
    /// Nodes encoded before their hashes are taken: enough that the lanes
    /// left empty at the end are few among them, and 256 full branches still
    /// fit the second-level cache.
    const AT_ONCE: usize = 256;

    /// `node`'s reference, hashing whatever beneath it is dirty, level by
    /// level from the bottom: a level's nodes do not depend on each other,
    /// so their encodings are hashed four at a time, and by the time a node
    /// is encoded every child of it has its reference. Another thread may
    /// be hashing nodes this one shares with it (the previous block's root
    /// still resolving): both arrive at the same reference, and whose `set`
    /// comes second changes nothing.
    fn reference(&mut self, node: &'a Node) -> NodeRef {
        if let Some(reference) = node.reference().get() {
            return *reference;
        }
        self.nodes.clear();
        self.levels.clear();
        // No-ops once the buffers have met a subtree: from here they double.
        self.nodes.reserve(Self::AT_ONCE);
        self.spans.reserve(Self::AT_ONCE);
        self.buf.reserve(64 * Self::AT_ONCE);
        self.nodes.push(node);
        let mut start = 0;
        while start < self.nodes.len() {
            self.levels.push(start);
            let end = self.nodes.len();
            for at in start..end {
                // A set reference proves the subtree beneath it clean.
                let dirty = |child: &&'a Node| child.reference().get().is_none();
                let node: &'a Node = self.nodes[at];
                match node {
                    Node::Leaf(_) => {}
                    Node::Extension(extension) => {
                        self.nodes.extend(Some(&extension.child).filter(dirty));
                    }
                    Node::Branch(_, branch) => {
                        self.nodes.extend(branch.children.iter().filter(dirty));
                    }
                }
            }
            start = end;
        }
        let mut end = self.nodes.len();
        for &start in self.levels.iter().rev() {
            for nodes in self.nodes[start..end].chunks(Self::AT_ONCE) {
                self.buf.clear();
                self.spans.clear();
                for node in nodes {
                    let start = self.buf.len();
                    if node.reference().get().is_none() {
                        node.put_rlp(&mut self.buf);
                    }
                    self.spans.push(start..self.buf.len());
                }
                references(&self.buf, &self.spans, |index, reference| {
                    let _ = nodes[index].reference().set(reference);
                });
            }
            end = start;
        }
        *node
            .reference()
            .get()
            .expect("the top level was hashed last")
    }
}

/// A Merkle Patricia Trie mapping byte keys to byte values.
///
/// Cloning is O(1): clones share structure and diverge copy-on-write as they
/// are updated — exactly what per-block state versioning needs — and a trie
/// with no clone alive is updated in place.
#[derive(Debug, Clone, Default)]
pub struct Mpt {
    root: Option<Node>,
}

impl Mpt {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Mpt { root: None }
    }

    /// Returns the Keccak-256 root commitment of the current contents.
    pub fn root(&self) -> H256 {
        match &self.root {
            Some(node) => Hasher::default().reference(node).hash(),
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
        let path = Nibbles::of(key);
        match &mut self.root {
            Some(root) => insert_at(root, path, &value),
            None => self.root = Some(Node::Leaf(Leaf::new(&[path], &value))),
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
        if remove_at(root, Nibbles::of(key)) {
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
    /// Allocation-free: the key is walked in its own bytes, two nibbles a
    /// byte as the nodes hold their paths, and the returned slice aliases
    /// the `Arc`-shared node, so an oracle-path SLOAD compare costs zero
    /// heap traffic.
    pub fn get_ref(&self, key: &[u8]) -> Option<&[u8]> {
        let key = Nibbles::of(key);
        let mut depth = 0;
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    let (path, value) = leaf.body.parts();
                    return (path == key.skip(depth)).then_some(value);
                }
                Node::Extension(extension) => {
                    let path = extension.path();
                    key.skip(depth).strip_prefix(path)?;
                    depth += path.len;
                    node = &extension.child;
                }
                Node::Branch(mask, branch) => {
                    if depth == key.len {
                        return branch.value.as_deref().map(Leaf::value);
                    }
                    node = &branch.children[mask.slot(key.at(depth))?];
                    depth += 1;
                }
            }
        }
    }

    /// The top-level branch node (descending through a root extension),
    /// if any: the fanout that parallel hashing partitions across workers.
    fn top_branch(&self) -> Option<&Branch> {
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Branch(_, branch) => return Some(branch),
                Node::Extension(extension) => node = &extension.child,
                Node::Leaf(_) => return None,
            }
        }
    }

    /// The children of the top-level branch whose references are not
    /// cached yet (the root itself when there is no branch).
    fn dirty_top(&self) -> Vec<&Node> {
        let top = match self.top_branch() {
            Some(branch) => &branch.children,
            None => self.root.as_slice(),
        };
        top.iter()
            .filter(|node| node.reference().get().is_none())
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
            .is_none_or(|node| node.reference().get().is_some())
    }

    /// Computes the root, hashing dirty top-level subtrees on up to
    /// `threads` workers (the caller is one of them).
    ///
    /// Identical to [`Mpt::root`] by construction — both fill the same
    /// `OnceLock` caches, level by level from the bottom, and only who
    /// fills which differs. The workers take the dirty children of the top
    /// branch one at a time, so a worker that meets a light subtree, or
    /// whose core a neighbour is using, takes fewer of them; one worker —
    /// asked for, or all that fewer than two dirty subtrees can use — runs
    /// the same loop on the caller and spawns nothing.
    pub fn root_parallel(&self, threads: usize) -> H256 {
        let dirty = self.dirty_top();
        let shares = Shares::new(dirty.iter());
        on_workers(threads.min(dirty.len()), || {
            let mut hasher = Hasher::default();
            while let Some(child) = shares.next() {
                hasher.reference(child);
            }
        });
        self.root()
    }

    /// The trie that inserting `value(i)` at `keys[i]`, for every `i` in
    /// order, would leave — of equal keys the last wins — built bottom up
    /// instead, each node once and none of them hashed.
    ///
    /// The keys are counted out by their first nibble into the top-level
    /// subtrees, and up to `threads` workers (the caller is one of them)
    /// take one subtree at a time: sort its keys, keep the last of equal
    /// ones and build it from the bottom (one key → leaf; a prefix common
    /// to the first and last → extension; else a split by nibble into a
    /// branch of as many children as there are nibbles). The caller then
    /// puts the subtrees under the root branch. A trie whose keys all share
    /// their first nibble has no root branch: its one subtree is built from
    /// the top, with an extension or a leaf for root. Besides its nodes the
    /// call allocates the grouped keys and a value buffer per worker.
    ///
    /// `value(i, out)` appends value `i` (non-empty) to `out`; it is called
    /// once per distinct key, from any of the threads.
    ///
    /// # Panics
    ///
    /// Panics if `value` does, on whichever thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmvcc_primitives::keccak256;
    /// use dmvcc_state::Mpt;
    ///
    /// let keys: Vec<_> = (0u32..100).map(|i| keccak256(&(i % 60).to_be_bytes())).collect();
    /// let mut inserted = Mpt::new();
    /// for (i, key) in keys.iter().enumerate() {
    ///     inserted.insert(key.as_bytes(), vec![i as u8]);
    /// }
    /// let built = Mpt::from_keys(&keys, 2, |i, out| out.push(i as u8));
    /// assert_eq!(built.root(), inserted.root());
    /// ```
    pub fn from_keys(
        keys: &[H256],
        threads: usize,
        value: impl Fn(usize, &mut Vec<u8>) + Sync,
    ) -> Mpt {
        let len = u32::try_from(keys.len()).expect("fewer than 2^32 keys");
        let first_nibble = |key: &H256| usize::from(key.0[0] >> 4);
        let mut counts = [0usize; 16];
        for key in keys {
            counts[first_nibble(key)] += 1;
        }
        let mut next = [0usize; 16];
        for nibble in 1..16 {
            next[nibble] = next[nibble - 1] + counts[nibble - 1];
        }
        // Each key with its index, grouped by first nibble.
        let mut items = vec![(H256::ZERO, 0u32); keys.len()];
        for (i, key) in (0..len).zip(keys) {
            let at = &mut next[first_nibble(key)];
            items[*at] = (*key, i);
            *at += 1;
        }
        let subtrees = counts.iter().filter(|&&count| count > 0).count();
        let depth = usize::from(subtrees > 1);
        let mut children: [Option<Node>; 16] = Default::default();
        let mut rest = items.as_mut_slice();
        let shares = Shares::new(
            counts
                .iter()
                .zip(&mut children)
                .filter_map(|(&count, child)| {
                    let (bucket, tail) = std::mem::take(&mut rest).split_at_mut(count);
                    rest = tail;
                    (count > 0).then_some((bucket, child))
                }),
        );
        on_workers(workers_for(threads, keys.len()).min(subtrees), || {
            let mut out = Vec::new();
            while let Some((bucket, child)) = shares.next() {
                // Equal keys sort by index, so the last of them is the last
                // inserted.
                bucket.sort_unstable();
                let distinct = keep_last(bucket);
                *child = Some(build_node(&bucket[..distinct], depth, &value, &mut out));
            }
        });
        let root = match depth {
            1 => Some(Branch::collect(children, None)),
            _ => children.into_iter().flatten().next(),
        };
        Mpt { root }
    }
}

/// Moves the last item of every run of equal keys in the sorted `items` to
/// the front, in order, and returns how many there are.
fn keep_last(items: &mut [(H256, u32)]) -> usize {
    let mut kept = 0;
    for at in 0..items.len() {
        if items.get(at + 1).is_none_or(|next| next.0 != items[at].0) {
            items[kept] = items[at];
            kept += 1;
        }
    }
    kept
}

/// Nibble `depth` of a 32-byte key.
fn nibble_at(key: &H256, depth: usize) -> usize {
    usize::from(Nibbles::of(key.as_bytes()).at(depth))
}

/// The node that holds `items` — sorted, distinct 32-byte keys, all sharing
/// their first `depth` nibbles, each with the index of its value — as the
/// trie built by inserting them would have it. `out` is the buffer values
/// are written to before they are copied into their leaves.
fn build_node(
    items: &[(H256, u32)],
    depth: usize,
    value: &impl Fn(usize, &mut Vec<u8>),
    out: &mut Vec<u8>,
) -> Node {
    let first = Nibbles::of(items[0].0.as_bytes()).skip(depth);
    if let [(_, index)] = items {
        out.clear();
        value(*index as usize, out);
        return Node::Leaf(Leaf::new(&[first], out));
    }
    let last = Nibbles::of(items[items.len() - 1].0.as_bytes()).skip(depth);
    let common = first.common_prefix_len(last);
    if common > 0 {
        let child = build_node(items, depth + common, value, out);
        return Node::Extension(Extension::new(&[first.take(common)], child));
    }
    let mut slots: [Option<Node>; 16] = Default::default();
    let mut rest = items;
    while let Some((key, _)) = rest.first() {
        let nibble = nibble_at(key, depth);
        let run = rest.partition_point(|(key, _)| nibble_at(key, depth) == nibble);
        slots[nibble] = Some(build_node(&rest[..run], depth + 1, value, out));
        rest = &rest[run..];
    }
    Branch::collect(slots, None)
}

/// Stores `value` at `path` beneath the node in `slot`.
fn insert_at(slot: &mut Node, path: Nibbles, value: &[u8]) {
    let split = match slot {
        Node::Leaf(leaf) => {
            let leaf_path = leaf.path();
            if leaf_path == path {
                match Arc::get_mut(leaf) {
                    Some(leaf) => {
                        leaf.reference.take();
                        leaf.body = Packed::new(&[path], value);
                    }
                    None => *leaf = Leaf::new(&[path], value),
                }
                return;
            }
            let common = leaf_path.common_prefix_len(path);
            let branch = make_branch(
                (leaf_path.skip(common), leaf.value()),
                (path.skip(common), value),
            );
            wrap_extension(path.take(common), branch)
        }
        Node::Extension(extension) => {
            let ext_path = extension.path();
            let common = ext_path.common_prefix_len(path);
            if common == ext_path.len {
                let child = &mut Extension::unshared(extension).child;
                return insert_at(child, path.skip(common), value);
            }
            // Split the extension at the divergence point.
            let mut slots: [Option<Node>; 16] = Default::default();
            let kept = wrap_extension(ext_path.skip(common + 1), extension.child.clone());
            slots[usize::from(ext_path.at(common))] = Some(kept);
            let mut branch_value = None;
            match path.skip(common).split_first() {
                Some((nibble, rest)) => {
                    slots[usize::from(nibble)] = Some(Node::Leaf(Leaf::new(&[rest], value)));
                }
                None => branch_value = Some(Leaf::new(&[], value)),
            }
            let branch = Branch::collect(slots, branch_value);
            wrap_extension(path.take(common), branch)
        }
        Node::Branch(mask, branch) => {
            let Some((nibble, rest)) = path.split_first() else {
                Branch::unshared(branch).value = Some(Leaf::new(&[], value));
                return;
            };
            match mask.slot(nibble) {
                Some(at) => {
                    let child = &mut Branch::unshared(branch).children[at];
                    return insert_at(child, rest, value);
                }
                // A new child: the branch rebuilt one wider, and not copied
                // first even if it is shared.
                None => branch.with(*mask, nibble, Node::Leaf(Leaf::new(&[rest], value))),
            }
        }
    };
    *slot = split;
}

/// Builds a branch holding two divergent suffixes (at least one non-empty)
/// and their values.
fn make_branch(a: (Nibbles, &[u8]), b: (Nibbles, &[u8])) -> Node {
    debug_assert!(
        !(a.0.is_empty() && b.0.is_empty()),
        "identical paths must be handled by the caller"
    );
    let mut slots: [Option<Node>; 16] = Default::default();
    let mut value = None;
    for (path, leaf_value) in [a, b] {
        match path.split_first() {
            Some((nibble, rest)) => {
                slots[usize::from(nibble)] = Some(Node::Leaf(Leaf::new(&[rest], leaf_value)));
            }
            None => value = Some(Leaf::new(&[], leaf_value)),
        }
    }
    Branch::collect(slots, value)
}

fn wrap_extension(prefix: Nibbles, node: Node) -> Node {
    if prefix.is_empty() {
        node
    } else {
        Node::Extension(Extension::new(&[prefix], node))
    }
}

/// Removes `path`, which is present, from beneath the node in `slot`.
/// Returns `true` if the node was the key's own leaf: the caller unlinks it.
fn remove_at(slot: &mut Node, path: Nibbles) -> bool {
    let merged = match slot {
        Node::Leaf(_) => return true,
        Node::Extension(extension) => {
            // The child is a branch, which a removal never empties: it
            // stays, or has collapsed into a node this extension absorbs.
            let extension = Extension::unshared(extension);
            let rest = path.skip(extension.path().len);
            let emptied = remove_at(&mut extension.child, rest);
            debug_assert!(!emptied, "an extension's child is a branch");
            if matches!(extension.child, Node::Branch(..)) {
                return false;
            }
            merge_extension(extension.path(), &extension.child)
        }
        Node::Branch(mask, branch) => {
            let mask = *mask;
            // The nibble whose child goes with the key, if the key's leaf
            // hangs right here; `None` if the key ends here.
            let gone = match path.split_first() {
                Some((nibble, rest)) => {
                    let at = mask.slot(nibble).expect("the key was found");
                    if !matches!(branch.children[at], Node::Leaf(_)) {
                        let child = &mut Branch::unshared(branch).children[at];
                        let emptied = remove_at(child, rest);
                        debug_assert!(!emptied, "a leaf on the key's path is the key's");
                        return false;
                    }
                    Some(nibble)
                }
                None => None,
            };
            // Canonical form: a branch left with one child and no value
            // collapses into that child, one with only a value into a leaf.
            let value = gone.and(branch.value.as_ref());
            let mut left = mask.nibbles().filter(|&nibble| Some(nibble) != gone);
            match (left.next(), left.next(), value) {
                (None, _, Some(value)) => Node::Leaf(value.clone()),
                (Some(nibble), None, None) => {
                    let child = &branch.children[mask.before(nibble)];
                    merge_extension(Nibbles::of(&[nibble]).skip(1), child)
                }
                _ => match gone {
                    // The branch rebuilt one narrower, and not copied first.
                    Some(nibble) => branch.without(mask, nibble),
                    None => {
                        Branch::unshared(branch).value = None;
                        return false;
                    }
                },
            }
        }
    };
    *slot = merged;
    false
}

/// `child` with `prefix` put before its path: chained extensions and leaves
/// merge, so the canonical-form invariants (no extension-of-extension, no
/// extension-of-leaf) hold after a removal.
fn merge_extension(prefix: Nibbles, child: &Node) -> Node {
    match child {
        Node::Leaf(leaf) => Node::Leaf(Leaf::new(&[prefix, leaf.path()], leaf.value())),
        Node::Extension(extension) => {
            let parts = [prefix, extension.path()];
            Node::Extension(Extension::new(&parts, extension.child.clone()))
        }
        Node::Branch(..) => Node::Extension(Extension::new(&[prefix], child.clone())),
    }
}

/// Appends to `buf` the closed RLP of the node that holds `items` — `(key,
/// what hangs under it)` with the key a range of the packed `keys`; sorted,
/// at least one, all sharing their first `depth` nibbles, no key a prefix
/// of another — as the trie built by inserting them would have it, and
/// returns `None`: the node's parent, which sees all its children at once,
/// takes their references together. `under(what, path, buf)` does the same
/// for the node a key that has the node to itself ends in, `path` being what
/// is left of the key from that node on — or, where what hangs there is a
/// subtree hashed already, appends nothing and returns its reference.
fn list_node<T>(
    keys: &[u8],
    items: &[(Range<usize>, T)],
    depth: usize,
    buf: &mut Vec<u8>,
    under: &impl Fn(&T, Nibbles, &mut Vec<u8>) -> Option<NodeRef>,
) -> Option<NodeRef> {
    let key = |item: &(Range<usize>, T)| Nibbles::of(&keys[item.0.clone()]);
    let first = key(&items[0]).skip(depth);
    if let [only] = items {
        return under(&only.1, first, buf);
    }
    let last = key(&items[items.len() - 1]).skip(depth);
    let start = buf.len();
    let common = first.common_prefix_len(last);
    if common > 0 {
        let child = list_node(keys, items, depth + common, buf, under)
            .unwrap_or_else(|| NodeRef::of(&buf[start..]));
        buf.truncate(start);
        put_extension(buf, first.take(common), &child);
        return None;
    }
    // No key ends here, so the branch holds no value and every item has a
    // nibble at `depth`. The children's encodings go on `buf` side by side,
    // are hashed in fours, and make way for the branch's own.
    let mut children = [None; 16];
    let mut spans: [Range<usize>; 16] = std::array::from_fn(|_| start..start);
    let mut rest = items;
    for (nibble, (child, span)) in children.iter_mut().zip(&mut spans).enumerate() {
        let run = rest
            .iter()
            .take_while(|item| usize::from(key(item).at(depth)) == nibble)
            .count();
        let (head, tail) = rest.split_at(run);
        rest = tail;
        if run > 0 {
            let child_start = buf.len();
            *child = list_node(keys, head, depth + 1, buf, under);
            *span = child_start..buf.len();
        }
    }
    references(buf, &spans, |nibble, reference| {
        children[nibble] = Some(reference);
    });
    buf.truncate(start);
    put_branch(buf, children.iter().map(Option::as_ref), &[]);
    None
}

/// The keys `rlp(0) .. rlp(count - 1)` in byte order, by position:
/// `rlp(1..=0x7f)` is the byte itself, `rlp(0)` is `0x80`, and from `0x80`
/// up a length-tagged big-endian form that sorts numerically.
#[derive(Clone, Copy)]
struct IndexKeys {
    count: usize,
}

impl IndexKeys {
    /// How many of the indexes have a one-byte key (`0..=0x7f`).
    fn one_byte(self) -> usize {
        self.count.min(0x80)
    }

    /// The index whose key is the `position`-th smallest.
    fn index_at(self, position: usize) -> usize {
        match (position + 1).cmp(&self.one_byte()) {
            std::cmp::Ordering::Less => position + 1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => position,
        }
    }

    /// The indexes whose keys are at the positions of `run` (one of
    /// [`IndexKeys::runs`]), in that order: within a run they are consecutive.
    fn indexes(self, run: &Range<usize>) -> Range<usize> {
        let first = self.index_at(run.start);
        first..first + run.len()
    }

    /// Appends the `position`-th smallest key.
    fn put_key(self, position: usize, keys: &mut Vec<u8>) {
        put_uint(keys, self.index_at(position) as u64);
    }

    /// The positions cut into runs that are each everything beneath one node
    /// of the trie, so that a run's reference can be computed without
    /// looking at another: the one-byte keys by their high nibble (`rlp(0)`,
    /// which sorts last of them, alone: it shares its high nibble with the
    /// longer keys), then `0x81 xx`, then the longer keys by all but their
    /// last byte — indexes `256 k .. 256 (k + 1)`.
    fn runs(self) -> Vec<Range<usize>> {
        let one_byte = self.one_byte();
        let mut runs = Vec::with_capacity(10 + self.count / 256);
        // Index `i` in `1..one_byte` sits at position `i - 1`.
        runs.extend(
            (0..one_byte)
                .step_by(16)
                .map(|low| low.max(1) - 1..(low + 16).min(one_byte) - 1)
                .filter(|run| !run.is_empty()),
        );
        runs.push(one_byte - 1..one_byte);
        let mut low = 0x80;
        while low < self.count {
            let high = ((low / 256 + 1) * 256).min(self.count);
            runs.push(low..high);
            low = high;
        }
        runs
    }

    /// The depth at which the node holding exactly the keys at `run` (one
    /// of [`IndexKeys::runs`]) hangs: one below the branch that tells it
    /// from its nearest neighbour in key order, 0 if it has none. `keys` is
    /// scratch.
    fn depth_of(self, run: &Range<usize>, keys: &mut Vec<u8>) -> usize {
        [run.start, run.end]
            .into_iter()
            .filter(|&edge| 0 < edge && edge < self.count)
            .map(|edge| {
                keys.clear();
                self.put_key(edge - 1, keys);
                let split = keys.len();
                self.put_key(edge, keys);
                let (before, after) = keys.split_at(split);
                1 + Nibbles::of(before).common_prefix_len(Nibbles::of(after))
            })
            .max()
            .unwrap_or(0)
    }
}
/// The root of the trie mapping `rlp(i) → value i` for `i` in `0..count` —
/// Ethereum's transactions-root / receipts-root layout — computed without
/// building the trie, on [`default_hash_threads`] threads.
///
/// `value(i, out)` appends value `i` (non-empty) to `out`; it may use `out`
/// beyond its length as scratch, and is called once per `i`, from any of the
/// threads. The keys fall into runs that are each a whole subtree (256
/// consecutive indexes, once the keys are three bytes long). Each worker
/// takes the next run until none is left; for each, it lays the run's keys and
/// values out in its own flat buffers and encodes the subtree bottom-up over
/// slices of them (one item → leaf; a prefix common to the first and last →
/// extension; else a 16-way split by nibble), through the node encoder
/// [`Mpt`] hashes with: a branch leaves its children's encodings side by
/// side on the worker's buffer and hashes them four at a time. The caller —
/// one of the workers, and the only one when the list is short — then runs
/// the same computation over the runs' references, for the few nodes above
/// them. The result equals `Mpt::root` after `insert(rlp(i), value i)` for
/// every `i`; the call allocates a handful of buffers per thread and nothing
/// per item.
///
/// # Panics
///
/// Panics if `value` does, on whichever thread.
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
pub fn index_root(count: usize, value: impl Fn(usize, &mut Vec<u8>) + Sync) -> H256 {
    index_root_on(
        workers_for(default_hash_threads(), count),
        count,
        each(value),
    )
}

/// `value`, item by item, as [`index_root_on`] asks for a run's values.
fn each(
    value: impl Fn(usize, &mut Vec<u8>) + Sync,
) -> impl Fn(Range<usize>, &mut Vec<u8>, &mut Vec<usize>) + Sync {
    move |indexes, values, ends| {
        for index in indexes {
            value(index, values);
            ends.push(values.len());
        }
    }
}

/// [`index_root`] of the list whose value `i` is `rlp(keccak256(body i))` —
/// a transactions root with each transaction's hash standing in for it —
/// where `body(i, out)` appends body `i` to `out`. The bodies are hashed on
/// the workers that take their runs, four at a time, and none outlives its
/// hash.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{keccak256, rlp::put_bytes};
/// use dmvcc_state::{index_root, index_root_hashed};
///
/// let bodies: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 40 * i as usize]).collect();
/// let hashed = index_root_hashed(9, |i, out| out.extend_from_slice(&bodies[i]));
/// let by_hand = index_root(9, |i, out| put_bytes(out, keccak256(&bodies[i]).as_bytes()));
/// assert_eq!(hashed, by_hand);
/// ```
pub fn index_root_hashed(count: usize, body: impl Fn(usize, &mut Vec<u8>) + Sync) -> H256 {
    index_root_on(
        workers_for(default_hash_threads(), count),
        count,
        hashed(body),
    )
}

/// `rlp(keccak256(body i))` for a run's indexes, four bodies to a Keccak
/// call, as [`index_root_on`] asks for a run's values.
fn hashed(
    body: impl Fn(usize, &mut Vec<u8>) + Sync,
) -> impl Fn(Range<usize>, &mut Vec<u8>, &mut Vec<usize>) + Sync {
    move |indexes, values, ends| {
        for first in indexes.clone().step_by(4) {
            // Four bodies on the end of `values` for as long as it takes to
            // hash them.
            let start = values.len();
            let mut bounds = [start; 5];
            for lane in 0..4 {
                if first + lane < indexes.end {
                    body(first + lane, values);
                }
                bounds[lane + 1] = values.len();
            }
            let bodies = std::array::from_fn(|lane| &values[bounds[lane]..bounds[lane + 1]]);
            let hashes = keccak256_x4(bodies);
            values.truncate(start);
            for hash in hashes.iter().take(indexes.end - first) {
                put_bytes(values, hash.as_bytes());
                ends.push(values.len());
            }
        }
    }
}

/// The root of an index-keyed list of `count` values on `workers` threads.
/// `values_of(indexes, values, ends)` appends the values of those consecutive
/// indexes to `values` and where each ends to `ends`; it may use `values`
/// beyond its length as scratch.
fn index_root_on(
    workers: usize,
    count: usize,
    values_of: impl Fn(Range<usize>, &mut Vec<u8>, &mut Vec<usize>) + Sync,
) -> H256 {
    if count == 0 {
        return empty_root();
    }
    let keys = IndexKeys { count };
    let runs = keys.runs();
    // The reference of each run's subtree.
    let mut references = vec![None; runs.len()];
    let shares = Shares::new(runs.iter().zip(&mut references));
    on_workers(workers.min(runs.len()), || {
        let mut key_bytes = Vec::new();
        let (mut values, mut ends, mut items) = (Vec::new(), Vec::new(), Vec::new());
        let mut buf = Vec::new();
        while let Some((run, reference)) = shares.next() {
            let depth = keys.depth_of(run, &mut key_bytes);
            key_bytes.clear();
            values.clear();
            ends.clear();
            items.clear();
            values_of(keys.indexes(run), &mut values, &mut ends);
            let mut value_start = 0;
            for (position, &value_end) in run.clone().zip(&ends) {
                let key_start = key_bytes.len();
                keys.put_key(position, &mut key_bytes);
                items.push((key_start..key_bytes.len(), value_start..value_end));
                value_start = value_end;
            }
            let leaf = |value: &Range<usize>, path: Nibbles, buf: &mut Vec<u8>| {
                put_leaf(buf, path, &values[value.clone()]);
                None
            };
            buf.clear();
            // A run's top node is all there is left to hash of it.
            *reference = list_node(&key_bytes, &items, depth, &mut buf, &leaf)
                .or_else(|| Some(NodeRef::of(&buf)));
        }
    });
    // The nodes above the runs: each run stands as one key (its first) with
    // its subtree's reference under it.
    let mut key_bytes = Vec::with_capacity(runs.len() * 4);
    let items: Vec<(Range<usize>, NodeRef)> = runs
        .iter()
        .zip(references)
        .map(|(run, reference)| {
            let key_start = key_bytes.len();
            keys.put_key(run.start, &mut key_bytes);
            let reference = reference.expect("every run was taken");
            (key_start..key_bytes.len(), reference)
        })
        .collect();
    let subtree = |reference: &NodeRef, _: Nibbles, _: &mut Vec<u8>| Some(*reference);
    let mut buf = Vec::new();
    match list_node(&key_bytes, &items, 0, &mut buf, &subtree) {
        Some(only_run) => only_run.hash(),
        None => keccak256(&buf),
    }
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

    /// The root [`index_root`] must reproduce: an [`Mpt`] filled by
    /// `insert(rlp(i), value(i))`.
    fn built_root(count: usize, value: impl Fn(usize, &mut Vec<u8>)) -> H256 {
        let mut trie = Mpt::new();
        for i in 0..count {
            let mut bytes = Vec::new();
            value(i, &mut bytes);
            trie.insert(&dmvcc_primitives::rlp::encode_uint(i as u64), bytes);
        }
        trie.root()
    }

    /// `index_root_on` at every worker count against the built trie.
    fn assert_index_root(count: usize, value: impl Fn(usize, &mut Vec<u8>) + Sync) {
        let expected = built_root(count, &value);
        for workers in [1usize, 2, 3, 8] {
            assert_eq!(
                index_root_on(workers, count, each(&value)),
                expected,
                "count {count}, {workers} workers"
            );
        }
    }

    /// Counts around every change of the key's RLP form (one byte, `0x81
    /// xx`, `0x82 xx xx`, `0x83 ..`), of the top branch's fill and of the
    /// number of 256-index runs.
    const COUNTS: [usize; 14] = [
        0, 1, 2, 127, 128, 129, 255, 256, 257, 1_023, 1_024, 1_025, 4_095, 10_000,
    ];

    #[test]
    fn the_runs_of_an_index_list_cover_every_position_once_and_are_whole_subtrees() {
        for count in COUNTS.into_iter().skip(1).chain([16, 17, 65_537]) {
            let keys = IndexKeys { count };
            let runs = keys.runs();
            assert_eq!(runs[0].start, 0, "count {count}");
            assert_eq!(runs[runs.len() - 1].end, count, "count {count}");
            let mut seen = vec![false; count];
            for (run, next) in runs.iter().zip(runs.iter().skip(1)) {
                assert!(!run.is_empty() && run.end == next.start, "count {count}");
            }
            let mut key_bytes = Vec::new();
            for run in &runs {
                // Inside a run the keys share more nibbles than the run
                // shares with either neighbour: it is a node's whole subtree.
                let depth = keys.depth_of(run, &mut key_bytes);
                key_bytes.clear();
                keys.put_key(run.start, &mut key_bytes);
                let split = key_bytes.len();
                keys.put_key(run.end - 1, &mut key_bytes);
                let (first, last) = key_bytes.split_at(split);
                assert!(
                    Nibbles::of(first).common_prefix_len(Nibbles::of(last)) >= depth,
                    "count {count}, run {run:?}"
                );
                // And its indexes are consecutive, in key order.
                let indexes: Vec<usize> = run.clone().map(|at| keys.index_at(at)).collect();
                assert_eq!(indexes, keys.indexes(run).collect::<Vec<_>>());
                for index in indexes {
                    assert!(!std::mem::replace(&mut seen[index], true));
                }
            }
            assert!(seen.iter().all(|&seen| seen), "count {count}");
        }
    }

    #[test]
    fn index_root_equals_the_built_trie_at_every_worker_count() {
        // Value lengths 1–200 from a fixed stream, most of them short (an
        // unoptimised Keccak sets this test's time), on both sides of the
        // 32-byte inline-node rule; the property test below draws them.
        let value = |i: usize, out: &mut Vec<u8>| {
            let draw = i.wrapping_mul(2_654_435_761) >> 7;
            let len = 1 + draw % if draw & 0xf00 == 0 { 200 } else { 40 };
            out.extend(std::iter::repeat_n(1 + (i % 251) as u8, len));
        };
        for count in COUNTS.into_iter().chain([65_537]) {
            assert_index_root(count, value);
        }
    }

    #[test]
    fn index_root_hashed_is_index_root_over_the_hashes_at_every_worker_count() {
        // Bodies of 0 to 299 bytes — one to three rate blocks, mixed within
        // a call — and counts whose runs do not end on a multiple of four.
        let body = |i: usize, out: &mut Vec<u8>| {
            out.extend(std::iter::repeat_n(i as u8, i.wrapping_mul(7_919) % 300));
        };
        let hash_of = |i: usize, out: &mut Vec<u8>| {
            let mut bytes = Vec::new();
            body(i, &mut bytes);
            put_bytes(out, keccak256(&bytes).as_bytes());
        };
        for count in [1usize, 2, 3, 5, 127, 130, 255, 1_026, 4_095] {
            let expected = built_root(count, hash_of);
            for workers in [1usize, 2, 3] {
                assert_eq!(
                    index_root_on(workers, count, hashed(body)),
                    expected,
                    "count {count}, {workers} workers"
                );
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// One count of the grid above per case, under drawn lengths.
            #[test]
            fn index_root_equals_the_built_trie(
                count in prop::sample::select(COUNTS.to_vec()),
                lens in prop::collection::vec(1usize..=200, 1..24),
                seed in any::<u8>(),
            ) {
                assert_index_root(count, |i, out| {
                    let len = lens[(i ^ i >> 8) % lens.len()];
                    out.extend(std::iter::repeat_n(seed ^ i as u8, len));
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "no value for item")]
    fn a_value_that_panics_on_a_spawned_worker_takes_the_caller_with_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let worker_ran = AtomicBool::new(false);
        let value = |i: usize, out: &mut Vec<u8>| {
            if std::thread::current().id() == caller {
                // Leave runs untaken until the spawned worker has one.
                while !worker_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                out.push(1);
            } else {
                worker_ran.store(true, Ordering::Release);
                panic!("no value for item {i}");
            }
        };
        index_root_on(2, 4_000, each(value));
    }

    /// The value [`Mpt::from_keys`] is handed for key `i` in these tests:
    /// from 1 to 45 bytes, so that some leaves are short enough to be
    /// embedded and some values too long to be held inline.
    fn built_value(i: usize, out: &mut Vec<u8>) {
        out.extend(std::iter::repeat_n((i as u8).wrapping_add(1), 1 + i % 45));
    }

    /// The trie [`Mpt::from_keys`] must reproduce: `keys[i] → built_value(i)`
    /// inserted in order.
    fn inserted(keys: &[H256]) -> Mpt {
        let mut trie = Mpt::new();
        for (i, key) in keys.iter().enumerate() {
            let mut value = Vec::new();
            built_value(i, &mut value);
            trie.insert(key.as_bytes(), value);
        }
        trie
    }

    /// Builds `keys` at every worker count and checks the roots and every
    /// key's value against the inserted trie.
    fn assert_built_is_inserted(keys: &[H256]) {
        let inserted = inserted(keys);
        for threads in [1usize, 2, 3, 8] {
            let built = Mpt::from_keys(keys, threads, built_value);
            assert_eq!(
                built.root_parallel(threads),
                inserted.root(),
                "{threads} threads"
            );
            for key in keys {
                assert_eq!(
                    built.get_ref(key.as_bytes()),
                    inserted.get_ref(key.as_bytes())
                );
            }
        }
    }

    #[test]
    fn a_trie_built_from_few_keys_has_the_inserted_root() {
        let key = |first: u8, last: u8| {
            let mut key = [0x37u8; 32];
            key[0] = first;
            key[31] = last;
            H256(key)
        };
        // None, one, two, two that differ in the last nibble alone (an
        // extension root), all under one first nibble, and a duplicate.
        for keys in [
            vec![],
            vec![key(0x10, 0)],
            vec![key(0x10, 0), key(0xf0, 0)],
            vec![key(0x10, 0), key(0x10, 1)],
            vec![key(0x10, 0), key(0x11, 0), key(0x1f, 9), key(0x10, 0x20)],
            vec![key(0x10, 0), key(0x20, 0), key(0x10, 0)],
        ] {
            assert_built_is_inserted(&keys);
        }
        assert!(Mpt::from_keys(&[], 4, built_value).is_empty());
    }

    #[test]
    #[should_panic(expected = "no value for key")]
    fn a_value_that_panics_while_building_takes_the_caller_with_it() {
        let keys: Vec<H256> = (0u32..4_000).map(|i| keccak256(&i.to_be_bytes())).collect();
        Mpt::from_keys(&keys, 2, |i, _| panic!("no value for key {i}"));
    }

    mod built {
        use super::*;
        use proptest::prelude::*;

        /// Keys that share long prefixes: each is one of three bases up to
        /// a drawn nibble and drawn bytes after it — its base at 64 nibbles,
        /// a key that differs from it in the last nibble alone at 63.
        fn prefixed(drawn: &[(usize, usize, [u8; 32])]) -> Vec<H256> {
            let bases = [[0u8; 32], [0x5a; 32], keccak256(b"base").0];
            drawn
                .iter()
                .map(|&(base, shared, mut key)| {
                    for nibble in 0..shared {
                        let (byte, high) = (nibble / 2, nibble % 2 == 0);
                        let mask = if high { 0xf0 } else { 0x0f };
                        key[byte] = key[byte] & !mask | bases[base][byte] & mask;
                    }
                    H256(key)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// A built trie is the inserted trie: the same root and values
            /// at every worker count, and it takes a block of updates —
            /// first in place, then beside a clone that keeps the genesis
            /// version — to the same roots as the inserted one.
            #[test]
            fn a_built_trie_is_the_inserted_trie(
                drawn in prop::collection::vec((0usize..3, 0usize..=64, any::<[u8; 32]>()), 0..300),
                block in prop::collection::vec((0usize..400, 0u8..4), 0..40),
            ) {
                let keys = prefixed(&drawn);
                let fresh = inserted(&keys);
                let genesis = fresh.root();
                let mut model = fresh.clone();
                let update = |trie: &mut Mpt, &(at, op): &(usize, u8)| {
                    let key = keys.get(at).copied().unwrap_or_else(|| keccak256(&at.to_be_bytes()));
                    match op {
                        0 => {
                            trie.remove(key.as_bytes());
                        }
                        _ => trie.insert(key.as_bytes(), vec![op; at % 50 + 1]),
                    }
                };
                let (in_place, beside_a_clone) = block.split_at(block.len() / 2);
                let mut roots = Vec::new();
                for updates in [in_place, beside_a_clone] {
                    updates.iter().for_each(|op| update(&mut model, op));
                    roots.push(model.root());
                }
                for threads in [1usize, 2, 3, 8] {
                    let mut built = Mpt::from_keys(&keys, threads, built_value);
                    prop_assert_eq!(built.root_parallel(threads), genesis);
                    for key in &keys {
                        prop_assert_eq!(built.get_ref(key.as_bytes()), fresh.get_ref(key.as_bytes()));
                    }
                    in_place.iter().for_each(|op| update(&mut built, op));
                    prop_assert_eq!(built.root_parallel(threads), roots[0]);
                    let version = built.clone();
                    beside_a_clone.iter().for_each(|op| update(&mut built, op));
                    prop_assert_eq!(built.root_parallel(threads), roots[1]);
                    prop_assert_eq!(version.root(), roots[0]);
                }
            }
        }
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

//! Access sequences with write versioning and commutative merges.
//!
//! An *access sequence* `L_I` (paper Definition 4) records, per state item
//! `I` and in block order, which transactions read (ρ), write (ω), do both
//! (θ), or commutatively increment (ω̄) the item, together with each
//! operation's status ("F") and value ("Val"). It is the buffer between
//! concurrent EVM instances and the StateDB:
//!
//! - **Write versioning** (§IV-D, Algorithm 3): every write is kept as its
//!   own version, so write-write pairs never conflict; a read resolves to
//!   the version of the closest preceding transaction.
//! - **Commutative writes**: ω̄ entries store deltas that are merged onto
//!   the closest preceding full version when a read needs the value.
//! - **Aborts** (§IV-E): inserting a write that post-dates completed reads
//!   returns those readers for cascading abort; dropping a version does the
//!   same for its readers.
//!
//! # What a change costs
//!
//! A change to one entry reports what it did to the entries above it
//! ([`VersionWriteEffect`]) and costs what it reports, not what the
//! sequence holds:
//!
//! - The entries are searched through a packed array of `u32` transaction
//!   indices, never through the entries themselves, and
//!   [`AccessSequence::read`] resolves and marks a read in one search.
//! - The readers whose turns a change reports are the *counted* ones: the
//!   reads a C-SAG predicted, and every read that met a pending version
//!   ([`AccessSequence::read`] flags it, for the rest of the block).
//! - A change is seen by the readers between it and the next entry that
//!   hides it: a full write, or a pending ω/θ/ω̄ entry. Only those readers
//!   can turn from blocked to ready or back, and they all turn together.
//!   Readers beyond a pending ω̄ entry stay blocked by it, so the walk for
//!   transitions stops there, and goes on towards the next full barrier
//!   only while a consumed read may lie ahead (an upper bound on the
//!   transactions with one is kept).
//! - Whether a pending entry lies below the change — between it and the
//!   closest full write — is answered from the *settled prefix*: the
//!   longest run of leading entries holding no pending ω/θ/ω̄ entry. A
//!   change inside it needs no walk at all; the prefix only grows past an
//!   entry once, until a reset re-pends one inside it.
//!
//! On a chain of adds published in block order each publication visits
//! O(1) entries, where a walk to the next full barrier visited the whole
//! rest of the chain.

use dmvcc_primitives::U256;

/// The access type of an entry: ρ, ω, θ, or the commutative ω̄.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// ρ — read only.
    Read,
    /// ω — write only.
    Write,
    /// θ — both read and write.
    ReadWrite,
    /// ω̄ — commutative increment (delta merged at read/commit time).
    Add,
}

/// What an entry's transaction has *published* — the write side of the
/// entry. Readers derive values from this alone; [`AccessEntry::op`] (what
/// was predicted) only decides whether a [`Version::Pending`] entry is a
/// barrier, so an execution that fulfils a predicted ω with an ω̄ (or the
/// reverse) is read as what it actually published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Nothing published yet ("F = N"): a predicted ω/θ/ω̄ entry blocks
    /// later readers, a ρ entry is transparent.
    Pending,
    /// A full write: readers above see this value plus the deltas between.
    Write(U256),
    /// A commutative ω̄ delta, merged onto whatever lies below.
    Delta(U256),
    /// Resolved as never-happening (deterministic abort of the owner, or a
    /// misprediction); readers pass through to earlier versions.
    Dropped,
}

/// One entry of an access sequence, as [`AccessSequence::entries`] lists
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEntry {
    /// Index of the owning transaction within the block.
    pub tx: usize,
    /// ρ / ω / θ / ω̄ — the predicted (or dynamically observed) access kind.
    pub op: AccessOp,
    /// The published write side.
    pub version: Version,
    /// Whether the read side has been performed (ρ, θ); a completed read
    /// that becomes stale triggers an abort.
    pub read_done: bool,
}

/// An entry's state, stored apart from its transaction index.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: AccessOp,
    version: Version,
    read_done: bool,
    /// A counted read: a ρ or θ was predicted, or a read of the entry's
    /// transaction met a pending version. An effect reports its turns
    /// between blocked and ready; no change clears it.
    predicted_read: bool,
}

impl Slot {
    fn pending(op: AccessOp) -> Self {
        Slot {
            op,
            version: Version::Pending,
            read_done: false,
            predicted_read: matches!(op, AccessOp::Read | AccessOp::ReadWrite),
        }
    }

    /// A pending ω/θ/ω̄ entry: every read above it that reaches it blocks.
    fn blocks(&self) -> bool {
        self.version == Version::Pending && self.op != AccessOp::Read
    }

    /// What the entry shows the readers above it: its version, with a
    /// pending ρ entry as transparent as a dropped one.
    fn shown(&self) -> Version {
        match self.version {
            Version::Pending if self.op == AccessOp::Read => Version::Dropped,
            version => version,
        }
    }
}

/// How a read resolves against a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResolution {
    /// The merged value the reader observes: base version (or snapshot)
    /// plus the finished deltas above it.
    Ready(U256),
    /// A preceding predicted write (or delta) is not yet available; the
    /// reader must wait for `writer`.
    Blocked {
        /// The transaction whose pending version blocks this read.
        writer: usize,
    },
}

/// Outcome of a change to one entry — for a publication, the paper's
/// Algorithm 3. Every list is in block order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionWriteEffect {
    /// Counted readers whose read of the item the change turned from
    /// blocked to ready: exactly those, whether or not they already read.
    pub allowed: Vec<usize>,
    /// Readers that already consumed a now-stale version: abort them.
    pub aborted: Vec<usize>,
    /// Counted readers whose read of the item the change turned from
    /// ready to blocked (a reset re-pending a version below them).
    pub blocked: Vec<usize>,
}

impl VersionWriteEffect {
    /// Empties the lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.allowed.clear();
        self.aborted.clear();
        self.blocked.clear();
    }
}

/// One change to a transaction's version of a key
/// ([`AccessSequence::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VersionOp {
    /// [`AccessSequence::version_write`]; the flag marks an ω̄ delta.
    Publish(U256, bool),
    /// [`AccessSequence::drop_version`].
    Drop,
    /// [`AccessSequence::reset`].
    Reset,
    /// [`AccessSequence::rollback_unpredicted`].
    Rollback,
}

/// The access sequence of a single state item.
#[derive(Debug, Clone, Default)]
pub struct AccessSequence {
    /// The transaction of each entry, ascending (at most one entry per
    /// transaction): what every lookup searches.
    txs: Vec<u32>,
    /// The entries, index-aligned with `txs`.
    slots: Vec<Slot>,
    /// No entry below this index blocks ([`Slot::blocks`]); the entry at it
    /// does, unless it is the length.
    settled: usize,
    /// One past the highest transaction with a consumed read (0: none).
    consumed_below: usize,
}

fn tx_index(tx: usize) -> u32 {
    u32::try_from(tx).expect("transaction index fits in u32")
}

impl AccessSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        AccessSequence::default()
    }

    /// The entries in block order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = AccessEntry> + '_ {
        self.txs
            .iter()
            .zip(&self.slots)
            .map(|(&tx, slot)| AccessEntry {
                tx: tx as usize,
                op: slot.op,
                version: slot.version,
                read_done: slot.read_done,
            })
    }

    /// `true` if nothing was predicted, read or published.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    fn position(&self, tx: usize) -> Result<usize, usize> {
        self.txs.binary_search(&tx_index(tx))
    }

    /// Inserts an entry for `tx` at `at`, keeping the settled prefix.
    fn insert(&mut self, at: usize, tx: usize, slot: Slot) {
        self.txs.insert(at, tx_index(tx));
        self.slots.insert(at, slot);
        if at <= self.settled {
            self.settled += 1;
        }
        self.settle(at);
    }

    /// Restores the settled prefix after the entry at `at` changed,
    /// returning the entries the prefix grew over.
    fn settle(&mut self, at: usize) -> usize {
        if self.slots[at].blocks() {
            self.settled = self.settled.min(at);
            return 0;
        }
        if at != self.settled {
            return 0;
        }
        let from = self.settled;
        let len = self.slots.len();
        while self.settled < len && !self.slots[self.settled].blocks() {
            self.settled += 1;
        }
        self.settled - from
    }

    /// Registers a predicted access from a C-SAG. Merges with an existing
    /// prediction for the same transaction (read + write → θ). Predictions
    /// are made before anything is read or published, so they report no
    /// effect.
    pub fn predict(&mut self, tx: usize, op: AccessOp) {
        // Binding walks the block in order: the common case is an append.
        if self.txs.last().is_none_or(|&last| (last as usize) < tx) {
            self.insert(self.txs.len(), tx, Slot::pending(op));
            return;
        }
        match self.position(tx) {
            Ok(at) => {
                let slot = &mut self.slots[at];
                slot.op = merge_ops(slot.op, op);
                slot.predicted_read |= matches!(op, AccessOp::Read | AccessOp::ReadWrite);
                self.settle(at);
            }
            Err(at) => self.insert(at, tx, Slot::pending(op)),
        }
    }

    /// The resolution of a read at entry index `upper` (of an entry there
    /// or of a transaction that would be inserted there).
    fn resolve_at(&self, upper: usize, base: impl FnOnce() -> U256) -> ReadResolution {
        let mut delta = U256::ZERO;
        for (slot, &tx) in self.slots[..upper].iter().zip(&self.txs[..upper]).rev() {
            match slot.shown() {
                Version::Write(value) => return ReadResolution::Ready(value.wrapping_add(delta)),
                Version::Delta(d) => delta = delta.wrapping_add(d),
                Version::Pending => {
                    return ReadResolution::Blocked {
                        writer: tx as usize,
                    }
                }
                Version::Dropped => {}
            }
        }
        ReadResolution::Ready(base().wrapping_add(delta))
    }

    /// Resolves the value transaction `tx` should read (paper §III-B2):
    /// the closest preceding finished write (or the snapshot), plus all
    /// finished ω̄ deltas in between. `base` supplies the snapshot value
    /// lazily, so reads that resolve to a version never probe the snapshot.
    ///
    /// Does **not** mark the read as done — [`Self::read`] resolves and
    /// marks in one lookup.
    pub fn resolve_read(&self, tx: usize, base: impl FnOnce() -> U256) -> ReadResolution {
        let upper = self.position(tx).unwrap_or_else(|at| at);
        self.resolve_at(upper, base)
    }

    /// [`Self::resolve_read`] and what the read does to `tx`'s entry, in
    /// one search. A read that resolves is marked as performed
    /// ([`Self::mark_read`]). A read that blocks becomes a counted read:
    /// its entry, a ρ entry inserted if there is none, is flagged, and every
    /// later change reports its turns like a predicted read's. The `bool`
    /// is `true` for exactly such a read that was not counted before.
    pub fn read(&mut self, tx: usize, base: impl FnOnce() -> U256) -> (ReadResolution, bool) {
        let at = self.position(tx);
        let resolution = self.resolve_at(at.unwrap_or_else(|at| at), base);
        let newly_counted = match (resolution, at) {
            (ReadResolution::Ready(_), _) => {
                self.mark_at(at, tx);
                false
            }
            (ReadResolution::Blocked { .. }, Ok(at)) => {
                !std::mem::replace(&mut self.slots[at].predicted_read, true)
            }
            (ReadResolution::Blocked { .. }, Err(at)) => {
                self.insert(at, tx, Slot::pending(AccessOp::Read));
                true
            }
        };
        (resolution, newly_counted)
    }

    /// Empties the sequence, keeping the entry buffers' capacity — block
    /// arena reuse (`ShardedSequences` recycles shard storage
    /// across blocks).
    pub fn clear(&mut self) {
        self.txs.clear();
        self.slots.clear();
        self.settled = 0;
        self.consumed_below = 0;
    }

    /// Heap bytes retained by the entry buffers (arena accounting).
    pub fn retained_bytes(&self) -> u64 {
        (self.txs.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()) as u64
    }

    /// Marks transaction `tx`'s read side as performed (inserting a ρ entry
    /// if the read was not predicted).
    pub fn mark_read(&mut self, tx: usize) {
        self.mark_at(self.position(tx), tx);
    }

    fn mark_at(&mut self, at: Result<usize, usize>, tx: usize) {
        match at {
            Ok(at) => self.slots[at].read_done = true,
            Err(at) => {
                let slot = Slot {
                    read_done: true,
                    predicted_read: false,
                    ..Slot::pending(AccessOp::Read)
                };
                self.insert(at, tx, slot);
            }
        }
        self.consumed_below = self.consumed_below.max(tx + 1);
    }

    /// The paper's Algorithm 3 (`Version_Write`): records the value written
    /// by `tx` (inserting an ω entry if unpredicted, upgrading ρ → θ), and
    /// returns which later readers it unblocked (`allowed`) and which
    /// already read a stale version (`aborted`).
    ///
    /// Pass `delta = true` for a commutative ω̄ value.
    pub fn version_write(&mut self, tx: usize, value: U256, delta: bool) -> VersionWriteEffect {
        self.effect_of(tx, VersionOp::Publish(value, delta))
    }

    /// Drops transaction `tx`'s version (deterministic abort, rollback of a
    /// misprediction, or the `null` write of the paper's Algorithm 4),
    /// returning readers that consumed it and must abort.
    pub fn drop_version(&mut self, tx: usize) -> VersionWriteEffect {
        self.effect_of(tx, VersionOp::Drop)
    }

    /// Resets `tx`'s entry to pending (re-execution of an aborted
    /// transaction re-announces its predicted accesses), returning affected
    /// downstream readers.
    pub fn reset(&mut self, tx: usize) -> VersionWriteEffect {
        self.effect_of(tx, VersionOp::Reset)
    }

    /// Rolls back `tx`'s entry for a key whose write was *not* predicted:
    /// the dynamically published version (if any) becomes `Dropped` rather
    /// than `Pending` — the re-executed attempt may never write this key
    /// again, and a pending entry nothing will ever fulfill wedges every
    /// later reader (found by DST schedule fuzzing). A consumed read on
    /// the entry is cleared exactly like [`Self::reset`]; if the re-run
    /// does write the key again, [`Self::version_write`] revives the
    /// dropped entry in place.
    pub fn rollback_unpredicted(&mut self, tx: usize) -> VersionWriteEffect {
        self.effect_of(tx, VersionOp::Rollback)
    }

    fn effect_of(&mut self, tx: usize, op: VersionOp) -> VersionWriteEffect {
        let mut effect = VersionWriteEffect::default();
        self.apply(tx, op, &mut effect);
        effect
    }

    /// Applies `op` to `tx`'s entry and appends what it did to `effect`;
    /// returns the entries visited beyond the entry itself. Only a
    /// publication creates an entry: the other changes leave a transaction
    /// without one untouched.
    pub(crate) fn apply(
        &mut self,
        tx: usize,
        op: VersionOp,
        effect: &mut VersionWriteEffect,
    ) -> usize {
        let at = match (self.position(tx), op) {
            (Ok(at), _) => at,
            (Err(at), VersionOp::Publish(value, delta)) => {
                // An unpredicted publication: the entry is inserted as
                // published, and before it existed it showed nothing.
                let (op, version) = match delta {
                    true => (AccessOp::Add, Version::Delta(value)),
                    false => (AccessOp::Write, Version::Write(value)),
                };
                self.insert(
                    at,
                    tx,
                    Slot {
                        version,
                        ..Slot::pending(op)
                    },
                );
                return self.downstream_effect(at, Version::Dropped, version, effect);
            }
            (Err(_), _) => return 0,
        };
        let before = self.slots[at].shown();
        let slot = &mut self.slots[at];
        match op {
            VersionOp::Publish(value, true) => {
                // A delta folds onto whatever version this transaction
                // already holds (repeated adds accumulate; an add after the
                // transaction's own full write extends that write). A
                // pending or dropped entry holds nothing: the delta starts
                // fresh, whatever the entry was predicted as.
                if slot.op == AccessOp::Read {
                    slot.op = AccessOp::Add;
                }
                slot.version = match slot.version {
                    Version::Write(v) => Version::Write(v.wrapping_add(value)),
                    Version::Delta(d) => Version::Delta(d.wrapping_add(value)),
                    Version::Pending | Version::Dropped => Version::Delta(value),
                };
            }
            VersionOp::Publish(value, false) => {
                slot.op = merge_ops(slot.op, AccessOp::Write);
                slot.version = Version::Write(value);
            }
            VersionOp::Drop => slot.version = Version::Dropped,
            VersionOp::Reset => {
                slot.version = Version::Pending;
                slot.read_done = false;
            }
            VersionOp::Rollback => {
                slot.read_done = false;
                if slot.op != AccessOp::Read {
                    slot.version = Version::Dropped;
                }
            }
        }
        let after = slot.shown();
        let visited = self.settle(at);
        if before == after {
            return visited;
        }
        visited + self.downstream_effect(at, before, after, effect)
    }

    /// What the entry at `at` showing `after` instead of `before` does to
    /// the entries above it, appended to `effect`; returns the entries
    /// visited.
    ///
    /// The *window* is the entries up to and including the first that is a
    /// full write or blocks: every predicted read in it passes through `at`
    /// and nothing else that may block, so all of them turn together, and
    /// reads beyond it do not turn at all. A consumed read is stale up to
    /// the next *barrier* — a full write or a pending ω/θ entry; a pending
    /// ω̄ entry hides no value, only blocks. The stale-read check keys on
    /// `read_done` for *every* entry op, not just ρ/θ: [`Self::mark_read`]
    /// records unpredicted reads on existing ω/ω̄ entries without changing
    /// their op, so a pure-write or add entry can carry a consumed read
    /// that this change invalidates.
    fn downstream_effect(
        &self,
        at: usize,
        before: Version,
        after: Version,
        effect: &mut VersionWriteEffect,
    ) -> usize {
        let readers = effect.allowed.len();
        let mut in_window = true;
        let mut visited = 0;
        for (slot, &tx) in self.slots[at + 1..].iter().zip(&self.txs[at + 1..]) {
            let tx = tx as usize;
            if !in_window && tx >= self.consumed_below {
                break;
            }
            visited += 1;
            if slot.read_done {
                effect.aborted.push(tx);
            }
            if in_window && slot.predicted_read {
                effect.allowed.push(tx);
            }
            match slot.shown() {
                Version::Write(_) => break,
                Version::Pending if matches!(slot.op, AccessOp::Write | AccessOp::ReadWrite) => {
                    break
                }
                Version::Pending => in_window = false,
                Version::Delta(_) | Version::Dropped => {}
            }
        }
        if effect.allowed.len() == readers {
            return visited;
        }
        let mut below = None;
        let mut blocked = |shown: Version| match shown {
            Version::Write(_) => false,
            Version::Pending => true,
            Version::Delta(_) | Version::Dropped => {
                *below.get_or_insert_with(|| self.blocked_below(at, &mut visited))
            }
        };
        match (blocked(before), blocked(after)) {
            (true, false) => {}
            (false, true) => {
                let turned = effect.allowed.drain(readers..);
                effect.blocked.extend(turned);
            }
            _ => effect.allowed.truncate(readers),
        }
        visited
    }

    /// Whether a read passing down through entry `at` blocks below it: a
    /// pending ω/θ/ω̄ entry lies between `at` and the closest full write
    /// under it (or the start). Inside the settled prefix no walk is
    /// needed; above it the walk ends at the prefix's blocking entry at the
    /// latest. Counts the entries it visits into `visited`.
    fn blocked_below(&self, at: usize, visited: &mut usize) -> bool {
        if at <= self.settled {
            return false;
        }
        for slot in self.slots[self.settled..at].iter().rev() {
            *visited += 1;
            match slot.shown() {
                Version::Write(_) => return false,
                Version::Pending => return true,
                Version::Delta(_) | Version::Dropped => {}
            }
        }
        unreachable!("the entry at the settled index blocks")
    }

    /// The committed value of this item after all transactions finish: the
    /// last full write merged with the deltas above it, or the snapshot
    /// value plus every delta; `None` if nothing was published. `base`
    /// supplies the snapshot value lazily, as for [`Self::resolve_read`].
    pub(crate) fn final_value(&self, base: impl FnOnce() -> U256) -> Option<U256> {
        let mut delta = U256::ZERO;
        let mut any = false;
        for slot in self.slots.iter().rev() {
            match slot.version {
                Version::Write(value) => return Some(value.wrapping_add(delta)),
                Version::Delta(d) => {
                    delta = delta.wrapping_add(d);
                    any = true;
                }
                Version::Pending | Version::Dropped => continue,
            }
        }
        any.then(|| base().wrapping_add(delta))
    }
}

fn merge_ops(a: AccessOp, b: AccessOp) -> AccessOp {
    use AccessOp::*;
    match (a, b) {
        (Read, Read) => Read,
        (Read, Write) | (Write, Read) | (ReadWrite, _) | (_, ReadWrite) => ReadWrite,
        (Write, Write) => Write,
        // A full write subsumes deltas for ordering purposes.
        (Add, Write) | (Write, Add) => ReadWrite,
        (Add, Add) => Add,
        (Add, Read) | (Read, Add) => ReadWrite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;
    use dmvcc_state::{Snapshot, StateKey};

    fn key() -> StateKey {
        StateKey::storage(Address::from_u64(1), U256::from(7u64))
    }

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    fn resolve(seq: &AccessSequence, tx: usize, snapshot: &Snapshot) -> ReadResolution {
        seq.resolve_read(tx, || snapshot.get(&key()))
    }

    /// The commit-phase flush of one sequence stored under [`key`].
    fn final_writes(
        snapshot: &Snapshot,
        build: impl FnOnce(&mut AccessSequence),
    ) -> dmvcc_state::WriteSet {
        let sharded = crate::sharded::ShardedSequences::new();
        let id = sharded.intern(key());
        build(sharded.shard_for(id).sequence_mut(id));
        sharded.final_writes(snapshot, 1)
    }

    #[test]
    fn read_with_no_writes_resolves_to_snapshot() {
        let seq = AccessSequence::new();
        let snapshot = Snapshot::from_entries([(key(), u(55))]);
        assert_eq!(resolve(&seq, 3, &snapshot), ReadResolution::Ready(u(55)));
    }

    #[test]
    fn read_blocks_on_pending_predicted_write() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Read);
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Blocked { writer: 1 }
        );
    }

    #[test]
    fn read_sees_closest_preceding_finished_write() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(5, AccessOp::Write);
        seq.version_write(1, u(10), false);
        seq.version_write(5, u(50), false);
        // tx 3 reads tx 1's version, not tx 5's (versioning!).
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Ready(u(10))
        );
        // tx 7 reads tx 5's version.
        assert_eq!(
            resolve(&seq, 7, &Snapshot::empty()),
            ReadResolution::Ready(u(50))
        );
    }

    #[test]
    fn own_write_is_not_read_back() {
        // resolve_read(tx) looks strictly before tx: the executor handles
        // read-own-write via its local buffer W, as in Algorithm 1.
        let mut seq = AccessSequence::new();
        seq.version_write(3, u(30), false);
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Ready(U256::ZERO)
        );
    }

    #[test]
    fn adds_merge_onto_base_version() {
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(100), false);
        seq.version_write(2, u(5), true);
        seq.version_write(4, u(7), true);
        assert_eq!(
            resolve(&seq, 6, &Snapshot::empty()),
            ReadResolution::Ready(u(112))
        );
        // A reader between the adds sees only the first delta.
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Ready(u(105))
        );
    }

    #[test]
    fn adds_merge_onto_snapshot_when_no_write() {
        let mut seq = AccessSequence::new();
        seq.version_write(2, u(5), true);
        let snapshot = Snapshot::from_entries([(key(), u(100))]);
        assert_eq!(resolve(&seq, 4, &snapshot), ReadResolution::Ready(u(105)));
    }

    #[test]
    fn read_blocks_on_pending_add() {
        let mut seq = AccessSequence::new();
        seq.predict(2, AccessOp::Add);
        assert_eq!(
            resolve(&seq, 4, &Snapshot::empty()),
            ReadResolution::Blocked { writer: 2 }
        );
    }

    #[test]
    fn version_write_allows_waiting_readers() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Read);
        seq.predict(4, AccessOp::Read);
        let effect = seq.version_write(1, u(10), false);
        assert_eq!(effect.allowed, vec![3, 4]);
        assert!(effect.aborted.is_empty());
    }

    #[test]
    fn version_write_aborts_completed_stale_reads() {
        // The Fig. 5 scenario: T1 writes, T3 reads it, then T2's write
        // appears (undetected before) → T3 must abort.
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(10), false);
        seq.mark_read(3);
        let effect = seq.version_write(2, u(20), false);
        assert_eq!(effect.aborted, vec![3]);
        assert!(effect.allowed.is_empty());
    }

    #[test]
    fn version_write_scan_stops_at_next_write() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Read);
        seq.predict(5, AccessOp::Write);
        seq.predict(7, AccessOp::Read);
        let effect = seq.version_write(1, u(10), false);
        // Reader 3 is mine; reader 7 belongs to writer 5.
        assert_eq!(effect.allowed, vec![3]);
    }

    #[test]
    fn version_write_scan_passes_adds_and_dropped() {
        let mut seq = AccessSequence::new();
        seq.predict(2, AccessOp::Add);
        seq.predict(4, AccessOp::Write);
        seq.predict(6, AccessOp::Read);
        seq.drop_version(4);
        // Reader 6 is still blocked by the pending add at 2: a version
        // below it turns no read of 6 ready.
        let effect = seq.version_write(1, u(10), false);
        assert_eq!(effect, VersionWriteEffect::default());
        // The add's publication clears the last blocker: the dropped write
        // at 4 is transparent, and 6 reads my version plus the delta.
        let effect = seq.version_write(2, u(5), true);
        assert_eq!(effect.allowed, vec![6]);
        assert_eq!(
            resolve(&seq, 6, &Snapshot::empty()),
            ReadResolution::Ready(u(15))
        );
    }

    #[test]
    fn version_write_aborts_stale_read_on_write_entry() {
        // The seed-82 shape: tx 8 holds a predicted ω entry but its read
        // was unpredicted (`mark_read` flags it without changing the op).
        // When tx 3's unpredicted write surfaces upstream, tx 8's consumed
        // read is stale and must abort — the scan cannot simply stop at
        // tx 8's write barrier.
        let mut seq = AccessSequence::new();
        seq.predict(8, AccessOp::Write);
        seq.mark_read(8);
        seq.version_write(8, u(2), false);
        let effect = seq.version_write(3, u(26), false);
        assert_eq!(effect.aborted, vec![8]);
        assert!(effect.allowed.is_empty());
    }

    #[test]
    fn version_write_aborts_stale_read_on_add_entry() {
        // Same with an ω̄ entry: a check-then-increment transaction reads
        // the key it adds to; a new upstream version invalidates the read
        // even though the add itself is commutative.
        let mut seq = AccessSequence::new();
        seq.predict(5, AccessOp::Add);
        seq.mark_read(5);
        seq.version_write(5, u(1), true);
        let effect = seq.version_write(2, u(40), false);
        assert_eq!(effect.aborted, vec![5]);
    }

    #[test]
    fn version_write_scan_still_stops_at_stale_write_barrier() {
        // The stale writer aborts, but its (about-to-be-reset) write still
        // bounds the scan: readers past it belong to that version and are
        // handled by the cascade's own reset effect.
        let mut seq = AccessSequence::new();
        seq.predict(4, AccessOp::Write);
        seq.mark_read(4);
        seq.version_write(4, u(7), false);
        seq.mark_read(6);
        let effect = seq.version_write(1, u(3), false);
        assert_eq!(effect.aborted, vec![4]);
    }

    #[test]
    fn theta_upgrade_on_read_then_write() {
        let mut seq = AccessSequence::new();
        seq.predict(2, AccessOp::Read);
        seq.version_write(2, u(9), false);
        let entry = seq.entries().next().unwrap();
        assert_eq!(entry.op, AccessOp::ReadWrite);
        assert_eq!(entry.version, Version::Write(u(9)));
    }

    #[test]
    fn theta_read_side_aborts_like_reads() {
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(10), false);
        seq.predict(3, AccessOp::ReadWrite);
        seq.mark_read(3);
        seq.version_write(3, u(30), false);
        // tx 2's late write invalidates tx 3's read.
        let effect = seq.version_write(2, u(20), false);
        assert_eq!(effect.aborted, vec![3]);
    }

    #[test]
    fn drop_version_aborts_consumers() {
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(10), false);
        seq.mark_read(2);
        let effect = seq.drop_version(1);
        assert_eq!(effect.aborted, vec![2]);
        // After the drop, reads pass through to the snapshot.
        let snapshot = Snapshot::from_entries([(key(), u(99))]);
        assert_eq!(resolve(&seq, 2, &snapshot), ReadResolution::Ready(u(99)));
    }

    #[test]
    fn reset_returns_entry_to_pending() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.version_write(1, u(10), false);
        seq.reset(1);
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Blocked { writer: 1 }
        );
    }

    #[test]
    fn rollback_unpredicted_drops_instead_of_pending() {
        // A dynamically discovered write (no prediction) aborts: the entry
        // must not return to Pending — the re-run may never write the key
        // again, and nothing else would ever fulfill or drop it.
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(10), false);
        seq.rollback_unpredicted(1);
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Ready(U256::ZERO),
            "reader wedged on rolled-back dynamic write"
        );
        // If the re-run does write again, the dropped entry revives.
        seq.version_write(1, u(20), false);
        assert_eq!(
            resolve(&seq, 3, &Snapshot::empty()),
            ReadResolution::Ready(u(20)),
            "revived write not visible"
        );
    }

    #[test]
    fn rollback_unpredicted_clears_consumed_read() {
        let mut seq = AccessSequence::new();
        seq.predict(2, AccessOp::Read);
        seq.mark_read(2);
        seq.rollback_unpredicted(2);
        // The cleared read is no longer a stale-read abort candidate. Nor
        // is it woken: the snapshot served it before tx 1's write
        // appeared, so the write turned nothing from blocked to ready.
        let effect = seq.version_write(1, u(5), false);
        assert_eq!(effect, VersionWriteEffect::default());
    }

    #[test]
    fn delta_republished_after_reset_of_a_full_write_reads_as_a_delta() {
        // An attempt publishes a full write and is aborted; the re-run
        // adds instead. The entry is still predicted ω — what is read is
        // what was published.
        let mut seq = AccessSequence::new();
        seq.predict(2, AccessOp::Write);
        seq.version_write(2, u(50), false);
        seq.reset(2);
        seq.version_write(2, u(3), true);
        let snapshot = Snapshot::from_entries([(key(), u(100))]);
        assert_eq!(resolve(&seq, 4, &snapshot), ReadResolution::Ready(u(103)));
    }

    #[test]
    fn scan_barrier_is_the_published_version_not_the_prediction() {
        // A delta fulfilling a predicted ω or θ entry is transparent: the
        // reader beyond it merged tx 1's (absent) version, so tx 1's late
        // write makes that read stale.
        for predicted in [AccessOp::Write, AccessOp::ReadWrite] {
            let mut seq = AccessSequence::new();
            seq.predict(4, predicted);
            seq.version_write(4, u(5), true);
            seq.mark_read(6);
            assert_eq!(seq.version_write(1, u(10), false).aborted, vec![6]);
            assert_eq!(
                resolve(&seq, 6, &Snapshot::empty()),
                ReadResolution::Ready(u(15))
            );
        }
        // While nothing is published the prediction still bounds the scan:
        // readers beyond a pending ω belong to that version.
        let mut seq = AccessSequence::new();
        seq.predict(4, AccessOp::Write);
        seq.predict(6, AccessOp::Read);
        assert_eq!(
            seq.version_write(1, u(10), false),
            VersionWriteEffect::default()
        );
    }

    #[test]
    fn final_writes_flush_what_was_published() {
        let snapshot = Snapshot::from_entries([(key(), u(100))]);
        // A predicted ω fulfilled by a delta flushes as base + delta.
        let writes = final_writes(&snapshot, |seq| {
            seq.predict(2, AccessOp::Write);
            seq.version_write(2, u(5), true);
        });
        assert_eq!(writes.get(&key()), Some(&u(105)));
        // So does a dropped ω entry revived by a delta.
        let writes = final_writes(&snapshot, |seq| {
            seq.version_write(2, u(50), false);
            seq.drop_version(2);
            seq.version_write(2, u(7), true);
            assert_eq!(resolve(seq, 3, &snapshot), ReadResolution::Ready(u(107)));
        });
        assert_eq!(writes.get(&key()), Some(&u(107)));
    }

    #[test]
    fn repeated_adds_by_same_tx_accumulate() {
        let mut seq = AccessSequence::new();
        seq.version_write(1, u(5), true);
        seq.version_write(1, u(7), true);
        assert_eq!(
            resolve(&seq, 2, &Snapshot::empty()),
            ReadResolution::Ready(u(12))
        );
    }

    #[test]
    fn final_writes_take_last_version_plus_deltas() {
        let writes = final_writes(&Snapshot::empty(), |seq| {
            seq.version_write(1, u(10), false);
            seq.version_write(3, u(30), false);
            seq.version_write(5, u(4), true);
        });
        assert_eq!(writes.get(&key()), Some(&u(34)));
    }

    #[test]
    fn final_writes_deltas_only_use_snapshot_base() {
        let snapshot = Snapshot::from_entries([(key(), u(100))]);
        let writes = final_writes(&snapshot, |seq| {
            seq.version_write(2, u(5), true);
        });
        assert_eq!(writes.get(&key()), Some(&u(105)));
    }

    #[test]
    fn final_writes_skip_read_only_and_dropped() {
        let writes = final_writes(&Snapshot::empty(), |seq| {
            seq.mark_read(1);
            seq.version_write(2, u(20), false);
            seq.drop_version(2);
        });
        assert!(writes.is_empty());
    }

    #[test]
    fn unpredicted_read_inserts_entry() {
        let mut seq = AccessSequence::new();
        seq.mark_read(4);
        let entries: Vec<AccessEntry> = seq.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op, AccessOp::Read);
        assert!(entries[0].read_done);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut seq = AccessSequence::new();
        for tx in 0..8 {
            seq.predict(tx, AccessOp::Read);
        }
        let bytes = seq.retained_bytes();
        assert!(bytes >= (8 * (std::mem::size_of::<u32>() + std::mem::size_of::<Slot>())) as u64);
        seq.clear();
        assert!(seq.is_empty());
        assert_eq!(seq.retained_bytes(), bytes);
    }

    #[test]
    fn predict_merges_ops() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Read);
        seq.predict(1, AccessOp::Write);
        assert_eq!(seq.entries().next().unwrap().op, AccessOp::ReadWrite);
        let mut seq2 = AccessSequence::new();
        seq2.predict(1, AccessOp::Add);
        seq2.predict(1, AccessOp::Add);
        let entries: Vec<AccessEntry> = seq2.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op, AccessOp::Add);
    }

    #[test]
    fn the_publication_that_clears_the_last_add_wakes_the_reader() {
        // Four pending adds, then a reader: whatever the order the adds
        // publish in, the reader is listed by exactly the last one.
        let orders = permutations(&[1, 2, 3, 4]);
        assert_eq!(orders.len(), 24);
        for order in orders {
            let mut seq = AccessSequence::new();
            for tx in 1..=4 {
                seq.predict(tx, AccessOp::Add);
            }
            seq.predict(9, AccessOp::Read);
            for (i, &tx) in order.iter().enumerate() {
                let effect = seq.version_write(tx, u(tx as u64), true);
                let expected: Vec<usize> = if i == 3 { vec![9] } else { vec![] };
                assert_eq!(effect.allowed, expected, "order {order:?}");
                assert!(effect.aborted.is_empty() && effect.blocked.is_empty());
            }
            assert_eq!(
                resolve(&seq, 9, &Snapshot::empty()),
                ReadResolution::Ready(u(10))
            );
        }
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut all = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                all.push(tail);
            }
        }
        all
    }

    #[test]
    fn a_pending_write_below_the_change_suppresses_the_wake() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Add);
        seq.predict(5, AccessOp::Read);
        // The add publishes, but the write at 1 still blocks reader 5.
        assert_eq!(
            seq.version_write(3, u(2), true),
            VersionWriteEffect::default()
        );
        // A drop is no different.
        seq.reset(3);
        assert_eq!(seq.drop_version(3), VersionWriteEffect::default());
        // A full write between the two hides the pending one: 5 turns
        // ready, and the add above the full write wakes no one.
        assert_eq!(seq.version_write(2, u(40), false).allowed, vec![5]);
        assert_eq!(
            seq.version_write(3, u(2), true),
            VersionWriteEffect::default()
        );
        assert_eq!(
            resolve(&seq, 5, &Snapshot::empty()),
            ReadResolution::Ready(u(42))
        );
    }

    #[test]
    fn a_reset_re_blocks_and_the_republication_wakes_again() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Read);
        seq.predict(4, AccessOp::ReadWrite);
        seq.predict(6, AccessOp::Read);
        assert_eq!(seq.version_write(1, u(10), false).allowed, vec![3, 4]);
        seq.mark_read(3);
        // The reset re-blocks both readers up to the θ entry, consumed or
        // not, and aborts the one that consumed; 6 belongs to the θ.
        let effect = seq.reset(1);
        assert_eq!(effect.blocked, vec![3, 4]);
        assert_eq!(effect.aborted, vec![3]);
        assert!(effect.allowed.is_empty());
        // Resetting a pending entry again changes nothing.
        assert_eq!(seq.reset(1), VersionWriteEffect::default());
        seq.reset(3);
        let effect = seq.version_write(1, u(11), false);
        assert_eq!((effect.allowed, effect.blocked), (vec![3, 4], vec![]));
    }

    #[test]
    fn read_resolves_and_marks_in_one_call() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(3, AccessOp::Read);
        let base = || u(7);
        // Blocked: nothing is marked, and a predicted read is counted
        // already.
        let blocked = ReadResolution::Blocked { writer: 1 };
        assert_eq!(seq.read(3, base), (blocked, false));
        assert!(seq.entries().all(|entry| !entry.read_done));
        seq.version_write(1, u(10), false);
        assert_eq!(seq.read(3, base), (ReadResolution::Ready(u(10)), false));
        // An unpredicted read inserts its ρ entry, marked.
        assert_eq!(seq.read(5, base), (ReadResolution::Ready(u(10)), false));
        let marked: Vec<usize> = seq
            .entries()
            .filter(|e| e.read_done)
            .map(|e| e.tx)
            .collect();
        assert_eq!(marked, vec![3, 5]);
        assert_eq!(seq.version_write(2, u(20), false).aborted, vec![3, 5]);
    }

    #[test]
    fn a_read_that_blocks_becomes_a_counted_read() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Write);
        seq.predict(4, AccessOp::Read);
        seq.predict(6, AccessOp::Write);
        let base = || u(7);
        let blocked = ReadResolution::Blocked { writer: 1 };
        // An unpredicted read that blocks is counted from then on: once,
        // whether it inserts a ρ entry (3) or flags a write's entry (6).
        assert_eq!(seq.read(3, base), (blocked, true));
        assert_eq!(seq.read(3, base), (blocked, false));
        assert_eq!(seq.read(6, base), (blocked, true));
        // A predicted read never becomes counted: it was all along.
        assert_eq!(seq.read(4, base), (blocked, false));
        // The publication that unblocks them lists every counted reader,
        // and a reset below them lists them all as blocked again.
        assert_eq!(seq.version_write(1, u(10), false).allowed, vec![3, 4, 6]);
        assert_eq!(seq.reset(1).blocked, vec![3, 4, 6]);
        // Their own resets and rollbacks keep them counted.
        seq.rollback_unpredicted(3);
        seq.reset(6);
        assert_eq!(seq.version_write(1, u(11), false).allowed, vec![3, 4, 6]);
        assert_eq!(seq.read(3, base), (ReadResolution::Ready(u(11)), false));
    }

    #[test]
    fn an_add_chain_published_in_order_is_visited_once() {
        // 1 000 predicted adds published in block order, then a reader:
        // each publication visits the next pending add and nothing else,
        // and the last one the reader.
        let k = 1_000;
        let mut seq = AccessSequence::new();
        for tx in 0..k {
            seq.predict(tx, AccessOp::Add);
        }
        seq.predict(k, AccessOp::Read);
        let mut visited = 0;
        let mut effect = VersionWriteEffect::default();
        for tx in 0..k {
            effect.clear();
            visited += seq.apply(tx, VersionOp::Publish(u(1), true), &mut effect);
            assert_eq!(effect.allowed.len(), usize::from(tx == k - 1));
        }
        assert!(visited <= 2 * (k + 1), "{visited} entries visited");
        assert_eq!(
            resolve(&seq, k, &Snapshot::empty()),
            ReadResolution::Ready(u(k as u64))
        );
    }
}

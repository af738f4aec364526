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

/// One entry of an access sequence.
#[derive(Debug, Clone)]
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

impl AccessEntry {
    fn predicted(tx: usize, op: AccessOp) -> Self {
        AccessEntry {
            tx,
            op,
            version: Version::Pending,
            read_done: false,
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

/// Outcome of [`AccessSequence::version_write`] — the paper's Algorithm 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionWriteEffect {
    /// Readers of this version that had not yet read: they may now proceed.
    pub allowed: Vec<usize>,
    /// Readers that already consumed a now-stale version: abort them.
    pub aborted: Vec<usize>,
}

/// The access sequence of a single state item.
#[derive(Debug, Clone, Default)]
pub struct AccessSequence {
    /// Entries sorted by transaction index (at most one per transaction).
    entries: Vec<AccessEntry>,
}

impl AccessSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        AccessSequence::default()
    }

    /// The entries in block order (read-only view).
    pub fn entries(&self) -> &[AccessEntry] {
        &self.entries
    }

    fn position(&self, tx: usize) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&tx, |e| e.tx)
    }

    /// Registers a predicted access from a C-SAG. Merges with an existing
    /// prediction for the same transaction (read + write → θ).
    pub fn predict(&mut self, tx: usize, op: AccessOp) {
        // Binding walks the block in order: the common case is an append.
        if self.entries.last().is_none_or(|last| last.tx < tx) {
            self.entries.push(AccessEntry::predicted(tx, op));
            return;
        }
        match self.position(tx) {
            Ok(i) => {
                let existing = &mut self.entries[i];
                existing.op = merge_ops(existing.op, op);
            }
            Err(i) => self.entries.insert(i, AccessEntry::predicted(tx, op)),
        }
    }

    /// Resolves the value transaction `tx` should read (paper §III-B2):
    /// the closest preceding finished write (or the snapshot), plus all
    /// finished ω̄ deltas in between. `base` supplies the snapshot value
    /// lazily, so reads that resolve to a version never probe the snapshot.
    ///
    /// Does **not** mark the read as done — call [`Self::mark_read`] once
    /// the reader actually consumes the value.
    pub fn resolve_read(&self, tx: usize, base: impl FnOnce() -> U256) -> ReadResolution {
        let upper = match self.position(tx) {
            Ok(i) => i,
            Err(i) => i,
        };
        let mut delta = U256::ZERO;
        for entry in self.entries[..upper].iter().rev() {
            match entry.version {
                Version::Write(value) => return ReadResolution::Ready(value.wrapping_add(delta)),
                Version::Delta(d) => delta = delta.wrapping_add(d),
                Version::Pending if entry.op != AccessOp::Read => {
                    return ReadResolution::Blocked { writer: entry.tx };
                }
                Version::Pending | Version::Dropped => continue,
            }
        }
        ReadResolution::Ready(base().wrapping_add(delta))
    }

    /// Empties the sequence, keeping the entry buffer's capacity — block
    /// arena reuse ([`crate::ShardedSequences`] recycles shard storage
    /// across blocks).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Heap bytes retained by the entry buffer (arena accounting).
    pub fn retained_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<AccessEntry>()) as u64
    }

    /// Marks transaction `tx`'s read side as performed (inserting a ρ entry
    /// if the read was not predicted).
    pub fn mark_read(&mut self, tx: usize) {
        match self.position(tx) {
            Ok(i) => self.entries[i].read_done = true,
            Err(i) => {
                let mut entry = AccessEntry::predicted(tx, AccessOp::Read);
                entry.read_done = true;
                self.entries.insert(i, entry);
            }
        }
    }

    /// The paper's Algorithm 3 (`Version_Write`): records the value written
    /// by `tx` (inserting an ω entry if unpredicted, upgrading ρ → θ), and
    /// returns which later readers of this version may proceed (`allowed`)
    /// and which already read a stale version (`aborted`).
    ///
    /// Pass `delta = true` for a commutative ω̄ value.
    pub fn version_write(&mut self, tx: usize, value: U256, delta: bool) -> VersionWriteEffect {
        let pos = match self.position(tx) {
            Ok(i) => i,
            Err(i) => {
                let op = if delta {
                    AccessOp::Add
                } else {
                    AccessOp::Write
                };
                self.entries.insert(i, AccessEntry::predicted(tx, op));
                i
            }
        };
        let entry = &mut self.entries[pos];
        if delta {
            // A delta folds onto whatever version this transaction already
            // holds (repeated adds accumulate; an add after the
            // transaction's own full write extends that write). A pending
            // or dropped entry holds nothing: the delta starts fresh,
            // whatever the entry was predicted as.
            if entry.op == AccessOp::Read {
                entry.op = AccessOp::Add;
            }
            entry.version = match entry.version {
                Version::Write(v) => Version::Write(v.wrapping_add(value)),
                Version::Delta(d) => Version::Delta(d.wrapping_add(value)),
                Version::Pending | Version::Dropped => Version::Delta(value),
            };
        } else {
            entry.op = merge_ops(entry.op, AccessOp::Write);
            entry.version = Version::Write(value);
        }
        self.downstream_effect(pos)
    }

    /// Drops transaction `tx`'s version (deterministic abort, rollback of a
    /// misprediction, or the `null` write of the paper's Algorithm 4),
    /// returning readers that consumed it and must abort.
    pub fn drop_version(&mut self, tx: usize) -> VersionWriteEffect {
        let Ok(pos) = self.position(tx) else {
            return VersionWriteEffect::default();
        };
        self.entries[pos].version = Version::Dropped;
        self.downstream_effect(pos)
    }

    /// Resets `tx`'s entry to pending (re-execution of an aborted
    /// transaction re-announces its predicted accesses), returning affected
    /// downstream readers.
    pub fn reset(&mut self, tx: usize) -> VersionWriteEffect {
        let Ok(pos) = self.position(tx) else {
            return VersionWriteEffect::default();
        };
        let entry = &mut self.entries[pos];
        entry.version = Version::Pending;
        entry.read_done = false;
        if entry.op != AccessOp::Read {
            self.downstream_effect(pos)
        } else {
            VersionWriteEffect::default()
        }
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
        let Ok(pos) = self.position(tx) else {
            return VersionWriteEffect::default();
        };
        let entry = &mut self.entries[pos];
        entry.read_done = false;
        if entry.op != AccessOp::Read {
            entry.version = Version::Dropped;
            self.downstream_effect(pos)
        } else {
            VersionWriteEffect::default()
        }
    }

    /// Scans forward from `pos` classifying affected readers: readers whose
    /// resolution includes the version at `pos` are `allowed` (if still
    /// waiting) or `aborted` (if they already read). The scan stops at the
    /// next full write — published, or pending on a predicted ω/θ entry —
    /// whose readers observe that version instead; deltas are transparent
    /// whatever their entry was predicted as.
    ///
    /// The stale-read check keys on `read_done` for *every* entry op, not
    /// just ρ/θ: [`Self::mark_read`] records unpredicted reads on existing
    /// ω/ω̄ entries without changing their op, so a pure-write or add entry
    /// can carry a consumed read that this version invalidates.
    fn downstream_effect(&self, pos: usize) -> VersionWriteEffect {
        let mut effect = VersionWriteEffect::default();
        for entry in &self.entries[pos + 1..] {
            if entry.read_done {
                effect.aborted.push(entry.tx);
            } else if matches!(entry.op, AccessOp::Read | AccessOp::ReadWrite) {
                effect.allowed.push(entry.tx);
            }
            let barrier = match entry.version {
                Version::Write(_) => true,
                Version::Pending => matches!(entry.op, AccessOp::Write | AccessOp::ReadWrite),
                Version::Delta(_) | Version::Dropped => false,
            };
            if barrier {
                break;
            }
        }
        effect
    }

    /// The committed value of this item after all transactions finish: the
    /// last full write merged with the deltas above it, or the snapshot
    /// value plus every delta; `None` if nothing was published. `base`
    /// supplies the snapshot value lazily, as for [`Self::resolve_read`].
    pub(crate) fn final_value(&self, base: impl FnOnce() -> U256) -> Option<U256> {
        let mut delta = U256::ZERO;
        let mut any = false;
        for entry in self.entries.iter().rev() {
            match entry.version {
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
        sharded.final_writes(snapshot)
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
        let effect = seq.version_write(1, u(10), false);
        // The dropped write at 4 is transparent; 6 reads my version.
        assert_eq!(effect.allowed, vec![6]);
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
        assert_eq!(seq.entries()[0].op, AccessOp::ReadWrite);
        assert_eq!(seq.entries()[0].version, Version::Write(u(9)));
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
        // The cleared read is no longer a stale-read abort candidate.
        let effect = seq.version_write(1, u(5), false);
        assert!(effect.aborted.is_empty());
        assert_eq!(effect.allowed, vec![2]);
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
        assert_eq!(seq.entries().len(), 1);
        assert_eq!(seq.entries()[0].op, AccessOp::Read);
        assert!(seq.entries()[0].read_done);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut seq = AccessSequence::new();
        for tx in 0..8 {
            seq.predict(tx, AccessOp::Read);
        }
        let bytes = seq.retained_bytes();
        assert!(bytes >= (8 * std::mem::size_of::<AccessEntry>()) as u64);
        seq.clear();
        assert!(seq.entries().is_empty());
        assert_eq!(seq.retained_bytes(), bytes);
    }

    #[test]
    fn predict_merges_ops() {
        let mut seq = AccessSequence::new();
        seq.predict(1, AccessOp::Read);
        seq.predict(1, AccessOp::Write);
        assert_eq!(seq.entries()[0].op, AccessOp::ReadWrite);
        let mut seq2 = AccessSequence::new();
        seq2.predict(1, AccessOp::Add);
        seq2.predict(1, AccessOp::Add);
        assert_eq!(seq2.entries()[0].op, AccessOp::Add);
        assert_eq!(seq2.entries().len(), 1);
    }
}

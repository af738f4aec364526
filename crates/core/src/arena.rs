//! Block-arena memory recycling for the hot execution path.
//!
//! Without recycling the sharded executor pays the allocator on every
//! block — fresh shard tables, fresh per-transaction scheduling state —
//! and on every attempt: fresh write buffers, fresh publish batches. What
//! describes one transaction or one attempt is a handful of entries keyed
//! by dense [`dmvcc_state::KeyId`], so it is one [`dmvcc_state::SortedVec`]
//! each (binary search on a dense vector beats hashing, tree nodes, and a
//! bitset as wide as the block's key space; `clear` keeps the buffer): the
//! ids a transaction touched without predicting them, the ids an attempt
//! published, and the two maps of [`WriteBuffer`], which this module holds.
//!
//! The pools live next to their types: the executor-level ones (shard
//! storage, per-tx states, the bound block's flat arrays) in `sharded.rs` /
//! `parallel.rs`, recycled from block *N* into block *N+1* and reported as
//! `ExecutorStats::alloc_bytes_saved`; the per-attempt ones in the scratch
//! value each `parallel.rs` worker owns, cleared from one attempt to the
//! next.

use dmvcc_primitives::U256;
use dmvcc_state::{KeyId, SortedVec};

use crate::access::VersionOp;

/// The write side of one execution attempt, shared by every engine's host:
/// buffered full writes and ω̄ deltas keyed by interned id, with the serial
/// oracle's merge rules (a full write absorbs the attempt's earlier deltas,
/// a delta after a full write extends it), so no key is ever in both maps.
#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    writes: SortedVec<(KeyId, U256)>,
    adds: SortedVec<(KeyId, U256)>,
}

impl WriteBuffer {
    /// Read-your-writes: `Ok(value)` if the attempt fully wrote `id`,
    /// otherwise `Err(delta)` — the attempt's own delta (zero if none), to
    /// be layered onto the value the store resolves.
    pub(crate) fn read(&self, id: KeyId) -> Result<U256, U256> {
        match self.writes.get(&id) {
            Some(&(_, value)) => Ok(value),
            None => Err(self.adds.get(&id).map_or(U256::ZERO, |&(_, delta)| delta)),
        }
    }

    pub(crate) fn store(&mut self, id: KeyId, value: U256) {
        self.adds.remove(&id);
        self.writes.insert((id, value));
    }

    pub(crate) fn add(&mut self, id: KeyId, delta: U256) {
        match self.read(id) {
            Ok(value) => self.writes.insert((id, value.wrapping_add(delta))),
            Err(held) => self.adds.insert((id, held.wrapping_add(delta))),
        };
    }

    /// Forgets `id` (its buffered value was published early).
    pub(crate) fn remove(&mut self, id: KeyId) {
        self.writes.remove(&id);
        self.adds.remove(&id);
    }

    /// Empties the buffer, keeping both maps' capacity for the next attempt.
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
        self.adds.clear();
    }

    /// Everything buffered, as publish ops: full writes, then deltas, each
    /// in ascending id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (KeyId, VersionOp)> + '_ {
        let writes = self.writes.iter();
        let adds = self.adds.iter();
        writes
            .map(|&(id, v)| (id, VersionOp::Publish(v, false)))
            .chain(adds.map(|&(id, v)| (id, VersionOp::Publish(v, true))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_buffer_folds_stores_and_adds() {
        let (id, u) = (KeyId::from_index, |v: u64| U256::from(v));
        let entries = |buffer: &WriteBuffer| -> Vec<(usize, U256, bool)> {
            let published = buffer.entries().map(|(id, op)| match op {
                VersionOp::Publish(value, delta) => (id.index(), value, delta),
                other => panic!("a buffer only publishes, got {other:?}"),
            });
            published.collect()
        };
        let mut buffer = WriteBuffer::default();
        assert_eq!(buffer.read(id(5)), Err(U256::ZERO));

        // Adds accumulate as a delta; a store after them absorbs them.
        buffer.add(id(5), u(2));
        buffer.add(id(5), u(3));
        assert_eq!(buffer.read(id(5)), Err(u(5)));
        buffer.store(id(5), u(50));
        assert_eq!(buffer.read(id(5)), Ok(u(50)));
        assert_eq!(entries(&buffer), [(5, u(50), false)]);

        // An add after a store extends the write; it starts no delta.
        buffer.add(id(5), u(2));
        assert_eq!(buffer.read(id(5)), Ok(u(52)));
        assert_eq!(entries(&buffer), [(5, u(52), false)]);

        // Writes first, then deltas, each in id order, whatever the order
        // they arrived in.
        buffer.add(id(9), u(9));
        buffer.store(id(1), u(10));
        buffer.add(id(3), u(1));
        buffer.add(id(3), U256::MAX); // wraps to 0, still a delta
        assert_eq!(
            entries(&buffer),
            [
                (1, u(10), false),
                (5, u(52), false),
                (3, u(0), true),
                (9, u(9), true)
            ]
        );

        // `remove` forgets the id in whichever map holds it.
        buffer.remove(id(5));
        buffer.remove(id(9));
        buffer.remove(id(7)); // never buffered
        assert_eq!(buffer.read(id(5)), Err(U256::ZERO));
        assert_eq!(entries(&buffer), [(1, u(10), false), (3, u(0), true)]);

        // No id is ever in both maps, through any order of the three.
        let mut buffer = WriteBuffer::default();
        for step in 0..64u64 {
            let key = id((step % 4) as usize);
            match (step / 4 + step) % 3 {
                0 => buffer.store(key, u(step)),
                1 => buffer.add(key, u(step)),
                _ => buffer.remove(key),
            }
            let ids: Vec<usize> = entries(&buffer).iter().map(|entry| entry.0).collect();
            let mut unique = ids.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), ids.len(), "an id in both maps: {ids:?}");
        }

        buffer.clear();
        assert!(entries(&buffer).is_empty());
    }
}

//! How many workers this crate's hashing asks
//! [`dmvcc_primitives::workers`] for.
//!
//! Everything in this crate that spreads Keccak work over cores — the state
//! trie's dirty subtrees, a block's trie keys, the subtrees of an
//! index-keyed list — cuts it into [`Shares`](dmvcc_primitives::workers::Shares)
//! and runs it through [`on_workers`](dmvcc_primitives::workers::on_workers);
//! this module decides how many workers a job is worth.

use std::sync::OnceLock;

/// The hashing parallelism a [`crate::StateDb`] starts with and
/// [`crate::index_root`] uses: the host's, capped at the 16-way trie fanout
/// that root hashing hands out. Read from the host once a process.
pub fn default_hash_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(16))
            .unwrap_or(1)
    })
}

/// Items — trie keys to hash, entries of an index-keyed list — per worker
/// beyond the caller: what a spawn has to be worth (some fifty microseconds,
/// a hundred hashes or more).
const ITEMS_PER_SPAWN: usize = 512;

/// How many of `threads` workers `items` items are worth: the caller, and
/// one more per [`ITEMS_PER_SPAWN`].
pub(crate) fn workers_for(threads: usize, items: usize) -> usize {
    threads.min(1 + items / ITEMS_PER_SPAWN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spawn_has_to_be_worth_its_items() {
        let workers: Vec<usize> = [0, 511, 512, 1_535, 1_536, 10_000]
            .map(|items| workers_for(4, items))
            .into();
        assert_eq!(workers, [1, 1, 2, 3, 4, 4]);
        assert_eq!(workers_for(1, 10_000), 1);
    }
}

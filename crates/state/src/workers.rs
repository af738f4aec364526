//! The scoped worker threads that hashing is shared out to.
//!
//! Everything in this crate that spreads Keccak work over cores — the state
//! trie's dirty subtrees, a block's trie keys, the subtrees of an
//! index-keyed list — does it the same way: the work is cut into shares
//! ([`Shares`]) and [`on_workers`] runs one loop on every worker that takes
//! the next share until none is left, so a worker that starts late, or whose
//! core a neighbour is using, simply takes fewer. The caller is one of the
//! workers, the others live inside a [`std::thread::scope`], and with one
//! worker nothing is spawned and the same loop runs on the caller. A worker
//! that panics takes the caller with it once the others have finished, with
//! the worker's own message.

use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

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

/// The items of an iterator, handed out one at a time to whichever worker
/// asks next. An item may carry the `&mut` place its result goes to.
pub(crate) struct Shares<I>(Mutex<I>);

impl<I: Iterator> Shares<I> {
    pub(crate) fn new(items: I) -> Self {
        Shares(Mutex::new(items))
    }

    /// The next item nobody has taken yet.
    pub(crate) fn next(&self) -> Option<I::Item> {
        let mut items = self.0.lock().expect("a worker panicked taking its share");
        items.next()
    }
}

/// Runs `work` on `workers` threads at once — the caller and `workers - 1`
/// scoped threads — and returns when all are done. `workers` is taken as at
/// least 1.
pub(crate) fn on_workers(workers: usize, work: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(&work)).collect();
        work();
        for handle in spawned {
            handle.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
    })
}

/// Runs `beside` on a scoped thread while the caller runs `main`, and
/// returns both results; with one thread to use, `beside` and then `main`
/// run on the caller.
pub(crate) fn beside<A: Send, B>(
    threads: usize,
    beside: impl FnOnce() -> A + Send,
    main: impl FnOnce() -> B,
) -> (A, B) {
    if threads <= 1 {
        return (beside(), main());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(beside);
        let main = main();
        let beside = handle.join().unwrap_or_else(|panic| resume_unwind(panic));
        (beside, main)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_share_is_taken_once_whatever_the_number_of_workers() {
        for workers in [0usize, 1, 2, 5] {
            let mut squares = [0usize; 100];
            let shares = Shares::new(squares.iter_mut().enumerate());
            let runs = AtomicUsize::new(0);
            on_workers(workers, || {
                runs.fetch_add(1, Ordering::Relaxed);
                while let Some((i, square)) = shares.next() {
                    *square += i * i;
                }
            });
            assert_eq!(runs.load(Ordering::Relaxed), workers.max(1));
            assert!(squares
                .iter()
                .enumerate()
                .all(|(i, &square)| square == i * i));
        }
    }

    #[test]
    fn a_spawn_has_to_be_worth_its_items() {
        let workers: Vec<usize> = [0, 511, 512, 1_535, 1_536, 10_000]
            .map(|items| workers_for(4, items))
            .into();
        assert_eq!(workers, [1, 1, 2, 3, 4, 4]);
        assert_eq!(workers_for(1, 10_000), 1);
    }

    #[test]
    fn one_worker_is_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        on_workers(1, on_caller);
        beside(1, on_caller, on_caller);
        let (a, b) = beside(2, || std::thread::current().id(), || 7);
        assert_ne!(a, caller);
        assert_eq!(b, 7);
    }

    #[test]
    #[should_panic(expected = "a spawned worker gave up")]
    fn a_spawned_workers_panic_reaches_the_caller_with_its_message() {
        let caller = std::thread::current().id();
        on_workers(3, || {
            assert!(
                std::thread::current().id() == caller,
                "a spawned worker gave up"
            );
        });
    }

    #[test]
    #[should_panic(expected = "the job beside gave up")]
    fn a_panic_beside_reaches_the_caller_with_its_message() {
        beside(2, || panic!("the job beside gave up"), || ());
    }
}

//! The scoped worker threads every parallel stage of the workspace runs on.
//!
//! Hashing a trie's dirty subtrees, refining a block's C-SAGs, executing a
//! block, flushing its store: each spreads its work the same way. The work
//! is cut into shares ([`Shares`]), or is a loop that finds its own, and
//! [`on_workers`] runs one loop on every worker — so a worker that starts
//! late, or whose core a neighbour is using, simply takes fewer shares.
//! [`beside`] runs two different jobs at once.
//!
//! The policy is the same everywhere:
//!
//! - `n` workers are the caller and `n - 1` threads of a
//!   [`std::thread::scope`]; with one worker (or zero) nothing is spawned
//!   and the loop runs on the caller.
//! - The call returns once every worker has returned, so nothing a worker
//!   did can still be running after it: a stage that follows the call has
//!   the stage before it to itself.
//! - A worker that panics takes the caller with it, with the worker's own
//!   message, once the others have finished.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// The items of an iterator, handed out one at a time to whichever worker
/// asks next. An item may carry the `&mut` place its result goes to.
#[derive(Debug)]
pub struct Shares<I>(Mutex<I>);

impl<I: Iterator> Shares<I> {
    /// Shares out `items`.
    pub fn new(items: I) -> Self {
        Shares(Mutex::new(items))
    }

    /// The next item nobody has taken yet.
    pub fn next(&self) -> Option<I::Item> {
        let mut items = self.0.lock().expect("a worker panicked taking its share");
        items.next()
    }
}

/// Runs `work` on `workers` threads at once — the caller and `workers - 1`
/// scoped threads — and returns each worker's result, the caller's first,
/// once all are done. `workers` is taken as at least 1.
pub fn on_workers<R: Send>(workers: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(&work)).collect();
        let mut results = Vec::with_capacity(1 + spawned.len());
        results.push(work());
        for handle in spawned {
            results.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        results
    })
}

/// Runs `beside` on a scoped thread while the caller runs `main`, and
/// returns both results; with one thread to use, `beside` and then `main`
/// run on the caller.
pub fn beside<A: Send, B>(
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::current;

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
    fn every_worker_returns_its_result_the_callers_first() {
        let caller = current().id();
        for workers in [0usize, 1] {
            assert_eq!(on_workers(workers, || current().id()), [caller]);
        }
        let ids = on_workers(4, || current().id());
        assert_eq!(ids[0], caller);
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 4, "{ids:?}");
    }

    #[test]
    fn one_worker_is_the_caller() {
        let caller = current().id();
        let on_caller = || assert_eq!(current().id(), caller);
        on_workers(1, on_caller);
        beside(1, on_caller, on_caller);
        let (a, b) = beside(2, || current().id(), || 7);
        assert_ne!(a, caller);
        assert_eq!(b, 7);
    }

    #[test]
    #[should_panic(expected = "a spawned worker gave up")]
    fn a_spawned_workers_panic_reaches_the_caller_with_its_message() {
        let caller = current().id();
        on_workers(3, || {
            assert!(current().id() == caller, "a spawned worker gave up");
        });
    }

    #[test]
    #[should_panic(expected = "the job beside gave up")]
    fn a_panic_beside_reaches_the_caller_with_its_message() {
        beside(2, || panic!("the job beside gave up"), || ());
    }
}

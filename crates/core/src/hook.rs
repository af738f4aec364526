//! Scheduler hooks: the observation and perturbation surface of the
//! threaded executors.
//!
//! [`crate::ParallelExecutor`] (and [`crate::HybridExecutor`], which runs
//! on it) and [`crate::StmExecutor`] consult an optional [`SchedHook`] at
//! every scheduling decision point — dequeue, publish, park/wake, abort,
//! commit, the shard critical section, the release-point gate, and the
//! optimistic engine's reads and validations. Only the optimistic engine
//! parks inside a transaction; on the sharded engine a park is an idle
//! worker's, and a read that meets a pending version shows as the reader
//! aborting itself (`on_abort` with `root == victim`).
//!
//! Production runs install no hook ([`crate::ExecutorKind::build`] takes
//! `None`): every call site is an `Option` that is `None`, so the disabled
//! path costs one predicted branch and no virtual dispatch.
//!
//! The hook exists for *deterministic-simulation testing* (the `dmvcc-dst`
//! crate): a seeded implementation can delay a publish, preempt a worker,
//! hold a shard lock hot, force a transaction to abort, or deliberately
//! break the release-point invariant to prove the fuzz driver catches the
//! resulting divergence. Two kinds of methods coexist:
//!
//! - **Observation points** (`on_*`): called around a decision; the
//!   implementation may record the event and/or stall the calling thread to
//!   perturb the schedule. Any interleaving a hook can produce is an
//!   interleaving the OS scheduler could legally produce on its own, so a
//!   hook can never make a correct executor wrong — that is what makes
//!   hook-driven schedule fuzzing sound.
//! - **Decision overrides** (`release_gate`, `inject_abort`,
//!   `skip_rollback`): the default bodies compute the production behavior;
//!   DST implementations override them to inject the paper's failure modes
//!   (out-of-gas after a release point, abort storms) or, for mutation
//!   testing only, to break an invariant on purpose.
//!
//! # Locking caveats
//!
//! `on_shard_lock` is called *inside* the shard critical section — stalling
//! there is the documented way to force shard-lock contention. In the
//! sharded executor every other `on_*` call site is outside the executor's
//! locks (publishes stage their effects first), so a slow hook
//! costs latency, not progress. The optimistic executor calls
//! `on_validate` (and the re-execution it may trigger) under its commit
//! lock, so a stalling hook there serializes the commit tail on purpose.

use dmvcc_state::StateKey;

/// Observation and perturbation hooks for the threaded executors.
///
/// All methods have no-op (or production-behavior) defaults, so an
/// implementation only overrides the points it cares about. Methods take
/// `&self` and are called concurrently from every worker thread.
///
/// Transactions are identified by their index in the block; `attempt` is
/// the 1-based execution attempt (re-executions increment it).
pub trait SchedHook: Send + Sync + std::fmt::Debug {
    /// A worker dequeued `tx` and is about to run its `attempt`-th attempt
    /// (Algorithm 1 pop).
    fn on_dequeue(&self, _tx: usize, _attempt: u32) {}

    /// `tx` is about to make a version of `key` visible (Algorithm 3;
    /// `delta` marks a commutative ω̄ publish). Stalling here models a
    /// delayed publish.
    fn on_publish(&self, _tx: usize, _key: &StateKey, _delta: bool) {}

    /// A worker is about to park: idle with nothing to run (`None`), or —
    /// from the optimistic engine only — a read of `tx = Some(reader)`
    /// waiting out a re-pended version.
    fn on_park(&self, _tx: Option<usize>) {}

    /// A parked worker resumed (same `tx` convention as [`Self::on_park`]).
    fn on_wake(&self, _tx: Option<usize>) {}

    /// `victim` is being aborted by a cascade rooted at `root`
    /// (Algorithm 4; `root == victim` for the cascade root itself).
    fn on_abort(&self, _root: usize, _victim: usize) {}

    /// `tx` reached its commit decision point (about to be marked
    /// finished).
    fn on_commit(&self, _tx: usize) {}

    /// An engine entered the critical section of shard `index` of the
    /// block's `ShardedSequences` (every engine reads and publishes
    /// through that store). Called with the shard lock held: stalling here
    /// is the way to force shard-lock contention.
    fn on_shard_lock(&self, _index: usize) {}

    /// The optimistic (STM) executor resolved a multi-version read for
    /// `tx` on `key`. `blocked` is `true` when the resolution had to spin
    /// past an ESTIMATE marker (a lower transaction mid-re-execution).
    /// Stalling here widens the window in which an optimistic read can
    /// observe a value that later fails validation.
    fn on_stm_read(&self, _tx: usize, _key: &StateKey, _blocked: bool) {}

    /// The optimistic (STM) executor validated `tx`'s recorded read set at
    /// its commit turn (`attempt` counts executions of the transaction so
    /// far; `ok` is the verdict). Called with the commit lock held — the
    /// validate/re-execute/commit sequence is atomic with respect to other
    /// committers, so stalling here serializes the commit tail on purpose.
    fn on_validate(&self, _tx: usize, _attempt: u32, _ok: bool) {}

    /// The release-point gate (Algorithm 2): may `tx` treat the release
    /// point at `pc` as passed with `gas_left` remaining against the
    /// C-SAG's worst-case `bound`? The default is the paper's rule; DST
    /// overrides force early release (out-of-gas-after-release faults) or
    /// break the gate entirely for mutation testing.
    fn release_gate(&self, _tx: usize, _pc: usize, gas_left: u64, bound: u64) -> bool {
        gas_left >= bound
    }

    /// Fault injection: forcibly abort `tx` before running `attempt`
    /// (returns `true` to abort). Implementations must stop injecting after
    /// a bounded number of attempts: the executor re-admits an aborted
    /// transaction for as long as something aborts it, so an unbounded
    /// injector keeps the block from finishing.
    fn inject_abort(&self, _tx: usize, _attempt: u32) -> bool {
        false
    }

    /// Mutation testing only: skip rolling back `tx`'s already-published
    /// version of `key` when the transaction deterministically aborts.
    /// Production behavior (`false`) always rolls back; returning `true`
    /// models an implementation that trusts the release-point invariant
    /// ("published ⇒ cannot abort") while [`Self::release_gate`] is broken,
    /// which leaks the writes of failed transactions into the final state.
    fn skip_rollback(&self, _tx: usize, _key: &StateKey) -> bool {
        false
    }
}

/// The production hook: every observation is a no-op and every decision
/// override keeps the default rule. Installing `NoopHook` is semantically
/// identical to installing no hook at all (it exists for tests that need a
/// concrete `Arc<dyn SchedHook>`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl SchedHook for NoopHook {}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    #[test]
    fn noop_hook_keeps_production_decisions() {
        let hook = NoopHook;
        let key = StateKey::balance(Address::from_u64(1));
        assert!(hook.release_gate(0, 4, 100, 100));
        assert!(!hook.release_gate(0, 4, 99, 100));
        assert!(!hook.inject_abort(0, 1));
        assert!(!hook.skip_rollback(0, &key));
        // Observation points are callable no-ops.
        hook.on_dequeue(0, 1);
        hook.on_publish(0, &key, false);
        hook.on_park(Some(0));
        hook.on_wake(None);
        hook.on_abort(0, 0);
        hook.on_commit(0);
        hook.on_shard_lock(3);
        hook.on_stm_read(0, &key, true);
        hook.on_validate(0, 1, false);
    }
}

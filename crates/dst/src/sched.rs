//! The seeded virtual scheduler: a [`SchedHook`] whose every decision is a
//! pure function of `(seed, site, a, b)`.
//!
//! Real thread interleavings cannot be replayed without a user-level
//! scheduler, so determinism is obtained one level up: each decision —
//! preempt here? delay this publish? force this release gate? — is computed
//! by hashing the seed with a *site identifier* and the stable coordinates
//! of the event (transaction index, attempt number, pc). Two runs with the
//! same seed therefore apply the *same perturbations and faults to the same
//! transactions*, regardless of how the OS happens to schedule the worker
//! threads. Combined with the executor's convergence guarantee (the final
//! write set is a pure function of the block, not the interleaving), this
//! makes any divergence a seed-replayable artifact.
//!
//! Schedule perturbation itself is just a burst of [`std::thread::yield_now`]
//! calls at the decision point: any interleaving that produces is one the OS
//! scheduler could have produced on its own, so perturbation can never make
//! a correct executor wrong — it only walks the executor into rarer corners
//! of the interleaving space.

use std::sync::atomic::{AtomicU64, Ordering};

use dmvcc_core::SchedHook;
use dmvcc_state::StateKey;

// Site identifiers: every decision point hashes a distinct constant so the
// per-site decision streams are independent.
const SITE_DEQUEUE: u64 = 0xD1;
const SITE_PUBLISH: u64 = 0xD2;
const SITE_SHARD: u64 = 0xD3;
const SITE_INJECT: u64 = 0xD4;
const SITE_RELEASE: u64 = 0xD5;
const SITE_VALIDATE: u64 = 0xD6;
const SITE_STM_READ: u64 = 0xD7;

/// Knobs of the virtual scheduler. All probabilities are in parts per
/// million of the corresponding decision stream.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability of a yield burst when a worker dequeues a transaction
    /// (random preemption).
    pub preempt_ppm: u32,
    /// Probability of a yield burst right before a version becomes visible
    /// (delayed publish).
    pub delay_publish_ppm: u32,
    /// Probability of a yield burst *inside* a shard critical section
    /// (forced shard-lock contention; sharded executor only).
    pub shard_stall_ppm: u32,
    /// Probability of forcibly aborting a dequeued attempt (abort storm).
    pub inject_abort_ppm: u32,
    /// Injection stops above this attempt number, so storms stay bounded
    /// (well below the executor's `max_attempts`, past which a transaction
    /// waits for everything before it).
    pub inject_abort_max_attempt: u32,
    /// Probability (per transaction) of forcing its release gates open —
    /// the paper's out-of-gas-after-release-point failure mode.
    pub force_release_ppm: u32,
    /// Mutation testing only: transactions whose gate was forced also skip
    /// rollback of published versions on deterministic abort, modeling code
    /// that trusts "published ⇒ cannot abort" while the gate is broken.
    pub skip_rollback: bool,
}

impl SchedConfig {
    /// No perturbation, no faults: the hook only counts events.
    pub fn quiet(seed: u64) -> Self {
        SchedConfig {
            seed,
            preempt_ppm: 0,
            delay_publish_ppm: 0,
            shard_stall_ppm: 0,
            inject_abort_ppm: 0,
            inject_abort_max_attempt: 0,
            force_release_ppm: 0,
            skip_rollback: false,
        }
    }

    /// The fuzzing default: frequent preemption, occasional delayed
    /// publishes and shard stalls, a mild abort storm, and a scattering of
    /// forced releases.
    pub fn stormy(seed: u64) -> Self {
        SchedConfig {
            seed,
            preempt_ppm: 250_000,
            delay_publish_ppm: 150_000,
            shard_stall_ppm: 100_000,
            inject_abort_ppm: 120_000,
            inject_abort_max_attempt: 3,
            force_release_ppm: 200_000,
            skip_rollback: false,
        }
    }
}

/// Event counters, filled concurrently by the executor's worker threads.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Dequeues observed.
    pub dequeues: AtomicU64,
    /// Publishes observed.
    pub publishes: AtomicU64,
    /// Parks observed: idle workers, and on the optimistic engine reads
    /// waiting out a re-pended version (a sharded read never parks).
    pub parks: AtomicU64,
    /// Wakes observed.
    pub wakes: AtomicU64,
    /// Abort-cascade victims observed.
    pub aborts: AtomicU64,
    /// Commit decision points observed.
    pub commits: AtomicU64,
    /// Shard critical sections entered.
    pub shard_locks: AtomicU64,
    /// Preemption yield bursts taken.
    pub preemptions: AtomicU64,
    /// Aborts injected by [`SchedHook::inject_abort`].
    pub injected_aborts: AtomicU64,
    /// Release gates forced open.
    pub forced_releases: AtomicU64,
    /// Multi-version reads observed (STM executor only).
    pub stm_reads: AtomicU64,
    /// Multi-version reads that spun past an ESTIMATE marker.
    pub stm_blocked_reads: AtomicU64,
    /// Commit-turn validations observed (STM executor only).
    pub validations: AtomicU64,
    /// Validations that failed and forced a re-execution.
    pub failed_validations: AtomicU64,
}

/// The seeded scheduler. Install through the `hook` argument of
/// [`dmvcc_core::ExecutorKind::build`] (or an engine's `with_hook`); one
/// instance per executor run.
#[derive(Debug)]
pub struct VirtualScheduler {
    config: SchedConfig,
    /// Event counters (public so drivers can print them after a run).
    pub stats: SchedStats,
}

/// The decision mixer of every seeded decision in this crate — the
/// scheduler's and the fault plan's: a splitmix64 finalizer over the seed,
/// a site identifier and two coordinates of the event.
pub(crate) fn mix(seed: u64, site: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(site.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `true` with probability `ppm / 1e6`, deterministically in the seed, the
/// site and the coordinates.
pub(crate) fn roll(seed: u64, site: u64, a: u64, b: u64, ppm: u32) -> bool {
    ppm > 0 && mix(seed, site, a, b) % 1_000_000 < u64::from(ppm)
}

impl VirtualScheduler {
    /// A scheduler over `config`.
    pub fn new(config: SchedConfig) -> Self {
        VirtualScheduler {
            config,
            stats: SchedStats::default(),
        }
    }

    /// A short yield burst (1–4 yields, length derived from the same roll).
    fn stall(&self, entropy: u64) {
        for _ in 0..(entropy % 4) + 1 {
            std::thread::yield_now();
        }
    }

    /// [`roll`] at `(site, a, b)`, and on a hit a [`Self::stall`] whose
    /// length derives from the same mix. Returns the hit.
    fn roll_stall(&self, site: u64, a: u64, b: u64, ppm: u32) -> bool {
        let hit = roll(self.config.seed, site, a, b, ppm);
        if hit {
            self.stall(mix(self.config.seed, site, a, b));
        }
        hit
    }

    /// `true` when this transaction's release gates are forced open.
    pub fn release_forced(&self, tx: usize) -> bool {
        roll(
            self.config.seed,
            SITE_RELEASE,
            tx as u64,
            0,
            self.config.force_release_ppm,
        )
    }
}

impl SchedHook for VirtualScheduler {
    fn on_dequeue(&self, tx: usize, attempt: u32) {
        self.stats.dequeues.fetch_add(1, Ordering::Relaxed);
        let (tx, attempt) = (tx as u64, u64::from(attempt));
        if self.roll_stall(SITE_DEQUEUE, tx, attempt, self.config.preempt_ppm) {
            self.stats.preemptions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_publish(&self, tx: usize, key: &StateKey, _delta: bool) {
        self.stats.publishes.fetch_add(1, Ordering::Relaxed);
        let ppm = self.config.delay_publish_ppm;
        self.roll_stall(SITE_PUBLISH, tx as u64, key_coord(key), ppm);
    }

    fn on_park(&self, _tx: Option<usize>) {
        self.stats.parks.fetch_add(1, Ordering::Relaxed);
    }

    fn on_wake(&self, _tx: Option<usize>) {
        self.stats.wakes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_abort(&self, _root: usize, _victim: usize) {
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
    }

    fn on_commit(&self, _tx: usize) {
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
    }

    fn on_shard_lock(&self, index: usize) {
        self.stats.shard_locks.fetch_add(1, Ordering::Relaxed);
        // The stall runs with the shard lock held on purpose: that is the
        // documented way to force shard-lock contention.
        if roll(
            self.config.seed,
            SITE_SHARD,
            index as u64,
            0,
            self.config.shard_stall_ppm,
        ) {
            self.stall(mix(self.config.seed, SITE_SHARD, index as u64, 1));
        }
    }

    fn on_stm_read(&self, tx: usize, key: &StateKey, blocked: bool) {
        self.stats.stm_reads.fetch_add(1, Ordering::Relaxed);
        if blocked {
            self.stats.stm_blocked_reads.fetch_add(1, Ordering::Relaxed);
        }
        // Reuse the delayed-publish probability: stalling a resolved read
        // widens the window in which the observed value goes stale before
        // validation — the STM analogue of a delayed publish.
        let ppm = self.config.delay_publish_ppm;
        self.roll_stall(SITE_STM_READ, tx as u64, key_coord(key), ppm);
    }

    fn on_validate(&self, tx: usize, attempt: u32, ok: bool) {
        self.stats.validations.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.stats
                .failed_validations
                .fetch_add(1, Ordering::Relaxed);
        }
        // Reuse the preemption probability: this stall runs with the commit
        // lock held, serializing the commit tail while optimistic workers
        // race ahead — the schedule corner where stale reads accumulate.
        let (tx, attempt) = (tx as u64, u64::from(attempt));
        if self.roll_stall(SITE_VALIDATE, tx, attempt, self.config.preempt_ppm) {
            self.stats.preemptions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn release_gate(&self, tx: usize, _pc: usize, gas_left: u64, bound: u64) -> bool {
        if self.release_forced(tx) {
            self.stats.forced_releases.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        gas_left >= bound
    }

    fn inject_abort(&self, tx: usize, attempt: u32) -> bool {
        if attempt > self.config.inject_abort_max_attempt {
            return false;
        }
        let inject = roll(
            self.config.seed,
            SITE_INJECT,
            tx as u64,
            u64::from(attempt),
            self.config.inject_abort_ppm,
        );
        if inject {
            self.stats.injected_aborts.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    fn skip_rollback(&self, tx: usize, _key: &StateKey) -> bool {
        // Leak exactly the transactions whose gate was forced: the modeled
        // bug trusts the release invariant while the gate is broken.
        self.config.skip_rollback && self.release_forced(tx)
    }
}

/// Stable per-key coordinate for decision mixing (independent of run-time
/// addresses, so replays roll identically).
fn key_coord(key: &StateKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    #[test]
    fn the_mixer_is_pinned() {
        // Every seed's faults and perturbations derive from these values: a
        // change here changes the case each `replay --seed …` line names.
        assert_eq!(mix(0, 0, 0, 0), 0);
        assert_eq!(mix(7, SITE_DEQUEUE, 3, 2), 0x92e5_d50b_e903_01a8);
        assert_eq!(mix(42, 0xF3, 11, 1), 0x65a9_6878_04fa_4641);
        assert_eq!(
            mix(u64::MAX, SITE_VALIDATE, u64::MAX, 5),
            0xfcb0_c261_3bec_9d0a
        );
        assert!(roll(7, SITE_DEQUEUE, 3, 2, 1_000_000));
        assert!(!roll(7, SITE_DEQUEUE, 3, 2, 0));
    }

    #[test]
    fn decisions_are_pure_in_seed_and_coordinates() {
        let a = VirtualScheduler::new(SchedConfig::stormy(42));
        let b = VirtualScheduler::new(SchedConfig::stormy(42));
        let c = VirtualScheduler::new(SchedConfig::stormy(43));
        let mut differs = false;
        for tx in 0..64 {
            for attempt in 1..4 {
                assert_eq!(a.inject_abort(tx, attempt), b.inject_abort(tx, attempt));
                differs |= a.inject_abort(tx, attempt) != c.inject_abort(tx, attempt);
            }
            assert_eq!(a.release_forced(tx), b.release_forced(tx));
            differs |= a.release_forced(tx) != c.release_forced(tx);
        }
        assert!(differs, "seeds 42 and 43 produced identical decisions");
    }

    #[test]
    fn quiet_config_matches_production_rules() {
        let hook = VirtualScheduler::new(SchedConfig::quiet(7));
        let key = StateKey::balance(Address::from_u64(9));
        for tx in 0..32 {
            assert!(!hook.inject_abort(tx, 1));
            assert!(!hook.skip_rollback(tx, &key));
            assert!(hook.release_gate(tx, 5, 100, 100));
            assert!(!hook.release_gate(tx, 5, 99, 100));
        }
    }

    #[test]
    fn injection_respects_attempt_cap() {
        let config = SchedConfig {
            inject_abort_ppm: 1_000_000,
            inject_abort_max_attempt: 3,
            ..SchedConfig::stormy(1)
        };
        let hook = VirtualScheduler::new(config);
        assert!(hook.inject_abort(0, 1));
        assert!(hook.inject_abort(0, 3));
        assert!(!hook.inject_abort(0, 4));
        assert!(!hook.inject_abort(0, 64));
    }
}

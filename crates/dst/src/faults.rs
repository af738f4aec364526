//! The fault-injection plane: seeded perturbations of the executor's
//! *inputs* (C-SAG predictions, gas limits), complementing the virtual
//! scheduler's perturbation of its *decisions*.
//!
//! Every fault here forces one of the paper's failure modes:
//!
//! - **Mispredicted SAG keys** — predicted reads/writes dropped from the
//!   C-SAG (the access surfaces at runtime as a dynamic insertion) and
//!   phantom predicted writes added (the version is never materialized and
//!   must be dropped at finalization, unblocking its readers — or, when
//!   the phantom lands on a key the transaction adds to, is fulfilled with
//!   a delta where a full write was predicted).
//! - **Stale-snapshot reads** — the fuzz driver builds C-SAGs against an
//!   older snapshot than the one executed on (the mempool scenario), see
//!   [`crate::fuzz`].
//! - **Out-of-gas after a release point** — the *gas squeeze*: a
//!   transaction's gas limit is reset to one unit below its serial
//!   consumption, so it deterministically runs out of gas at the very end
//!   of its path — after every release point and write it would have
//!   performed. Combined with a forced release gate this exercises the
//!   rollback of already-published versions.
//! - **Abort storms** — injected by the scheduler
//!   ([`crate::VirtualScheduler`]), not here, since they are decisions of
//!   the running executor rather than properties of the block.
//!
//! All faults are applied identically to every executor under test *and*
//! to the serial oracle's inputs, so the equivalence obligation is
//! unchanged: a correct executor absorbs any such block without diverging
//! from serial execution.

use dmvcc_analysis::CSag;
use dmvcc_core::BlockTrace;
use dmvcc_vm::{ExecStatus, Transaction, INTRINSIC_GAS};

use crate::sched::{mix, roll};

// Site identifiers for the fault plane's decision streams (disjoint from
// the scheduler's sites by construction — different consumer, same mixer).
const SITE_DROP_READ: u64 = 0xF1;
const SITE_DROP_WRITE: u64 = 0xF2;
const SITE_PHANTOM: u64 = 0xF3;
const SITE_SQUEEZE: u64 = 0xF4;

/// A deliberately-introduced executor bug for mutation testing: the fuzz
/// driver must find a diverging seed when one is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No mutation: the executors are correct and no seed may diverge.
    #[default]
    None,
    /// Breaks the release-point gas bound (every gate passes) *and* the
    /// rollback that the bound makes unnecessary in correct code: published
    /// versions of deterministically-aborted transactions are leaked into
    /// the final state. This models an implementation that trusts
    /// "published ⇒ cannot abort" while the guarding gate is broken — the
    /// gate alone cannot diverge because the abort cascade self-heals.
    SkipReleaseGasBound,
}

impl Mutation {
    /// Parses the CLI spelling of a mutation.
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "none" => Some(Mutation::None),
            "skip-release-gas-bound" => Some(Mutation::SkipReleaseGasBound),
            _ => None,
        }
    }
}

/// Seeded input-fault plan. Probabilities are parts per million; every
/// decision is a pure function of `(seed, site, coordinates)` so a replay
/// perturbs the same predictions of the same transactions.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the fault decision streams.
    pub seed: u64,
    /// Probability of dropping each predicted read key.
    pub drop_read_ppm: u32,
    /// Probability of dropping each predicted write/add key.
    pub drop_write_ppm: u32,
    /// Probability, per transaction, of adding one phantom predicted write
    /// taken from another transaction's write set.
    pub phantom_ppm: u32,
    /// Probability, per successful transaction, of the gas squeeze.
    pub gas_squeeze_ppm: u32,
}

impl FaultPlan {
    /// No input faults.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_read_ppm: 0,
            drop_write_ppm: 0,
            phantom_ppm: 0,
            gas_squeeze_ppm: 0,
        }
    }

    /// The fuzzing default: a scattering of every fault kind.
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_read_ppm: 60_000,
            drop_write_ppm: 60_000,
            phantom_ppm: 150_000,
            gas_squeeze_ppm: 150_000,
        }
    }

    /// Perturbs the predictions in place: drops predicted keys (surfacing
    /// as runtime mispredictions) and grafts phantom predicted writes from
    /// other transactions' write sets (never materialized and dropped at
    /// finalization, or — landing on a key the transaction adds to —
    /// fulfilled with the other kind). Key coordinates come from the key's position in the
    /// *sorted* set, so perturbation is deterministic per seed.
    pub fn perturb_csags(&self, csags: &mut [CSag]) {
        let all_writes: Vec<_> = csags.iter().map(|c| c.writes.clone()).collect();
        for (tx, csag) in csags.iter_mut().enumerate() {
            let tx_coord = tx as u64;
            for (i, key) in csag.reads.to_vec().iter().enumerate() {
                if roll(
                    self.seed,
                    SITE_DROP_READ,
                    tx_coord,
                    i as u64,
                    self.drop_read_ppm,
                ) {
                    csag.reads.remove(key);
                }
            }
            for (i, (key, _)) in csag.writes.to_vec().iter().enumerate() {
                if roll(
                    self.seed,
                    SITE_DROP_WRITE,
                    tx_coord,
                    i as u64,
                    self.drop_write_ppm,
                ) {
                    // The publish pc goes with the key: a dropped key is
                    // not published early.
                    csag.writes.remove(key);
                }
            }
            if roll(self.seed, SITE_PHANTOM, tx_coord, 0, self.phantom_ppm) {
                // Steal a write key from a pseudo-randomly chosen other
                // transaction; skip keys this transaction reads or writes
                // itself so the phantom is not a shadowed real access. A
                // key it *adds* to may be hit: the prediction then names
                // the wrong kind (a full write the execution fulfils with
                // an ω̄ delta), published where the add would have been. A
                // pure phantom is never publishable and is dropped when
                // the transaction finalizes.
                let donor = mix(self.seed, SITE_PHANTOM, tx_coord, 1) as usize % all_writes.len();
                let mut stolen = all_writes[donor].iter().map(|(key, _)| key);
                if let Some(key) =
                    stolen.find(|k| !csag.reads.contains(k) && !csag.writes.contains(k))
                {
                    let pc = csag.adds.get(key).map_or(CSag::NEVER, |&(_, pc)| pc);
                    csag.predict_write(*key, pc);
                }
            }
        }
    }

    /// The gas squeeze: for a seeded subset of the successful transactions,
    /// resets the gas limit to one unit below the serial consumption so the
    /// transaction deterministically exhausts gas after its last write.
    /// Returns `true` if any limit changed (the caller must re-run the
    /// serial oracle, since the squeezed block *is* the block under test).
    pub fn squeeze_gas(&self, txs: &mut [Transaction], trace: &BlockTrace) -> bool {
        let mut changed = false;
        for (i, tx) in txs.iter_mut().enumerate() {
            let t = &trace.txs[i];
            if t.status != ExecStatus::Success || t.gas_used <= INTRINSIC_GAS + 1 {
                continue;
            }
            if roll(self.seed, SITE_SQUEEZE, i as u64, 0, self.gas_squeeze_ppm) {
                tx.env.gas_limit = t.gas_used - 1;
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_parsing() {
        assert_eq!(Mutation::parse("none"), Some(Mutation::None));
        assert_eq!(
            Mutation::parse("skip-release-gas-bound"),
            Some(Mutation::SkipReleaseGasBound)
        );
        assert_eq!(Mutation::parse("bogus"), None);
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        use dmvcc_analysis::AccessKind;
        use dmvcc_primitives::{Address, U256};
        use dmvcc_state::StateKey;

        let base: Vec<CSag> = (0..8)
            .map(|i| {
                let key = |j| StateKey::storage(Address::from_u64(i), U256::from(j));
                let reads = (0..6u64).map(|j| (key(j), AccessKind::Read, 0));
                let writes = (0..6u64).map(|j| (key(j), AccessKind::Write, j as usize));
                CSag::from_accesses(reads.chain(writes))
            })
            .collect();
        let plan = FaultPlan::standard(99);
        let mut a = base.clone();
        let mut b = base.clone();
        plan.perturb_csags(&mut a);
        plan.perturb_csags(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reads, y.reads);
            assert_eq!(x.writes, y.writes);
        }
        // And the plan actually perturbs something at standard rates.
        let untouched = a
            .iter()
            .zip(&base)
            .all(|(x, y)| x.reads == y.reads && x.writes == y.writes);
        assert!(!untouched, "standard plan left every C-SAG untouched");
        // A surviving write keeps its publish pc; a phantom (one of another
        // transaction's keys) is never publishable.
        for (i, c) in a.iter().enumerate() {
            for &(key, pc) in c.writes.iter() {
                let own = key.address == Address::from_u64(i as u64);
                let expected = if own {
                    key.slot.low_u64() as usize
                } else {
                    CSag::NEVER
                };
                assert_eq!(pc, expected);
            }
        }
    }
}

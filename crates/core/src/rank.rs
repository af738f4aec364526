//! Critical-path ranks over a block's C-SAGs.
//!
//! The access sequences already encode the block's dependency DAG: a read
//! (or, for RMW purposes, nothing else — adds are commutative) of key `k`
//! by transaction `j` hangs off every earlier transaction `i < j` with `k`
//! in its predicted write/add set. Write-write pairs do not conflict
//! (write versioning, Algorithm 3) and add-add pairs do not conflict
//! (commutative merges, §IV-D), so those contribute no edges.
//!
//! [`BlockDag::build`] weights that DAG by predicted gas and computes each
//! transaction's *rank*: its own gas plus the heaviest gas path through its
//! downstream readers (classic list-scheduling priority). The longest rank
//! is the block's **critical-path gas** — no schedule, on any number of
//! threads, finishes the block in less virtual time — and
//! `total_gas / critical_path_gas` is the achievable speedup bound
//! ([`BlockDag::speedup_bound`]).
//!
//! Because every edge goes from a lower to a higher transaction index
//! (readers depend on *earlier* writers only), reverse index order is a
//! reverse topological order, and ranks are computable in one backward
//! sweep with a per-key suffix maximum — O(total accesses), never the
//! O(n²) edge list a hot key would otherwise produce.

use dmvcc_analysis::CSag;
use dmvcc_state::{KeyId, KeyInterner};

/// Number of priority lanes the sharded executor's ready queue is bucketed
/// into. Lane 0 holds the highest-ranked transactions; workers drain lanes
/// in order.
pub const NUM_LANES: usize = 8;

/// One transaction's scheduling priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRank {
    /// Own predicted gas plus the heaviest downstream gas path.
    pub rank_gas: u64,
    /// Priority lane (0 = highest) derived from `rank_gas`.
    pub lane: u8,
}

/// The gas-weighted dependency DAG of one block, reduced to per-transaction
/// ranks (see the module docs for the construction).
#[derive(Debug, Clone, Default)]
pub struct BlockDag {
    /// Per-transaction ranks, indexed by transaction position.
    pub ranks: Vec<TxRank>,
    /// The heaviest gas path through the block (max rank).
    pub critical_path_gas: u64,
    /// Sum of predicted gas over all transactions.
    pub total_gas: u64,
}

impl BlockDag {
    /// Builds the DAG ranks from a block's C-SAGs.
    ///
    /// A transaction with an empty C-SAG (unknown contract, OCC fallback)
    /// predicts zero gas; its weight is clamped to the intrinsic cost so
    /// ranks stay strictly positive and lane math stays meaningful.
    pub fn build(csags: &[CSag]) -> BlockDag {
        // Standalone entry point (benchmarks, tests; the sharded executor
        // sweeps the ids its own binding pass assigned): intern the block's
        // keys locally, each occurrence once, so the sweep runs on dense
        // ids. `spans[i]` is where transaction `i`'s reads end in `ids` and
        // where its writes ∪ adds, which follow them, end.
        let occurrences = |c: &CSag| c.reads.len() + c.writes.len() + c.adds.len();
        let mut interner = KeyInterner::new();
        let mut ids: Vec<KeyId> = Vec::with_capacity(csags.iter().map(occurrences).sum());
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(csags.len());
        for csag in csags {
            ids.extend(csag.reads.iter().map(|key| interner.preintern(*key)));
            let reads_end = ids.len();
            ids.extend(csag.written().map(|key| interner.preintern(*key)));
            spans.push((reads_end, ids.len()));
        }
        let start = |i: usize| if i == 0 { 0 } else { spans[i - 1].1 };
        BlockDag::sweep(
            interner.frozen_len(),
            csags.len(),
            |i| csags[i].predicted_gas,
            |i| ids[start(i)..spans[i].0].iter().copied(),
            |i| ids[spans[i].0..spans[i].1].iter().copied(),
        )
    }

    /// The backward sweep itself, over interned ids: of transaction `i` of
    /// `txs`, `gas(i)` is the predicted gas, `reads(i)` the ids it is
    /// predicted to read and `written(i)` the ids it is predicted to write
    /// or add to (each once), all below `keys`. The per-key suffix maximum
    /// is a dense vector indexed by id, not a hash map over 52-byte keys.
    pub(crate) fn sweep<R, W>(
        keys: usize,
        txs: usize,
        gas: impl Fn(usize) -> u64,
        reads: impl Fn(usize) -> R,
        written: impl Fn(usize) -> W,
    ) -> BlockDag
    where
        R: Iterator<Item = KeyId>,
        W: Iterator<Item = KeyId>,
    {
        let mut ranks = vec![
            TxRank {
                rank_gas: 0,
                lane: 0,
            };
            txs
        ];
        // Per key id: the max rank over the *readers with a higher index
        // than the transaction currently being processed* — maintained by
        // the backward sweep.
        let mut suffix: Vec<u64> = vec![0; keys];
        let mut critical = 0u64;
        let mut total = 0u64;
        for i in (0..txs).rev() {
            let gas = gas(i).max(dmvcc_vm::INTRINSIC_GAS);
            total += gas;
            let downstream = written(i).map(|id| suffix[id.index()]).max().unwrap_or(0);
            let rank = gas + downstream;
            critical = critical.max(rank);
            ranks[i].rank_gas = rank;
            // Register this transaction's reads *after* computing its own
            // rank, so an RMW transaction never depends on itself.
            for id in reads(i) {
                let entry = &mut suffix[id.index()];
                *entry = (*entry).max(rank);
            }
        }
        for rank in &mut ranks {
            rank.lane = lane_for(rank.rank_gas, critical);
        }
        BlockDag {
            ranks,
            critical_path_gas: critical,
            total_gas: total,
        }
    }

    /// Priority lane of a transaction (0 = dispatch first).
    #[inline]
    pub fn lane_of(&self, tx: usize) -> usize {
        self.ranks.get(tx).map_or(0, |r| r.lane as usize)
    }

    /// Upper bound on achievable speedup: total gas over critical-path gas
    /// (1.0 for an empty block).
    pub fn speedup_bound(&self) -> f64 {
        if self.critical_path_gas == 0 {
            1.0
        } else {
            self.total_gas as f64 / self.critical_path_gas as f64
        }
    }
}

/// Buckets a rank into a lane: the critical path lands in lane 0, ranks
/// near zero in the last lane, proportionally in between.
fn lane_for(rank_gas: u64, critical: u64) -> u8 {
    if critical == 0 {
        return 0;
    }
    let lane = ((critical - rank_gas.min(critical)) as u128 * NUM_LANES as u128
        / (critical as u128 + 1)) as u64;
    lane.min(NUM_LANES as u64 - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_analysis::{AccessKind, Analyzer};
    use dmvcc_primitives::{Address, U256};
    use dmvcc_state::{Snapshot, StateKey};
    use dmvcc_vm::{calldata, contracts, BlockEnv, CodeRegistry, Transaction, TxEnv};

    fn key(id: u64) -> StateKey {
        StateKey::balance(Address::from_u64(id))
    }

    /// A C-SAG with explicit key sets and predicted gas.
    fn sag(reads: &[u64], writes: &[u64], adds: &[u64], gas: u64) -> CSag {
        fn of(
            keys: &[u64],
            kind: AccessKind,
        ) -> impl Iterator<Item = (StateKey, AccessKind, usize)> + '_ {
            keys.iter().map(move |&k| (key(k), kind, 0))
        }
        let accesses = of(reads, AccessKind::Read)
            .chain(of(writes, AccessKind::Write))
            .chain(of(adds, AccessKind::Add));
        CSag {
            predicted_gas: gas,
            ..CSag::from_accesses(accesses)
        }
    }

    const G: u64 = 50_000;

    #[test]
    fn empty_block_is_trivial() {
        let dag = BlockDag::build(&[]);
        assert_eq!(dag.critical_path_gas, 0);
        assert_eq!(dag.total_gas, 0);
        assert!((dag.speedup_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_ranks_accumulate() {
        // 0 writes a, 1 reads a writes b, 2 reads b: a pure chain.
        let csags = vec![
            sag(&[], &[1], &[], G),
            sag(&[1], &[2], &[], G),
            sag(&[2], &[], &[], G),
        ];
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[2].rank_gas, G);
        assert_eq!(dag.ranks[1].rank_gas, 2 * G);
        assert_eq!(dag.ranks[0].rank_gas, 3 * G);
        assert_eq!(dag.critical_path_gas, 3 * G);
        assert_eq!(dag.total_gas, 3 * G);
        // The chain head is the critical path: lane 0; the tail is the
        // lightest transaction in the block.
        assert_eq!(dag.ranks[0].lane, 0);
        assert!(dag.ranks[2].lane > dag.ranks[1].lane || dag.ranks[1].lane > 0);
        assert!((dag.speedup_bound() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_takes_heavier_shoulder() {
        // 0 writes a; 1 and 2 both read a and write b/c; 3 reads b and c.
        // Shoulder 1 is heavier than shoulder 2.
        let csags = vec![
            sag(&[], &[1], &[], G),
            sag(&[1], &[2], &[], 4 * G),
            sag(&[1], &[3], &[], G),
            sag(&[2, 3], &[], &[], G),
        ];
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[3].rank_gas, G);
        assert_eq!(dag.ranks[1].rank_gas, 5 * G); // heavy shoulder + sink
        assert_eq!(dag.ranks[2].rank_gas, 2 * G); // light shoulder + sink
        assert_eq!(dag.ranks[0].rank_gas, 6 * G); // source through shoulder 1
        assert_eq!(dag.critical_path_gas, 6 * G);
        assert_eq!(dag.total_gas, 7 * G);
        assert!(dag.speedup_bound() > 1.0);
    }

    #[test]
    fn hot_key_fans_out_without_quadratic_edges() {
        // One writer of a hot key, many readers: the writer's rank tops
        // every reader's by exactly one reader's gas, not the fan-out's.
        let mut csags = vec![sag(&[], &[7], &[], G)];
        for _ in 0..64 {
            csags.push(sag(&[7], &[], &[], G));
        }
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[0].rank_gas, 2 * G);
        for reader in 1..=64 {
            assert_eq!(dag.ranks[reader].rank_gas, G);
            assert!(dag.ranks[reader].lane >= dag.ranks[0].lane);
        }
        assert_eq!(dag.critical_path_gas, 2 * G);
        assert_eq!(dag.total_gas, 65 * G);
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        // A single read-modify-write of one key: rank is its own gas, no
        // infinite self-edge.
        let csags = vec![sag(&[5], &[5], &[], G)];
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[0].rank_gas, G);
    }

    #[test]
    fn write_write_and_add_add_do_not_conflict() {
        // Two writers of the same key (versioned), two adders of another
        // (commutative): no edges, all ranks standalone.
        let csags = vec![
            sag(&[], &[1], &[], G),
            sag(&[], &[1], &[], G),
            sag(&[], &[], &[2], G),
            sag(&[], &[], &[2], G),
        ];
        let dag = BlockDag::build(&csags);
        for rank in &dag.ranks {
            assert_eq!(rank.rank_gas, G);
        }
        assert_eq!(dag.critical_path_gas, G);
        assert!((dag.speedup_bound() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn adds_block_readers_like_writes() {
        // A read of a key some earlier transaction *adds* to depends on
        // that adder (the merged value must be visible).
        let csags = vec![sag(&[], &[], &[9], G), sag(&[9], &[], &[], G)];
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[0].rank_gas, 2 * G);
    }

    /// The paper's Definition 3 on real predictions: a transaction conflicts
    /// with an earlier one — hangs off it in the DAG — exactly when it reads
    /// a key the earlier one writes or adds to.
    #[test]
    fn conflicts_follow_definition_3() {
        let (token, counter) = (Address::from_u64(100), Address::from_u64(101));
        let registry = CodeRegistry::builder()
            .deploy(token, contracts::token())
            .deploy(counter, contracts::counter())
            .build();
        let analyzer = Analyzer::new(registry);
        let alice_slot = contracts::map_slot(Address::from_u64(1).to_u256(), 1);
        let snapshot =
            Snapshot::from_entries([(StateKey::storage(token, alice_slot), U256::from(1000u64))]);
        let call = |caller: u64, contract: Address, selector: u64, args: &[U256]| {
            let env = TxEnv::call(
                Address::from_u64(caller),
                contract,
                calldata(selector, args),
            );
            analyzer.csag(&Transaction::call(env), &snapshot, &BlockEnv::default())
        };
        // An edge makes the earlier transaction rank its own gas plus the
        // later one's, which is then the whole block's gas.
        let depends = |earlier: &CSag, later: &CSag| {
            let dag = BlockDag::build(&[earlier.clone(), later.clone()]);
            dag.ranks[0].rank_gas == dag.total_gas
        };
        let to = |who: u64| [Address::from_u64(who).to_u256(), U256::ONE];

        // Two transfers from the same sender: read-write on its balance.
        let t1 = call(1, token, contracts::token_fn::TRANSFER, &to(2));
        let t2 = call(1, token, contracts::token_fn::TRANSFER, &to(3));
        assert!(depends(&t1, &t2) && depends(&t2, &t1));
        // Two mints to different accounts: adds commute, and the shared
        // totalSupply is also an add.
        let m1 = call(1, token, contracts::token_fn::MINT, &to(7));
        let m2 = call(2, token, contracts::token_fn::MINT, &to(8));
        assert!(!depends(&m1, &m2) && !depends(&m2, &m1));
        // Counter increments (pure adds) never conflict with each other,
        // but a checked increment (read-modify-write) reads what they add.
        let add = call(1, counter, contracts::counter_fn::INCREMENT, &[]);
        let checked = call(1, counter, contracts::counter_fn::INCREMENT_CHECKED, &[]);
        assert!(!depends(&add, &add));
        assert!(depends(&add, &checked));
    }

    #[test]
    fn empty_csag_gas_clamped_to_intrinsic() {
        let dag = BlockDag::build(&[CSag::default()]);
        assert_eq!(dag.ranks[0].rank_gas, dmvcc_vm::INTRINSIC_GAS);
        assert_eq!(dag.total_gas, dmvcc_vm::INTRINSIC_GAS);
    }

    #[test]
    fn lanes_cover_the_range() {
        // A long chain spreads ranks from G to n*G: the head must land in
        // lane 0 and the tail in the last lane.
        let n = 32;
        let csags: Vec<CSag> = (0..n)
            .map(|i| {
                let r: Vec<u64> = if i == 0 { vec![] } else { vec![i as u64] };
                sag(&r, &[i as u64 + 1], &[], G)
            })
            .collect();
        let dag = BlockDag::build(&csags);
        assert_eq!(dag.ranks[0].lane, 0);
        assert_eq!(dag.ranks[n - 1].lane, (NUM_LANES - 1) as u8);
        // Lanes are monotone along the chain.
        for pair in dag.ranks.windows(2) {
            assert!(pair[0].lane <= pair[1].lane);
        }
    }
}

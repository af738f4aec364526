//! Reference (serial) block execution with full trace capture.
//!
//! Deterministic serializability (paper Definition 2) pins the *result* of
//! any correct schedule to the serial one; only timing, abort counts and
//! thread utilization differ between schedulers. This module executes a
//! block serially — it *is* the serial baseline — while recording, per
//! transaction, everything the virtual-time schedulers of the `dmvcc-sim`
//! crate need:
//!
//! - gas cost (the virtual-time unit),
//! - every read with the transaction that produced the value
//!   (block-order dependencies),
//! - every write/commutative-add with its gas offset inside the
//!   transaction,
//! - the gas offset at which the executed path passes a release point.

use std::collections::{BTreeMap, HashMap};

use dmvcc_primitives::U256;
use dmvcc_state::{Snapshot, StateKey, WriteSet};
use dmvcc_vm::{
    execute_traced, BlockEnv, ExecParams, ExecStatus, Host, HostError, Opcode, Tracer, Transaction,
    TxKind, INTRINSIC_GAS,
};

use dmvcc_analysis::Analyzer;

/// One recorded read with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// The state item read.
    pub key: StateKey,
    /// Transactions whose versions the value incorporates (base writer and
    /// commutative add-ers); empty when the value came purely from the
    /// snapshot.
    pub sources: Vec<usize>,
    /// Gas consumed by this transaction when the read happened.
    pub gas_offset: u64,
}

/// The complete per-transaction trace of the reference execution.
#[derive(Debug, Clone)]
pub struct TxTrace {
    /// Transaction index within the block.
    pub index: usize,
    /// Terminal status (always a deterministic outcome here).
    pub status: ExecStatus,
    /// Gas consumed — the virtual-time cost of one attempt.
    pub gas_used: u64,
    /// Reads in execution order.
    pub reads: Vec<ReadRecord>,
    /// Final full writes (empty if the transaction reverted).
    pub writes: BTreeMap<StateKey, U256>,
    /// Merged commutative deltas (empty if the transaction reverted).
    pub adds: BTreeMap<StateKey, U256>,
    /// Gas offset of the *last* write/add per key — a version can be
    /// published no earlier than this.
    pub write_offsets: HashMap<StateKey, u64>,
    /// Gas offset at which the executed path passed its release point
    /// (`None` when an abort stayed possible to the very end).
    pub release_offset: Option<u64>,
}

impl TxTrace {
    /// The earliest gas offset at which this transaction's version of
    /// `key` may be made visible under early-write visibility: after both
    /// the release point and the last write of that key.
    pub fn publish_offset(&self, key: &StateKey) -> Option<u64> {
        let release = self.release_offset?;
        let write = self.write_offsets.get(key)?;
        Some(release.max(*write))
    }

    /// `true` if this transaction writes (or commutatively adds to) `key`.
    pub fn writes_key(&self, key: &StateKey) -> bool {
        self.writes.contains_key(key) || self.adds.contains_key(key)
    }
}

/// The outcome of a reference execution of one block.
#[derive(Debug, Clone)]
pub struct BlockTrace {
    /// Per-transaction traces, in block order.
    pub txs: Vec<TxTrace>,
    /// The block's final writes (what the commit phase flushes).
    pub final_writes: WriteSet,
    /// Total gas of all transactions — the serial makespan.
    pub total_gas: u64,
}

/// Host layering the in-flight block state over the snapshot, tracking the
/// provenance (latest writer) of every key.
struct OracleHost<'a> {
    snapshot: &'a Snapshot,
    committed: HashMap<StateKey, U256>,
    /// Latest block-order writer of each key (committed transactions only).
    provenance: HashMap<StateKey, Vec<usize>>,
    /// The executing transaction's buffered writes/adds.
    writes: BTreeMap<StateKey, U256>,
    adds: BTreeMap<StateKey, U256>,
    reads: Vec<ReadRecord>,
    write_offsets: HashMap<StateKey, u64>,
    releases: Vec<(usize, u64)>,
    gas_limit: u64,
    /// Gas remaining at the current instruction, kept in sync by the
    /// [`GasSync`] tracer (the [`Host`] trait deliberately has no gas
    /// parameter; the interpreter reports gas through the tracer instead).
    current_gas_left: std::rc::Rc<std::cell::Cell<u64>>,
}

impl OracleHost<'_> {
    fn gas_offset(&self) -> u64 {
        self.gas_limit - self.current_gas_left.get()
    }

    fn commit_tx(&mut self, index: usize) {
        for (key, value) in std::mem::take(&mut self.writes) {
            self.committed.insert(key, value);
            self.provenance.insert(key, vec![index]);
        }
        for (key, delta) in std::mem::take(&mut self.adds) {
            let base = self
                .committed
                .get(&key)
                .copied()
                .unwrap_or_else(|| self.snapshot.get(&key));
            self.committed.insert(key, base.wrapping_add(delta));
            self.provenance.entry(key).or_default().push(index);
        }
    }

    fn discard_tx(&mut self) {
        self.writes.clear();
        self.adds.clear();
    }
}

impl Host for OracleHost<'_> {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        // Own buffered writes win; then committed block state; then snapshot.
        let (value, sources) = if let Some(&v) = self.writes.get(&key) {
            let merged = v.wrapping_add(self.adds.get(&key).copied().unwrap_or(U256::ZERO));
            (merged, Vec::new())
        } else {
            let base = self
                .committed
                .get(&key)
                .copied()
                .unwrap_or_else(|| self.snapshot.get(&key));
            let own_delta = self.adds.get(&key).copied().unwrap_or(U256::ZERO);
            (
                base.wrapping_add(own_delta),
                self.provenance.get(&key).cloned().unwrap_or_default(),
            )
        };
        self.reads.push(ReadRecord {
            key,
            sources,
            gas_offset: self.gas_offset(),
        });
        Ok(value)
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        // A full write after own adds folds them in.
        self.adds.remove(&key);
        self.writes.insert(key, value);
        self.write_offsets.insert(key, self.gas_offset());
        Ok(())
    }

    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        if let Some(v) = self.writes.get_mut(&key) {
            *v = v.wrapping_add(delta);
        } else {
            let entry = self.adds.entry(key).or_insert(U256::ZERO);
            *entry = entry.wrapping_add(delta);
        }
        self.write_offsets.insert(key, self.gas_offset());
        Ok(())
    }

    fn on_release_point(&mut self, pc: usize, gas_left: u64) {
        self.releases.push((pc, self.gas_limit - gas_left));
    }
}

/// Keeps the host's notion of gas in sync with the interpreter via a cell
/// shared with [`OracleHost`].
struct GasSync {
    gas_left: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Tracer for GasSync {
    fn on_op(&mut self, _pc: usize, _op: Opcode, gas_left: u64) {
        self.gas_left.set(gas_left);
    }
}

/// Executes a block serially against `snapshot`, producing the reference
/// trace. `analyzer` supplies release-point pcs (the trace records when the
/// executed path passes them); transactions whose contract is unknown run
/// without release points.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::Snapshot;
/// use dmvcc_vm::{CodeRegistry, Transaction};
/// use dmvcc_analysis::Analyzer;
/// use dmvcc_core::execute_block_serial;
///
/// let analyzer = Analyzer::new(CodeRegistry::default());
/// let a = Address::from_u64(1);
/// let b = Address::from_u64(2);
/// let snapshot = Snapshot::from_entries([
///     (dmvcc_state::StateKey::balance(a), U256::from(10u64)),
/// ]);
/// let block = vec![Transaction::transfer(a, b, U256::from(4u64))];
/// let trace = execute_block_serial(&block, &snapshot, &analyzer, &Default::default());
/// assert_eq!(trace.txs.len(), 1);
/// assert_eq!(
///     trace.final_writes.get(&dmvcc_state::StateKey::balance(b)),
///     Some(&U256::from(4u64))
/// );
/// ```
pub fn execute_block_serial(
    txs: &[Transaction],
    snapshot: &Snapshot,
    analyzer: &Analyzer,
    block_env: &BlockEnv,
) -> BlockTrace {
    let mut host = OracleHost {
        snapshot,
        committed: HashMap::new(),
        provenance: HashMap::new(),
        writes: BTreeMap::new(),
        adds: BTreeMap::new(),
        reads: Vec::new(),
        write_offsets: HashMap::new(),
        releases: Vec::new(),
        gas_limit: 0,
        current_gas_left: std::rc::Rc::new(std::cell::Cell::new(0)),
    };
    let mut traces = Vec::with_capacity(txs.len());
    let mut total_gas = 0u64;

    for (index, tx) in txs.iter().enumerate() {
        host.reads.clear();
        host.write_offsets.clear();
        host.releases.clear();

        let trace = match tx.kind {
            TxKind::Transfer => run_transfer(index, tx, &mut host),
            TxKind::Call => run_call(index, tx, &mut host, analyzer, block_env),
        };
        total_gas += trace.gas_used;
        if trace.status.is_success() {
            host.commit_tx(index);
        } else {
            host.discard_tx();
        }
        traces.push(trace);
    }

    // Final writes: committed map relative to the snapshot.
    let mut final_writes = WriteSet::new();
    for (key, value) in &host.committed {
        if snapshot.get(key) != *value {
            final_writes.insert(*key, *value);
        }
    }

    BlockTrace {
        txs: traces,
        final_writes,
        total_gas,
    }
}

fn run_transfer(index: usize, tx: &Transaction, host: &mut OracleHost<'_>) -> TxTrace {
    let from_key = StateKey::balance(tx.sender());
    let to_key = StateKey::balance(tx.to());
    host.gas_limit = INTRINSIC_GAS;
    host.current_gas_left.set(0); // offsets all at INTRINSIC_GAS
    let balance = host.sload(from_key).expect("oracle host never aborts");
    let status = if balance >= tx.env.value {
        host.sstore(from_key, balance - tx.env.value)
            .expect("oracle host never aborts");
        host.sadd(to_key, tx.env.value)
            .expect("oracle host never aborts");
        ExecStatus::Success
    } else {
        ExecStatus::Reverted
    };
    let success = status.is_success();
    TxTrace {
        index,
        status,
        gas_used: INTRINSIC_GAS,
        reads: std::mem::take(&mut host.reads),
        writes: if success {
            host.writes.clone()
        } else {
            BTreeMap::new()
        },
        adds: if success {
            host.adds.clone()
        } else {
            BTreeMap::new()
        },
        write_offsets: std::mem::take(&mut host.write_offsets),
        // A balance check is the only abort path and it happens first; the
        // transfer is releasable immediately after it.
        release_offset: Some(INTRINSIC_GAS),
    }
}

fn run_call(
    index: usize,
    tx: &Transaction,
    host: &mut OracleHost<'_>,
    analyzer: &Analyzer,
    block_env: &BlockEnv,
) -> TxTrace {
    let Some(deployed) = analyzer.registry().deployed(&tx.to()) else {
        // Unknown contract: trivially succeeds without touching state.
        return TxTrace {
            index,
            status: ExecStatus::Success,
            gas_used: INTRINSIC_GAS,
            reads: Vec::new(),
            writes: BTreeMap::new(),
            adds: BTreeMap::new(),
            write_offsets: HashMap::new(),
            release_offset: Some(INTRINSIC_GAS),
        };
    };
    let psag = analyzer.psag(&tx.to());
    let release_pcs: &[usize] = psag.as_deref().map_or(&[], |p| &p.release_pcs);

    host.gas_limit = tx.env.gas_limit;
    host.current_gas_left.set(tx.env.gas_limit - INTRINSIC_GAS);
    let params = ExecParams {
        code: deployed.code(),
        tx: &tx.env,
        block: block_env,
        release_points: Some(release_pcs),
        registry: Some(analyzer.registry()),
    };
    let mut tracer = GasSync {
        gas_left: host.current_gas_left.clone(),
    };
    let outcome = execute_traced(&params, host, &mut tracer);

    let entry_release = release_pcs.first() == Some(&0);
    let release_offset = if let Some(&(_, off)) = host.releases.first() {
        Some(off)
    } else if entry_release {
        Some(INTRINSIC_GAS)
    } else {
        None
    };

    let success = outcome.status.is_success();
    // Gas offsets recorded inside nested CALL frames are measured against
    // the callee's 63/64 budget, not the top-level remaining gas, so they
    // can overshoot; clamp every intra-transaction offset to the realized
    // cost (an access can never happen after the transaction finishes).
    let mut reads = std::mem::take(&mut host.reads);
    for read in &mut reads {
        read.gas_offset = read.gas_offset.min(outcome.gas_used);
    }
    let mut write_offsets = std::mem::take(&mut host.write_offsets);
    for offset in write_offsets.values_mut() {
        *offset = (*offset).min(outcome.gas_used);
    }
    TxTrace {
        index,
        status: outcome.status,
        gas_used: outcome.gas_used,
        reads,
        writes: if success {
            host.writes.clone()
        } else {
            BTreeMap::new()
        },
        adds: if success {
            host.adds.clone()
        } else {
            BTreeMap::new()
        },
        write_offsets,
        release_offset: if success {
            release_offset.map(|offset| offset.min(outcome.gas_used))
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;
    use dmvcc_vm::{calldata, contracts, CodeRegistry, TxEnv};

    const TOKEN: u64 = 500;
    const COUNTER: u64 = 501;

    fn analyzer() -> Analyzer {
        Analyzer::new(
            CodeRegistry::builder()
                .deploy(Address::from_u64(TOKEN), contracts::token())
                .deploy(Address::from_u64(COUNTER), contracts::counter())
                .build(),
        )
    }

    fn mint(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::MINT,
                &[Address::from_u64(to).to_u256(), U256::from(amount)],
            ),
        ))
    }

    fn transfer(caller: u64, to: u64, amount: u64) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(TOKEN),
            calldata(
                contracts::token_fn::TRANSFER,
                &[Address::from_u64(to).to_u256(), U256::from(amount)],
            ),
        ))
    }

    fn balance_key(owner: u64) -> StateKey {
        StateKey::storage(
            Address::from_u64(TOKEN),
            contracts::map_slot(Address::from_u64(owner).to_u256(), 1),
        )
    }

    #[test]
    fn serial_chain_of_token_ops() {
        let a = analyzer();
        let block = vec![mint(9, 1, 100), transfer(1, 2, 30), transfer(2, 3, 10)];
        let trace = execute_block_serial(&block, &Snapshot::empty(), &a, &BlockEnv::default());
        assert!(trace.txs.iter().all(|t| t.status.is_success()));
        assert_eq!(
            trace.final_writes.get(&balance_key(1)),
            Some(&U256::from(70u64))
        );
        assert_eq!(
            trace.final_writes.get(&balance_key(2)),
            Some(&U256::from(20u64))
        );
        assert_eq!(
            trace.final_writes.get(&balance_key(3)),
            Some(&U256::from(10u64))
        );
        assert_eq!(trace.total_gas, trace.txs.iter().map(|t| t.gas_used).sum());
    }

    #[test]
    fn read_provenance_tracks_block_order() {
        let a = analyzer();
        let block = vec![mint(9, 1, 100), transfer(1, 2, 30)];
        let trace = execute_block_serial(&block, &Snapshot::empty(), &a, &BlockEnv::default());
        // tx1's read of alice's balance must source from tx0 (the mint).
        let read = trace.txs[1]
            .reads
            .iter()
            .find(|r| r.key == balance_key(1))
            .expect("alice balance read");
        assert_eq!(read.sources, vec![0]);
    }

    #[test]
    fn reverted_tx_leaves_no_writes() {
        let a = analyzer();
        // transfer without funds reverts; following mint still works.
        let block = vec![transfer(1, 2, 30), mint(9, 1, 5)];
        let trace = execute_block_serial(&block, &Snapshot::empty(), &a, &BlockEnv::default());
        assert_eq!(trace.txs[0].status, ExecStatus::Reverted);
        assert!(trace.txs[0].writes.is_empty());
        assert!(trace.txs[0].adds.is_empty());
        assert_eq!(
            trace.final_writes.get(&balance_key(1)),
            Some(&U256::from(5u64))
        );
    }

    #[test]
    fn ether_transfer_semantics() {
        let a = analyzer();
        let alice = Address::from_u64(1);
        let bob = Address::from_u64(2);
        let snapshot = Snapshot::from_entries([(StateKey::balance(alice), U256::from(10u64))]);
        let block = vec![
            Transaction::transfer(alice, bob, U256::from(4u64)),
            Transaction::transfer(bob, alice, U256::from(1u64)),
            // Insufficient: bob has 3 left.
            Transaction::transfer(bob, alice, U256::from(50u64)),
        ];
        let trace = execute_block_serial(&block, &snapshot, &a, &BlockEnv::default());
        assert!(trace.txs[0].status.is_success());
        assert!(trace.txs[1].status.is_success());
        assert_eq!(trace.txs[2].status, ExecStatus::Reverted);
        assert_eq!(
            trace.final_writes.get(&StateKey::balance(alice)),
            Some(&U256::from(7u64))
        );
        assert_eq!(
            trace.final_writes.get(&StateKey::balance(bob)),
            Some(&U256::from(3u64))
        );
        // Transfer dependencies: tx1 reads bob's balance from tx0's add.
        let read = trace.txs[1]
            .reads
            .iter()
            .find(|r| r.key == StateKey::balance(bob))
            .expect("bob balance read");
        assert_eq!(read.sources, vec![0]);
    }

    #[test]
    fn release_offset_recorded_for_transfer_path() {
        let a = analyzer();
        let block = vec![mint(9, 1, 100), transfer(1, 2, 30)];
        let trace = execute_block_serial(&block, &Snapshot::empty(), &a, &BlockEnv::default());
        // Mint cannot abort once dispatched: its release point is the start
        // of the mint block (shortly after the intrinsic cost).
        let mint_rel = trace.txs[0].release_offset.expect("release point passed");
        assert!(mint_rel >= INTRINSIC_GAS);
        assert!(mint_rel < trace.txs[0].gas_used / 2 + INTRINSIC_GAS);
        // Transfer's release point is past the balance check but before the
        // end of execution.
        let rel = trace.txs[1].release_offset.expect("release point passed");
        assert!(rel > INTRINSIC_GAS);
        assert!(rel < trace.txs[1].gas_used);
        // Publishing the recipient's credit can happen only after the SADD,
        // which is at the very end.
        let publish = trace.txs[1]
            .publish_offset(&balance_key(2))
            .expect("publishable");
        assert!(publish >= rel);
    }

    #[test]
    fn final_writes_match_snapshot_apply() {
        // Committing the final writes then re-running a read-only check
        // agrees with a StateDb round trip.
        let a = analyzer();
        let block = vec![mint(9, 1, 100), transfer(1, 2, 30)];
        let snapshot = Snapshot::empty();
        let trace = execute_block_serial(&block, &snapshot, &a, &BlockEnv::default());
        let next = snapshot.apply(&trace.final_writes);
        assert_eq!(next.get(&balance_key(1)), U256::from(70u64));
    }

    #[test]
    fn unknown_contract_call_is_noop() {
        let a = analyzer();
        let tx = Transaction::call(TxEnv::call(
            Address::from_u64(1),
            Address::from_u64(999),
            calldata(1, &[]),
        ));
        let trace = execute_block_serial(&[tx], &Snapshot::empty(), &a, &BlockEnv::default());
        assert!(trace.txs[0].status.is_success());
        assert!(trace.final_writes.is_empty());
    }
}

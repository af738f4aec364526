//! Complete state access graphs (C-SAG): per-transaction refinement.
//!
//! When a transaction arrives, the validator refines the contract's P-SAG
//! using the concrete transaction input and state values from the latest
//! committed snapshot `S^{l-1}` (paper §III-B, §IV-A): runtime-dependent
//! keys are resolved, loops are unrolled, and the gas fields of release
//! points are filled. This module implements the refinement by *speculative
//! pre-execution*: the transaction is run against the snapshot with a
//! recording host, which is exactly "concrete values of the dependencies
//! are used to execute the contract code".
//!
//! The resulting prediction can be wrong when another transaction in the
//! block overwrites a snapshot value the prediction depended on — the
//! scheduler's abort machinery (paper Algorithms 3–4) recovers from that.
//! A wrong or missing prediction is a property of a scheduler's *input*,
//! so experiments that want one rewrite the refined records (hidden keys,
//! withheld predictions) instead of configuring the analyzer.

use std::collections::{BTreeSet, HashMap};

use dmvcc_primitives::{Address, U256};
use dmvcc_state::{Keyed, Snapshot, SortedVec, StateKey};
use dmvcc_vm::{
    execute_traced, BlockEnv, CodeRegistry, ExecParams, ExecStatus, Host, HostError, KeccakMemo,
    Tracer, Transaction, TxEnv, TxKind, CALL_DEPTH_LIMIT, INTRINSIC_GAS, MEMORY_LIMIT,
};

use crate::absint::{CallTarget, KeyExpr, PlanCallKind};
use crate::psag::{AccessKind, PSag};
use crate::symbolic::{digest, BindCtx};

/// One state access a refinement tier observed, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access {
    key: StateKey,
    /// ρ / ω / ω̄.
    kind: AccessKind,
    pc: usize,
    /// Call depth of the frame that made the access (0 = the transaction's
    /// own frame).
    depth: usize,
}

/// A release point refined with its measured gas requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasePoint {
    /// Program counter (a block start past the last reachable abort).
    pub pc: usize,
    /// Upper bound on the gas needed to finish execution from `pc`
    /// (measured on the predicted path; the paper's `gas` field).
    pub gas_bound: u64,
}

impl Keyed for ReleasePoint {
    type Key = usize;

    fn key(&self) -> &usize {
        &self.pc
    }
}

/// Which refinement path produced a C-SAG.
///
/// The paper refines every P-SAG by re-executing the contract against the
/// snapshot; this implementation adds a *symbolic* fast tier that binds
/// the P-SAG's key templates directly (substituting calldata/caller and
/// reading only the snapshot values the templates name) and falls back to
/// speculative pre-execution when a template is incomplete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefinementTier {
    /// Exact by construction: Ether transfers, or a call to an unknown
    /// contract (empty SAG, OCC fallback).
    #[default]
    Exact,
    /// Bound from the P-SAG's symbolic templates without executing code.
    Symbolic,
    /// Bound symbolically through at least one loop: the walk re-bound
    /// loop-carried φ variables ([`crate::SymExpr::LoopVar`]) on loop-head
    /// edges, unrolling the loop at bind time instead of falling back.
    LoopSummarized,
    /// Bound symbolically across at least one cross-contract call edge:
    /// the walk substituted callee plan summaries at their call sites
    /// ([`crate::PlanCall`]), rebinding `Caller` and calldata per frame —
    /// composition, not execution. Takes precedence over
    /// [`RefinementTier::LoopSummarized`] when a path does both.
    Interprocedural,
    /// Bound symbolically through at least one dynamic-but-bounded call
    /// site ([`crate::CallTarget::RegistrySlot`]): the callee address was
    /// resolved from the bound value of a registry storage slot and the
    /// matching candidate summary composed under that slot's snapshot
    /// guard. Takes precedence over [`RefinementTier::Interprocedural`].
    BoundedDynamic,
    /// Full speculative pre-execution against the snapshot.
    Speculative,
    /// No prediction at all: the caller withheld it (an unanalyzable
    /// transaction: pool desync, obfuscated bytecode), or the hybrid
    /// scheduler routed the transaction to the optimistic executor. Empty
    /// key sets — readers treat it exactly like an unknown-contract OCC
    /// fallback, but the tier records that prediction was *withheld*, not
    /// merely empty.
    Optimistic,
}

/// The complete (per-transaction) state access graph, as the record its
/// consumers read: per key the predicted access kind (the ρ/ω/ω̄ entries of
/// the paper's access sequences), per written key the point after which it
/// is not written again (Algorithm 2), and the release points with their
/// gas bounds. The graph itself — the ordered accesses, the snapshot values
/// `V` of the paper's `D_I(V, E)` — is not kept: a prediction made from a
/// value another transaction overwrites is caught by the scheduler's abort
/// path, not by comparing values.
///
/// Each vector is sorted with one entry per key (the type sees to that),
/// and no key is in both `writes` and `adds`: build a record with
/// [`CSag::from_accesses`] and change a key's kind with
/// [`CSag::predict_write`] so that stays true.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CSag {
    /// Keys predicted to be read (ρ).
    pub reads: SortedVec<StateKey>,
    /// Keys predicted to be written (ω), each with the pc of its last
    /// predicted write or add: the write may be published once execution is
    /// past that pc ([`CSag::NEVER`]: only when the transaction finishes).
    pub writes: SortedVec<(StateKey, usize)>,
    /// Keys predicted to be commutatively incremented and never fully
    /// written (ω̄), with the same pc.
    pub adds: SortedVec<(StateKey, usize)>,
    /// Release points with measured gas bounds, one per pc.
    pub release_points: SortedVec<ReleasePoint>,
    /// Whether the speculative run completed successfully.
    pub predicted_success: bool,
    /// Gas consumed on the predicted path.
    pub predicted_gas: u64,
    /// Which refinement tier produced this prediction.
    pub tier: RefinementTier,
}

impl CSag {
    /// The publish pc of a predicted write that is never publishable early:
    /// one made inside a nested call frame (a caller pc cannot order a
    /// callee's write), or one no predicted path performs at all.
    pub const NEVER: usize = usize::MAX;

    /// The trivial C-SAG of a pure Ether transfer: reads and writes exactly
    /// the two balance slots (the paper folds non-contract transactions
    /// into the same constraint system without running the EVM).
    pub fn for_transfer(from: Address, to: Address) -> CSag {
        let from_key = StateKey::balance(from);
        let to_key = StateKey::balance(to);
        // A self-transfer's credit folds into the pending debit write (the
        // executor merges `sadd` into an own buffered full write), so only
        // a distinct recipient contributes a commutative add.
        let adds = if to_key == from_key {
            Vec::new()
        } else {
            vec![(to_key, 0)]
        };
        CSag {
            reads: vec![from_key].into(),
            writes: vec![(from_key, 0)].into(),
            adds: adds.into(),
            // A transfer aborts only on insufficient balance, which is
            // checked upfront: the release point is the start.
            release_points: vec![ReleasePoint {
                pc: 0,
                gas_bound: 0,
            }]
            .into(),
            predicted_success: true,
            predicted_gas: INTRINSIC_GAS,
            tier: RefinementTier::Exact,
        }
    }

    /// The empty prediction of an unanalyzable transaction: no key sets,
    /// no release points, tier [`RefinementTier::Optimistic`]. The
    /// predictive executor treats it like an unknown-contract OCC
    /// fallback (dynamic insertion + stale-read aborts); the hybrid
    /// dispatcher uses the tier to count and route such transactions.
    pub fn optimistic() -> CSag {
        CSag {
            tier: RefinementTier::Optimistic,
            ..CSag::default()
        }
    }

    /// The key sets of a run of `(key, kind, pc)` accesses in execution
    /// order; everything else is left at its default. A key with any full
    /// write is a write, whatever else adds to it (execution hosts fold
    /// commutative adds into a buffered full write of the same key, in
    /// either order), and its pc is that of the last write *or* add. Pass
    /// [`CSag::NEVER`] as the pc of an access that must not be published
    /// early.
    pub fn from_accesses(
        accesses: impl IntoIterator<Item = (StateKey, AccessKind, usize)>,
    ) -> CSag {
        let mut run: Vec<Access> = accesses
            .into_iter()
            .map(|(key, kind, pc)| Access {
                key,
                kind,
                pc,
                depth: 0,
            })
            .collect();
        CSag::from_run(&mut run)
    }

    /// [`CSag::from_accesses`] over depth-tagged accesses: one made inside
    /// a nested frame cannot be matched to a top-frame pc and is never
    /// publishable early.
    fn from_run(run: &mut [Access]) -> CSag {
        // Stable: each key's accesses stay in execution order.
        run.sort_by_key(|a| a.key);
        // Per key: is it read, is it fully written, and the publish pc of
        // its last write or add.
        let per_key = || {
            run.chunk_by(|a, b| a.key == b.key).map(|accesses| {
                let read = accesses.iter().any(|a| a.kind == AccessKind::Read);
                let written = accesses.iter().any(|a| a.kind == AccessKind::Write);
                let last = accesses.iter().rev().find(|a| a.kind != AccessKind::Read);
                let pc = last.map(|a| if a.depth == 0 { a.pc } else { CSag::NEVER });
                (accesses[0].key, read, written, pc)
            })
        };
        // Sized exactly: a block holds ten thousand of these.
        let mut sizes = [0usize; 3];
        for (_, read, written, pc) in per_key() {
            sizes[0] += usize::from(read);
            sizes[1] += usize::from(written);
            sizes[2] += usize::from(!written && pc.is_some());
        }
        let mut reads = Vec::with_capacity(sizes[0]);
        let mut writes = Vec::with_capacity(sizes[1]);
        let mut adds = Vec::with_capacity(sizes[2]);
        for (key, read, written, pc) in per_key() {
            if read {
                reads.push(key);
            }
            match pc {
                Some(pc) if written => writes.push((key, pc)),
                Some(pc) => adds.push((key, pc)),
                None => {}
            }
        }
        CSag {
            reads: reads.into(),
            writes: writes.into(),
            adds: adds.into(),
            ..CSag::default()
        }
    }

    /// Predicts a full write of `key`, publishable once execution is past
    /// `pc`; a predicted add of the key folds into it.
    pub fn predict_write(&mut self, key: StateKey, pc: usize) {
        self.adds.remove(&key);
        self.writes.insert((key, pc));
    }

    /// The keys predicted to be written or added to, each once: the writes
    /// in key order, then the adds.
    pub fn written(&self) -> impl Iterator<Item = &StateKey> {
        self.writes.iter().chain(&self.adds).map(|(key, _)| key)
    }

    /// All keys the transaction touches.
    pub fn touched(&self) -> BTreeSet<StateKey> {
        self.reads.iter().chain(self.written()).copied().collect()
    }
}

/// A host that reads from a snapshot plus a private overlay of this
/// transaction's own writes, recording everything it sees.
struct SpecHost<'a> {
    snapshot: &'a Snapshot,
    overlay: HashMap<StateKey, U256>,
    deltas: HashMap<StateKey, U256>,
    releases: Vec<(usize, u64)>,
    /// The refining worker's digests, if it keeps any.
    memo: Option<&'a mut KeccakMemo>,
}

impl Host for SpecHost<'_> {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        if let Some(&v) = self.overlay.get(&key) {
            let merged = v.wrapping_add(self.deltas.get(&key).copied().unwrap_or(U256::ZERO));
            return Ok(merged);
        }
        let base = self.snapshot.get(&key);
        Ok(base.wrapping_add(self.deltas.get(&key).copied().unwrap_or(U256::ZERO)))
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        self.deltas.remove(&key);
        self.overlay.insert(key, value);
        Ok(())
    }

    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        let entry = self.deltas.entry(key).or_insert(U256::ZERO);
        *entry = entry.wrapping_add(delta);
        Ok(())
    }

    fn on_release_point(&mut self, pc: usize, gas_left: u64) {
        self.releases.push((pc, gas_left));
    }

    fn keccak(&mut self, data: &[u8]) -> U256 {
        digest(self.memo.as_deref_mut(), data)
    }
}

struct AccessRecorder {
    events: Vec<Access>,
    depth: usize,
}

impl AccessRecorder {
    fn record(&mut self, pc: usize, kind: AccessKind, key: StateKey) {
        let depth = self.depth;
        self.events.push(Access {
            key,
            kind,
            pc,
            depth,
        });
    }
}

impl Tracer for AccessRecorder {
    fn on_sload(&mut self, pc: usize, key: StateKey, _value: U256) {
        self.record(pc, AccessKind::Read, key);
    }
    fn on_sstore(&mut self, pc: usize, key: StateKey, _value: U256) {
        self.record(pc, AccessKind::Write, key);
    }
    fn on_sadd(&mut self, pc: usize, key: StateKey, _delta: U256) {
        self.record(pc, AccessKind::Add, key);
    }
    fn on_enter_call(&mut self, depth: usize, _callee: Address) {
        self.depth = depth;
    }
    fn on_exit_call(&mut self, depth: usize) {
        self.depth = depth - 1;
    }
}

/// The SAG analyzer: caches P-SAGs per contract and refines them into
/// C-SAGs per transaction.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::Snapshot;
/// use dmvcc_vm::{calldata, contracts, CodeRegistry, Transaction, TxEnv};
/// use dmvcc_analysis::Analyzer;
///
/// let contract = Address::from_u64(100);
/// let registry = CodeRegistry::builder()
///     .deploy(contract, contracts::counter())
///     .build();
/// let analyzer = Analyzer::new(registry);
/// let tx = Transaction::call(TxEnv::call(
///     Address::from_u64(1),
///     contract,
///     calldata(contracts::counter_fn::INCREMENT, &[]),
/// ));
/// let sag = analyzer.csag(&tx, &Snapshot::empty(), &Default::default());
/// assert_eq!(sag.adds.len(), 1);
/// assert!(sag.predicted_success);
/// ```
#[derive(Debug, Clone)]
pub struct Analyzer {
    registry: CodeRegistry,
    psags: std::sync::Arc<parking_lot::Mutex<HashMap<Address, std::sync::Arc<crate::PSag>>>>,
}

impl Analyzer {
    /// Creates an analyzer over the contracts of `registry`.
    pub fn new(registry: CodeRegistry) -> Self {
        Analyzer {
            registry,
            psags: Default::default(),
        }
    }

    /// The code registry this analyzer resolves contracts from.
    pub fn registry(&self) -> &CodeRegistry {
        &self.registry
    }

    /// Returns (building and caching on first use) the P-SAG of the
    /// contract deployed at `address`.
    ///
    /// P-SAGs depend only on the bytecode and the registry, never on the
    /// deployment address (storage keys are relative to the *executing*
    /// contract), so they are memoized in the registry's code-hash-keyed
    /// [`dmvcc_vm::SummaryCache`]: N deployments of one token body share
    /// one analysis, and every clone of the registry (one per executor
    /// thread) shares the memo. The per-address map here only short-cuts
    /// the hash lookup.
    pub fn psag(&self, address: &Address) -> Option<std::sync::Arc<crate::PSag>> {
        if let Some(cached) = self.psags.lock().get(address) {
            return Some(cached.clone());
        }
        let code = self.registry.code(address)?;
        let hash = self
            .registry
            .code_hash(address)
            .expect("deployed code has a hash");
        let (sag, _hit) = self.registry.summaries().get_or_insert_with(hash, || {
            std::sync::Arc::new(crate::PSag::build_with(&code, Some(&self.registry)))
        });
        self.psags.lock().insert(*address, sag.clone());
        Some(sag)
    }

    /// Builds the C-SAG of `tx` against snapshot `snapshot`.
    ///
    /// For Ether transfers the result is exact ([`CSag::for_transfer`]).
    /// For contract calls it first tries to *bind* the P-SAG's symbolic
    /// templates against the transaction — no bytecode execution, only the
    /// snapshot reads the templates name — and falls back to speculative
    /// pre-execution ([`Analyzer::speculate`]) whenever the walked path
    /// leaves the statically-planned region. Calls to unknown contracts
    /// yield an empty C-SAG (the scheduler then falls back to OCC-style
    /// handling, as the paper prescribes for missing SAGs).
    ///
    /// Every digest the refinement needs is computed afresh; a worker that
    /// refines many transactions keeps a [`KeccakMemo`] and calls
    /// [`Analyzer::csag_with_memo`] instead.
    pub fn csag(&self, tx: &Transaction, snapshot: &Snapshot, block: &BlockEnv) -> CSag {
        self.refine_one(tx, snapshot, block, None, true)
    }

    /// [`Analyzer::csag`], taking every digest — a mapping slot the
    /// symbolic walk binds, a `SHA3` the speculative run executes — from
    /// `memo`. The C-SAG is the same.
    pub fn csag_with_memo(
        &self,
        tx: &Transaction,
        snapshot: &Snapshot,
        block: &BlockEnv,
        memo: &mut KeccakMemo,
    ) -> CSag {
        self.refine_one(tx, snapshot, block, Some(memo), true)
    }

    /// [`Analyzer::csag`] without the symbolic attempt: every contract call
    /// is pre-executed against the snapshot (the paper's own refinement),
    /// so its record is the reference the symbolic tiers must match on
    /// every field but the tier. Transfers and calls to unknown contracts
    /// are refined as [`Analyzer::csag`] refines them.
    pub fn speculate(&self, tx: &Transaction, snapshot: &Snapshot, block: &BlockEnv) -> CSag {
        self.refine_one(tx, snapshot, block, None, false)
    }

    fn refine_one(
        &self,
        tx: &Transaction,
        snapshot: &Snapshot,
        block: &BlockEnv,
        mut memo: Option<&mut KeccakMemo>,
        symbolic: bool,
    ) -> CSag {
        if tx.kind == TxKind::Transfer {
            return CSag::for_transfer(tx.sender(), tx.to());
        }
        let Some(deployed) = self.registry.deployed(&tx.to()) else {
            // Nothing to execute: trivial success at the intrinsic cost, as
            // the serial oracle and the engines report it.
            return CSag {
                predicted_success: true,
                predicted_gas: INTRINSIC_GAS,
                ..CSag::default()
            };
        };
        let psag = self.psag(&tx.to()).expect("code exists, psag builds");
        let bound = if symbolic {
            self.bind(tx, snapshot, block, &psag, memo.as_deref_mut())
        } else {
            None
        };
        let (raw, tier) = bound.unwrap_or_else(|| {
            let raw = self.pre_execute(tx, snapshot, block, &psag, deployed.code(), memo);
            (raw, RefinementTier::Speculative)
        });
        Self::finish(raw, tx.env.gas_limit, &psag.release_pcs, tier)
    }

    /// The symbolic tiers: binds the templates of `psag` against `tx`, or
    /// `None` where the walk leaves the statically-planned region.
    fn bind(
        &self,
        tx: &Transaction,
        snapshot: &Snapshot,
        block: &BlockEnv,
        psag: &PSag,
        memo: Option<&mut KeccakMemo>,
    ) -> Option<(RawPrediction, RefinementTier)> {
        let resolver = |addr: &Address| self.psag(addr);
        let (raw, looped, called, bounded) =
            bind_symbolic(psag, tx, block, snapshot, &resolver, memo)?;
        let tier = if bounded {
            RefinementTier::BoundedDynamic
        } else if called {
            RefinementTier::Interprocedural
        } else if looped {
            RefinementTier::LoopSummarized
        } else {
            RefinementTier::Symbolic
        };
        Some((raw, tier))
    }

    /// The speculative tier: runs deployed `code`, whose P-SAG is `psag`,
    /// against the snapshot and records every access.
    fn pre_execute(
        &self,
        tx: &Transaction,
        snapshot: &Snapshot,
        block: &BlockEnv,
        psag: &PSag,
        code: &[u8],
        memo: Option<&mut KeccakMemo>,
    ) -> RawPrediction {
        let mut host = SpecHost {
            snapshot,
            overlay: HashMap::new(),
            deltas: HashMap::new(),
            releases: Vec::new(),
            memo,
        };
        let mut recorder = AccessRecorder {
            events: Vec::new(),
            depth: 0,
        };
        let params = ExecParams {
            code,
            tx: &tx.env,
            block,
            release_points: Some(&psag.release_pcs),
            registry: Some(&self.registry),
        };
        let outcome = execute_traced(&params, &mut host, &mut recorder);
        RawPrediction {
            events: recorder.events,
            releases: host.releases,
            predicted_success: matches!(outcome.status, ExecStatus::Success),
            gas_used: outcome.gas_used,
        }
    }

    /// Shared post-processing of both refinement tiers: key-set
    /// construction and release-point assembly. Keeping this common is what
    /// makes the symbolic tier bit-identical to the speculative one
    /// whenever it binds.
    fn finish(
        mut raw: RawPrediction,
        gas_limit: u64,
        release_pcs: &[usize],
        tier: RefinementTier,
    ) -> CSag {
        let mut sag = CSag::from_run(&mut raw.events);
        sag.predicted_success = raw.predicted_success;
        sag.predicted_gas = raw.gas_used;
        sag.tier = tier;

        // Gas bound of a release point = gas it still needed on the
        // predicted path = gas_left at the point − gas_left at the end.
        let gas_left_end = gas_limit - raw.gas_used;
        let observed = raw.releases.into_iter().map(|(pc, gas_left)| ReleasePoint {
            pc,
            gas_bound: gas_left.saturating_sub(gas_left_end),
        });
        // An entry release point (the contract cannot abort at all) is never
        // "passed" by the interpreter; record it explicitly so executors can
        // publish from the very first write.
        let entry = (release_pcs.first() == Some(&0)).then(|| ReleasePoint {
            pc: 0,
            gas_bound: raw.gas_used.saturating_sub(INTRINSIC_GAS),
        });
        let mut points: Vec<ReleasePoint> = observed.chain(entry).collect();
        // A pc passed more than once (a loop) keeps its first, largest
        // bound: of equal keys the sorted vector keeps the last.
        points.reverse();
        sag.release_points = points.into();
        sag
    }
}

/// Raw facts a refinement tier produces before shared post-processing:
/// depth-tagged accesses in execution order, raw release observations and
/// the predicted outcome.
#[derive(Debug, PartialEq, Eq)]
struct RawPrediction {
    events: Vec<Access>,
    releases: Vec<(usize, u64)>,
    predicted_success: bool,
    gas_used: u64,
}

/// Loop-unroll budget shared by every frame of one symbolic walk: beyond
/// this many block visits the walk is cheaper to redo speculatively.
const MAX_BLOCK_VISITS: usize = 4096;

/// What one call frame of the symbolic walk produced.
struct BoundFrame {
    /// Gas left out of the frame's budget when it halted. A reverting
    /// frame keeps its remainder (the interpreter's revert semantics);
    /// the caller charges `budget - gas_left`.
    gas_left: u64,
    /// `true` for a clean halt, `false` for a revert — which, at a call
    /// site, reverts the calling frame at the call pc.
    success: bool,
    /// Return payload as 32-byte words, when the halting block's plan
    /// could shape it (`None` otherwise — call sites that need the bytes
    /// fall back).
    output: Option<Vec<U256>>,
}

/// State shared by every frame of one symbolic walk. Per-frame state —
/// `Load` bindings, φ variables, gas, the memory high-water mark — lives
/// on [`BindWalk::frame`]'s stack, mirroring the machine's frame-fresh
/// memory and per-frame gas budgets.
struct BindWalk<'a> {
    block: &'a BlockEnv,
    snapshot: &'a Snapshot,
    resolver: &'a dyn Fn(&Address) -> Option<std::sync::Arc<PSag>>,
    /// Top-level transaction sender (`ORIGIN`), invariant across frames.
    origin: Address,
    /// The refining worker's digests, if it keeps any.
    memo: Option<&'a mut KeccakMemo>,
    overlay: HashMap<StateKey, U256>,
    deltas: HashMap<StateKey, U256>,
    events: Vec<Access>,
    releases: Vec<(usize, u64)>,
    visits: usize,
    looped: bool,
    called: bool,
    bounded: bool,
}

/// The symbolic fast tier: walks the contract's block plans, evaluating
/// key/value/condition templates against the concrete transaction and
/// reading only the snapshot values named by `Load` holes — no bytecode
/// is executed.
///
/// Loops are unrolled *at bind time*: crossing an edge into a φ head
/// re-binds the head's loop-carried variables from the plan's per-edge
/// assignments (all right-hand sides evaluated before any commit —
/// parallel copy), so loop-variant keys, values and trip conditions
/// evaluate concretely on every iteration.
///
/// Calls are composed *at bind time*: a summarized call site
/// ([`crate::PlanCall`]) opens a fresh frame over the callee's own plan
/// (resolved through `resolver`), with the caller's evaluated argument
/// words as calldata and the interpreter's 63/64 gas budget; the callee's
/// return words bind the caller's ret-region `Load` holes. State (overlay,
/// deltas) and the access-event stream are shared across
/// frames, so cross-contract flows like flash-mint-and-repay bind exactly.
///
/// Returns `None` (fall back to speculative pre-execution) the moment the
/// walked path leaves the statically-planned region: an incomplete block
/// plan, an unresolved jump, out-of-gas or a memory fault on the walked
/// path, a φ assignment that fails to evaluate, a loop running past the
/// unroll budget, a call past the machine's depth limit, or a callee
/// output the plan could not shape. A successful walk reproduces the
/// speculative tier's observations *exactly*, including block-boundary
/// gas (release gas bounds are load-bearing: the scheduler releases locks
/// against them). The returned flags are `(looped, called)`: whether any
/// φ was bound and whether any call frame was composed.
fn bind_symbolic(
    psag: &PSag,
    tx: &Transaction,
    block: &BlockEnv,
    snapshot: &Snapshot,
    resolver: &dyn Fn(&Address) -> Option<std::sync::Arc<PSag>>,
    memo: Option<&mut KeccakMemo>,
) -> Option<(RawPrediction, bool, bool, bool)> {
    let env = &tx.env;
    if env.gas_limit < INTRINSIC_GAS {
        return None; // the interpreter prices this edge case
    }
    let mut walk = BindWalk {
        block,
        snapshot,
        resolver,
        origin: env.caller,
        memo,
        overlay: HashMap::new(),
        deltas: HashMap::new(),
        events: Vec::new(),
        releases: Vec::new(),
        visits: 0,
        looped: false,
        called: false,
        bounded: false,
    };
    let frame = walk.frame(psag, env, env.gas_limit - INTRINSIC_GAS, 0, false)?;
    Some((
        RawPrediction {
            events: walk.events,
            releases: walk.releases,
            predicted_success: frame.success,
            gas_used: env.gas_limit - frame.gas_left,
        },
        walk.looped,
        walk.called,
        walk.bounded,
    ))
}

impl BindWalk<'_> {
    /// Walks one call frame over `psag`'s plan with the frame environment
    /// `env` and gas budget `budget` (the top frame's limit net of
    /// intrinsic gas; a callee's 63/64 allowance — nested frames get no
    /// intrinsic deduction, matching the machine). `read_only` marks a
    /// `STATICCALL` frame (or anything nested below one): the machine
    /// reverts such a frame on any store, so a walked path that writes
    /// cannot bind block-granular gas exactly and falls back.
    fn frame(
        &mut self,
        psag: &PSag,
        env: &TxEnv,
        budget: u64,
        depth: usize,
        read_only: bool,
    ) -> Option<BoundFrame> {
        use crate::cfg::BlockExit;

        let contract = env.contract;
        let mut gas_left = budget;
        // Memory high-water mark in 32-byte words, for expansion gas.
        // Every frame starts with fresh, empty memory.
        let mut mem_words: u64 = 0;
        let mut loads: Vec<Option<U256>> = vec![None; psag.plan.load_count];
        let mut loop_vars: Vec<Option<U256>> = vec![None; psag.plan.loop_var_count];

        let mut index = 0usize;
        let (success, output) = loop {
            self.visits += 1;
            if self.visits > MAX_BLOCK_VISITS {
                return None;
            }
            let bb = &psag.cfg.blocks[index];
            let plan = &psag.plan.blocks[index];
            if !plan.complete {
                return None;
            }

            // Gas: static base + bound EXP exponents + memory expansion,
            // charged at block granularity. gas_left only ever decreases,
            // so a boundary check detects out-of-gas on the walked path
            // (the exact faulting pc does not matter — an unfinishable
            // walk falls back).
            let mut charge = plan.static_gas;
            for term in &plan.exp_terms {
                let mut ctx = BindCtx {
                    tx: env,
                    origin: self.origin,
                    block: self.block,
                    loads: &loads,
                    loop_vars: &loop_vars,
                    memo: self.memo.as_deref_mut(),
                };
                let exponent = term.eval(&mut ctx)?;
                charge += 50 * exponent.bits().div_ceil(8) as u64;
            }
            for &(offset, len) in &plan.mem_touches {
                let end = offset.checked_add(len).filter(|&e| e <= MEMORY_LIMIT)?;
                let end_words = end.div_ceil(32) as u64;
                if end_words > mem_words {
                    charge += 3 * (end_words - mem_words);
                    mem_words = end_words;
                }
            }
            if charge > gas_left {
                return None;
            }
            gas_left -= charge;

            for access in &plan.accesses {
                // A store in a read-only frame reverts the machine mid-
                // block; the lump gas charge above no longer matches, so
                // the walk cannot replicate it — speculation prices it.
                if read_only && matches!(access.kind, AccessKind::Write | AccessKind::Add) {
                    return None;
                }
                let mut ctx = BindCtx {
                    tx: env,
                    origin: self.origin,
                    block: self.block,
                    loads: &loads,
                    loop_vars: &loop_vars,
                    memo: self.memo.as_deref_mut(),
                };
                let key_value = access.key.expr().eval(&mut ctx)?;
                let key = match access.key {
                    KeyExpr::Storage(_) => StateKey::storage(contract, key_value),
                    KeyExpr::Balance(_) => StateKey::balance(Address::from_u256(key_value)),
                };
                // Mirror SpecHost's merge semantics: reads see own writes
                // plus pending commutative deltas; a full write folds the
                // delta. The overlay is shared across frames, so a callee
                // observes its caller's earlier writes and vice versa.
                match access.kind {
                    AccessKind::Read => {
                        let delta = self.deltas.get(&key).copied().unwrap_or(U256::ZERO);
                        let value = match self.overlay.get(&key) {
                            Some(&v) => v.wrapping_add(delta),
                            None => self.snapshot.get(&key).wrapping_add(delta),
                        };
                        loads[access.load?] = Some(value);
                    }
                    AccessKind::Write => {
                        let value = access.value.as_ref()?.eval(&mut ctx)?;
                        self.deltas.remove(&key);
                        self.overlay.insert(key, value);
                    }
                    AccessKind::Add => {
                        let delta = access.value.as_ref()?.eval(&mut ctx)?;
                        let entry = self.deltas.entry(key).or_insert(U256::ZERO);
                        *entry = entry.wrapping_add(delta);
                    }
                }
                self.events.push(Access {
                    key,
                    kind: access.kind,
                    pc: access.pc,
                    depth,
                });
            }

            // A summarized call is always its block's last instruction
            // (the CFG splits blocks at `CALL`), so the lump charge above
            // is exactly what the machine had charged when it computed the
            // 63/64 budget.
            if let Some(call) = &plan.call {
                self.called = true;
                if depth + 1 > CALL_DEPTH_LIMIT {
                    // The machine pushes 0 here where the plan assumed
                    // success; let speculation price that path.
                    return None;
                }
                let mut ctx = BindCtx {
                    tx: env,
                    origin: self.origin,
                    block: self.block,
                    loads: &loads,
                    loop_vars: &loop_vars,
                    memo: self.memo.as_deref_mut(),
                };
                let value = call.value.eval(&mut ctx)?;
                if !value.is_zero() && read_only {
                    // Value transfer inside a static frame: the machine
                    // reverts this frame at the call pc. The call ends its
                    // block, so the lump charge matches the machine's and
                    // the revert binds exactly.
                    break (false, None);
                }
                // Resolve the callee: a fixed address, or the bound value
                // of the registry slot the dispatch reads from (that slot's
                // earlier `SLOAD` already guards the prediction with a
                // snapshot dependency).
                let callee = match call.target {
                    CallTarget::Fixed(addr) => addr,
                    CallTarget::RegistrySlot { load } => {
                        self.bounded = true;
                        Address::from_u256(loads[load]?)
                    }
                };
                let mut input = Vec::with_capacity(call.args.len() * 32);
                for word in &call.args {
                    input.extend_from_slice(&word.eval(&mut ctx)?.to_be_bytes());
                }
                input.truncate(call.args_len);
                // Value plumbing, exactly as the machine does it: traced
                // read of the sending contract's balance, then either a
                // failed call (push 0, no transfer, callee not entered) or
                // a full-write debit plus a commutative credit that never
                // observes the recipient's old balance.
                let mut entered = true;
                if !value.is_zero() {
                    let sender_key = StateKey::balance(contract);
                    let delta = self.deltas.get(&sender_key).copied().unwrap_or(U256::ZERO);
                    let balance = match self.overlay.get(&sender_key) {
                        Some(&v) => v.wrapping_add(delta),
                        None => self.snapshot.get(&sender_key).wrapping_add(delta),
                    };
                    let mut record = |kind, key| {
                        let pc = call.pc;
                        self.events.push(Access {
                            key,
                            kind,
                            pc,
                            depth,
                        })
                    };
                    record(AccessKind::Read, sender_key);
                    if balance < value {
                        entered = false;
                    } else {
                        self.deltas.remove(&sender_key);
                        self.overlay.insert(sender_key, balance.wrapping_sub(value));
                        record(AccessKind::Write, sender_key);
                        let recipient_key = StateKey::balance(callee);
                        let entry = self.deltas.entry(recipient_key).or_insert(U256::ZERO);
                        *entry = entry.wrapping_add(value);
                        record(AccessKind::Add, recipient_key);
                    }
                }
                let callee_psag = if entered {
                    (self.resolver)(&callee)
                } else {
                    None
                };
                match callee_psag {
                    Some(callee_psag) => {
                        let callee_budget = gas_left - gas_left / 64;
                        let callee_env = match call.kind {
                            // Delegate frames keep the caller's identity:
                            // same storage context, caller and value.
                            PlanCallKind::Delegate => TxEnv {
                                caller: env.caller,
                                contract: env.contract,
                                value: env.value,
                                input,
                                gas_limit: callee_budget,
                            },
                            // A transferred value moved at the balance
                            // level above; the callee frame observes
                            // CALLVALUE = 0, as in the machine.
                            _ => TxEnv {
                                caller: contract,
                                contract: callee,
                                value: U256::ZERO,
                                input,
                                gas_limit: callee_budget,
                            },
                        };
                        let child_read_only = read_only || call.kind == PlanCallKind::Static;
                        let frame = self.frame(
                            &callee_psag,
                            &callee_env,
                            callee_budget,
                            depth + 1,
                            child_read_only,
                        )?;
                        gas_left -= callee_budget - frame.gas_left;
                        if !frame.success {
                            // A failing callee reverts the calling frame at
                            // the call pc; the revert propagates through
                            // every ancestor frame (and keeps each frame's
                            // gas).
                            break (false, None);
                        }
                        if let Some(id) = call.result_load {
                            loads[id] = Some(U256::ONE);
                        }
                        if call.ret_len > 0 {
                            let out = frame.output.as_ref()?;
                            let copy = (out.len() * 32).min(call.ret_len);
                            let mut ctx = BindCtx {
                                tx: env,
                                origin: self.origin,
                                block: self.block,
                                loads: &loads,
                                loop_vars: &loop_vars,
                                memo: self.memo.as_deref_mut(),
                            };
                            let mut bound = Vec::with_capacity(call.ret_loads.len());
                            for (w, prev) in call.prev_ret_words.iter().enumerate() {
                                bound.push(if 32 * (w + 1) <= copy {
                                    out[w]
                                } else if 32 * w >= copy {
                                    // Short callee output: the word keeps
                                    // its pre-call memory content.
                                    prev.eval(&mut ctx)?
                                } else {
                                    return None; // copy boundary splits the word
                                });
                            }
                            for (&id, value) in call.ret_loads.iter().zip(bound) {
                                loads[id] = Some(value);
                            }
                        }
                    }
                    None => {
                        // A failed value call, or a callee with no deployed
                        // code (trivial success): either way the callee is
                        // not entered — result 0 or 1, return region left
                        // with its pre-call contents.
                        let mut ctx = BindCtx {
                            tx: env,
                            origin: self.origin,
                            block: self.block,
                            loads: &loads,
                            loop_vars: &loop_vars,
                            memo: self.memo.as_deref_mut(),
                        };
                        let mut bound = Vec::with_capacity(call.ret_loads.len());
                        for prev in &call.prev_ret_words {
                            bound.push(prev.eval(&mut ctx)?);
                        }
                        for (&id, value) in call.ret_loads.iter().zip(bound) {
                            loads[id] = Some(value);
                        }
                        let result = if entered { U256::ONE } else { U256::ZERO };
                        match call.result_load {
                            Some(id) => loads[id] = Some(result),
                            // A zero-value no-code site is modeled as
                            // `no_code_call` at plan time, so a composed
                            // site without a result hole statically pushed
                            // 1 — only reachable here when the result is 1.
                            None if result == U256::ONE => {}
                            None => return None,
                        }
                    }
                }
            }

            let next = match bb.exit {
                BlockExit::Halt => {
                    // Shape the return payload for the caller, when the
                    // halting block's plan captured one and every word
                    // binds. `None` only hurts call sites that need the
                    // bytes (ret_len > 0) — they fall back.
                    let output = plan.output.as_ref().and_then(|words| {
                        let mut ctx = BindCtx {
                            tx: env,
                            origin: self.origin,
                            block: self.block,
                            loads: &loads,
                            loop_vars: &loop_vars,
                            memo: self.memo.as_deref_mut(),
                        };
                        words.iter().map(|w| w.eval(&mut ctx)).collect()
                    });
                    break (true, output);
                }
                BlockExit::Abort => break (false, None),
                BlockExit::FallThrough(succ) | BlockExit::Jump(succ) => succ,
                BlockExit::Branch(taken, fall) => {
                    let mut ctx = BindCtx {
                        tx: env,
                        origin: self.origin,
                        block: self.block,
                        loads: &loads,
                        loop_vars: &loop_vars,
                        memo: self.memo.as_deref_mut(),
                    };
                    let cond = plan.cond.as_ref()?.eval(&mut ctx)?;
                    if cond.is_zero() {
                        fall
                    } else {
                        taken
                    }
                }
                BlockExit::Unknown => return None,
            };
            // Same observation point as the interpreter's release
            // callback: landing on a release pc, with the gas left at
            // that moment. The machine only fires release callbacks in
            // the outermost frame.
            let next_pc = psag.cfg.blocks[next].start_pc;
            if depth == 0 && psag.release_pcs.binary_search(&next_pc).is_ok() {
                self.releases.push((next_pc, gas_left));
            }
            // Crossing an edge into a φ head re-binds the head's
            // loop-carried variables: every assignment's right-hand side
            // is evaluated against the pre-edge state, then all are
            // committed at once (parallel copy). An edge that misses a
            // variable, or a right-hand side that fails to evaluate,
            // falls back.
            if let Some(vars) = psag.plan.phi_heads.get(&next) {
                let assigns = psag.plan.phi_edges.get(&(index, next))?;
                let mut ctx = BindCtx {
                    tx: env,
                    origin: self.origin,
                    block: self.block,
                    loads: &loads,
                    loop_vars: &loop_vars,
                    memo: self.memo.as_deref_mut(),
                };
                let mut committed = Vec::with_capacity(vars.len());
                for var in vars {
                    let (_, expr) = assigns.iter().find(|(v, _)| v == var)?;
                    committed.push((*var, expr.eval(&mut ctx)?));
                }
                for (var, value) in committed {
                    loop_vars[var] = Some(value);
                }
                self.looped = true;
            }
            index = next;
        };

        Some(BoundFrame {
            gas_left,
            success,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;
    use dmvcc_vm::{calldata, contracts, BlockEnv, TxEnv};

    const TOKEN: u64 = 100;
    const COUNTER: u64 = 101;
    const FIG1: u64 = 102;
    const AMM: u64 = 103;
    const ROUTER: u64 = 104;
    const TOKEN_A: u64 = 105;
    const TOKEN_B: u64 = 106;
    const ROUTER2: u64 = 107;
    const FLASH: u64 = 108;
    const ORACLE: u64 = 109;
    const CONSUMER1: u64 = 110;
    const CONSUMER2: u64 = 111;
    const DROP: u64 = 112;
    const SPLITTER: u64 = 113;
    const FLOOR: u64 = 114;

    fn analyzer() -> Analyzer {
        let amm_addr = Address::from_u64(AMM);
        let token_a = Address::from_u64(TOKEN_A);
        let token_b = Address::from_u64(TOKEN_B);
        let consumers = [Address::from_u64(CONSUMER1), Address::from_u64(CONSUMER2)];
        let splitter = Address::from_u64(SPLITTER);
        let floor = Address::from_u64(FLOOR);
        let registry = CodeRegistry::builder()
            .deploy(
                Address::from_u64(DROP),
                contracts::nft_drop(splitter, floor),
            )
            .deploy(splitter, contracts::royalty_splitter())
            .deploy(floor, contracts::floor_oracle())
            .deploy(Address::from_u64(TOKEN), contracts::token())
            .deploy(Address::from_u64(COUNTER), contracts::counter())
            .deploy(Address::from_u64(FIG1), contracts::fig1_example())
            .deploy(amm_addr, contracts::amm())
            .deploy(Address::from_u64(ROUTER), contracts::dex_router(amm_addr))
            .deploy(token_a, contracts::token())
            .deploy(token_b, contracts::token())
            .deploy(
                Address::from_u64(ROUTER2),
                contracts::dex_router2(amm_addr, token_a, token_b),
            )
            .deploy(Address::from_u64(FLASH), contracts::flash_mint(token_a))
            .deploy(Address::from_u64(ORACLE), contracts::oracle(&consumers))
            .deploy(consumers[0], contracts::price_consumer())
            .deploy(consumers[1], contracts::price_consumer())
            .build();
        Analyzer::new(registry)
    }

    /// AMM pool seeded with reserves 1000/4000.
    fn amm_snapshot() -> Snapshot {
        let amm_addr = Address::from_u64(AMM);
        Snapshot::from_entries([
            (StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64)),
            (StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64)),
        ])
    }

    fn call_tx(contract: u64, caller: u64, selector: u64, args: &[U256]) -> Transaction {
        Transaction::call(TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(contract),
            calldata(selector, args),
        ))
    }

    #[test]
    fn transfer_csag_is_exact() {
        let from = Address::from_u64(1);
        let to = Address::from_u64(2);
        let sag = CSag::for_transfer(from, to);
        assert!(sag.reads.contains(&StateKey::balance(from)));
        assert!(sag.writes.contains(&StateKey::balance(from)));
        assert!(sag.adds.contains(&StateKey::balance(to)));
        assert!(sag.predicted_success);
    }

    #[test]
    fn counter_increment_predicts_single_add() {
        let a = analyzer();
        let tx = call_tx(COUNTER, 1, contracts::counter_fn::INCREMENT, &[]);
        let sag = a.csag(&tx, &Snapshot::empty(), &BlockEnv::default());
        assert_eq!(sag.adds.len(), 1);
        assert!(sag.reads.is_empty());
        assert!(sag.writes.is_empty());
        assert!(sag.predicted_success);
        // Counter cannot abort → release point at entry with gas bound
        // covering the whole body.
        assert_eq!(sag.release_points.len(), 1);
        assert_eq!(sag.release_points[0].pc, 0);
        assert_eq!(
            sag.release_points[0].gas_bound,
            sag.predicted_gas - dmvcc_vm::INTRINSIC_GAS
        );
    }

    #[test]
    fn token_transfer_prediction() {
        let a = analyzer();
        let alice = Address::from_u64(1);
        let alice_slot = contracts::map_slot(alice.to_u256(), 1);
        let bob_slot = contracts::map_slot(Address::from_u64(2).to_u256(), 1);
        let key_alice = StateKey::storage(Address::from_u64(TOKEN), alice_slot);
        let key_bob = StateKey::storage(Address::from_u64(TOKEN), bob_slot);

        // Fund alice in the snapshot so the transfer succeeds.
        let snapshot = Snapshot::from_entries([(key_alice, U256::from(100u64))]);
        let tx = call_tx(
            TOKEN,
            1,
            contracts::token_fn::TRANSFER,
            &[Address::from_u64(2).to_u256(), U256::from(30u64)],
        );
        let sag = a.csag(&tx, &snapshot, &BlockEnv::default());
        assert!(sag.predicted_success);
        assert!(sag.reads.contains(&key_alice));
        assert!(sag.writes.contains(&key_alice));
        assert!(sag.adds.contains(&key_bob));
        // There is a release point after the balance check, with a positive
        // gas bound smaller than the whole execution.
        assert!(!sag.release_points.is_empty());
        let rp = sag.release_points[0];
        assert!(rp.gas_bound > 0);
        assert!(rp.gas_bound < sag.predicted_gas);
    }

    #[test]
    fn token_transfer_failure_predicted() {
        let a = analyzer();
        let tx = call_tx(
            TOKEN,
            1,
            contracts::token_fn::TRANSFER,
            &[Address::from_u64(2).to_u256(), U256::from(30u64)],
        );
        // Empty snapshot: alice has no balance → revert predicted.
        let sag = a.csag(&tx, &Snapshot::empty(), &BlockEnv::default());
        assert!(!sag.predicted_success);
    }

    #[test]
    fn fig1_key_resolution_via_snapshot() {
        let a = analyzer();
        let x = Address::from_u64(42).to_u256();
        let a_slot = contracts::map_slot(x, 0);
        let key_ax = StateKey::storage(Address::from_u64(FIG1), a_slot);
        // Snapshot: A[x] = 3 → branch 1, loop unrolls twice, touching
        // B[3], B[2] (writes) and B[1], B[0] (reads).
        let snapshot = Snapshot::from_entries([(key_ax, U256::from(3u64))]);
        let tx = call_tx(
            FIG1,
            1,
            contracts::fig1_fn::UPDATE_B,
            &[x, U256::from(4u64)],
        );
        let sag = a.csag(&tx, &snapshot, &BlockEnv::default());
        assert!(sag.predicted_success);
        let b = |i: u64| StateKey::storage(Address::from_u64(FIG1), contracts::fig1_b_slot(i));
        assert!(sag.writes.contains(&b(3)));
        assert!(sag.writes.contains(&b(2)));
        assert!(sag.reads.contains(&b(1)));
        assert!(sag.reads.contains(&b(0)));
        // With A[x] = 0 the other branch is taken: B[0], B[1] written.
        let sag2 = a.csag(&tx, &Snapshot::empty(), &BlockEnv::default());
        assert!(sag2.writes.contains(&b(0)));
        assert!(sag2.writes.contains(&b(1)));
        assert!(!sag2.writes.contains(&b(3)));
    }

    #[test]
    fn unknown_contract_yields_empty_sag() {
        let a = analyzer();
        let tx = call_tx(999, 1, 1, &[]);
        let sag = a.csag(&tx, &Snapshot::empty(), &BlockEnv::default());
        assert!(sag.touched().is_empty());
        assert!(sag.release_points.is_empty());
        // Nothing to execute is a success at the intrinsic cost, as the
        // serial oracle reports it.
        assert!(sag.predicted_success);
        assert_eq!(sag.predicted_gas, INTRINSIC_GAS);
    }

    /// Everything except `tier` must agree between the symbolic bind and
    /// speculation — the symbolic walk is only allowed to exist because it
    /// is bit-identical to speculation whenever it binds. Compared where
    /// the tiers differ, before the shared post-processing: the raw
    /// accesses (pc, kind, key, call depth, in execution order), the raw
    /// release observations and the predicted outcome.
    fn assert_same_prediction(
        analyzer: &Analyzer,
        tx: &Transaction,
        snapshot: &Snapshot,
        what: &str,
    ) -> CSag {
        let block = BlockEnv::default();
        let deployed = analyzer.registry().deployed(&tx.to()).expect("deployed");
        let psag = analyzer.psag(&tx.to()).expect("deployed");
        let (symbolic, bound_tier) = analyzer
            .bind(tx, snapshot, &block, &psag, None)
            .unwrap_or_else(|| panic!("{what}: no bind"));
        let measured = analyzer.pre_execute(tx, snapshot, &block, &psag, deployed.code(), None);
        assert_eq!(symbolic, measured, "{what}");
        // And so the records agree too.
        let record = analyzer.csag(tx, snapshot, &block);
        assert_eq!(record.tier, bound_tier, "{what}");
        let speculated = analyzer.speculate(tx, snapshot, &block);
        assert_eq!(speculated.tier, RefinementTier::Speculative, "{what}");
        let expected = CSag {
            tier: bound_tier,
            ..speculated
        };
        assert_eq!(record, expected, "{what}");
        // A memo both tiers share, filled by the other tier's digests,
        // changes neither result.
        let mut memo = KeccakMemo::default();
        let code = deployed.code();
        let memoized = analyzer.csag_with_memo(tx, snapshot, &block, &mut memo);
        assert_eq!(memoized, record, "{what}");
        let memoized = analyzer.pre_execute(tx, snapshot, &block, &psag, code, Some(&mut memo));
        assert_eq!(memoized, measured, "{what}");
        let memoized = analyzer.csag_with_memo(tx, snapshot, &block, &mut memo);
        assert_eq!(memoized, record, "{what}");
        record
    }

    #[test]
    fn symbolic_tier_matches_speculation_exactly() {
        let a = analyzer();
        let alice_slot = contracts::map_slot(Address::from_u64(1).to_u256(), 1);
        let snapshot = Snapshot::from_entries([(
            StateKey::storage(Address::from_u64(TOKEN), alice_slot),
            U256::from(100u64),
        )]);
        let cases = [
            (
                "counter add",
                call_tx(COUNTER, 1, contracts::counter_fn::INCREMENT, &[]),
            ),
            (
                "token transfer (succeeds)",
                call_tx(
                    TOKEN,
                    1,
                    contracts::token_fn::TRANSFER,
                    &[Address::from_u64(2).to_u256(), U256::from(30u64)],
                ),
            ),
            (
                "token transfer (reverts)",
                call_tx(
                    TOKEN,
                    3,
                    contracts::token_fn::TRANSFER,
                    &[Address::from_u64(2).to_u256(), U256::from(30u64)],
                ),
            ),
        ];
        for (what, tx) in cases {
            let s = assert_same_prediction(&a, &tx, &snapshot, what);
            assert_eq!(s.tier, RefinementTier::Symbolic, "{what}: expected a bind");
        }
    }

    #[test]
    fn loop_paths_bind_loop_summarized_and_match_speculation() {
        let a = analyzer();
        let x = Address::from_u64(42).to_u256();
        let key_ax = StateKey::storage(Address::from_u64(FIG1), contracts::map_slot(x, 0));
        // A[x] = 3 steers fig1's UpdateB into its for-loop. The loop's
        // carried counter is a φ variable now, so the two-tier analyzer
        // unrolls at bind time instead of falling back — and must still be
        // bit-identical to the pure speculative analyzer.
        let snapshot = Snapshot::from_entries([(key_ax, U256::from(3u64))]);
        let tx = call_tx(
            FIG1,
            1,
            contracts::fig1_fn::UPDATE_B,
            &[x, U256::from(4u64)],
        );
        let s = assert_same_prediction(&a, &tx, &snapshot, "fig1 loop");
        assert_eq!(s.tier, RefinementTier::LoopSummarized);
        assert!(s.predicted_success);
    }

    /// Every router path — the read-only quote (whose return data feeds
    /// the caller's arithmetic), the two-frame swap, the caller-side
    /// slippage revert between the two calls — must bind on the
    /// interprocedural tier and agree bit-for-bit with speculation.
    #[test]
    fn router_calls_bind_interprocedural_and_match_speculation() {
        let a = analyzer();
        let snapshot = amm_snapshot();
        let cases = [
            (
                "router quote",
                call_tx(
                    ROUTER,
                    1,
                    contracts::router_fn::QUOTE,
                    &[U256::from(100u64)],
                ),
                true,
            ),
            (
                "router swap (succeeds)",
                call_tx(
                    ROUTER,
                    1,
                    contracts::router_fn::SWAP_EXACT,
                    &[U256::from(100u64), U256::from(300u64)],
                ),
                true,
            ),
            (
                "router swap (slippage revert between calls)",
                call_tx(
                    ROUTER,
                    1,
                    contracts::router_fn::SWAP_EXACT,
                    &[U256::from(100u64), U256::from(10_000u64)],
                ),
                false,
            ),
        ];
        for (what, tx, expect_success) in cases {
            let s = assert_same_prediction(&a, &tx, &snapshot, what);
            assert_eq!(
                s.tier,
                RefinementTier::Interprocedural,
                "{what}: expected a composed bind"
            );
            assert_eq!(s.predicted_success, expect_success, "{what}");
        }
    }

    /// The successful swap's prediction sees *through* the call: the
    /// callee's reserve writes and the router's credit show up under the
    /// pool's address, with nested-frame write pcs opaque to early-write
    /// visibility (a caller pc cannot order a callee's write).
    #[test]
    fn interprocedural_bind_predicts_callee_state_effects() {
        let a = analyzer();
        let amm_addr = Address::from_u64(AMM);
        let tx = call_tx(
            ROUTER,
            1,
            contracts::router_fn::SWAP_EXACT,
            &[U256::from(100u64), U256::from(300u64)],
        );
        let sag = a.csag(&tx, &amm_snapshot(), &BlockEnv::default());
        assert_eq!(sag.tier, RefinementTier::Interprocedural);
        assert!(sag.predicted_success);
        let r0 = StateKey::storage(amm_addr, U256::ZERO);
        let r1 = StateKey::storage(amm_addr, U256::ONE);
        assert!(sag.writes.contains(&r0), "reserve A write-through");
        assert!(sag.writes.contains(&r1), "reserve B write-through");
        // The swap credits CALLER — which in the nested frame is the
        // *router*, not the transaction sender.
        let credit = StateKey::storage(
            amm_addr,
            contracts::map_slot(Address::from_u64(ROUTER).to_u256(), 2),
        );
        assert!(sag.adds.contains(&credit), "router credited inside pool");
        // Callee-frame writes must not advertise caller-frame pcs.
        assert_eq!(sag.writes.get(&r0), Some(&(r0, CSag::NEVER)));
    }

    /// A callee that reverts (the AMM rejects zero-amount swaps) reverts
    /// the *caller's* frame at the call pc; the bound prediction must
    /// mirror the interpreter's revert-frame semantics — same verdict,
    /// same gas, same access trace — which the speculative tier measures
    /// on the real machine.
    #[test]
    fn reverting_callee_matches_interpreter_revert_semantics() {
        let a = analyzer();
        // amount_in = 0 passes the router's slippage check (0 < 0 is
        // false) and reverts inside the AMM's swap frame.
        let tx = call_tx(
            ROUTER,
            1,
            contracts::router_fn::SWAP_EXACT,
            &[U256::ZERO, U256::ZERO],
        );
        let snapshot = amm_snapshot();
        let s = assert_same_prediction(&a, &tx, &snapshot, "callee revert");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(!s.predicted_success, "callee revert fails the whole tx");
    }

    /// The aggregator swap spans four frames (router → pool reserves →
    /// tokenA.transferFrom → pool swap → tokenB.transfer): the deepest
    /// stress case for composed binding. The walk must thread the
    /// callee's return data into the caller's arithmetic, rebind CALLER
    /// per frame, and stay bit-identical to speculation — on the happy
    /// path and when the unapproved trader makes a mid-chain callee
    /// revert.
    #[test]
    fn aggregator_swap_binds_across_four_frames() {
        let a = analyzer();
        let trader = Address::from_u64(1);
        let amm_addr = Address::from_u64(AMM);
        let token_a = Address::from_u64(TOKEN_A);
        let token_b = Address::from_u64(TOKEN_B);
        let router2 = Address::from_u64(ROUTER2);
        let snapshot = Snapshot::from_entries([
            (StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64)),
            (StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64)),
            (
                StateKey::storage(token_a, contracts::map_slot(trader.to_u256(), 1)),
                U256::from(500u64),
            ),
            (
                StateKey::storage(
                    token_a,
                    contracts::map_slot2(trader.to_u256(), router2.to_u256(), 2),
                ),
                U256::from(500u64),
            ),
            (
                StateKey::storage(token_b, contracts::map_slot(router2.to_u256(), 1)),
                U256::from(10_000u64),
            ),
        ]);
        let tx = call_tx(
            ROUTER2,
            1,
            contracts::router2_fn::SWAP,
            &[U256::from(100u64), U256::from(300u64)],
        );
        let s = assert_same_prediction(&a, &tx, &snapshot, "aggregator swap");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(s.predicted_success);
        // One transaction, keys under three distinct contracts.
        assert!(s.writes.contains(&StateKey::storage(amm_addr, U256::ZERO)));
        assert!(s.writes.contains(&StateKey::storage(
            token_a,
            contracts::map_slot(trader.to_u256(), 1)
        )));
        assert!(s.adds.contains(&StateKey::storage(
            token_b,
            contracts::map_slot(trader.to_u256(), 1)
        )));
        // An unapproved trader fails inside tokenA.transferFrom (frame 2
        // of 4) — still bound, still bit-identical.
        let broke = call_tx(
            ROUTER2,
            2,
            contracts::router2_fn::SWAP,
            &[U256::from(100u64), U256::ZERO],
        );
        let s = assert_same_prediction(&a, &broke, &snapshot, "aggregator swap (unapproved)");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(!s.predicted_success);
    }

    /// Flash-mint's repay only binds because sub-frames share one
    /// overlay: tokenA.transferFrom in frame 2 must see the balance that
    /// tokenA.mint credited in frame 1, else the walk would predict an
    /// insufficient-balance revert that the machine never takes.
    #[test]
    fn flash_mint_repay_sees_minted_balance_across_frames() {
        let a = analyzer();
        let borrower = Address::from_u64(1);
        let token_a = Address::from_u64(TOKEN_A);
        let flash = Address::from_u64(FLASH);
        // Only the approval is pre-seeded — the principal exists solely
        // inside the transaction.
        let snapshot = Snapshot::from_entries([(
            StateKey::storage(
                token_a,
                contracts::map_slot2(borrower.to_u256(), flash.to_u256(), 2),
            ),
            U256::from(1_000_000u64),
        )]);
        let tx = call_tx(
            FLASH,
            1,
            contracts::flash_fn::FLASH,
            &[U256::from(5_000u64)],
        );
        let s = assert_same_prediction(&a, &tx, &snapshot, "flash mint");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(s.predicted_success, "repay must see the minted balance");
        // The fee tab is an add under the flash contract itself.
        assert!(s.adds.contains(&StateKey::storage(
            flash,
            contracts::map_slot(borrower.to_u256(), 0)
        )));
        // Without the approval the repay pull reverts in frame 2 and the
        // prediction tracks that too.
        let s = assert_same_prediction(&a, &tx, &Snapshot::empty(), "flash mint (unapproved)");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(!s.predicted_success);
    }

    /// An oracle update fans out one call per subscribed consumer; the
    /// composed prediction covers every consumer's slots so the
    /// scheduler sees the full conflict footprint up front.
    #[test]
    fn oracle_fanout_predicts_every_consumer() {
        let a = analyzer();
        let tx = call_tx(
            ORACLE,
            1,
            contracts::oracle_fn::UPDATE,
            &[U256::from(777u64)],
        );
        let s = assert_same_prediction(&a, &tx, &Snapshot::empty(), "oracle fanout");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(s.predicted_success);
        for consumer in [CONSUMER1, CONSUMER2] {
            let addr = Address::from_u64(consumer);
            assert!(
                s.writes.contains(&StateKey::storage(addr, U256::ZERO)),
                "consumer {consumer} price write predicted"
            );
            assert!(
                s.adds.contains(&StateKey::storage(addr, U256::ONE)),
                "consumer {consumer} counter add predicted"
            );
        }
    }

    #[test]
    fn transfers_are_exact_tier() {
        let sag = CSag::for_transfer(Address::from_u64(1), Address::from_u64(2));
        assert_eq!(sag.tier, RefinementTier::Exact);
    }

    #[test]
    fn psag_cache_hits() {
        let a = analyzer();
        let addr = Address::from_u64(COUNTER);
        let first = a.psag(&addr).expect("counter deployed");
        let second = a.psag(&addr).expect("cached");
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert!(a.psag(&Address::from_u64(999)).is_none());
    }

    #[test]
    fn psag_summaries_are_shared_by_code_hash() {
        // TOKEN, TOKEN_A and TOKEN_B deploy the same bytecode: the first
        // summary build is a miss, the other two addresses hit the
        // code-hash memo and share the same Arc.
        let a = analyzer();
        let first = a.psag(&Address::from_u64(TOKEN)).unwrap();
        let hits_before = a.registry().summaries().hits();
        let second = a.psag(&Address::from_u64(TOKEN_A)).unwrap();
        let third = a.psag(&Address::from_u64(TOKEN_B)).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert!(std::sync::Arc::ptr_eq(&first, &third));
        assert_eq!(a.registry().summaries().hits(), hits_before + 2);
    }

    /// The mint-rush snapshot: drop priced at 100 with a funded treasury,
    /// creator registered in slot 2, floor oracle at 55.
    fn mint_rush_snapshot(treasury: u64) -> Snapshot {
        let drop_addr = Address::from_u64(DROP);
        Snapshot::from_entries([
            (StateKey::storage(drop_addr, U256::ONE), U256::from(100u64)),
            (
                StateKey::storage(drop_addr, U256::from(2u64)),
                Address::from_u64(777).to_u256(),
            ),
            (StateKey::balance(drop_addr), U256::from(treasury)),
            (
                StateKey::storage(Address::from_u64(FLOOR), U256::ZERO),
                U256::from(55u64),
            ),
        ])
    }

    /// `mint()` chains every new call shape: a DELEGATECALL into the
    /// splitter (whose writes land in the *drop's* storage), a
    /// value-transferring CALL (implicit balance keys), and a registry-slot
    /// recipient (bounded dynamic dispatch). The bind must carry the
    /// bounded tier and agree bit-for-bit with speculation.
    #[test]
    fn nft_mint_binds_bounded_dynamic_and_matches_speculation() {
        let a = analyzer();
        let snapshot = mint_rush_snapshot(1000);
        let tx = call_tx(DROP, 1, contracts::drop_fn::MINT, &[]);
        let s = assert_same_prediction(&a, &tx, &snapshot, "nft mint");
        assert_eq!(s.tier, RefinementTier::BoundedDynamic);
        assert!(s.predicted_success);

        let drop_addr = Address::from_u64(DROP);
        // Context rebinding: the borrowed splitter body writes the drop's
        // fee tab, never its own storage.
        assert!(s
            .adds
            .contains(&StateKey::storage(drop_addr, U256::from(3u64))));
        assert!(!s
            .touched()
            .iter()
            .any(|key| key.address == Address::from_u64(SPLITTER)));
        // The value transfer shows up as implicit balance keys: debit on
        // the drop's treasury, commutative credit on the creator.
        assert!(s.writes.contains(&StateKey::balance(drop_addr)));
        assert!(s.adds.contains(&StateKey::balance(Address::from_u64(777))));
    }

    /// A treasury too small for the royalty pays out nothing: the inner
    /// value call fails, the splitter reverts, and the revert must
    /// propagate out of the DELEGATECALL in the bind exactly as the
    /// machine does it.
    #[test]
    fn nft_mint_with_short_treasury_predicts_revert() {
        let a = analyzer();
        let snapshot = mint_rush_snapshot(5);
        let tx = call_tx(DROP, 1, contracts::drop_fn::MINT, &[]);
        let s = assert_same_prediction(&a, &tx, &snapshot, "nft mint (short treasury)");
        assert_eq!(s.tier, RefinementTier::BoundedDynamic);
        assert!(!s.predicted_success);
        // The failed transfer never credits the creator.
        assert!(!s.adds.contains(&StateKey::balance(Address::from_u64(777))));
    }

    /// `preview()` STATICCALLs the write-free floor oracle: a read-only
    /// composed frame that binds on the interprocedural tier (the callee
    /// is a fixed address) with the oracle's slot in the read set.
    #[test]
    fn nft_preview_staticcall_binds_and_matches_speculation() {
        let a = analyzer();
        let snapshot = mint_rush_snapshot(1000);
        let tx = call_tx(DROP, 1, contracts::drop_fn::PREVIEW, &[]);
        let s = assert_same_prediction(&a, &tx, &snapshot, "nft preview");
        assert_eq!(s.tier, RefinementTier::Interprocedural);
        assert!(s.predicted_success);
        assert!(s
            .reads
            .contains(&StateKey::storage(Address::from_u64(FLOOR), U256::ZERO)));
        assert!(s.writes.is_empty());
        assert!(s.adds.is_empty());
    }

    mod record {
        //! The record against what it replaced: `finish` inserting every
        //! access into three tree sets and a hash map, kept here as the
        //! reference.

        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        const GAS_LIMIT: u64 = 100_000;
        const GAS_USED: u64 = 30_000;

        fn key(k: u8) -> StateKey {
            StateKey::storage(Address::from_u64(1 + k as u64 % 3), U256::from(k as u64))
        }

        proptest! {
            #[test]
            fn finish_builds_what_the_sets_and_the_map_held(
                events in prop::collection::vec((0u8..8, 0u8..3, 0usize..40, 0usize..3), 0..24),
                releases in prop::collection::vec((0usize..6, 0u64..GAS_LIMIT), 0..6),
                entry in 0u8..2,
            ) {
                let events: Vec<Access> = events
                    .into_iter()
                    .map(|(k, kind, pc, depth)| Access {
                        key: key(k),
                        kind: [AccessKind::Read, AccessKind::Write, AccessKind::Add][kind as usize],
                        pc,
                        depth,
                    })
                    .collect();
                let release_pcs: &[usize] = if entry == 1 { &[0, 3] } else { &[3] };

                let mut reads = BTreeSet::new();
                let mut writes = BTreeSet::new();
                let mut adds = BTreeSet::new();
                let mut last_write_pc = HashMap::new();
                for event in &events {
                    let write_pc = if event.depth == 0 { event.pc } else { usize::MAX };
                    match event.kind {
                        AccessKind::Read => {
                            reads.insert(event.key);
                        }
                        AccessKind::Write => {
                            writes.insert(event.key);
                            last_write_pc.insert(event.key, write_pc);
                        }
                        AccessKind::Add => {
                            adds.insert(event.key);
                            last_write_pc.insert(event.key, write_pc);
                        }
                    }
                }
                adds.retain(|key| !writes.contains(key));
                let gas_left_end = GAS_LIMIT - GAS_USED;
                let mut release_points: Vec<ReleasePoint> = releases
                    .iter()
                    .map(|&(pc, gas_left)| ReleasePoint {
                        pc,
                        gas_bound: gas_left.saturating_sub(gas_left_end),
                    })
                    .collect();
                if entry == 1 {
                    release_points.push(ReleasePoint {
                        pc: 0,
                        gas_bound: GAS_USED - INTRINSIC_GAS,
                    });
                }
                release_points.sort_by_key(|rp| rp.pc);
                release_points.dedup_by_key(|rp| rp.pc);

                let raw = RawPrediction {
                    events,
                    releases,
                    predicted_success: true,
                    gas_used: GAS_USED,
                };
                let sag = Analyzer::finish(raw, GAS_LIMIT, release_pcs, RefinementTier::Symbolic);

                let with_pc = |keys: &BTreeSet<StateKey>| -> Vec<(StateKey, usize)> {
                    keys.iter().map(|key| (*key, last_write_pc[key])).collect()
                };
                prop_assert_eq!(sag.reads.to_vec(), reads.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(sag.writes.to_vec(), with_pc(&writes));
                prop_assert_eq!(sag.adds.to_vec(), with_pc(&adds));
                prop_assert_eq!(sag.release_points.to_vec(), release_points);
                // Every publish pc belongs to a predicted write or add.
                prop_assert_eq!(last_write_pc.len(), sag.writes.len() + sag.adds.len());
                // Sorted, one entry per key, no key both written and added.
                prop_assert!(sag.reads.windows(2).all(|pair| pair[0] < pair[1]));
                for written in [&sag.writes, &sag.adds] {
                    prop_assert!(written.windows(2).all(|pair| pair[0].0 < pair[1].0));
                }
                prop_assert!(sag.adds.iter().all(|(key, _)| !sag.writes.contains(key)));
                prop_assert_eq!(
                    (sag.predicted_success, sag.predicted_gas, sag.tier),
                    (true, GAS_USED, RefinementTier::Symbolic)
                );
            }
        }
    }
}

//! Partial state access graphs (P-SAG).
//!
//! A P-SAG is built *statically* from contract code (paper §III-B): the CFG
//! skeleton pruned to state-access operations, with a placeholder ("–") for
//! every access whose key cannot be resolved without transaction data, loop
//! nodes for loops that cannot be solved statically, and release points
//! after the last reachable abortable statement.

use dmvcc_primitives::U256;
use dmvcc_vm::CodeRegistry;

use crate::absint::{self, ContractPlan};
use crate::cfg::Cfg;
use crate::loops::{self, LoopInfo};

/// The access kind of a SAG node (ρ, ω, or the commutative increment ω̄).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// ρ — a read.
    Read,
    /// ω — a write.
    Write,
    /// ω̄ — a commutative increment (write that never reads).
    Add,
}

/// One state-access node of a SAG.
///
/// `slot` is `Some` when static analysis resolved the key (a constant-slot
/// access like `PUSH1 0 SLOAD`); `None` is the paper's "–" placeholder that
/// C-SAG refinement fills in with concrete transaction data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SagOp {
    /// Program counter of the access instruction.
    pub pc: usize,
    /// ρ / ω / ω̄.
    pub kind: AccessKind,
    /// Statically resolved slot, if any.
    pub slot: Option<U256>,
}

/// The statically-constructed partial state access graph of one contract.
#[derive(Debug, Clone)]
pub struct PSag {
    /// The CFG skeleton, with jump exits patched by value-set propagation
    /// (the `absint` module).
    pub cfg: Cfg,
    /// All state-access nodes in code order.
    pub ops: Vec<SagOp>,
    /// Release-point pcs (block starts past the last reachable abort),
    /// computed on the patched CFG; sorted ascending, which refinement's
    /// searches and the interpreter's release callbacks rely on.
    pub release_pcs: Vec<usize>,
    /// Start pcs of *natural* loop-head blocks (the paper's *loop nodes*,
    /// unrolled only at C-SAG time), one per head — nested back edges
    /// sharing a head are deduplicated. Heads of irreducible
    /// (multiple-entry) regions are deliberately *not* listed here; see
    /// [`LoopInfo::irreducible_head_pcs`] on [`PSag::loops`].
    pub loop_head_pcs: Vec<usize>,
    /// Per-block symbolic plan: key templates, conditions and gas facts
    /// that let C-SAG refinement bind instead of re-executing.
    pub plan: ContractPlan,
    /// Static loop summaries: induction variables, trip-count templates,
    /// per-iteration gas, strided key families, and irreducible-region
    /// flags (see [`crate::analyze_loops`]).
    pub loops: LoopInfo,
}

impl PSag {
    /// Builds the P-SAG of `code`. Cross-contract calls degrade to
    /// speculative fallback; see [`PSag::build_with`].
    pub fn build(code: &[u8]) -> PSag {
        PSag::build_with(code, None)
    }

    /// Builds the P-SAG of `code` with a code registry in scope, so
    /// statically-resolvable `CALL` sites become composable summaries
    /// instantiated across call edges at bind time.
    pub fn build_with(code: &[u8], registry: Option<&CodeRegistry>) -> PSag {
        let mut cfg = Cfg::build(code);
        let plan = absint::analyze_with(code, &mut cfg, registry);
        // One SagOp per access node, in code order (blocks are sorted by
        // start pc, plan accesses by instruction order). `slot` keeps its
        // historical meaning — a key the code names as a literal constant;
        // parameterized templates live in `plan`.
        let ops = cfg
            .blocks
            .iter()
            .flat_map(|block| plan.blocks[block.index].accesses.iter())
            .map(|access| SagOp {
                pc: access.pc,
                kind: access.kind,
                slot: access.key.as_const(),
            })
            .collect();
        let release_pcs = cfg.release_points();
        let loops = loops::analyze_loops(&cfg, &plan);
        let loop_head_pcs = loops.loops.iter().map(|l| l.head_pc).collect();
        PSag {
            cfg,
            ops,
            release_pcs,
            loop_head_pcs,
            plan,
            loops,
        }
    }

    /// Nodes whose key is still the "–" placeholder.
    pub fn unresolved(&self) -> impl Iterator<Item = &SagOp> {
        self.ops.iter().filter(|op| op.slot.is_none())
    }

    /// Nodes with statically-known keys.
    pub fn resolved(&self) -> impl Iterator<Item = &SagOp> {
        self.ops.iter().filter(|op| op.slot.is_some())
    }

    /// Nodes whose key is a *closed template* — resolvable per transaction
    /// by substituting calldata/caller/snapshot values, without
    /// speculative execution. A superset of [`PSag::resolved`].
    pub fn template_resolved(&self) -> impl Iterator<Item = &crate::absint::PlanAccess> {
        self.plan.accesses().filter(|a| a.key.is_template())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::{assemble, contracts};

    fn psag(src: &str) -> PSag {
        PSag::build(&assemble(src).expect("valid assembly"))
    }

    #[test]
    fn constant_slot_resolved() {
        let sag = psag("PUSH1 5 PUSH1 0 SSTORE PUSH1 0 SLOAD POP STOP");
        assert_eq!(sag.ops.len(), 2);
        assert_eq!(sag.ops[0].kind, AccessKind::Write);
        assert_eq!(sag.ops[0].slot, Some(U256::ZERO));
        assert_eq!(sag.ops[1].kind, AccessKind::Read);
        assert_eq!(sag.ops[1].slot, Some(U256::ZERO));
    }

    #[test]
    fn computed_slot_is_placeholder() {
        // Slot comes off SHA3 → unresolved.
        let sag = psag("PUSH1 32 PUSH1 0 SHA3 SLOAD POP STOP");
        assert_eq!(sag.ops.len(), 1);
        assert_eq!(sag.ops[0].slot, None);
        assert_eq!(sag.unresolved().count(), 1);
        assert_eq!(sag.resolved().count(), 0);
    }

    #[test]
    fn sadd_classified_as_add() {
        let sag = psag("PUSH1 1 PUSH1 0 SADD STOP");
        assert_eq!(sag.ops[0].kind, AccessKind::Add);
        assert_eq!(sag.ops[0].slot, Some(U256::ZERO));
    }

    #[test]
    fn wide_push_immediate_resolved() {
        let sag = psag("PUSH32 0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff01 SLOAD POP STOP");
        let expected =
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff01")
                .unwrap();
        assert_eq!(sag.ops[0].slot, Some(expected));
    }

    #[test]
    fn loop_head_detected() {
        let sag = psag("PUSH1 3 loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 PUSH @loop JUMPI STOP");
        assert_eq!(sag.loop_head_pcs.len(), 1);
        assert_eq!(sag.loop_head_pcs[0], 2); // the JUMPDEST
    }

    #[test]
    fn irreducible_entry_is_flagged_not_a_loop_node() {
        // A cycle with a second entry jumping into its middle: no natural
        // loop head, an explicit irreducible flag instead.
        let sag = psag(
            "PUSH1 0 CALLDATALOAD PUSH @mid JUMPI \
             top: JUMPDEST PUSH1 1 PUSH @mid JUMPI STOP \
             mid: JUMPDEST PUSH1 1 PUSH @top JUMPI STOP",
        );
        assert!(!sag.loops.irreducible_head_pcs.is_empty());
        for pc in &sag.loops.irreducible_head_pcs {
            assert!(
                !sag.loop_head_pcs.contains(pc),
                "irreducible head {pc} must not be listed as summarizable"
            );
        }
    }

    #[test]
    fn straight_line_has_no_loop_heads() {
        let sag = psag("PUSH1 1 POP STOP");
        assert!(sag.loop_head_pcs.is_empty());
    }

    #[test]
    fn fig1_has_loop_and_placeholders() {
        let sag = PSag::build(&contracts::fig1_example());
        // The for-loop of UpdateB is a loop node.
        assert!(!sag.loop_head_pcs.is_empty());
        // A[x] access key depends on calldata → placeholder.
        assert!(sag.unresolved().count() > 0);
        // B[0]/B[1] constant-slot writes in branch 2 are resolved.
        assert!(sag.resolved().count() > 0);
        // Branch 2's post-assert suffix yields a release point.
        assert!(!sag.release_pcs.is_empty());
    }

    #[test]
    fn counter_psag_fully_resolved() {
        let sag = PSag::build(&contracts::counter());
        assert_eq!(sag.unresolved().count(), 0);
        assert!(sag.ops.iter().any(|op| op.kind == AccessKind::Add));
        // Counter never aborts → entry is a release point.
        assert!(sag.release_pcs.contains(&0));
    }

    #[test]
    fn balance_opcode_is_a_read_node() {
        let mut code = vec![0x73]; // PUSH20
        code.extend_from_slice(&[0u8; 20]);
        code.push(0x31); // BALANCE
        code.push(0x00); // STOP
        let sag = PSag::build(&code);
        assert_eq!(sag.ops.len(), 1);
        assert_eq!(sag.ops[0].kind, AccessKind::Read);
    }
}

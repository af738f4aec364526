//! Control-flow graph construction from bytecode.
//!
//! The SAG (state access graph) of the paper "resembles that of a CFG; we
//! may reuse the skeleton of a CFG and remove nodes other than read and
//! write operations" (§IV-A). This module builds that skeleton: basic
//! blocks, static jump-target resolution (`PUSH addr; JUMP` patterns — the
//! only form our assembler emits, and the dominant form in solc output)
//! and reachability of *abortable* statements, which determines release
//! points.

use std::collections::{BTreeMap, HashSet};

use dmvcc_primitives::U256;
use dmvcc_vm::Opcode;

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset in the code.
    pub pc: usize,
    /// The operation.
    pub op: Opcode,
    /// Full-width immediate value for `PUSH` — 32-byte mapping-slot
    /// constants must survive decoding intact for symbolic key resolution.
    pub imm: Option<U256>,
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockExit {
    /// Falls through to the next block.
    FallThrough(usize),
    /// Unconditional jump to a statically-known target block.
    Jump(usize),
    /// Conditional jump: (taken-target block, fall-through block).
    Branch(usize, usize),
    /// `STOP` / `RETURN` — successful termination.
    Halt,
    /// `REVERT` / `INVALID` — aborting termination.
    Abort,
    /// A jump whose target could not be resolved statically; analysis
    /// degrades conservatively (no release points downstream).
    Unknown,
}

/// A maximal straight-line sequence of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Index in [`Cfg::blocks`].
    pub index: usize,
    /// First pc of the block.
    pub start_pc: usize,
    /// Instructions in order.
    pub instructions: Vec<Instruction>,
    /// Terminator.
    pub exit: BlockExit,
}

impl BasicBlock {
    /// Successor block indices.
    pub fn successors(&self) -> Vec<usize> {
        match self.exit {
            BlockExit::FallThrough(b) | BlockExit::Jump(b) => vec![b],
            BlockExit::Branch(taken, fall) => vec![taken, fall],
            BlockExit::Halt | BlockExit::Abort | BlockExit::Unknown => Vec::new(),
        }
    }
}

/// A control-flow graph over basic blocks.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks, indexed by [`BasicBlock::index`]; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// `true` if any jump target could not be resolved statically.
    pub has_unknown_jumps: bool,
}

/// Decodes bytecode into instructions.
pub fn decode(code: &[u8]) -> Vec<Instruction> {
    let mut out = Vec::new();
    let mut pc = 0;
    while pc < code.len() {
        match Opcode::from_byte(code[pc]) {
            Some(op) => {
                let imm_len = op.immediate_len();
                let imm = if imm_len > 0 {
                    let end = (pc + 1 + imm_len).min(code.len());
                    Some(U256::from_be_slice(&code[pc + 1..end]))
                } else {
                    None
                };
                out.push(Instruction { pc, op, imm });
                pc += 1 + imm_len;
            }
            None => {
                // Undefined byte: model as INVALID so reachability treats it
                // as abortable.
                out.push(Instruction {
                    pc,
                    op: Opcode::Invalid,
                    imm: None,
                });
                pc += 1;
            }
        }
    }
    out
}

impl Cfg {
    /// Builds the CFG of `code`.
    pub fn build(code: &[u8]) -> Cfg {
        let instructions = decode(code);
        if instructions.is_empty() {
            return Cfg {
                blocks: vec![BasicBlock {
                    index: 0,
                    start_pc: 0,
                    instructions: Vec::new(),
                    exit: BlockExit::Halt,
                }],
                has_unknown_jumps: false,
            };
        }

        // Leaders: entry, JUMPDESTs, and instructions following a terminator
        // or conditional branch.
        let mut leaders: HashSet<usize> = HashSet::new();
        leaders.insert(instructions[0].pc);
        for (i, ins) in instructions.iter().enumerate() {
            if ins.op == Opcode::JumpDest {
                leaders.insert(ins.pc);
            }
            // Call-family instructions end their block so a summarized
            // call site is always the last instruction of a block: the
            // caller's lump gas charge for the block then exactly matches
            // the machine's state at the 63/64 budget computation, and a
            // callee abort maps to the block boundary.
            let ends_block = matches!(
                ins.op,
                Opcode::Jump
                    | Opcode::JumpI
                    | Opcode::Stop
                    | Opcode::Return
                    | Opcode::Revert
                    | Opcode::Invalid
                    | Opcode::Call
                    | Opcode::DelegateCall
                    | Opcode::StaticCall
            );
            if ends_block {
                if let Some(next) = instructions.get(i + 1) {
                    leaders.insert(next.pc);
                }
            }
        }

        // Partition instructions into blocks.
        let mut block_starts: Vec<usize> = leaders.into_iter().collect();
        block_starts.sort_unstable();
        let block_of_pc: BTreeMap<usize, usize> = block_starts
            .iter()
            .enumerate()
            .map(|(index, &pc)| (pc, index))
            .collect();

        let mut blocks: Vec<BasicBlock> = block_starts
            .iter()
            .enumerate()
            .map(|(index, &start_pc)| BasicBlock {
                index,
                start_pc,
                instructions: Vec::new(),
                exit: BlockExit::Halt,
            })
            .collect();

        let mut has_unknown = false;
        let mut current = 0usize;
        for (i, ins) in instructions.iter().enumerate() {
            if let Some(&idx) = block_of_pc.get(&ins.pc) {
                current = idx;
            }
            blocks[current].instructions.push(*ins);

            let next_pc = instructions.get(i + 1).map(|n| n.pc);
            let is_last_of_block = match next_pc {
                Some(np) => block_of_pc.contains_key(&np),
                None => true,
            };
            if !is_last_of_block {
                continue;
            }
            // Determine the exit of `current`.
            let prev_imm = i
                .checked_sub(1)
                .and_then(|j| instructions.get(j))
                .filter(|p| matches!(p.op, Opcode::Push(_)))
                .and_then(|p| p.imm);
            let exit = match ins.op {
                Opcode::Stop | Opcode::Return => BlockExit::Halt,
                Opcode::Revert | Opcode::Invalid => BlockExit::Abort,
                Opcode::Jump => {
                    match prev_imm
                        .and_then(|t| t.to_usize())
                        .and_then(|t| block_of_pc.get(&t).copied())
                    {
                        Some(target) => BlockExit::Jump(target),
                        None => {
                            has_unknown = true;
                            BlockExit::Unknown
                        }
                    }
                }
                Opcode::JumpI => {
                    let fall = next_pc.and_then(|np| block_of_pc.get(&np).copied());
                    let taken = prev_imm
                        .and_then(|t| t.to_usize())
                        .and_then(|t| block_of_pc.get(&t).copied());
                    match (taken, fall) {
                        (Some(t), Some(f)) => BlockExit::Branch(t, f),
                        _ => {
                            has_unknown = true;
                            BlockExit::Unknown
                        }
                    }
                }
                _ => match next_pc.and_then(|np| block_of_pc.get(&np).copied()) {
                    Some(f) => BlockExit::FallThrough(f),
                    None => BlockExit::Halt, // runs off the end
                },
            };
            blocks[current].exit = exit;
        }

        Cfg {
            blocks,
            has_unknown_jumps: has_unknown,
        }
    }

    /// For every block, whether an abortable statement (`REVERT`/`INVALID`,
    /// or an unresolved jump — conservatively) is reachable from its start.
    ///
    /// This is the reverse reachability fixed point that release-point
    /// placement (paper §IV-C) relies on.
    pub fn abort_reachable(&self) -> Vec<bool> {
        let n = self.blocks.len();
        let mut reach = vec![false; n];
        for block in &self.blocks {
            if matches!(block.exit, BlockExit::Abort | BlockExit::Unknown) {
                reach[block.index] = true;
            }
            // A call can revert the calling frame at the call pc when the
            // callee fails, so every call-family site is conservatively an
            // abort source (the registry is not visible during CFG
            // construction).
            if block.instructions.last().is_some_and(|i| {
                matches!(
                    i.op,
                    Opcode::Call | Opcode::DelegateCall | Opcode::StaticCall
                )
            }) {
                reach[block.index] = true;
            }
        }
        // Fixed point (graphs are tiny; O(n^2) is fine).
        loop {
            let mut changed = false;
            for block in &self.blocks {
                if reach[block.index] {
                    continue;
                }
                if block.successors().iter().any(|&s| reach[s]) {
                    reach[block.index] = true;
                    changed = true;
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    /// Release points: starts of the *earliest* blocks from which no abort
    /// is reachable, i.e. blocks `B` with `¬abort_reachable(B)` whose
    /// predecessor set contains a block with `abort_reachable` — plus the
    /// entry block if nothing in the contract can abort.
    ///
    /// Returned as the set of block start pcs.
    pub fn release_points(&self) -> Vec<usize> {
        let reach = self.abort_reachable();
        let mut has_risky_pred = vec![false; self.blocks.len()];
        for block in &self.blocks {
            for succ in block.successors() {
                if reach[block.index] {
                    has_risky_pred[succ] = true;
                }
            }
        }
        let mut points = Vec::new();
        for block in &self.blocks {
            if reach[block.index] {
                continue;
            }
            let is_entry = block.index == 0;
            if has_risky_pred[block.index] || is_entry {
                points.push(block.start_pc);
            }
        }
        points.sort_unstable();
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::assemble;

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("valid assembly"))
    }

    #[test]
    fn straight_line_single_block() {
        let g = cfg("PUSH1 1 PUSH1 2 ADD STOP");
        assert_eq!(g.blocks.len(), 1);
        assert_eq!(g.blocks[0].exit, BlockExit::Halt);
        assert!(!g.has_unknown_jumps);
    }

    #[test]
    fn branch_splits_blocks() {
        let g = cfg("PUSH1 1 PUSH @a JUMPI PUSH1 9 STOP a: JUMPDEST STOP");
        // Blocks: [entry..JUMPI], [PUSH1 9 STOP], [JUMPDEST STOP]
        assert_eq!(g.blocks.len(), 3);
        match g.blocks[0].exit {
            BlockExit::Branch(taken, fall) => {
                assert_eq!(g.blocks[taken].start_pc, 9); // the JUMPDEST
                assert_eq!(g.blocks[fall].start_pc, 6); // the PUSH1 9
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn revert_block_is_abort() {
        let g = cfg("PUSH1 0 PUSH1 0 REVERT");
        assert_eq!(g.blocks[0].exit, BlockExit::Abort);
        assert_eq!(g.abort_reachable(), vec![true]);
    }

    #[test]
    fn abort_reachability_propagates() {
        // entry -> branch -> (abort | halt)
        let g = cfg("PUSH1 1 PUSH @bad JUMPI PUSH1 0 STOP bad: JUMPDEST PUSH1 0 PUSH1 0 REVERT");
        let reach = g.abort_reachable();
        // Entry can reach the revert; the STOP block cannot.
        assert!(reach[0]);
        let halt_block = g
            .blocks
            .iter()
            .find(|b| b.exit == BlockExit::Halt)
            .expect("has halt block");
        assert!(!reach[halt_block.index]);
    }

    #[test]
    fn release_point_after_last_check() {
        // Check-then-write: the write block is a release point.
        let g = cfg(
            "PUSH1 1 PUSH @ok JUMPI bad: JUMPDEST PUSH1 0 PUSH1 0 REVERT \
             ok: JUMPDEST PUSH1 5 PUSH1 0 SSTORE STOP",
        );
        let points = g.release_points();
        // The `ok` block starts after the revert block.
        let ok_block = g
            .blocks
            .iter()
            .find(|b| matches!(b.exit, BlockExit::Halt) && !b.instructions.is_empty())
            .expect("ok block");
        assert_eq!(points, vec![ok_block.start_pc]);
    }

    #[test]
    fn entry_is_release_point_when_nothing_aborts() {
        let g = cfg("PUSH1 5 PUSH1 0 SSTORE STOP");
        assert_eq!(g.release_points(), vec![0]);
    }

    #[test]
    fn no_release_points_when_abort_at_end() {
        // Abort reachable from everywhere → no release points.
        let g = cfg("PUSH1 5 PUSH1 0 SSTORE PUSH1 0 PUSH1 0 REVERT");
        assert!(g.release_points().is_empty());
    }

    #[test]
    fn dynamic_jump_degrades_conservatively() {
        // Jump target computed via arithmetic → unknown.
        let g = cfg("PUSH1 2 PUSH1 2 ADD JUMP JUMPDEST STOP");
        assert!(g.has_unknown_jumps);
        assert!(g.release_points().is_empty());
    }

    #[test]
    fn loops_terminate_fixed_point() {
        let g = cfg("start: JUMPDEST PUSH1 1 PUSH @start JUMPI STOP");
        // A loop with no abort: everything release-eligible, fixed point
        // terminates.
        let reach = g.abort_reachable();
        assert!(reach.iter().all(|&r| !r));
        assert!(g.release_points().contains(&0));
    }

    #[test]
    fn decode_handles_truncated_push() {
        // PUSH2 with only one immediate byte at the end of code.
        let code = vec![0x61, 0x01];
        let instructions = decode(&code);
        assert_eq!(instructions.len(), 1);
        assert_eq!(instructions[0].imm, Some(U256::ONE));
    }

    #[test]
    fn decode_keeps_full_width_immediates() {
        // PUSH32 of a value whose high bytes matter: the old low-8-byte
        // truncation would mangle mapping-slot constants like this one.
        let mut code = vec![0x7f];
        code.extend_from_slice(&[0xab; 32]);
        code.push(0x00); // STOP
        let instructions = decode(&code);
        assert_eq!(instructions[0].imm, Some(U256::from_be_bytes([0xab; 32])));
    }

    #[test]
    fn undefined_byte_becomes_invalid() {
        let instructions = decode(&[0x0c]);
        assert_eq!(instructions[0].op, Opcode::Invalid);
    }

    #[test]
    fn contract_library_cfgs_build() {
        use dmvcc_vm::contracts;
        for code in [
            contracts::token(),
            contracts::counter(),
            contracts::amm(),
            contracts::nft(),
            contracts::ballot(),
            contracts::fig1_example(),
        ] {
            let g = Cfg::build(&code);
            assert!(!g.has_unknown_jumps, "library contracts use static jumps");
            assert!(!g.blocks.is_empty());
        }
    }

    #[test]
    fn token_transfer_has_release_point() {
        use dmvcc_vm::contracts;
        let g = Cfg::build(&contracts::token());
        // transfer's post-check writes and mint's body must be
        // release-eligible: at least one release point exists.
        assert!(!g.release_points().is_empty());
    }
}

//! Static gas upper bounds.
//!
//! A release point carries "an upper bound estimation to the gas needed
//! for the remaining statements" (paper §III-B). C-SAGs measure the bound
//! on the concrete unrolled path; this module computes the *static*
//! counterpart on the CFG. [`static_gas_bounds`] is the acyclic-path
//! maximum, `None` wherever a loop is reachable. [`loop_gas_bounds`]
//! extends it through *summarized* loops: a loop with a hard trip cap and
//! a fully-costed body ([`LoopSummary::bounded`]) contributes
//! `(cap + 1) × per_iter_gas + mem_gas` plus the worst exit path, so
//! release points inside and after capped loops get finite bounds too —
//! only unbounded loops (and unresolved jumps) still yield `None`.

use std::collections::HashMap;

use crate::cfg::{BlockExit, Cfg};
use crate::loops::{LoopInfo, LoopSummary};

/// Gas cost of one basic block: the sum of its instructions' base costs
/// (dynamic components like `EXP`'s per-byte charge are bounded separately
/// at C-SAG time; the static bound is advisory).
fn block_gas(cfg: &Cfg, index: usize) -> u64 {
    cfg.blocks[index]
        .instructions
        .iter()
        .map(|ins| ins.op.base_gas())
        .sum()
}

/// Computes, per block, the maximum static gas needed from the block's
/// start to any terminator — `None` where a loop (or unresolved jump)
/// makes the bound infinite.
///
/// # Examples
///
/// ```
/// use dmvcc_analysis::{static_gas_bounds, Cfg};
/// use dmvcc_vm::assemble;
///
/// let code = assemble("PUSH1 1 PUSH1 2 ADD POP STOP")?;
/// let cfg = Cfg::build(&code);
/// let bounds = static_gas_bounds(&cfg);
/// assert!(bounds[0].is_some());
/// # Ok::<(), dmvcc_vm::AsmError>(())
/// ```
pub fn static_gas_bounds(cfg: &Cfg) -> Vec<Option<u64>> {
    let n = cfg.blocks.len();
    // Memoized DFS with cycle detection: a block on the current path that
    // is revisited has an unbounded cost.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unvisited,
        InProgress,
        Done,
    }
    let mut state = vec![State::Unvisited; n];
    let mut memo: HashMap<usize, Option<u64>> = HashMap::new();

    fn visit(
        cfg: &Cfg,
        index: usize,
        state: &mut Vec<State>,
        memo: &mut HashMap<usize, Option<u64>>,
    ) -> Option<u64> {
        match state[index] {
            State::Done => return memo[&index],
            State::InProgress => return None, // cycle ⇒ unbounded
            State::Unvisited => {}
        }
        state[index] = State::InProgress;
        let own = block_gas(cfg, index);
        let result = match &cfg.blocks[index].exit {
            BlockExit::Unknown => None,
            BlockExit::Halt | BlockExit::Abort => Some(own),
            _ => {
                let mut best: Option<u64> = Some(0);
                for succ in cfg.blocks[index].successors() {
                    match (best, visit(cfg, succ, state, memo)) {
                        (Some(b), Some(s)) => best = Some(b.max(s)),
                        _ => {
                            best = None;
                            break;
                        }
                    }
                }
                best.map(|b| own + b)
            }
        };
        state[index] = State::Done;
        memo.insert(index, result);
        result
    }

    (0..n)
        .map(|i| visit(cfg, i, &mut state, &mut memo))
        .collect()
}

/// Like [`static_gas_bounds`], but finite through *summarized* loops: any
/// loop with a hard static trip cap and a fully-costed body (see
/// [`LoopSummary::bounded`]) is collapsed to
/// `(cap + 1) × per_iter_gas + mem_gas + worst exit`, and the result is
/// propagated upstream.
pub fn loop_gas_bounds(cfg: &Cfg, loops: &LoopInfo) -> Vec<Option<u64>> {
    let n = cfg.blocks.len();
    let mut bounds = static_gas_bounds(cfg);
    let mut owner: Vec<Option<&LoopSummary>> = vec![None; n];
    for summary in loops.loops.iter().filter(|l| l.bounded()) {
        for &b in &summary.body {
            owner[b] = Some(summary);
        }
    }
    // Relaxation over the loop-collapsed graph: every cycle sits inside a
    // summarized body (or keeps its `None`), so n passes reach a fixpoint.
    for _ in 0..n {
        let mut changed = false;
        for index in 0..n {
            if bounds[index].is_some() {
                continue;
            }
            let candidate = match owner[index] {
                // Any body block's remaining gas is covered by the whole
                // collapsed loop: at most cap body passes plus the final
                // guard visit, each bounded by the summed body gas.
                Some(summary) => collapsed_bound(summary, &bounds),
                None => match &cfg.blocks[index].exit {
                    BlockExit::Unknown => None,
                    BlockExit::Halt | BlockExit::Abort => Some(block_gas(cfg, index)),
                    _ => cfg.blocks[index]
                        .successors()
                        .iter()
                        .map(|&s| bounds[s])
                        .try_fold(0u64, |best, b| b.map(|b| best.max(b)))
                        .map(|best| block_gas(cfg, index).saturating_add(best)),
                },
            };
            if candidate.is_some() {
                bounds[index] = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    bounds
}

/// `(cap + 1) × per_iter + mem_gas + max(exit bounds)`, once every exit
/// target is itself bounded.
fn collapsed_bound(summary: &LoopSummary, bounds: &[Option<u64>]) -> Option<u64> {
    let cap = summary.trip.as_ref()?.cap?;
    let per_iter = summary.per_iter_gas?;
    let mut exit_max = 0u64;
    for &target in &summary.exit_targets {
        exit_max = exit_max.max(bounds[target]?);
    }
    Some(
        cap.saturating_add(1)
            .saturating_mul(per_iter)
            .saturating_add(summary.mem_gas)
            .saturating_add(exit_max),
    )
}

/// Renders a CFG (the SAG skeleton) as Graphviz DOT, with state-access
/// instructions highlighted and release points marked — the inspection
/// format used by the `analyze_contract` example.
pub fn cfg_to_dot(cfg: &Cfg, release_pcs: &[usize]) -> String {
    use dmvcc_vm::Opcode;
    let bounds = static_gas_bounds(cfg);
    let mut out = String::from("digraph sag {\n  node [shape=box, fontname=\"monospace\"];\n");
    for block in &cfg.blocks {
        let mut label = format!("block {} @pc {}", block.index, block.start_pc);
        if release_pcs.contains(&block.start_pc) {
            match bounds[block.index] {
                Some(g) => label.push_str(&format!("\\n[release point, gas ≤ {g}]")),
                None => label.push_str("\\n[release point]"),
            }
        }
        for ins in &block.instructions {
            match ins.op {
                Opcode::Sload | Opcode::Balance => {
                    label.push_str(&format!("\\nρ @ {}", ins.pc));
                }
                Opcode::Sstore => label.push_str(&format!("\\nω @ {}", ins.pc)),
                Opcode::Sadd => label.push_str(&format!("\\nω̄ @ {}", ins.pc)),
                Opcode::Revert | Opcode::Invalid => {
                    label.push_str(&format!("\\nabort @ {}", ins.pc));
                }
                _ => {}
            }
        }
        let style = if release_pcs.contains(&block.start_pc) {
            ", style=filled, fillcolor=palegreen"
        } else if matches!(block.exit, BlockExit::Abort) {
            ", style=filled, fillcolor=mistyrose"
        } else {
            ""
        };
        out.push_str(&format!(
            "  b{} [label=\"{}\"{}];\n",
            block.index, label, style
        ));
        for succ in block.successors() {
            out.push_str(&format!("  b{} -> b{};\n", block.index, succ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::{assemble, contracts};

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("valid assembly"))
    }

    #[test]
    fn straight_line_bound_is_exact_sum() {
        let g = cfg("PUSH1 1 PUSH1 2 ADD POP STOP");
        let bounds = static_gas_bounds(&g);
        // 4 * 3 gas + STOP(1) = 13.
        assert_eq!(bounds[0], Some(13));
    }

    #[test]
    fn branch_takes_the_max_path() {
        // Taken path: JUMPDEST(1) + PUSH1(3)*2 + REVERT(0) = 7;
        // fall-through: PUSH1(3) + STOP(1) = 4. Entry adds its own cost.
        let g = cfg("PUSH1 1 PUSH @a JUMPI PUSH1 9 STOP a: JUMPDEST PUSH1 0 PUSH1 0 REVERT");
        let bounds = static_gas_bounds(&g);
        let entry_cost = 3 + 3 + 10; // PUSH1, PUSH2, JUMPI
        assert_eq!(bounds[0], Some(entry_cost + 7));
    }

    #[test]
    fn loops_make_bounds_unbounded() {
        let g = cfg("loop: JUMPDEST PUSH1 1 PUSH @loop JUMPI STOP");
        let bounds = static_gas_bounds(&g);
        assert_eq!(bounds[0], None);
        // The exit block after the loop is still bounded.
        let stop_block = g
            .blocks
            .iter()
            .find(|b| b.start_pc > 0 && matches!(b.exit, BlockExit::Halt))
            .expect("stop block");
        assert!(bounds[stop_block.index].is_some());
    }

    #[test]
    fn capped_loop_gets_a_finite_loop_aware_bound() {
        let src =
            "PUSH1 3 loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 PUSH1 0 SWAP1 GT PUSH @loop JUMPI STOP";
        let code = assemble(src).expect("valid assembly");
        let mut g = Cfg::build(&code);
        let plan = crate::absint::analyze(&code, &mut g);
        let loops = crate::loops::analyze_loops(&g, &plan);
        assert_eq!(static_gas_bounds(&g)[0], None, "static pass must give up");
        let bounds = loop_gas_bounds(&g, &loops);
        let bound = bounds[0].expect("capped loop must get a finite bound");
        // 3 iterations of the body plus the final failed-guard pass plus
        // the STOP tail; the collapsed formula over-approximates, so only
        // check it is sane (positive, and at least one body's gas).
        let summary = &loops.loops[0];
        let per_iter = summary.per_iter_gas.expect("body fully costed");
        assert!(
            bound >= per_iter,
            "bound {bound} below one iteration {per_iter}"
        );
        assert!(bound <= (3 + 1) * per_iter + summary.mem_gas + 13);
    }

    #[test]
    fn uncapped_loop_stays_unbounded_in_loop_aware_pass() {
        // Trip count comes off storage with no dominating guard → no cap.
        let src = "PUSH1 0 SLOAD loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 PUSH1 0 SWAP1 GT PUSH @loop JUMPI STOP";
        let code = assemble(src).expect("valid assembly");
        let mut g = Cfg::build(&code);
        let plan = crate::absint::analyze(&code, &mut g);
        let loops = crate::loops::analyze_loops(&g, &plan);
        let bounds = loop_gas_bounds(&g, &loops);
        assert_eq!(bounds[0], None);
    }

    #[test]
    fn airdrop_release_point_inside_summarized_loop_is_bounded() {
        // The airdrop contract's credit loop is abort-free and its head is
        // a release point; the calldata-derived trip count is clamped to 32
        // by the dominating guard, so the loop-aware pass must produce a
        // finite bound *at* that release point.
        let code = contracts::airdrop();
        let mut g = Cfg::build(&code);
        let plan = crate::absint::analyze(&code, &mut g);
        let loops = crate::loops::analyze_loops(&g, &plan);
        let summary = loops
            .loops
            .iter()
            .find(|l| l.bounded())
            .expect("airdrop loop must be summarized with a cap");
        assert!(
            g.release_points().contains(&summary.head_pc),
            "loop head at pc {} must be a release point",
            summary.head_pc
        );
        assert_eq!(
            static_gas_bounds(&g)[summary.head],
            None,
            "static pass alone cannot bound the loop"
        );
        let bounds = loop_gas_bounds(&g, &loops);
        assert!(
            bounds[summary.head].is_some(),
            "release point inside the summarized loop must get a finite bound"
        );
        // Blocks of the body (not just the head) are bounded too.
        for &b in &summary.body {
            assert!(bounds[b].is_some(), "body block {b} unbounded");
        }
    }

    #[test]
    fn unknown_jumps_make_bounds_unbounded() {
        let g = cfg("PUSH1 2 PUSH1 2 ADD JUMP JUMPDEST STOP");
        let bounds = static_gas_bounds(&g);
        assert_eq!(bounds[0], None);
    }

    #[test]
    fn token_release_blocks_have_static_bounds() {
        // The token contract is loop-free: every release point gets a
        // finite static bound.
        let code = contracts::token();
        let g = Cfg::build(&code);
        let bounds = static_gas_bounds(&g);
        for pc in g.release_points() {
            let block = g.blocks.iter().find(|b| b.start_pc == pc).expect("block");
            assert!(
                bounds[block.index].is_some(),
                "release point at {pc} lacks a static bound"
            );
        }
    }

    #[test]
    fn fig1_loop_blocks_unbounded_but_branch2_bounded() {
        let code = contracts::fig1_example();
        let g = Cfg::build(&code);
        let bounds = static_gas_bounds(&g);
        // Some block is unbounded (the loop) …
        assert!(bounds.iter().any(Option::is_none));
        // … and some terminal block is bounded.
        assert!(bounds.iter().any(Option::is_some));
    }

    #[test]
    fn dot_export_mentions_release_points_and_accesses() {
        let code = contracts::token();
        let g = Cfg::build(&code);
        let release = g.release_points();
        let dot = cfg_to_dot(&g, &release);
        assert!(dot.starts_with("digraph sag {"));
        assert!(dot.contains("release point"));
        assert!(dot.contains("ω̄")); // the SADD nodes
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }
}

#[cfg(test)]
mod safety_tests {
    //! Release-point safety: from any release point of any library
    //! contract, no abortable instruction may be reachable — verified by
    //! exhaustive walk of the CFG (this is the property Algorithm 2's
    //! correctness rests on).

    use crate::cfg::{BlockExit, Cfg};
    use dmvcc_vm::contracts;

    fn abort_free_from(cfg: &Cfg, start_block: usize) -> bool {
        let mut stack = vec![start_block];
        let mut seen = std::collections::HashSet::new();
        while let Some(block) = stack.pop() {
            if !seen.insert(block) {
                continue;
            }
            if matches!(
                cfg.blocks[block].exit,
                BlockExit::Abort | BlockExit::Unknown
            ) {
                return false;
            }
            if cfg.blocks[block]
                .instructions
                .iter()
                .any(|i| i.op.is_abortable())
            {
                return false;
            }
            stack.extend(cfg.blocks[block].successors());
        }
        true
    }

    #[test]
    fn no_abort_reachable_from_any_release_point() {
        for (name, code) in [
            ("token", contracts::token()),
            ("counter", contracts::counter()),
            ("amm", contracts::amm()),
            ("nft", contracts::nft()),
            ("ballot", contracts::ballot()),
            ("fig1", contracts::fig1_example()),
            ("auction", contracts::auction()),
            ("crowdsale", contracts::crowdsale()),
            ("batch_pay", contracts::batch_pay()),
            ("airdrop", contracts::airdrop()),
            ("batch_transfer", contracts::batch_transfer()),
        ] {
            let cfg = Cfg::build(&code);
            for pc in cfg.release_points() {
                let block = cfg
                    .blocks
                    .iter()
                    .find(|b| b.start_pc == pc)
                    .unwrap_or_else(|| panic!("{name}: no block at release pc {pc}"));
                assert!(
                    abort_free_from(&cfg, block.index),
                    "{name}: abort reachable from release point at pc {pc}"
                );
            }
        }
    }

    #[test]
    fn every_halting_path_passes_a_release_point_or_aborts() {
        // Completeness: a successful terminal block is either itself
        // release-eligible or downstream of one — otherwise early-write
        // visibility would never trigger for that path.
        for (name, code) in [
            ("token", contracts::token()),
            ("counter", contracts::counter()),
            ("crowdsale", contracts::crowdsale()),
        ] {
            let cfg = Cfg::build(&code);
            let reach = cfg.abort_reachable();
            for block in &cfg.blocks {
                if matches!(block.exit, BlockExit::Halt) {
                    assert!(
                        !reach[block.index],
                        "{name}: halting block at pc {} can still abort",
                        block.start_pc
                    );
                }
            }
        }
    }
}

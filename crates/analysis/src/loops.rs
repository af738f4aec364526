//! Static loop summarization over the patched CFG and block plans.
//!
//! The C-SAG walk ([`crate::csag`]) unrolls loops *concretely* by
//! re-binding φ variables on every loop-head edge; this module is the
//! *static* companion that explains what that unrolling will do before any
//! transaction exists:
//!
//! 1. **Natural-loop detection** — dominators over the patched [`Cfg`]
//!    identify back edges (`latch → head` where the head dominates the
//!    latch). Retreating edges whose target does *not* dominate their
//!    source close multiple-entry (irreducible) regions; those heads are
//!    reported in [`LoopInfo::irreducible_head_pcs`] and never summarized.
//! 2. **Induction variables** — a φ variable whose every back-edge
//!    assignment is `LoopVar(v) ± Const(s)` advances by a fixed stride per
//!    iteration ([`Step::Add`]/[`Step::Sub`]); one assigned `LoopVar(v)`
//!    itself is loop-invariant.
//! 3. **Trip counts** — the loop's exit guard (a branch with one arm in
//!    the body, one outside) is parsed into `i ⋈ B` with `i` an induction
//!    variable and `B` a loop-invariant bound. The bound's provenance is
//!    classified ([`TripSource`]: constant, calldata-derived,
//!    snapshot-derived, or mixed), and when the arithmetic closes — a
//!    constant bound, or a calldata bound clamped by a dominating
//!    `Abort` guard — a hard iteration cap comes out ([`TripCount::cap`]).
//! 4. **Per-iteration cost & access shape** — summed static gas of the
//!    body, a one-shot memory-expansion allowance, abort-freedom, and the
//!    body's accesses as strided key families (`base + i·stride`, possibly
//!    under a keccak, [`KeyFamily`]).
//!
//! [`crate::gas::loop_gas_bounds`] turns capped summaries into finite gas
//! bounds for release points inside and after loops; `dmvcc lint` surfaces
//! unbounded trip counts and irreducible loops as findings.

use std::collections::{BTreeMap, BTreeSet};

use dmvcc_primitives::U256;

use crate::absint::ContractPlan;
use crate::cfg::{BlockExit, Cfg};
use crate::psag::AccessKind;
use crate::symbolic::{BinOp, SymExpr, UnOp};

/// Per-iteration advance of a loop-carried φ variable along the back
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Re-assigned to itself: the value does not change across iterations.
    Invariant,
    /// Increases by the constant each iteration (wrapping).
    Add(U256),
    /// Decreases by the constant each iteration (wrapping).
    Sub(U256),
}

/// A recognized induction variable of one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InductionVar {
    /// The φ variable id ([`SymExpr::LoopVar`]).
    pub var: usize,
    /// Its per-iteration step, identical on every back edge.
    pub step: Step,
}

/// Where a loop's trip count comes from — which inputs the bound and the
/// induction variable's initial values draw on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripSource {
    /// Compile-time constants only.
    Constant,
    /// Transaction data (calldata, caller, value, block environment).
    Calldata,
    /// Snapshot values read during the walk ([`SymExpr::Load`]).
    Snapshot,
    /// Both transaction data and snapshot values.
    Mixed,
}

/// The trip-count template of a summarized loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripCount {
    /// The governing induction variable.
    pub var: usize,
    /// The loop-invariant bound the exit guard compares the variable
    /// against.
    pub bound: SymExpr,
    /// Provenance of the bound and the variable's initial values.
    pub source: TripSource,
    /// Hard static cap on the number of body iterations, when the
    /// arithmetic closes (constant bound and inits, or a bound clamped by
    /// a dominating abort guard).
    pub cap: Option<u64>,
}

/// One state access of the loop body, as a strided key family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFamily {
    /// Program counter of the access.
    pub pc: usize,
    /// ρ / ω / ω̄.
    pub kind: AccessKind,
    /// The key template, parameterized over the loop's φ variables.
    pub key: SymExpr,
    /// Per-iteration key advance (two's-complement for down-counting),
    /// when the key — or a keccak preimage word, see
    /// [`KeyFamily::hashed`] — is affine in one induction variable.
    pub stride: Option<U256>,
    /// `true` when the stride applies to a keccak preimage word rather
    /// than the key value itself (mapping accesses: `keccak(base + i·s)`).
    pub hashed: bool,
}

/// The static summary of one natural loop.
#[derive(Debug, Clone)]
pub struct LoopSummary {
    /// Block index of the loop head.
    pub head: usize,
    /// Start pc of the head block.
    pub head_pc: usize,
    /// Block indices of the loop body (head included), sorted.
    pub body: Vec<usize>,
    /// Body blocks with a back edge to the head.
    pub latches: Vec<usize>,
    /// Blocks outside the body that body blocks exit to.
    pub exit_targets: Vec<usize>,
    /// The loop's φ variables with recognized steps (others are omitted).
    pub induction: Vec<InductionVar>,
    /// The trip-count template, when an exit guard parses.
    pub trip: Option<TripCount>,
    /// Upper bound on one iteration's gas: the summed static gas of every
    /// body block (each iteration executes a subset). `None` when a body
    /// block is not walkable or has unbounded dynamic costs.
    pub per_iter_gas: Option<u64>,
    /// One-shot memory-expansion allowance for the whole loop (expansion
    /// gas is charged against the high-water mark, so the body's maximal
    /// constant extent is paid at most once).
    pub mem_gas: u64,
    /// `true` when no abortable instruction or abort/unknown exit exists
    /// inside the body.
    pub abort_free: bool,
    /// `true` when the body contains another loop's head; nested loops
    /// are detected but not given gas caps.
    pub nested: bool,
    /// The body's state accesses as strided key families.
    pub families: Vec<KeyFamily>,
}

impl LoopSummary {
    /// A loop the gas pass can bound: reducible (by construction), not
    /// nested, with a hard trip cap and fully-costed body.
    pub fn bounded(&self) -> bool {
        !self.nested
            && self.per_iter_gas.is_some()
            && self.trip.as_ref().is_some_and(|t| t.cap.is_some())
    }
}

/// All loops of one contract.
#[derive(Debug, Clone, Default)]
pub struct LoopInfo {
    /// Natural (reducible) loops, one per head, ordered by head index.
    /// Nested back edges sharing a head are merged into one summary.
    pub loops: Vec<LoopSummary>,
    /// Start pcs of irreducible (multiple-entry) region heads: targets of
    /// retreating edges not dominated over their source. These are never
    /// summarized; binding through them relies purely on the φ machinery
    /// and the non-head widening.
    pub irreducible_head_pcs: Vec<usize>,
}

/// Detects and summarizes every loop of the (jump-patched) CFG.
pub fn analyze_loops(cfg: &Cfg, plan: &ContractPlan) -> LoopInfo {
    let order = postorder(cfg);
    let idom = idoms(cfg, &order);
    let mut pos = vec![usize::MAX; cfg.blocks.len()];
    for (i, &b) in order.iter().rev().enumerate() {
        pos[b] = i; // reverse-postorder position
    }

    // Classify retreating edges: back edges (head dominates latch) found
    // natural loops; the rest are entries into irreducible regions.
    let mut latches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut irreducible: BTreeSet<usize> = BTreeSet::new();
    for &block in order.iter() {
        for succ in cfg.blocks[block].successors() {
            if pos[succ] <= pos[block] {
                if dominates(&idom, succ, block) {
                    latches.entry(succ).or_default().push(block);
                } else {
                    irreducible.insert(cfg.blocks[succ].start_pc);
                }
            }
        }
    }

    let loops = latches
        .into_iter()
        .map(|(head, latches)| summarize(cfg, plan, &idom, head, latches))
        .collect::<Vec<_>>();
    let mut loops = loops;
    // A nested head's body is a subset of its ancestors'.
    let heads: Vec<usize> = loops.iter().map(|l| l.head).collect();
    for l in &mut loops {
        l.nested = heads.iter().any(|&h| h != l.head && l.body.contains(&h));
    }
    LoopInfo {
        loops,
        irreducible_head_pcs: irreducible.into_iter().collect(),
    }
}

/// Postorder of the reachable blocks from the entry.
fn postorder(cfg: &Cfg) -> Vec<usize> {
    let n = cfg.blocks.len();
    let mut visited = vec![false; n];
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    visited[0] = true;
    while let Some(&mut (block, ref mut next)) = stack.last_mut() {
        let succs = cfg.blocks[block].successors();
        if *next < succs.len() {
            let succ = succs[*next];
            *next += 1;
            if !visited[succ] {
                visited[succ] = true;
                stack.push((succ, 0));
            }
        } else {
            out.push(block);
            stack.pop();
        }
    }
    out
}

/// Immediate dominators (Cooper–Harvey–Kennedy over reverse postorder).
/// `idom[b]` is `None` for unreachable blocks; the entry dominates itself.
fn idoms(cfg: &Cfg, order: &[usize]) -> Vec<Option<usize>> {
    let n = cfg.blocks.len();
    let mut pos = vec![usize::MAX; n];
    for (i, &b) in order.iter().rev().enumerate() {
        pos[b] = i;
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &b in order {
        for succ in cfg.blocks[b].successors() {
            preds[succ].push(b);
        }
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[0] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().rev() {
            if b == 0 {
                continue;
            }
            let mut new: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue;
                }
                new = Some(match new {
                    None => p,
                    Some(acc) => intersect(&idom, &pos, acc, p),
                });
            }
            if new.is_some() && new != idom[b] {
                idom[b] = new;
                changed = true;
            }
        }
    }
    idom
}

fn intersect(idom: &[Option<usize>], pos: &[usize], a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while a != b {
        while pos[a] > pos[b] {
            a = idom[a].expect("processed");
        }
        while pos[b] > pos[a] {
            b = idom[b].expect("processed");
        }
    }
    a
}

/// Whether `a` dominates `b` (reflexive).
fn dominates(idom: &[Option<usize>], a: usize, b: usize) -> bool {
    let mut at = b;
    loop {
        if at == a {
            return true;
        }
        match idom[at] {
            Some(up) if up != at => at = up,
            _ => return false,
        }
    }
}

/// The natural loop of `head`: `head` plus everything that reaches a latch
/// without passing through `head`.
fn natural_body(cfg: &Cfg, head: usize, latches: &[usize]) -> BTreeSet<usize> {
    let n = cfg.blocks.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for succ in block.successors() {
            preds[succ].push(b);
        }
    }
    let mut body: BTreeSet<usize> = BTreeSet::new();
    body.insert(head);
    let mut stack: Vec<usize> = latches.to_vec();
    while let Some(b) = stack.pop() {
        if body.insert(b) {
            stack.extend(preds[b].iter().copied());
        }
    }
    body
}

fn summarize(
    cfg: &Cfg,
    plan: &ContractPlan,
    idom: &[Option<usize>],
    head: usize,
    latches: Vec<usize>,
) -> LoopSummary {
    let body = natural_body(cfg, head, &latches);
    let exit_targets: Vec<usize> = body
        .iter()
        .flat_map(|&b| cfg.blocks[b].successors())
        .filter(|s| !body.contains(s))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let induction = induction_vars(plan, head, &latches);
    let trip = trip_count(cfg, plan, idom, head, &body, &induction);

    let mut per_iter = Some(0u64);
    let mut mem_end = 0usize;
    let mut abort_free = true;
    for &b in &body {
        let p = &plan.blocks[b];
        if !p.complete || !p.exp_terms.is_empty() {
            per_iter = None;
        }
        per_iter = per_iter.map(|g| g.saturating_add(p.static_gas));
        for &(offset, len) in &p.mem_touches {
            mem_end = mem_end.max(offset.saturating_add(len));
        }
        if matches!(cfg.blocks[b].exit, BlockExit::Abort | BlockExit::Unknown)
            || cfg.blocks[b]
                .instructions
                .iter()
                .any(|i| i.op.is_abortable())
        {
            abort_free = false;
        }
    }
    let mem_gas = 3 * mem_end.div_ceil(32) as u64;

    let families = body
        .iter()
        .flat_map(|&b| plan.blocks[b].accesses.iter())
        .map(|access| {
            let key = access.key.expr().clone();
            let (stride, hashed) = stride_of(&key, &induction);
            KeyFamily {
                pc: access.pc,
                kind: access.kind,
                key,
                stride,
                hashed,
            }
        })
        .collect();

    LoopSummary {
        head,
        head_pc: cfg.blocks[head].start_pc,
        body: body.iter().copied().collect(),
        latches,
        exit_targets,
        induction,
        trip,
        per_iter_gas: per_iter,
        mem_gas,
        abort_free,
        nested: false, // filled by the caller
        families,
    }
}

/// Classifies each φ variable of the head by its back-edge assignments.
fn induction_vars(plan: &ContractPlan, head: usize, latches: &[usize]) -> Vec<InductionVar> {
    let Some(vars) = plan.phi_heads.get(&head) else {
        return Vec::new();
    };
    vars.iter()
        .filter_map(|&var| {
            let mut step: Option<Step> = None;
            for &latch in latches {
                let assigns = plan.phi_edges.get(&(latch, head))?;
                let (_, expr) = assigns.iter().find(|(v, _)| *v == var)?;
                let this = step_of(expr, var)?;
                match step {
                    None => step = Some(this),
                    Some(prior) if prior == this => {}
                    Some(_) => return None,
                }
            }
            Some(InductionVar { var, step: step? })
        })
        .collect()
}

/// `LoopVar(v)` → invariant; `LoopVar(v) ± c` → stepped; anything else is
/// not an induction pattern.
fn step_of(expr: &SymExpr, var: usize) -> Option<Step> {
    let is_var = |e: &SymExpr| *e == SymExpr::LoopVar(var);
    match expr {
        e if is_var(e) => Some(Step::Invariant),
        SymExpr::Binary(BinOp::Add, a, b) if is_var(a) => b.as_const().map(Step::Add),
        SymExpr::Binary(BinOp::Add, a, b) if is_var(b) => a.as_const().map(Step::Add),
        SymExpr::Binary(BinOp::Sub, a, b) if is_var(a) => b.as_const().map(Step::Sub),
        _ => None,
    }
}

/// Unsigned comparison shapes an exit guard can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// Normalizes a branch condition to `left ⋈ right`, folding `ISZERO`
/// chains into the comparison's negation. Only unsigned comparisons
/// participate (the domain's loops count with unsigned arithmetic).
fn comparison(cond: &SymExpr, negate: bool) -> Option<(Cmp, &SymExpr, &SymExpr)> {
    match cond {
        SymExpr::Unary(UnOp::IsZero, inner) => comparison(inner, !negate),
        SymExpr::Binary(BinOp::Lt, a, b) => Some((if negate { Cmp::Ge } else { Cmp::Lt }, a, b)),
        SymExpr::Binary(BinOp::Gt, a, b) => Some((if negate { Cmp::Le } else { Cmp::Gt }, a, b)),
        _ => None,
    }
}

fn flip(cmp: Cmp) -> Cmp {
    match cmp {
        Cmp::Lt => Cmp::Gt,
        Cmp::Gt => Cmp::Lt,
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
    }
}

fn contains_loop_var(expr: &SymExpr) -> bool {
    let mut found = false;
    expr.visit(&mut |e| {
        if matches!(e, SymExpr::LoopVar(_)) {
            found = true;
        }
    });
    found
}

/// `true` when every leaf is fixed for the whole transaction (constants,
/// calldata, sender, environment) — the precondition for a dominating
/// guard on the expression to still hold at the loop.
fn tx_pure(expr: &SymExpr) -> bool {
    let mut pure = true;
    expr.visit(&mut |e| {
        if matches!(e, SymExpr::Unknown | SymExpr::Load(_) | SymExpr::LoopVar(_)) {
            pure = false;
        }
    });
    pure
}

/// Finds the loop's exit guard and builds the trip-count template.
fn trip_count(
    cfg: &Cfg,
    plan: &ContractPlan,
    idom: &[Option<usize>],
    head: usize,
    body: &BTreeSet<usize>,
    induction: &[InductionVar],
) -> Option<TripCount> {
    let mut best: Option<TripCount> = None;
    for &b in body {
        let BlockExit::Branch(taken, fall) = cfg.blocks[b].exit else {
            continue;
        };
        let (t_in, f_in) = (body.contains(&taken), body.contains(&fall));
        if t_in == f_in {
            continue; // not an exit guard
        }
        let Some(cond) = &plan.blocks[b].cond else {
            continue;
        };
        // The continue condition holds whenever control stays in the body.
        let Some((cmp, left, right)) = comparison(cond, !t_in) else {
            continue;
        };
        // Put the induction variable on the left. Guards often test the
        // freshly-updated value (`(i − 1) > B`), so an affine offset on the
        // variable is accepted when it cannot wrap past the cap
        // arithmetic: non-negative offsets for up-counting, non-positive
        // unit-step offsets for down-counting.
        let var_side = |e: &SymExpr| affine_guard_var(e, induction);
        let (cmp, iv, bound) = if let Some(iv) = var_side(left) {
            (cmp, iv, right)
        } else if let Some(iv) = var_side(right) {
            (flip(cmp), iv, left)
        } else {
            continue;
        };
        if contains_loop_var(bound) {
            continue; // the bound itself varies per iteration
        }
        // Initial values of the variable: the non-body in-edges' φ
        // assignments.
        let inits: Vec<&SymExpr> = preds_of(cfg, head)
            .into_iter()
            .filter(|p| !body.contains(p))
            .filter_map(|p| {
                plan.phi_edges
                    .get(&(p, head))
                    .and_then(|assigns| assigns.iter().find(|(v, _)| *v == iv.var))
                    .map(|(_, e)| e)
            })
            .collect();
        if inits.is_empty() {
            continue;
        }
        let mut sourced: Vec<&SymExpr> = inits.clone();
        sourced.push(bound);
        let Some(source) = classify(&sourced) else {
            continue;
        };
        let cap = iteration_cap(cfg, plan, idom, head, cmp, iv.step, bound, &inits);
        let trip = TripCount {
            var: iv.var,
            bound: bound.clone(),
            source,
            cap,
        };
        // Prefer a guard that yields a cap; among capped guards, the
        // tightest.
        best = Some(match best.take() {
            None => trip,
            Some(prior) => match (prior.cap, trip.cap) {
                (Some(a), Some(b)) if b < a => trip,
                (None, Some(_)) => trip,
                _ => prior,
            },
        });
    }
    best
}

/// Matches a guard side of the shape `LoopVar(v) [± const]` for a stepped
/// induction variable, under offsets the cap arithmetic stays sound for:
/// `i + d` (d ≥ 0) only tightens an up-counting `i + d < B` guard, and
/// `i − c` (c ≥ 0) in a unit-step down-counting `i − c > B` guard fails no
/// later than `i > B` does (the descent visits every value, so it cannot
/// skip over the wrap window).
fn affine_guard_var(e: &SymExpr, induction: &[InductionVar]) -> Option<InductionVar> {
    let stepped = |v: &SymExpr| {
        if let SymExpr::LoopVar(v) = v {
            induction
                .iter()
                .find(|iv| iv.var == *v && iv.step != Step::Invariant)
                .copied()
        } else {
            None
        }
    };
    if let Some(iv) = stepped(e) {
        return Some(iv);
    }
    match e {
        SymExpr::Binary(BinOp::Add, a, b) => {
            let (iv, off) = if let Some(iv) = stepped(a) {
                (iv, b.as_const()?)
            } else {
                (stepped(b)?, a.as_const()?)
            };
            // A non-negative offset that cannot itself wrap the compare.
            off.to_u64()?;
            matches!(iv.step, Step::Add(_)).then_some(iv)
        }
        SymExpr::Binary(BinOp::Sub, a, b) => {
            let iv = stepped(a)?;
            b.as_const()?.to_u64()?;
            (iv.step == Step::Sub(U256::ONE)).then_some(iv)
        }
        _ => None,
    }
}

/// Provenance of a set of expressions; `None` when an `Unknown` or
/// φ-variable leaf makes the count unclassifiable.
fn classify(exprs: &[&SymExpr]) -> Option<TripSource> {
    let mut tx = false;
    let mut snap = false;
    let mut opaque = false;
    for expr in exprs {
        expr.visit(&mut |e| match e {
            SymExpr::CallDataWord(_)
            | SymExpr::CallDataSize
            | SymExpr::Caller
            | SymExpr::SelfAddr
            | SymExpr::CallValue
            | SymExpr::BlockNumber
            | SymExpr::BlockTimestamp => tx = true,
            SymExpr::Load(_) => snap = true,
            SymExpr::Unknown | SymExpr::LoopVar(_) => opaque = true,
            _ => {}
        });
    }
    if opaque {
        return None;
    }
    Some(match (tx, snap) {
        (false, false) => TripSource::Constant,
        (true, false) => TripSource::Calldata,
        (false, true) => TripSource::Snapshot,
        (true, true) => TripSource::Mixed,
    })
}

/// Closes the trip-count arithmetic to a hard iteration cap, when the
/// guard shape, step direction and available bounds allow it.
#[allow(clippy::too_many_arguments)]
fn iteration_cap(
    cfg: &Cfg,
    plan: &ContractPlan,
    idom: &[Option<usize>],
    head: usize,
    cmp: Cmp,
    step: Step,
    bound: &SymExpr,
    inits: &[&SymExpr],
) -> Option<u64> {
    match (step, cmp) {
        // Up-counting `for i = init; i < B; i += s`: needs a constant
        // floor on the inits and a ceiling on the bound.
        (Step::Add(s), Cmp::Lt | Cmp::Le) => {
            let s = s.to_u64().filter(|&s| s > 0)?;
            let floor = inits
                .iter()
                .map(|e| e.as_const().and_then(|c| c.to_u64()))
                .collect::<Option<Vec<_>>>()?
                .into_iter()
                .min()?;
            let ceiling = upper_bound(cfg, plan, idom, head, bound)?;
            let span = ceiling.saturating_sub(floor);
            Some(span.div_ceil(s) + u64::from(cmp == Cmp::Le))
        }
        // Down-counting `for i = init; i > B; i -= s`: the bound's value
        // is irrelevant for an upper cap (unsigned, so B ≥ 0); needs a
        // ceiling on the inits.
        (Step::Sub(s), Cmp::Gt) => {
            let s = s.to_u64().filter(|&s| s > 0)?;
            let ceiling = inits
                .iter()
                .map(|e| upper_bound(cfg, plan, idom, head, e))
                .collect::<Option<Vec<_>>>()?
                .into_iter()
                .max()?;
            Some(ceiling.div_ceil(s))
        }
        // `i >= B` only terminates before wrapping when B ≥ 1.
        (Step::Sub(s), Cmp::Ge) => {
            let s = s.to_u64().filter(|&s| s > 0)?;
            bound.as_const().filter(|b| *b >= U256::ONE)?;
            let ceiling = inits
                .iter()
                .map(|e| upper_bound(cfg, plan, idom, head, e))
                .collect::<Option<Vec<_>>>()?
                .into_iter()
                .max()?;
            Some(ceiling.div_ceil(s) + 1)
        }
        _ => None,
    }
}

/// An upper bound on a loop-invariant expression: its constant value, or
/// the tightest clamp a dominating abort guard imposes (`expr > k → abort`
/// on every path into the loop means `expr ≤ k` whenever the loop runs).
fn upper_bound(
    cfg: &Cfg,
    plan: &ContractPlan,
    idom: &[Option<usize>],
    head: usize,
    expr: &SymExpr,
) -> Option<u64> {
    if let Some(c) = expr.as_const() {
        return c.to_u64();
    }
    if !tx_pure(expr) {
        return None; // a snapshot value can change between guard and loop
    }
    let mut best: Option<u64> = None;
    let mut d = idom[head]?;
    loop {
        if let Some(k) = guard_clamp(cfg, plan, d, expr) {
            best = Some(best.map_or(k, |b| b.min(k)));
        }
        let up = idom[d]?;
        if up == d {
            break;
        }
        d = up;
    }
    best
}

/// If block `d` branches straight to an `Abort` block exactly when
/// `expr > k` (or `expr ≥ k`), the surviving path has `expr ≤ k`
/// (resp. `≤ k−1`): returns that clamp.
fn guard_clamp(cfg: &Cfg, plan: &ContractPlan, d: usize, expr: &SymExpr) -> Option<u64> {
    let BlockExit::Branch(taken, fall) = cfg.blocks[d].exit else {
        return None;
    };
    let cond = plan.blocks[d].cond.as_ref()?;
    let mut best: Option<u64> = None;
    for (abort_side, negate) in [(taken, false), (fall, true)] {
        if !matches!(cfg.blocks[abort_side].exit, BlockExit::Abort) {
            continue;
        }
        let Some((cmp, left, right)) = comparison(cond, negate) else {
            continue;
        };
        let (cmp, limit) = if left == expr {
            (cmp, right)
        } else if right == expr {
            (flip(cmp), left)
        } else {
            continue;
        };
        let Some(k) = limit.as_const().and_then(|k| k.to_u64()) else {
            continue;
        };
        let clamp = match cmp {
            Cmp::Gt => Some(k),          // aborts when expr > k
            Cmp::Ge => k.checked_sub(1), // aborts when expr ≥ k
            Cmp::Lt | Cmp::Le => None,   // clamps from below, useless here
        };
        if let Some(c) = clamp {
            best = Some(best.map_or(c, |b| b.min(c)));
        }
    }
    best
}

/// The per-iteration stride of a key template: direct when the key itself
/// is affine in a stepped induction variable, hashed when a keccak
/// preimage word is.
fn stride_of(key: &SymExpr, induction: &[InductionVar]) -> (Option<U256>, bool) {
    for iv in induction {
        let scale = match iv.step {
            Step::Invariant => continue,
            Step::Add(s) => s,
            Step::Sub(s) => s.wrapping_neg(),
        };
        if let Some(c) = linear_coeff(key, iv.var) {
            if c != U256::ZERO {
                return (Some(c.wrapping_mul(scale)), false);
            }
            continue; // key invariant in this variable
        }
        if let SymExpr::Keccak(words) = key {
            let coeffs: Option<Vec<U256>> = words.iter().map(|w| linear_coeff(w, iv.var)).collect();
            if let Some(coeffs) = coeffs {
                let varying: Vec<&U256> = coeffs.iter().filter(|c| **c != U256::ZERO).collect();
                if let [c] = varying.as_slice() {
                    return (Some(c.wrapping_mul(scale)), true);
                }
            }
        }
    }
    (None, false)
}

/// The coefficient of `LoopVar(var)` in `expr` when `expr` is affine in
/// it: `Some(0)` when absent, `None` when it appears non-linearly.
fn linear_coeff(expr: &SymExpr, var: usize) -> Option<U256> {
    match expr {
        SymExpr::LoopVar(v) if *v == var => Some(U256::ONE),
        SymExpr::Binary(BinOp::Add, a, b) => {
            Some(linear_coeff(a, var)?.wrapping_add(linear_coeff(b, var)?))
        }
        SymExpr::Binary(BinOp::Sub, a, b) => {
            Some(linear_coeff(a, var)?.wrapping_sub(linear_coeff(b, var)?))
        }
        SymExpr::Binary(BinOp::Mul, a, b) => match (a.as_const(), b.as_const()) {
            (Some(c), _) => Some(c.wrapping_mul(linear_coeff(b, var)?)),
            (_, Some(c)) => Some(linear_coeff(a, var)?.wrapping_mul(c)),
            _ => {
                let (ca, cb) = (linear_coeff(a, var)?, linear_coeff(b, var)?);
                (ca == U256::ZERO && cb == U256::ZERO).then_some(U256::ZERO)
            }
        },
        other => {
            let mut present = false;
            other.visit(&mut |e| {
                if *e == SymExpr::LoopVar(var) {
                    present = true;
                }
            });
            if present {
                None // under a hash, division, comparison, …: non-affine
            } else {
                Some(U256::ZERO)
            }
        }
    }
}

fn preds_of(cfg: &Cfg, block: usize) -> Vec<usize> {
    (0..cfg.blocks.len())
        .filter(|&p| cfg.blocks[p].successors().contains(&block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint;
    use dmvcc_vm::{assemble, contracts};

    fn analyzed(code: &[u8]) -> (Cfg, ContractPlan) {
        let mut cfg = Cfg::build(code);
        let plan = absint::analyze(code, &mut cfg);
        (cfg, plan)
    }

    fn loops_of(src: &str) -> (Cfg, ContractPlan, LoopInfo) {
        let code = assemble(src).expect("valid assembly");
        let (cfg, plan) = analyzed(&code);
        let info = analyze_loops(&cfg, &plan);
        (cfg, plan, info)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let (_, _, info) = loops_of("PUSH1 1 POP STOP");
        assert!(info.loops.is_empty());
        assert!(info.irreducible_head_pcs.is_empty());
    }

    #[test]
    fn constant_count_down_loop_is_fully_capped() {
        // i = 3; while i > 0 { i -= 1 }: constant trip source, cap 3.
        let (_, _, info) = loops_of(
            "PUSH1 3 \
             loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 PUSH1 0 SWAP1 GT PUSH @loop JUMPI STOP",
        );
        assert_eq!(info.loops.len(), 1);
        let l = &info.loops[0];
        assert!(l.induction.iter().any(|iv| iv.step == Step::Sub(U256::ONE)));
        let trip = l.trip.as_ref().expect("guard parses");
        assert_eq!(trip.source, TripSource::Constant);
        assert_eq!(trip.cap, Some(3));
        assert!(l.per_iter_gas.is_some());
        assert!(l.abort_free);
        assert!(!l.nested);
    }

    #[test]
    fn fig1_loop_is_snapshot_bounded_without_cap() {
        let code = contracts::fig1_example();
        let (cfg, plan) = analyzed(&code);
        let info = analyze_loops(&cfg, &plan);
        assert_eq!(info.loops.len(), 1, "fig1 has exactly one loop");
        let l = &info.loops[0];
        let trip = l.trip.as_ref().expect("head guard parses");
        // The counter starts from a snapshot read: bindable per
        // transaction, but no static cap.
        assert_eq!(trip.source, TripSource::Snapshot);
        assert_eq!(trip.cap, None);
        assert!(info.irreducible_head_pcs.is_empty());
        // The body writes B[i]: a unit-stride direct key family.
        assert!(l
            .families
            .iter()
            .any(|f| f.kind == AccessKind::Write && f.stride.is_some() && !f.hashed));
    }

    #[test]
    fn airdrop_loop_is_calldata_bounded_with_a_guard_clamp() {
        let code = contracts::airdrop();
        let (cfg, plan) = analyzed(&code);
        let info = analyze_loops(&cfg, &plan);
        assert_eq!(info.loops.len(), 1, "airdrop has exactly one loop");
        let l = &info.loops[0];
        assert!(l.abort_free, "credit loop must be abort-free");
        assert!(!l.nested);
        let trip = l.trip.as_ref().expect("exit guard parses");
        assert_eq!(trip.source, TripSource::Calldata);
        // The dominating `require(n <= 32)` closes the calldata bound.
        assert_eq!(trip.cap, Some(32));
        assert!(l.per_iter_gas.is_some(), "body fully costed");
        assert!(l.bounded());
        // The SADD key `keccak((start + i) ++ 0)` is a unit-stride hashed
        // family.
        assert!(l
            .families
            .iter()
            .any(|f| f.kind == AccessKind::Add && f.stride == Some(U256::ONE) && f.hashed));
    }

    #[test]
    fn batch_transfer_loop_is_snapshot_bounded_without_cap() {
        let code = contracts::batch_transfer();
        let (cfg, plan) = analyzed(&code);
        let info = analyze_loops(&cfg, &plan);
        assert_eq!(info.loops.len(), 1, "batch_transfer has exactly one loop");
        let l = &info.loops[0];
        assert!(l.abort_free);
        let trip = l.trip.as_ref().expect("exit guard parses");
        // The count is read from storage: bindable per transaction against
        // the snapshot, but no static cap.
        assert_eq!(trip.source, TripSource::Snapshot);
        assert_eq!(trip.cap, None);
        assert!(!l.bounded());
        // Down-counting unit-stride hashed credit family.
        assert!(l
            .families
            .iter()
            .any(|f| f.kind == AccessKind::Add && f.stride.is_some() && f.hashed));
    }

    #[test]
    fn irreducible_region_is_flagged_not_summarized() {
        // Two entries into the same cycle: a → b → a with a second entry
        // jumping into the middle of the cycle.
        let (_, _, info) = loops_of(
            "PUSH1 0 CALLDATALOAD PUSH @mid JUMPI \
             top: JUMPDEST PUSH1 1 PUSH @mid JUMPI STOP \
             mid: JUMPDEST PUSH1 1 PUSH @top JUMPI STOP",
        );
        // The retreating edge mid→top targets a block that does not
        // dominate it (top can be bypassed via the calldata branch).
        assert!(!info.irreducible_head_pcs.is_empty());
        assert!(info
            .loops
            .iter()
            .all(|l| { !info.irreducible_head_pcs.contains(&l.head_pc) }));
    }
}

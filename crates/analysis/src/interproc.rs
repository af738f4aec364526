//! Interprocedural call-graph analysis over a contract registry.
//!
//! The per-contract abstract interpreter ([`crate::absint`]) already turns
//! statically-resolvable `CALL` sites into [`PlanCall`] summaries; this
//! module lifts those site-level facts to the registry level. It builds
//! the static call graph (an edge per summarized or dynamic call site),
//! condenses it with Tarjan's SCC algorithm, and classifies every site
//! and contract:
//!
//! - the SCC condensation yields a **bottom-up order** — callees before
//!   callers — in which a caller's template could substitute
//!   fully-summarized callee plans. Nothing computes summaries in this
//!   order: [`crate::Analyzer::psag`] builds each P-SAG on first use, and
//!   only the lint and the CLI build a [`CallGraph`];
//! - sites whose callee sits in the same SCC (including self-loops) are
//!   **recursive** — composing them would not terminate, so the bind
//!   walk's frame budget would blow and speculation takes over;
//! - chains nesting deeper than [`CALL_DEPTH_LIMIT`] are flagged, since
//!   the interpreter fails such calls at runtime (pushing 0) while the
//!   static plan assumed success;
//! - dynamic-target sites (callee address not a foldable constant) are
//!   the paper's unanalyzable residue, surfaced by `dmvcc lint` as
//!   `unanalyzable-call-target`.
//!
//! The verdicts are *advisory*: the C-SAG walk re-checks everything at
//! bind time and falls back to speculative pre-execution on any mismatch,
//! so a wrong verdict can cost performance, never correctness.

use std::collections::BTreeMap;

use dmvcc_primitives::Address;
use dmvcc_vm::{CodeRegistry, Opcode, CALL_DEPTH_LIMIT};

use crate::absint::{self, CallTarget, PlanCallKind};
use crate::cfg::Cfg;
use crate::psag::AccessKind;

/// Classification of one call-family site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallSiteVerdict {
    /// The callee summary composes into the caller's template.
    Summarizable,
    /// Statically-known target with no deployed code: the call trivially
    /// succeeds with empty return data (modeled exactly, nothing to
    /// compose).
    NoCode,
    /// Dynamic-but-bounded dispatch: the callee address is read from a
    /// registry storage slot, so the bind walk enumerates the candidate
    /// and composes its summary under the slot's snapshot guard.
    BoundedDynamic,
    /// The callee address neither folds to a constant nor comes from a
    /// registry slot; the block degrades to speculative fallback.
    DynamicTarget,
    /// A `STATICCALL` whose target is not provably write-free: the callee
    /// can reach a store, which reverts inside the read-only frame.
    /// Surfaced by `dmvcc lint` as the `staticcall-writes` error.
    StaticWrites,
    /// The callee reaches back into the caller's SCC; composition would
    /// not terminate.
    Recursive,
    /// The static call chain below this site nests past
    /// [`CALL_DEPTH_LIMIT`], where the interpreter fails the call.
    DepthExceeded,
}

/// One call site of a contract, as seen by the call graph.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Program counter of the call instruction.
    pub pc: usize,
    /// Which call-family instruction sits at the site.
    pub kind: PlanCallKind,
    /// Statically-resolved callee, when the address folded.
    pub callee: Option<Address>,
    /// The site's classification.
    pub verdict: CallSiteVerdict,
}

/// Aggregate verdict for one deployed contract.
#[derive(Debug, Clone)]
pub struct ContractVerdict {
    /// All call sites, in code order.
    pub sites: Vec<CallSite>,
    /// Height of the static call tree rooted here: 0 for leaf contracts,
    /// `1 + max(callee heights)` otherwise; `usize::MAX` inside a cycle.
    pub height: usize,
    /// `true` when every site is [`CallSiteVerdict::Summarizable`],
    /// [`CallSiteVerdict::NoCode`] or [`CallSiteVerdict::BoundedDynamic`]
    /// — the contract's own transactions can bind across every call edge.
    pub summarizable: bool,
    /// Statically-verified write freedom: no storage write, commutative
    /// increment, or balance-moving value transfer is reachable from this
    /// contract's code, transitively through its fixed call targets. This
    /// is the proof obligation a `STATICCALL` target must discharge.
    pub write_free: bool,
}

/// How a raw call site's target resolved during abstract interpretation.
#[derive(Debug, Clone, Copy)]
enum RawTarget {
    Fixed(Address),
    Registry,
    Dynamic,
}

/// The static call graph of a registry, with its SCC condensation and
/// per-site verdicts.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Deployed addresses in bottom-up (callees-first) summary order.
    pub bottom_up: Vec<Address>,
    /// Strongly connected components, in the same bottom-up order;
    /// components with more than one member (or a self-loop) are
    /// recursive.
    pub sccs: Vec<Vec<Address>>,
    /// Per-contract classification.
    pub verdicts: BTreeMap<Address, ContractVerdict>,
}

impl CallGraph {
    /// Builds the call graph of `registry` by running the per-contract
    /// abstract interpretation and linking its summarized call sites.
    pub fn build(registry: &CodeRegistry) -> CallGraph {
        let mut addrs: Vec<Address> = registry.iter().map(|(a, _)| *a).collect();
        addrs.sort();
        let index_of: BTreeMap<Address, usize> =
            addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();

        // Per contract: (pc, kind, target) for every call site, plus the
        // local write facts the write-freedom fixpoint starts from.
        let mut raw_sites: Vec<Vec<(usize, PlanCallKind, RawTarget)>> =
            Vec::with_capacity(addrs.len());
        let mut writes_possible = vec![false; addrs.len()];
        for (i, addr) in addrs.iter().enumerate() {
            let code = registry.code(addr).expect("address came from the registry");
            let mut cfg = Cfg::build(&code);
            let plan = absint::analyze_with(&code, &mut cfg, Some(registry));
            let mut sites = Vec::new();
            let mut modeled_call_pcs = Vec::new();
            for block in &plan.blocks {
                if let Some(call) = &block.call {
                    let target = match call.target {
                        CallTarget::Fixed(callee) => RawTarget::Fixed(callee),
                        CallTarget::RegistrySlot { .. } => RawTarget::Registry,
                    };
                    sites.push((call.pc, call.kind, target));
                    modeled_call_pcs.push(call.pc);
                    // A value transfer debits the sender and credits the
                    // recipient balance — storage writes either way.
                    if !call.value.as_const().is_some_and(|v| v.is_zero()) {
                        writes_possible[i] = true;
                    }
                    // The candidate set of a registry slot is unknown at
                    // graph-build time; assume the worst for write freedom.
                    if matches!(call.target, CallTarget::RegistrySlot { .. }) {
                        writes_possible[i] = true;
                    }
                }
                if let Some((pc, kind, callee)) = block.no_code_call {
                    sites.push((pc, kind, RawTarget::Fixed(callee)));
                    modeled_call_pcs.push(pc);
                }
                if let Some(pc) = block.dynamic_call {
                    let kind = code
                        .get(pc)
                        .and_then(|&b| Opcode::from_byte(b))
                        .map_or(PlanCallKind::Call, plan_call_kind);
                    sites.push((pc, kind, RawTarget::Dynamic));
                    modeled_call_pcs.push(pc);
                    // Unknown callee → unknown writes.
                    writes_possible[i] = true;
                }
                if block
                    .accesses
                    .iter()
                    .any(|a| matches!(a.kind, AccessKind::Write | AccessKind::Add))
                {
                    writes_possible[i] = true;
                }
            }
            // A call-family instruction the abstract interpreter could not
            // summarize at all (e.g. unaligned memory regions) reaches an
            // unknown callee: no graph edge, but writes are possible.
            for block in &cfg.blocks {
                if let Some(ins) = block.instructions.last() {
                    if matches!(
                        ins.op,
                        Opcode::Call | Opcode::DelegateCall | Opcode::StaticCall
                    ) && !modeled_call_pcs.contains(&ins.pc)
                    {
                        writes_possible[i] = true;
                    }
                }
            }
            sites.sort_by_key(|&(pc, _, _)| pc);
            raw_sites.push(sites);
        }

        // Edges restricted to fixed, deployed callees (a no-code target has
        // no node to point at; dynamic candidates are resolved at bind
        // time, not graph-build time).
        let succs: Vec<Vec<usize>> = raw_sites
            .iter()
            .map(|sites| {
                sites
                    .iter()
                    .filter_map(|(_, _, target)| match target {
                        RawTarget::Fixed(c) => index_of.get(c).copied(),
                        RawTarget::Registry | RawTarget::Dynamic => None,
                    })
                    .collect()
            })
            .collect();

        let sccs = tarjan_sccs(&succs);
        // Tarjan emits components in reverse topological order of the
        // condensation — callees before callers — exactly the bottom-up
        // summary order.
        let mut scc_of = vec![0usize; addrs.len()];
        for (scc_index, component) in sccs.iter().enumerate() {
            for &node in component {
                scc_of[node] = scc_index;
            }
        }
        let recursive_scc: Vec<bool> = sccs
            .iter()
            .map(|component| {
                component.len() > 1 || component.iter().any(|&n| succs[n].contains(&n))
            })
            .collect();

        // Heights bottom-up over the condensation DAG.
        let mut height = vec![0usize; addrs.len()];
        for component in &sccs {
            for &node in component {
                if recursive_scc[scc_of[node]] {
                    height[node] = usize::MAX;
                    continue;
                }
                let mut h = 0usize;
                for &succ in &succs[node] {
                    let below = height[succ];
                    h = h.max(below.saturating_add(1));
                }
                height[node] = h;
            }
        }

        // Write-freedom fixpoint: a write anywhere below a contract (along
        // fixed, deployed call edges) makes the contract itself capable of
        // writing. Least fixpoint of OR — recursion converges naturally.
        loop {
            let mut changed = false;
            for i in 0..addrs.len() {
                if writes_possible[i] {
                    continue;
                }
                if succs[i].iter().any(|&j| writes_possible[j]) {
                    writes_possible[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut verdicts = BTreeMap::new();
        for (i, addr) in addrs.iter().enumerate() {
            let sites: Vec<CallSite> = raw_sites[i]
                .iter()
                .map(|&(pc, kind, target)| {
                    let callee = match target {
                        RawTarget::Fixed(c) => Some(c),
                        RawTarget::Registry | RawTarget::Dynamic => None,
                    };
                    let verdict = match target {
                        RawTarget::Dynamic => CallSiteVerdict::DynamicTarget,
                        RawTarget::Registry => CallSiteVerdict::BoundedDynamic,
                        RawTarget::Fixed(c) => match index_of.get(&c) {
                            None => CallSiteVerdict::NoCode,
                            Some(&j) if scc_of[j] == scc_of[i] || recursive_scc[scc_of[j]] => {
                                CallSiteVerdict::Recursive
                            }
                            Some(&j) if height[j].saturating_add(1) > CALL_DEPTH_LIMIT => {
                                CallSiteVerdict::DepthExceeded
                            }
                            Some(&j) if kind == PlanCallKind::Static && writes_possible[j] => {
                                CallSiteVerdict::StaticWrites
                            }
                            Some(_) => CallSiteVerdict::Summarizable,
                        },
                    };
                    CallSite {
                        pc,
                        kind,
                        callee,
                        verdict,
                    }
                })
                .collect();
            let summarizable = sites.iter().all(|s| {
                matches!(
                    s.verdict,
                    CallSiteVerdict::Summarizable
                        | CallSiteVerdict::NoCode
                        | CallSiteVerdict::BoundedDynamic
                )
            });
            verdicts.insert(
                *addr,
                ContractVerdict {
                    sites,
                    height: height[i],
                    summarizable,
                    write_free: !writes_possible[i],
                },
            );
        }

        CallGraph {
            bottom_up: sccs.iter().flatten().map(|&n| addrs[n]).collect(),
            sccs: sccs
                .iter()
                .map(|component| component.iter().map(|&n| addrs[n]).collect())
                .collect(),
            verdicts,
        }
    }
}

/// Maps a call-family opcode to its plan kind.
fn plan_call_kind(op: Opcode) -> PlanCallKind {
    match op {
        Opcode::DelegateCall => PlanCallKind::Delegate,
        Opcode::StaticCall => PlanCallKind::Static,
        _ => PlanCallKind::Call,
    }
}

/// Iterative Tarjan SCC over an adjacency list; components are emitted in
/// reverse topological order (every edge leaves a later component).
fn tarjan_sccs(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succs.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS frames: (node, next successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (node, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[node] = next_index;
                lowlink[node] = next_index;
                next_index += 1;
                stack.push(node);
                on_stack[node] = true;
            }
            if let Some(&succ) = succs[node].get(*pos) {
                *pos += 1;
                if index[succ] == UNVISITED {
                    frames.push((succ, 0));
                } else if on_stack[succ] {
                    lowlink[node] = lowlink[node].min(index[succ]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[node]);
            }
            if lowlink[node] == index[node] {
                let mut component = Vec::new();
                loop {
                    let member = stack.pop().expect("stack holds the component");
                    on_stack[member] = false;
                    component.push(member);
                    if member == node {
                        break;
                    }
                }
                component.sort_unstable();
                components.push(component);
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::{assemble, contracts};

    /// A contract that CALLs `target` with a static address and stops.
    fn caller_of(target: Address) -> Vec<u8> {
        let hex: String = target
            .to_u256()
            .to_be_bytes()
            .iter()
            .skip(12)
            .map(|b| format!("{b:02x}"))
            .collect();
        assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS CALL POP STOP"
        ))
        .expect("valid assembly")
    }

    /// A contract whose CALL target comes off calldata → dynamic at
    /// analysis time (constant arithmetic would fold away).
    fn dynamic_caller() -> Vec<u8> {
        assemble(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 \
             PUSH1 0 CALLDATALOAD GAS CALL POP STOP",
        )
        .expect("valid assembly")
    }

    #[test]
    fn linear_chain_orders_bottom_up() {
        let leaf = Address::from_u64(1);
        let mid = Address::from_u64(2);
        let top = Address::from_u64(3);
        let registry = CodeRegistry::builder()
            .deploy(leaf, contracts::counter())
            .deploy(mid, caller_of(leaf))
            .deploy(top, caller_of(mid))
            .build();
        let graph = CallGraph::build(&registry);
        let pos = |a: Address| graph.bottom_up.iter().position(|&x| x == a).unwrap();
        assert!(pos(leaf) < pos(mid), "callee before caller");
        assert!(pos(mid) < pos(top));
        assert_eq!(graph.verdicts[&leaf].height, 0);
        assert_eq!(graph.verdicts[&mid].height, 1);
        assert_eq!(graph.verdicts[&top].height, 2);
        assert!(graph.verdicts[&top].summarizable);
        assert_eq!(
            graph.verdicts[&top].sites[0].verdict,
            CallSiteVerdict::Summarizable
        );
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let a = Address::from_u64(1);
        let b = Address::from_u64(2);
        let registry = CodeRegistry::builder()
            .deploy(a, caller_of(b))
            .deploy(b, caller_of(a))
            .build();
        let graph = CallGraph::build(&registry);
        assert!(graph.sccs.iter().any(|c| c.len() == 2));
        assert_eq!(
            graph.verdicts[&a].sites[0].verdict,
            CallSiteVerdict::Recursive
        );
        assert!(!graph.verdicts[&a].summarizable);
        assert_eq!(graph.verdicts[&a].height, usize::MAX);
    }

    #[test]
    fn self_call_is_recursive() {
        let a = Address::from_u64(1);
        let registry = CodeRegistry::builder().deploy(a, caller_of(a)).build();
        let graph = CallGraph::build(&registry);
        assert_eq!(
            graph.verdicts[&a].sites[0].verdict,
            CallSiteVerdict::Recursive
        );
    }

    #[test]
    fn dynamic_target_flagged() {
        let a = Address::from_u64(1);
        let registry = CodeRegistry::builder().deploy(a, dynamic_caller()).build();
        let graph = CallGraph::build(&registry);
        assert_eq!(graph.verdicts[&a].sites.len(), 1);
        assert_eq!(
            graph.verdicts[&a].sites[0].verdict,
            CallSiteVerdict::DynamicTarget
        );
    }

    #[test]
    fn no_code_target_is_benign() {
        let a = Address::from_u64(1);
        let registry = CodeRegistry::builder()
            .deploy(a, caller_of(Address::from_u64(99)))
            .build();
        let graph = CallGraph::build(&registry);
        assert_eq!(graph.verdicts[&a].sites[0].verdict, CallSiteVerdict::NoCode);
        assert!(graph.verdicts[&a].summarizable);
    }

    #[test]
    fn depth_limit_chain_flagged() {
        // A chain of CALL_DEPTH_LIMIT + 1 contracts: the top site's static
        // chain nests past the interpreter's frame limit.
        let addr = |i: usize| Address::from_u64(100 + i as u64);
        let mut builder = CodeRegistry::builder().deploy(addr(0), contracts::counter());
        for i in 1..=CALL_DEPTH_LIMIT + 1 {
            builder = builder.deploy(addr(i), caller_of(addr(i - 1)));
        }
        let graph = CallGraph::build(&builder.build());
        let top = addr(CALL_DEPTH_LIMIT + 1);
        assert_eq!(
            graph.verdicts[&top].sites[0].verdict,
            CallSiteVerdict::DepthExceeded
        );
        // One level down still fits.
        assert_eq!(
            graph.verdicts[&addr(CALL_DEPTH_LIMIT)].sites[0].verdict,
            CallSiteVerdict::Summarizable
        );
    }

    #[test]
    fn fixture_universe_routers_summarizable() {
        let amm = Address::from_u64(1);
        let router = Address::from_u64(2);
        let registry = CodeRegistry::builder()
            .deploy(amm, contracts::amm())
            .deploy(router, contracts::dex_router(amm))
            .build();
        let graph = CallGraph::build(&registry);
        assert!(
            graph.verdicts[&router].summarizable,
            "router sites: {:?}",
            graph.verdicts[&router].sites
        );
        assert!(!graph.verdicts[&router].sites.is_empty());
    }

    /// A contract that STATICCALLs `target` and stops.
    fn static_caller_of(target: Address) -> Vec<u8> {
        let hex = dmvcc_primitives::encode_hex(target.as_bytes());
        assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS STATICCALL POP STOP"
        ))
        .expect("valid assembly")
    }

    #[test]
    fn write_freedom_is_a_transitive_proof() {
        let floor = Address::from_u64(1);
        let viewer = Address::from_u64(2);
        let token = Address::from_u64(3);
        let registry = CodeRegistry::builder()
            .deploy(floor, contracts::floor_oracle())
            .deploy(viewer, static_caller_of(floor))
            .deploy(token, contracts::token())
            .build();
        let graph = CallGraph::build(&registry);
        // The oracle stores nothing; a wrapper that only STATICCALLs it
        // inherits the proof. The token writes balances.
        assert!(graph.verdicts[&floor].write_free);
        assert!(graph.verdicts[&viewer].write_free);
        assert!(!graph.verdicts[&token].write_free);
        assert_eq!(
            graph.verdicts[&viewer].sites[0].verdict,
            CallSiteVerdict::Summarizable
        );
    }

    #[test]
    fn staticcall_into_writer_is_flagged() {
        let token = Address::from_u64(1);
        let viewer = Address::from_u64(2);
        let registry = CodeRegistry::builder()
            .deploy(token, contracts::token())
            .deploy(viewer, static_caller_of(token))
            .build();
        let graph = CallGraph::build(&registry);
        let site = &graph.verdicts[&viewer].sites[0];
        assert_eq!(site.kind, PlanCallKind::Static);
        assert_eq!(site.verdict, CallSiteVerdict::StaticWrites);
        assert!(!graph.verdicts[&viewer].summarizable);
    }

    #[test]
    fn registry_slot_dispatch_is_bounded_dynamic() {
        let splitter = Address::from_u64(1);
        let registry = CodeRegistry::builder()
            .deploy(splitter, contracts::royalty_splitter())
            .build();
        let graph = CallGraph::build(&registry);
        let verdict = &graph.verdicts[&splitter];
        let site = verdict
            .sites
            .iter()
            .find(|s| s.verdict == CallSiteVerdict::BoundedDynamic)
            .expect("registry-slot site gets the bounded verdict");
        assert_eq!(site.callee, None, "candidate set is per-transaction");
        // Bounded dispatch stays summarizable (it binds per candidate) but
        // poisons the write-freedom proof: the candidate set is unknown.
        assert!(verdict.summarizable);
        assert!(!verdict.write_free);
    }

    #[test]
    fn delegate_site_kind_and_write_taint_propagate() {
        let splitter = Address::from_u64(1);
        let floor = Address::from_u64(2);
        let drop = Address::from_u64(3);
        let registry = CodeRegistry::builder()
            .deploy(splitter, contracts::royalty_splitter())
            .deploy(floor, contracts::floor_oracle())
            .deploy(drop, contracts::nft_drop(splitter, floor))
            .build();
        let graph = CallGraph::build(&registry);
        let verdict = &graph.verdicts[&drop];
        let delegate = verdict
            .sites
            .iter()
            .find(|s| s.kind == PlanCallKind::Delegate)
            .expect("mint's delegatecall site");
        assert_eq!(delegate.callee, Some(splitter));
        assert_eq!(delegate.verdict, CallSiteVerdict::Summarizable);
        // The static preview site targets the write-free oracle.
        let preview = verdict
            .sites
            .iter()
            .find(|s| s.kind == PlanCallKind::Static)
            .expect("preview's staticcall site");
        assert_eq!(preview.verdict, CallSiteVerdict::Summarizable);
        // The drop writes locally (and borrows a writing body): not
        // write-free, but every site still summarizes.
        assert!(verdict.summarizable);
        assert!(!verdict.write_free);
    }
}

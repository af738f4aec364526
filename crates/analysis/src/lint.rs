//! Prediction-quality lint over a contract's static analysis results.
//!
//! DMVCC's performance rests on the analyzer's predictions: unresolved
//! keys degrade C-SAG refinement to speculative pre-execution, missing
//! release points keep locks held to completion, unbounded blocks lose
//! their gas bounds, and read-modify-write increments conflict where an
//! `SADD` would commute. [`lint_contract`] surfaces all four as findings
//! so contract authors (and CI) can see prediction quality *before*
//! anything executes; the `dmvcc lint` subcommand renders them.

use dmvcc_primitives::Address;
use dmvcc_vm::{CodeRegistry, CALL_DEPTH_LIMIT};

use crate::absint::{CallTarget, ContractPlan, PlanCallKind};
use crate::cfg::Cfg;
use crate::commute::{classify_increments, IncrementClass};
use crate::gas::loop_gas_bounds;
use crate::interproc::{CallGraph, CallSiteVerdict, ContractVerdict};
use crate::loops::LoopInfo;
use crate::psag::PSag;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: an optimisation opportunity.
    Note,
    /// Degrades prediction quality (falls back, holds locks longer).
    Warning,
    /// Defeats the analyzer entirely; fails the lint.
    Error,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case), e.g. `unbounded-trip-count`.
    pub code: &'static str,
    /// The pc the finding anchors to (a loop head, an access, a block
    /// start), when it has one.
    pub pc: Option<usize>,
    /// Human-readable description, including the pc where relevant.
    pub message: String,
}

/// The lint result for one contract.
#[derive(Debug, Clone)]
pub struct ContractLint {
    /// Contract name (as registered).
    pub name: String,
    /// Total state-access nodes in the P-SAG.
    pub access_ops: usize,
    /// Accesses whose key is a closed symbolic template (bindable without
    /// speculative execution).
    pub template_resolved: usize,
    /// Accesses whose key is a literal constant.
    pub const_resolved: usize,
    /// Number of release points.
    pub release_points: usize,
    /// All findings, in severity-then-discovery order.
    pub findings: Vec<Finding>,
}

impl ContractLint {
    /// `true` when any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Lints `code`, reporting unresolved keys, missing release points,
/// unbounded blocks and non-commutable increments.
///
/// Errors (which fail `dmvcc lint`): a contract with state accesses none
/// of which resolve to a template, and a contract with no release points
/// at all — both defeat the point of static analysis.
pub fn lint_contract(name: &str, code: &[u8]) -> ContractLint {
    lint_from_psag(name, &PSag::build(code))
}

/// Shared lint body over an already-built P-SAG (registry-aware or not).
fn lint_from_psag(name: &str, psag: &PSag) -> ContractLint {
    let plan = &psag.plan;
    let access_ops = psag.ops.len();
    let template_resolved = psag.template_resolved().count();
    let const_resolved = psag.resolved().count();

    let mut findings = Vec::new();

    if access_ops > 0 && template_resolved == 0 {
        findings.push(Finding {
            severity: Severity::Error,
            code: "no-template-keys",
            pc: None,
            message: format!(
                "none of the {access_ops} state accesses resolve to a key template; \
                 every C-SAG refinement will fall back to speculative execution"
            ),
        });
    }
    if psag.release_pcs.is_empty() {
        findings.push(Finding {
            severity: Severity::Error,
            code: "no-release-points",
            pc: None,
            message: "no release points: an abort stays reachable to the end of every path, \
                      so locks are held until commit"
                .to_string(),
        });
    }

    for access in plan.accesses() {
        if !access.key.is_template() {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "unresolved-key",
                pc: Some(access.pc),
                message: format!(
                    "access at pc {} has an unresolved key (the paper's \"–\" placeholder)",
                    access.pc
                ),
            });
        }
    }

    for block_plan in &plan.blocks {
        // Registry-slot dispatch (`CallTarget::RegistrySlot`) never lands
        // here: the abstract interpreter keeps it analyzable, so this code
        // only fires on targets that are *truly* unknown (calldata-derived,
        // arithmetic the interpreter lost, ...).
        if let Some(pc) = block_plan.dynamic_call {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "unanalyzable-call-target",
                pc: Some(pc),
                message: format!(
                    "call at pc {pc} has a dynamic callee address; the callee's accesses \
                     cannot be summarized and paths through it refine speculatively"
                ),
            });
        }
        if let Some(call) = &block_plan.call {
            let value_may_move = !call.value.as_const().is_some_and(|v| v.is_zero());
            if value_may_move && !matches!(call.target, CallTarget::Fixed(_)) {
                findings.push(Finding {
                    severity: Severity::Warning,
                    code: "value-call-unbounded-recipient",
                    pc: Some(call.pc),
                    message: format!(
                        "value-transferring call at pc {} credits a recipient balance that \
                         only resolves per transaction (registry-slot dispatch); the credit \
                         key cannot be enumerated statically",
                        call.pc
                    ),
                });
            }
        }
    }

    unbounded_gas_findings(&psag.cfg, plan, &psag.loops, &mut findings);
    loop_findings(&psag.cfg, plan, &psag.loops, &mut findings);

    for report in classify_increments(plan) {
        match report.class {
            IncrementClass::Commutable => findings.push(Finding {
                severity: Severity::Note,
                code: "sadd-candidate",
                pc: Some(report.store_pc),
                message: format!(
                    "store at pc {} is a commutable increment of key {} (loaded at pc {}); \
                     compiling it to SADD would remove the read-write conflict",
                    report.store_pc, report.key, report.load_pc
                ),
            }),
            IncrementClass::NonCommutable => findings.push(Finding {
                severity: Severity::Warning,
                code: "non-commutable-increment",
                pc: Some(report.store_pc),
                message: format!(
                    "store at pc {} increments key {} but the value loaded at pc {} \
                     flows into other facts; the increment cannot commute",
                    report.store_pc, report.key, report.load_pc
                ),
            }),
        }
    }

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    ContractLint {
        name: name.to_string(),
        access_ops,
        template_resolved,
        const_resolved,
        release_points: psag.release_pcs.len(),
        findings,
    }
}

/// Call-graph findings for one deployed contract: sites the
/// interprocedural summarizer had to bail out on (or proved facts about),
/// from the [`CallGraph`]'s per-site verdicts.
///
/// `Summarizable` and `NoCode` sites are silent (both bind statically) —
/// except delegate sites, which get the `delegatecall-into-selfdestruct-
/// free` note recording the verified absence of self-destructing
/// instructions in the borrowed body. `DynamicTarget` adds the graph-level
/// `dynamic-dispatch-unbounded` on top of the plan-level
/// `unanalyzable-call-target`, to contrast with `BoundedDynamic` sites
/// (registry-slot dispatch), which are analyzable and stay silent.
pub fn call_site_findings(verdict: &ContractVerdict) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in &verdict.sites {
        match site.verdict {
            CallSiteVerdict::Recursive => findings.push(Finding {
                severity: Severity::Warning,
                code: "recursive-call",
                pc: Some(site.pc),
                message: format!(
                    "call at pc {} re-enters its own strongly-connected component; \
                     recursive chains are never summarized and refine speculatively",
                    site.pc
                ),
            }),
            CallSiteVerdict::DepthExceeded => findings.push(Finding {
                severity: Severity::Warning,
                code: "call-depth-bailout",
                pc: Some(site.pc),
                message: format!(
                    "call at pc {} heads a static chain nesting deeper than the \
                     interpreter's frame limit ({CALL_DEPTH_LIMIT}); the summary \
                     walk bails out and the site refines speculatively",
                    site.pc
                ),
            }),
            CallSiteVerdict::StaticWrites => findings.push(Finding {
                severity: Severity::Error,
                code: "staticcall-writes",
                pc: Some(site.pc),
                message: format!(
                    "STATICCALL at pc {} targets {}, which is not provably write-free: \
                     a reachable store reverts the read-only frame at runtime",
                    site.pc,
                    site.callee
                        .map_or_else(|| "an unknown callee".to_string(), |c| format!("{c:?}")),
                ),
            }),
            CallSiteVerdict::DynamicTarget => findings.push(Finding {
                severity: Severity::Warning,
                code: "dynamic-dispatch-unbounded",
                pc: Some(site.pc),
                message: format!(
                    "dispatch at pc {} has a statically-unbounded callee set (the target \
                     is neither a constant nor a registry-slot read); compare with \
                     registry-slot dispatch, which binds per candidate",
                    site.pc
                ),
            }),
            CallSiteVerdict::Summarizable | CallSiteVerdict::NoCode
                if site.kind == PlanCallKind::Delegate =>
            {
                findings.push(Finding {
                    severity: Severity::Note,
                    code: "delegatecall-into-selfdestruct-free",
                    pc: Some(site.pc),
                    message: format!(
                        "DELEGATECALL at pc {} borrows a body verified to contain no \
                         self-destructing instruction; the caller's code cannot be \
                         destroyed through this site",
                        site.pc
                    ),
                });
            }
            CallSiteVerdict::Summarizable
            | CallSiteVerdict::NoCode
            | CallSiteVerdict::BoundedDynamic => {}
        }
    }
    findings
}

/// Lints one deployed contract against its whole universe: the base
/// [`lint_contract`] pass runs registry-aware (so summarizable `CALL`
/// sites don't degrade to `opaque-block`), then the [`CallGraph`]'s
/// per-site bailout verdicts (`recursive-call`, `call-depth-bailout`)
/// are folded in.
pub fn lint_deployed(
    name: &str,
    address: Address,
    registry: &CodeRegistry,
    graph: &CallGraph,
) -> ContractLint {
    let code = registry
        .code(&address)
        .expect("lint_deployed: address has no code in the registry")
        .to_vec();
    let psag = PSag::build_with(&code, Some(registry));
    let mut lint = lint_from_psag(name, &psag);
    if let Some(verdict) = graph.verdicts.get(&address) {
        lint.findings.extend(call_site_findings(verdict));
    }
    lint.findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    lint
}

/// Warns on release points whose gas bound is unknown even after loop
/// summarization (see [`loop_gas_bounds`]) and on unresolved jumps (which
/// poison bounds downstream).
fn unbounded_gas_findings(
    cfg: &Cfg,
    plan: &ContractPlan,
    loops: &LoopInfo,
    findings: &mut Vec<Finding>,
) {
    if cfg.has_unknown_jumps {
        findings.push(Finding {
            severity: Severity::Warning,
            code: "unresolved-jumps",
            pc: None,
            message: "the CFG still has unresolved jump targets after value-set propagation; \
                      release-point and gas-bound coverage degrade conservatively"
                .to_string(),
        });
    }
    let bounds = loop_gas_bounds(cfg, loops);
    let release_pcs = cfg.release_points();
    for block in &cfg.blocks {
        if release_pcs.contains(&block.start_pc) && bounds[block.index].is_none() {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "unbounded-release-gas",
                pc: Some(block.start_pc),
                message: format!(
                    "release point at pc {} has no static gas bound even with loop \
                     summaries (an uncapped loop or unresolved jump is reachable); \
                     the bound is only known per transaction",
                    block.start_pc
                ),
            });
        }
    }
    for (index, block_plan) in plan.blocks.iter().enumerate() {
        if !block_plan.complete {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "opaque-block",
                pc: Some(cfg.blocks[index].start_pc),
                message: format!(
                    "block at pc {} is not symbolically walkable; paths through it \
                     refine via speculative execution",
                    cfg.blocks[index].start_pc
                ),
            });
        }
    }
}

/// Loop-summary findings: irreducible regions (never summarized), loops
/// without a static trip cap (no finite gas through them), and loop-variant
/// keys the summary could not express as a strided family.
fn loop_findings(cfg: &Cfg, plan: &ContractPlan, loops: &LoopInfo, findings: &mut Vec<Finding>) {
    let _ = cfg;
    for &pc in &loops.irreducible_head_pcs {
        findings.push(Finding {
            severity: Severity::Warning,
            code: "irreducible-loop",
            pc: Some(pc),
            message: format!(
                "irreducible (multiple-entry) loop region entered at pc {pc}; it is never \
                 summarized and always refines via speculative execution"
            ),
        });
    }
    for summary in &loops.loops {
        let capped = summary.trip.as_ref().is_some_and(|t| t.cap.is_some());
        if !capped {
            let detail = match &summary.trip {
                Some(t) => format!(
                    "trip count {} ({:?}-derived) has no static cap",
                    t.bound, t.source
                ),
                None => "no trip-count template was recognized".to_string(),
            };
            findings.push(Finding {
                severity: Severity::Warning,
                code: "unbounded-trip-count",
                pc: Some(summary.head_pc),
                message: format!(
                    "loop at pc {}: {detail}; gas bounds through this loop stay unknown",
                    summary.head_pc
                ),
            });
        }
        // Keys written in the body that vary with an induction variable but
        // have no affine stride widen the predicted key family.
        for family in summary.families.iter().filter(|f| f.stride.is_none()) {
            findings.push(Finding {
                severity: Severity::Note,
                code: "loop-variant-key-widened",
                pc: Some(summary.head_pc),
                message: format!(
                    "loop at pc {}: access at pc {} has a loop-variant key with no affine \
                     stride; the key family widens to the whole iteration space",
                    summary.head_pc, family.pc
                ),
            });
        }
        // Body accesses whose key the abstract interpreter lost entirely.
        for &b in &summary.body {
            for access in &plan.blocks[b].accesses {
                if !access.key.is_template() {
                    findings.push(Finding {
                        severity: Severity::Note,
                        code: "loop-variant-key-widened",
                        pc: Some(summary.head_pc),
                        message: format!(
                            "loop at pc {}: access at pc {} inside the body has an opaque \
                             key; the summary cannot name its key family",
                            summary.head_pc, access.pc
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::{assemble, contracts};

    #[test]
    fn clean_contract_has_no_errors() {
        let lint = lint_contract("counter", &contracts::counter());
        assert!(!lint.has_errors(), "{:#?}", lint.findings);
        assert!(lint.access_ops > 0);
        assert!(lint.template_resolved > 0);
        assert!(lint.release_points > 0);
        // The read-modify-write increment is flagged as an SADD candidate.
        assert!(lint
            .findings
            .iter()
            .any(|f| f.severity == Severity::Note && f.message.contains("SADD")));
    }

    #[test]
    fn missing_release_points_is_an_error() {
        // An abort at the very end of the only path → no release points
        // anywhere.
        let code = assemble("PUSH1 5 PUSH1 0 SSTORE PUSH1 0 PUSH1 0 REVERT").unwrap();
        let lint = lint_contract("always-abortable", &code);
        assert!(lint.has_errors());
        assert!(lint
            .findings
            .iter()
            .any(|f| f.severity == Severity::Error && f.message.contains("release")));
    }

    #[test]
    fn fully_opaque_keys_are_an_error() {
        // Key depends on GAS → not a template, and the only access.
        let code = assemble("GAS SLOAD POP STOP").unwrap();
        let lint = lint_contract("opaque", &code);
        assert_eq!(lint.access_ops, 1);
        assert_eq!(lint.template_resolved, 0);
        assert!(lint.has_errors());
    }

    #[test]
    fn uncapped_loop_reports_unbounded_trip_count_at_its_head() {
        // Count comes off storage with no dominating guard → no cap.
        let code = assemble(
            "PUSH1 0 SLOAD loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 \
             PUSH1 0 SWAP1 GT PUSH @loop JUMPI PUSH1 1 PUSH1 1 SSTORE STOP",
        )
        .unwrap();
        let lint = lint_contract("uncapped", &code);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "unbounded-trip-count")
            .expect("uncapped loop must be flagged");
        assert_eq!(finding.severity, Severity::Warning);
        assert_eq!(finding.pc, Some(3), "finding must anchor to the loop head");
    }

    #[test]
    fn capped_loop_is_not_flagged_unbounded() {
        let code = assemble(
            "PUSH1 3 loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 \
             PUSH1 0 SWAP1 GT PUSH @loop JUMPI PUSH1 1 PUSH1 1 SSTORE STOP",
        )
        .unwrap();
        let lint = lint_contract("capped", &code);
        assert!(
            !lint
                .findings
                .iter()
                .any(|f| f.code == "unbounded-trip-count"),
            "{:#?}",
            lint.findings
        );
        // The capped loop also rescues the release-point gas bound.
        assert!(
            !lint
                .findings
                .iter()
                .any(|f| f.code == "unbounded-release-gas"),
            "{:#?}",
            lint.findings
        );
    }

    #[test]
    fn irreducible_region_reports_its_entry_pc() {
        let code = assemble(
            "PUSH1 0 CALLDATALOAD PUSH @mid JUMPI \
             top: JUMPDEST PUSH1 1 PUSH @mid JUMPI STOP \
             mid: JUMPDEST PUSH1 1 PUSH @top JUMPI STOP",
        )
        .unwrap();
        let lint = lint_contract("irreducible", &code);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "irreducible-loop")
            .expect("irreducible region must be flagged");
        assert!(finding.pc.is_some());
    }

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
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS CALL POP \
             PUSH1 1 PUSH1 0 SSTORE STOP"
        ))
        .expect("valid assembly")
    }

    #[test]
    fn dynamic_call_target_is_flagged() {
        let code = assemble(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 \
             PUSH1 0 CALLDATALOAD GAS CALL POP PUSH1 1 PUSH1 0 SSTORE STOP",
        )
        .unwrap();
        let lint = lint_contract("dynamic", &code);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "unanalyzable-call-target")
            .expect("dynamic callee must be flagged");
        assert_eq!(finding.severity, Severity::Warning);
        assert!(finding.pc.is_some());
    }

    #[test]
    fn recursive_pair_is_flagged_in_deployed_lint() {
        let a = Address::from_u64(1);
        let b = Address::from_u64(2);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(a, caller_of(b))
            .deploy(b, caller_of(a))
            .build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("a", a, &registry, &graph);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "recursive-call")
            .expect("recursive site must be flagged");
        assert_eq!(finding.severity, Severity::Warning);
        assert!(finding.pc.is_some());
        // The plan-level scan stays quiet: the callee address is static.
        assert!(!lint
            .findings
            .iter()
            .any(|f| f.code == "unanalyzable-call-target"));
    }

    #[test]
    fn deep_chain_is_flagged_in_deployed_lint() {
        let addr = |i: usize| Address::from_u64(100 + i as u64);
        let mut builder = dmvcc_vm::CodeRegistry::builder().deploy(addr(0), contracts::counter());
        for i in 1..=CALL_DEPTH_LIMIT + 1 {
            builder = builder.deploy(addr(i), caller_of(addr(i - 1)));
        }
        let registry = builder.build();
        let graph = CallGraph::build(&registry);
        let top = addr(CALL_DEPTH_LIMIT + 1);
        let lint = lint_deployed("top", top, &registry, &graph);
        assert!(lint
            .findings
            .iter()
            .any(|f| f.code == "call-depth-bailout" && f.severity == Severity::Warning));
        // One level down still summarizes cleanly.
        let below = lint_deployed("below", addr(CALL_DEPTH_LIMIT), &registry, &graph);
        assert!(!below
            .findings
            .iter()
            .any(|f| f.code == "call-depth-bailout"));
    }

    #[test]
    fn deployed_call_universe_lints_clean() {
        // The router/flash/oracle scenarios summarize end to end: no call
        // bailouts and no opaque blocks at their CALL sites.
        let amm = Address::from_u64(1);
        let token_a = Address::from_u64(2);
        let token_b = Address::from_u64(3);
        let router2 = Address::from_u64(4);
        let flash = Address::from_u64(5);
        let c1 = Address::from_u64(6);
        let c2 = Address::from_u64(7);
        let oracle = Address::from_u64(8);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(amm, contracts::amm())
            .deploy(token_a, contracts::token())
            .deploy(token_b, contracts::token())
            .deploy(router2, contracts::dex_router2(amm, token_a, token_b))
            .deploy(flash, contracts::flash_mint(token_a))
            .deploy(c1, contracts::price_consumer())
            .deploy(c2, contracts::price_consumer())
            .deploy(oracle, contracts::oracle(&[c1, c2]))
            .build();
        let graph = CallGraph::build(&registry);
        for (name, address) in [
            ("router2", router2),
            ("flash_mint", flash),
            ("oracle", oracle),
        ] {
            let lint = lint_deployed(name, address, &registry, &graph);
            assert!(!lint.has_errors(), "{name}: {:#?}", lint.findings);
            for code in [
                "unanalyzable-call-target",
                "recursive-call",
                "call-depth-bailout",
            ] {
                assert!(
                    !lint.findings.iter().any(|f| f.code == code),
                    "{name} unexpectedly hit {code}: {:#?}",
                    lint.findings
                );
            }
        }
    }

    #[test]
    fn library_contracts_lint_clean() {
        let splitter = Address::from_u64(1);
        let floor = Address::from_u64(2);
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
            ("royalty_splitter", contracts::royalty_splitter()),
            ("nft_drop", contracts::nft_drop(splitter, floor)),
            ("floor_oracle", contracts::floor_oracle()),
        ] {
            let lint = lint_contract(name, &code);
            assert!(
                !lint.has_errors(),
                "{name} has lint errors: {:#?}",
                lint.findings
            );
        }
    }

    /// A contract that STATICCALLs `target` and stops.
    fn static_caller_of(target: Address) -> Vec<u8> {
        let hex: String = target
            .to_u256()
            .to_be_bytes()
            .iter()
            .skip(12)
            .map(|b| format!("{b:02x}"))
            .collect();
        assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS STATICCALL POP STOP"
        ))
        .expect("valid assembly")
    }

    #[test]
    fn staticcall_into_writer_is_a_lint_error() {
        let token = Address::from_u64(1);
        let viewer = Address::from_u64(2);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(token, contracts::token())
            .deploy(viewer, static_caller_of(token))
            .build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("viewer", viewer, &registry, &graph);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "staticcall-writes")
            .expect("writing STATICCALL target must be flagged");
        assert_eq!(finding.severity, Severity::Error);
        assert!(finding.pc.is_some());
        assert!(lint.has_errors());
        // A write-free target stays silent.
        let floor = Address::from_u64(3);
        let clean_viewer = Address::from_u64(4);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(floor, contracts::floor_oracle())
            .deploy(clean_viewer, static_caller_of(floor))
            .build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("clean_viewer", clean_viewer, &registry, &graph);
        assert!(
            !lint.findings.iter().any(|f| f.code == "staticcall-writes"),
            "{:#?}",
            lint.findings
        );
    }

    #[test]
    fn registry_slot_value_call_warns_but_stays_analyzable() {
        // The plan-level scan needs a registry-aware plan: without one no
        // call summarizes at all, so lint via the deployed entry point.
        let splitter = Address::from_u64(1);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(splitter, contracts::royalty_splitter())
            .build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("splitter", splitter, &registry, &graph);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "value-call-unbounded-recipient")
            .expect("registry-slot value recipient must be flagged");
        assert_eq!(finding.severity, Severity::Warning);
        // Bounded dispatch is *not* an unanalyzable target: the plan keeps
        // the site and the bind enumerates candidates per transaction.
        assert!(!lint
            .findings
            .iter()
            .any(|f| f.code == "unanalyzable-call-target"));
    }

    #[test]
    fn dynamic_dispatch_gets_graph_level_warning() {
        let a = Address::from_u64(1);
        let code = assemble(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 \
             PUSH1 0 CALLDATALOAD GAS CALL POP PUSH1 1 PUSH1 0 SSTORE STOP",
        )
        .unwrap();
        let registry = dmvcc_vm::CodeRegistry::builder().deploy(a, code).build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("dynamic", a, &registry, &graph);
        for code in ["dynamic-dispatch-unbounded", "unanalyzable-call-target"] {
            assert!(
                lint.findings
                    .iter()
                    .any(|f| f.code == code && f.severity == Severity::Warning),
                "expected {code}: {:#?}",
                lint.findings
            );
        }
    }

    #[test]
    fn delegatecall_site_notes_selfdestruct_freedom() {
        let splitter = Address::from_u64(1);
        let floor = Address::from_u64(2);
        let drop = Address::from_u64(3);
        let registry = dmvcc_vm::CodeRegistry::builder()
            .deploy(splitter, contracts::royalty_splitter())
            .deploy(floor, contracts::floor_oracle())
            .deploy(drop, contracts::nft_drop(splitter, floor))
            .build();
        let graph = CallGraph::build(&registry);
        let lint = lint_deployed("drop", drop, &registry, &graph);
        assert!(!lint.has_errors(), "{:#?}", lint.findings);
        let finding = lint
            .findings
            .iter()
            .find(|f| f.code == "delegatecall-into-selfdestruct-free")
            .expect("delegate site must carry the note");
        assert_eq!(finding.severity, Severity::Note);
    }
}

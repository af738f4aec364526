//! State access graph (SAG) analysis for the DMVCC reproduction.
//!
//! This crate plays the role of the paper's Slither-based analyzer (§V-A):
//! it builds control-flow graphs from bytecode ([`Cfg`]), prunes them into
//! *partial* state access graphs with placeholders for runtime-dependent
//! keys ([`PSag`]), and refines those per transaction into *complete* state
//! access graphs ([`CSag`]) using the transaction input and the latest
//! committed snapshot — including release points annotated with measured
//! gas bounds, which drive early-write visibility in the scheduler.
//!
//! # Examples
//!
//! ```
//! use dmvcc_analysis::PSag;
//! use dmvcc_vm::contracts;
//!
//! let sag = PSag::build(&contracts::token());
//! // The token's mapping accesses cannot be resolved statically …
//! assert!(sag.unresolved().count() > 0);
//! // … and the post-check transfer suffix yields release points.
//! assert!(!sag.release_pcs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint;
mod cfg;
mod commute;
mod csag;
mod gas;
mod interproc;
mod lint;
mod loops;
mod psag;
mod symbolic;

pub use absint::{
    analyze, analyze_with, BlockPlan, CallTarget, ContractPlan, KeyExpr, PlanAccess, PlanCall,
    PlanCallKind,
};
pub use cfg::{decode, BasicBlock, BlockExit, Cfg, Instruction};
pub use commute::{classify_increments, IncrementClass, IncrementReport};
pub use csag::{Analyzer, CSag, RefinementTier, ReleasePoint};
pub use gas::{cfg_to_dot, loop_gas_bounds, static_gas_bounds};
pub use interproc::CallSite;
pub use interproc::{CallGraph, CallSiteVerdict, ContractVerdict};
pub use lint::{call_site_findings, lint_contract, lint_deployed, ContractLint, Finding, Severity};
pub use loops::{
    analyze_loops, InductionVar, KeyFamily, LoopInfo, LoopSummary, Step, TripCount, TripSource,
};
pub use psag::{AccessKind, PSag, SagOp};
pub use symbolic::{apply_bin, BinOp, BindCtx, SymExpr, UnOp};

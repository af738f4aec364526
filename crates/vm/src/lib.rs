//! A miniature EVM: stack machine, gas metering, assembler and a contract
//! library — the execution substrate of the DMVCC reproduction.
//!
//! The paper integrates DMVCC into Geth's EVM; this crate plays that role.
//! Every state access flows through the pluggable [`Host`] trait, which is
//! where the four schedulers (serial, DAG, OCC, DMVCC) differ. The
//! instruction set is a faithful subset of the EVM (same byte encodings)
//! plus [`Opcode::Sadd`], the commutative storage increment that the
//! paper's commutativity analysis identifies (§IV-D).
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::{Address, U256};
//! use dmvcc_vm::{
//!     calldata, contracts, execute, BlockEnv, ExecParams, MapHost, TxEnv,
//! };
//!
//! // Deploy the counter contract and bump it twice.
//! let code = contracts::counter();
//! let mut host = MapHost::new();
//! let block = BlockEnv::default();
//! for caller in 1..=2 {
//!     let tx = TxEnv::call(
//!         Address::from_u64(caller),
//!         Address::from_u64(99),
//!         calldata(contracts::counter_fn::INCREMENT, &[]),
//!     );
//!     let outcome = execute(&ExecParams::new(&code, &tx, &block), &mut host);
//!     assert!(outcome.status.is_success());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assembler;
pub mod contracts;
mod env;
mod error;
mod host;
mod interpreter;
mod memo;
mod opcode;
mod registry;
mod tx;

pub use assembler::{assemble, disassemble, AsmError};
pub use env::{calldata, word_at, BlockEnv, TxEnv, DEFAULT_GAS_LIMIT, INTRINSIC_GAS};
pub use error::{ExecOutcome, ExecStatus, LogEntry, VmError};
pub use host::{Host, HostError, MapHost};
pub use interpreter::{
    execute, execute_traced, ExecParams, JumpTable, NoopTracer, Tracer, CALL_DEPTH_LIMIT,
    MEMORY_LIMIT, STACK_LIMIT,
};
pub use memo::{DigestCounts, KeccakMemo};
pub use opcode::Opcode;
pub use registry::{CodeRegistry, CodeRegistryBuilder, Deployed, SummaryCache};
pub use tx::{Transaction, TxKind};

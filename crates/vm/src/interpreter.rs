//! The bytecode interpreter.
//!
//! One [`execute`] call runs one transaction to a terminal state. All state
//! accesses go through the [`Host`], so the same interpreter serves the
//! serial executor, OCC, the DAG scheduler, DMVCC's concurrent executor
//! *and* the analysis crate's speculative pre-execution (which records the
//! access trace that becomes a C-SAG).

use dmvcc_primitives::U256;
use dmvcc_state::StateKey;

use crate::env::{word_at, BlockEnv, TxEnv, INTRINSIC_GAS};
use crate::error::{ExecOutcome, ExecStatus, VmError};
use crate::host::{Host, HostError};
use crate::opcode::Opcode;

/// Maximum stack depth, as in the EVM.
pub const STACK_LIMIT: usize = 1024;
/// Memory ceiling per execution (1 MiB) — generous for the contract
/// library while bounding runaway executions.
pub const MEMORY_LIMIT: usize = 1 << 20;

/// Observes the execution step by step.
///
/// The analysis crate uses a tracer to reconstruct per-statement state
/// accesses (the C-SAG); benches use one to build gas profiles. All methods
/// default to no-ops.
pub trait Tracer {
    /// Called before each instruction executes.
    fn on_op(&mut self, pc: usize, op: Opcode, gas_left: u64) {
        let _ = (pc, op, gas_left);
    }
    /// Called after a successful `SLOAD`.
    fn on_sload(&mut self, pc: usize, key: StateKey, value: U256) {
        let _ = (pc, key, value);
    }
    /// Called after a successful `SSTORE`.
    fn on_sstore(&mut self, pc: usize, key: StateKey, value: U256) {
        let _ = (pc, key, value);
    }
    /// Called after a successful `SADD` (commutative increment).
    fn on_sadd(&mut self, pc: usize, key: StateKey, delta: U256) {
        let _ = (pc, key, delta);
    }
    /// Called when a `CALL` enters a nested frame (`depth` ≥ 1).
    fn on_enter_call(&mut self, depth: usize, callee: dmvcc_primitives::Address) {
        let _ = (depth, callee);
    }
    /// Called when a nested frame returns.
    fn on_exit_call(&mut self, depth: usize) {
        let _ = depth;
    }
}

/// A tracer that records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// Maximum nested `CALL` depth.
pub const CALL_DEPTH_LIMIT: usize = 8;

/// Everything needed to run one transaction.
#[derive(Debug, Clone, Copy)]
pub struct ExecParams<'a> {
    /// The contract bytecode.
    pub code: &'a [u8],
    /// Transaction context.
    pub tx: &'a TxEnv,
    /// Block context.
    pub block: &'a BlockEnv,
    /// Program counters that are release points for this transaction
    /// (produced by SAG analysis), sorted ascending; landing on one triggers
    /// [`Host::on_release_point`]. `None` disables the callbacks.
    /// Release points apply to the top-level frame only.
    pub release_points: Option<&'a [usize]>,
    /// Code registry resolving `CALL` targets. Without one, every `CALL`
    /// to a contract address fails (pushes 0).
    pub registry: Option<&'a crate::registry::CodeRegistry>,
}

impl<'a> ExecParams<'a> {
    /// Creates parameters without release points or a registry.
    pub fn new(code: &'a [u8], tx: &'a TxEnv, block: &'a BlockEnv) -> Self {
        ExecParams {
            code,
            tx,
            block,
            release_points: None,
            registry: None,
        }
    }

    /// Attaches a code registry so `CALL` can resolve targets.
    pub fn with_registry(mut self, registry: &'a crate::registry::CodeRegistry) -> Self {
        self.registry = Some(registry);
        self
    }
}

/// The valid `JUMPDEST` positions of one code body, one bit per program
/// counter (immediates of `PUSH` instructions are not valid destinations).
///
/// A property of the bytes alone, so it is computed once per body: the
/// [`crate::CodeRegistry`] keeps one beside every deployment, and only a
/// frame whose code is not the registry's runs [`JumpTable::build`] itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTable {
    bits: Box<[u64]>,
}

impl JumpTable {
    /// Scans `code` for its valid jump destinations.
    pub fn build(code: &[u8]) -> Self {
        let mut bits = vec![0u64; code.len().div_ceil(64)].into_boxed_slice();
        let mut pc = 0;
        while pc < code.len() {
            match Opcode::from_byte(code[pc]) {
                Some(Opcode::JumpDest) => {
                    bits[pc / 64] |= 1 << (pc % 64);
                    pc += 1;
                }
                Some(op) => pc += 1 + op.immediate_len(),
                None => pc += 1,
            }
        }
        JumpTable { bits }
    }

    /// `true` if `pc` holds a `JUMPDEST` that is not a `PUSH` immediate.
    #[inline]
    pub fn contains(&self, pc: usize) -> bool {
        self.bits
            .get(pc / 64)
            .is_some_and(|word| word >> (pc % 64) & 1 != 0)
    }
}

struct Machine<'a> {
    stack: Vec<U256>,
    memory: Vec<u8>,
    gas_left: u64,
    logs: Vec<crate::error::LogEntry>,
    return_data: Vec<u8>,
    /// Frame-local code (the callee's inside a nested frame).
    code: &'a [u8],
    /// Frame-local environment (caller/contract/input swap per frame): the
    /// transaction's own for the top frame, the one the `CALL` built for a
    /// nested frame.
    tx: &'a TxEnv,
    depth: usize,
    /// Set inside a `STATICCALL` frame (and every frame nested below it):
    /// storage writes and value transfers revert deterministically.
    read_only: bool,
    params: &'a ExecParams<'a>,
}

enum Control {
    Continue(usize),
    Halt(ExecStatus, Vec<u8>),
}

impl<'a> Machine<'a> {
    fn pop(&mut self) -> Result<U256, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    fn push(&mut self, value: U256) -> Result<(), VmError> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(VmError::StackOverflow);
        }
        self.stack.push(value);
        Ok(())
    }

    fn charge(&mut self, gas: u64) -> Result<(), VmError> {
        if self.gas_left < gas {
            self.gas_left = 0;
            return Err(VmError::OutOfGas);
        }
        self.gas_left -= gas;
        Ok(())
    }

    /// Grows memory to cover `[offset, offset+len)`, charging 3 gas per new
    /// 32-byte word.
    fn touch_memory(&mut self, offset: usize, len: usize) -> Result<(), VmError> {
        if len == 0 {
            return Ok(());
        }
        let end = offset.checked_add(len).ok_or(VmError::MemoryLimit)?;
        if end > MEMORY_LIMIT {
            return Err(VmError::MemoryLimit);
        }
        if end > self.memory.len() {
            let new_len = end.div_ceil(32) * 32;
            let new_words = (new_len - self.memory.len()) / 32;
            self.charge(3 * new_words as u64)?;
            self.memory.resize(new_len, 0);
        }
        Ok(())
    }

    fn read_memory(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, VmError> {
        self.touch_memory(offset, len)?;
        Ok(self.memory[offset..offset + len].to_vec())
    }
}

fn to_offset(value: U256) -> Result<usize, VmError> {
    value.to_usize().ok_or(VmError::MemoryLimit)
}

/// Executes one transaction against `host`, reporting steps to `tracer`.
///
/// Deterministic aborts (revert, out-of-gas, code faults) are folded into
/// the returned [`ExecStatus`]; the caller decides whether the host's
/// buffered writes take effect. A [`HostError::Aborted`] surfaces as
/// [`ExecStatus::Interrupted`].
pub fn execute_traced(
    params: &ExecParams<'_>,
    host: &mut dyn Host,
    tracer: &mut dyn Tracer,
) -> ExecOutcome {
    let gas_limit = params.tx.gas_limit;
    if gas_limit < INTRINSIC_GAS {
        return ExecOutcome {
            status: ExecStatus::OutOfGas,
            gas_used: gas_limit,
            output: Vec::new(),
            logs: Vec::new(),
        };
    }
    // The registry's table, if the code is the registry's deployment at the
    // called address (what every engine passes); built here otherwise.
    let deployed = params
        .registry
        .and_then(|registry| registry.deployed(&params.tx.contract))
        .filter(|deployed| std::ptr::eq(deployed.code(), params.code));
    let built;
    let jumpdests = match deployed {
        Some(deployed) => deployed.jumpdests(),
        None => {
            built = JumpTable::build(params.code);
            &built
        }
    };
    let frame = run_frame(
        params.code,
        jumpdests,
        params.tx,
        params,
        Frame {
            depth: 0,
            gas_budget: gas_limit - INTRINSIC_GAS,
            read_only: false,
        },
        host,
        tracer,
    );
    let gas_used = match frame.status {
        // Out-of-gas and code faults consume the whole limit, as in the EVM.
        ExecStatus::OutOfGas | ExecStatus::Failed(_) => gas_limit,
        _ => gas_limit - frame.gas_left,
    };
    ExecOutcome {
        status: frame.status,
        gas_used,
        output: frame.output,
        logs: frame.logs,
    }
}

struct FrameOutput {
    status: ExecStatus,
    output: Vec<u8>,
    gas_left: u64,
    logs: Vec<crate::error::LogEntry>,
}

/// Where a call frame sits in the call stack and what it may spend and do.
struct Frame {
    depth: usize,
    gas_budget: u64,
    /// Inside a STATICCALL: any write reverts the frame.
    read_only: bool,
}

/// Runs one call frame to a terminal state. Nested frames share the host,
/// tracer and gas pool; release-point callbacks fire for the top frame
/// only (analysis pcs are per-contract).
fn run_frame(
    code: &[u8],
    jumpdests: &JumpTable,
    tx: &TxEnv,
    params: &ExecParams<'_>,
    frame: Frame,
    host: &mut dyn Host,
    tracer: &mut dyn Tracer,
) -> FrameOutput {
    let Frame {
        depth,
        gas_budget,
        read_only,
    } = frame;
    let mut machine = Machine {
        stack: Vec::with_capacity(64),
        memory: Vec::new(),
        gas_left: gas_budget,
        logs: Vec::new(),
        return_data: Vec::new(),
        code,
        tx,
        depth,
        read_only,
        params,
    };

    // Release callbacks fire for the top frame only. `points` is sorted and
    // `next_point` is the first of them at or after `pc`, so the check after
    // each instruction is one comparison; only a backward jump searches.
    let points = match depth {
        0 => params.release_points.unwrap_or(&[]),
        _ => &[],
    };
    debug_assert!(points.is_sorted(), "release points must be sorted");
    let mut next_point = 0usize;
    let mut pc = 0usize;
    let (status, output) = loop {
        if pc >= code.len() {
            break (ExecStatus::Success, Vec::new());
        }
        let byte = code[pc];
        let Some(op) = Opcode::from_byte(byte) else {
            break (ExecStatus::Failed(VmError::InvalidOpcode(byte)), Vec::new());
        };
        tracer.on_op(pc, op, machine.gas_left);
        match step(&mut machine, host, tracer, op, pc, jumpdests) {
            Ok(Control::Continue(next_pc)) => {
                if next_pc < pc {
                    next_point = points.partition_point(|&point| point < next_pc);
                }
                pc = next_pc;
                while points.get(next_point).is_some_and(|&point| point < pc) {
                    next_point += 1;
                }
                if points.get(next_point) == Some(&pc) {
                    host.on_release_point(pc, machine.gas_left);
                }
            }
            Ok(Control::Halt(status, output)) => break (status, output),
            Err(StepError::Vm(VmError::OutOfGas)) => break (ExecStatus::OutOfGas, Vec::new()),
            Err(StepError::Vm(err)) => break (ExecStatus::Failed(err), Vec::new()),
            Err(StepError::Host(HostError::Aborted)) => {
                break (ExecStatus::Interrupted, Vec::new())
            }
        }
    };
    FrameOutput {
        status,
        output,
        gas_left: machine.gas_left,
        logs: machine.logs,
    }
}

/// Executes one transaction without tracing.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::Address;
/// use dmvcc_vm::{assemble, execute, BlockEnv, ExecParams, MapHost, TxEnv};
///
/// let code = assemble("PUSH1 42 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN")?;
/// let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
/// let block = BlockEnv::default();
/// let mut host = MapHost::new();
/// let outcome = execute(&ExecParams::new(&code, &tx, &block), &mut host);
/// assert!(outcome.status.is_success());
/// assert_eq!(outcome.output_word().low_u64(), 42);
/// # Ok::<(), dmvcc_vm::AsmError>(())
/// ```
pub fn execute(params: &ExecParams<'_>, host: &mut dyn Host) -> ExecOutcome {
    execute_traced(params, host, &mut NoopTracer)
}

enum StepError {
    Vm(VmError),
    Host(HostError),
}

impl From<VmError> for StepError {
    fn from(e: VmError) -> Self {
        StepError::Vm(e)
    }
}

impl From<HostError> for StepError {
    fn from(e: HostError) -> Self {
        StepError::Host(e)
    }
}

fn step(
    m: &mut Machine<'_>,
    host: &mut dyn Host,
    tracer: &mut dyn Tracer,
    op: Opcode,
    pc: usize,
    jumpdests: &JumpTable,
) -> Result<Control, StepError> {
    use Opcode::*;
    m.charge(op.base_gas())?;
    let next = pc + 1 + op.immediate_len();
    match op {
        Stop => return Ok(Control::Halt(ExecStatus::Success, Vec::new())),
        Add => binary(m, |a, b| a.wrapping_add(b))?,
        Mul => binary(m, |a, b| a.wrapping_mul(b))?,
        Sub => binary(m, |a, b| a.wrapping_sub(b))?,
        Div => binary(m, |a, b| a / b)?,
        SDiv => binary(m, |a, b| a.sdiv(b))?,
        Mod => binary(m, |a, b| a % b)?,
        SMod => binary(m, |a, b| a.smod(b))?,
        SignExtend => binary(m, |a, b| b.sign_extend(a))?,
        AddMod => {
            let (a, b, n) = (m.pop()?, m.pop()?, m.pop()?);
            m.push(a.add_mod(b, n))?;
        }
        MulMod => {
            let (a, b, n) = (m.pop()?, m.pop()?, m.pop()?);
            m.push(a.mul_mod(b, n))?;
        }
        Exp => {
            let (a, b) = (m.pop()?, m.pop()?);
            // Dynamic cost: 50 per significant byte of the exponent.
            m.charge(50 * b.bits().div_ceil(8) as u64)?;
            m.push(a.wrapping_pow(b))?;
        }
        Lt => binary(m, |a, b| U256::from(a < b))?,
        Gt => binary(m, |a, b| U256::from(a > b))?,
        Slt => binary(m, |a, b| U256::from(a.slt(&b)))?,
        Sgt => binary(m, |a, b| U256::from(a.sgt(&b)))?,
        Eq => binary(m, |a, b| U256::from(a == b))?,
        IsZero => {
            let a = m.pop()?;
            m.push(U256::from(a.is_zero()))?;
        }
        And => binary(m, |a, b| a & b)?,
        Or => binary(m, |a, b| a | b)?,
        Xor => binary(m, |a, b| a ^ b)?,
        Not => {
            let a = m.pop()?;
            m.push(!a)?;
        }
        Shl => {
            let (shift, value) = (m.pop()?, m.pop()?);
            m.push(value << shift.to_u64().map_or(256, |s| s.min(256) as u32))?;
        }
        Shr => {
            let (shift, value) = (m.pop()?, m.pop()?);
            m.push(value >> shift.to_u64().map_or(256, |s| s.min(256) as u32))?;
        }
        Sar => {
            let (shift, value) = (m.pop()?, m.pop()?);
            m.push(value.sar(shift.to_u64().map_or(256, |s| s.min(256) as u32)))?;
        }
        Byte => binary(m, |i, x| x.byte_be(i))?,
        Sha3 => {
            let (offset, len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            m.charge(6 * (len.div_ceil(32)) as u64)?;
            m.touch_memory(offset, len)?;
            let digest = host.keccak(&m.memory[offset..offset + len]);
            m.push(digest)?;
        }
        Address => m.push(m.tx.contract.to_u256())?,
        Balance => {
            let addr = dmvcc_primitives::Address::from_u256(m.pop()?);
            let key = StateKey::balance(addr);
            let value = host.sload(key)?;
            tracer.on_sload(pc, key, value);
            m.push(value)?;
        }
        Origin => m.push(m.params.tx.caller.to_u256())?,
        Caller => m.push(m.tx.caller.to_u256())?,
        CallValue => m.push(m.tx.value)?,
        CallDataLoad => {
            let offset = m.pop()?;
            let value = match offset.to_usize() {
                Some(o) => word_at(&m.tx.input, o),
                None => U256::ZERO,
            };
            m.push(value)?;
        }
        CallDataSize => m.push(U256::from(m.tx.input.len()))?,
        CallDataCopy => {
            let (mem_offset, data_offset, len) =
                (to_offset(m.pop()?)?, m.pop()?, to_offset(m.pop()?)?);
            m.charge(3 * (len.div_ceil(32)) as u64)?;
            m.touch_memory(mem_offset, len)?;
            for i in 0..len {
                let source = data_offset.to_usize().and_then(|o| o.checked_add(i));
                m.memory[mem_offset + i] =
                    source.and_then(|o| m.tx.input.get(o).copied()).unwrap_or(0);
            }
        }
        CodeSize => m.push(U256::from(m.code.len()))?,
        CodeCopy => {
            let (mem_offset, code_offset, len) =
                (to_offset(m.pop()?)?, m.pop()?, to_offset(m.pop()?)?);
            m.charge(3 * (len.div_ceil(32)) as u64)?;
            m.touch_memory(mem_offset, len)?;
            for i in 0..len {
                let source = code_offset.to_usize().and_then(|o| o.checked_add(i));
                m.memory[mem_offset + i] = source.and_then(|o| m.code.get(o).copied()).unwrap_or(0);
            }
        }
        Timestamp => m.push(U256::from(m.params.block.timestamp))?,
        Number => m.push(U256::from(m.params.block.number))?,
        Pop => {
            m.pop()?;
        }
        MLoad => {
            let offset = to_offset(m.pop()?)?;
            let data = m.read_memory(offset, 32)?;
            m.push(U256::from_be_slice(&data))?;
        }
        MStore => {
            let (offset, value) = (to_offset(m.pop()?)?, m.pop()?);
            m.touch_memory(offset, 32)?;
            m.memory[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
        }
        MStore8 => {
            let (offset, value) = (to_offset(m.pop()?)?, m.pop()?);
            m.touch_memory(offset, 1)?;
            m.memory[offset] = value.low_u64() as u8;
        }
        MSize => m.push(U256::from(m.memory.len()))?,
        Sload => {
            let slot = m.pop()?;
            let key = StateKey::storage(m.tx.contract, slot);
            let value = host.sload(key)?;
            tracer.on_sload(pc, key, value);
            m.push(value)?;
        }
        Sstore => {
            let (slot, value) = (m.pop()?, m.pop()?);
            if m.read_only {
                // A write inside a static frame reverts deterministically.
                return Ok(Control::Halt(ExecStatus::Reverted, Vec::new()));
            }
            let key = StateKey::storage(m.tx.contract, slot);
            host.sstore(key, value)?;
            tracer.on_sstore(pc, key, value);
        }
        Sadd => {
            let (slot, delta) = (m.pop()?, m.pop()?);
            if m.read_only {
                return Ok(Control::Halt(ExecStatus::Reverted, Vec::new()));
            }
            let key = StateKey::storage(m.tx.contract, slot);
            host.sadd(key, delta)?;
            tracer.on_sadd(pc, key, delta);
        }
        Jump => {
            let dest = to_offset(m.pop()?).map_err(|_| VmError::InvalidJump(usize::MAX))?;
            if !jumpdests.contains(dest) {
                return Err(VmError::InvalidJump(dest).into());
            }
            return Ok(Control::Continue(dest));
        }
        JumpI => {
            let dest_word = m.pop()?;
            let cond = m.pop()?;
            if cond.as_bool() {
                let dest = to_offset(dest_word).map_err(|_| VmError::InvalidJump(usize::MAX))?;
                if !jumpdests.contains(dest) {
                    return Err(VmError::InvalidJump(dest).into());
                }
                return Ok(Control::Continue(dest));
            }
        }
        Pc => m.push(U256::from(pc))?,
        Gas => m.push(U256::from(m.gas_left))?,
        JumpDest => {}
        Push(n) => {
            let start = pc + 1;
            let end = (start + n as usize).min(m.code.len());
            let value = U256::from_be_slice(&m.code[start..end]);
            m.push(value)?;
        }
        Dup(n) => {
            let n = n as usize;
            if m.stack.len() < n {
                return Err(VmError::StackUnderflow.into());
            }
            let value = m.stack[m.stack.len() - n];
            m.push(value)?;
        }
        Swap(n) => {
            let n = n as usize;
            if m.stack.len() < n + 1 {
                return Err(VmError::StackUnderflow.into());
            }
            let top = m.stack.len() - 1;
            m.stack.swap(top, top - n);
        }
        ReturnDataSize => m.push(U256::from(m.return_data.len()))?,
        ReturnDataCopy => {
            let (mem_offset, data_offset, len) =
                (to_offset(m.pop()?)?, m.pop()?, to_offset(m.pop()?)?);
            m.charge(3 * (len.div_ceil(32)) as u64)?;
            m.touch_memory(mem_offset, len)?;
            for i in 0..len {
                let source = data_offset.to_usize().and_then(|o| o.checked_add(i));
                m.memory[mem_offset + i] = source
                    .and_then(|o| m.return_data.get(o).copied())
                    .unwrap_or(0);
            }
        }
        Call | DelegateCall | StaticCall => {
            let _gas_req = m.pop()?;
            let addr_word = m.pop()?;
            // Only plain CALL carries a value operand; DELEGATECALL
            // inherits the caller's, STATICCALL forbids one.
            let value = if op == Call { m.pop()? } else { U256::ZERO };
            let (args_offset, args_len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            let (ret_offset, ret_len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            let callee = dmvcc_primitives::Address::from_u256(addr_word);
            let args = m.read_memory(args_offset, args_len)?;
            m.touch_memory(ret_offset, ret_len)?;
            m.return_data.clear();

            if !value.is_zero() && m.read_only {
                // Value transfer is a balance write; static frames revert.
                return Ok(Control::Halt(ExecStatus::Reverted, Vec::new()));
            }
            if m.depth + 1 > CALL_DEPTH_LIMIT {
                // Over-deep calls fail (push 0), as in the EVM.
                m.push(U256::ZERO)?;
            } else if !value.is_zero() && {
                // Value plumbing: debit the sending contract's balance,
                // credit the recipient's. The credit never observes the
                // old balance, so it stays a commutative increment
                // (mergeable like SADD). Insufficient funds fail the call
                // (push 0) without touching the recipient.
                let sender_key = StateKey::balance(m.tx.contract);
                let balance = host.sload(sender_key)?;
                tracer.on_sload(pc, sender_key, balance);
                if balance < value {
                    true
                } else {
                    let debited = balance.wrapping_sub(value);
                    host.sstore(sender_key, debited)?;
                    tracer.on_sstore(pc, sender_key, debited);
                    let recipient_key = StateKey::balance(callee);
                    host.sadd(recipient_key, value)?;
                    tracer.on_sadd(pc, recipient_key, value);
                    false
                }
            } {
                m.push(U256::ZERO)?;
            } else {
                let deployed = m
                    .params
                    .registry
                    .and_then(|registry| registry.deployed(&callee));
                match deployed {
                    // Calls to code-less accounts trivially succeed, as in
                    // the EVM (plain transfers to EOAs land here).
                    None => m.push(U256::ONE)?,
                    Some(deployed) => {
                        // 63/64 rule: the caller always retains a sliver.
                        let budget = m.gas_left - m.gas_left / 64;
                        let callee_tx = match op {
                            // Delegate frames keep the caller's identity:
                            // same storage context, caller and value.
                            DelegateCall => TxEnv {
                                caller: m.tx.caller,
                                contract: m.tx.contract,
                                value: m.tx.value,
                                input: args,
                                gas_limit: budget,
                            },
                            // The transferred value is credited above at
                            // the balance level; the callee frame itself
                            // observes CALLVALUE = 0.
                            _ => TxEnv {
                                caller: m.tx.contract,
                                contract: callee,
                                value: U256::ZERO,
                                input: args,
                                gas_limit: budget,
                            },
                        };
                        tracer.on_enter_call(m.depth + 1, callee);
                        let frame = run_frame(
                            deployed.code(),
                            deployed.jumpdests(),
                            &callee_tx,
                            m.params,
                            Frame {
                                depth: m.depth + 1,
                                gas_budget: budget,
                                read_only: m.read_only || op == StaticCall,
                            },
                            host,
                            tracer,
                        );
                        tracer.on_exit_call(m.depth + 1);
                        let used = budget - frame.gas_left;
                        m.charge(used)?;
                        match frame.status {
                            ExecStatus::Success => {
                                let copy = frame.output.len().min(ret_len);
                                m.memory[ret_offset..ret_offset + copy]
                                    .copy_from_slice(&frame.output[..copy]);
                                m.return_data = frame.output;
                                m.logs.extend(frame.logs);
                                m.push(U256::ONE)?;
                            }
                            ExecStatus::Interrupted => {
                                return Err(StepError::Host(HostError::Aborted));
                            }
                            // A failing callee aborts the caller: this VM
                            // has no per-frame write journal, so partial
                            // rollback is not representable. The paper's
                            // deterministic-abort semantics apply to the
                            // whole transaction.
                            _ => {
                                return Ok(Control::Halt(ExecStatus::Reverted, frame.output));
                            }
                        }
                    }
                }
            }
        }
        Log(n) => {
            let (offset, len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            m.charge(8 * len as u64)?;
            let mut topics = Vec::with_capacity(n as usize);
            for _ in 0..n {
                topics.push(m.pop()?);
            }
            let data = m.read_memory(offset, len)?;
            m.logs.push(crate::error::LogEntry { topics, data });
        }
        Return => {
            let (offset, len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            let data = m.read_memory(offset, len)?;
            return Ok(Control::Halt(ExecStatus::Success, data));
        }
        Revert => {
            let (offset, len) = (to_offset(m.pop()?)?, to_offset(m.pop()?)?);
            let data = m.read_memory(offset, len)?;
            return Ok(Control::Halt(ExecStatus::Reverted, data));
        }
        Invalid => return Err(VmError::OutOfGas.into()),
    }
    Ok(Control::Continue(next))
}

fn binary(m: &mut Machine<'_>, f: impl FnOnce(U256, U256) -> U256) -> Result<(), VmError> {
    let a = m.pop()?;
    let b = m.pop()?;
    m.push(f(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;
    use crate::host::MapHost;
    use dmvcc_primitives::{keccak256, Address};
    use std::collections::HashSet;

    fn run(source: &str) -> ExecOutcome {
        run_with_host(source, &mut MapHost::new())
    }

    fn run_with_host(source: &str, host: &mut MapHost) -> ExecOutcome {
        let code = assemble(source).expect("assembly must be valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let block = BlockEnv::new(7, 1_700_000_000);
        execute(&ExecParams::new(&code, &tx, &block), host)
    }

    fn returned(source: &str) -> U256 {
        let outcome = run(&format!("{source} PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN"));
        assert!(
            outcome.status.is_success(),
            "expected success, got {:?}",
            outcome.status
        );
        outcome.output_word()
    }

    #[test]
    fn arithmetic_ops() {
        assert_eq!(returned("PUSH1 5 PUSH1 7 ADD"), U256::from(12u64));
        assert_eq!(returned("PUSH1 5 PUSH1 7 SUB"), U256::from(2u64));
        assert_eq!(returned("PUSH1 5 PUSH1 7 MUL"), U256::from(35u64));
        assert_eq!(returned("PUSH1 5 PUSH1 17 DIV"), U256::from(3u64));
        assert_eq!(returned("PUSH1 5 PUSH1 17 MOD"), U256::from(2u64));
        assert_eq!(returned("PUSH1 0 PUSH1 17 DIV"), U256::ZERO);
        assert_eq!(returned("PUSH1 10 PUSH1 2 EXP"), U256::from(1024u64));
        assert_eq!(
            returned("PUSH1 10 PUSH1 8 PUSH1 7 ADDMOD"),
            U256::from(5u64)
        );
        assert_eq!(
            returned("PUSH1 10 PUSH1 8 PUSH1 7 MULMOD"),
            U256::from(6u64)
        );
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(returned("PUSH1 7 PUSH1 5 LT"), U256::ONE);
        assert_eq!(returned("PUSH1 5 PUSH1 7 LT"), U256::ZERO);
        assert_eq!(returned("PUSH1 5 PUSH1 7 GT"), U256::ONE);
        assert_eq!(returned("PUSH1 7 PUSH1 7 EQ"), U256::ONE);
        assert_eq!(returned("PUSH1 0 ISZERO"), U256::ONE);
        assert_eq!(returned("PUSH1 3 ISZERO"), U256::ZERO);
        assert_eq!(returned("PUSH1 12 PUSH1 10 AND"), U256::from(8u64));
        assert_eq!(returned("PUSH1 12 PUSH1 10 OR"), U256::from(14u64));
        assert_eq!(returned("PUSH1 12 PUSH1 10 XOR"), U256::from(6u64));
    }

    #[test]
    fn shifts() {
        assert_eq!(returned("PUSH1 1 PUSH1 4 SHL"), U256::from(16u64));
        assert_eq!(returned("PUSH1 16 PUSH1 4 SHR"), U256::ONE);
    }

    #[test]
    fn stack_manipulation() {
        assert_eq!(returned("PUSH1 1 PUSH1 2 DUP2"), U256::ONE);
        assert_eq!(returned("PUSH1 1 PUSH1 2 SWAP1"), U256::ONE);
        assert_eq!(returned("PUSH1 9 PUSH1 1 POP"), U256::from(9u64));
    }

    #[test]
    fn environment_ops() {
        assert_eq!(returned("CALLER"), Address::from_u64(1).to_u256());
        assert_eq!(returned("ADDRESS"), Address::from_u64(2).to_u256());
        assert_eq!(returned("NUMBER"), U256::from(7u64));
        assert_eq!(returned("TIMESTAMP"), U256::from(1_700_000_000u64));
        assert_eq!(returned("CALLDATASIZE"), U256::ZERO);
    }

    #[test]
    fn memory_round_trip() {
        assert_eq!(
            returned("PUSH1 99 PUSH1 64 MSTORE PUSH1 64 MLOAD"),
            U256::from(99u64)
        );
    }

    #[test]
    fn storage_round_trip() {
        let mut host = MapHost::new();
        let outcome = run_with_host(
            "PUSH1 77 PUSH1 5 SSTORE PUSH1 5 SLOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
            &mut host,
        );
        assert_eq!(outcome.output_word(), U256::from(77u64));
        let key = StateKey::storage(Address::from_u64(2), U256::from(5u64));
        assert_eq!(host.get(&key), U256::from(77u64));
    }

    #[test]
    fn sadd_increments() {
        let mut host = MapHost::new();
        run_with_host("PUSH1 3 PUSH1 5 SADD PUSH1 4 PUSH1 5 SADD STOP", &mut host);
        let key = StateKey::storage(Address::from_u64(2), U256::from(5u64));
        assert_eq!(host.get(&key), U256::from(7u64));
    }

    #[test]
    fn sha3_of_memory() {
        // keccak of 32 zero bytes.
        let expected = keccak256(&[0u8; 32]).to_u256();
        assert_eq!(returned("PUSH1 32 PUSH1 0 SHA3"), expected);
    }

    #[test]
    fn sha3_asks_the_host_for_the_digest_of_memory() {
        /// Answers every digest with the preimage's length and last byte.
        #[derive(Default)]
        struct Recording(Vec<Vec<u8>>);
        impl Host for Recording {
            fn sload(&mut self, _: StateKey) -> Result<U256, HostError> {
                Ok(U256::ZERO)
            }
            fn sstore(&mut self, _: StateKey, _: U256) -> Result<(), HostError> {
                Ok(())
            }
            fn keccak(&mut self, data: &[u8]) -> U256 {
                self.0.push(data.to_vec());
                U256::from(data.len() as u64 * 1000 + *data.last().unwrap_or(&0) as u64)
            }
        }
        let code = assemble(
            "PUSH1 9 PUSH1 63 MSTORE8 PUSH1 32 PUSH1 32 SHA3 \
             PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
        )
        .expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let mut host = Recording::default();
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut host,
        );
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        assert_eq!(outcome.output_word(), U256::from(32_009u64));
        let mut preimage = vec![0u8; 32];
        preimage[31] = 9;
        assert_eq!(host.0, vec![preimage]);
    }

    #[test]
    fn jumps_and_branches() {
        // Jump over an INVALID.
        let out = returned("PUSH1 1 PUSH @skip JUMPI INVALID skip: JUMPDEST PUSH1 42");
        assert_eq!(out, U256::from(42u64));
        // Fall through when the condition is false.
        let out = run("PUSH1 0 PUSH @skip JUMPI PUSH1 1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN skip: JUMPDEST STOP");
        assert_eq!(out.output_word(), U256::ONE);
    }

    #[test]
    fn invalid_jump_fails() {
        let outcome = run("PUSH1 3 JUMP");
        assert!(matches!(
            outcome.status,
            ExecStatus::Failed(VmError::InvalidJump(3))
        ));
        assert_eq!(outcome.gas_used, crate::env::DEFAULT_GAS_LIMIT);
    }

    /// The reference the jump table is checked against: the set the
    /// interpreter used to rebuild for every frame.
    fn valid_jumpdests(code: &[u8]) -> HashSet<usize> {
        let mut dests = HashSet::new();
        let mut pc = 0;
        while pc < code.len() {
            match Opcode::from_byte(code[pc]) {
                Some(Opcode::JumpDest) => {
                    dests.insert(pc);
                    pc += 1;
                }
                Some(op) => pc += 1 + op.immediate_len(),
                None => pc += 1,
            }
        }
        dests
    }

    fn assert_table_matches_reference(code: &[u8]) {
        let table = JumpTable::build(code);
        let reference = valid_jumpdests(code);
        // A few pcs past the end too: out of range is never a destination.
        for pc in 0..code.len() + 70 {
            assert_eq!(table.contains(pc), reference.contains(&pc), "pc {pc}");
        }
    }

    #[test]
    fn jump_into_push_immediate_fails() {
        // Byte 2 is inside the PUSH2 immediate even though it is 0x5b.
        let code = vec![0x61, 0x5b, 0x5b, 0x56]; // PUSH2 0x5b5b JUMP -> dest 0x5b5b invalid
        assert_eq!(JumpTable::build(&code), JumpTable::build(&[0; 4]));
        assert_table_matches_reference(&code);
    }

    #[test]
    fn jump_table_matches_reference_on_every_library_contract() {
        use crate::contracts;
        let a = |i| Address::from_u64(i);
        let bodies = [
            contracts::token(),
            contracts::counter(),
            contracts::amm(),
            contracts::nft(),
            contracts::ballot(),
            contracts::fig1_example(),
            contracts::auction(),
            contracts::crowdsale(),
            contracts::batch_pay(),
            contracts::airdrop(),
            contracts::batch_transfer(),
            contracts::dex_router(a(1)),
            contracts::dex_router2(a(1), a(2), a(3)),
            contracts::flash_mint(a(1)),
            contracts::oracle(&[a(1), a(2)]),
            contracts::price_consumer(),
            contracts::royalty_splitter(),
            contracts::nft_drop(a(1), a(2)),
            contracts::floor_oracle(),
        ];
        for body in &bodies {
            assert!(!valid_jumpdests(body).is_empty());
            assert_table_matches_reference(body);
        }
    }

    #[test]
    fn jump_table_matches_reference_on_random_bytes() {
        // Half the bytes are JUMPDEST or a PUSH, so most 0x5b bytes sit
        // inside an immediate and pushes run off the end of the code.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let len = (next() % 200) as usize + usize::from(case % 7 == 0) * 64;
            let code: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => 0x5b,
                    1 => 0x60 + (next() % 32) as u8,
                    _ => next() as u8,
                })
                .collect();
            assert_table_matches_reference(&code);
        }
    }

    #[test]
    fn revert_returns_data_and_discards() {
        let outcome = run("PUSH1 1 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 REVERT");
        assert_eq!(outcome.status, ExecStatus::Reverted);
        assert_eq!(outcome.output_word(), U256::ONE);
        assert!(outcome.status.is_deterministic_abort());
    }

    #[test]
    fn stop_and_implicit_end() {
        assert!(run("STOP").status.is_success());
        assert!(run("PUSH1 1").status.is_success()); // runs off the end
    }

    #[test]
    fn out_of_gas() {
        let code = assemble("loop: JUMPDEST PUSH @loop JUMP").expect("valid");
        let tx =
            TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]).with_gas_limit(30_000);
        let block = BlockEnv::default();
        let outcome = execute(&ExecParams::new(&code, &tx, &block), &mut MapHost::new());
        assert_eq!(outcome.status, ExecStatus::OutOfGas);
        assert_eq!(outcome.gas_used, 30_000);
    }

    #[test]
    fn gas_limit_below_intrinsic() {
        let code = assemble("STOP").expect("valid");
        let tx =
            TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]).with_gas_limit(100);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        assert_eq!(outcome.status, ExecStatus::OutOfGas);
        assert_eq!(outcome.gas_used, 100);
    }

    #[test]
    fn stack_underflow_detected() {
        let outcome = run("ADD");
        assert!(matches!(
            outcome.status,
            ExecStatus::Failed(VmError::StackUnderflow)
        ));
    }

    #[test]
    fn invalid_opcode_detected() {
        let code = vec![0x0cu8]; // undefined gap byte
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        assert!(matches!(
            outcome.status,
            ExecStatus::Failed(VmError::InvalidOpcode(0x0c))
        ));
    }

    #[test]
    fn calldata_load() {
        let code =
            assemble("PUSH1 0 CALLDATALOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN").expect("valid");
        let tx = TxEnv::call(
            Address::from_u64(1),
            Address::from_u64(2),
            crate::env::calldata(9, &[]),
        );
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        assert_eq!(outcome.output_word(), U256::from(9u64));
    }

    #[test]
    fn balance_reads_balance_key() {
        let owner = Address::from_u64(5);
        let mut host = MapHost::from_entries([(StateKey::balance(owner), U256::from(123u64))]);
        let code = assemble(
            "PUSH20 @addr PUSH1 0 MSTORE PUSH1 0 MLOAD BALANCE PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
        );
        // Assembler has no address literals; construct manually instead.
        drop(code);
        let mut code = vec![0x73]; // PUSH20
        code.extend_from_slice(owner.as_bytes());
        code.extend(assemble("BALANCE PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN").expect("valid"));
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut host,
        );
        assert_eq!(outcome.output_word(), U256::from(123u64));
    }

    #[test]
    fn release_point_callbacks_fire() {
        let code = assemble("PUSH1 1 POP PUSH1 2 POP STOP").expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let block = BlockEnv::default();
        // The pc after the first POP is 3.
        let mut host = MapHost::new();
        let params = ExecParams {
            code: &code,
            tx: &tx,
            block: &block,
            release_points: Some(&[3]),
            registry: None,
        };
        execute(&params, &mut host);
        assert_eq!(host.release_points_hit, vec![3]);
    }

    #[test]
    fn release_point_callbacks_fire_on_every_landing() {
        // Three trips round a loop whose head (pc 2) and exit (the STOP) are
        // both release points, plus one that is never reached: a backward
        // jump has to find the head again, and a forward step past an
        // unvisited point must not fire it.
        let code =
            assemble("PUSH1 3 loop: JUMPDEST PUSH1 1 SWAP1 SUB DUP1 PUSH @loop JUMPI STOP INVALID")
                .expect("valid");
        let stop = code.len() - 2;
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let block = BlockEnv::default();
        let mut host = MapHost::new();
        let points = [1, 2, 2, stop, stop + 1];
        let params = ExecParams {
            code: &code,
            tx: &tx,
            block: &block,
            release_points: Some(&points),
            registry: None,
        };
        assert!(execute(&params, &mut host).status.is_success());
        assert_eq!(host.release_points_hit, vec![2, 2, 2, stop]);
    }

    #[test]
    fn interrupted_by_host() {
        struct AbortingHost;
        impl Host for AbortingHost {
            fn sload(&mut self, _: StateKey) -> Result<U256, HostError> {
                Err(HostError::Aborted)
            }
            fn sstore(&mut self, _: StateKey, _: U256) -> Result<(), HostError> {
                Ok(())
            }
        }
        let code = assemble("PUSH1 0 SLOAD STOP").expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut AbortingHost,
        );
        assert_eq!(outcome.status, ExecStatus::Interrupted);
        assert!(!outcome.status.is_deterministic_abort());
    }

    #[test]
    fn signed_arithmetic_ops() {
        // -6 / 2 == -3 (as two's complement).
        let minus_six = "PUSH1 6 PUSH1 0 SUB"; // 0 - 6
        let out = returned(&format!("PUSH1 2 {minus_six} SDIV"));
        assert_eq!(out, U256::from(3u64).wrapping_neg());
        // -7 % 3 == -1.
        let minus_seven = "PUSH1 7 PUSH1 0 SUB";
        let out = returned(&format!("PUSH1 3 {minus_seven} SMOD"));
        assert_eq!(out, U256::ONE.wrapping_neg());
        // -1 < 1 signed.
        assert_eq!(returned("PUSH1 1 PUSH1 1 PUSH1 0 SUB SLT"), U256::ONE);
        // 1 > -1 signed.
        assert_eq!(returned("PUSH1 1 PUSH1 0 SUB PUSH1 1 SGT"), U256::ONE);
        // SIGNEXTEND 0xff at byte 0 -> all ones.
        assert_eq!(returned("PUSH1 0xff PUSH1 0 SIGNEXTEND"), U256::MAX);
    }

    #[test]
    fn byte_and_sar_ops() {
        // BYTE 31 of 0x1234 is 0x34.
        assert_eq!(returned("PUSH2 0x1234 PUSH1 31 BYTE"), U256::from(0x34u64));
        // SAR on a negative value fills with ones: -16 >> 2 == -4.
        let out = returned("PUSH1 16 PUSH1 0 SUB PUSH1 2 SAR");
        assert_eq!(out, U256::from(4u64).wrapping_neg());
        // SAR on positive behaves like SHR.
        assert_eq!(returned("PUSH1 16 PUSH1 2 SAR"), U256::from(4u64));
    }

    #[test]
    fn mstore8_and_msize() {
        // Write one byte at offset 31, read the word back.
        assert_eq!(
            returned("PUSH1 0xab PUSH1 31 MSTORE8 PUSH1 0 MLOAD"),
            U256::from(0xabu64)
        );
        // MSIZE reflects the touched extent (word-aligned).
        assert_eq!(
            returned("PUSH1 1 PUSH1 40 MSTORE8 MSIZE"),
            U256::from(64u64)
        );
        assert_eq!(returned("MSIZE"), U256::ZERO);
    }

    #[test]
    fn origin_equals_caller() {
        assert_eq!(returned("ORIGIN"), Address::from_u64(1).to_u256());
    }

    #[test]
    fn calldatacopy_and_codecopy() {
        let code = assemble(
            "PUSH1 32 PUSH1 0 PUSH1 0 CALLDATACOPY PUSH1 0 MLOAD \
             PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
        )
        .expect("valid");
        let tx = TxEnv::call(
            Address::from_u64(1),
            Address::from_u64(2),
            crate::env::calldata(0x55aa, &[]),
        );
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        assert_eq!(outcome.output_word(), U256::from(0x55aau64));

        // CODECOPY: copy the first 2 code bytes (PUSH1 2) into memory.
        let out = returned("PUSH1 2 PUSH1 0 PUSH1 0 CODECOPY PUSH1 0 MLOAD");
        // First two bytes of this program are PUSH1 (0x60) 0x02, left-
        // aligned in the 32-byte word.
        assert_eq!(out >> (30 * 8), U256::from(0x6002u64));
    }

    #[test]
    fn calldatacopy_zero_pads_past_end() {
        let code = assemble(
            "PUSH1 32 PUSH1 0 PUSH1 0 CALLDATACOPY PUSH1 0 MLOAD \
             PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN",
        )
        .expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![0xff]);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        // One 0xff byte, 31 zero bytes.
        assert_eq!(outcome.output_word(), U256::from(0xffu64) << 248);
    }

    #[test]
    fn log_instructions_record_events() {
        let code = assemble(
            "PUSH1 42 PUSH1 0 MSTORE \
             PUSH1 7 PUSH1 9 PUSH1 32 PUSH1 0 LOG2 \
             PUSH1 32 PUSH1 0 LOG0 STOP",
        )
        .expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let outcome = execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
        );
        assert!(outcome.status.is_success());
        assert_eq!(outcome.logs.len(), 2);
        assert_eq!(
            outcome.logs[0].topics,
            vec![U256::from(9u64), U256::from(7u64)]
        );
        assert_eq!(outcome.logs[0].data.len(), 32);
        assert_eq!(outcome.logs[0].data[31], 42);
        assert!(outcome.logs[1].topics.is_empty());
    }

    #[test]
    fn call_depth_limit_enforced() {
        use crate::registry::CodeRegistry;
        // A contract that CALLs itself unconditionally: recursion must be
        // cut off at CALL_DEPTH_LIMIT with the failing call pushing 0,
        // after which the frame stops.
        let self_addr = Address::from_u64(3_000);
        let source = "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 \
                      PUSH20 0xADDR GAS CALL STOP";
        let hex = dmvcc_primitives::encode_hex(self_addr.as_bytes());
        let code = assemble(&source.replace("ADDR", &hex)).expect("valid");
        let registry = CodeRegistry::builder()
            .deploy(self_addr, code.clone())
            .build();
        let tx = TxEnv::call(Address::from_u64(1), self_addr, vec![]).with_gas_limit(5_000_000);
        let block = BlockEnv::default();
        let params = ExecParams::new(&code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut MapHost::new());
        // Terminates successfully: the deepest CALL pushes 0 and STOPs.
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
    }

    #[test]
    fn call_gas_is_charged_to_caller() {
        use crate::registry::CodeRegistry;
        // Callee burns gas in a loop of pushes; caller pays for it.
        let callee_addr = Address::from_u64(3_001);
        let callee = assemble(&"PUSH1 1 POP ".repeat(100)).expect("valid");
        let registry = CodeRegistry::builder().deploy(callee_addr, callee).build();
        let hex = dmvcc_primitives::encode_hex(callee_addr.as_bytes());
        let caller = assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS CALL STOP"
        ))
        .expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(3_002), vec![]);
        let block = BlockEnv::default();
        let with_call = execute(
            &ExecParams::new(&caller, &tx, &block).with_registry(&registry),
            &mut MapHost::new(),
        );
        let without_registry = execute(&ExecParams::new(&caller, &tx, &block), &mut MapHost::new());
        assert!(with_call.status.is_success());
        assert!(without_registry.status.is_success());
        // The callee's ~600 gas of pushes shows up in the caller's bill.
        assert!(with_call.gas_used > without_registry.gas_used + 500);
    }

    fn call_args(kind: &str, callee: Address) -> String {
        let hex = dmvcc_primitives::encode_hex(callee.as_bytes());
        match kind {
            // ret_len ret_offset args_len args_offset [value] addr gas
            "CALL" => format!("PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS CALL"),
            "DELEGATECALL" => {
                format!("PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS DELEGATECALL")
            }
            "STATICCALL" => {
                format!("PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS STATICCALL")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn delegatecall_writes_caller_storage() {
        use crate::registry::CodeRegistry;
        // Library writes slot 7; the proxy delegatecalls it, so the write
        // must land in the proxy's storage, with the proxy's CALLER.
        let library = Address::from_u64(3_010);
        let proxy = Address::from_u64(3_011);
        let lib_code = assemble("PUSH1 55 PUSH1 7 SSTORE CALLER PUSH1 8 SSTORE STOP").unwrap();
        let proxy_code = assemble(&format!("{} STOP", call_args("DELEGATECALL", library))).unwrap();
        let registry = CodeRegistry::builder()
            .deploy(library, lib_code)
            .deploy(proxy, proxy_code.clone())
            .build();
        let sender = Address::from_u64(1);
        let tx = TxEnv::call(sender, proxy, vec![]);
        let block = BlockEnv::default();
        let mut host = MapHost::new();
        let params = ExecParams::new(&proxy_code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut host);
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        // Write landed in the *proxy's* namespace, not the library's.
        assert_eq!(
            host.get(&StateKey::storage(proxy, U256::from(7u64))),
            U256::from(55u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(library, U256::from(7u64))),
            U256::ZERO
        );
        // CALLER inside the delegate frame is the original sender.
        assert_eq!(
            host.get(&StateKey::storage(proxy, U256::from(8u64))),
            sender.to_u256()
        );
    }

    #[test]
    fn staticcall_write_reverts() {
        use crate::registry::CodeRegistry;
        let target = Address::from_u64(3_020);
        let caller_addr = Address::from_u64(3_021);
        let target_code = assemble("PUSH1 1 PUSH1 0 SSTORE STOP").unwrap();
        let caller_code = assemble(&format!("{} STOP", call_args("STATICCALL", target))).unwrap();
        let registry = CodeRegistry::builder()
            .deploy(target, target_code)
            .deploy(caller_addr, caller_code.clone())
            .build();
        let tx = TxEnv::call(Address::from_u64(1), caller_addr, vec![]);
        let block = BlockEnv::default();
        let mut host = MapHost::new();
        let params = ExecParams::new(&caller_code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut host);
        // The static frame reverts, which aborts the caller (this VM has
        // no per-frame rollback).
        assert_eq!(outcome.status, ExecStatus::Reverted);
    }

    #[test]
    fn staticcall_read_succeeds() {
        use crate::registry::CodeRegistry;
        let target = Address::from_u64(3_022);
        let caller_addr = Address::from_u64(3_023);
        // Pure read + return; no writes.
        let target_code = assemble("PUSH1 3 SLOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN").unwrap();
        let hex = dmvcc_primitives::encode_hex(target.as_bytes());
        // ret_len=32 ret_offset=0 args_len=0 args_offset=0 addr gas
        let caller_code = assemble(&format!(
            "PUSH1 32 PUSH1 0 PUSH1 0 PUSH1 0 PUSH20 0x{hex} GAS STATICCALL \
             PUSH1 0 MLOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN"
        ))
        .unwrap();
        let registry = CodeRegistry::builder()
            .deploy(target, target_code)
            .deploy(caller_addr, caller_code.clone())
            .build();
        let tx = TxEnv::call(Address::from_u64(1), caller_addr, vec![]);
        let block = BlockEnv::default();
        let mut host = MapHost::from_entries([(
            StateKey::storage(target, U256::from(3u64)),
            U256::from(77u64),
        )]);
        let params = ExecParams::new(&caller_code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut host);
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        assert_eq!(outcome.output_word(), U256::from(77u64));
    }

    #[test]
    fn value_call_moves_balance() {
        let sender_contract = Address::from_u64(3_030);
        let recipient = Address::from_u64(3_031);
        let hex = dmvcc_primitives::encode_hex(recipient.as_bytes());
        // Transfer 40 to a code-less account; push result to storage slot 0.
        let code = assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 40 PUSH20 0x{hex} GAS CALL \
             PUSH1 0 SSTORE STOP"
        ))
        .unwrap();
        let tx = TxEnv::call(Address::from_u64(1), sender_contract, vec![]);
        let block = BlockEnv::default();
        let mut host =
            MapHost::from_entries([(StateKey::balance(sender_contract), U256::from(100u64))]);
        let outcome = execute(&ExecParams::new(&code, &tx, &block), &mut host);
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        assert_eq!(
            host.get(&StateKey::balance(sender_contract)),
            U256::from(60u64)
        );
        assert_eq!(host.get(&StateKey::balance(recipient)), U256::from(40u64));
        // The CALL pushed 1 (success).
        assert_eq!(
            host.get(&StateKey::storage(sender_contract, U256::ZERO)),
            U256::ONE
        );
    }

    #[test]
    fn value_call_insufficient_balance_fails_without_transfer() {
        let sender_contract = Address::from_u64(3_032);
        let recipient = Address::from_u64(3_033);
        let hex = dmvcc_primitives::encode_hex(recipient.as_bytes());
        let code = assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 40 PUSH20 0x{hex} GAS CALL \
             PUSH1 0 SSTORE STOP"
        ))
        .unwrap();
        let tx = TxEnv::call(Address::from_u64(1), sender_contract, vec![]);
        let block = BlockEnv::default();
        let mut host =
            MapHost::from_entries([(StateKey::balance(sender_contract), U256::from(10u64))]);
        let outcome = execute(&ExecParams::new(&code, &tx, &block), &mut host);
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        // No transfer happened and the CALL pushed 0.
        assert_eq!(
            host.get(&StateKey::balance(sender_contract)),
            U256::from(10u64)
        );
        assert_eq!(host.get(&StateKey::balance(recipient)), U256::ZERO);
        assert_eq!(
            host.get(&StateKey::storage(sender_contract, U256::ZERO)),
            U256::ZERO
        );
    }

    #[test]
    fn value_call_enters_callee_after_transfer() {
        use crate::registry::CodeRegistry;
        // Callee records that it ran; caller attaches value 5.
        let sender_contract = Address::from_u64(3_034);
        let callee = Address::from_u64(3_035);
        let callee_code = assemble("PUSH1 9 PUSH1 1 SSTORE STOP").unwrap();
        let hex = dmvcc_primitives::encode_hex(callee.as_bytes());
        let caller_code = assemble(&format!(
            "PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 0 PUSH1 5 PUSH20 0x{hex} GAS CALL STOP"
        ))
        .unwrap();
        let registry = CodeRegistry::builder()
            .deploy(callee, callee_code)
            .deploy(sender_contract, caller_code.clone())
            .build();
        let tx = TxEnv::call(Address::from_u64(1), sender_contract, vec![]);
        let block = BlockEnv::default();
        let mut host =
            MapHost::from_entries([(StateKey::balance(sender_contract), U256::from(8u64))]);
        let params = ExecParams::new(&caller_code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut host);
        assert!(outcome.status.is_success(), "{:?}", outcome.status);
        assert_eq!(host.get(&StateKey::balance(callee)), U256::from(5u64));
        assert_eq!(
            host.get(&StateKey::storage(callee, U256::ONE)),
            U256::from(9u64)
        );
    }

    #[test]
    fn static_frame_blocks_nested_writes() {
        use crate::registry::CodeRegistry;
        // outer -STATICCALL-> mid -CALL-> inner (which writes): the
        // read-only flag must propagate through the plain CALL.
        let inner = Address::from_u64(3_040);
        let mid = Address::from_u64(3_041);
        let outer_addr = Address::from_u64(3_042);
        let inner_code = assemble("PUSH1 1 PUSH1 0 SSTORE STOP").unwrap();
        let mid_code = assemble(&format!("{} STOP", call_args("CALL", inner))).unwrap();
        let outer_code = assemble(&format!("{} STOP", call_args("STATICCALL", mid))).unwrap();
        let registry = CodeRegistry::builder()
            .deploy(inner, inner_code)
            .deploy(mid, mid_code)
            .deploy(outer_addr, outer_code.clone())
            .build();
        let tx = TxEnv::call(Address::from_u64(1), outer_addr, vec![]);
        let block = BlockEnv::default();
        let params = ExecParams::new(&outer_code, &tx, &block).with_registry(&registry);
        let outcome = execute(&params, &mut MapHost::new());
        assert_eq!(outcome.status, ExecStatus::Reverted);
    }

    #[test]
    fn gas_decreases_monotonically() {
        struct GasTracer(Vec<u64>);
        impl Tracer for GasTracer {
            fn on_op(&mut self, _pc: usize, _op: Opcode, gas_left: u64) {
                self.0.push(gas_left);
            }
        }
        let code = assemble("PUSH1 1 PUSH1 2 ADD POP STOP").expect("valid");
        let tx = TxEnv::call(Address::from_u64(1), Address::from_u64(2), vec![]);
        let mut tracer = GasTracer(Vec::new());
        execute_traced(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut MapHost::new(),
            &mut tracer,
        );
        assert!(tracer.0.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(tracer.0.len(), 5);
    }
}

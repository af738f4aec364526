//! Symbolic expressions over transaction inputs.
//!
//! The abstract interpretation pass ([`crate::absint`]) executes contract
//! code over this domain: a value is either a constant, a named piece of
//! the transaction environment (calldata word, caller, value, block
//! fields), the result of an earlier storage read (`Load`), a Keccak-256
//! mapping-key computation over such values, or arithmetic over them.
//! Anything the domain cannot express collapses to [`SymExpr::Unknown`].
//!
//! A closed expression (one without `Unknown`) is a *template*: C-SAG
//! refinement binds it against a concrete transaction by substituting
//! calldata and the few snapshot values the `Load` nodes name, which is
//! what makes the symbolic tier cheap relative to speculative
//! pre-execution.

use core::fmt;

use dmvcc_primitives::{keccak256, Address, U256};
use dmvcc_vm::{word_at, BlockEnv, KeccakMemo, TxEnv};

/// Unary operators of the symbolic domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `a == 0`.
    IsZero,
    /// Bitwise not.
    Not,
}

/// Binary operators of the symbolic domain. Operands are kept in *pop
/// order* — `(a, b)` is exactly what the interpreter's `binary` helper
/// sees — so evaluation can mirror the interpreter verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b` (wrapping).
    Add,
    /// `a * b` (wrapping).
    Mul,
    /// `a - b` (wrapping).
    Sub,
    /// `a / b` (`0` on division by zero).
    Div,
    /// Signed division.
    SDiv,
    /// `a % b`.
    Mod,
    /// Signed modulo.
    SMod,
    /// `b` sign-extended from byte position `a`.
    SignExtend,
    /// `a ** b` (wrapping).
    Exp,
    /// `a < b`.
    Lt,
    /// `a > b`.
    Gt,
    /// Signed `a < b`.
    Slt,
    /// Signed `a > b`.
    Sgt,
    /// `a == b`.
    Eq,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Byte `a` of `b`, most-significant first.
    Byte,
    /// `b << a` (shift in `a`, value in `b` — pop order).
    Shl,
    /// `b >> a`.
    Shr,
    /// Arithmetic right shift of `b` by `a`.
    Sar,
}

/// A symbolic value: the abstract domain of the analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymExpr {
    /// Not representable in the domain (⊤) — e.g. `GAS`, `MSIZE`, loop-
    /// variant memory, or a join of two different expressions.
    Unknown,
    /// A compile-time constant.
    Const(U256),
    /// `word_at(tx.input, offset)` — a calldata argument.
    CallDataWord(usize),
    /// The calldata length in bytes.
    CallDataSize,
    /// The current frame's sender (`CALLER`). At the top frame this is
    /// the transaction sender; in a composed callee frame the caller
    /// contract's address is substituted at the call site.
    Caller,
    /// The top-level transaction sender (`ORIGIN`), invariant across
    /// nested call frames.
    Origin,
    /// The executing contract's address.
    SelfAddr,
    /// The transaction's attached value.
    CallValue,
    /// The block number.
    BlockNumber,
    /// The block timestamp.
    BlockTimestamp,
    /// The value produced by the plan's read access with this id,
    /// bound during the C-SAG walk (a `snapshot_deps` template hole).
    Load(usize),
    /// A loop-carried value (a φ at a loop head): the analysis cannot
    /// name it in closed form, but the C-SAG walk can — on every back
    /// edge the walk re-binds the variable from the plan's per-edge
    /// assignment (see [`crate::absint::ContractPlan::phi_edges`]),
    /// which is what "unrolling the loop at bind time" means.
    LoopVar(usize),
    /// Keccak-256 over a word-tiled memory image — the mapping-key shape
    /// `keccak(key ++ slot)` solidity emits.
    Keccak(Vec<SymExpr>),
    /// A unary operation.
    Unary(UnOp, Box<SymExpr>),
    /// A binary operation over operands in pop order.
    Binary(BinOp, Box<SymExpr>, Box<SymExpr>),
}

/// Everything needed to evaluate a template against one transaction.
pub struct BindCtx<'a> {
    /// The frame environment being bound (synthetic for callee frames).
    pub tx: &'a TxEnv,
    /// The top-level transaction sender (`ORIGIN` across every frame).
    pub origin: Address,
    /// The block environment.
    pub block: &'a BlockEnv,
    /// Values produced by read accesses earlier in the walk, by load id.
    pub loads: &'a [Option<U256>],
    /// Current values of the loop-carried φ variables, by variable id
    /// (re-bound by the walk on every loop-head edge).
    pub loop_vars: &'a [Option<U256>],
    /// The refining worker's digests, consulted by every
    /// [`SymExpr::Keccak`]; `None` hashes every time.
    pub memo: Option<&'a mut KeccakMemo>,
}

/// `keccak256(data)` as a word, from `memo` when there is one.
pub(crate) fn digest(memo: Option<&mut KeccakMemo>, data: &[u8]) -> U256 {
    match memo {
        Some(memo) => memo.keccak(data),
        None => keccak256(data).to_u256(),
    }
}

/// Applies `op` to operands in pop order, mirroring the interpreter.
pub fn apply_bin(op: BinOp, a: U256, b: U256) -> U256 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Div => a / b,
        BinOp::SDiv => a.sdiv(b),
        BinOp::Mod => a % b,
        BinOp::SMod => a.smod(b),
        BinOp::SignExtend => b.sign_extend(a),
        BinOp::Exp => a.wrapping_pow(b),
        BinOp::Lt => U256::from(a < b),
        BinOp::Gt => U256::from(a > b),
        BinOp::Slt => U256::from(a.slt(&b)),
        BinOp::Sgt => U256::from(a.sgt(&b)),
        BinOp::Eq => U256::from(a == b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Byte => b.byte_be(a),
        BinOp::Shl => b << a.to_u64().map_or(256, |s| s.min(256) as u32),
        BinOp::Shr => b >> a.to_u64().map_or(256, |s| s.min(256) as u32),
        BinOp::Sar => b.sar(a.to_u64().map_or(256, |s| s.min(256) as u32)),
    }
}

fn apply_un(op: UnOp, a: U256) -> U256 {
    match op {
        UnOp::IsZero => U256::from(a.is_zero()),
        UnOp::Not => !a,
    }
}

impl SymExpr {
    /// Builds a binary node, constant-folding when both operands are
    /// constants and absorbing `Unknown` (every operator is strict).
    pub fn binary(op: BinOp, a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Unknown, _) | (_, SymExpr::Unknown) => SymExpr::Unknown,
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(apply_bin(op, *x, *y)),
            _ => SymExpr::Binary(op, Box::new(a), Box::new(b)),
        }
    }

    /// Builds a unary node with the same folding rules.
    pub fn unary(op: UnOp, a: SymExpr) -> SymExpr {
        match &a {
            SymExpr::Unknown => SymExpr::Unknown,
            SymExpr::Const(x) => SymExpr::Const(apply_un(op, *x)),
            _ => SymExpr::Unary(op, Box::new(a)),
        }
    }

    /// The constant value, if this expression is a literal constant.
    ///
    /// Keccak nodes are deliberately *not* folded at analysis time even
    /// when fully constant, so that statically-resolved slots keep their
    /// historical meaning (a slot named by the code, not a derived hash);
    /// they still evaluate fine at bind time.
    pub fn as_const(&self) -> Option<U256> {
        match self {
            SymExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// `true` if the expression contains no [`SymExpr::Unknown`] — i.e. it
    /// is a closed template that will evaluate under any binding whose
    /// loads are available.
    pub fn is_template(&self) -> bool {
        match self {
            SymExpr::Unknown => false,
            SymExpr::Keccak(words) => words.iter().all(SymExpr::is_template),
            SymExpr::Unary(_, a) => a.is_template(),
            SymExpr::Binary(_, a, b) => a.is_template() && b.is_template(),
            _ => true,
        }
    }

    /// Appends the load ids referenced by this expression to `out`.
    pub fn collect_loads(&self, out: &mut Vec<usize>) {
        match self {
            SymExpr::Load(id) => out.push(*id),
            SymExpr::Keccak(words) => words.iter().for_each(|w| w.collect_loads(out)),
            SymExpr::Unary(_, a) => a.collect_loads(out),
            SymExpr::Binary(_, a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            _ => {}
        }
    }

    /// Calls `f` on this node and every sub-expression, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&SymExpr)) {
        f(self);
        match self {
            SymExpr::Keccak(words) => words.iter().for_each(|w| w.visit(f)),
            SymExpr::Unary(_, a) => a.visit(f),
            SymExpr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            _ => {}
        }
    }

    /// Evaluates the template against one transaction. `None` when the
    /// expression contains `Unknown` or references a load that has not
    /// been bound yet.
    pub fn eval(&self, ctx: &mut BindCtx<'_>) -> Option<U256> {
        match self {
            SymExpr::Unknown => None,
            SymExpr::Const(v) => Some(*v),
            SymExpr::CallDataWord(offset) => Some(word_at(&ctx.tx.input, *offset)),
            SymExpr::CallDataSize => Some(U256::from(ctx.tx.input.len())),
            SymExpr::Caller => Some(ctx.tx.caller.to_u256()),
            SymExpr::Origin => Some(ctx.origin.to_u256()),
            SymExpr::SelfAddr => Some(ctx.tx.contract.to_u256()),
            SymExpr::CallValue => Some(ctx.tx.value),
            SymExpr::BlockNumber => Some(U256::from(ctx.block.number)),
            SymExpr::BlockTimestamp => Some(U256::from(ctx.block.timestamp)),
            SymExpr::Load(id) => *ctx.loads.get(*id)?,
            SymExpr::LoopVar(id) => *ctx.loop_vars.get(*id)?,
            SymExpr::Keccak(words) => {
                let mut stack = [0u8; KeccakMemo::MAX_PREIMAGE];
                let mut heap = Vec::new();
                let bytes = match stack.get_mut(..words.len() * 32) {
                    Some(bytes) => bytes,
                    None => {
                        heap.resize(words.len() * 32, 0);
                        &mut heap[..]
                    }
                };
                for (word, out) in words.iter().zip(bytes.chunks_exact_mut(32)) {
                    out.copy_from_slice(&word.eval(ctx)?.to_be_bytes());
                }
                Some(digest(ctx.memo.as_deref_mut(), bytes))
            }
            SymExpr::Unary(op, a) => Some(apply_un(*op, a.eval(ctx)?)),
            SymExpr::Binary(op, a, b) => Some(apply_bin(*op, a.eval(ctx)?, b.eval(ctx)?)),
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Unknown => write!(f, "?"),
            SymExpr::Const(v) => {
                if let Some(small) = v.to_u64() {
                    write!(f, "{small}")
                } else {
                    write!(f, "0x{:x}", v)
                }
            }
            SymExpr::CallDataWord(offset) => write!(f, "calldata[{offset}]"),
            SymExpr::CallDataSize => write!(f, "calldatasize"),
            SymExpr::Caller => write!(f, "caller"),
            SymExpr::Origin => write!(f, "origin"),
            SymExpr::SelfAddr => write!(f, "address(this)"),
            SymExpr::CallValue => write!(f, "callvalue"),
            SymExpr::BlockNumber => write!(f, "block.number"),
            SymExpr::BlockTimestamp => write!(f, "block.timestamp"),
            SymExpr::Load(id) => write!(f, "load#{id}"),
            SymExpr::LoopVar(id) => write!(f, "i#{id}"),
            SymExpr::Keccak(words) => {
                write!(f, "keccak(")?;
                for (i, word) in words.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ++ ")?;
                    }
                    write!(f, "{word}")?;
                }
                write!(f, ")")
            }
            SymExpr::Unary(op, a) => match op {
                UnOp::IsZero => write!(f, "iszero({a})"),
                UnOp::Not => write!(f, "~{a}"),
            },
            SymExpr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Mul => "*",
                    BinOp::Sub => "-",
                    BinOp::Div => "/",
                    BinOp::SDiv => "/s",
                    BinOp::Mod => "%",
                    BinOp::SMod => "%s",
                    BinOp::SignExtend => "sext",
                    BinOp::Exp => "**",
                    BinOp::Lt => "<",
                    BinOp::Gt => ">",
                    BinOp::Slt => "<s",
                    BinOp::Sgt => ">s",
                    BinOp::Eq => "==",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Byte => "byte",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Sar => ">>s",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    fn ctx<'a>(tx: &'a TxEnv, block: &'a BlockEnv, loads: &'a [Option<U256>]) -> BindCtx<'a> {
        BindCtx {
            tx,
            origin: tx.caller,
            block,
            loads,
            loop_vars: &[],
            memo: None,
        }
    }

    #[test]
    fn constant_folding_on_construction() {
        let four = SymExpr::binary(
            BinOp::Add,
            SymExpr::Const(U256::from(2u64)),
            SymExpr::Const(U256::from(2u64)),
        );
        assert_eq!(four, SymExpr::Const(U256::from(4u64)));
        assert_eq!(
            SymExpr::binary(BinOp::Add, SymExpr::Unknown, SymExpr::Caller),
            SymExpr::Unknown
        );
    }

    #[test]
    fn sub_uses_pop_order_like_the_interpreter() {
        // Interpreter pops a then b and computes a - b.
        let e = SymExpr::binary(
            BinOp::Sub,
            SymExpr::Const(U256::from(10u64)),
            SymExpr::Const(U256::from(3u64)),
        );
        assert_eq!(e, SymExpr::Const(U256::from(7u64)));
    }

    #[test]
    fn keccak_matches_map_slot() {
        // keccak(key ++ base) as emitted by asm_map_slot.
        let key = U256::from(0xabcdu64);
        let base = U256::from(1u64);
        let expr = SymExpr::Keccak(vec![SymExpr::CallDataWord(32), SymExpr::Const(base)]);
        let mut input = vec![0u8; 64];
        input[32..64].copy_from_slice(&key.to_be_bytes());
        let tx = TxEnv {
            caller: Address::from_u64(1),
            contract: Address::from_u64(2),
            value: U256::ZERO,
            input,
            gas_limit: 1_000_000,
        };
        let block = BlockEnv::default();
        let bound = expr
            .eval(&mut ctx(&tx, &block, &[]))
            .expect("template binds");

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&key.to_be_bytes());
        bytes.extend_from_slice(&base.to_be_bytes());
        assert_eq!(bound, keccak256(&bytes).to_u256());
    }

    #[test]
    fn unbound_load_fails_evaluation() {
        let e = SymExpr::Load(0);
        let tx = TxEnv {
            caller: Address::from_u64(1),
            contract: Address::from_u64(2),
            value: U256::ZERO,
            input: Vec::new(),
            gas_limit: 1_000_000,
        };
        let block = BlockEnv::default();
        assert_eq!(e.eval(&mut ctx(&tx, &block, &[None])), None);
        assert_eq!(
            e.eval(&mut ctx(&tx, &block, &[Some(U256::from(9u64))])),
            Some(U256::from(9u64))
        );
        assert!(e.is_template());
        assert!(!SymExpr::Unknown.is_template());
    }

    #[test]
    fn display_is_compact() {
        let e = SymExpr::Keccak(vec![SymExpr::Caller, SymExpr::Const(U256::ONE)]);
        assert_eq!(e.to_string(), "keccak(caller ++ 1)");
    }
}

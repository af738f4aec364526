//! Transaction representation shared by all schedulers.

use dmvcc_primitives::rlp::{close_list, put_bytes, put_uint, put_uint_be};
use dmvcc_primitives::{keccak256, Address, H256, U256};

use crate::env::TxEnv;

/// Transaction category, mirroring the paper's dataset split (§V-B): 69 %
/// of mainnet transactions are contract calls, the rest move Ether only and
/// "it is trivial to infer read/write sets from their inputs".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// Pure Ether movement; no EVM execution. Reads/writes exactly the two
    /// balance pseudo-slots.
    Transfer,
    /// A contract call executed by the EVM.
    Call,
}

/// One transaction of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Category.
    pub kind: TxKind,
    /// Execution environment (caller, callee, value, calldata, gas limit).
    pub env: TxEnv,
}

impl Transaction {
    /// Creates a contract call.
    pub fn call(env: TxEnv) -> Self {
        Transaction {
            kind: TxKind::Call,
            env,
        }
    }

    /// Creates a pure Ether transfer of `value` from `from` to `to`.
    pub fn transfer(from: Address, to: Address, value: U256) -> Self {
        Transaction {
            kind: TxKind::Transfer,
            env: TxEnv::call(from, to, Vec::new()).with_value(value),
        }
    }

    /// The sending account.
    pub fn sender(&self) -> Address {
        self.env.caller
    }

    /// The receiving account (contract for calls).
    pub fn to(&self) -> Address {
        self.env.contract
    }

    /// Appends the canonical RLP encoding,
    /// `[kind, caller, to, value, gas_limit, input]`, to `out`.
    pub fn rlp_append(&self, out: &mut Vec<u8>) {
        let start = out.len();
        put_uint(
            out,
            match self.kind {
                TxKind::Transfer => 0,
                TxKind::Call => 1,
            },
        );
        put_bytes(out, self.env.caller.as_bytes());
        put_bytes(out, self.env.contract.as_bytes());
        put_uint_be(out, &self.env.value.to_be_bytes());
        put_uint(out, self.env.gas_limit);
        put_bytes(out, &self.env.input);
        close_list(out, start);
    }

    /// Canonical RLP encoding:
    /// `[kind, caller, to, value, gas_limit, input]`.
    pub fn rlp_encode(&self) -> Vec<u8> {
        // The fixed fields take at most 93 bytes, each header at most 9.
        let mut out = Vec::with_capacity(self.env.input.len() + 111);
        self.rlp_append(&mut out);
        out
    }

    /// The transaction hash: `keccak256(rlp(tx))`.
    pub fn hash(&self) -> H256 {
        keccak256(&self.rlp_encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let t = Transaction::transfer(Address::from_u64(1), Address::from_u64(2), U256::ONE);
        assert_eq!(t.kind, TxKind::Transfer);
        assert_eq!(t.sender(), Address::from_u64(1));
        assert_eq!(t.to(), Address::from_u64(2));
        assert_eq!(t.env.value, U256::ONE);

        let c = Transaction::call(TxEnv::call(
            Address::from_u64(3),
            Address::from_u64(4),
            vec![1, 2, 3],
        ));
        assert_eq!(c.kind, TxKind::Call);
        assert_eq!(c.env.input, vec![1, 2, 3]);
    }

    #[test]
    fn hashes_are_injective_over_fields() {
        let base = Transaction::transfer(Address::from_u64(1), Address::from_u64(2), U256::ONE);
        let mut variants = vec![base.clone()];
        variants.push(Transaction::transfer(
            Address::from_u64(3),
            Address::from_u64(2),
            U256::ONE,
        ));
        variants.push(Transaction::transfer(
            Address::from_u64(1),
            Address::from_u64(3),
            U256::ONE,
        ));
        variants.push(Transaction::transfer(
            Address::from_u64(1),
            Address::from_u64(2),
            U256::from(2u64),
        ));
        variants.push(Transaction::call(TxEnv::call(
            Address::from_u64(1),
            Address::from_u64(2),
            vec![],
        )));
        let hashes: std::collections::HashSet<_> = variants.iter().map(|t| t.hash()).collect();
        assert_eq!(hashes.len(), variants.len());
        // Deterministic.
        assert_eq!(base.hash(), base.hash());
    }

    #[test]
    fn rlp_encoding_is_decodable() {
        use dmvcc_primitives::rlp::Rlp;
        let tx = Transaction::transfer(Address::from_u64(1), Address::from_u64(2), U256::ONE);
        let decoded = Rlp::decode(&tx.rlp_encode()).expect("valid RLP");
        let items = decoded.as_list().expect("a list");
        assert_eq!(items.len(), 6);
        assert_eq!(items[1].as_bytes().unwrap().len(), 20);
    }

    #[test]
    fn rlp_append_matches_the_per_item_encoder() {
        use dmvcc_primitives::rlp::{encode_bytes, encode_list, encode_uint};
        // The encoding as it was built before the append-style encoder: one
        // `Vec` per field, then a list of them.
        let oracle = |tx: &Transaction| {
            encode_list(&[
                encode_uint(match tx.kind {
                    TxKind::Transfer => 0,
                    TxKind::Call => 1,
                }),
                encode_bytes(tx.env.caller.as_bytes()),
                encode_bytes(tx.env.contract.as_bytes()),
                encode_bytes(&tx.env.value.to_be_bytes_trimmed()),
                encode_uint(tx.env.gas_limit),
                encode_bytes(&tx.env.input),
            ])
        };
        let (from, to) = (Address::from_u64(1), Address::from_u64(u64::MAX));
        let values = [
            U256::ZERO,
            U256::from(0x7fu64),
            U256::from(0x80u64),
            U256::MAX,
        ];
        let mut out = vec![0xee]; // reused, and not empty: offsets must hold
        for value in values {
            let transfer = Transaction::transfer(from, to, value);
            let calls = [0usize, 1, 55, 56, 300].map(|len| {
                Transaction::call(TxEnv::call(from, to, vec![0x5a; len]).with_value(value))
            });
            for tx in std::iter::once(&transfer).chain(&calls) {
                out.truncate(1);
                tx.rlp_append(&mut out);
                assert_eq!(out[1..], oracle(tx)[..]);
                assert_eq!(tx.rlp_encode(), oracle(tx));
                assert_eq!(tx.hash(), keccak256(&oracle(tx)));
            }
        }
    }
}

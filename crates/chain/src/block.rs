//! Blocks, headers and receipts.
//!
//! Mirrors Ethereum's commitments: a header binds the parent hash, the
//! state root after execution, the transactions root (the MPT root of the
//! RLP-encoded index → transaction-hash mapping) and a receipts root, so a
//! chain of headers is tamper-evident end to end — which is what makes the
//! RQ1 root comparison meaningful at chain scale.
//!
//! [`seal_block`] is the one place an executed block becomes a header and
//! receipts, and [`verify_chain`] is its inverse: what a header claims,
//! checked against the body it was sealed over.
//!
//! The two per-block roots are computed, not built: [`transactions_root`]
//! and [`receipts_root`] hand their values to [`dmvcc_state::index_root`],
//! which derives the root such a trie would have from flat buffers, on
//! every hashing thread the host has — each worker encodes and hashes the
//! transactions of the subtrees it takes — so sealing a block allocates a
//! handful of buffers per thread and nothing per transaction.

use dmvcc_primitives::rlp::{close_list, put_bytes, put_uint};
use dmvcc_primitives::{keccak256, H256};
use dmvcc_state::{index_root, index_root_hashed};
use dmvcc_vm::{BlockEnv, ExecStatus, Transaction};

/// Execution receipt of one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// `true` when the transaction succeeded (reverted transactions are
    /// still included in the block, as on Ethereum).
    pub success: bool,
    /// Gas the transaction consumed.
    pub gas_used: u64,
    /// Cumulative gas of the block up to and including this transaction.
    pub cumulative_gas: u64,
}

impl Receipt {
    /// Appends the canonical RLP encoding,
    /// `[success, gas_used, cumulative_gas]`, to `out`.
    pub fn rlp_append(&self, out: &mut Vec<u8>) {
        let start = out.len();
        put_uint(out, self.success as u64);
        put_uint(out, self.gas_used);
        put_uint(out, self.cumulative_gas);
        close_list(out, start);
    }

    /// Canonical RLP encoding: `[success, gas_used, cumulative_gas]`.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        self.rlp_append(&mut out);
        out
    }
}

/// Builds receipts from per-transaction outcomes.
pub fn build_receipts(statuses: &[(ExecStatus, u64)]) -> Vec<Receipt> {
    let mut cumulative = 0;
    statuses
        .iter()
        .map(|(status, gas_used)| {
            cumulative += gas_used;
            Receipt {
                success: status.is_success(),
                gas_used: *gas_used,
                cumulative_gas: cumulative,
            }
        })
        .collect()
}

/// A block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height (genesis = 0).
    pub number: u64,
    /// Hash of the parent header.
    pub parent_hash: H256,
    /// State root after executing this block.
    pub state_root: H256,
    /// MPT root over `rlp(index) → tx hash`.
    pub transactions_root: H256,
    /// MPT root over `rlp(index) → rlp(receipt)`.
    pub receipts_root: H256,
    /// Block timestamp.
    pub timestamp: u64,
    /// Total gas consumed by the block.
    pub gas_used: u64,
}

impl BlockHeader {
    /// The genesis header for a given initial state root.
    pub fn genesis(state_root: H256) -> BlockHeader {
        BlockHeader {
            number: 0,
            parent_hash: H256::ZERO,
            state_root,
            transactions_root: transactions_root(&[]),
            receipts_root: receipts_root(&[]),
            timestamp: 0,
            gas_used: 0,
        }
    }

    /// Canonical RLP encoding of the header.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(168);
        put_uint(&mut out, self.number);
        put_bytes(&mut out, self.parent_hash.as_bytes());
        put_bytes(&mut out, self.state_root.as_bytes());
        put_bytes(&mut out, self.transactions_root.as_bytes());
        put_bytes(&mut out, self.receipts_root.as_bytes());
        put_uint(&mut out, self.timestamp);
        put_uint(&mut out, self.gas_used);
        close_list(&mut out, 0);
        out
    }

    /// The block hash: `keccak256(rlp(header))`.
    pub fn hash(&self) -> H256 {
        keccak256(&self.rlp_encode())
    }
}

/// One sealed block: header plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The sealed header (binds parent hash, state/tx/receipt roots).
    pub header: BlockHeader,
    /// Packed transactions.
    pub txs: Vec<Transaction>,
    /// Execution receipts, one per transaction.
    pub receipts: Vec<Receipt>,
}

/// The environment block `height` executes under: 12-second slots from a
/// fixed epoch. [`seal_block`] stamps the header from the same value, so
/// every driver takes its [`BlockEnv`] from here.
pub fn block_env(height: u64) -> BlockEnv {
    BlockEnv::new(height, 1_700_000_000 + height * 12)
}

/// Seals an executed block on top of `parent`: receipts from what each
/// transaction's execution reported (`results`: status and gas charged, in
/// block order), the header over them, the body and `state_root` — the
/// root after committing the block's writes. The only constructor of a
/// non-genesis [`BlockHeader`].
pub fn seal_block(
    parent: &BlockHeader,
    env: &BlockEnv,
    txs: Vec<Transaction>,
    results: impl IntoIterator<Item = (ExecStatus, u64)>,
    state_root: H256,
) -> Block {
    let results: Vec<(ExecStatus, u64)> = results.into_iter().collect();
    let receipts = build_receipts(&results);
    let header = BlockHeader {
        number: env.number,
        parent_hash: parent.hash(),
        state_root,
        transactions_root: transactions_root(&txs),
        receipts_root: receipts_root(&receipts),
        timestamp: env.timestamp,
        gas_used: receipts.last().map_or(0, |r| r.cumulative_gas),
    };
    Block {
        header,
        txs,
        receipts,
    }
}

/// The transactions root: the root of an MPT keyed by `rlp(index)` holding
/// each transaction's hash (Ethereum's layout, with the hash standing in
/// for the full body); the bodies are hashed four at a time by the workers
/// that take their subtrees.
pub fn transactions_root(txs: &[Transaction]) -> H256 {
    index_root_hashed(txs.len(), |index, out| txs[index].rlp_append(out))
}

/// The receipts root: the root of an MPT keyed by `rlp(index)` holding RLP
/// receipts.
pub fn receipts_root(receipts: &[Receipt]) -> H256 {
    index_root(receipts.len(), |index, out| receipts[index].rlp_append(out))
}

/// Verifies `chain` on top of `genesis`: the hash chain and block numbers,
/// each header's transactions and receipts roots against its body, one
/// receipt per transaction, and the header's gas against the receipts'
/// cumulative gas. Returns the index of the first invalid block, or `None`
/// when the chain verifies.
pub fn verify_chain(genesis: &BlockHeader, chain: &[Block]) -> Option<usize> {
    let mut parent = genesis.hash();
    for (i, block) in chain.iter().enumerate() {
        let Block {
            header,
            txs,
            receipts,
        } = block;
        if header.parent_hash != parent
            || header.number != genesis.number + 1 + i as u64
            || receipts.len() != txs.len()
            || header.gas_used != receipts.last().map_or(0, |r| r.cumulative_gas)
            || transactions_root(txs) != header.transactions_root
            || receipts_root(receipts) != header.receipts_root
        {
            return Some(i);
        }
        parent = header.hash();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::{Address, U256};

    fn tx(i: u64) -> Transaction {
        Transaction::transfer(Address::from_u64(i), Address::from_u64(i + 1), U256::ONE)
    }

    #[test]
    fn receipts_accumulate_gas() {
        let receipts = build_receipts(&[
            (ExecStatus::Success, 100),
            (ExecStatus::Reverted, 50),
            (ExecStatus::Success, 25),
        ]);
        assert_eq!(receipts[0].cumulative_gas, 100);
        assert_eq!(receipts[1].cumulative_gas, 150);
        assert!(!receipts[1].success);
        assert_eq!(receipts[2].cumulative_gas, 175);
    }

    #[test]
    fn roots_depend_on_contents() {
        let a = transactions_root(&[tx(1), tx(2)]);
        let b = transactions_root(&[tx(2), tx(1)]);
        let c = transactions_root(&[tx(1)]);
        assert_ne!(a, b); // order matters (index-keyed)
        assert_ne!(a, c);
        assert_eq!(a, transactions_root(&[tx(1), tx(2)]));
    }

    #[test]
    fn header_hash_chains() {
        let genesis = BlockHeader::genesis(H256::ZERO);
        let results = [
            (ExecStatus::Success, 21_000),
            (ExecStatus::Reverted, 30_000),
        ];
        let block = seal_block(
            &genesis,
            &block_env(1),
            vec![tx(1), tx(2)],
            results,
            H256::ZERO,
        );
        assert_eq!(block.header.gas_used, 51_000);
        assert_eq!(block.header.timestamp, block_env(1).timestamp);
        assert_eq!(verify_chain(&genesis, std::slice::from_ref(&block)), None);
        let tampered = |tamper: fn(&mut Block)| {
            let mut bad = block.clone();
            tamper(&mut bad);
            verify_chain(&genesis, &[bad])
        };
        // Tamper with a transaction: detected at index 0.
        assert_eq!(tampered(|b| b.txs[0] = tx(9)), Some(0));
        // Tamper with the parent hash: detected.
        assert_eq!(tampered(|b| b.header.parent_hash = H256::ZERO), Some(0));
        // A header that claims gas its receipts do not add up to.
        assert_eq!(tampered(|b| b.header.gas_used -= 1), Some(0));
        // A truncated receipt list, its root recomputed to match.
        assert_eq!(
            tampered(|b| {
                b.receipts.pop();
                b.header.receipts_root = receipts_root(&b.receipts);
                b.header.gas_used = 21_000;
            }),
            Some(0)
        );
    }

    #[test]
    fn empty_roots_are_mpt_empty() {
        assert_eq!(transactions_root(&[]), dmvcc_state::empty_root());
        assert_eq!(receipts_root(&[]), dmvcc_state::empty_root());
    }

    #[test]
    fn header_hash_covers_all_fields() {
        let base = BlockHeader::genesis(H256::ZERO);
        let mut variant = base.clone();
        variant.timestamp = 1;
        assert_ne!(base.hash(), variant.hash());
        let mut variant = base.clone();
        variant.gas_used = 1;
        assert_ne!(base.hash(), variant.hash());
        let mut variant = base.clone();
        variant.state_root = keccak256(b"x");
        assert_ne!(base.hash(), variant.hash());
    }

    /// A fixed 300-item block: transfers and calls with 0–89-byte calldata,
    /// gas figures that cross the one-, two- and three-byte integer forms.
    fn fixed_block() -> (Vec<Transaction>, Vec<Receipt>) {
        use dmvcc_vm::TxEnv;
        let txs = (0..300u64)
            .map(|i| {
                if i % 3 == 0 {
                    Transaction::transfer(
                        Address::from_u64(i),
                        Address::from_u64(i + 1),
                        U256::from(i * 1_000_003),
                    )
                } else {
                    Transaction::call(TxEnv::call(
                        Address::from_u64(i),
                        Address::from_u64(1000 + i % 7),
                        vec![i as u8; (i % 90) as usize],
                    ))
                }
            })
            .collect();
        let statuses: Vec<(ExecStatus, u64)> = (0..300u64)
            .map(|i| {
                let status = if i % 11 == 0 {
                    ExecStatus::Reverted
                } else {
                    ExecStatus::Success
                };
                (status, 21_000 + i * 997)
            })
            .collect();
        (txs, build_receipts(&statuses))
    }

    #[test]
    fn roots_match_the_trie_built_roots_pinned_before_index_root() {
        // Known answers from the commit at which both roots were still the
        // `root()` of an `Mpt` filled by `insert(rlp(i), value_i)`.
        let (txs, receipts) = fixed_block();
        let pinned = [
            (
                transactions_root(&txs),
                "0x30c71d5f72ef41acd78b990490bd4a2da2f4bafdd03540d9e453d17dee17e2dc",
            ),
            (
                receipts_root(&receipts),
                "0xa7429c3c797cd77e975a3b8944afd00b9d1950ac39102bf48c239614d333e5dc",
            ),
            (
                transactions_root(&txs[..1]),
                "0xaf92c76860cbd9749959191da15c3aec7a50171494ee450aede71a2f8240e5aa",
            ),
            (
                receipts_root(&receipts[..1]),
                "0x850eb40bb587809bc302d5e3498b212bdc25932ff5241edb3ec144c4c67f94f9",
            ),
        ];
        for (root, hex) in pinned {
            assert_eq!(root.to_string(), hex);
        }
    }

    #[test]
    fn receipt_rlp_append_matches_the_per_item_encoder() {
        use dmvcc_primitives::rlp::{encode_list, encode_uint};
        let (_, receipts) = fixed_block();
        let mut out = vec![0xee];
        for receipt in &receipts {
            let oracle = encode_list(&[
                encode_uint(receipt.success as u64),
                encode_uint(receipt.gas_used),
                encode_uint(receipt.cumulative_gas),
            ]);
            out.truncate(1);
            receipt.rlp_append(&mut out);
            assert_eq!(out[1..], oracle[..]);
            assert_eq!(receipt.rlp_encode(), oracle);
        }
    }

    #[test]
    fn header_rlp_is_the_list_of_its_fields() {
        use dmvcc_primitives::rlp::{encode_bytes, encode_list, encode_uint};
        let header = BlockHeader {
            number: 300,
            parent_hash: keccak256(b"parent"),
            state_root: keccak256(b"state"),
            transactions_root: keccak256(b"txs"),
            receipts_root: keccak256(b"receipts"),
            timestamp: 1_700_000_000,
            gas_used: 0,
        };
        let oracle = encode_list(&[
            encode_uint(header.number),
            encode_bytes(header.parent_hash.as_bytes()),
            encode_bytes(header.state_root.as_bytes()),
            encode_bytes(header.transactions_root.as_bytes()),
            encode_bytes(header.receipts_root.as_bytes()),
            encode_uint(header.timestamp),
            encode_uint(header.gas_used),
        ]);
        assert_eq!(header.rlp_encode(), oracle);
    }
}

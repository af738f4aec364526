//! Foundational types for the DMVCC reproduction: 256-bit words, addresses,
//! Keccak-256 hashing, hexadecimal utilities and RLP serialization.
//!
//! These are the primitives every other crate in the workspace builds on:
//! the EVM interpreter ([`U256`] words), the state database ([`Address`],
//! [`H256`], [`rlp`]) and the Merkle Patricia Trie ([`keccak256`]).
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::{keccak256, Address, U256};
//!
//! // Derive an ERC20-style storage slot: keccak(owner ++ slot_index).
//! let owner = Address::from_u64(1);
//! let mut preimage = Vec::new();
//! preimage.extend_from_slice(&owner.to_u256().to_be_bytes());
//! preimage.extend_from_slice(&U256::ZERO.to_be_bytes());
//! let slot = keccak256(&preimage).to_u256();
//! assert!(!slot.is_zero());
//! ```

// `deny`, not `forbid`: one call in `keccak.rs` — into the vector body of the
// four-lane permutation, under its run-time feature check — is allowed by
// name, the only one in the workspace, and a CI step fails if a second
// appears (DESIGN.md, "Unsafe inventory").
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod hash;
pub mod hex;
mod keccak;
pub mod rlp;
mod u256;

pub use hash::{Address, H256};
pub use hex::{decode_hex, encode_hex, ParseHexError};
pub use keccak::{keccak256, keccak256_x4, keccak_backend, Keccak256};
pub use u256::{ParseU256Error, U256};

//! State item identification.
//!
//! The paper (Definition 1) models blockchain state as key-value maps per
//! contract; in practice every Solidity variable maps to one or more 256-bit
//! storage *slots*, and DMVCC "treats each slot as an independent state
//! item" (§V-A). We mirror that: a [`StateKey`] is `(address, slot)`.
//!
//! Account balances participate in the same key space through a reserved
//! slot ([`BALANCE_SLOT`]) so that plain Ether transfers and contract
//! executions are synchronized by one uniform mechanism, exactly as the
//! paper folds non-contract transactions into the same access sequences.

use core::fmt;

use dmvcc_primitives::{Address, U256};

/// Reserved pseudo-slot carrying an account's Ether balance.
///
/// Real Ethereum keeps balances in the account trie rather than contract
/// storage; folding them into the slot space lets the scheduler treat
/// `BALANCE` reads and Ether transfers as ordinary state accesses.
pub const BALANCE_SLOT: U256 = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, u64::MAX]);

/// Reserved pseudo-slot carrying an account's transaction nonce.
pub const NONCE_SLOT: U256 = U256::from_limbs([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]);

/// Identifies one independently-lockable state item: a storage slot of a
/// specific account.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::StateKey;
///
/// let key = StateKey::storage(Address::from_u64(7), U256::from(3u64));
/// let bal = StateKey::balance(Address::from_u64(7));
/// assert_ne!(key, bal);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    /// The account that owns the slot.
    pub address: Address,
    /// The 256-bit slot index within the account's storage.
    pub slot: U256,
}

impl StateKey {
    /// Creates a key for a contract storage slot.
    pub fn storage(address: Address, slot: U256) -> Self {
        StateKey { address, slot }
    }

    /// Creates the key holding `address`'s Ether balance.
    pub fn balance(address: Address) -> Self {
        StateKey {
            address,
            slot: BALANCE_SLOT,
        }
    }

    /// Creates the key holding `address`'s nonce.
    pub fn nonce(address: Address) -> Self {
        StateKey {
            address,
            slot: NONCE_SLOT,
        }
    }

    /// Serializes to the 52-byte `address ++ slot` preimage used for trie
    /// key derivation.
    pub fn to_bytes(&self) -> [u8; 52] {
        let mut out = [0u8; 52];
        out[..20].copy_from_slice(self.address.as_bytes());
        out[20..].copy_from_slice(&self.slot.to_be_bytes());
        out
    }
}

impl fmt::Debug for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.slot == BALANCE_SLOT {
            write!(f, "StateKey({}.balance)", self.address)
        } else if self.slot == NONCE_SLOT {
            write!(f, "StateKey({}.nonce)", self.address)
        } else {
            write!(f, "StateKey({}[0x{:x}])", self.address, self.slot)
        }
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_slots_differ() {
        assert_ne!(BALANCE_SLOT, NONCE_SLOT);
        let a = Address::from_u64(1);
        assert_ne!(StateKey::balance(a), StateKey::nonce(a));
    }

    #[test]
    fn keys_distinguish_address_and_slot() {
        let k1 = StateKey::storage(Address::from_u64(1), U256::from(5u64));
        let k2 = StateKey::storage(Address::from_u64(2), U256::from(5u64));
        let k3 = StateKey::storage(Address::from_u64(1), U256::from(6u64));
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn byte_serialization_is_injective() {
        let k1 = StateKey::storage(Address::from_u64(1), U256::from(5u64));
        let k2 = StateKey::storage(Address::from_u64(1), U256::from(6u64));
        assert_ne!(k1.to_bytes(), k2.to_bytes());
        assert_eq!(k1.to_bytes().len(), 52);
    }

    #[test]
    fn debug_formats() {
        let a = Address::from_u64(1);
        assert!(format!("{:?}", StateKey::balance(a)).contains("balance"));
        assert!(format!("{:?}", StateKey::nonce(a)).contains("nonce"));
        assert!(format!("{}", StateKey::storage(a, U256::from(3u64))).contains("[0x3]"));
    }
}

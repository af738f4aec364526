//! A memo of Keccak-256 digests, preimage → digest.
//!
//! A block hashes the same few preimages over and over: a mapping slot
//! `keccak(key ++ slot)` of a popular account is derived by every
//! transaction that touches it, and once more by each stage — refinement
//! binds it, execution's `SHA3` computes it again. A [`KeccakMemo`] owned by
//! one worker for one block computes each short preimage it is asked for
//! once. It is a plain value, never shared: each worker keeps its own, so a
//! lookup takes no lock.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use dmvcc_primitives::{keccak256, U256};
use dmvcc_state::FxBuildHasher;

/// A preimage short enough to memoize: its bytes, zero-padded to
/// [`KeccakMemo::MAX_PREIMAGE`], and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Preimage {
    len: u8,
    bytes: [u8; KeccakMemo::MAX_PREIMAGE],
}

impl Hash for Preimage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The padding is zero in every key, so equal keys hash equal
        // without it.
        state.write(&self.bytes[..self.len as usize]);
    }
}

/// How many digests a [`KeccakMemo`] was asked for and how many it
/// computed; the difference is what the memo saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCounts {
    /// Digests asked for.
    pub asked: u64,
    /// Digests computed: misses, and preimages too long to memoize.
    pub computed: u64,
}

impl std::ops::AddAssign for DigestCounts {
    fn add_assign(&mut self, other: DigestCounts) {
        self.asked += other.asked;
        self.computed += other.computed;
    }
}

/// One worker's digests of the preimages of at most
/// [`KeccakMemo::MAX_PREIMAGE`] bytes it has hashed; a longer preimage is
/// hashed every time.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::keccak256;
/// use dmvcc_vm::KeccakMemo;
///
/// let mut memo = KeccakMemo::default();
/// let slot = [7u8; 64];
/// assert_eq!(memo.keccak(&slot), keccak256(&slot).to_u256());
/// assert_eq!(memo.keccak(&slot), keccak256(&slot).to_u256());
/// assert_eq!((memo.counts().asked, memo.counts().computed), (2, 1));
/// ```
#[derive(Debug, Default)]
pub struct KeccakMemo {
    digests: HashMap<Preimage, U256, FxBuildHasher>,
    counts: DigestCounts,
}

impl KeccakMemo {
    /// The longest preimage memoized: three words, the two-key mapping
    /// slot `keccak(k1 ++ k2 ++ slot)`.
    pub const MAX_PREIMAGE: usize = 96;

    /// `keccak256(data)` as a word, computed only if `data` is new to the
    /// memo or longer than [`Self::MAX_PREIMAGE`].
    pub fn keccak(&mut self, data: &[u8]) -> U256 {
        self.counts.asked += 1;
        if data.len() > Self::MAX_PREIMAGE {
            self.counts.computed += 1;
            return keccak256(data).to_u256();
        }
        let mut key = Preimage {
            len: data.len() as u8,
            bytes: [0; Self::MAX_PREIMAGE],
        };
        key.bytes[..data.len()].copy_from_slice(data);
        let counts = &mut self.counts;
        *self.digests.entry(key).or_insert_with(|| {
            counts.computed += 1;
            keccak256(data).to_u256()
        })
    }

    /// What the memo was asked for and computed since it was made.
    pub fn counts(&self) -> DigestCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn preimages_that_differ_only_in_trailing_zeros_stay_apart() {
        let mut memo = KeccakMemo::default();
        for len in [0, 1, 32, 64, 95, 96] {
            let zeros = vec![0u8; len];
            assert_eq!(memo.keccak(&zeros), keccak256(&zeros).to_u256(), "{len}");
        }
        assert_eq!(memo.counts().computed, 6);
    }

    /// A preimage of 0–200 bytes, lengths near the memo's bound drawn
    /// often, all zeros sometimes (the padding's value).
    fn preimage() -> impl Strategy<Value = Vec<u8>> {
        let len = prop_oneof![0usize..=200, 94usize..=98];
        let bytes = prop::collection::vec(any::<u8>(), 200);
        (len, any::<bool>(), bytes).prop_map(|(len, zeros, bytes)| match zeros {
            true => vec![0; len],
            false => bytes[..len].to_vec(),
        })
    }

    proptest! {
        #[test]
        fn the_memo_returns_keccak256_for_any_sequence(
            pool in prop::collection::vec(preimage(), 1..8),
            picks in prop::collection::vec(0usize..64, 1..60),
        ) {
            let mut memo = KeccakMemo::default();
            let mut distinct = std::collections::HashSet::new();
            let mut long = 0;
            for pick in &picks {
                let data = &pool[pick % pool.len()];
                prop_assert_eq!(memo.keccak(data), keccak256(data).to_u256());
                if data.len() > KeccakMemo::MAX_PREIMAGE {
                    long += 1;
                } else {
                    distinct.insert(data.clone());
                }
            }
            let counts = memo.counts();
            prop_assert_eq!(counts.asked, picks.len() as u64);
            prop_assert_eq!(counts.computed, distinct.len() as u64 + long);
        }
    }
}

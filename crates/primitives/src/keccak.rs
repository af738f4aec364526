//! Keccak-256 implemented from scratch (the original Keccak padding used by
//! Ethereum, not NIST SHA-3).
//!
//! The state commitments of the reproduced system (Merkle Patricia Trie
//! roots, storage-slot derivations) all hash with Keccak-256, so a faithful
//! implementation is required for the RQ1 root-equality oracle.
//!
//! # Examples
//!
//! ```
//! use dmvcc_primitives::keccak256;
//!
//! let digest = keccak256(b"");
//! assert_eq!(
//!     format!("{}", digest),
//!     "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
//! );
//! ```

use crate::H256;

const ROUNDS: usize = 24;
/// Rate in bytes for Keccak-256 (1600 - 2*256 bits = 1088 bits = 136 bytes).
const RATE: usize = 136;

const ROUND_CONSTANTS: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets, indexed `[x][y]` per the Keccak reference.
const ROTATION: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// The Keccak-f[1600] permutation applied in place to a 5x5 lane state.
// Index loops mirror the (x, y) lane coordinates of the Keccak reference;
// iterator forms would obscure the correspondence.
#[allow(clippy::needless_range_loop)]
fn keccak_f(state: &mut [[u64; 5]; 5]) {
    for rc in ROUND_CONSTANTS.iter() {
        // Theta.
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x][y] ^= d;
            }
        }
        // Rho and Pi.
        let mut b = [[0u64; 5]; 5];
        for x in 0..5 {
            for y in 0..5 {
                b[y][(2 * x + 3 * y) % 5] = state[x][y].rotate_left(ROTATION[x][y]);
            }
        }
        // Chi.
        for x in 0..5 {
            for y in 0..5 {
                state[x][y] = b[x][y] ^ (!b[(x + 1) % 5][y] & b[(x + 2) % 5][y]);
            }
        }
        // Iota.
        state[0][0] ^= rc;
    }
}

/// An incremental Keccak-256 hasher.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{keccak256, Keccak256};
///
/// let mut hasher = Keccak256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), keccak256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Keccak256 {
    state: [[u64; 5]; 5],
    buffer: [u8; RATE],
    buffered: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Keccak256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [[0u64; 5]; 5],
            buffer: [0u8; RATE],
            buffered: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        while !input.is_empty() {
            let take = (RATE - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == RATE {
                self.absorb_block();
            }
        }
    }

    fn absorb_block(&mut self) {
        for i in 0..RATE / 8 {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(&self.buffer[i * 8..i * 8 + 8]);
            let (x, y) = (i % 5, i / 5);
            self.state[x][y] ^= u64::from_le_bytes(lane);
        }
        keccak_f(&mut self.state);
        self.buffered = 0;
    }

    /// Applies padding and squeezes the 32-byte digest.
    pub fn finalize(mut self) -> H256 {
        // Original Keccak multi-rate padding: 0x01 ... 0x80.
        self.buffer[self.buffered..].fill(0);
        self.buffer[self.buffered] ^= 0x01;
        self.buffer[RATE - 1] ^= 0x80;
        self.buffered = RATE;
        self.absorb_block();

        let mut out = [0u8; 32];
        for i in 0..4 {
            let (x, y) = (i % 5, i / 5);
            out[i * 8..i * 8 + 8].copy_from_slice(&self.state[x][y].to_le_bytes());
        }
        H256(out)
    }
}

/// Computes the Keccak-256 digest of `data` in one shot.
pub fn keccak256(data: &[u8]) -> H256 {
    let mut hasher = Keccak256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Four Keccak-f[1600] states side by side: `state[x + 5 * y][lane]` is lane
/// `(x, y)` of state `lane`, so that one 256-bit register holds the same
/// lane of all four.
type StateX4 = [[u64; 4]; 25];

/// The four-lane permutation for hosts without the vector one: the scalar
/// [`keccak_f`] over each state in turn.
fn permute_x4_portable(state: &mut StateX4) {
    for lane in 0..4 {
        let mut one = [[0u64; 5]; 5];
        for (i, lanes) in state.iter().enumerate() {
            one[i % 5][i / 5] = lanes[lane];
        }
        keccak_f(&mut one);
        for (i, lanes) in state.iter_mut().enumerate() {
            lanes[lane] = one[i % 5][i / 5];
        }
    }
}

/// The four-lane permutation on AVX-512F + VL: 25 of the 32 `ymm` registers
/// hold the state, `vprolq` rotates, and `vpternlogq` does theta's three-way
/// XORs and chi's `a ^ (!b & c)` in one instruction each.
#[cfg(target_arch = "x86_64")]
mod x4 {
    use super::{StateX4, ROUND_CONSTANTS};
    use std::arch::x86_64::{
        __m256i, _mm256_extract_epi64, _mm256_rol_epi64, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_ternarylogic_epi64, _mm256_xor_si256,
    };

    /// `a ^ b ^ c`.
    const XOR3: i32 = 0x96;
    /// `a ^ (!b & c)`.
    const CHI: i32 = 0xd2;

    /// `b[$to] = rol(a[$from], $by)`: rho and pi for one lane. The rotation
    /// is an immediate of `vprolq`, so each lane is its own expression.
    macro_rules! rho_pi {
        ($b:ident, $a:ident; $($to:literal <- $from:literal by $by:literal),* $(,)?) => {
            $( $b[$to] = _mm256_rol_epi64::<$by>($a[$from]); )*
        };
    }

    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn permute(state: &mut StateX4) {
        let mut a = [_mm256_set1_epi64x(0); 25];
        for (vector, lanes) in a.iter_mut().zip(state.iter()) {
            let [l0, l1, l2, l3] = lanes.map(|lane| lane as i64);
            *vector = _mm256_set_epi64x(l3, l2, l1, l0);
        }
        for rc in ROUND_CONSTANTS {
            // Theta: the column parities, then every lane with the parity
            // of the column before it and the rotated one of the column
            // after, in one three-way XOR.
            let mut c = [a[0]; 5];
            for x in 0..5 {
                let low = _mm256_ternarylogic_epi64::<XOR3>(a[x], a[x + 5], a[x + 10]);
                c[x] = _mm256_ternarylogic_epi64::<XOR3>(low, a[x + 15], a[x + 20]);
            }
            for x in 0..5 {
                let (before, after) = (c[(x + 4) % 5], _mm256_rol_epi64::<1>(c[(x + 1) % 5]));
                for y in 0..5 {
                    a[x + 5 * y] = _mm256_ternarylogic_epi64::<XOR3>(a[x + 5 * y], before, after);
                }
            }
            // Rho and pi: lane (x, y) rotated by ROTATION[x][y] goes to
            // (y, 2x + 3y).
            let mut b: [__m256i; 25] = a;
            rho_pi!(b, a;
                10 <- 1 by 1, 20 <- 2 by 62, 5 <- 3 by 28, 15 <- 4 by 27,
                16 <- 5 by 36, 1 <- 6 by 44, 11 <- 7 by 6, 21 <- 8 by 55, 6 <- 9 by 20,
                7 <- 10 by 3, 17 <- 11 by 10, 2 <- 12 by 43, 12 <- 13 by 25, 22 <- 14 by 39,
                23 <- 15 by 41, 8 <- 16 by 45, 18 <- 17 by 15, 3 <- 18 by 21, 13 <- 19 by 8,
                14 <- 20 by 18, 24 <- 21 by 2, 9 <- 22 by 61, 19 <- 23 by 56, 4 <- 24 by 14,
            );
            // Chi, row by row.
            for y in 0..5 {
                for x in 0..5 {
                    a[x + 5 * y] = _mm256_ternarylogic_epi64::<CHI>(
                        b[x + 5 * y],
                        b[(x + 1) % 5 + 5 * y],
                        b[(x + 2) % 5 + 5 * y],
                    );
                }
            }
            // Iota.
            a[0] = _mm256_xor_si256(a[0], _mm256_set1_epi64x(rc as i64));
        }
        for (lanes, vector) in state.iter_mut().zip(a) {
            *lanes = [
                _mm256_extract_epi64::<0>(vector) as u64,
                _mm256_extract_epi64::<1>(vector) as u64,
                _mm256_extract_epi64::<2>(vector) as u64,
                _mm256_extract_epi64::<3>(vector) as u64,
            ];
        }
    }
}

/// Keccak-f[1600] over four states at once, by whichever body the host has;
/// returns that body's name.
#[allow(unsafe_code)]
fn permute_x4(state: &mut StateX4) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
        // SAFETY: `x4::permute` is an ordinary function but for the two
        // target features it is compiled with, and the line above has just
        // found both on the processor this thread runs on.
        unsafe { x4::permute(state) };
        return "avx512vl-x4";
    }
    permute_x4_portable(state);
    "portable"
}

/// The body [`keccak256_x4`] hashes with on this host: `"avx512vl-x4"` where
/// the processor has AVX-512F and AVX-512VL, else `"portable"` (the scalar
/// permutation, four times). Found at run time, by the same check that
/// guards every call; nothing selects it.
pub fn keccak_backend() -> &'static str {
    permute_x4(&mut [[0; 4]; 25])
}

/// XORs one rate block into state `lane`.
fn absorb_x4(state: &mut StateX4, lane: usize, block: &[u8; RATE]) {
    for (lanes, word) in state.iter_mut().zip(block.chunks_exact(8)) {
        lanes[lane] ^= u64::from_le_bytes(word.try_into().expect("eight bytes"));
    }
}

/// The Keccak-256 digests of four inputs, computed side by side: one
/// permutation serves a block of each. The inputs may differ in length — the
/// call runs as many permutations as the longest needs, `len / 136 + 1`, and
/// each digest is read after its own input's last block — so a caller with
/// many inputs does best to hand over four of about the same length.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{keccak256, keccak256_x4};
///
/// let inputs: [&[u8]; 4] = [b"", b"abc", &[7; 136], &[9; 300]];
/// assert_eq!(keccak256_x4(inputs), inputs.map(keccak256));
/// ```
pub fn keccak256_x4(inputs: [&[u8]; 4]) -> [H256; 4] {
    let mut state: StateX4 = [[0; 4]; 25];
    let mut digests = [H256::ZERO; 4];
    // The block that takes an input's padding: the one after its full ones.
    let last = inputs.map(|input| input.len() / RATE);
    for block in 0..=last.into_iter().max().expect("four lanes") {
        for (lane, input) in inputs.iter().enumerate() {
            if block > last[lane] {
                continue; // digest taken: what the permutation makes of it is nobody's
            }
            let rest = &input[block * RATE..];
            match rest.first_chunk::<RATE>() {
                Some(full) => absorb_x4(&mut state, lane, full),
                None => {
                    // Original Keccak multi-rate padding: 0x01 ... 0x80.
                    let mut padded = [0u8; RATE];
                    padded[..rest.len()].copy_from_slice(rest);
                    padded[rest.len()] ^= 0x01;
                    padded[RATE - 1] ^= 0x80;
                    absorb_x4(&mut state, lane, &padded);
                }
            }
        }
        permute_x4(&mut state);
        for (lane, digest) in digests.iter_mut().enumerate() {
            if block == last[lane] {
                for (word, lanes) in digest.0.chunks_exact_mut(8).zip(&state) {
                    word.copy_from_slice(&lanes[lane].to_le_bytes());
                }
            }
        }
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        format!("{}", keccak256(data))
    }

    #[test]
    fn empty_input_vector() {
        assert_eq!(
            hex_digest(b""),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex_digest(b"abc"),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn hello_vector() {
        // Well-known Ethereum test vector.
        assert_eq!(
            hex_digest(b"hello"),
            "0x1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
        );
    }

    #[test]
    fn solidity_transfer_selector() {
        // keccak256("transfer(address,uint256)") starts with a9059cbb —
        // the canonical ERC20 transfer selector.
        let digest = keccak256(b"transfer(address,uint256)");
        assert_eq!(&digest.0[..4], &[0xa9, 0x05, 0x9c, 0xbb]);
    }

    #[test]
    fn multi_block_input() {
        // Exceeds one rate block (136 bytes) to exercise the absorb loop.
        let data = vec![0xabu8; 300];
        let one_shot = keccak256(&data);
        let mut incremental = Keccak256::new();
        for chunk in data.chunks(7) {
            incremental.update(chunk);
        }
        assert_eq!(incremental.finalize(), one_shot);
    }

    #[test]
    fn rate_boundary_inputs() {
        // Exactly RATE and RATE-1 and RATE+1 byte inputs all differ.
        let a = keccak256(&[0u8; RATE - 1]);
        let b = keccak256(&[0u8; RATE]);
        let c = keccak256(&[0u8; RATE + 1]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic() {
        assert_eq!(keccak256(b"determinism"), keccak256(b"determinism"));
        assert_ne!(keccak256(b"a"), keccak256(b"b"));
    }

    #[test]
    fn the_known_answers_through_the_batch_call() {
        let digests = keccak256_x4([b"", b"abc", b"hello", b"transfer(address,uint256)"]);
        let hex = digests.map(|digest| digest.to_string());
        assert_eq!(
            hex[..3],
            [
                "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
                "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
                "0x1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
            ]
        );
        assert!(hex[3].starts_with("0xa9059cbb"), "{}", hex[3]);
    }

    #[test]
    fn the_batch_call_takes_the_vector_body_where_the_host_has_it() {
        #[cfg(target_arch = "x86_64")]
        let vector = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        assert_eq!(
            keccak_backend(),
            if vector { "avx512vl-x4" } else { "portable" }
        );
        // The name is the answer of the permutation `keccak256_x4` calls.
        assert_eq!(permute_x4(&mut [[0; 4]; 25]), keccak_backend());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Lengths drawn independently, one to six rate blocks; the
            /// boundary lengths meet in `fixed_boundary_lengths_meet_in_one_call`.
            #[test]
            fn four_inputs_of_any_lengths_hash_as_four_calls(
                inputs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=700), 4),
            ) {
                let lanes: [&[u8]; 4] = std::array::from_fn(|lane| &inputs[lane][..]);
                prop_assert_eq!(keccak256_x4(lanes), lanes.map(keccak256));
            }

            /// Both bodies of the permutation, called directly.
            #[test]
            fn the_portable_and_the_detected_permutation_agree(
                words in prop::collection::vec(any::<u64>(), 100),
            ) {
                let mut state: StateX4 = [[0; 4]; 25];
                for (lanes, words) in state.iter_mut().zip(words.chunks_exact(4)) {
                    lanes.copy_from_slice(words);
                }
                let (mut detected, mut portable) = (state, state);
                permute_x4(&mut detected);
                permute_x4_portable(&mut portable);
                prop_assert_eq!(detected, portable);
                // And the portable body is the scalar permutation per lane.
                let mut one = [[0u64; 5]; 5];
                for (i, lanes) in state.iter().enumerate() {
                    one[i % 5][i / 5] = lanes[2];
                }
                keccak_f(&mut one);
                for (i, lanes) in portable.iter().enumerate() {
                    prop_assert_eq!(lanes[2], one[i % 5][i / 5]);
                }
            }
        }
    }

    #[test]
    fn fixed_boundary_lengths_meet_in_one_call() {
        // The lengths around one and two rate blocks, every rotation of them
        // over the four lanes, so each lane is once the longest.
        let data: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
        let lengths = [0usize, 135, 136, 137, 271, 272, 680, 700];
        for shift in 0..lengths.len() {
            let lanes: [&[u8]; 4] =
                std::array::from_fn(|lane| &data[..lengths[(shift + lane) % lengths.len()]]);
            assert_eq!(keccak256_x4(lanes), lanes.map(keccak256), "shift {shift}");
        }
    }
}

//! The contract library: realistic workload contracts written in assembly.
//!
//! These mirror the application mix of the paper's dataset (§V-B): an
//! ERC20-style token (60 % of mainnet contract traffic), an AMM-style DeFi
//! pool (29 %), an NFT collection (10 %), plus a shared counter, a ballot,
//! and the exact `Example` contract of the paper's Fig. 1 (runtime-dependent
//! state access keys, an `assert`, and a data-dependent loop).
//!
//! Calling convention: calldata word 0 is the selector, words 1.. are
//! arguments. Solidity storage layout conventions are respected: value
//! variables occupy low slots, `mapping` entries live at
//! `keccak256(key ++ base_slot)`.

use dmvcc_primitives::{keccak256, U256};

use crate::assembler::assemble;

/// Selectors of the [`token`] contract.
pub mod token_fn {
    /// `transfer(to, amount)` — moves caller balance; reverts on shortfall.
    pub const TRANSFER: u64 = 1;
    /// `mint(to, amount)` — commutative credit, no abort path.
    pub const MINT: u64 = 2;
    /// `balanceOf(owner)` — read-only.
    pub const BALANCE_OF: u64 = 3;
    /// `approve(spender, amount)` — writes the caller's allowance entry.
    pub const APPROVE: u64 = 4;
    /// `transferFrom(from, to, amount)` — spends an allowance.
    pub const TRANSFER_FROM: u64 = 5;
}

/// Selectors of the [`counter`] contract.
pub mod counter_fn {
    /// `increment()` — commutative `+= 1` on the shared counter.
    pub const INCREMENT: u64 = 1;
    /// `increment_checked()` — read-modify-write `+= 1` (non-commutative).
    pub const INCREMENT_CHECKED: u64 = 2;
    /// `get()` — read-only.
    pub const GET: u64 = 3;
    /// `add(n)` — commutative `+= n`.
    pub const ADD: u64 = 4;
}

/// Selectors of the [`amm`] contract.
pub mod amm_fn {
    /// `swap_a_for_b(amount_in)` — constant-product swap, updates both
    /// reserves (read-modify-write on hot state).
    pub const SWAP_A_FOR_B: u64 = 1;
    /// `swap_b_for_a(amount_in)` — the mirror swap.
    pub const SWAP_B_FOR_A: u64 = 2;
    /// `add_liquidity(a, b)` — commutative credits to both reserves.
    pub const ADD_LIQUIDITY: u64 = 3;
    /// `reserves()` — read-only.
    pub const RESERVES: u64 = 4;
}

/// Selectors of the [`nft`] contract.
pub mod nft_fn {
    /// `mint()` — takes the next id from a hot sequence counter.
    pub const MINT: u64 = 1;
    /// `transfer(id, to)` — ownership check then write.
    pub const TRANSFER: u64 = 2;
    /// `owner_of(id)` — read-only.
    pub const OWNER_OF: u64 = 3;
}

/// Selectors of the [`ballot`] contract.
pub mod ballot_fn {
    /// `vote(proposal)` — one vote per caller, commutative tally.
    pub const VOTE: u64 = 1;
    /// `votes(proposal)` — read-only.
    pub const VOTES: u64 = 2;
}

/// Selectors of the [`fig1_example`] contract.
pub mod fig1_fn {
    /// `update_b(x, y)` — the paper's `UpdateB` (Fig. 1).
    pub const UPDATE_B: u64 = 1;
    /// `set_a(x, v)` — seeds the `A` mapping.
    pub const SET_A: u64 = 2;
    /// `get_b(i)` — reads `B[i]`.
    pub const GET_B: u64 = 3;
}

/// Selectors of the [`auction`] contract.
pub mod auction_fn {
    /// `bid(amount)` — must exceed the current highest bid; the previous
    /// leader's stake moves to their refund balance (commutatively).
    pub const BID: u64 = 1;
    /// `withdraw()` — zeroes the caller's refund balance.
    pub const WITHDRAW: u64 = 2;
    /// `highest()` — returns the current highest bid.
    pub const HIGHEST: u64 = 3;
}

/// Selectors of the [`crowdsale`] contract.
pub mod crowdsale_fn {
    /// `contribute(amount)` — uncapped ICO buy: two commutative credits,
    /// no abort path (the paper's "ICO launched" hot scenario).
    pub const CONTRIBUTE: u64 = 1;
    /// `contribute_capped(amount)` — checks the raise cap first
    /// (read-modify-write on the hot total).
    pub const CONTRIBUTE_CAPPED: u64 = 2;
    /// `total()` — returns the total raised.
    pub const TOTAL: u64 = 3;
    /// `set_cap(cap)` — configures the cap.
    pub const SET_CAP: u64 = 4;
}

/// Selectors of the [`dex_router`] contract.
pub mod router_fn {
    /// `quote(amount_in)` — cross-contract read: CALLs the pool's
    /// `reserves()` and returns the constant-product output estimate.
    pub const QUOTE: u64 = 1;
    /// `swap_exact(amount_in, min_out)` — quotes, enforces slippage, then
    /// CALLs the pool's `swap_a_for_b` (two nested frames).
    pub const SWAP_EXACT: u64 = 2;
}

/// Selectors of the [`dex_router2`] contract.
pub mod router2_fn {
    /// `swap(amount_in, min_out)` — the full aggregator flow across four
    /// frames: quote the pool, pull the input token from the trader
    /// (`transferFrom`), swap on the pool, pay the trader from the
    /// router's output-token inventory.
    pub const SWAP: u64 = 1;
}

/// Selectors of the [`flash_mint`] contract.
pub mod flash_fn {
    /// `flash(amount)` — mints `amount` to the caller, accrues a 0.1 %
    /// fee (commutative), then pulls the principal back via
    /// `transferFrom`; a borrower who cannot repay reverts the mint too.
    pub const FLASH: u64 = 1;
}

/// Selectors of the [`oracle`] contract.
pub mod oracle_fn {
    /// `update(price)` — stores the price, then fans the update out to
    /// every registered consumer with one `CALL` each.
    pub const UPDATE: u64 = 1;
    /// `get()` — read-only.
    pub const GET: u64 = 2;
}

/// Selectors of the [`price_consumer`] contract.
pub mod consumer_fn {
    /// `on_price(price)` — stores the price and bumps an update counter.
    pub const ON_PRICE: u64 = 1;
    /// `last()` — read-only.
    pub const LAST: u64 = 2;
}

/// Selectors of the [`batch_pay`] contract.
pub mod batch_pay_fn {
    /// `pay3(to1, a1, to2, a2, to3, a3)` — one debit, three commutative
    /// credits; reverts if the caller's balance is short.
    pub const PAY3: u64 = 1;
    /// `deposit(amount)` — commutative self-credit.
    pub const DEPOSIT: u64 = 2;
    /// `balance_of(owner)` — read-only.
    pub const BALANCE_OF: u64 = 3;
}

/// Selectors of the [`airdrop`] contract.
pub mod airdrop_fn {
    /// `airdrop(start, amount, n)` — credits `amount` to `balances[start]`
    /// … `balances[start + n − 1]`; reverts unless `n ≤ 32`. The loop body
    /// is abort-free, so the loop head itself is a release point.
    pub const AIRDROP: u64 = 1;
    /// `deposit(amount)` — commutative self-credit.
    pub const DEPOSIT: u64 = 2;
    /// `balance_of(owner)` — read-only.
    pub const BALANCE_OF: u64 = 3;
    /// The hard recipient cap the contract enforces (`require(n <= 32)`).
    pub const MAX_RECIPIENTS: u64 = 32;
}

/// Selectors of the [`batch_transfer`] contract.
pub mod batch_transfer_fn {
    /// `batch(start, amount)` — debits `amount × count` from the caller,
    /// then credits `amount` to `balances[start]` … `balances[start +
    /// count − 1]`, where `count` is read from storage slot 0.
    pub const BATCH: u64 = 1;
    /// `deposit(amount)` — commutative self-credit.
    pub const DEPOSIT: u64 = 2;
    /// `set_count(n)` — stores the recipient count in slot 0.
    pub const SET_COUNT: u64 = 3;
    /// `balance_of(owner)` — read-only.
    pub const BALANCE_OF: u64 = 4;
}

/// Selectors of the [`royalty_splitter`] contract.
pub mod splitter_fn {
    /// `payout(price)` — the DELEGATECALL body: accrues the platform's cut
    /// into the *calling* collection's fee tab (commutative) and forwards
    /// the creator's share as a value-transferring CALL to the creator
    /// address registered in the caller's storage.
    pub const PAYOUT: u64 = 1;
    /// Platform fee divisor: the platform keeps `price / FEE_DIVISOR`.
    pub const FEE_DIVISOR: u64 = 10;
}

/// Selectors of the [`nft_drop`] contract.
pub mod drop_fn {
    /// `mint()` — takes the next id from the hot sequence counter, records
    /// the minter as owner, then DELEGATECALLs the royalty splitter to pay
    /// the creator out of the collection's treasury balance.
    pub const MINT: u64 = 1;
    /// `preview()` — STATICCALLs the floor oracle's `get()`; read-only.
    pub const PREVIEW: u64 = 2;
    /// `owner_of(id)` — read-only.
    pub const OWNER_OF: u64 = 3;
}

/// Selectors of the [`floor_oracle`] contract.
pub mod floor_fn {
    /// `get()` — returns the floor price in slot 0; the contract has no
    /// store anywhere, so it is provably write-free (STATICCALL-safe).
    pub const GET: u64 = 1;
}

/// Storage slot of a `mapping(key => v)` entry at `base`, i.e.
/// `keccak256(key ++ base)` — the Solidity addressing rule the paper cites
/// (§V-A).
pub fn map_slot(key: U256, base: u64) -> U256 {
    let mut preimage = [0u8; 64];
    preimage[..32].copy_from_slice(&key.to_be_bytes());
    preimage[32..].copy_from_slice(&U256::from(base).to_be_bytes());
    keccak256(&preimage).to_u256()
}

/// Storage slot of a two-key mapping entry: `keccak256(k1 ++ k2 ++ base)`.
pub fn map_slot2(key1: U256, key2: U256, base: u64) -> U256 {
    let mut preimage = [0u8; 96];
    preimage[..32].copy_from_slice(&key1.to_be_bytes());
    preimage[32..64].copy_from_slice(&key2.to_be_bytes());
    preimage[64..].copy_from_slice(&U256::from(base).to_be_bytes());
    keccak256(&preimage).to_u256()
}

/// Emits assembly that replaces the top of stack `key` with
/// `keccak256(key ++ base)` (uses memory 0..64 as scratch).
fn asm_map_slot(base: u64) -> String {
    format!("PUSH1 0 MSTORE PUSH {base} PUSH1 32 MSTORE PUSH1 64 PUSH1 0 SHA3")
}

/// Emits assembly replacing the top two stack items `k1, k2` (k1 on top)
/// with `keccak256(k1 ++ k2 ++ base)` (memory 0..96 as scratch).
fn asm_map_slot2(base: u64) -> String {
    format!("PUSH1 0 MSTORE PUSH1 32 MSTORE PUSH {base} PUSH1 64 MSTORE PUSH1 96 PUSH1 0 SHA3")
}

/// Standard dispatch prologue.
fn dispatch(arms: &[(u64, &str)]) -> String {
    let mut out = String::from("PUSH1 0 CALLDATALOAD\n");
    for (selector, label) in arms {
        out.push_str(&format!("DUP1 PUSH {selector} EQ PUSH @{label} JUMPI\n"));
    }
    out.push_str("STOP\n");
    out
}

/// Epilogue returning the 32-byte word currently at memory offset 128.
const RETURN_M128: &str = "PUSH1 32 PUSH1 128 RETURN";

/// ERC20-style token.
///
/// Storage: slot 0 = `totalSupply`; `balances[a]` at `keccak(a ++ 1)`;
/// `allowance[owner][spender]` at `keccak(owner ++ spender ++ 2)`.
pub fn token() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
transfer: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE      ; m128 = to
  PUSH1 64 CALLDATALOAD PUSH1 160 MSTORE      ; m160 = amount
  CALLER {slot1}
  PUSH1 192 MSTORE                            ; m192 = sender slot
  PUSH1 192 MLOAD SLOAD PUSH1 224 MSTORE      ; m224 = sender balance
  PUSH1 160 MLOAD PUSH1 224 MLOAD LT          ; balance < amount ?
  PUSH @insufficient JUMPI
  ; release point lives here: no abortable statement remains below
  PUSH1 160 MLOAD PUSH1 224 MLOAD SUB         ; new sender balance
  PUSH1 192 MLOAD SSTORE
  PUSH1 160 MLOAD                             ; delta = amount
  PUSH1 128 MLOAD {slot1}                     ; recipient slot
  SADD
  STOP

mint: JUMPDEST
  PUSH1 64 CALLDATALOAD                       ; delta = amount
  PUSH1 32 CALLDATALOAD {slot1}               ; recipient slot
  SADD
  PUSH1 64 CALLDATALOAD PUSH1 0 SADD          ; totalSupply += amount
  STOP

balance_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot1}
  SLOAD PUSH1 128 MSTORE
  {ret}

approve: JUMPDEST
  PUSH1 64 CALLDATALOAD                       ; amount (value for SSTORE)
  PUSH1 32 CALLDATALOAD CALLER {slot2}        ; keccak(caller ++ spender ++ 2)
  SSTORE
  STOP

transfer_from: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE      ; m128 = from
  PUSH1 64 CALLDATALOAD PUSH1 160 MSTORE      ; m160 = to
  PUSH1 96 CALLDATALOAD PUSH1 192 MSTORE      ; m192 = amount
  CALLER PUSH1 128 MLOAD {slot2}              ; keccak(from ++ caller ++ 2)
  PUSH1 224 MSTORE                            ; m224 = allowance slot
  PUSH1 224 MLOAD SLOAD PUSH2 256 MSTORE      ; m256 = allowance
  PUSH1 192 MLOAD PUSH2 256 MLOAD LT          ; allowance < amount ?
  PUSH @insufficient JUMPI
  PUSH1 128 MLOAD {slot1}
  PUSH2 288 MSTORE                            ; m288 = from balance slot
  PUSH2 288 MLOAD SLOAD PUSH2 320 MSTORE      ; m320 = from balance
  PUSH1 192 MLOAD PUSH2 320 MLOAD LT          ; balance < amount ?
  PUSH @insufficient JUMPI
  PUSH1 192 MLOAD PUSH2 256 MLOAD SUB         ; new allowance
  PUSH1 224 MLOAD SSTORE
  PUSH1 192 MLOAD PUSH2 320 MLOAD SUB         ; new from balance
  PUSH2 288 MLOAD SSTORE
  PUSH1 192 MLOAD                             ; delta = amount
  PUSH1 160 MLOAD {slot1}                     ; to slot
  SADD
  STOP

insufficient: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (token_fn::TRANSFER, "transfer"),
            (token_fn::MINT, "mint"),
            (token_fn::BALANCE_OF, "balance_of"),
            (token_fn::APPROVE, "approve"),
            (token_fn::TRANSFER_FROM, "transfer_from"),
        ]),
        slot1 = asm_map_slot(1),
        slot2 = asm_map_slot2(2),
        ret = RETURN_M128,
    );
    assemble(&source).expect("token contract must assemble")
}

/// Shared counter.
///
/// Storage: slot 0 = the counter.
pub fn counter() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
increment: JUMPDEST
  PUSH1 1 PUSH1 0 SADD
  STOP
increment_checked: JUMPDEST
  PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0 SSTORE
  STOP
get: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}
add: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 0 SADD
  STOP
",
        dispatch = dispatch(&[
            (counter_fn::INCREMENT, "increment"),
            (counter_fn::INCREMENT_CHECKED, "increment_checked"),
            (counter_fn::GET, "get"),
            (counter_fn::ADD, "add"),
        ]),
        ret = RETURN_M128,
    );
    assemble(&source).expect("counter contract must assemble")
}

/// Constant-product AMM pool.
///
/// Storage: slot 0 = reserve A, slot 1 = reserve B; `credits[user]` for
/// swap proceeds at `keccak(user ++ 2)`.
pub fn amm() -> Vec<u8> {
    // The swap body is identical for both directions modulo the reserve
    // slots, so it is generated twice.
    let swap_body = |in_slot: u64, out_slot: u64| {
        format!(
            r"
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE       ; m128 = amount_in
  PUSH1 128 MLOAD ISZERO PUSH @badswap JUMPI   ; require amount_in > 0
  PUSH {in_slot} SLOAD PUSH1 160 MSTORE        ; m160 = reserve_in
  PUSH {out_slot} SLOAD PUSH1 192 MSTORE       ; m192 = reserve_out
  ; out = reserve_out * amount_in / (reserve_in + amount_in)
  PUSH1 128 MLOAD PUSH1 160 MLOAD ADD          ; denom
  PUSH1 128 MLOAD PUSH1 192 MLOAD MUL          ; numer (top)
  DIV
  PUSH1 224 MSTORE                             ; m224 = out
  ; reserve_in += amount_in  (read-modify-write on purpose: the swap
  ; depends on exact reserves, so this is NOT commutative)
  PUSH1 128 MLOAD PUSH1 160 MLOAD ADD PUSH {in_slot} SSTORE
  PUSH1 224 MLOAD PUSH1 192 MLOAD SUB PUSH {out_slot} SSTORE
  ; credit the trader
  PUSH1 224 MLOAD
  CALLER {slot2}
  SADD
  STOP
",
            slot2 = asm_map_slot(2),
        )
    };
    let source = format!(
        r"
{dispatch}
swap_ab: JUMPDEST
{swap_ab}
swap_ba: JUMPDEST
{swap_ba}
add_liquidity: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 0 SADD
  PUSH1 64 CALLDATALOAD PUSH1 1 SADD
  STOP
reserves: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  PUSH1 1 SLOAD PUSH1 160 MSTORE
  PUSH1 64 PUSH1 128 RETURN
badswap: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (amm_fn::SWAP_A_FOR_B, "swap_ab"),
            (amm_fn::SWAP_B_FOR_A, "swap_ba"),
            (amm_fn::ADD_LIQUIDITY, "add_liquidity"),
            (amm_fn::RESERVES, "reserves"),
        ]),
        swap_ab = swap_body(0, 1),
        swap_ba = swap_body(1, 0),
    );
    assemble(&source).expect("amm contract must assemble")
}

/// NFT collection with a hot mint counter.
///
/// Storage: slot 0 = next token id; `owners[id]` at `keccak(id ++ 1)`.
pub fn nft() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
mint: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE               ; m128 = id
  PUSH1 1 PUSH1 128 MLOAD ADD PUSH1 0 SSTORE   ; next_id = id + 1 (RMW)
  CALLER
  PUSH1 128 MLOAD {slot1}
  SSTORE                                       ; owners[id] = caller
  {ret}

transfer: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE       ; m128 = id
  PUSH1 64 CALLDATALOAD PUSH1 160 MSTORE       ; m160 = to
  PUSH1 128 MLOAD {slot1}
  PUSH1 192 MSTORE                             ; m192 = owner slot
  PUSH1 192 MLOAD SLOAD
  CALLER EQ ISZERO PUSH @notowner JUMPI        ; require owner == caller
  PUSH1 160 MLOAD PUSH1 192 MLOAD SSTORE       ; owners[id] = to
  STOP

owner_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot1}
  SLOAD PUSH1 128 MSTORE
  {ret}

notowner: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (nft_fn::MINT, "mint"),
            (nft_fn::TRANSFER, "transfer"),
            (nft_fn::OWNER_OF, "owner_of"),
        ]),
        slot1 = asm_map_slot(1),
        ret = RETURN_M128,
    );
    assemble(&source).expect("nft contract must assemble")
}

/// One-vote-per-account ballot.
///
/// Storage: `has_voted[a]` at `keccak(a ++ 0)`; `votes[p]` at
/// `keccak(p ++ 1)`.
pub fn ballot() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
vote: JUMPDEST
  CALLER {slot0}
  PUSH1 128 MSTORE                            ; m128 = has_voted slot
  PUSH1 128 MLOAD SLOAD PUSH @already JUMPI   ; require !has_voted
  PUSH1 1 PUSH1 128 MLOAD SSTORE              ; has_voted = 1
  PUSH1 1
  PUSH1 32 CALLDATALOAD {slot1}
  SADD                                        ; votes[p] += 1 (commutative)
  STOP
votes: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot1}
  SLOAD PUSH1 128 MSTORE
  {ret}
already: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[(ballot_fn::VOTE, "vote"), (ballot_fn::VOTES, "votes")]),
        slot0 = asm_map_slot(0),
        slot1 = asm_map_slot(1),
        ret = RETURN_M128,
    );
    assemble(&source).expect("ballot contract must assemble")
}

/// The paper's Fig. 1 `Example` contract.
///
/// Storage: `A[x]` at `keccak(x ++ 0)` (a `mapping(address => uint)`);
/// array `B` with `B[i]` at `keccak(1) + i` (Solidity dynamic-array data
/// layout, length slot 1 unused here for simplicity).
///
/// `update_b(x, y)`:
///
/// ```solidity
/// uint idx = A[x];
/// if (idx > 1) {
///     for (uint i = idx; i > 1; i--) { B[i] = B[i-2] + y; }
/// } else {
///     B[0] = 0;
///     assert(y <= 10);
///     B[1] = B[1] + y;
/// }
/// ```
///
/// Branch 1 (the loop) contains no abortable statement — under DMVCC its
/// writes become visible at a release point right after the branch; branch
/// 2 carries an `assert` so its release point sits after the check.
pub fn fig1_example() -> Vec<u8> {
    // B[i] slot: keccak(uint(1)) + i. The base hash is a compile-time
    // constant, exactly as solc would inline it.
    let b_base = keccak256(&U256::ONE.to_be_bytes()).to_u256();
    let source = format!(
        r"
{dispatch}
update_b: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE      ; m128 = x
  PUSH1 64 CALLDATALOAD PUSH1 160 MSTORE      ; m160 = y
  PUSH1 128 MLOAD {slot0}
  SLOAD PUSH1 192 MSTORE                      ; m192 = idx = A[x]
  PUSH1 1 PUSH1 192 MLOAD GT                  ; idx > 1 ?
  PUSH @branch1 JUMPI

  ; branch 2: B[0] = 0; assert(y <= 10); B[1] = B[1] + y
  PUSH1 0 PUSH32 0x{b0:x} SSTORE
  PUSH1 10 PUSH1 160 MLOAD GT                 ; y > 10 ?
  PUSH @fail JUMPI
  ; release point for branch 2 is here
  PUSH32 0x{b1:x} SLOAD
  PUSH1 160 MLOAD ADD
  PUSH32 0x{b1:x} SSTORE
  STOP

  ; branch 1: for (i = idx; i > 1; i--) B[i] = B[i-2] + y
branch1: JUMPDEST
  PUSH1 192 MLOAD PUSH1 224 MSTORE            ; m224 = i = idx
loop: JUMPDEST
  PUSH1 1 PUSH1 224 MLOAD GT                  ; i > 1 ?
  ISZERO PUSH @done JUMPI
  ; B[i] = B[i-2] + y
  PUSH1 160 MLOAD                             ; y
  PUSH1 2 PUSH1 224 MLOAD SUB                 ; i-2
  PUSH32 0x{bbase:x} ADD SLOAD                ; B[i-2]
  ADD                                         ; B[i-2] + y
  PUSH1 224 MLOAD PUSH32 0x{bbase:x} ADD      ; slot of B[i]
  SSTORE
  PUSH1 1 PUSH1 224 MLOAD SUB PUSH1 224 MSTORE ; i--
  PUSH @loop JUMP
done: JUMPDEST
  STOP

set_a: JUMPDEST
  PUSH1 64 CALLDATALOAD                       ; v
  PUSH1 32 CALLDATALOAD {slot0}
  SSTORE
  STOP

get_b: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH32 0x{bbase:x} ADD SLOAD
  PUSH1 128 MSTORE
  {ret}

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (fig1_fn::UPDATE_B, "update_b"),
            (fig1_fn::SET_A, "set_a"),
            (fig1_fn::GET_B, "get_b"),
        ]),
        slot0 = asm_map_slot(0),
        b0 = b_base,
        b1 = b_base.wrapping_add(U256::ONE),
        bbase = b_base,
        ret = RETURN_M128,
    );
    assemble(&source).expect("fig1 contract must assemble")
}

/// English auction with refunds.
///
/// Storage: slot 0 = highest bid, slot 1 = highest bidder;
/// `refunds[a]` at `keccak(a ++ 2)`. Every successful bid emits a
/// `LOG2(topic1 = bidder, topic2 = amount)` event.
///
/// Concurrency profile: bids are a read-modify-write chain on the highest
/// bid (serial under every scheduler — the release point after the
/// `require` is what early-write visibility exploits), while the loser
/// refunds are commutative credits.
pub fn auction() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
bid: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE       ; m128 = amount
  PUSH1 0 SLOAD PUSH1 160 MSTORE               ; m160 = highest
  PUSH1 1 SLOAD PUSH1 192 MSTORE               ; m192 = leader
  ; require(amount > highest)
  PUSH1 160 MLOAD PUSH1 128 MLOAD GT ISZERO PUSH @toolow JUMPI
  ; refund the previous leader (commutative credit; leader 0 = no leader,
  ; the zero address accumulates dust harmlessly like a burn address)
  PUSH1 160 MLOAD
  PUSH1 192 MLOAD {slot2}
  SADD
  ; take the crown
  PUSH1 128 MLOAD PUSH1 0 SSTORE
  CALLER PUSH1 1 SSTORE
  ; emit Bid(bidder, amount) with the amount also in the data payload
  PUSH1 128 MLOAD PUSH1 224 MSTORE
  PUSH1 128 MLOAD CALLER PUSH1 32 PUSH1 224 LOG2
  STOP

withdraw: JUMPDEST
  CALLER {slot2}
  PUSH1 128 MSTORE                             ; m128 = refund slot
  PUSH1 128 MLOAD SLOAD PUSH1 160 MSTORE       ; m160 = refund amount
  PUSH1 160 MLOAD ISZERO PUSH @nothing JUMPI
  PUSH1 0 PUSH1 128 MLOAD SSTORE               ; refunds[caller] = 0
  STOP

highest: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}

toolow: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
nothing: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (auction_fn::BID, "bid"),
            (auction_fn::WITHDRAW, "withdraw"),
            (auction_fn::HIGHEST, "highest"),
        ]),
        slot2 = asm_map_slot(2),
        ret = RETURN_M128,
    );
    assemble(&source).expect("auction contract must assemble")
}

/// Crowdsale (ICO) contract — the paper's canonical hot-contract example.
///
/// Storage: slot 0 = total raised, slot 1 = cap;
/// `contributions[a]` at `keccak(a ++ 2)`.
pub fn crowdsale() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
contribute: JUMPDEST
  ; Fully commutative: contributions[caller] += x; total += x.
  PUSH1 32 CALLDATALOAD
  CALLER {slot2}
  SADD
  PUSH1 32 CALLDATALOAD PUSH1 0 SADD
  STOP

contribute_capped: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 128 MSTORE       ; m128 = amount
  PUSH1 0 SLOAD PUSH1 160 MSTORE               ; m160 = total
  PUSH1 1 SLOAD PUSH1 192 MSTORE               ; m192 = cap
  ; require(total + amount <= cap)  i.e. revert if total+amount > cap
  PUSH1 192 MLOAD
  PUSH1 128 MLOAD PUSH1 160 MLOAD ADD
  GT PUSH @capped JUMPI
  PUSH1 128 MLOAD PUSH1 160 MLOAD ADD PUSH1 0 SSTORE
  PUSH1 128 MLOAD
  CALLER {slot2}
  SADD
  STOP

total: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}

set_cap: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 1 SSTORE
  STOP

capped: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (crowdsale_fn::CONTRIBUTE, "contribute"),
            (crowdsale_fn::CONTRIBUTE_CAPPED, "contribute_capped"),
            (crowdsale_fn::TOTAL, "total"),
            (crowdsale_fn::SET_CAP, "set_cap"),
        ]),
        slot2 = asm_map_slot(2),
        ret = RETURN_M128,
    );
    assemble(&source).expect("crowdsale contract must assemble")
}

/// Batched payments: one debit, three commutative credits.
///
/// Storage: `balances[a]` at `keccak(a ++ 0)`.
pub fn batch_pay() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
pay3: JUMPDEST
  ; args: to1, a1, to2, a2, to3, a3 at words 1..6
  CALLER {slot0}
  PUSH1 128 MSTORE                             ; m128 = sender slot
  PUSH1 128 MLOAD SLOAD PUSH1 160 MSTORE       ; m160 = sender balance
  ; needed = a1 + a2 + a3
  PUSH1 64 CALLDATALOAD PUSH2 128 CALLDATALOAD ADD PUSH2 192 CALLDATALOAD ADD
  PUSH1 192 MSTORE                             ; m192 = needed
  PUSH1 192 MLOAD PUSH1 160 MLOAD LT PUSH @short JUMPI
  ; debit once
  PUSH1 192 MLOAD PUSH1 160 MLOAD SUB PUSH1 128 MLOAD SSTORE
  ; three commutative credits
  PUSH1 64 CALLDATALOAD
  PUSH1 32 CALLDATALOAD {slot0}
  SADD
  PUSH2 128 CALLDATALOAD
  PUSH1 96 CALLDATALOAD {slot0}
  SADD
  PUSH2 192 CALLDATALOAD
  PUSH2 160 CALLDATALOAD {slot0}
  SADD
  STOP

deposit: JUMPDEST
  PUSH1 32 CALLDATALOAD
  CALLER {slot0}
  SADD
  STOP

balance_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot0}
  SLOAD PUSH1 128 MSTORE
  {ret}

short: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (batch_pay_fn::PAY3, "pay3"),
            (batch_pay_fn::DEPOSIT, "deposit"),
            (batch_pay_fn::BALANCE_OF, "balance_of"),
        ]),
        slot0 = asm_map_slot(0),
        ret = RETURN_M128,
    );
    assemble(&source).expect("batch_pay contract must assemble")
}

/// Calldata-bounded airdrop — the loop-summarization showcase.
///
/// Storage: `balances[a]` at `keccak(a ++ 0)`.
///
/// `airdrop(start, amount, n)` guards `n ≤ 32` up front and then runs an
/// abort-free loop of commutative credits over the address range
/// `start … start + n − 1`. The analyzer recognizes the up-counting
/// induction variable, reads the trip bound off calldata word 3, clamps it
/// to 32 via the dominating guard, and summarizes the whole loop: the loop
/// head is a release point *inside* the summarized loop with a finite gas
/// bound, and C-SAG refinement unrolls the key family
/// `keccak((start + i) ++ 0)` at bind time instead of speculating.
pub fn airdrop() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
airdrop: JUMPDEST
  ; args: start @32, amount @64, n @96
  PUSH1 0 PUSH1 224 MSTORE                     ; m224 = i = 0
  PUSH1 32 PUSH1 96 CALLDATALOAD GT            ; n > 32 ?
  PUSH @toobig JUMPI
  ; the loop head below is the release point: nothing aborts past here
aloop: JUMPDEST
  PUSH1 96 CALLDATALOAD PUSH1 224 MLOAD LT     ; i < n ?
  ISZERO PUSH @adone JUMPI
  PUSH1 64 CALLDATALOAD                        ; amount
  PUSH1 224 MLOAD PUSH1 32 CALLDATALOAD ADD {slot0} ; keccak((start+i) ++ 0)
  SADD
  PUSH1 1 PUSH1 224 MLOAD ADD PUSH1 224 MSTORE ; i++
  PUSH @aloop JUMP
adone: JUMPDEST
  STOP

deposit: JUMPDEST
  PUSH1 32 CALLDATALOAD
  CALLER {slot0}
  SADD
  STOP

balance_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot0}
  SLOAD PUSH1 128 MSTORE
  {ret}

toobig: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (airdrop_fn::AIRDROP, "airdrop"),
            (airdrop_fn::DEPOSIT, "deposit"),
            (airdrop_fn::BALANCE_OF, "balance_of"),
        ]),
        slot0 = asm_map_slot(0),
        ret = RETURN_M128,
    );
    assemble(&source).expect("airdrop contract must assemble")
}

/// Snapshot-bounded batch transfer.
///
/// Storage: slot 0 = recipient count; `balances[a]` at `keccak(a ++ 1)`.
///
/// `batch(start, amount)` reads the trip count from storage, debits the
/// caller `amount × count` behind a balance check, and then credits each
/// recipient in an abort-free down-counting loop. The trip bound is
/// snapshot-derived (`TripSource::Snapshot` in the analysis crate's
/// terms): no static cap exists, but C-SAG refinement still unrolls the
/// loop at bind time against the concrete snapshot value.
pub fn batch_transfer() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
batch: JUMPDEST
  ; args: start @32, amount @64
  CALLER {slot1}
  PUSH1 128 MSTORE                             ; m128 = caller slot
  PUSH1 0 SLOAD PUSH1 160 MSTORE               ; m160 = count
  PUSH1 64 CALLDATALOAD PUSH1 160 MLOAD MUL
  PUSH1 192 MSTORE                             ; m192 = total = amount*count
  PUSH1 128 MLOAD SLOAD PUSH1 224 MSTORE       ; m224 = caller balance
  PUSH1 192 MLOAD PUSH1 224 MLOAD LT           ; balance < total ?
  PUSH @short JUMPI
  ; release point: debit once, then the abort-free credit loop
  PUSH1 192 MLOAD PUSH1 224 MLOAD SUB PUSH1 128 MLOAD SSTORE
  PUSH1 160 MLOAD PUSH2 256 MSTORE             ; m256 = i = count
bloop: JUMPDEST
  PUSH1 0 PUSH2 256 MLOAD GT                   ; i > 0 ?
  ISZERO PUSH @bdone JUMPI
  PUSH1 64 CALLDATALOAD                        ; amount
  PUSH1 1 PUSH2 256 MLOAD SUB
  PUSH1 32 CALLDATALOAD ADD {slot1}            ; keccak((start + i−1) ++ 1)
  SADD
  PUSH1 1 PUSH2 256 MLOAD SUB PUSH2 256 MSTORE ; i--
  PUSH @bloop JUMP
bdone: JUMPDEST
  STOP

deposit: JUMPDEST
  PUSH1 32 CALLDATALOAD
  CALLER {slot1}
  SADD
  STOP

set_count: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 0 SSTORE
  STOP

balance_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot1}
  SLOAD PUSH1 128 MSTORE
  {ret}

short: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (batch_transfer_fn::BATCH, "batch"),
            (batch_transfer_fn::DEPOSIT, "deposit"),
            (batch_transfer_fn::SET_COUNT, "set_count"),
            (batch_transfer_fn::BALANCE_OF, "balance_of"),
        ]),
        slot1 = asm_map_slot(1),
        ret = RETURN_M128,
    );
    assemble(&source).expect("batch_transfer contract must assemble")
}

/// A DEX router bound to one AMM pool: the cross-contract composition
/// pattern (aggregators, routers) that exercises nested `CALL` frames.
///
/// `quote` performs a read-only call into the pool; `swap_exact` quotes,
/// checks slippage (an abortable statement *between* two calls) and then
/// performs the swap. The swap's proceeds credit the router's own address
/// inside the pool.
pub fn dex_router(amm: dmvcc_primitives::Address) -> Vec<u8> {
    let amm_hex = dmvcc_primitives::encode_hex(amm.as_bytes());
    // CALL pops (gas, addr, value, args_off, args_len, ret_off, ret_len):
    // push in reverse order, gas last.
    let call_reserves = format!(
        r"
  PUSH1 4 PUSH1 0 MSTORE                      ; calldata: selector reserves()
  PUSH1 64 PUSH1 64                           ; ret_len, ret_off (m64..m128)
  PUSH1 32 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{amm_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
"
    );
    let source = format!(
        r"
{dispatch}
quote: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 224 MSTORE      ; m224 = amount_in
{call_reserves}
  ; out = r1 * in / (r0 + in)   with r0 = m64, r1 = m96
  PUSH1 224 MLOAD PUSH1 64 MLOAD ADD
  PUSH1 224 MLOAD PUSH1 96 MLOAD MUL
  DIV
  PUSH1 128 MSTORE
  PUSH1 32 PUSH1 128 RETURN

swap_exact: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 224 MSTORE      ; m224 = amount_in
  PUSH1 64 CALLDATALOAD PUSH2 256 MSTORE      ; m256 = min_out
{call_reserves}
  PUSH1 224 MLOAD PUSH1 64 MLOAD ADD
  PUSH1 224 MLOAD PUSH1 96 MLOAD MUL
  DIV
  PUSH2 288 MSTORE                            ; m288 = expected out
  ; slippage check: revert if expected < min_out
  PUSH2 256 MLOAD PUSH2 288 MLOAD LT PUSH @fail JUMPI
  ; swap_a_for_b(amount_in)
  PUSH1 1 PUSH1 0 MSTORE
  PUSH1 224 MLOAD PUSH1 32 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 64 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{amm_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  ; return the quoted amount
  PUSH2 288 MLOAD PUSH1 128 MSTORE
  {ret}

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (router_fn::QUOTE, "quote"),
            (router_fn::SWAP_EXACT, "swap_exact"),
        ]),
        ret = RETURN_M128,
    );
    assemble(&source).expect("dex_router contract must assemble")
}

/// Full DEX aggregator: one `swap` touches four contracts.
///
/// `swap(amount_in, min_out)` quotes the pool, enforces slippage, pulls
/// the input token from the trader into the pool's custody
/// (`token_a.transferFrom(trader, pool, amount_in)` — the trader must have
/// approved the router), executes the swap, and pays the trader from the
/// router's own inventory of the output token
/// (`token_b.transfer(trader, out)`). The write set spans the router's
/// callees: both token balance maps, both pool reserves, and the pool's
/// credit map.
pub fn dex_router2(
    amm: dmvcc_primitives::Address,
    token_a: dmvcc_primitives::Address,
    token_b: dmvcc_primitives::Address,
) -> Vec<u8> {
    let amm_hex = dmvcc_primitives::encode_hex(amm.as_bytes());
    let token_a_hex = dmvcc_primitives::encode_hex(token_a.as_bytes());
    let token_b_hex = dmvcc_primitives::encode_hex(token_b.as_bytes());
    let source = format!(
        r"
{dispatch}
swap: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 224 MSTORE      ; m224 = amount_in
  PUSH1 64 CALLDATALOAD PUSH2 256 MSTORE      ; m256 = min_out
  ; 1. quote: amm.reserves() -> m64 = r0, m96 = r1
  PUSH {reserves} PUSH1 0 MSTORE
  PUSH1 64 PUSH1 64                           ; ret_len, ret_off
  PUSH1 32 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{amm_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  PUSH1 224 MLOAD PUSH1 64 MLOAD ADD
  PUSH1 224 MLOAD PUSH1 96 MLOAD MUL
  DIV
  PUSH2 288 MSTORE                            ; m288 = out
  PUSH2 256 MLOAD PUSH2 288 MLOAD LT PUSH @fail JUMPI
  ; 2. pull the input token from the trader into the pool's custody:
  ;    token_a.transfer_from(trader, pool, amount_in)
  PUSH {transfer_from} PUSH1 0 MSTORE
  CALLER PUSH1 32 MSTORE
  PUSH20 0x{amm_hex} PUSH1 64 MSTORE
  PUSH1 224 MLOAD PUSH1 96 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 128 PUSH1 0                           ; args_len, args_off
  PUSH1 0 PUSH20 0x{token_a_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  ; 3. swap on the pool (credits the router inside the pool)
  PUSH {swap_a_for_b} PUSH1 0 MSTORE
  PUSH1 224 MLOAD PUSH1 32 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 64 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{amm_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  ; 4. pay the trader from the router's output-token inventory:
  ;    token_b.transfer(trader, out)
  PUSH {transfer} PUSH1 0 MSTORE
  CALLER PUSH1 32 MSTORE
  PUSH2 288 MLOAD PUSH1 64 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 96 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{token_b_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  PUSH2 288 MLOAD PUSH1 128 MSTORE
  {ret}

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[(router2_fn::SWAP, "swap")]),
        reserves = amm_fn::RESERVES,
        transfer_from = token_fn::TRANSFER_FROM,
        swap_a_for_b = amm_fn::SWAP_A_FOR_B,
        transfer = token_fn::TRANSFER,
        ret = RETURN_M128,
    );
    assemble(&source).expect("dex_router2 contract must assemble")
}

/// Flash-mint facility over a [`token`].
///
/// Storage: `fees[borrower]` at `keccak(borrower ++ 0)`.
///
/// `flash(amount)` mints `amount` to the borrower, accrues a 0.1 % fee to
/// the borrower's tab (commutative), then repays the principal with
/// `token.transferFrom(borrower, self, amount)` — the borrower must have
/// approved this contract. A borrower who cannot repay (allowance too
/// small) reverts the whole transaction, mint included: the nested revert
/// must unwind the caller's earlier callee effects.
pub fn flash_mint(token: dmvcc_primitives::Address) -> Vec<u8> {
    let token_hex = dmvcc_primitives::encode_hex(token.as_bytes());
    let source = format!(
        r"
{dispatch}
flash: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 224 MSTORE      ; m224 = amount
  ; 1. mint the loan to the borrower: token.mint(borrower, amount)
  PUSH {mint} PUSH1 0 MSTORE
  CALLER PUSH1 32 MSTORE
  PUSH1 224 MLOAD PUSH1 64 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 96 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{token_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  ; 2. accrue the 0.1 % fee commutatively: fees[borrower] += amount/1000
  PUSH 1000 PUSH1 224 MLOAD DIV
  CALLER {slot0}
  SADD
  ; 3. repay: token.transfer_from(borrower, self, amount)
  PUSH {transfer_from} PUSH1 0 MSTORE
  CALLER PUSH1 32 MSTORE
  ADDRESS PUSH1 64 MSTORE
  PUSH1 224 MLOAD PUSH1 96 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 128 PUSH1 0                           ; args_len, args_off
  PUSH1 0 PUSH20 0x{token_hex} GAS CALL
  ISZERO PUSH @fail JUMPI
  STOP

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[(flash_fn::FLASH, "flash")]),
        mint = token_fn::MINT,
        transfer_from = token_fn::TRANSFER_FROM,
        slot0 = asm_map_slot(0),
    );
    assemble(&source).expect("flash_mint contract must assemble")
}

/// Price oracle fanning updates out to registered consumers.
///
/// Storage: slot 0 = last price. `update(price)` stores the price and
/// `CALL`s every consumer's `on_price(price)` in registration order — a
/// one-to-many write fanout whose access set spans all consumers.
pub fn oracle(consumers: &[dmvcc_primitives::Address]) -> Vec<u8> {
    let fanout: String = consumers
        .iter()
        .map(|consumer| {
            let hex = dmvcc_primitives::encode_hex(consumer.as_bytes());
            format!(
                r"
  PUSH {on_price} PUSH1 0 MSTORE
  PUSH1 32 CALLDATALOAD PUSH1 32 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 64 PUSH1 0                            ; args_len, args_off
  PUSH1 0 PUSH20 0x{hex} GAS CALL
  ISZERO PUSH @fail JUMPI
",
                on_price = consumer_fn::ON_PRICE,
            )
        })
        .collect();
    let source = format!(
        r"
{dispatch}
update: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 0 SSTORE        ; price
{fanout}
  STOP
get: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[(oracle_fn::UPDATE, "update"), (oracle_fn::GET, "get")]),
        ret = RETURN_M128,
    );
    assemble(&source).expect("oracle contract must assemble")
}

/// Consumer of [`oracle`] price updates.
///
/// Storage: slot 0 = last observed price, slot 1 = update counter.
pub fn price_consumer() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
on_price: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 0 SSTORE
  PUSH1 1 PUSH1 1 SADD
  STOP
last: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}
",
        dispatch = dispatch(&[
            (consumer_fn::ON_PRICE, "on_price"),
            (consumer_fn::LAST, "last"),
        ]),
        ret = RETURN_M128,
    );
    assemble(&source).expect("price_consumer contract must assemble")
}

/// Royalty-splitter library body, meant to run under DELEGATECALL.
///
/// The storage it touches belongs to the *calling* collection
/// ([`nft_drop`] layout): slot 2 holds the creator's address, slot 3 the
/// platform's accrued fees. `payout(price)` accrues `price / 10` into
/// slot 3 (commutative) and forwards the remainder as a value-transferring
/// CALL to the creator address read from slot 2 — a registry-slot
/// recipient that only resolves per transaction (bounded dynamic
/// dispatch), debiting the calling collection's treasury balance.
pub fn royalty_splitter() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
payout: JUMPDEST
  PUSH1 32 CALLDATALOAD PUSH1 224 MSTORE      ; m224 = price
  PUSH {fee_div} PUSH1 224 MLOAD DIV
  PUSH1 192 MSTORE                            ; m192 = platform cut
  PUSH1 192 MLOAD PUSH1 3 SADD                ; fees += cut (caller's slot 3)
  ; pay the creator: value call to the address in the caller's slot 2
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 0 PUSH1 0                             ; args_len, args_off
  PUSH1 192 MLOAD PUSH1 224 MLOAD SUB         ; value = price - cut
  PUSH1 2 SLOAD                               ; recipient = registry slot 2
  GAS CALL
  ISZERO PUSH @fail JUMPI
  STOP

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[(splitter_fn::PAYOUT, "payout")]),
        fee_div = splitter_fn::FEE_DIVISOR,
    );
    assemble(&source).expect("royalty_splitter contract must assemble")
}

/// NFT drop collection: the mint-rush scenario with royalty payouts.
///
/// Storage: slot 0 = next token id (the hot sequence counter), slot 1 =
/// mint price, slot 2 = creator address (the splitter's payout registry
/// slot), slot 3 = accrued platform fees, `owners[id]` at
/// `keccak(id ++ 4)`.
///
/// `mint()` bumps the counter, records the minter, then DELEGATECALLs
/// [`royalty_splitter`]`::payout(price)` — the borrowed body writes this
/// collection's fee tab and pays the creator from this collection's
/// treasury balance. `preview()` STATICCALLs the [`floor_oracle`], whose
/// write-freedom the analyzer proves.
pub fn nft_drop(splitter: dmvcc_primitives::Address, oracle: dmvcc_primitives::Address) -> Vec<u8> {
    let splitter_hex = dmvcc_primitives::encode_hex(splitter.as_bytes());
    let oracle_hex = dmvcc_primitives::encode_hex(oracle.as_bytes());
    let source = format!(
        r"
{dispatch}
mint: JUMPDEST
  PUSH1 1 SLOAD PUSH1 224 MSTORE              ; m224 = mint price
  PUSH1 0 SLOAD PUSH1 192 MSTORE              ; m192 = next id
  PUSH1 1 PUSH1 192 MLOAD ADD PUSH1 0 SSTORE  ; bump the sequence counter
  CALLER PUSH1 192 MLOAD {slot4} SSTORE       ; owners[id] = minter
  ; royalty payout runs in *this* contract's storage context
  PUSH {payout} PUSH1 0 MSTORE
  PUSH1 224 MLOAD PUSH1 32 MSTORE
  PUSH1 0 PUSH1 0                             ; ret_len, ret_off
  PUSH1 64 PUSH1 0                            ; args_len, args_off
  PUSH20 0x{splitter_hex} GAS DELEGATECALL
  ISZERO PUSH @fail JUMPI
  PUSH1 192 MLOAD PUSH1 128 MSTORE            ; return the minted id
  {ret}

preview: JUMPDEST
  PUSH {get} PUSH1 0 MSTORE
  PUSH1 32 PUSH1 128                          ; ret_len, ret_off (m128)
  PUSH1 32 PUSH1 0                            ; args_len, args_off
  PUSH20 0x{oracle_hex} GAS STATICCALL
  ISZERO PUSH @fail JUMPI
  {ret}

owner_of: JUMPDEST
  PUSH1 32 CALLDATALOAD {slot4} SLOAD PUSH1 128 MSTORE
  {ret}

fail: JUMPDEST
  PUSH1 0 PUSH1 0 REVERT
",
        dispatch = dispatch(&[
            (drop_fn::MINT, "mint"),
            (drop_fn::PREVIEW, "preview"),
            (drop_fn::OWNER_OF, "owner_of"),
        ]),
        slot4 = asm_map_slot(4),
        payout = splitter_fn::PAYOUT,
        get = floor_fn::GET,
        ret = RETURN_M128,
    );
    assemble(&source).expect("nft_drop contract must assemble")
}

/// Write-free floor-price feed: the STATICCALL target of
/// [`nft_drop`]`::preview`.
///
/// Storage: slot 0 = floor price (seeded at genesis). No path contains a
/// store, so the interprocedural pass proves the contract write-free and
/// STATICCALL sites into it summarize without a `staticcall-writes` error.
pub fn floor_oracle() -> Vec<u8> {
    let source = format!(
        r"
{dispatch}
get: JUMPDEST
  PUSH1 0 SLOAD PUSH1 128 MSTORE
  {ret}
",
        dispatch = dispatch(&[(floor_fn::GET, "get")]),
        ret = RETURN_M128,
    );
    assemble(&source).expect("floor_oracle contract must assemble")
}

/// Slot of `B[i]` in [`fig1_example`].
pub fn fig1_b_slot(i: u64) -> U256 {
    keccak256(&U256::ONE.to_be_bytes())
        .to_u256()
        .wrapping_add(U256::from(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{calldata, BlockEnv, TxEnv};
    use crate::error::ExecStatus;
    use crate::host::{Host, MapHost};
    use crate::interpreter::{execute, ExecParams};
    use dmvcc_primitives::Address;
    use dmvcc_state::StateKey;

    const CONTRACT: u64 = 1000;

    fn call(
        host: &mut MapHost,
        code: &[u8],
        caller: u64,
        selector: u64,
        args: &[U256],
    ) -> crate::error::ExecOutcome {
        let tx = TxEnv::call(
            Address::from_u64(caller),
            Address::from_u64(CONTRACT),
            calldata(selector, args),
        );
        let block = BlockEnv::default();
        execute(&ExecParams::new(code, &tx, &block), host)
    }

    fn storage(host: &MapHost, slot: U256) -> U256 {
        host.get(&StateKey::storage(Address::from_u64(CONTRACT), slot))
    }

    #[test]
    fn token_mint_and_transfer() {
        let code = token();
        let mut host = MapHost::new();
        let alice = Address::from_u64(1).to_u256();
        let bob = Address::from_u64(2).to_u256();

        let out = call(
            &mut host,
            &code,
            9,
            token_fn::MINT,
            &[alice, U256::from(100u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, map_slot(alice, 1)), U256::from(100u64));
        assert_eq!(storage(&host, U256::ZERO), U256::from(100u64)); // totalSupply

        let out = call(
            &mut host,
            &code,
            1,
            token_fn::TRANSFER,
            &[bob, U256::from(30u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, map_slot(alice, 1)), U256::from(70u64));
        assert_eq!(storage(&host, map_slot(bob, 1)), U256::from(30u64));
    }

    #[test]
    fn token_transfer_insufficient_reverts() {
        let code = token();
        let mut host = MapHost::new();
        let bob = Address::from_u64(2).to_u256();
        let out = call(&mut host, &code, 1, token_fn::TRANSFER, &[bob, U256::ONE]);
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    #[test]
    fn token_balance_of_returns_value() {
        let code = token();
        let mut host = MapHost::new();
        let alice = Address::from_u64(1).to_u256();
        call(
            &mut host,
            &code,
            9,
            token_fn::MINT,
            &[alice, U256::from(55u64)],
        );
        let out = call(&mut host, &code, 3, token_fn::BALANCE_OF, &[alice]);
        assert_eq!(out.output_word(), U256::from(55u64));
    }

    #[test]
    fn token_approve_and_transfer_from() {
        let code = token();
        let mut host = MapHost::new();
        let alice = Address::from_u64(1).to_u256();
        let bob = Address::from_u64(2).to_u256();
        let carol = Address::from_u64(3).to_u256();
        call(
            &mut host,
            &code,
            9,
            token_fn::MINT,
            &[alice, U256::from(100u64)],
        );
        // Alice approves Bob for 40.
        let out = call(
            &mut host,
            &code,
            1,
            token_fn::APPROVE,
            &[bob, U256::from(40u64)],
        );
        assert!(out.status.is_success());
        assert_eq!(storage(&host, map_slot2(alice, bob, 2)), U256::from(40u64));
        // Bob moves 25 from Alice to Carol.
        let out = call(
            &mut host,
            &code,
            2,
            token_fn::TRANSFER_FROM,
            &[alice, carol, U256::from(25u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, map_slot(alice, 1)), U256::from(75u64));
        assert_eq!(storage(&host, map_slot(carol, 1)), U256::from(25u64));
        assert_eq!(storage(&host, map_slot2(alice, bob, 2)), U256::from(15u64));
        // Exceeding the remaining allowance reverts.
        let out = call(
            &mut host,
            &code,
            2,
            token_fn::TRANSFER_FROM,
            &[alice, carol, U256::from(30u64)],
        );
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    #[test]
    fn counter_increments() {
        let code = counter();
        let mut host = MapHost::new();
        call(&mut host, &code, 1, counter_fn::INCREMENT, &[]);
        call(&mut host, &code, 2, counter_fn::INCREMENT, &[]);
        call(&mut host, &code, 3, counter_fn::INCREMENT_CHECKED, &[]);
        call(&mut host, &code, 4, counter_fn::ADD, &[U256::from(10u64)]);
        let out = call(&mut host, &code, 5, counter_fn::GET, &[]);
        assert_eq!(out.output_word(), U256::from(13u64));
    }

    #[test]
    fn amm_swap_constant_product() {
        let code = amm();
        let mut host = MapHost::new();
        call(
            &mut host,
            &code,
            9,
            amm_fn::ADD_LIQUIDITY,
            &[U256::from(1000u64), U256::from(1000u64)],
        );
        assert_eq!(storage(&host, U256::ZERO), U256::from(1000u64));
        assert_eq!(storage(&host, U256::ONE), U256::from(1000u64));

        // Swap 100 A for B: out = 1000*100/1100 = 90.
        let out = call(
            &mut host,
            &code,
            1,
            amm_fn::SWAP_A_FOR_B,
            &[U256::from(100u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, U256::ZERO), U256::from(1100u64));
        assert_eq!(storage(&host, U256::ONE), U256::from(910u64));
        let trader = Address::from_u64(1).to_u256();
        assert_eq!(storage(&host, map_slot(trader, 2)), U256::from(90u64));
    }

    #[test]
    fn amm_swap_zero_reverts() {
        let code = amm();
        let mut host = MapHost::new();
        let out = call(&mut host, &code, 1, amm_fn::SWAP_A_FOR_B, &[U256::ZERO]);
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    #[test]
    fn amm_swap_directions_are_symmetric() {
        let code = amm();
        let mut host = MapHost::new();
        call(
            &mut host,
            &code,
            9,
            amm_fn::ADD_LIQUIDITY,
            &[U256::from(500u64), U256::from(2000u64)],
        );
        let out = call(
            &mut host,
            &code,
            1,
            amm_fn::SWAP_B_FOR_A,
            &[U256::from(100u64)],
        );
        assert!(out.status.is_success());
        // reserve B grew, reserve A shrank: out = 500*100/2100 = 23.
        assert_eq!(storage(&host, U256::ONE), U256::from(2100u64));
        assert_eq!(storage(&host, U256::ZERO), U256::from(477u64));
    }

    #[test]
    fn nft_mint_sequence_and_transfer() {
        let code = nft();
        let mut host = MapHost::new();
        let out = call(&mut host, &code, 1, nft_fn::MINT, &[]);
        assert!(out.status.is_success());
        assert_eq!(out.output_word(), U256::ZERO); // first id
        let out = call(&mut host, &code, 2, nft_fn::MINT, &[]);
        assert_eq!(out.output_word(), U256::ONE);
        assert_eq!(storage(&host, U256::ZERO), U256::from(2u64)); // next id

        let owner = call(&mut host, &code, 9, nft_fn::OWNER_OF, &[U256::ZERO]);
        assert_eq!(owner.output_word(), Address::from_u64(1).to_u256());

        // Owner transfers id 0 to account 5.
        let to = Address::from_u64(5).to_u256();
        let out = call(&mut host, &code, 1, nft_fn::TRANSFER, &[U256::ZERO, to]);
        assert!(out.status.is_success(), "{:?}", out.status);
        let owner = call(&mut host, &code, 9, nft_fn::OWNER_OF, &[U256::ZERO]);
        assert_eq!(owner.output_word(), to);
    }

    #[test]
    fn nft_transfer_by_non_owner_reverts() {
        let code = nft();
        let mut host = MapHost::new();
        call(&mut host, &code, 1, nft_fn::MINT, &[]);
        let to = Address::from_u64(5).to_u256();
        let out = call(&mut host, &code, 7, nft_fn::TRANSFER, &[U256::ZERO, to]);
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    #[test]
    fn ballot_votes_once_per_account() {
        let code = ballot();
        let mut host = MapHost::new();
        let p = U256::from(3u64);
        assert!(call(&mut host, &code, 1, ballot_fn::VOTE, &[p])
            .status
            .is_success());
        assert!(call(&mut host, &code, 2, ballot_fn::VOTE, &[p])
            .status
            .is_success());
        // Double vote reverts.
        assert_eq!(
            call(&mut host, &code, 1, ballot_fn::VOTE, &[p]).status,
            ExecStatus::Reverted
        );
        let out = call(&mut host, &code, 9, ballot_fn::VOTES, &[p]);
        assert_eq!(out.output_word(), U256::from(2u64));
    }

    #[test]
    fn fig1_branch2_updates_b0_b1() {
        let code = fig1_example();
        let mut host = MapHost::new();
        // A[x] defaults to 0 → branch 2; y = 7 ≤ 10.
        let x = Address::from_u64(42).to_u256();
        let out = call(
            &mut host,
            &code,
            1,
            fig1_fn::UPDATE_B,
            &[x, U256::from(7u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, fig1_b_slot(0)), U256::ZERO);
        assert_eq!(storage(&host, fig1_b_slot(1)), U256::from(7u64));
        // A second call accumulates on B[1].
        let out = call(
            &mut host,
            &code,
            2,
            fig1_fn::UPDATE_B,
            &[x, U256::from(5u64)],
        );
        assert!(out.status.is_success());
        assert_eq!(storage(&host, fig1_b_slot(1)), U256::from(12u64));
    }

    #[test]
    fn fig1_branch2_assert_reverts() {
        let code = fig1_example();
        let mut host = MapHost::new();
        let x = Address::from_u64(42).to_u256();
        let out = call(
            &mut host,
            &code,
            1,
            fig1_fn::UPDATE_B,
            &[x, U256::from(11u64)],
        );
        assert_eq!(out.status, ExecStatus::Reverted);
        // B[0] write was part of the reverted execution: the MapHost applied
        // it eagerly (hosts that buffer writes discard them; this documents
        // the difference — executors must honor `status` before committing).
    }

    #[test]
    fn fig1_branch1_loop_unrolls_by_idx() {
        let code = fig1_example();
        let mut host = MapHost::new();
        let x = Address::from_u64(42).to_u256();
        // Seed A[x] = 3 → loop i=3,2: B[3]=B[1]+y, B[2]=B[0]+y.
        call(&mut host, &code, 9, fig1_fn::SET_A, &[x, U256::from(3u64)]);
        // Seed B[0]=10, B[1]=20 via a branch-2 style setup: use set-like calls.
        // (Directly poke storage: this is a unit test.)
        host.sstore(
            StateKey::storage(Address::from_u64(CONTRACT), fig1_b_slot(0)),
            U256::from(10u64),
        )
        .unwrap();
        host.sstore(
            StateKey::storage(Address::from_u64(CONTRACT), fig1_b_slot(1)),
            U256::from(20u64),
        )
        .unwrap();
        let out = call(
            &mut host,
            &code,
            1,
            fig1_fn::UPDATE_B,
            &[x, U256::from(4u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, fig1_b_slot(3)), U256::from(24u64)); // B[1]+4
        assert_eq!(storage(&host, fig1_b_slot(2)), U256::from(14u64)); // B[0]+4
    }

    #[test]
    fn fig1_get_b_reads() {
        let code = fig1_example();
        let mut host = MapHost::new();
        host.sstore(
            StateKey::storage(Address::from_u64(CONTRACT), fig1_b_slot(2)),
            U256::from(77u64),
        )
        .unwrap();
        let out = call(&mut host, &code, 1, fig1_fn::GET_B, &[U256::from(2u64)]);
        assert_eq!(out.output_word(), U256::from(77u64));
    }

    #[test]
    fn auction_bidding_war() {
        let code = auction();
        let mut host = MapHost::new();
        // First bid of 100 by account 1.
        let out = call(&mut host, &code, 1, auction_fn::BID, &[U256::from(100u64)]);
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(out.logs.len(), 1);
        assert_eq!(out.logs[0].topics[0], Address::from_u64(1).to_u256());
        assert_eq!(out.logs[0].topics[1], U256::from(100u64));
        // Lower bid reverts.
        let out = call(&mut host, &code, 2, auction_fn::BID, &[U256::from(90u64)]);
        assert_eq!(out.status, ExecStatus::Reverted);
        // Higher bid wins; loser gets a refund credit.
        let out = call(&mut host, &code, 2, auction_fn::BID, &[U256::from(150u64)]);
        assert!(out.status.is_success());
        assert_eq!(storage(&host, U256::ZERO), U256::from(150u64));
        assert_eq!(storage(&host, U256::ONE), Address::from_u64(2).to_u256());
        let refund_slot = map_slot(Address::from_u64(1).to_u256(), 2);
        assert_eq!(storage(&host, refund_slot), U256::from(100u64));
        // Loser withdraws.
        let out = call(&mut host, &code, 1, auction_fn::WITHDRAW, &[]);
        assert!(out.status.is_success());
        assert_eq!(storage(&host, refund_slot), U256::ZERO);
        // Withdrawing nothing reverts.
        let out = call(&mut host, &code, 1, auction_fn::WITHDRAW, &[]);
        assert_eq!(out.status, ExecStatus::Reverted);
        // Read the highest bid.
        let out = call(&mut host, &code, 9, auction_fn::HIGHEST, &[]);
        assert_eq!(out.output_word(), U256::from(150u64));
    }

    #[test]
    fn crowdsale_contributions() {
        let code = crowdsale();
        let mut host = MapHost::new();
        call(
            &mut host,
            &code,
            1,
            crowdsale_fn::CONTRIBUTE,
            &[U256::from(30u64)],
        );
        call(
            &mut host,
            &code,
            2,
            crowdsale_fn::CONTRIBUTE,
            &[U256::from(20u64)],
        );
        let out = call(&mut host, &code, 9, crowdsale_fn::TOTAL, &[]);
        assert_eq!(out.output_word(), U256::from(50u64));
        let c1 = map_slot(Address::from_u64(1).to_u256(), 2);
        assert_eq!(storage(&host, c1), U256::from(30u64));
    }

    #[test]
    fn crowdsale_cap_enforced() {
        let code = crowdsale();
        let mut host = MapHost::new();
        call(
            &mut host,
            &code,
            9,
            crowdsale_fn::SET_CAP,
            &[U256::from(100u64)],
        );
        let out = call(
            &mut host,
            &code,
            1,
            crowdsale_fn::CONTRIBUTE_CAPPED,
            &[U256::from(80u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        // 80 + 30 > 100 → revert.
        let out = call(
            &mut host,
            &code,
            2,
            crowdsale_fn::CONTRIBUTE_CAPPED,
            &[U256::from(30u64)],
        );
        assert_eq!(out.status, ExecStatus::Reverted);
        // Exactly to the cap is fine.
        let out = call(
            &mut host,
            &code,
            2,
            crowdsale_fn::CONTRIBUTE_CAPPED,
            &[U256::from(20u64)],
        );
        assert!(out.status.is_success());
        assert_eq!(storage(&host, U256::ZERO), U256::from(100u64));
    }

    #[test]
    fn batch_pay_splits_and_reverts() {
        let code = batch_pay();
        let mut host = MapHost::new();
        call(
            &mut host,
            &code,
            1,
            batch_pay_fn::DEPOSIT,
            &[U256::from(100u64)],
        );
        let args = [
            Address::from_u64(2).to_u256(),
            U256::from(10u64),
            Address::from_u64(3).to_u256(),
            U256::from(20u64),
            Address::from_u64(4).to_u256(),
            U256::from(30u64),
        ];
        let out = call(&mut host, &code, 1, batch_pay_fn::PAY3, &args);
        assert!(out.status.is_success(), "{:?}", out.status);
        let bal = |i: u64| storage(&host, map_slot(Address::from_u64(i).to_u256(), 0));
        assert_eq!(bal(1), U256::from(40u64));
        assert_eq!(bal(2), U256::from(10u64));
        assert_eq!(bal(3), U256::from(20u64));
        assert_eq!(bal(4), U256::from(30u64));
        // Overspending reverts (needs 60, has 40).
        let out = call(&mut host, &code, 1, batch_pay_fn::PAY3, &args);
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    #[test]
    fn router_quote_reads_pool_via_call() {
        use crate::registry::CodeRegistry;
        let amm_addr = Address::from_u64(2_000);
        let router_addr = Address::from_u64(2_001);
        let registry = CodeRegistry::builder()
            .deploy(amm_addr, amm())
            .deploy(router_addr, dex_router(amm_addr))
            .build();
        let mut host = MapHost::new();
        // Seed reserves directly: r0 = 1000, r1 = 4000.
        host.sstore(StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64))
            .unwrap();
        host.sstore(StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64))
            .unwrap();
        let code = registry.code(&router_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            router_addr,
            calldata(router_fn::QUOTE, &[U256::from(100u64)]),
        );
        let block = BlockEnv::default();
        let params = ExecParams::new(&code, &tx, &block).with_registry(&registry);
        let out = crate::interpreter::execute(&params, &mut host);
        assert!(out.status.is_success(), "{:?}", out.status);
        // 4000 * 100 / 1100 = 363.
        assert_eq!(out.output_word(), U256::from(363u64));
    }

    #[test]
    fn router_swap_exact_executes_nested_swap() {
        use crate::registry::CodeRegistry;
        let amm_addr = Address::from_u64(2_000);
        let router_addr = Address::from_u64(2_001);
        let registry = CodeRegistry::builder()
            .deploy(amm_addr, amm())
            .deploy(router_addr, dex_router(amm_addr))
            .build();
        let mut host = MapHost::new();
        host.sstore(StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64))
            .unwrap();
        host.sstore(StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64))
            .unwrap();
        let code = registry.code(&router_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            router_addr,
            calldata(
                router_fn::SWAP_EXACT,
                &[U256::from(100u64), U256::from(300u64)],
            ),
        );
        let block = BlockEnv::default();
        let params = ExecParams::new(&code, &tx, &block).with_registry(&registry);
        let out = crate::interpreter::execute(&params, &mut host);
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(out.output_word(), U256::from(363u64));
        // The nested swap updated the pool's reserves.
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ZERO)),
            U256::from(1100u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ONE)),
            U256::from(3637u64)
        );
        // The router (the swap's caller) got the credit.
        let credit_slot = map_slot(router_addr.to_u256(), 2);
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, credit_slot)),
            U256::from(363u64)
        );
    }

    #[test]
    fn router_slippage_reverts_whole_tx() {
        use crate::registry::CodeRegistry;
        let amm_addr = Address::from_u64(2_000);
        let router_addr = Address::from_u64(2_001);
        let registry = CodeRegistry::builder()
            .deploy(amm_addr, amm())
            .deploy(router_addr, dex_router(amm_addr))
            .build();
        let mut host = MapHost::new();
        host.sstore(StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64))
            .unwrap();
        host.sstore(StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64))
            .unwrap();
        let code = registry.code(&router_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            router_addr,
            calldata(
                router_fn::SWAP_EXACT,
                &[U256::from(100u64), U256::from(10_000u64)], // impossible min_out
            ),
        );
        let block = BlockEnv::default();
        let params = ExecParams::new(&code, &tx, &block).with_registry(&registry);
        let out = crate::interpreter::execute(&params, &mut host);
        assert_eq!(out.status, ExecStatus::Reverted);
        // Reserves untouched (the quote is read-only).
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ZERO)),
            U256::from(1000u64)
        );
    }

    #[test]
    fn call_without_registry_fails_gracefully() {
        let amm_addr = Address::from_u64(2_000);
        let router_addr = Address::from_u64(2_001);
        let code = dex_router(amm_addr);
        let mut host = MapHost::new();
        let tx = TxEnv::call(
            Address::from_u64(1),
            router_addr,
            calldata(router_fn::QUOTE, &[U256::from(100u64)]),
        );
        // No registry: the CALL target resolves to "no code" → the call
        // trivially succeeds with empty return data → quote computes on
        // zero reserves (0 out).
        let out = crate::interpreter::execute(
            &ExecParams::new(&code, &tx, &BlockEnv::default()),
            &mut host,
        );
        assert!(out.status.is_success());
        assert_eq!(out.output_word(), U256::ZERO);
    }

    #[test]
    fn unknown_selector_is_noop() {
        for code in [
            token(),
            counter(),
            amm(),
            nft(),
            ballot(),
            fig1_example(),
            auction(),
            crowdsale(),
            batch_pay(),
            airdrop(),
            batch_transfer(),
        ] {
            let mut host = MapHost::new();
            let out = call(&mut host, &code, 1, 999, &[]);
            assert!(out.status.is_success());
            assert!(host.iter().count() == 0);
        }
    }

    #[test]
    fn airdrop_credits_the_address_range() {
        let code = airdrop();
        let mut host = MapHost::new();
        let start = Address::from_u64(50).to_u256();
        let out = call(
            &mut host,
            &code,
            1,
            airdrop_fn::AIRDROP,
            &[start, U256::from(7u64), U256::from(3u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        for i in 0..3u64 {
            assert_eq!(
                storage(&host, map_slot(start.wrapping_add(U256::from(i)), 0)),
                U256::from(7u64),
                "recipient {i}"
            );
        }
        assert_eq!(
            storage(&host, map_slot(start.wrapping_add(U256::from(3u64)), 0)),
            U256::ZERO
        );
    }

    #[test]
    fn airdrop_zero_recipients_is_a_noop() {
        let code = airdrop();
        let mut host = MapHost::new();
        let start = Address::from_u64(50).to_u256();
        let out = call(
            &mut host,
            &code,
            1,
            airdrop_fn::AIRDROP,
            &[start, U256::from(7u64), U256::ZERO],
        );
        assert!(out.status.is_success());
        assert_eq!(host.iter().count(), 0);
    }

    #[test]
    fn airdrop_over_cap_reverts() {
        let code = airdrop();
        let mut host = MapHost::new();
        let start = Address::from_u64(50).to_u256();
        let out = call(
            &mut host,
            &code,
            1,
            airdrop_fn::AIRDROP,
            &[start, U256::ONE, U256::from(airdrop_fn::MAX_RECIPIENTS + 1)],
        );
        assert_eq!(out.status, ExecStatus::Reverted);
        // Exactly the cap is fine.
        let out = call(
            &mut host,
            &code,
            1,
            airdrop_fn::AIRDROP,
            &[start, U256::ONE, U256::from(airdrop_fn::MAX_RECIPIENTS)],
        );
        assert!(out.status.is_success());
    }

    #[test]
    fn batch_transfer_debits_once_and_credits_count_recipients() {
        let code = batch_transfer();
        let mut host = MapHost::new();
        let alice = Address::from_u64(1).to_u256();
        let start = Address::from_u64(60).to_u256();
        call(
            &mut host,
            &code,
            1,
            batch_transfer_fn::DEPOSIT,
            &[U256::from(100u64)],
        );
        call(
            &mut host,
            &code,
            9,
            batch_transfer_fn::SET_COUNT,
            &[U256::from(4u64)],
        );
        let out = call(
            &mut host,
            &code,
            1,
            batch_transfer_fn::BATCH,
            &[start, U256::from(5u64)],
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(storage(&host, map_slot(alice, 1)), U256::from(80u64));
        for i in 0..4u64 {
            assert_eq!(
                storage(&host, map_slot(start.wrapping_add(U256::from(i)), 1)),
                U256::from(5u64),
                "recipient {i}"
            );
        }
    }

    #[test]
    fn batch_transfer_short_balance_reverts() {
        let code = batch_transfer();
        let mut host = MapHost::new();
        let start = Address::from_u64(60).to_u256();
        call(
            &mut host,
            &code,
            1,
            batch_transfer_fn::DEPOSIT,
            &[U256::from(9u64)],
        );
        call(
            &mut host,
            &code,
            9,
            batch_transfer_fn::SET_COUNT,
            &[U256::from(2u64)],
        );
        let out = call(
            &mut host,
            &code,
            1,
            batch_transfer_fn::BATCH,
            &[start, U256::from(5u64)],
        );
        assert_eq!(out.status, ExecStatus::Reverted);
    }

    /// Deploys the aggregator universe: pool, two tokens, router.
    fn router2_universe() -> (
        crate::registry::CodeRegistry,
        Address, // amm
        Address, // token_a
        Address, // token_b
        Address, // router
    ) {
        use crate::registry::CodeRegistry;
        let amm_addr = Address::from_u64(2_000);
        let token_a = Address::from_u64(2_002);
        let token_b = Address::from_u64(2_003);
        let router = Address::from_u64(2_004);
        let registry = CodeRegistry::builder()
            .deploy(amm_addr, amm())
            .deploy(token_a, token())
            .deploy(token_b, token())
            .deploy(router, dex_router2(amm_addr, token_a, token_b))
            .build();
        (registry, amm_addr, token_a, token_b, router)
    }

    #[test]
    fn router2_swap_moves_all_three_contracts() {
        let (registry, amm_addr, token_a, token_b, router) = router2_universe();
        let trader = Address::from_u64(1);
        let mut host = MapHost::new();
        // Pool reserves, trader's input tokens + approval, router's
        // output-token inventory.
        host.sstore(StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64))
            .unwrap();
        host.sstore(StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64))
            .unwrap();
        host.sstore(
            StateKey::storage(token_a, map_slot(trader.to_u256(), 1)),
            U256::from(500u64),
        )
        .unwrap();
        host.sstore(
            StateKey::storage(token_a, map_slot2(trader.to_u256(), router.to_u256(), 2)),
            U256::from(500u64),
        )
        .unwrap();
        host.sstore(
            StateKey::storage(token_b, map_slot(router.to_u256(), 1)),
            U256::from(10_000u64),
        )
        .unwrap();
        let code = registry.code(&router).unwrap();
        let tx = TxEnv::call(
            trader,
            router,
            calldata(router2_fn::SWAP, &[U256::from(100u64), U256::from(300u64)]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        // out = 4000 * 100 / 1100 = 363.
        assert_eq!(out.output_word(), U256::from(363u64));
        // Input token: trader debited, pool custody credited, allowance spent.
        assert_eq!(
            host.get(&StateKey::storage(token_a, map_slot(trader.to_u256(), 1))),
            U256::from(400u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(token_a, map_slot(amm_addr.to_u256(), 1))),
            U256::from(100u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(
                token_a,
                map_slot2(trader.to_u256(), router.to_u256(), 2)
            )),
            U256::from(400u64)
        );
        // Pool: reserves moved, router credited.
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ZERO)),
            U256::from(1100u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ONE)),
            U256::from(3637u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, map_slot(router.to_u256(), 2))),
            U256::from(363u64)
        );
        // Output token: trader paid from the router's inventory.
        assert_eq!(
            host.get(&StateKey::storage(token_b, map_slot(trader.to_u256(), 1))),
            U256::from(363u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(token_b, map_slot(router.to_u256(), 1))),
            U256::from(10_000u64 - 363)
        );
    }

    #[test]
    fn router2_unapproved_trader_reverts_whole_swap() {
        let (registry, amm_addr, _token_a, _token_b, router) = router2_universe();
        let trader = Address::from_u64(1);
        let mut host = MapHost::new();
        host.sstore(StateKey::storage(amm_addr, U256::ZERO), U256::from(1000u64))
            .unwrap();
        host.sstore(StateKey::storage(amm_addr, U256::ONE), U256::from(4000u64))
            .unwrap();
        // No token_a balance or approval → the transferFrom callee
        // reverts, which must unwind the whole transaction.
        let code = registry.code(&router).unwrap();
        let tx = TxEnv::call(
            trader,
            router,
            calldata(router2_fn::SWAP, &[U256::from(100u64), U256::ZERO]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert_eq!(out.status, ExecStatus::Reverted);
        assert_eq!(
            host.get(&StateKey::storage(amm_addr, U256::ZERO)),
            U256::from(1000u64),
            "reserves untouched after revert"
        );
    }

    #[test]
    fn flash_mint_accrues_fee_and_repays() {
        use crate::registry::CodeRegistry;
        let token_addr = Address::from_u64(2_000);
        let flash_addr = Address::from_u64(2_001);
        let registry = CodeRegistry::builder()
            .deploy(token_addr, token())
            .deploy(flash_addr, flash_mint(token_addr))
            .build();
        let borrower = Address::from_u64(1);
        let mut host = MapHost::new();
        // The borrower pre-approves the facility for the principal.
        host.sstore(
            StateKey::storage(
                token_addr,
                map_slot2(borrower.to_u256(), flash_addr.to_u256(), 2),
            ),
            U256::from(1_000_000u64),
        )
        .unwrap();
        let code = registry.code(&flash_addr).unwrap();
        let tx = TxEnv::call(
            borrower,
            flash_addr,
            calldata(flash_fn::FLASH, &[U256::from(5_000u64)]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        // Minted 5000 to the borrower, then pulled all 5000 back.
        assert_eq!(
            host.get(&StateKey::storage(
                token_addr,
                map_slot(borrower.to_u256(), 1)
            )),
            U256::ZERO
        );
        assert_eq!(
            host.get(&StateKey::storage(
                token_addr,
                map_slot(flash_addr.to_u256(), 1)
            )),
            U256::from(5_000u64)
        );
        // totalSupply grew by the principal; the fee tab grew by 0.1 %.
        assert_eq!(
            host.get(&StateKey::storage(token_addr, U256::ZERO)),
            U256::from(5_000u64)
        );
        assert_eq!(
            host.get(&StateKey::storage(
                flash_addr,
                map_slot(borrower.to_u256(), 0)
            )),
            U256::from(5u64)
        );
    }

    #[test]
    fn flash_mint_without_approval_unwinds_the_mint() {
        use crate::registry::CodeRegistry;
        let token_addr = Address::from_u64(2_000);
        let flash_addr = Address::from_u64(2_001);
        let registry = CodeRegistry::builder()
            .deploy(token_addr, token())
            .deploy(flash_addr, flash_mint(token_addr))
            .build();
        let borrower = Address::from_u64(1);
        let mut host = MapHost::new();
        let code = registry.code(&flash_addr).unwrap();
        let tx = TxEnv::call(
            borrower,
            flash_addr,
            calldata(flash_fn::FLASH, &[U256::from(5_000u64)]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert_eq!(out.status, ExecStatus::Reverted);
        // The raw interpreter has no per-frame write journal: the mint
        // landed on the host before the repay reverted. Discarding a
        // failed transaction's writes is the executor's job, so the
        // host-level residue here is the mint itself.
        assert_eq!(
            host.get(&StateKey::storage(
                token_addr,
                map_slot(borrower.to_u256(), 1)
            )),
            U256::from(5_000u64)
        );
    }

    #[test]
    fn oracle_update_fans_out_to_all_consumers() {
        use crate::registry::CodeRegistry;
        let oracle_addr = Address::from_u64(2_000);
        let consumers: Vec<Address> = (0..3).map(|i| Address::from_u64(2_010 + i)).collect();
        let mut builder = CodeRegistry::builder().deploy(oracle_addr, oracle(&consumers));
        for &c in &consumers {
            builder = builder.deploy(c, price_consumer());
        }
        let registry = builder.build();
        let mut host = MapHost::new();
        let code = registry.code(&oracle_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            oracle_addr,
            calldata(oracle_fn::UPDATE, &[U256::from(777u64)]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(
            host.get(&StateKey::storage(oracle_addr, U256::ZERO)),
            U256::from(777u64)
        );
        for &c in &consumers {
            assert_eq!(
                host.get(&StateKey::storage(c, U256::ZERO)),
                U256::from(777u64),
                "consumer {c:?} saw the price"
            );
            assert_eq!(
                host.get(&StateKey::storage(c, U256::ONE)),
                U256::ONE,
                "consumer {c:?} counted the update"
            );
        }
    }

    /// Deploys the mint-rush universe: drop + splitter + floor oracle,
    /// with the drop's storage and treasury seeded.
    fn mint_rush_universe() -> (crate::registry::CodeRegistry, Address, Address, MapHost) {
        use crate::registry::CodeRegistry;
        let drop_addr = Address::from_u64(2_000);
        let splitter_addr = Address::from_u64(2_001);
        let oracle_addr = Address::from_u64(2_002);
        let registry = CodeRegistry::builder()
            .deploy(drop_addr, nft_drop(splitter_addr, oracle_addr))
            .deploy(splitter_addr, royalty_splitter())
            .deploy(oracle_addr, floor_oracle())
            .build();
        let mut host = MapHost::new();
        let creator = Address::from_u64(777);
        // price = 100, creator in slot 2, treasury = 1000, floor = 55.
        host.sstore(StateKey::storage(drop_addr, U256::ONE), U256::from(100u64))
            .unwrap();
        host.sstore(
            StateKey::storage(drop_addr, U256::from(2u64)),
            creator.to_u256(),
        )
        .unwrap();
        host.sstore(StateKey::balance(drop_addr), U256::from(1000u64))
            .unwrap();
        host.sstore(
            StateKey::storage(oracle_addr, U256::ZERO),
            U256::from(55u64),
        )
        .unwrap();
        (registry, drop_addr, creator, host)
    }

    #[test]
    fn nft_drop_mint_pays_royalties_through_delegatecall() {
        let (registry, drop_addr, creator, mut host) = mint_rush_universe();
        let code = registry.code(&drop_addr).unwrap();
        let minter = Address::from_u64(1);
        let tx = TxEnv::call(minter, drop_addr, calldata(drop_fn::MINT, &[]));
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(out.output_word(), U256::ZERO); // first minted id
        assert_eq!(
            host.get(&StateKey::storage(drop_addr, U256::ZERO)),
            U256::ONE
        );
        assert_eq!(
            host.get(&StateKey::storage(drop_addr, map_slot(U256::ZERO, 4))),
            minter.to_u256()
        );
        // The delegatecalled splitter wrote the *drop's* storage and moved
        // the drop's treasury: fee tab 100/10 = 10 in slot 3, 90 to the
        // creator's balance.
        assert_eq!(
            host.get(&StateKey::storage(drop_addr, U256::from(3u64))),
            U256::from(10u64)
        );
        assert_eq!(host.get(&StateKey::balance(creator)), U256::from(90u64));
        assert_eq!(host.get(&StateKey::balance(drop_addr)), U256::from(910u64));
        // The splitter's own storage stayed untouched.
        let splitter_addr = Address::from_u64(2_001);
        assert_eq!(
            host.get(&StateKey::storage(splitter_addr, U256::from(3u64))),
            U256::ZERO
        );
    }

    #[test]
    fn nft_drop_mint_reverts_when_treasury_short() {
        let (registry, drop_addr, creator, mut host) = mint_rush_universe();
        host.sstore(StateKey::balance(drop_addr), U256::from(5u64))
            .unwrap();
        let code = registry.code(&drop_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            drop_addr,
            calldata(drop_fn::MINT, &[]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        // The inner value call fails (balance 5 < 90), the splitter
        // reverts, and the revert propagates out of the DELEGATECALL to
        // fail the whole mint. The recipient was never credited: an
        // insufficient-balance call pushes 0 without touching it. (As in
        // flash_mint_without_approval_unwinds_the_mint, the raw
        // interpreter has no write journal — discarding the failed tx's
        // counter bump is the executor's job.)
        assert_eq!(out.status, ExecStatus::Reverted);
        assert_eq!(host.get(&StateKey::balance(creator)), U256::ZERO);
        assert_eq!(host.get(&StateKey::balance(drop_addr)), U256::from(5u64));
    }

    #[test]
    fn nft_drop_preview_staticcalls_floor_oracle() {
        let (registry, drop_addr, _creator, mut host) = mint_rush_universe();
        let code = registry.code(&drop_addr).unwrap();
        let tx = TxEnv::call(
            Address::from_u64(1),
            drop_addr,
            calldata(drop_fn::PREVIEW, &[]),
        );
        let block = BlockEnv::default();
        let out = execute(
            &ExecParams::new(&code, &tx, &block).with_registry(&registry),
            &mut host,
        );
        assert!(out.status.is_success(), "{:?}", out.status);
        assert_eq!(out.output_word(), U256::from(55u64));
    }

    #[test]
    fn map_slot_matches_asm_derivation() {
        // The Rust-side map_slot must agree with the in-VM SHA3 derivation;
        // token_mint_and_transfer already proves it end to end. Check the
        // helper against a hand-built preimage too.
        let key = U256::from(0xabcdu64);
        let mut preimage = [0u8; 64];
        preimage[..32].copy_from_slice(&key.to_be_bytes());
        preimage[32..].copy_from_slice(&U256::from(7u64).to_be_bytes());
        assert_eq!(map_slot(key, 7), keccak256(&preimage).to_u256());
    }
}

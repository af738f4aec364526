//! Shared fixtures for the integration tests: a deterministic contract
//! universe and transaction builders spanning every contract kind.

use dmvcc_analysis::Analyzer;
use dmvcc_primitives::{Address, U256};
use dmvcc_vm::{calldata, contracts, CodeRegistry, Transaction, TxEnv};

/// Addresses of the fixture deployments.
pub const TOKEN: u64 = 10_001;
/// AMM pool address id.
pub const AMM: u64 = 10_002;
/// NFT collection address id.
pub const NFT: u64 = 10_003;
/// Counter address id.
pub const COUNTER: u64 = 10_004;
/// Ballot address id.
pub const BALLOT: u64 = 10_005;
/// Fig. 1 example address id.
pub const FIG1: u64 = 10_006;
/// DEX router address id (bound to [`AMM`]).
pub const ROUTER: u64 = 10_007;
/// Calldata-bounded airdrop loop address id.
pub const AIRDROP: u64 = 10_008;
/// Snapshot-bounded batch-transfer loop address id.
pub const BATCH_TRANSFER: u64 = 10_009;
/// Input token of the aggregator router.
pub const TOKEN_A: u64 = 10_010;
/// Output token of the aggregator router.
pub const TOKEN_B: u64 = 10_011;
/// Aggregator router address id (binds [`AMM`], [`TOKEN_A`], [`TOKEN_B`]).
pub const ROUTER2: u64 = 10_012;
/// Flash-mint facility address id (binds [`TOKEN_A`]).
pub const FLASH: u64 = 10_013;
/// Price oracle address id (fans out to the consumers).
pub const ORACLE: u64 = 10_014;
/// First price-consumer address id.
pub const CONSUMER1: u64 = 10_015;
/// Second price-consumer address id.
pub const CONSUMER2: u64 = 10_016;
/// NFT drop address id (DELEGATECALLs [`SPLITTER`], STATICCALLs [`FLOOR`]).
pub const DROP: u64 = 10_017;
/// Royalty-splitter library address id (runs in the drop's storage).
pub const SPLITTER: u64 = 10_018;
/// Write-free floor-price oracle address id.
pub const FLOOR: u64 = 10_019;
/// Creator account paid by the drop's royalty value-CALL.
pub const CREATOR: u64 = 7;

/// Deploys one contract of every kind.
pub fn registry() -> CodeRegistry {
    let consumers = [Address::from_u64(CONSUMER1), Address::from_u64(CONSUMER2)];
    CodeRegistry::builder()
        .deploy(Address::from_u64(TOKEN), contracts::token())
        .deploy(Address::from_u64(AMM), contracts::amm())
        .deploy(Address::from_u64(NFT), contracts::nft())
        .deploy(Address::from_u64(COUNTER), contracts::counter())
        .deploy(Address::from_u64(BALLOT), contracts::ballot())
        .deploy(Address::from_u64(FIG1), contracts::fig1_example())
        .deploy(
            Address::from_u64(ROUTER),
            contracts::dex_router(Address::from_u64(AMM)),
        )
        .deploy(Address::from_u64(AIRDROP), contracts::airdrop())
        .deploy(
            Address::from_u64(BATCH_TRANSFER),
            contracts::batch_transfer(),
        )
        .deploy(Address::from_u64(TOKEN_A), contracts::token())
        .deploy(Address::from_u64(TOKEN_B), contracts::token())
        .deploy(
            Address::from_u64(ROUTER2),
            contracts::dex_router2(
                Address::from_u64(AMM),
                Address::from_u64(TOKEN_A),
                Address::from_u64(TOKEN_B),
            ),
        )
        .deploy(
            Address::from_u64(FLASH),
            contracts::flash_mint(Address::from_u64(TOKEN_A)),
        )
        .deploy(Address::from_u64(ORACLE), contracts::oracle(&consumers))
        .deploy(consumers[0], contracts::price_consumer())
        .deploy(consumers[1], contracts::price_consumer())
        .deploy(
            Address::from_u64(DROP),
            contracts::nft_drop(Address::from_u64(SPLITTER), Address::from_u64(FLOOR)),
        )
        .deploy(Address::from_u64(SPLITTER), contracts::royalty_splitter())
        .deploy(Address::from_u64(FLOOR), contracts::floor_oracle())
        .build()
}

/// An analyzer over [`registry`].
pub fn analyzer() -> Analyzer {
    Analyzer::new(registry())
}

/// A compact encoding of a transaction for property-test generation:
/// `(contract_choice, selector_choice, caller, a, b)` — every value of the
/// tuple space maps to a *valid* transaction, so proptest shrinking stays
/// in-domain.
pub fn decode_tx(choice: u8, selector: u8, caller: u8, a: u8, b: u8) -> Transaction {
    let caller_addr = Address::from_u64(1 + caller as u64 % 12);
    let peer = Address::from_u64(1 + a as u64 % 12).to_u256();
    let small = U256::from(1 + b as u64 % 40);
    match choice % 7 {
        0 => Transaction::transfer(caller_addr, Address::from_u64(1 + a as u64 % 12), small),
        1 => {
            let sel = match selector % 4 {
                0 => contracts::token_fn::TRANSFER,
                1 => contracts::token_fn::MINT,
                2 => contracts::token_fn::APPROVE,
                _ => contracts::token_fn::BALANCE_OF,
            };
            Transaction::call(TxEnv::call(
                caller_addr,
                Address::from_u64(TOKEN),
                calldata(sel, &[peer, small]),
            ))
        }
        2 => {
            let sel = match selector % 3 {
                0 => contracts::amm_fn::SWAP_A_FOR_B,
                1 => contracts::amm_fn::SWAP_B_FOR_A,
                _ => contracts::amm_fn::ADD_LIQUIDITY,
            };
            Transaction::call(TxEnv::call(
                caller_addr,
                Address::from_u64(AMM),
                calldata(sel, &[small, small]),
            ))
        }
        3 => {
            let sel = match selector % 3 {
                0 => contracts::nft_fn::MINT,
                1 => contracts::nft_fn::TRANSFER,
                _ => contracts::nft_fn::OWNER_OF,
            };
            Transaction::call(TxEnv::call(
                caller_addr,
                Address::from_u64(NFT),
                calldata(sel, &[U256::from(a as u64 % 5), peer]),
            ))
        }
        4 => {
            let sel = match selector % 3 {
                0 => contracts::counter_fn::INCREMENT,
                1 => contracts::counter_fn::INCREMENT_CHECKED,
                _ => contracts::counter_fn::ADD,
            };
            Transaction::call(TxEnv::call(
                caller_addr,
                Address::from_u64(COUNTER),
                calldata(sel, &[small]),
            ))
        }
        5 => {
            let sel = match selector % 3 {
                0 => contracts::fig1_fn::UPDATE_B,
                1 => contracts::fig1_fn::SET_A,
                _ => contracts::ballot_fn::VOTE,
            };
            let target = if selector % 3 == 2 { BALLOT } else { FIG1 };
            Transaction::call(TxEnv::call(
                caller_addr,
                Address::from_u64(target),
                calldata(sel, &[peer, U256::from(b as u64 % 14)]),
            ))
        }
        _ => {
            // Cross-contract composition: quotes and swaps through the
            // router (nested CALL frames; slippage reverts included).
            let input = match selector % 3 {
                0 => calldata(contracts::router_fn::QUOTE, &[small]),
                1 => calldata(contracts::router_fn::SWAP_EXACT, &[small, U256::ZERO]),
                _ => calldata(
                    contracts::router_fn::SWAP_EXACT,
                    &[small, U256::MAX], // impossible slippage bound
                ),
            };
            Transaction::call(TxEnv::call(caller_addr, Address::from_u64(ROUTER), input))
        }
    }
}

/// [`decode_tx`] with a sixth generated byte deciding whether the
/// transaction's prediction is *withheld* (`true`: its caller replaces the
/// C-SAG with [`dmvcc_analysis::CSag::optimistic`]). Roughly a quarter of
/// the tuple space withholds, so property tests exercise blocks where the
/// hybrid executor has an optimistic population while the rest stay
/// predictive.
pub fn decode_tx_opaque(
    choice: u8,
    selector: u8,
    caller: u8,
    a: u8,
    b: u8,
    opaque: u8,
) -> (Transaction, bool) {
    let tx = decode_tx(choice, selector, caller, a, b);
    (tx, opaque.is_multiple_of(4))
}

/// Genesis entries funding the fixture accounts and pools.
pub fn genesis() -> Vec<(dmvcc_state::StateKey, U256)> {
    use dmvcc_state::StateKey;
    let mut entries = Vec::new();
    for i in 1..=12u64 {
        entries.push((
            StateKey::balance(Address::from_u64(i)),
            U256::from(10_000u64),
        ));
        entries.push((
            StateKey::storage(
                Address::from_u64(TOKEN),
                contracts::map_slot(Address::from_u64(i).to_u256(), 1),
            ),
            U256::from(5_000u64),
        ));
    }
    entries.push((
        StateKey::storage(Address::from_u64(AMM), U256::ZERO),
        U256::from(100_000u64),
    ));
    entries.push((
        StateKey::storage(Address::from_u64(AMM), U256::ONE),
        U256::from(100_000u64),
    ));
    // Batch-transfer fixture: recipient count in slot 0 plus a balance for
    // every caller (the batch loop debits `amount × count` up front).
    entries.push((
        StateKey::storage(Address::from_u64(BATCH_TRANSFER), U256::ZERO),
        U256::from(5u64),
    ));
    for i in 1..=12u64 {
        entries.push((
            StateKey::storage(
                Address::from_u64(BATCH_TRANSFER),
                contracts::map_slot(Address::from_u64(i).to_u256(), 1),
            ),
            U256::from(100_000u64),
        ));
    }
    // Aggregator/flash universe: every caller holds the input token and
    // pre-approves both the router (swap pull) and the flash facility
    // (repay pull); the router holds output-token inventory.
    for i in 1..=12u64 {
        let who = Address::from_u64(i).to_u256();
        entries.push((
            StateKey::storage(Address::from_u64(TOKEN_A), contracts::map_slot(who, 1)),
            U256::from(5_000u64),
        ));
        entries.push((
            StateKey::storage(
                Address::from_u64(TOKEN_A),
                contracts::map_slot2(who, Address::from_u64(ROUTER2).to_u256(), 2),
            ),
            U256::from(1_000_000u64),
        ));
        entries.push((
            StateKey::storage(
                Address::from_u64(TOKEN_A),
                contracts::map_slot2(who, Address::from_u64(FLASH).to_u256(), 2),
            ),
            U256::from(1_000_000u64),
        ));
    }
    entries.push((
        StateKey::storage(
            Address::from_u64(TOKEN_B),
            contracts::map_slot(Address::from_u64(ROUTER2).to_u256(), 1),
        ),
        U256::from(1_000_000u64),
    ));
    // Mint-rush universe: mint price, creator registry slot, a treasury
    // able to cover many royalty payouts, and a published floor price.
    entries.push((
        StateKey::storage(Address::from_u64(DROP), U256::ONE),
        U256::from(100u64),
    ));
    entries.push((
        StateKey::storage(Address::from_u64(DROP), U256::from(2u64)),
        Address::from_u64(CREATOR).to_u256(),
    ));
    entries.push((
        StateKey::balance(Address::from_u64(DROP)),
        U256::from(1_000_000u64),
    ));
    entries.push((
        StateKey::storage(Address::from_u64(FLOOR), U256::ZERO),
        U256::from(55u64),
    ));
    entries
}

/// A compact encoding of a *call-heavy* transaction: every tuple value
/// maps to a valid cross-contract call — aggregator swaps through four
/// frames (happy path and slippage revert), flash mints with in-tx
/// repayment, oracle fanout updates, and the single-hop router quotes —
/// so property tests drive the interprocedural bind path end to end.
pub fn decode_router_tx(selector: u8, caller: u8, a: u8, b: u8) -> Transaction {
    let caller_addr = Address::from_u64(1 + caller as u64 % 12);
    let amount = U256::from(1 + a as u64 % 40);
    match selector % 8 {
        // Aggregator swap, generous slippage bound: four frames deep.
        0..=2 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(ROUTER2),
            calldata(contracts::router2_fn::SWAP, &[amount, U256::ZERO]),
        )),
        // Impossible slippage bound: the caller-side check reverts
        // between the reserve read and the state-moving calls.
        3 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(ROUTER2),
            calldata(contracts::router2_fn::SWAP, &[amount, U256::MAX]),
        )),
        // Flash mint: the repay pull must observe the minted balance.
        4..=5 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(FLASH),
            calldata(contracts::flash_fn::FLASH, &[amount]),
        )),
        // Oracle update: one call frame per subscribed consumer.
        6 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(ORACLE),
            calldata(contracts::oracle_fn::UPDATE, &[U256::from(b as u64)]),
        )),
        // Single-hop quote through the original router.
        _ => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(ROUTER),
            calldata(contracts::router_fn::QUOTE, &[amount]),
        )),
    }
}

/// A compact encoding of a *call-family* transaction against the
/// mint-rush fixtures: every tuple value maps to a valid call that
/// exercises DELEGATECALL context rebinding (mint royalties run the
/// splitter in the drop's storage), value-transferring CALLs with their
/// implicit balance accesses (the creator payout), bounded dynamic
/// dispatch (the payout target is loaded from registry slot 2),
/// STATICCALL write-freedom (floor preview), or the plain storage read of
/// `owner_of` — so property tests drive the whole call family end to end.
pub fn decode_drop_tx(selector: u8, caller: u8, a: u8) -> Transaction {
    let caller_addr = Address::from_u64(1 + caller as u64 % 12);
    let input = match selector % 8 {
        // The mint rush itself: sequence-counter RMW, owner write,
        // DELEGATECALL royalty split, bounded-dynamic value payout.
        0..=4 => calldata(contracts::drop_fn::MINT, &[]),
        // Floor preview: STATICCALL into the write-free oracle.
        5..=6 => calldata(contracts::drop_fn::PREVIEW, &[]),
        // Plain read of a (usually unminted) token's owner slot.
        _ => calldata(contracts::drop_fn::OWNER_OF, &[U256::from(a as u64 % 50)]),
    };
    Transaction::call(TxEnv::call(caller_addr, Address::from_u64(DROP), input))
}

/// A compact encoding of a *loop-heavy* transaction: every tuple value maps
/// to a valid call against the airdrop or batch-transfer fixture, spanning
/// taken loops (1..=32 iterations), zero-trip loops, the over-cap revert
/// path and the loop-free selectors.
pub fn decode_loop_tx(selector: u8, caller: u8, a: u8, b: u8) -> Transaction {
    let caller_addr = Address::from_u64(1 + caller as u64 % 12);
    let start = Address::from_u64(500 + a as u64 % 48).to_u256();
    let amount = U256::from(1 + b as u64 % 20);
    match selector % 8 {
        // Taken airdrop loop: 0..=32 recipients (n = 0 is a zero-trip loop).
        0..=2 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(AIRDROP),
            calldata(
                contracts::airdrop_fn::AIRDROP,
                &[start, amount, U256::from(a as u64 % 33)],
            ),
        )),
        // Over-cap revert: the guard clamp (`require(n <= 32)`) aborts.
        3 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(AIRDROP),
            calldata(
                contracts::airdrop_fn::AIRDROP,
                &[start, amount, U256::from(33 + b as u64 % 8)],
            ),
        )),
        4 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(AIRDROP),
            calldata(contracts::airdrop_fn::BALANCE_OF, &[start]),
        )),
        // Snapshot-bounded batch loop (count read from slot 0 at bind time).
        5..=6 => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(BATCH_TRANSFER),
            calldata(contracts::batch_transfer_fn::BATCH, &[start, amount]),
        )),
        _ => Transaction::call(TxEnv::call(
            caller_addr,
            Address::from_u64(BATCH_TRANSFER),
            calldata(contracts::batch_transfer_fn::DEPOSIT, &[amount]),
        )),
    }
}

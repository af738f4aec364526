//! Synthetic workload generation calibrated to the paper's dataset (§V-B).
//!
//! The paper evaluates on four months of Ethereum mainnet traffic: 31 %
//! plain Ether transfers and 69 % contract calls, of which ~60 % ERC20
//! token traffic, ~29 % DeFi and ~10 % NFTs, spread over tens of thousands
//! of contracts. That trace is not redistributable, so this crate
//! regenerates its *shape*: a deterministic, seeded generator producing
//! blocks with the same category mix, plus the skewed variant used for the
//! high-contention experiments ("we selected 1 % of the smart contracts as
//! the hot contracts and each transaction has a 50 % probability to access
//! the hot accounts").
//!
//! # Examples
//!
//! ```
//! use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};
//!
//! let mut generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(42));
//! let block = generator.block(100);
//! assert_eq!(block.len(), 100);
//! // Deterministic: same seed, same block.
//! let mut again = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(42));
//! assert_eq!(again.block(100), block);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmvcc_primitives::{Address, U256};
use dmvcc_state::StateKey;
use dmvcc_vm::{calldata, contracts, CodeRegistry, Transaction, TxEnv};

/// The kind of contract deployed at an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractKind {
    /// ERC20-style token.
    Token,
    /// Constant-product AMM pool.
    Amm,
    /// NFT collection (hot mint counter).
    Nft,
    /// Shared counter.
    Counter,
    /// One-vote ballot.
    Ballot,
    /// The paper's Fig. 1 example (runtime-dependent keys).
    Fig1,
    /// English auction (hot highest-bid RMW chain + commutative refunds).
    Auction,
    /// Crowdsale / ICO (fully commutative contributions).
    Crowdsale,
    /// Batched payments (one debit, three commutative credits).
    BatchPay,
    /// Calldata-bounded airdrop (summarizable credit loop, `n ≤ 32`).
    Airdrop,
    /// Snapshot-bounded batch transfer (loop count read from storage).
    BatchTransfer,
    /// DEX router bound to one AMM (nested CALL frames).
    Router,
    /// Aggregator router bound to an AMM and a token pair (four-frame
    /// swaps: reserve quote, transferFrom pull, pool swap, payout).
    Router2,
    /// Flash-mint facility bound to one token (mint + same-tx repay).
    Flash,
    /// Price oracle fanning out one call per subscribed consumer.
    Oracle,
    /// Price consumer (called by an oracle; receives no direct traffic).
    Consumer,
    /// NFT drop collection (mint-rush hot counter + delegatecalled
    /// royalty payouts + staticcalled floor checks).
    Drop,
    /// Royalty-splitter library body (delegatecalled by drops; receives no
    /// direct traffic).
    Splitter,
    /// Write-free floor-price feed (staticcalled by drops; receives no
    /// direct traffic).
    FloorOracle,
}

/// Consumers subscribed to each deployed oracle.
const ORACLE_CONSUMERS: usize = 3;

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed — everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of user accounts.
    pub accounts: usize,
    /// Token contract count (ERC20 category).
    pub token_contracts: usize,
    /// AMM pool count (DeFi category).
    pub amm_contracts: usize,
    /// NFT collection count.
    pub nft_contracts: usize,
    /// Shared counters ("other" category).
    pub counter_contracts: usize,
    /// Ballots ("other" category).
    pub ballot_contracts: usize,
    /// Fig. 1 example deployments ("other" category; exercises
    /// key-resolution mispredictions).
    pub fig1_contracts: usize,
    /// English auctions ("other" category).
    pub auction_contracts: usize,
    /// Crowdsales ("other" category; ICO-style commutative hot spots).
    pub crowdsale_contracts: usize,
    /// Batch-payment contracts ("other" category).
    pub batch_pay_contracts: usize,
    /// Airdrop contracts ("other" category; calldata-bounded loops the
    /// analyzer summarizes and unrolls at bind time).
    pub airdrop_contracts: usize,
    /// Batch-transfer contracts ("other" category; snapshot-bounded loops).
    pub batch_transfer_contracts: usize,
    /// DEX routers (DeFi category; each binds to an AMM round-robin).
    pub router_contracts: usize,
    /// Aggregator routers (DeFi category; each binds an AMM and an
    /// input/output token pair round-robin).
    pub router2_contracts: usize,
    /// Flash-mint facilities (DeFi category; each binds one token).
    pub flash_contracts: usize,
    /// Price oracles ("other" category; each deploys its own
    /// `ORACLE_CONSUMERS` consumers and fans out to them).
    pub oracle_contracts: usize,
    /// NFT drop collections (NFT category; each deploys its own royalty
    /// splitter and floor oracle — the call-family trio: DELEGATECALL
    /// payouts, value-transferring creator credits through a registry
    /// slot, and STATICCALL floor checks).
    pub drop_contracts: usize,
    /// Fraction of plain Ether transfers (the paper's non-contract 31 %).
    pub transfer_ratio: f64,
    /// Within contract calls: fraction hitting tokens (~0.60).
    pub erc20_share: f64,
    /// Within contract calls: fraction hitting DeFi pools (~0.29).
    pub defi_share: f64,
    /// Within contract calls: fraction hitting NFTs (~0.10); the remainder
    /// goes to counters/ballots/Fig. 1.
    pub nft_share: f64,
    /// Fraction of contracts designated *hot* (paper: 0.01). Zero disables
    /// skew.
    pub hot_contract_fraction: f64,
    /// Probability that a contract call targets a hot contract (paper: 0.5).
    pub hot_access_probability: f64,
    /// Zipf exponent for contract popularity within a pool (0 = uniform).
    /// Real Ethereum traffic is heavy-tailed: a handful of token/DEX
    /// contracts dominate, which is what caps DAG/OCC speedups on the
    /// paper's mainnet trace.
    pub contract_zipf: f64,
    /// Zipf exponent for account popularity (0 = uniform). Popular
    /// accounts (exchanges, airdrop distributors) concentrate balance-slot
    /// traffic — commutative credits under DMVCC, conflicts elsewhere.
    pub account_zipf: f64,
    /// Probability that a token transaction is a mint/credit (the
    /// ICO/airdrop pattern the paper names as the canonical hot scenario:
    /// a commutative credit plus a `totalSupply += x` on one shared slot).
    pub token_mint_bias: f64,
    /// Number of designated hot accounts (0 disables).
    pub hot_accounts: usize,
    /// Probability that an account pick lands on a hot account — the
    /// paper's "each transaction has a 50 % probability to access the hot
    /// accounts".
    pub hot_account_probability: f64,
}

impl WorkloadConfig {
    /// The realistic mainnet-shaped mix (low contention) used by Fig. 7(a)
    /// and Fig. 8(a).
    pub fn ethereum_mix(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            accounts: 2_000,
            token_contracts: 120,
            amm_contracts: 60,
            nft_contracts: 20,
            counter_contracts: 4,
            ballot_contracts: 4,
            fig1_contracts: 4,
            auction_contracts: 2,
            crowdsale_contracts: 2,
            batch_pay_contracts: 2,
            airdrop_contracts: 2,
            batch_transfer_contracts: 2,
            router_contracts: 20,
            router2_contracts: 4,
            flash_contracts: 2,
            oracle_contracts: 2,
            drop_contracts: 0,
            transfer_ratio: 0.31,
            erc20_share: 0.60,
            defi_share: 0.29,
            nft_share: 0.10,
            hot_contract_fraction: 0.0,
            hot_access_probability: 0.0,
            contract_zipf: 1.5,
            account_zipf: 1.0,
            token_mint_bias: 0.15,
            hot_accounts: 0,
            hot_account_probability: 0.0,
        }
    }

    /// The skewed high-contention mix used by Fig. 7(b) and Fig. 8(b):
    /// 1 % hot contracts, 50 % probability of hitting one.
    pub fn high_contention(seed: u64) -> Self {
        WorkloadConfig {
            hot_contract_fraction: 0.01,
            hot_access_probability: 0.5,
            contract_zipf: 1.5,
            account_zipf: 1.5,
            token_mint_bias: 0.60,
            hot_accounts: 16,
            hot_account_probability: 0.5,
            ..WorkloadConfig::ethereum_mix(seed)
        }
    }

    /// Loop-heavy mix: traffic dominated by the airdrop and batch-transfer
    /// contracts, exercising loop summarization and bind-time unrolling end
    /// to end (the `loop` DST profile and the bench's loop axis).
    pub fn loop_heavy(seed: u64) -> Self {
        WorkloadConfig {
            token_contracts: 8,
            amm_contracts: 2,
            nft_contracts: 2,
            counter_contracts: 0,
            ballot_contracts: 0,
            fig1_contracts: 2,
            auction_contracts: 0,
            crowdsale_contracts: 0,
            batch_pay_contracts: 0,
            airdrop_contracts: 8,
            batch_transfer_contracts: 8,
            router_contracts: 0,
            router2_contracts: 0,
            flash_contracts: 0,
            oracle_contracts: 0,
            transfer_ratio: 0.10,
            erc20_share: 0.10,
            defi_share: 0.05,
            nft_share: 0.05,
            // Uniform popularity: zipf would pile the "other" traffic onto
            // whichever contract deployed first (fig1) instead of the
            // airdrop/batch-transfer fleet.
            contract_zipf: 0.0,
            ..WorkloadConfig::ethereum_mix(seed)
        }
    }

    /// Call-heavy mix: traffic dominated by the aggregator routers,
    /// flash-mint facilities and oracle fanouts, exercising composed
    /// interprocedural binding end to end (the `call` DST profile and the
    /// bench's call axis).
    pub fn call_heavy(seed: u64) -> Self {
        WorkloadConfig {
            token_contracts: 8,
            amm_contracts: 4,
            nft_contracts: 2,
            counter_contracts: 0,
            ballot_contracts: 0,
            fig1_contracts: 2,
            auction_contracts: 0,
            crowdsale_contracts: 0,
            batch_pay_contracts: 0,
            airdrop_contracts: 0,
            batch_transfer_contracts: 0,
            router_contracts: 4,
            router2_contracts: 8,
            flash_contracts: 4,
            oracle_contracts: 4,
            transfer_ratio: 0.10,
            erc20_share: 0.10,
            defi_share: 0.60,
            nft_share: 0.05,
            // Uniform popularity so traffic spreads across the call fleet
            // instead of piling onto the first deployment.
            contract_zipf: 0.0,
            ..WorkloadConfig::ethereum_mix(seed)
        }
    }

    /// NFT mint-rush mix: traffic dominated by drop collections whose
    /// mints chain a DELEGATECALL into the royalty splitter and a
    /// value-transferring creator payout through a registry slot, with
    /// STATICCALL floor checks on the side — exercising every call-family
    /// tier end to end (the `nft` DST profile and the bench's nft axis).
    pub fn nft_mint_rush(seed: u64) -> Self {
        WorkloadConfig {
            token_contracts: 8,
            amm_contracts: 2,
            nft_contracts: 4,
            counter_contracts: 0,
            ballot_contracts: 0,
            fig1_contracts: 0,
            auction_contracts: 0,
            crowdsale_contracts: 0,
            batch_pay_contracts: 0,
            airdrop_contracts: 0,
            batch_transfer_contracts: 0,
            router_contracts: 0,
            router2_contracts: 0,
            flash_contracts: 0,
            oracle_contracts: 0,
            drop_contracts: 8,
            transfer_ratio: 0.10,
            erc20_share: 0.15,
            defi_share: 0.05,
            nft_share: 0.65,
            // Uniform popularity so the mint rush spreads over the drop
            // fleet instead of piling onto the first deployment.
            contract_zipf: 0.0,
            ..WorkloadConfig::ethereum_mix(seed)
        }
    }

    /// Total deployed contracts.
    pub fn total_contracts(&self) -> usize {
        self.token_contracts
            + self.amm_contracts
            + self.nft_contracts
            + self.counter_contracts
            + self.ballot_contracts
            + self.fig1_contracts
            + self.auction_contracts
            + self.crowdsale_contracts
            + self.batch_pay_contracts
            + self.airdrop_contracts
            + self.batch_transfer_contracts
            + self.router_contracts
            + self.router2_contracts
            + self.flash_contracts
            + self.oracle_contracts * (1 + ORACLE_CONSUMERS)
            + self.drop_contracts * 3
    }
}

/// Address range offsets: user accounts are `1..=accounts`; contracts live
/// above this base so the two id spaces never collide.
const CONTRACT_ID_BASE: u64 = 1 << 32;

/// The contract-call categories of the mix, in the order `transaction()`
/// rolls them.
#[derive(Clone, Copy)]
enum Category {
    /// ERC20 tokens.
    Token,
    /// AMM pools and everything that routes into them.
    Defi,
    /// NFT collections and drops.
    Nft,
    /// Counters, ballots, Fig. 1, auctions, crowdsales, batch payments,
    /// loops and oracles.
    Other,
}

impl Category {
    const ALL: [Category; 4] = [
        Category::Token,
        Category::Defi,
        Category::Nft,
        Category::Other,
    ];

    /// Whether direct traffic of this category may target `kind` (the
    /// consumers, splitters and floor oracles receive none).
    fn admits(self, kind: ContractKind) -> bool {
        use ContractKind::*;
        match self {
            Category::Token => kind == Token,
            Category::Defi => matches!(kind, Amm | Router | Router2 | Flash),
            Category::Nft => matches!(kind, Nft | Drop),
            Category::Other => matches!(
                kind,
                Counter
                    | Ballot
                    | Fig1
                    | Auction
                    | Crowdsale
                    | BatchPay
                    | Airdrop
                    | BatchTransfer
                    | Oracle
            ),
        }
    }
}

/// The contracts one pick draws from, most popular first, with their Zipf
/// popularity CDF. Empty when the category has no contract at all.
#[derive(Debug)]
struct Pool {
    contracts: Vec<(Address, ContractKind)>,
    cdf: Vec<f64>,
}

impl Pool {
    fn new(contracts: Vec<(Address, ContractKind)>, zipf: f64) -> Self {
        let cdf = if contracts.is_empty() {
            Vec::new()
        } else {
            zipf_cdf(contracts.len(), zipf)
        };
        Pool { contracts, cdf }
    }
}

/// The deterministic block generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: StdRng,
    registry: CodeRegistry,
    by_kind: Vec<(Address, ContractKind)>,
    tokens: Vec<Address>,
    amms: Vec<Address>,
    /// `(router, input_token, output_token)` per aggregator deployment.
    router2_bindings: Vec<(Address, Address, Address)>,
    /// `(facility, token)` per flash-mint deployment.
    flash_bindings: Vec<(Address, Address)>,
    /// `(drop, floor_oracle, creator)` per NFT drop deployment.
    drop_bindings: Vec<(Address, Address, Address)>,
    hot: Vec<usize>,
    /// `pools[category][want_hot]`: the pool a pick of that category draws
    /// from after its hot/cold roll (the other side when this one is empty).
    pools: [[Pool; 2]; 4],
    /// Account id `i + 1` at index `i`, covering every user account and
    /// every hot account.
    account_addresses: Vec<Address>,
    account_cdf: Vec<f64>,
}

impl WorkloadGenerator {
    /// Deploys the contract universe and seeds the RNG.
    pub fn new(config: WorkloadConfig) -> Self {
        type DeployPlan = [(usize, ContractKind, fn() -> Vec<u8>); 11];
        let plan: DeployPlan = [
            (
                config.token_contracts,
                ContractKind::Token,
                contracts::token,
            ),
            (config.amm_contracts, ContractKind::Amm, contracts::amm),
            (config.nft_contracts, ContractKind::Nft, contracts::nft),
            (
                config.counter_contracts,
                ContractKind::Counter,
                contracts::counter,
            ),
            (
                config.ballot_contracts,
                ContractKind::Ballot,
                contracts::ballot,
            ),
            (
                config.fig1_contracts,
                ContractKind::Fig1,
                contracts::fig1_example,
            ),
            (
                config.auction_contracts,
                ContractKind::Auction,
                contracts::auction,
            ),
            (
                config.crowdsale_contracts,
                ContractKind::Crowdsale,
                contracts::crowdsale,
            ),
            (
                config.batch_pay_contracts,
                ContractKind::BatchPay,
                contracts::batch_pay,
            ),
            (
                config.airdrop_contracts,
                ContractKind::Airdrop,
                contracts::airdrop,
            ),
            (
                config.batch_transfer_contracts,
                ContractKind::BatchTransfer,
                contracts::batch_transfer,
            ),
        ];
        let mut builder = CodeRegistry::builder();
        let mut by_kind = Vec::new();
        let mut next_id = CONTRACT_ID_BASE;
        for (count, kind, code) in plan {
            // One compiled image per kind, shared across deployments.
            let image = code();
            for _ in 0..count {
                let address = Address::from_u64(next_id);
                next_id += 1;
                builder = builder.deploy(address, image.clone());
                by_kind.push((address, kind));
            }
        }
        // Routers deploy last, bound round-robin to the AMMs above.
        let amm_addresses: Vec<Address> = by_kind
            .iter()
            .filter(|(_, k)| *k == ContractKind::Amm)
            .map(|(a, _)| *a)
            .collect();
        for i in 0..config.router_contracts {
            if amm_addresses.is_empty() {
                break;
            }
            let address = Address::from_u64(next_id);
            next_id += 1;
            let amm = amm_addresses[i % amm_addresses.len()];
            builder = builder.deploy(address, contracts::dex_router(amm));
            by_kind.push((address, ContractKind::Router));
        }
        // Aggregator routers bind an AMM plus an input/output token pair,
        // all round-robin.
        let token_addresses: Vec<Address> = by_kind
            .iter()
            .filter(|(_, k)| *k == ContractKind::Token)
            .map(|(a, _)| *a)
            .collect();
        let mut router2_bindings = Vec::new();
        for i in 0..config.router2_contracts {
            if amm_addresses.is_empty() || token_addresses.is_empty() {
                break;
            }
            let address = Address::from_u64(next_id);
            next_id += 1;
            let amm = amm_addresses[i % amm_addresses.len()];
            let token_a = token_addresses[(2 * i) % token_addresses.len()];
            let token_b = token_addresses[(2 * i + 1) % token_addresses.len()];
            builder = builder.deploy(address, contracts::dex_router2(amm, token_a, token_b));
            by_kind.push((address, ContractKind::Router2));
            router2_bindings.push((address, token_a, token_b));
        }
        let mut flash_bindings = Vec::new();
        for i in 0..config.flash_contracts {
            if token_addresses.is_empty() {
                break;
            }
            let address = Address::from_u64(next_id);
            next_id += 1;
            let token = token_addresses[i % token_addresses.len()];
            builder = builder.deploy(address, contracts::flash_mint(token));
            by_kind.push((address, ContractKind::Flash));
            flash_bindings.push((address, token));
        }
        // Each NFT drop deploys its own royalty splitter and floor oracle,
        // then itself bound to both. The splitter/floor images repeat
        // byte-for-byte across drops, so their summaries share one
        // code-hash cache entry.
        let mut drop_bindings = Vec::new();
        for i in 0..config.drop_contracts {
            let splitter = Address::from_u64(next_id);
            next_id += 1;
            builder = builder.deploy(splitter, contracts::royalty_splitter());
            by_kind.push((splitter, ContractKind::Splitter));
            let floor = Address::from_u64(next_id);
            next_id += 1;
            builder = builder.deploy(floor, contracts::floor_oracle());
            by_kind.push((floor, ContractKind::FloorOracle));
            let address = Address::from_u64(next_id);
            next_id += 1;
            builder = builder.deploy(address, contracts::nft_drop(splitter, floor));
            by_kind.push((address, ContractKind::Drop));
            let creator = Address::from_u64(1 + (i as u64 % config.accounts.max(1) as u64));
            drop_bindings.push((address, floor, creator));
        }
        // Each oracle deploys its own consumers, then itself.
        for _ in 0..config.oracle_contracts {
            let mut consumers = Vec::with_capacity(ORACLE_CONSUMERS);
            for _ in 0..ORACLE_CONSUMERS {
                let address = Address::from_u64(next_id);
                next_id += 1;
                builder = builder.deploy(address, contracts::price_consumer());
                by_kind.push((address, ContractKind::Consumer));
                consumers.push(address);
            }
            let address = Address::from_u64(next_id);
            next_id += 1;
            builder = builder.deploy(address, contracts::oracle(&consumers));
            by_kind.push((address, ContractKind::Oracle));
        }
        let registry = builder.build();

        let tokens = by_kind
            .iter()
            .filter(|(_, k)| *k == ContractKind::Token)
            .map(|(a, _)| *a)
            .collect();
        let amms = by_kind
            .iter()
            .filter(|(_, k)| *k == ContractKind::Amm)
            .map(|(a, _)| *a)
            .collect();

        // Hot set: category-stratified so every major traffic class always
        // has a hot target (otherwise a hot set that happens to contain no
        // token would silently dilute the paper's 50 % hot-access rate).
        let total = by_kind.len();
        let hot_count = if config.hot_contract_fraction > 0.0 {
            ((total as f64 * config.hot_contract_fraction).ceil() as usize).max(1)
        } else {
            0
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut hot: Vec<usize> = Vec::new();
        if hot_count > 0 {
            // Categories in descending traffic share; shuffle within each.
            let category_order = [
                ContractKind::Token,
                ContractKind::Amm,
                ContractKind::Nft,
                ContractKind::Drop,
                ContractKind::Router,
                ContractKind::Router2,
                ContractKind::Flash,
                ContractKind::Oracle,
                ContractKind::Crowdsale,
                ContractKind::Counter,
                ContractKind::Ballot,
                ContractKind::Auction,
                ContractKind::Fig1,
                ContractKind::BatchPay,
                ContractKind::Airdrop,
                ContractKind::BatchTransfer,
            ];
            let mut pools: Vec<Vec<usize>> = category_order
                .iter()
                .map(|kind| {
                    let mut pool: Vec<usize> =
                        (0..total).filter(|&i| by_kind[i].1 == *kind).collect();
                    for i in (1..pool.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        pool.swap(i, j);
                    }
                    pool
                })
                .collect();
            'outer: loop {
                let mut progressed = false;
                for pool in &mut pools {
                    if let Some(index) = pool.pop() {
                        hot.push(index);
                        progressed = true;
                        if hot.len() == hot_count {
                            break 'outer;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        let hot_set: std::collections::HashSet<usize> = hot.iter().copied().collect();
        let cold: Vec<usize> = (0..total).filter(|i| !hot_set.contains(i)).collect();
        let pools = Category::ALL.map(|category| {
            let side = |indices: &[usize]| -> Vec<(Address, ContractKind)> {
                indices
                    .iter()
                    .map(|&i| by_kind[i])
                    .filter(|&(_, kind)| category.admits(kind))
                    .collect()
            };
            let (cold, hot) = (side(&cold), side(&hot));
            let pool = |primary: &Vec<_>, fallback: &Vec<_>| {
                let contracts = if primary.is_empty() {
                    fallback
                } else {
                    primary
                };
                Pool::new(contracts.clone(), config.contract_zipf)
            };
            [pool(&cold, &hot), pool(&hot, &cold)]
        });

        let account_ids = config.accounts.max(config.hot_accounts).max(1) as u64;
        let account_addresses = (1..=account_ids).map(Address::from_u64).collect();
        let account_cdf = zipf_cdf(config.accounts, config.account_zipf);

        WorkloadGenerator {
            config,
            rng,
            registry,
            by_kind,
            tokens,
            amms,
            router2_bindings,
            flash_bindings,
            drop_bindings,
            hot,
            pools,
            account_addresses,
            account_cdf,
        }
    }

    /// The contract registry (pass to the analyzer).
    pub fn registry(&self) -> &CodeRegistry {
        &self.registry
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// All deployed contracts with their kinds.
    pub fn contracts(&self) -> &[(Address, ContractKind)] {
        &self.by_kind
    }

    /// Addresses of the hot contracts (empty without skew).
    pub fn hot_contracts(&self) -> Vec<Address> {
        self.hot.iter().map(|&i| self.by_kind[i].0).collect()
    }

    /// Genesis allocation: Ether for every user account, token balances in
    /// every token contract and AMM liquidity — so the bulk of generated
    /// transactions are executable (failed balance checks stay possible,
    /// as on mainnet, but rare).
    pub fn genesis_entries(&self) -> Vec<(StateKey, U256)> {
        let accounts = &self.account_addresses[..self.config.accounts];
        let owners: Vec<U256> = accounts.iter().map(Address::to_u256).collect();
        // `balances[owner]` sits at mapping slot 1 of the token and the
        // batch-transfer layouts, `deposits[owner]` at slot 0 of batch-pay.
        let slots = |base| -> Vec<U256> {
            owners
                .iter()
                .map(|&owner| contracts::map_slot(owner, base))
                .collect()
        };
        let (balance_slots, deposit_slots) = (slots(1), slots(0));
        let mut entries = Vec::new();
        let ether = U256::from(1_000_000_000u64);
        for &account in accounts {
            entries.push((StateKey::balance(account), ether));
        }
        let token_balance = U256::from(1_000_000u64);
        for token in &self.tokens {
            for &slot in &balance_slots {
                entries.push((StateKey::storage(*token, slot), token_balance));
            }
        }
        let reserve = U256::from(10_000_000u64);
        for amm in &self.amms {
            entries.push((StateKey::storage(*amm, U256::ZERO), reserve));
            entries.push((StateKey::storage(*amm, U256::ONE), reserve));
        }
        // Crowdsale caps high enough that most capped contributions pass;
        // batch-pay accounts pre-funded.
        for (address, kind) in &self.by_kind {
            match kind {
                ContractKind::Crowdsale => {
                    entries.push((
                        StateKey::storage(*address, U256::ONE),
                        U256::from(1_000_000_000u64),
                    ));
                }
                ContractKind::BatchPay => {
                    for &slot in &deposit_slots {
                        entries.push((StateKey::storage(*address, slot), U256::from(100_000u64)));
                    }
                }
                ContractKind::BatchTransfer => {
                    // Recipient count in slot 0 (the snapshot-derived trip
                    // bound) plus sender balances so most batches succeed.
                    entries.push((StateKey::storage(*address, U256::ZERO), U256::from(5u64)));
                    for &slot in &balance_slots {
                        entries.push((StateKey::storage(*address, slot), U256::from(100_000u64)));
                    }
                }
                _ => {}
            }
        }
        // Aggregator routers: every account pre-approves the router on the
        // input token (the transferFrom pull), and the router holds
        // output-token inventory for the payout leg.
        let approval = U256::from(1_000_000_000u64);
        for (router, token_a, token_b) in &self.router2_bindings {
            for &owner in &owners {
                entries.push((
                    StateKey::storage(*token_a, contracts::map_slot2(owner, router.to_u256(), 2)),
                    approval,
                ));
            }
            entries.push((
                StateKey::storage(*token_b, contracts::map_slot(router.to_u256(), 1)),
                U256::from(100_000_000u64),
            ));
        }
        // Flash facilities: every account pre-approves the repay pull.
        for (flash, token) in &self.flash_bindings {
            for &owner in &owners {
                entries.push((
                    StateKey::storage(*token, contracts::map_slot2(owner, flash.to_u256(), 2)),
                    approval,
                ));
            }
        }
        // NFT drops: mint price, the creator's registry slot, a treasury
        // deep enough for the royalty stream, and a seeded floor quote.
        for (drop, floor, creator) in &self.drop_bindings {
            entries.push((StateKey::storage(*drop, U256::ONE), U256::from(100u64)));
            entries.push((
                StateKey::storage(*drop, U256::from(2u64)),
                creator.to_u256(),
            ));
            entries.push((StateKey::balance(*drop), U256::from(1_000_000_000u64)));
            entries.push((StateKey::storage(*floor, U256::ZERO), U256::from(75u64)));
        }
        entries
    }

    fn account(&mut self) -> Address {
        if self.config.hot_accounts > 0
            && self
                .rng
                .gen_bool(self.config.hot_account_probability.clamp(0.0, 1.0))
        {
            let hot = self.rng.gen_range(0..self.config.hot_accounts as u64);
            return self.account_addresses[hot as usize];
        }
        let rank = sample_cdf(&self.account_cdf, self.rng.gen());
        self.account_addresses[rank]
    }

    /// Picks a contract of `category`, honoring the hot/cold skew.
    fn pick_contract(&mut self, category: Category) -> Option<(Address, ContractKind)> {
        let want_hot = !self.hot.is_empty()
            && self
                .rng
                .gen_bool(self.config.hot_access_probability.clamp(0.0, 1.0));
        let pool = &self.pools[category as usize][want_hot as usize];
        if pool.contracts.is_empty() {
            return None;
        }
        // Heavy-tailed popularity within the pool (rank = position).
        Some(pool.contracts[sample_cdf(&pool.cdf, self.rng.gen())])
    }

    fn ether_transfer(&mut self) -> Transaction {
        let from = self.account();
        let to = self.account();
        let value = U256::from(self.rng.gen_range(1..100u64));
        Transaction::transfer(from, to, value)
    }

    fn token_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let roll: f64 = self.rng.gen();
        let mint_bias = self.config.token_mint_bias.clamp(0.0, 1.0);
        let transfer_share = (1.0 - mint_bias) * 0.82;
        let input = if roll < transfer_share {
            let to = self.account().to_u256();
            let amount = U256::from(self.rng.gen_range(1..50u64));
            calldata(contracts::token_fn::TRANSFER, &[to, amount])
        } else if roll < transfer_share + mint_bias {
            // ICO/airdrop-style commutative credit.
            let to = self.account().to_u256();
            let amount = U256::from(self.rng.gen_range(1..50u64));
            calldata(contracts::token_fn::MINT, &[to, amount])
        } else if roll < transfer_share + mint_bias + 0.10 {
            let spender = self.account().to_u256();
            let amount = U256::from(self.rng.gen_range(1..100u64));
            calldata(contracts::token_fn::APPROVE, &[spender, amount])
        } else {
            let owner = self.account().to_u256();
            calldata(contracts::token_fn::BALANCE_OF, &[owner])
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    fn amm_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let roll: f64 = self.rng.gen();
        let input = if roll < 0.40 {
            let amount = U256::from(self.rng.gen_range(1..1_000u64));
            let selector = if self.rng.gen_bool(0.5) {
                contracts::amm_fn::SWAP_A_FOR_B
            } else {
                contracts::amm_fn::SWAP_B_FOR_A
            };
            calldata(selector, &[amount])
        } else if roll < 0.55 {
            let a = U256::from(self.rng.gen_range(1..500u64));
            let b = U256::from(self.rng.gen_range(1..500u64));
            calldata(contracts::amm_fn::ADD_LIQUIDITY, &[a, b])
        } else {
            // Price quote: a read-only consult of the pool reserves —
            // routers and aggregators make these the most common DEX call.
            // Read-mostly hot state is where anti-dependencies hurt the
            // DAG baseline while OCC and DMVCC sail through.
            calldata(contracts::amm_fn::RESERVES, &[])
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    fn router_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let amount = U256::from(self.rng.gen_range(1..1_000u64));
        let input = if self.rng.gen_bool(0.6) {
            calldata(contracts::router_fn::QUOTE, &[amount])
        } else {
            // Mostly permissive slippage; 10 % of swaps set an impossible
            // bound and revert (failed arbitrage attempts are real traffic).
            let min_out = if self.rng.gen_bool(0.9) {
                U256::ZERO
            } else {
                U256::from(u64::MAX)
            };
            calldata(contracts::router_fn::SWAP_EXACT, &[amount, min_out])
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    fn router2_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let amount = U256::from(self.rng.gen_range(1..1_000u64));
        // Mostly permissive slippage; 10 % of swaps set an impossible bound
        // and revert between the reserve quote and the transfer legs.
        let min_out = if self.rng.gen_bool(0.9) {
            U256::ZERO
        } else {
            U256::from(u64::MAX)
        };
        Transaction::call(TxEnv::call(
            caller,
            contract,
            calldata(contracts::router2_fn::SWAP, &[amount, min_out]),
        ))
    }

    fn flash_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let amount = U256::from(self.rng.gen_range(1..10_000u64));
        Transaction::call(TxEnv::call(
            caller,
            contract,
            calldata(contracts::flash_fn::FLASH, &[amount]),
        ))
    }

    fn nft_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        // Mostly mints (drops/launches dominate NFT traffic).
        let input = if self.rng.gen_bool(0.85) {
            calldata(contracts::nft_fn::MINT, &[])
        } else {
            let id = U256::from(self.rng.gen_range(0..50u64));
            let to = self.account().to_u256();
            calldata(contracts::nft_fn::TRANSFER, &[id, to])
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    fn drop_tx(&mut self, contract: Address) -> Transaction {
        let caller = self.account();
        let roll: f64 = self.rng.gen();
        // Mint rushes dominate; floor checks (STATICCALL) and ownership
        // reads make up the rest.
        let input = if roll < 0.80 {
            calldata(contracts::drop_fn::MINT, &[])
        } else if roll < 0.95 {
            calldata(contracts::drop_fn::PREVIEW, &[])
        } else {
            let id = U256::from(self.rng.gen_range(0..50u64));
            calldata(contracts::drop_fn::OWNER_OF, &[id])
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    fn other_tx(&mut self, contract: Address, kind: ContractKind) -> Transaction {
        let caller = self.account();
        let input = match kind {
            ContractKind::Counter => {
                if self.rng.gen_bool(0.7) {
                    calldata(contracts::counter_fn::INCREMENT, &[])
                } else {
                    calldata(contracts::counter_fn::INCREMENT_CHECKED, &[])
                }
            }
            ContractKind::Ballot => {
                let proposal = U256::from(self.rng.gen_range(0..8u64));
                calldata(contracts::ballot_fn::VOTE, &[proposal])
            }
            ContractKind::Fig1 => {
                let x = self.account().to_u256();
                if self.rng.gen_bool(0.3) {
                    // Seeds A[x]: the runtime-dependent-key pattern that can
                    // invalidate other transactions' C-SAGs.
                    let v = U256::from(self.rng.gen_range(0..6u64));
                    calldata(contracts::fig1_fn::SET_A, &[x, v])
                } else {
                    let y = U256::from(self.rng.gen_range(0..12u64));
                    calldata(contracts::fig1_fn::UPDATE_B, &[x, y])
                }
            }
            ContractKind::Auction => {
                if self.rng.gen_bool(0.8) {
                    // Bids trend upward so a realistic share succeeds.
                    let amount = U256::from(self.rng.gen_range(1..10_000u64));
                    calldata(contracts::auction_fn::BID, &[amount])
                } else {
                    calldata(contracts::auction_fn::WITHDRAW, &[])
                }
            }
            ContractKind::Crowdsale => {
                let amount = U256::from(self.rng.gen_range(1..500u64));
                if self.rng.gen_bool(0.8) {
                    calldata(contracts::crowdsale_fn::CONTRIBUTE, &[amount])
                } else {
                    calldata(contracts::crowdsale_fn::CONTRIBUTE_CAPPED, &[amount])
                }
            }
            ContractKind::BatchPay => {
                if self.rng.gen_bool(0.6) {
                    let args = [
                        self.account().to_u256(),
                        U256::from(self.rng.gen_range(1..10u64)),
                        self.account().to_u256(),
                        U256::from(self.rng.gen_range(1..10u64)),
                        self.account().to_u256(),
                        U256::from(self.rng.gen_range(1..10u64)),
                    ];
                    calldata(contracts::batch_pay_fn::PAY3, &args)
                } else {
                    let amount = U256::from(self.rng.gen_range(1..200u64));
                    calldata(contracts::batch_pay_fn::DEPOSIT, &[amount])
                }
            }
            ContractKind::Airdrop => {
                let roll: f64 = self.rng.gen();
                if roll < 0.85 {
                    // Bounded credit loops of varied length (0 included:
                    // degenerate airdrops exist on mainnet too).
                    let start = self.account().to_u256();
                    let amount = U256::from(self.rng.gen_range(1..50u64));
                    let n = U256::from(
                        self.rng
                            .gen_range(0..=contracts::airdrop_fn::MAX_RECIPIENTS),
                    );
                    calldata(contracts::airdrop_fn::AIRDROP, &[start, amount, n])
                } else if roll < 0.90 {
                    // Over-cap attempts revert at the guard.
                    let start = self.account().to_u256();
                    let n = U256::from(contracts::airdrop_fn::MAX_RECIPIENTS + 1);
                    calldata(contracts::airdrop_fn::AIRDROP, &[start, U256::ONE, n])
                } else {
                    let amount = U256::from(self.rng.gen_range(1..200u64));
                    calldata(contracts::airdrop_fn::DEPOSIT, &[amount])
                }
            }
            ContractKind::BatchTransfer => {
                let roll: f64 = self.rng.gen();
                if roll < 0.80 {
                    let start = self.account().to_u256();
                    let amount = U256::from(self.rng.gen_range(1..20u64));
                    calldata(contracts::batch_transfer_fn::BATCH, &[start, amount])
                } else if roll < 0.90 {
                    let amount = U256::from(self.rng.gen_range(1..200u64));
                    calldata(contracts::batch_transfer_fn::DEPOSIT, &[amount])
                } else {
                    // Re-sizing the batch writes the trip-bound slot: the
                    // snapshot dependence other C-SAGs must track.
                    let n = U256::from(self.rng.gen_range(0..12u64));
                    calldata(contracts::batch_transfer_fn::SET_COUNT, &[n])
                }
            }
            ContractKind::Oracle => {
                if self.rng.gen_bool(0.7) {
                    // Price pushes fan out one call per consumer.
                    let price = U256::from(self.rng.gen_range(1..100_000u64));
                    calldata(contracts::oracle_fn::UPDATE, &[price])
                } else {
                    calldata(contracts::oracle_fn::GET, &[])
                }
            }
            _ => unreachable!("other_tx only handles the 'other' kinds"),
        };
        Transaction::call(TxEnv::call(caller, contract, input))
    }

    /// Generates one transaction following the configured mix.
    pub fn transaction(&mut self) -> Transaction {
        if self
            .rng
            .gen_bool(self.config.transfer_ratio.clamp(0.0, 1.0))
        {
            return self.ether_transfer();
        }
        let roll: f64 = self.rng.gen();
        let erc = self.config.erc20_share;
        let defi = erc + self.config.defi_share;
        let nft = defi + self.config.nft_share;
        let category = if roll < erc {
            Category::Token
        } else if roll < defi {
            Category::Defi
        } else if roll < nft {
            Category::Nft
        } else {
            Category::Other
        };
        match self.pick_contract(category) {
            Some((c, ContractKind::Token)) => self.token_tx(c),
            Some((c, ContractKind::Amm)) => self.amm_tx(c),
            Some((c, ContractKind::Router)) => self.router_tx(c),
            Some((c, ContractKind::Router2)) => self.router2_tx(c),
            Some((c, ContractKind::Flash)) => self.flash_tx(c),
            Some((c, ContractKind::Nft)) => self.nft_tx(c),
            Some((c, ContractKind::Drop)) => self.drop_tx(c),
            Some((c, kind)) => self.other_tx(c, kind),
            // Degenerate configs (a category with zero contracts): fall
            // back to an Ether transfer.
            None => self.ether_transfer(),
        }
    }

    /// Generates a block of `size` transactions.
    pub fn block(&mut self, size: usize) -> Vec<Transaction> {
        (0..size).map(|_| self.transaction()).collect()
    }
}

/// Cumulative distribution of a Zipf law with exponent `s` over `n` ranks
/// (uniform when `s == 0`).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n.max(1))
        .map(|i| 1.0 / ((i + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// Binary-searches a CDF for the rank of a uniform draw in `[0, 1)`.
fn sample_cdf(cdf: &[f64], roll: f64) -> usize {
    cdf.partition_point(|&c| c < roll).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_vm::TxKind;

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7));
        let mut b = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(7));
        assert_eq!(a.block(200), b.block(200));
        let mut c = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(8));
        assert_ne!(a.block(200), c.block(200));
    }

    #[test]
    fn mix_roughly_matches_configuration() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(1));
        let block = generator.block(4_000);
        let transfers = block.iter().filter(|t| t.kind == TxKind::Transfer).count();
        let ratio = transfers as f64 / block.len() as f64;
        assert!((ratio - 0.31).abs() < 0.05, "transfer ratio {ratio}");
    }

    #[test]
    fn contract_universe_sizes() {
        let generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(1));
        let config = generator.config().clone();
        assert_eq!(generator.contracts().len(), config.total_contracts());
        assert_eq!(generator.registry().len(), config.total_contracts());
    }

    #[test]
    fn genesis_covers_accounts_and_pools() {
        let generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(1));
        let entries = generator.genesis_entries();
        let config = generator.config();
        let expected = config.accounts // ether
            + config.accounts * config.token_contracts // token balances
            + 2 * config.amm_contracts // reserves
            + config.crowdsale_contracts // caps
            + config.accounts * config.batch_pay_contracts // pre-funding
            + config.batch_transfer_contracts // trip counts
            + config.accounts * config.batch_transfer_contracts // balances
            + config.accounts * config.router2_contracts // swap approvals
            + config.router2_contracts // payout inventory
            + config.accounts * config.flash_contracts; // repay approvals
        assert_eq!(entries.len(), expected);
        assert!(entries.iter().all(|(_, v)| !v.is_zero()));
    }

    #[test]
    fn high_contention_concentrates_traffic() {
        let mut skewed = WorkloadGenerator::new(WorkloadConfig::high_contention(5));
        let hot_addresses: std::collections::HashSet<Address> =
            skewed.hot_contracts().into_iter().collect();
        assert!(!hot_addresses.is_empty());
        let block = skewed.block(2_000);
        let calls: Vec<_> = block.iter().filter(|t| t.kind == TxKind::Call).collect();
        let hot_calls = calls
            .iter()
            .filter(|t| hot_addresses.contains(&t.to()))
            .count();
        let ratio = hot_calls as f64 / calls.len() as f64;
        // ~50 % of contract calls should hit the (tiny) hot set; wide
        // tolerance because category filtering can fall back to cold.
        assert!(ratio > 0.25, "hot ratio {ratio}");
    }

    #[test]
    fn nft_mint_rush_is_dominated_by_drop_mints() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::nft_mint_rush(3));
        let drops: std::collections::HashSet<Address> = generator
            .contracts()
            .iter()
            .filter(|(_, k)| *k == ContractKind::Drop)
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(drops.len(), 8);
        // Genesis seeds each drop's treasury and creator registry slot so
        // the royalty stream flows.
        let entries = generator.genesis_entries();
        for drop in &drops {
            assert!(entries.iter().any(|(k, _)| *k == StateKey::balance(*drop)));
            assert!(entries
                .iter()
                .any(|(k, _)| *k == StateKey::storage(*drop, U256::from(2u64))));
        }
        let block = generator.block(2_000);
        let drop_calls = block
            .iter()
            .filter(|t| t.kind == TxKind::Call && drops.contains(&t.to()))
            .count();
        let ratio = drop_calls as f64 / block.len() as f64;
        assert!(ratio > 0.30, "drop share {ratio}");
    }

    #[test]
    fn uniform_config_spreads_traffic() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(5));
        let block = generator.block(2_000);
        let distinct: std::collections::HashSet<Address> = block
            .iter()
            .filter(|t| t.kind == TxKind::Call)
            .map(|t| t.to())
            .collect();
        assert!(
            distinct.len() > 50,
            "only {} contracts touched",
            distinct.len()
        );
    }

    #[test]
    fn generated_calls_target_deployed_contracts() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::high_contention(9));
        let registry = generator.registry().clone();
        for tx in generator.block(500) {
            if tx.kind == TxKind::Call {
                assert!(registry.is_contract(&tx.to()));
            }
        }
    }

    #[test]
    fn no_skew_without_hot_fraction() {
        let generator = WorkloadGenerator::new(WorkloadConfig::ethereum_mix(2));
        assert!(generator.hot_contracts().is_empty());
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        for s in [0.0, 0.5, 1.0, 1.5] {
            let cdf = zipf_cdf(100, s);
            assert_eq!(cdf.len(), 100);
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "monotone (s={s})");
            assert!(
                (cdf.last().unwrap() - 1.0).abs() < 1e-9,
                "normalized (s={s})"
            );
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let cdf = zipf_cdf(4, 0.0);
        for (i, &c) in cdf.iter().enumerate() {
            assert!((c - (i + 1) as f64 * 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        let cdf = zipf_cdf(1_000, 1.5);
        // Top 10 ranks get the majority of the mass at s = 1.5.
        assert!(cdf[9] > 0.5, "top-10 mass {}", cdf[9]);
    }

    #[test]
    fn sample_cdf_boundaries() {
        let cdf = zipf_cdf(5, 0.0); // [0.2, 0.4, 0.6, 0.8, 1.0]
        assert_eq!(sample_cdf(&cdf, 0.0), 0);
        assert_eq!(sample_cdf(&cdf, 0.19), 0);
        assert_eq!(sample_cdf(&cdf, 0.21), 1);
        assert_eq!(sample_cdf(&cdf, 0.99), 4);
        // Degenerate draw exactly 1.0 stays in range.
        assert_eq!(sample_cdf(&cdf, 1.0), 4);
    }

    #[test]
    fn loop_heavy_mix_is_dominated_by_loop_contracts() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::loop_heavy(3));
        let kinds: std::collections::HashMap<Address, ContractKind> =
            generator.contracts().iter().copied().collect();
        let block = generator.block(2_000);
        let calls: Vec<_> = block.iter().filter(|t| t.kind == TxKind::Call).collect();
        let loopy = calls
            .iter()
            .filter(|t| {
                matches!(
                    kinds.get(&t.to()),
                    Some(ContractKind::Airdrop | ContractKind::BatchTransfer)
                )
            })
            .count();
        let ratio = loopy as f64 / calls.len() as f64;
        assert!(ratio > 0.5, "loop-contract share {ratio:.2} of calls");
    }

    #[test]
    fn call_heavy_mix_is_dominated_by_call_contracts() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::call_heavy(3));
        let kinds: std::collections::HashMap<Address, ContractKind> =
            generator.contracts().iter().copied().collect();
        let block = generator.block(2_000);
        let calls: Vec<_> = block.iter().filter(|t| t.kind == TxKind::Call).collect();
        let call_bearing = calls
            .iter()
            .filter(|t| {
                matches!(
                    kinds.get(&t.to()),
                    Some(
                        ContractKind::Router
                            | ContractKind::Router2
                            | ContractKind::Flash
                            | ContractKind::Oracle
                    )
                )
            })
            .count();
        let ratio = call_bearing as f64 / calls.len() as f64;
        assert!(ratio > 0.4, "call-contract share {ratio:.2} of calls");
    }

    #[test]
    fn hot_set_is_category_stratified() {
        let generator = WorkloadGenerator::new(WorkloadConfig::high_contention(77));
        let hot = generator.hot_contracts();
        assert!(!hot.is_empty());
        // The first hot entry is always a token (largest traffic share).
        let kinds: Vec<ContractKind> = hot
            .iter()
            .map(|a| {
                generator
                    .contracts()
                    .iter()
                    .find(|(addr, _)| addr == a)
                    .map(|(_, k)| *k)
                    .expect("hot contract is deployed")
            })
            .collect();
        assert_eq!(kinds[0], ContractKind::Token);
    }
}

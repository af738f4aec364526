//! Deployed-code registry.
//!
//! Contract code is immutable after deployment, so it lives outside the
//! versioned state: the registry is a shared read-only map from address to
//! bytecode that every executor thread can consult without synchronization.
//!
//! The registry also carries a [`SummaryCache`] — a code-hash-keyed memo
//! for analysis artifacts. N deployments of the same token body share one
//! bytecode hash, so one analysis pass serves all of them; the analysis
//! crate stores its per-body summaries here (type-erased, since this crate
//! cannot depend on it) and executors report the hit rate.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dmvcc_primitives::{keccak256, Address, U256};

use crate::interpreter::JumpTable;

/// Code-hash-keyed memo for analysis summaries.
///
/// Values are type-erased (`Arc<dyn Any>`): the analysis crate downcasts
/// to its own summary type. Hit/miss counters feed `ExecutorStats`.
#[derive(Debug, Default)]
pub struct SummaryCache {
    entries: Mutex<HashMap<U256, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SummaryCache {
    /// Returns the cached summary for `code_hash`, building and inserting
    /// it on a miss. The boolean is `true` on a cache hit.
    ///
    /// # Panics
    ///
    /// Panics if a summary of a *different* type was previously cached
    /// under the same code hash (one analysis type per cache).
    pub fn get_or_insert_with<T, F>(&self, code_hash: U256, build: F) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Arc<T>,
    {
        if let Some(entry) = self.entries.lock().unwrap().get(&code_hash) {
            let summary = Arc::clone(entry)
                .downcast::<T>()
                .expect("summary cache holds one analysis type per code hash");
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (summary, true);
        }
        // Build outside the lock: analysis can be slow and re-entrant.
        let built = build();
        let mut entries = self.entries.lock().unwrap();
        match entries.get(&code_hash) {
            // Another thread raced us; keep the first insertion so every
            // deployment shares one Arc.
            Some(entry) => {
                let summary = Arc::clone(entry)
                    .downcast::<T>()
                    .expect("summary cache holds one analysis type per code hash");
                self.hits.fetch_add(1, Ordering::Relaxed);
                (summary, true)
            }
            None => {
                entries.insert(code_hash, Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
                self.misses.fetch_add(1, Ordering::Relaxed);
                (built, false)
            }
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (distinct bodies analyzed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One deployment: the bytecode and what execution needs of it that is a
/// property of the bytes alone, computed once at [`CodeRegistryBuilder::build`].
#[derive(Debug)]
pub struct Deployed {
    code: Arc<Vec<u8>>,
    jumpdests: JumpTable,
}

impl Deployed {
    /// The bytecode.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The bytecode's valid jump destinations.
    pub fn jumpdests(&self) -> &JumpTable {
        &self.jumpdests
    }
}

/// Immutable map from contract address to deployed bytecode.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::Address;
/// use dmvcc_vm::{contracts, CodeRegistry};
///
/// let addr = Address::from_u64(1);
/// let registry = CodeRegistry::builder()
///     .deploy(addr, contracts::counter())
///     .build();
/// assert!(registry.code(&addr).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeRegistry {
    code: Arc<HashMap<Address, Deployed>>,
    /// keccak256 of each deployment's bytecode, precomputed at build time.
    hashes: Arc<HashMap<Address, U256>>,
    summaries: Arc<SummaryCache>,
}

impl CodeRegistry {
    /// Starts building a registry.
    pub fn builder() -> CodeRegistryBuilder {
        CodeRegistryBuilder::default()
    }

    /// Returns the bytecode deployed at `address`, if any.
    pub fn code(&self, address: &Address) -> Option<Arc<Vec<u8>>> {
        self.code.get(address).map(|d| Arc::clone(&d.code))
    }

    /// Borrows the deployment at `address`, if any — the per-transaction
    /// path's lookup: no reference count is touched.
    pub fn deployed(&self, address: &Address) -> Option<&Deployed> {
        self.code.get(address)
    }

    /// Returns the keccak256 hash of the bytecode deployed at `address`.
    /// Identical bodies deployed at different addresses share a hash.
    pub fn code_hash(&self, address: &Address) -> Option<U256> {
        self.hashes.get(address).copied()
    }

    /// The code-hash-keyed summary memo shared by all clones of this
    /// registry.
    pub fn summaries(&self) -> &SummaryCache {
        &self.summaries
    }

    /// Returns `true` if a contract is deployed at `address`.
    pub fn is_contract(&self, address: &Address) -> bool {
        self.code.contains_key(address)
    }

    /// Number of deployed contracts.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if no contract is deployed.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Iterates over all deployments.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Arc<Vec<u8>>)> {
        self.code.iter().map(|(address, d)| (address, &d.code))
    }
}

/// Builder for [`CodeRegistry`].
#[derive(Debug, Default)]
pub struct CodeRegistryBuilder {
    code: HashMap<Address, Arc<Vec<u8>>>,
}

impl CodeRegistryBuilder {
    /// Deploys `bytecode` at `address` (replacing any previous deployment).
    pub fn deploy(mut self, address: Address, bytecode: Vec<u8>) -> Self {
        self.code.insert(address, Arc::new(bytecode));
        self
    }

    /// Finalizes the registry.
    pub fn build(self) -> CodeRegistry {
        let hashes = self
            .code
            .iter()
            .map(|(addr, code)| (*addr, keccak256(code).to_u256()))
            .collect();
        let code = self
            .code
            .into_iter()
            .map(|(address, code)| {
                let jumpdests = JumpTable::build(&code);
                (address, Deployed { code, jumpdests })
            })
            .collect();
        CodeRegistry {
            code: Arc::new(code),
            hashes: Arc::new(hashes),
            summaries: Arc::new(SummaryCache::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts;

    #[test]
    fn deploy_and_lookup() {
        let a = Address::from_u64(1);
        let b = Address::from_u64(2);
        let registry = CodeRegistry::builder()
            .deploy(a, contracts::counter())
            .deploy(b, contracts::token())
            .build();
        assert_eq!(registry.len(), 2);
        assert!(registry.is_contract(&a));
        assert!(!registry.is_contract(&Address::from_u64(3)));
        assert_eq!(*registry.code(&a).unwrap(), contracts::counter());
        let deployed = registry.deployed(&b).unwrap();
        assert_eq!(deployed.code(), contracts::token());
        assert_eq!(*deployed.jumpdests(), JumpTable::build(&contracts::token()));
    }

    #[test]
    fn empty_registry() {
        let registry = CodeRegistry::default();
        assert!(registry.is_empty());
        assert!(registry.code(&Address::from_u64(1)).is_none());
    }

    #[test]
    fn clone_shares() {
        let registry = CodeRegistry::builder()
            .deploy(Address::from_u64(1), contracts::counter())
            .build();
        let clone = registry.clone();
        assert_eq!(clone.len(), registry.len());
    }

    #[test]
    fn code_hash_shared_across_deployments() {
        let a = Address::from_u64(1);
        let b = Address::from_u64(2);
        let c = Address::from_u64(3);
        let registry = CodeRegistry::builder()
            .deploy(a, contracts::token())
            .deploy(b, contracts::token())
            .deploy(c, contracts::counter())
            .build();
        assert_eq!(registry.code_hash(&a), registry.code_hash(&b));
        assert_ne!(registry.code_hash(&a), registry.code_hash(&c));
        assert_eq!(registry.code_hash(&Address::from_u64(9)), None);
    }

    #[test]
    fn summary_cache_hits_and_misses() {
        let registry = CodeRegistry::builder()
            .deploy(Address::from_u64(1), contracts::token())
            .deploy(Address::from_u64(2), contracts::token())
            .build();
        let hash = registry.code_hash(&Address::from_u64(1)).unwrap();
        let cache = registry.summaries();
        let (first, hit) = cache.get_or_insert_with(hash, || Arc::new(42u64));
        assert!(!hit);
        let (second, hit) = cache.get_or_insert_with(hash, || Arc::new(99u64));
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, 42);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}

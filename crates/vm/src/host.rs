//! The host interface between the interpreter and a state backend.
//!
//! Every scheduler in this reproduction (serial, DAG, OCC, DMVCC) plugs a
//! different [`Host`] into the same interpreter: the serial executor backs
//! it with the snapshot plus a write buffer, OCC with a snapshot-only view
//! that records a read/write log, and DMVCC with the shared access
//! sequences of the block (where an `sload` may block on a preceding
//! transaction's unfinished write, and a release point publishes buffered
//! writes early).

use dmvcc_primitives::{keccak256, U256};
use dmvcc_state::StateKey;

/// Why a host refused to continue an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostError {
    /// The scheduler aborted this transaction (stale read detected, or a
    /// cascading abort); the interpreter unwinds with
    /// [`crate::VmError::HostInterrupt`].
    Aborted,
}

impl core::fmt::Display for HostError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HostError::Aborted => f.write_str("transaction aborted by scheduler"),
        }
    }
}

impl std::error::Error for HostError {}

/// State access interface used by the interpreter.
///
/// Implementations decide where reads come from (snapshot, write buffer,
/// shared access sequences) and where writes go. All methods take `&mut
/// self`; hosts that share state across threads hold the synchronized
/// structures internally.
pub trait Host {
    /// Reads a storage slot.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Aborted`] when the scheduler decided this
    /// execution must stop (e.g. it read a version that has become stale).
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError>;

    /// Writes a storage slot.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Aborted`] when the execution must stop.
    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError>;

    /// Commutative increment `storage[key] += delta` that never observes
    /// the previous value.
    ///
    /// The default implementation performs a read-modify-write, which is
    /// always semantically correct; concurrency-aware hosts override it to
    /// buffer a delta so two increments do not conflict (paper §IV-D).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Aborted`] when the execution must stop.
    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        let current = self.sload(key)?;
        self.sstore(key, current.wrapping_add(delta))
    }

    /// Called when execution passes a release point (paper Algorithm 2):
    /// `gas_left` lets the host check the release point's remaining-gas
    /// upper bound before making buffered writes visible early.
    ///
    /// The default does nothing (transaction-level visibility).
    fn on_release_point(&mut self, pc: usize, gas_left: u64) {
        let _ = (pc, gas_left);
    }

    /// `keccak256(data)` as a word — what `SHA3` pushes, over the machine's
    /// memory in place.
    ///
    /// The default hashes every time; the engines' hosts override it to ask
    /// their worker's [`crate::KeccakMemo`].
    fn keccak(&mut self, data: &[u8]) -> U256 {
        keccak256(data).to_u256()
    }
}

/// A host over a plain in-memory map — the simplest possible backend, used
/// in unit tests and as the building block of the serial executor.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::StateKey;
/// use dmvcc_vm::{Host, MapHost};
///
/// let mut host = MapHost::new();
/// let key = StateKey::storage(Address::from_u64(1), U256::ZERO);
/// host.sstore(key, U256::from(7u64))?;
/// assert_eq!(host.sload(key)?, U256::from(7u64));
/// # Ok::<(), dmvcc_vm::HostError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapHost {
    entries: std::collections::HashMap<StateKey, U256>,
    /// Program counters of release points seen during execution (recorded
    /// for tests and analysis validation).
    pub release_points_hit: Vec<usize>,
}

impl MapHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        MapHost::default()
    }

    /// Creates a host pre-populated with entries.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (StateKey, U256)>,
    {
        MapHost {
            entries: entries.into_iter().collect(),
            release_points_hit: Vec::new(),
        }
    }

    /// Direct read access for assertions.
    pub fn get(&self, key: &StateKey) -> U256 {
        self.entries.get(key).copied().unwrap_or(U256::ZERO)
    }

    /// Iterates over all nonzero entries.
    pub fn iter(&self) -> impl Iterator<Item = (&StateKey, &U256)> {
        self.entries.iter()
    }
}

impl Host for MapHost {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        Ok(self.entries.get(&key).copied().unwrap_or(U256::ZERO))
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        if value.is_zero() {
            self.entries.remove(&key);
        } else {
            self.entries.insert(key, value);
        }
        Ok(())
    }

    fn on_release_point(&mut self, pc: usize, _gas_left: u64) {
        self.release_points_hit.push(pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(1), U256::from(i))
    }

    #[test]
    fn map_host_read_write() {
        let mut host = MapHost::new();
        assert_eq!(host.sload(key(1)).unwrap(), U256::ZERO);
        host.sstore(key(1), U256::from(5u64)).unwrap();
        assert_eq!(host.sload(key(1)).unwrap(), U256::from(5u64));
    }

    #[test]
    fn map_host_zero_deletes() {
        let mut host = MapHost::from_entries([(key(1), U256::from(5u64))]);
        host.sstore(key(1), U256::ZERO).unwrap();
        assert_eq!(host.iter().count(), 0);
    }

    #[test]
    fn default_sadd_is_read_modify_write() {
        let mut host = MapHost::from_entries([(key(1), U256::from(5u64))]);
        host.sadd(key(1), U256::from(3u64)).unwrap();
        assert_eq!(host.get(&key(1)), U256::from(8u64));
    }

    #[test]
    fn release_points_recorded() {
        let mut host = MapHost::new();
        host.on_release_point(42, 1000);
        assert_eq!(host.release_points_hit, vec![42]);
    }
}

//! `dmvcc-dst` — deterministic-simulation testing for the DMVCC executors.
//!
//! Everything in this crate drives the [`dmvcc_core::SchedHook`] surface
//! the threaded executors expose at their scheduling decision points:
//!
//! - [`VirtualScheduler`]: a seeded [`dmvcc_core::SchedHook`] whose every
//!   decision (preemptions, delayed publishes, shard-lock stalls, injected
//!   aborts, forced release gates) is a pure function of `(seed, site,
//!   coordinates)` — replaying a seed re-applies identical perturbations
//!   regardless of OS thread scheduling.
//! - [`FaultPlan`]: seeded perturbation of the executor's *inputs* —
//!   mispredicted C-SAG keys (dropped and phantom predictions), gas
//!   squeezes forcing out-of-gas after every release point, and (via the
//!   fuzz driver) stale-snapshot predictions.
//! - [`fuzz()`]: the differential fuzz engine — every seed runs the chosen
//!   threaded engine ([`dmvcc_core::ExecutorKind`]) and the virtual-time
//!   simulator ([`dmvcc_sim::simulate_dmvcc`]) against the serial oracle,
//!   shrinks any divergence to a
//!   minimal `(seed, size)` prefix, and renders it as a deterministic,
//!   replayable report.
//! - [`Mutation`]: deliberately-broken executor variants used to prove the
//!   fuzzer's teeth — with `skip-release-gas-bound` active, a campaign must
//!   find a diverging seed quickly.
//!
//! The binary (`cargo run -p dmvcc-dst -- fuzz --seeds 200`) wraps the
//! engine for CI and interactive use; see `docs/TESTING.md` for the test
//! tiers, seed replay and the gating policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod fuzz;
mod sched;

pub use faults::{FaultPlan, Mutation};
pub use fuzz::{
    fuzz, run_seed, shrink, BackendUnderTest, Divergence, FuzzConfig, FuzzOutcome, Profile,
    Refinement,
};
pub use sched::{SchedConfig, SchedStats, VirtualScheduler};

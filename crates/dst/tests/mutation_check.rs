//! Mutation check (the harness's own acceptance test): with a deliberately
//! broken executor — every release gate passes and published versions of
//! deterministically-aborted transactions are leaked
//! ([`Mutation::SkipReleaseGasBound`]) — the fuzz driver must find a
//! diverging seed quickly, and replaying that seed must reproduce the
//! divergence report byte for byte.

use dmvcc_dst::{fuzz, run_seed, FuzzConfig, Mutation};

fn mutated_config() -> FuzzConfig {
    FuzzConfig {
        mutation: Mutation::SkipReleaseGasBound,
        size: 40,
        ..FuzzConfig::default()
    }
}

#[test]
fn broken_release_gate_is_caught_within_200_seeds() {
    let config = mutated_config();
    let outcome = fuzz(0, 200, &config, None, |_| {});
    let divergence = outcome
        .divergence
        .expect("SkipReleaseGasBound must diverge within 200 seeds");
    // The report is replayable: the case it names must reproduce the
    // identical divergence text, twice.
    let replay = divergence.case.clone();
    assert_eq!(replay.mutation, config.mutation);
    let first =
        run_seed(divergence.seed, &replay).expect("replaying the shrunk seed must still diverge");
    let second =
        run_seed(divergence.seed, &replay).expect("replaying the shrunk seed must still diverge");
    assert_eq!(
        format!("{first}"),
        format!("{second}"),
        "replay must be byte-for-byte deterministic"
    );
    assert_eq!(
        format!("{first}"),
        format!("{divergence}"),
        "replay must reproduce the originally reported divergence"
    );
}

#[test]
fn unmutated_run_stays_clean_on_the_same_seeds() {
    // Control arm: the exact seeds that catch the mutation are clean
    // without it, so the check above measures the mutation, not noise.
    let config = FuzzConfig {
        size: 40,
        ..FuzzConfig::default()
    };
    let outcome = fuzz(0, 20, &config, None, |_| {});
    assert!(
        outcome.divergence.is_none(),
        "unmutated executors diverged: {:?}",
        outcome.divergence
    );
}

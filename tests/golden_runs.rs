//! Golden-run regression suite: tier-2 protection for the whole training
//! stack.
//!
//! Every registered scenario runs a short deterministic training cell
//! under {Ideal, Sampled, Noisy, Trajectory} × {Serial, Batched}. Under
//! every backend the (reward, loss, entropy, final parameter)
//! fingerprint is asserted bit-exactly against the committed tables
//! below — any change to the simulators (statevector, shot sampling,
//! superoperator density, trajectory sampling), the gradient engines,
//! the rollout collectors, the update sweep, the environments or the
//! seeding contract shows up here. Under **Sampled** the two engines
//! must also agree bit-exactly with a re-run (the content-addressed
//! shot-stream contract).
//!
//! When an *intentional* change shifts the numbers, regenerate the
//! tables with:
//!
//! ```text
//! QMARL_BLESS=1 cargo test --test golden_runs -- --nocapture
//! ```
//!
//! and paste the printed rows over the matching `GOLDEN_*` table.

use qmarl::harness::prelude::*;
use qmarl::runtime::backend::ExecutionBackend;

/// FNV-1a over the exact bit patterns of every f64 the run produced.
fn fingerprint(result: &CellResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bits: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (bits >> shift) & 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for rec in result.history.records() {
        eat(rec.metrics.total_reward.to_bits());
        eat(rec.metrics.avg_queue.to_bits());
        eat(rec.critic_loss.to_bits());
        eat(rec.mean_entropy.to_bits());
    }
    eat(u64::MAX); // domain separator
    for params in &result.snapshot.actor_params {
        for p in params {
            eat(p.to_bits());
        }
    }
    for p in &result.snapshot.critic_params {
        eat(p.to_bits());
    }
    h
}

/// One deterministic cell of the given length, seed 9.
fn run_sized(scenario: &str, backend: &str, engine: &str, epochs: usize, limit: usize) -> u64 {
    let spec: ExperimentSpec = format!(
        "name=golden;scenarios={scenario};backends={backend};engines={engine};\
         seeds=9;epochs={epochs};limit={limit}"
    )
    .parse()
    .expect("valid golden spec");
    let cell = spec.expand().remove(0);
    let result = run_cell(&spec, &cell, &CellOptions::default()).expect("golden cell runs");
    assert_eq!(result.history.len(), epochs);
    fingerprint(&result)
}

/// The standard short cell: 2 epochs × 5-step episodes, seed 9.
fn run(scenario: &str, backend: &str, engine: &str) -> u64 {
    run_sized(scenario, backend, engine, 2, 5)
}

const SAMPLED: &str = "sampled:shots=32:seed=5";
const NOISY: &str = "noisy:p1=0.01:p2=0.02:shots=24:seed=7";
const TRAJECTORY: &str = "trajectory:p1=0.01:p2=0.02:samples=8:seed=7";

/// The committed Ideal fingerprints, one per registered scenario. Both
/// update engines must land exactly here.
const GOLDEN_IDEAL: &[(&str, u64)] = &[
    ("single-hop", 0x66eb5251dbb81ed8),
    ("single-hop-bursty", 0x5ecc57ed8dd559c9),
    ("single-hop-wide", 0xf8e2c722685d3775),
    ("two-tier", 0x4643143e1cf237d2),
];

/// Committed fingerprints for a short Noisy (superoperator density +
/// finite shots) training cell. `single-hop-wide` is skipped on purpose:
/// its 8-qubit actor makes every density evaluation a 65 536-amplitude
/// register, and the execution path it would pin is identical to the
/// other rows'.
const GOLDEN_NOISY: &[(&str, u64)] = &[
    ("single-hop", 0xd74fd9405546c9dc),
    ("single-hop-bursty", 0xba10c7b35103e70b),
    ("two-tier", 0xd671d60f3a127d0c),
];

/// Committed fingerprints for a short Trajectory (quantum-jump sampling)
/// training cell. Statevector-sized work, so every scenario — including
/// the 8-qubit wide one — gets a row.
const GOLDEN_TRAJECTORY: &[(&str, u64)] = &[
    ("single-hop", 0xa3af1ad2710e6249),
    ("single-hop-bursty", 0xfc35fff1bcb40a91),
    ("single-hop-wide", 0x630eba60712ed1fc),
    ("two-tier", 0x1968f50000944bcf),
];

/// Committed fingerprints for a short Sampled (finite-shot readout,
/// parameter-shift gradients) training cell, one per registered
/// scenario: pins the content-addressed shot streams and the shift
/// evaluations that consume them.
const GOLDEN_SAMPLED: &[(&str, u64)] = &[
    ("single-hop", 0x9b78a3ee08bb1c5),
    ("single-hop-bursty", 0xdedaaf4f86b0ef2),
    ("single-hop-wide", 0xe1b0a569171b51d6),
    ("two-tier", 0x816d05a944ed5d5b),
];

/// Shared driver for a committed-fingerprint table: per scenario, both
/// engines must agree bit-exactly and land on the committed value (or,
/// under `QMARL_BLESS=1`, print a fresh table).
fn check_golden_table(
    backend: &str,
    table_name: &str,
    table: &[(&str, u64)],
    epochs: usize,
    limit: usize,
) {
    let bless = std::env::var("QMARL_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut printed = String::new();
    let mut failures = Vec::new();
    for &(scenario, expected) in table {
        let batched = run_sized(scenario, backend, "batched", epochs, limit);
        let serial = run_sized(scenario, backend, "serial", epochs, limit);
        assert_eq!(
            batched, serial,
            "{scenario}: update engines must be bit-identical under {backend}"
        );
        printed.push_str(&format!("    (\"{scenario}\", {batched:#x}),\n"));
        if batched != expected {
            failures.push(format!(
                "{scenario}: fingerprint {batched:#x} != committed {expected:#x}"
            ));
        }
    }
    if bless {
        println!("const {table_name}: &[(&str, u64)] = &[\n{printed}];");
        return;
    }
    assert!(
        failures.is_empty(),
        "golden {backend} fingerprints drifted:\n{}\nnew table (QMARL_BLESS=1 to print):\n{printed}",
        failures.join("\n")
    );
}

#[test]
fn golden_runs_match_committed_fingerprints_under_ideal() {
    let scenarios: Vec<&str> = qmarl::env::scenario::scenarios()
        .iter()
        .map(|s| s.name())
        .collect();
    assert_eq!(
        scenarios,
        GOLDEN_IDEAL.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        "GOLDEN_IDEAL must cover exactly the registered scenarios; \
         re-bless after registry changes"
    );
    let bless = std::env::var("QMARL_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut table = String::new();
    let mut failures = Vec::new();
    for &(scenario, expected) in GOLDEN_IDEAL {
        let batched = run(scenario, "ideal", "batched");
        let serial = run(scenario, "ideal", "serial");
        assert_eq!(
            batched, serial,
            "{scenario}: update engines must be bit-identical under ideal"
        );
        table.push_str(&format!("    (\"{scenario}\", {batched:#x}),\n"));
        if batched != expected {
            failures.push(format!(
                "{scenario}: fingerprint {batched:#x} != committed {expected:#x}"
            ));
        }
    }
    if bless {
        println!("const GOLDEN_IDEAL: &[(&str, u64)] = &[\n{table}];");
        return;
    }
    assert!(
        failures.is_empty(),
        "golden Ideal fingerprints drifted:\n{}\nnew table (QMARL_BLESS=1 to print):\n{table}",
        failures.join("\n")
    );
}

#[test]
fn golden_runs_match_committed_fingerprints_under_noisy() {
    // A shorter cell than the other backends' (1 epoch × 3-step
    // episodes): every parameter-shift evaluation evolves the full 4^n
    // density register, so the standard cell would dominate the suite's
    // unoptimized (debug) wall time without pinning anything extra.
    check_golden_table(NOISY, "GOLDEN_NOISY", GOLDEN_NOISY, 1, 3);
}

#[test]
fn golden_runs_match_committed_fingerprints_under_trajectory() {
    let scenarios: Vec<&str> = qmarl::env::scenario::scenarios()
        .iter()
        .map(|s| s.name())
        .collect();
    assert_eq!(
        scenarios,
        GOLDEN_TRAJECTORY
            .iter()
            .map(|(s, _)| *s)
            .collect::<Vec<_>>(),
        "GOLDEN_TRAJECTORY must cover exactly the registered scenarios; \
         re-bless after registry changes"
    );
    check_golden_table(TRAJECTORY, "GOLDEN_TRAJECTORY", GOLDEN_TRAJECTORY, 2, 5);
}

#[test]
fn golden_runs_match_committed_fingerprints_under_sampled() {
    let scenarios: Vec<&str> = qmarl::env::scenario::scenarios()
        .iter()
        .map(|s| s.name())
        .collect();
    assert_eq!(
        scenarios,
        GOLDEN_SAMPLED.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        "GOLDEN_SAMPLED must cover exactly the registered scenarios; \
         re-bless after registry changes"
    );
    check_golden_table(SAMPLED, "GOLDEN_SAMPLED", GOLDEN_SAMPLED, 2, 5);
}

#[test]
fn golden_runs_are_engine_invariant_and_deterministic_under_sampled() {
    for spec in qmarl::env::scenario::scenarios() {
        let scenario = spec.name();
        let batched = run(scenario, SAMPLED, "batched");
        let serial = run(scenario, SAMPLED, "serial");
        assert_eq!(
            batched, serial,
            "{scenario}: engines must agree bit-exactly under the sampled backend"
        );
        let again = run(scenario, SAMPLED, "batched");
        assert_eq!(
            batched, again,
            "{scenario}: sampled training must be deterministic run to run"
        );
    }
}

#[test]
fn golden_fingerprints_distinguish_scenarios_and_backends() {
    // Sanity on the fingerprint itself: different cells hash differently
    // (a collapse here would make the suite vacuously green).
    let a = run("single-hop", "ideal", "batched");
    let b = run("single-hop-bursty", "ideal", "batched");
    let c = run("single-hop", SAMPLED, "batched");
    assert_ne!(a, b);
    assert_ne!(a, c);
    // And the Ideal backend spelled explicitly matches the default axis.
    let explicit = {
        let spec: ExperimentSpec = "name=golden;scenarios=single-hop;seeds=9;epochs=2;limit=5"
            .parse()
            .unwrap();
        assert_eq!(spec.backends, vec![ExecutionBackend::Ideal]);
        let cell = spec.expand().remove(0);
        fingerprint(&run_cell(&spec, &cell, &CellOptions::default()).unwrap())
    };
    assert_eq!(a, explicit);
}

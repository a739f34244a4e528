//! Property: the batched update sweep is **bit-identical** to the serial
//! reference sweep — for every registered scenario, for quantum and MLP
//! stacks, across batch sizes {1, 4, 16}.
//!
//! This is the correctness contract of the batched gradient engine
//! (`runtime::prebound::prebind_adjoint` + the trainer's
//! `UpdateEngine::Batched`): the engines may only change *how* gradients
//! are computed, never a single bit of which updates are applied. The
//! assertions compare whole training histories and every final parameter
//! with `assert_eq!`, not tolerances.

use qmarl::core::prelude::*;
use qmarl::env::prelude::*;
use qmarl::vqc::prelude::GradMethod;

/// A short horizon keeps 16-episode sweeps affordable in debug builds
/// without changing what the property covers.
const EPISODE_LIMIT: usize = 4;

fn scenario_env(name: &str, seed: u64) -> Box<dyn ScenarioEnv> {
    let params = ScenarioParams::seeded(seed).with_episode_limit(EPISODE_LIMIT);
    build_scenario_with(name, &params).expect("registered scenario builds")
}

/// Quantum stack sized to the scenario's shapes: one readout wire per
/// action (so wide scenarios get wider registers), the critic always on
/// the paper's 4-qubit folded-encoder register.
fn quantum_trainer(
    name: &str,
    seed: u64,
    grad_method: GradMethod,
    engine: UpdateEngine,
) -> CtdeTrainer<Box<dyn ScenarioEnv>> {
    let env = scenario_env(name, seed);
    let n_qubits = env.n_actions().max(4);
    let actors: Vec<Box<dyn Actor>> = (0..env.n_agents())
        .map(|n| {
            Box::new(
                QuantumActor::new(
                    n_qubits,
                    env.obs_dim(),
                    env.n_actions(),
                    50.max(2 * env.n_actions() + 8),
                    seed + n as u64,
                )
                .expect("actor builds")
                .with_grad_method(grad_method),
            ) as Box<dyn Actor>
        })
        .collect();
    let critic = Box::new(
        QuantumCritic::new(4, env.state_dim(), 50, seed + 100)
            .expect("critic builds")
            .with_grad_method(grad_method),
    );
    let mut config = TrainConfig::paper_default();
    config.seed = seed;
    config.replay_capacity = 16;
    let mut t = CtdeTrainer::new(env, actors, critic, config).expect("trainer builds");
    t.set_update_engine(engine);
    t
}

fn classical_trainer(
    name: &str,
    seed: u64,
    engine: UpdateEngine,
) -> CtdeTrainer<Box<dyn ScenarioEnv>> {
    let env = scenario_env(name, seed);
    let actors: Vec<Box<dyn Actor>> = (0..env.n_agents())
        .map(|n| {
            Box::new(
                ClassicalActor::new(&[env.obs_dim(), 5, env.n_actions()], seed + n as u64)
                    .expect("actor builds"),
            ) as Box<dyn Actor>
        })
        .collect();
    let critic =
        Box::new(ClassicalCritic::new(&[env.state_dim(), 2, 1], seed).expect("critic builds"));
    let mut config = TrainConfig::paper_default();
    config.seed = seed;
    config.replay_capacity = 16;
    let mut t = CtdeTrainer::new(env, actors, critic, config).expect("trainer builds");
    t.set_update_engine(engine);
    t
}

/// Trains one vectorized epoch of `batch` episodes (so the sweep covers a
/// `batch`-episode minibatch) and returns everything the equivalence
/// check compares.
fn run_epoch(
    mut t: CtdeTrainer<Box<dyn ScenarioEnv>>,
    batch: usize,
) -> (TrainingHistory, Vec<Vec<f64>>, Vec<f64>) {
    t.run_epoch_vec(batch, batch.min(4)).expect("epoch runs");
    (
        t.history().clone(),
        t.actors().iter().map(|a| a.params()).collect(),
        t.critic().params(),
    )
}

#[test]
fn batched_sweep_is_bit_identical_for_every_scenario() {
    for spec in scenarios() {
        for &batch in &[1usize, 4, 16] {
            let seed = 1000 + batch as u64;
            let serial = run_epoch(
                quantum_trainer(spec.name(), seed, GradMethod::Adjoint, UpdateEngine::Serial),
                batch,
            );
            let batched = run_epoch(
                quantum_trainer(
                    spec.name(),
                    seed,
                    GradMethod::Adjoint,
                    UpdateEngine::Batched,
                ),
                batch,
            );
            assert_eq!(
                serial,
                batched,
                "quantum stack drifted: scenario {} batch {batch}",
                spec.name()
            );

            let serial = run_epoch(
                classical_trainer(spec.name(), seed, UpdateEngine::Serial),
                batch,
            );
            let batched = run_epoch(
                classical_trainer(spec.name(), seed, UpdateEngine::Batched),
                batch,
            );
            assert_eq!(
                serial,
                batched,
                "MLP stack drifted: scenario {} batch {batch}",
                spec.name()
            );
        }
    }
}

#[test]
fn batched_sweep_is_bit_identical_under_parameter_shift() {
    // Adjoint unavailable (hardware-rule gradients requested): the batch
    // engine falls back to the flat parameter-shift queue, which must be
    // just as bit-exact against the serial shift path.
    for &batch in &[1usize, 4] {
        let seed = 2000 + batch as u64;
        let serial = run_epoch(
            quantum_trainer(
                "single-hop",
                seed,
                GradMethod::ParameterShift,
                UpdateEngine::Serial,
            ),
            batch,
        );
        let batched = run_epoch(
            quantum_trainer(
                "single-hop",
                seed,
                GradMethod::ParameterShift,
                UpdateEngine::Batched,
            ),
            batch,
        );
        assert_eq!(serial, batched, "parameter-shift drifted at batch {batch}");
    }
}

/// The entropy-regularised MAPG logits gradient, spelled out from its
/// public pieces: `advantage·(π − 1ₐ) + β·π(ln π + H)`.
fn mapg_upstream(probs: &[f64], action: usize, advantage: f64, beta: f64) -> Vec<f64> {
    let mut up = qmarl::neural::prelude::policy_gradient_logits(probs, action, advantage);
    if beta != 0.0 {
        let h = qmarl::neural::loss::entropy(probs);
        for (u, &p) in up.iter_mut().zip(probs) {
            if p > 0.0 {
                *u += beta * p * (p.ln() + h);
            }
        }
    }
    up
}

#[test]
fn actor_gradients_match_the_jacobian_contraction_on_every_scenario() {
    // On observations the scenario really emits, every quantum actor's
    // MAPG gradient — batched and per sample — stays within 1e-12 (of the
    // row's largest entry) of the full Jacobian contracted with the
    // softmax upstream, and the two engines agree bit for bit.
    let mut worst = 0.0f64;
    for spec in scenarios() {
        let mut t = quantum_trainer(spec.name(), 77, GradMethod::Adjoint, UpdateEngine::Batched);
        let mut transitions = Vec::new();
        for _ in 0..3 {
            let (episode, _, _) = t.rollout(false).expect("rollout runs");
            transitions.extend(episode.transitions().iter().cloned());
        }
        let advantages: Vec<f64> = (0..transitions.len())
            .map(|i| 1.7 * ((i * 5 + 2) % 9) as f64 / 9.0 - 0.8)
            .collect();
        for (n, actor) in t.actors().iter().enumerate() {
            let (compiled, params) = actor.runtime_handle().expect("quantum actor");
            let obs: Vec<Vec<f64>> = transitions
                .iter()
                .map(|tr| tr.observations[n].clone())
                .collect();
            let actions: Vec<usize> = transitions.iter().map(|tr| tr.actions[n]).collect();
            let jacobians = compiled
                .forward_with_jacobian_batch_prebound(&obs, params)
                .expect("jacobians");
            for beta in [0.0, 0.05] {
                let batched = actor
                    .policy_gradients_batch(&obs, &actions, &advantages, beta)
                    .expect("batched gradients");
                for (row, (logits, jac)) in jacobians.iter().enumerate() {
                    let probs = qmarl::neural::prelude::softmax(logits);
                    let want = jac.vjp(&mapg_upstream(&probs, actions[row], advantages[row], beta));
                    let serial = actor
                        .policy_gradient_with_entropy(
                            &obs[row],
                            actions[row],
                            advantages[row],
                            beta,
                        )
                        .expect("serial gradient");
                    assert_eq!(serial, batched[row], "{} agent {n} row {row}", spec.name());
                    let scale = want.iter().fold(0.0f64, |m, g| m.max(g.abs()));
                    for (g, w) in batched[row].iter().zip(&want) {
                        let rel = (g - w).abs() / scale.max(f64::MIN_POSITIVE);
                        worst = worst.max(rel);
                        assert!(
                            rel <= 1e-12,
                            "{} agent {n} row {row}: {g} vs {w}",
                            spec.name()
                        );
                    }
                }
            }
        }
    }
    println!("worst relative deviation from the Jacobian contraction: {worst:e}");
}

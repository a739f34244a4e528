//! Timing decorators for the layer traits the trainer drives.
//!
//! Each decorator forwards **every** trait method to the wrapped value,
//! including the fast paths with default bodies (`probs_batch`,
//! `runtime_handle`, `policy_gradients_batch`, `values_batch`,
//! `values_with_gradients_batch`). A decorator that left one of them to
//! the trait default would silently route the traced run through a
//! different program than the untraced one; the traced runs assert
//! bit-identical histories to catch exactly that.

use qmarl_core::error::CoreError;
use qmarl_core::policy::Actor;
use qmarl_core::value::Critic;
use qmarl_env::error::EnvError;
use qmarl_env::multi_agent::{MultiAgentEnv, StepOutcome};
use qmarl_env::vector::SeedableEnv;
use qmarl_runtime::qnn::CompiledVqc;
use qmarl_vqc::grad::Jacobian;

use crate::trace::layer;

/// An [`Actor`] whose calls are recorded as `core.actor.*` spans.
pub struct TimedActor(pub Box<dyn Actor>);

/// Wraps every actor of a set.
pub fn timed_actors(actors: Vec<Box<dyn Actor>>) -> Vec<Box<dyn Actor>> {
    actors
        .into_iter()
        .map(|a| Box::new(TimedActor(a)) as Box<dyn Actor>)
        .collect()
}

impl Actor for TimedActor {
    fn obs_dim(&self) -> usize {
        self.0.obs_dim()
    }

    fn n_actions(&self) -> usize {
        self.0.n_actions()
    }

    fn param_count(&self) -> usize {
        self.0.param_count()
    }

    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError> {
        let _s = layer("core.actor.probs", 1);
        self.0.probs(obs)
    }

    fn probs_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        let _s = layer("core.actor.probs_batch", batch.len());
        self.0.probs_batch(batch)
    }

    fn runtime_handle(&self) -> Option<(&CompiledVqc, &[f64])> {
        self.0.runtime_handle()
    }

    fn policy_gradient(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let _s = layer("core.actor.grad", 1);
        self.0.policy_gradient(obs, action, advantage)
    }

    fn policy_gradient_with_entropy(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
        entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let _s = layer("core.actor.grad", 1);
        self.0
            .policy_gradient_with_entropy(obs, action, advantage, entropy_coef)
    }

    fn policy_gradients_batch(
        &self,
        obs: &[Vec<f64>],
        actions: &[usize],
        advantages: &[f64],
        entropy_coef: f64,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let _s = layer("core.actor.grad", obs.len());
        self.0
            .policy_gradients_batch(obs, actions, advantages, entropy_coef)
    }

    fn params(&self) -> Vec<f64> {
        self.0.params()
    }

    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        let _s = layer("core.actor.set_params", 1);
        self.0.set_params(params)
    }

    fn clone_box(&self) -> Box<dyn Actor> {
        Box::new(TimedActor(self.0.clone_box()))
    }
}

/// A [`Critic`] whose calls are recorded as `core.critic.*` spans. The
/// trainer's target network is a `clone_box` of the live critic, so it is
/// timed too.
pub struct TimedCritic(pub Box<dyn Critic>);

impl Critic for TimedCritic {
    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }

    fn param_count(&self) -> usize {
        self.0.param_count()
    }

    fn value(&self, state: &[f64]) -> Result<f64, CoreError> {
        let _s = layer("core.critic.values", 1);
        self.0.value(state)
    }

    fn values_batch(&self, states: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        let _s = layer("core.critic.values", states.len());
        self.0.values_batch(states)
    }

    fn value_with_gradient(&self, state: &[f64]) -> Result<(f64, Vec<f64>), CoreError> {
        let _s = layer("core.critic.grad", 1);
        self.0.value_with_gradient(state)
    }

    fn values_with_gradients_batch(
        &self,
        states: &[Vec<f64>],
    ) -> Result<Vec<(f64, Jacobian)>, CoreError> {
        let _s = layer("core.critic.grad", states.len());
        self.0.values_with_gradients_batch(states)
    }

    fn params(&self) -> Vec<f64> {
        self.0.params()
    }

    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        let _s = layer("core.critic.set_params", 1);
        self.0.set_params(params)
    }

    fn clone_box(&self) -> Box<dyn Critic> {
        Box::new(TimedCritic(self.0.clone_box()))
    }
}

/// An environment whose `reset` and `step` are recorded as `env.*` spans.
/// Clones (the vectorized collector's lanes) stay timed.
#[derive(Debug, Clone)]
pub struct TimedEnv<E>(pub E);

impl<E: MultiAgentEnv> MultiAgentEnv for TimedEnv<E> {
    fn n_agents(&self) -> usize {
        self.0.n_agents()
    }

    fn obs_dim(&self) -> usize {
        self.0.obs_dim()
    }

    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }

    fn n_actions(&self) -> usize {
        self.0.n_actions()
    }

    fn episode_limit(&self) -> usize {
        self.0.episode_limit()
    }

    fn reset(&mut self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let _s = layer("env.reset", 1);
        self.0.reset()
    }

    fn step(&mut self, actions: &[usize]) -> Result<StepOutcome, EnvError> {
        let _s = layer("env.step", 1);
        self.0.step(actions)
    }
}

impl<E: SeedableEnv> SeedableEnv for TimedEnv<E> {
    fn reseed(&mut self, seed: u64) {
        let _s = layer("env.reset", 1);
        self.0.reseed(seed);
    }
}

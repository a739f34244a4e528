//! `paper-train`: the paper's own experiment. Table II configuration,
//! the `Proposed` framework, `build_trainer` and a serial `run_epoch`
//! loop, as the figure binaries run it: single-hop, T = 300, Ideal
//! backend, adjoint gradients, one episode per update.

use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_env::multi_agent::MultiAgentEnv;
use qmarl_env::single_hop::SingleHopEnv;

use crate::report::{median, Meter, Outcome, SEGMENTS};
use crate::timed::{timed_actors, TimedCritic, TimedEnv};
use crate::trace;

/// Seconds of epochs per chunk whose CPU time per transition is one
/// sample of `cpu_us_per_op`.
const CPU_CHUNK_S: f64 = 0.5;
/// Epochs per second of `--seconds` in each pass of the traced run.
const TRACE_EPOCHS_PER_SECOND: u64 = 20;
/// Epochs per alternating chunk of the traced run.
const TRACE_CHUNK: u64 = 10;

fn config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default();
    config.train.seed = seed;
    config
}

/// `build_trainer` with every actor, the critic and the environment
/// wrapped in timing decorators; otherwise the same construction.
fn build_traced(
    config: &ExperimentConfig,
) -> Result<CtdeTrainer<TimedEnv<SingleHopEnv>>, CoreError> {
    let env = SingleHopEnv::new(config.env.clone(), config.train.seed)?;
    let actors = build_actors(FrameworkKind::Proposed, &config.env, &config.train)?;
    let critic = build_critic(FrameworkKind::Proposed, &config.env, &config.train)?;
    CtdeTrainer::new(
        TimedEnv(env),
        timed_actors(actors),
        Box::new(TimedCritic(critic)),
        config.train.clone(),
    )
}

/// Epochs whose reward or critic loss is not finite.
fn non_finite(history: &TrainingHistory) -> u64 {
    history
        .records()
        .iter()
        .filter(|r| !(r.metrics.total_reward.is_finite() && r.critic_loss.is_finite()))
        .count() as u64
}

fn history_notes(out: &mut Outcome, history: &TrainingHistory) {
    let first = history
        .records()
        .first()
        .map_or(f64::NAN, |r| r.metrics.total_reward);
    out.note(format!(
        "epochs {} first_reward {first:.4} final_reward {:.4} (trailing-10 mean)",
        history.len(),
        history.final_reward(10).unwrap_or(f64::NAN)
    ));
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let config = config(seed);
    let err = |e: CoreError| e.to_string();
    let mut out = Outcome::default();
    if !traced {
        let build = || build_trainer(FrameworkKind::Proposed, &config);
        let mut meter = Meter::start()?;
        let mut trainer = meter.setup(build)?;
        let mut epoch_s = Vec::new();
        let mut transitions = 0;
        let mut window_s = 0.0;
        for segment in 0..SEGMENTS {
            if segment > 0 {
                drop(meter.setup(build)?);
            }
            let window = Instant::now();
            let segment_s = seconds as f64 / SEGMENTS as f64;
            while window.elapsed().as_secs_f64() < segment_s {
                let chunk = Instant::now();
                meter.chunk(|| {
                    let mut len = 0;
                    while chunk.elapsed().as_secs_f64() < CPU_CHUNK_S
                        && window.elapsed().as_secs_f64() < segment_s
                    {
                        let t0 = Instant::now();
                        let record = trainer.run_epoch().map_err(err)?;
                        epoch_s.push(t0.elapsed().as_secs_f64());
                        len += record.metrics.len;
                    }
                    transitions += len;
                    Ok(((), len as u64))
                })?;
            }
            window_s += window.elapsed().as_secs_f64();
        }
        drop(meter.setup(build)?);
        let history = trainer.history();
        out.attempted = history.len() as u64;
        out.failed = non_finite(history);
        out.gate("every reward and loss is finite", out.failed == 0);
        history_notes(&mut out, history);
        out.note(format!(
            "wall: {:.1} transitions/s, epoch p50 {:.3} ms",
            transitions as f64 / window_s,
            1e3 * median(&epoch_s)
        ));
        out.metric("setup_s", meter.setup_s()?);
        out.metric("cpu_us_per_op", meter.cpu_us_per_op()?);
        for line in meter.notes() {
            out.note(line);
        }
        return Ok(out);
    }

    // Traced run: the same epochs untraced and through the decorators,
    // from freshly built trainers with the same seed, in alternating
    // chunks so drift in machine speed hits both sides alike.
    let epochs = TRACE_EPOCHS_PER_SECOND * seconds;
    let mut plain = build_trainer(FrameworkKind::Proposed, &config).map_err(err)?;
    let mut timed = build_traced(&config).map_err(err)?;
    let rounds = epochs.div_ceil(TRACE_CHUNK);
    let (untraced_s, traced_s, recording) = trace::alternate(rounds, |round, traced| {
        let chunk = round * TRACE_CHUNK..((round + 1) * TRACE_CHUNK).min(epochs);
        for epoch in chunk {
            if traced {
                let _op = trace::op("core.epoch", epoch);
                timed.run_epoch().map_err(err)?;
            } else {
                plain.run_epoch().map_err(err)?;
            }
        }
        Ok(())
    })?;

    let limit = timed.env_mut().episode_limit() as u64;
    out.attempted = 2 * epochs;
    out.failed = non_finite(plain.history()) + non_finite(timed.history());
    out.gate("every reward and loss is finite", out.failed == 0);
    out.gate(
        "traced history equals untraced history bit for bit",
        format!("{:?}", plain.history()) == format!("{:?}", timed.history()),
    );
    out.gate(
        format!("env.step calls = epochs x T = {}", epochs * limit),
        recording.get("env.step").calls == epochs * limit,
    );
    history_notes(&mut out, timed.history());
    let epoch_ns = recording.get("core.epoch").ns;
    out.metric("wall.ops_per_s", (epochs * limit) as f64 / untraced_s);
    let unattributed_s = traced_s - epoch_ns as f64 / 1e9;
    out.traced(untraced_s, traced_s, unattributed_s, recording);
    Ok(out)
}

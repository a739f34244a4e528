//! `nisq-sweep`: `harness::run_sweep` over two seeds of the `Proposed`
//! framework on single-hop under a shot-sampled backend, with lockstep
//! vector lanes and a checkpoint every epoch into a fresh directory.
//! Shot-sampled parameter-shift gradients put most of the time in the
//! runtime and simulator; the serial `Actor::probs` path is never taken.

use std::path::{Path, PathBuf};
use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_env::multi_agent::MultiAgentEnv;
use qmarl_env::scenario::{build_scenario_with, ScenarioEnv, ScenarioParams};
use qmarl_env::vector::SeedableEnv;
use qmarl_harness::cell::checkpoint_path;
use qmarl_harness::prelude::*;

use crate::report::{median, Meter, Outcome};
use crate::timed::{timed_actors, TimedCritic, TimedEnv};
use crate::trace;

/// Training epochs per cell in one sweep. Two epochs with a checkpoint
/// after each exercise the mid-run checkpoint cadence (one save before
/// the final one) and spread the cell build and the first, cache-cold
/// epoch over the cell, while three sweeps still fit a 30 s run.
const EPOCHS: usize = 2;
/// Seconds of `--seconds` per sweep: a run makes a fixed number of
/// sweeps, so its work (and peak memory) does not depend on machine speed.
const SECONDS_PER_SWEEP: u64 = 10;

/// The sweep spec of a workload seed: two cell seeds and a backend
/// whose shot sampler is seeded from it.
fn spec_string(seed: u64) -> String {
    format!(
        "name=nisq-sweep;scenarios=single-hop;frameworks=Proposed;\
         backends=sampled:shots=128:seed={seed};seeds={},{};epochs={EPOCHS};\
         episodes=4;lanes=4;mode=vec;checkpoint=1",
        seed,
        seed.wrapping_add(1)
    )
}

type Env = Box<dyn ScenarioEnv>;

/// The validated spec, its cells and the transitions one sweep trains on.
struct Prepared {
    spec: ExperimentSpec,
    cells: Vec<CellId>,
    transitions: f64,
}

/// A cell's trainer as `run_cell` builds it.
fn build_cell(spec: &ExperimentSpec, id: &CellId) -> Result<CtdeTrainer<Env>, String> {
    let mut train = spec.train.clone();
    train.seed = id.seed;
    train.epochs = spec.epochs;
    let mut trainer = build_kind_scenario_trainer(
        id.framework,
        &id.scenario,
        &id.backend,
        &train,
        spec.episode_limit,
    )
    .map_err(|e| e.to_string())?;
    trainer.set_update_engine(id.engine);
    Ok(trainer)
}

/// Set-up: parse, validate and expand the spec, then build every cell's
/// trainer (actors, critic, environment) the way the sweep's cells do.
/// The trainers are returned so that dropping them is not timed.
fn prepare(seed: u64) -> Result<(Prepared, Vec<CtdeTrainer<Env>>), String> {
    let spec: ExperimentSpec = spec_string(seed).parse().map_err(|e| format!("{e}"))?;
    spec.validate().map_err(|e| e.to_string())?;
    let cells = spec.expand();
    let mut trainers = cells
        .iter()
        .map(|id| build_cell(&spec, id))
        .collect::<Result<Vec<_>, String>>()?;
    let mut transitions = 0;
    for trainer in &mut trainers {
        transitions += spec.epochs * spec.episodes_per_epoch * trainer.env_mut().episode_limit();
    }
    let prepared = Prepared {
        spec,
        cells,
        transitions: transitions as f64,
    };
    Ok((prepared, trainers))
}

/// Runs one sweep into a fresh checkpoint directory and applies the
/// workload's gates: no cell resumed (a resumed cell does no work and
/// would fake a speed-up), none retried or quarantined, every cell
/// complete with finite rewards.
fn sweep(
    prepared: &Prepared,
    name: &str,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(SweepResult, f64), String> {
    let dir = run_dir.join(name);
    let opts = SweepOptions {
        checkpoint_dir: Some(dir),
        ..SweepOptions::default()
    };
    let t0 = Instant::now();
    let result = run_sweep(&prepared.spec, &opts).map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let bad_cells = result
        .cells
        .iter()
        .filter(|c| {
            c.resumed_at.is_some()
                || !c.completed
                || c.history
                    .records()
                    .iter()
                    .any(|r| !(r.metrics.total_reward.is_finite() && r.critic_loss.is_finite()))
        })
        .count();
    out.attempted += prepared.cells.len() as u64;
    out.failed += (bad_cells + result.quarantined.len()) as u64;
    out.gate(
        format!("{name}: every cell fresh, complete and finite"),
        bad_cells == 0 && result.cells.len() == prepared.cells.len(),
    );
    out.gate(
        format!("{name}: no cell retried or quarantined"),
        result.quarantined.is_empty() && result.cell_retries == 0,
    );
    Ok((result, wall))
}

/// Cell `id` built with its environment, actors and critic wrapped in
/// timing decorators. `build_kind_scenario_trainer` hands back a finished
/// trainer, so this repeats its `Proposed` wiring around the decorators;
/// the traced replay's bit-identity gate checks that it matches.
fn build_timed_cell(
    spec: &ExperimentSpec,
    id: &CellId,
) -> Result<CtdeTrainer<TimedEnv<Env>>, String> {
    if id.framework != FrameworkKind::Proposed {
        return Err(format!(
            "the traced replay builds Proposed cells only, not {}",
            id.framework
        ));
    }
    let err = |e: CoreError| e.to_string();
    let mut train = spec.train.clone();
    train.seed = id.seed;
    train.epochs = spec.epochs;
    let mut params = ScenarioParams::seeded(train.seed);
    if let Some(t) = spec.episode_limit {
        params = params.with_episode_limit(t);
    }
    let env = build_scenario_with(&id.scenario, &params).map_err(|e| e.to_string())?;
    let actors =
        build_scenario_actors(id.framework, &id.scenario, &id.backend, &train).map_err(err)?;
    let critic = QuantumCritic::new(
        train.n_qubits,
        env.state_dim(),
        train.critic_params,
        train.seed.wrapping_add(9000),
    )
    .map_err(err)?
    .with_grad_method(train.grad_method)
    .with_backend(id.backend.clone());
    let mut trainer = CtdeTrainer::new(
        TimedEnv(env),
        timed_actors(actors),
        Box::new(TimedCritic(Box::new(critic))),
        train,
    )
    .map_err(err)?;
    trainer.set_update_engine(id.engine);
    Ok(trainer)
}

/// One cell trained the way `run_cell` trains it: vectorized epochs
/// and a full-state checkpoint after each, under the sweep's label.
struct CellReplay<E: MultiAgentEnv> {
    trainer: CtdeTrainer<E>,
    path: PathBuf,
    label: String,
    /// Wall seconds of each epoch, its checkpoint write included.
    epoch_s: Vec<f64>,
}

impl<E: SeedableEnv + Clone + Send + Sync> CellReplay<E> {
    fn new(trainer: CtdeTrainer<E>, id: &CellId, dir: &Path, label: &str) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(CellReplay {
            trainer,
            path: checkpoint_path(dir, id),
            label: label.to_string(),
            epoch_s: Vec::new(),
        })
    }

    /// One epoch and its checkpoint write, each an op span (inert unless
    /// tracing is on).
    fn epoch(&mut self, spec: &ExperimentSpec, epoch: u64) -> Result<(), String> {
        let t0 = Instant::now();
        {
            let _op = trace::op("core.epoch", epoch);
            self.trainer
                .run_epoch_vec(spec.episodes_per_epoch, spec.effective_lanes())
                .map_err(|e| e.to_string())?;
        }
        {
            let _op = trace::op("core.ckpt.save", epoch);
            self.trainer
                .capture_state(&self.label)
                .save(&self.path)
                .map_err(|e| e.to_string())?;
        }
        self.epoch_s.push(t0.elapsed().as_secs_f64());
        Ok(())
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, run_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut meter = Meter::start()?;
    let (prepared, built) = meter.setup(|| prepare(seed))?;
    drop(built);
    out.note(format!("spec {}", spec_string(seed)));

    if !traced {
        let mut sweep_s = Vec::new();
        let mut first: Option<Vec<TrainingHistory>> = None;
        for _ in 0..seconds.div_ceil(SECONDS_PER_SWEEP) {
            if !sweep_s.is_empty() {
                drop(meter.setup(|| prepare(seed))?);
            }
            let name = format!("sweep-{}", sweep_s.len());
            let (result, wall) = meter.chunk(|| {
                let swept = sweep(&prepared, &name, run_dir, &mut out)?;
                Ok((swept, prepared.transitions as u64))
            })?;
            sweep_s.push(wall);
            let histories: Vec<TrainingHistory> =
                result.cells.iter().map(|c| c.history.clone()).collect();
            match &first {
                None => first = Some(histories),
                Some(f) => out.gate(
                    format!("{name} repeats sweep-0 bit for bit"),
                    format!("{f:?}") == format!("{histories:?}"),
                ),
            }
        }
        drop(meter.setup(|| prepare(seed))?);
        let transitions = prepared.transitions * sweep_s.len() as f64;
        out.note(format!(
            "wall: {:.1} transitions/s, sweep p50 {:.3} s over {} sweeps of {} transitions",
            transitions / sweep_s.iter().sum::<f64>(),
            median(&sweep_s),
            sweep_s.len(),
            prepared.transitions
        ));
        out.metric("setup_s", meter.setup_s()?);
        out.metric("cpu_us_per_op", meter.cpu_us_per_op()?);
        for line in meter.notes() {
            out.note(line);
        }
        return Ok(out);
    }

    // Traced run: one sweep for the harness metrics, then cell 0 rebuilt
    // from public constructors and replayed untraced and traced, one
    // epoch of each side per round. Both replays must reproduce the
    // sweep's history for that cell.
    let (result, sweep_wall) = sweep(&prepared, "sweep", run_dir, &mut out)?;
    let cell_s: Vec<f64> = result.cells.iter().map(|c| c.wall_secs).collect();
    if cell_s.is_empty() {
        return Err("the sweep returned no cells".into());
    }
    out.metric("wall.ops_per_s", prepared.transitions / sweep_wall);
    out.metric("harness.sweep.s", sweep_wall);
    out.metric("harness.cell.p50_s", median(&cell_s));
    out.metric(
        "harness.cell.max_s",
        cell_s.iter().copied().fold(0.0, f64::max),
    );
    out.metric(
        "harness.parallelism",
        cell_s.iter().sum::<f64>() / sweep_wall,
    );
    out.metric("harness.cells_retried", result.cell_retries as f64);
    out.metric("harness.cells_quarantined", result.quarantined.len() as f64);

    let spec = &prepared.spec;
    let id = &prepared.cells[0];
    // The sweep's own checkpoint of cell 0: its size is the metric, and
    // its label (the harness's experiment-shape fingerprint) is the one
    // the replays write.
    let sweep_ckpt = checkpoint_path(&run_dir.join("sweep"), id);
    let ckpt_bytes = std::fs::metadata(&sweep_ckpt)
        .map_err(|e| format!("stat {}: {e}", sweep_ckpt.display()))?
        .len();
    let label = TrainerCheckpoint::load(&sweep_ckpt)
        .map_err(|e| e.to_string())?
        .label;
    let mut plain = CellReplay::new(
        build_cell(spec, id)?,
        id,
        &run_dir.join("replay-plain"),
        &label,
    )?;
    let mut timed = CellReplay::new(
        build_timed_cell(spec, id)?,
        id,
        &run_dir.join("replay-traced"),
        &label,
    )?;
    let (untraced_s, traced_s, recording) =
        trace::alternate(spec.epochs as u64, |epoch, traced| {
            if traced {
                timed.epoch(spec, epoch)
            } else {
                plain.epoch(spec, epoch)
            }
        })?;

    let reference = format!("{:?}", result.cells[0].history);
    let plain_ok = format!("{:?}", plain.trainer.history()) == reference;
    let timed_ok = format!("{:?}", timed.trainer.history()) == reference;
    out.attempted += 2;
    out.failed += u64::from(!plain_ok) + u64::from(!timed_ok);
    out.gate(
        "the untraced replay equals the sweep's cell history bit for bit",
        plain_ok,
    );
    out.gate(
        "the traced replay equals the sweep's cell history bit for bit",
        timed_ok,
    );
    out.gate(
        "the traced replay makes no serial Actor::probs call",
        recording.get("core.actor.probs").calls == 0,
    );
    out.note(format!(
        "cell build {:.6} s (set-up / cells); untraced replay epochs {:?} s",
        meter.setup_s()? / prepared.cells.len() as f64,
        plain.epoch_s
    ));
    out.metric("core.ckpt.bytes", ckpt_bytes as f64);
    let top_ns = recording.get("core.epoch").ns + recording.get("core.ckpt.save").ns;
    let unattributed_s = traced_s - top_ns as f64 / 1e9;
    out.traced(untraced_s, traced_s, unattributed_s, recording);
    Ok(out)
}

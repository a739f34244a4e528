//! `serve-closed`: checkpoint → inference server → closed-loop clients.
//! A `FrameworkSnapshot` fixture is written before timing; set-up loads
//! it, builds a `ServablePolicy`, starts `serve` with the default
//! `ServerConfig` and connects the clients. Each client replays a seeded
//! single-hop observation stream and sends its next ACT only after the
//! previous reply arrived, like an edge agent waiting for its action.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_serve::prelude::*;

use crate::report::{median, quantile, Meter, Outcome, SEGMENTS};
use crate::timed::timed_actors;
use crate::trace;

const SCENARIO: &str = "single-hop";
/// Closed-loop client connections (one thread each).
const CLIENTS: usize = 2;
/// Unmeasured requests per client before the window opens.
const WARMUP: usize = 100;
/// Requests per client per second of `--seconds` (split between the two
/// sides of the traced run). A run sends a fixed number of requests, so
/// its work and memory do not depend on machine speed.
const REQUESTS_PER_SECOND: usize = 720;
/// Requests per client, about, per chunk whose CPU time per request is
/// one sample of `cpu_us_per_op`.
const CPU_CHUNK: usize = 500;
/// Requests per client per alternating chunk of the traced run.
const TRACE_CHUNK: usize = 500;
/// The next request's op-span id, unique within the run.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(0);
/// Observations the in-process `act`/`act_batch` timings run over.
const INPROC_OBS: usize = 512;

fn train_config(seed: u64) -> TrainConfig {
    let mut train = TrainConfig::paper_default();
    train.seed = seed;
    train
}

/// Writes the snapshot fixture: a freshly built `Proposed` single-hop
/// trainer's parameters.
fn write_fixture(train: &TrainConfig, path: &Path) -> Result<(), String> {
    let trainer = build_kind_scenario_trainer(
        FrameworkKind::Proposed,
        SCENARIO,
        &ExecutionBackend::Ideal,
        train,
        None,
    )
    .map_err(|e| e.to_string())?;
    FrameworkSnapshot::capture("serve-closed", &trainer)
        .save(path)
        .map_err(|e| e.to_string())
}

/// A running server with its connected clients.
struct Live {
    handle: Option<ServerHandle>,
    clients: Vec<ServeClient>,
}

impl Live {
    /// Closes the connections, drains the server and returns its report.
    fn stop(mut self) -> DrainReport {
        self.clients.clear();
        self.handle
            .take()
            .expect("a live server has a handle until stopped")
            .shutdown()
    }
}

impl Drop for Live {
    /// A server dropped without `stop` (a set-up repetition, an error
    /// path) is drained too, so no serving thread outlives it.
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Set-up: load the snapshot, build the servable policy (its actors
/// wrapped in timing decorators when `timed`), serve it and connect the
/// clients.
fn start(path: &Path, train: &TrainConfig, timed: bool) -> Result<Live, String> {
    let snapshot = FrameworkSnapshot::load(path).map_err(|e| e.to_string())?;
    let backend = ExecutionBackend::Ideal;
    let policy = if timed {
        let actors = actors_from_snapshot(
            &snapshot,
            FrameworkKind::Proposed,
            SCENARIO,
            &backend,
            train,
        )
        .map_err(|e| e.to_string())?;
        ServablePolicy::from_actors(&snapshot.label, timed_actors(actors))
    } else {
        ServablePolicy::from_snapshot(
            &snapshot,
            FrameworkKind::Proposed,
            SCENARIO,
            &backend,
            train,
        )
    }
    .map_err(|e| e.to_string())?;
    let handle = serve(policy, ServerConfig::default()).map_err(|e| e.to_string())?;
    let clients: Result<Vec<ServeClient>, ServeError> = (0..CLIENTS)
        .map(|_| ServeClient::connect(handle.addr()))
        .collect();
    match clients {
        Ok(clients) => Ok(Live {
            handle: Some(handle),
            clients,
        }),
        Err(e) => {
            handle.shutdown();
            Err(format!("connect: {e}"))
        }
    }
}

/// One ACT round trip as a client saw it.
struct Sample {
    latency_ns: u64,
    observation: Vec<f64>,
    reply: Result<Vec<u16>, String>,
}

/// Drives every client closed-loop on its own thread for `requests`
/// requests, each replaying its own observation stream. Each request is
/// an op span (inert unless tracing is on). A client stops early when its
/// connection fails.
fn closed_loop(live: &mut Live, streams: &mut [ObsStream], requests: usize) -> (Vec<Sample>, f64) {
    let origin = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let workers: Vec<_> = live
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(requests);
                    while samples.len() < requests {
                        let observation = stream.next_observation();
                        let t0 = Instant::now();
                        let reply = {
                            let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
                            let _op = trace::op("serve.request", id);
                            client.act(&observation)
                        };
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        let fatal =
                            matches!(reply, Err(ServeError::Io(_) | ServeError::Protocol(_)));
                        samples.push(Sample {
                            latency_ns,
                            observation,
                            reply: reply.map_err(|e| e.to_string()),
                        });
                        if fatal {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall)
}

/// Replies checked against `ServablePolicy::act` on the same observation.
#[derive(Default)]
struct Verified {
    answered: u64,
    /// Errors, BUSY replies and wrong answers.
    failed: u64,
    /// Wrong answers only.
    mismatched: u64,
}

fn verify<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    reference: &ServablePolicy,
) -> Result<Verified, String> {
    let mut v = Verified::default();
    for s in samples {
        match &s.reply {
            Ok(actions) => {
                let want = reference.act(&s.observation).map_err(|e| e.to_string())?;
                let same = want.len() == actions.len()
                    && want.iter().zip(actions).all(|(&w, &a)| w == usize::from(a));
                v.answered += 1;
                v.failed += u64::from(!same);
                v.mismatched += u64::from(!same);
            }
            Err(_) => v.failed += 1,
        }
    }
    Ok(v)
}

/// The drain gate: every request that reached the server was answered,
/// and none was rejected, shed or expired.
fn drain_gate(out: &mut Outcome, name: &str, report: &DrainReport, answered: u64) {
    out.gate(
        format!("{name}: drain answered all {answered} requests, none rejected/shed/expired"),
        report.requests_served == answered
            && report.requests_rejected == 0
            && report.requests_shed == 0
            && report.deadline_expired == 0,
    );
}

fn streams(seed: u64) -> Result<Vec<ObsStream>, String> {
    (0..CLIENTS as u64)
        .map(|c| {
            ObsStream::new(
                SCENARIO,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(c),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

/// Median wall time of `f` over `reps` calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let mut us = Vec::with_capacity(reps);
    for i in 0..reps {
        let t0 = Instant::now();
        f(i)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

pub fn run(seed: u64, seconds: u64, traced: bool, run_dir: &Path) -> Result<Outcome, String> {
    let train = train_config(seed);
    let fixture = run_dir.join("fixture.ckpt");
    write_fixture(&train, &fixture)?;
    let reference = ServablePolicy::from_snapshot(
        &FrameworkSnapshot::load(&fixture).map_err(|e| e.to_string())?,
        FrameworkKind::Proposed,
        SCENARIO,
        &ExecutionBackend::Ideal,
        &train,
    )
    .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    if !traced {
        let start_plain = || start(&fixture, &train, false);
        let mut meter = Meter::start()?;
        let mut live = meter.setup(start_plain)?;
        let mut streams = streams(seed)?;
        let (warm, _) = closed_loop(&mut live, &mut streams, WARMUP);
        let requests = REQUESTS_PER_SECOND * seconds as usize / SEGMENTS as usize;
        let (mut window, mut window_s) = (Vec::new(), 0.0);
        for segment in 0..SEGMENTS {
            if segment > 0 {
                drop(meter.setup(start_plain)?);
            }
            // Equal chunks of about CPU_CHUNK requests per client.
            let chunks = requests.div_ceil(CPU_CHUNK);
            for c in 0..chunks {
                let chunk = requests * (c + 1) / chunks - requests * c / chunks;
                let (samples, wall) = meter.chunk(|| {
                    let (samples, wall) = closed_loop(&mut live, &mut streams, chunk);
                    let ops = samples.len() as u64;
                    Ok(((samples, wall), ops))
                })?;
                window.extend(samples);
                window_s += wall;
            }
        }
        drop(meter.setup(start_plain)?);
        let report = live.stop();
        let v = verify(warm.iter().chain(&window), &reference)?;
        out.attempted = (warm.len() + window.len()) as u64;
        out.failed = v.failed;
        out.gate("every ACT reply equals ServablePolicy::act", v.failed == 0);
        drain_gate(&mut out, "server", &report, v.answered);
        let lat = latencies_us(&window);
        if lat.is_empty() {
            return Err("no ACT request was answered".into());
        }
        out.note(format!(
            "wall: {:.1} ACT/s, client p50 {:.1} us, p99 {:.1} us over {} requests; {} batches, mean batch {:.3}",
            lat.len() as f64 / window_s,
            median(&lat),
            quantile(&lat, 0.99),
            window.len(),
            report.batches_executed,
            report.requests_served as f64 / report.batches_executed.max(1) as f64
        ));
        out.metric("setup_s", meter.setup_s()?);
        out.metric("cpu_us_per_op", meter.cpu_us_per_op()?);
        for line in meter.notes() {
            out.note(line);
        }
        return Ok(out);
    }

    // Traced run: the same closed loop against a plain server (untraced)
    // and a server whose policy's actors are decorated (traced), each
    // after a warm-up, for the same request count per client, in
    // alternating chunks. Prebound serving calls no actor method, so the
    // traced side records only the client's `serve.request` spans; the
    // in-process `core.serving.*` timings below attribute its compute.
    let mut load = Meter::start()?;
    load.setup(|| FrameworkSnapshot::load(&fixture))
        .map_err(|e| e.to_string())?;
    let load_s = load.setup_s()?;
    drop(load);
    let mut plain = start(&fixture, &train, false)?;
    let mut timed = start(&fixture, &train, true)?;
    let mut plain_streams = streams(seed)?;
    let mut timed_streams = streams(seed)?;
    let (plain_warm, _) = closed_loop(&mut plain, &mut plain_streams, WARMUP);
    let (timed_warm, _) = closed_loop(&mut timed, &mut timed_streams, WARMUP);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let rounds = (REQUESTS_PER_SECOND * seconds as usize / 2).div_ceil(TRACE_CHUNK) as u64;
    let walls = trace::alternate(rounds, |_, is_traced| {
        let (live, streams, samples) = if is_traced {
            (&mut timed, &mut timed_streams, &mut traced)
        } else {
            (&mut plain, &mut plain_streams, &mut untraced)
        };
        samples.extend(closed_loop(live, streams, TRACE_CHUNK).0);
        Ok(())
    });
    let plain_report = plain.stop();
    let timed_report = timed.stop();
    let (untraced_s, traced_s, recording) = walls?;

    let plain_v = verify(plain_warm.iter().chain(&untraced), &reference)?;
    let timed_v = verify(timed_warm.iter().chain(&traced), &reference)?;
    out.attempted = (plain_warm.len() + untraced.len() + timed_warm.len() + traced.len()) as u64;
    out.failed = plain_v.failed + timed_v.failed;
    out.gate(
        "every ACT reply equals ServablePolicy::act",
        out.failed == 0,
    );
    drain_gate(&mut out, "untraced server", &plain_report, plain_v.answered);
    drain_gate(&mut out, "traced server", &timed_report, timed_v.answered);
    // The decorated server must take the same prebound lane-slab route as
    // the plain one, which calls no actor method: a decorator that hid
    // `runtime_handle` would push serving onto per-agent `probs_batch`.
    out.gate(
        "the traced server stays on the prebound slab (no Actor::probs or probs_batch call)",
        recording.get("core.actor.probs").calls == 0
            && recording.get("core.actor.probs_batch").calls == 0,
    );
    let lat = latencies_us(&untraced);
    if lat.is_empty() {
        return Err("no ACT request was answered".into());
    }

    // Compute time in-process on the workload's observations: the
    // single-request path, a one-request batch, and a batch of the
    // server's measured mean size.
    let mean_batch =
        plain_report.requests_served as f64 / plain_report.batches_executed.max(1) as f64;
    let batch = (mean_batch.round() as usize).max(1);
    let obs: Vec<&[f64]> = untraced
        .iter()
        .take(INPROC_OBS)
        .map(|s| s.observation.as_slice())
        .collect();
    let err = |e: CoreError| e.to_string();
    let act_us = median_us(obs.len(), |i| reference.act(obs[i]).map(drop).map_err(err))?;
    let act_batch1_us = median_us(obs.len(), |i| {
        reference.act_batch(obs[i], 1).map(drop).map_err(err)
    })?;
    let slabs: Vec<Vec<f64>> = obs.chunks_exact(batch).map(|c| c.concat()).collect();
    let act_batch_us = median_us(slabs.len(), |i| {
        reference.act_batch(&slabs[i], batch).map(drop).map_err(err)
    })?;

    let client_p50 = median(&lat);
    out.metric("core.snapshot.load.s", load_s);
    out.metric("core.serving.act_us", act_us);
    out.metric("core.serving.act_batch1_us", act_batch1_us);
    out.metric("core.serving.act_batch_us", act_batch_us);
    out.metric("serve.batches", plain_report.batches_executed as f64);
    out.metric("serve.mean_batch", mean_batch);
    out.metric("serve.tick_p50_us", plain_report.batch_hist.p50_us());
    out.metric("serve.tick_p99_us", plain_report.batch_hist.p99_us());
    out.metric(
        "serve.shed",
        (plain_report.requests_shed + timed_report.requests_shed) as f64,
    );
    out.metric(
        "serve.deadline_expired",
        (plain_report.deadline_expired + timed_report.deadline_expired) as f64,
    );
    out.metric(
        "serve.mismatches",
        (plain_v.mismatched + timed_v.mismatched) as f64,
    );
    out.metric("wall.ops_per_s", lat.len() as f64 / untraced_s);
    out.metric("serve.client_p50_us", client_p50);
    out.metric("serve.client_p99_us", quantile(&lat, 0.99));
    out.metric("serve.wait_p50_us", client_p50 - act_batch_us);
    out.note(format!(
        "mean batch {mean_batch:.3}: client p50 {client_p50:.1} us = act_batch({batch}) {act_batch_us:.1} us + window/queue/transport {:.1} us",
        client_p50 - act_batch_us
    ));
    // Client-thread time outside requests. Inside them no layer span
    // opens on the client thread; serve.wait_p50_us splits that time.
    let unattributed_s = CLIENTS as f64 * traced_s - recording.get("serve.request").ns as f64 / 1e9;
    out.traced(untraced_s, traced_s, unattributed_s, recording);
    Ok(out)
}

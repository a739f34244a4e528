//! The parameter-shift **row walk**: one minibatch row's forward pass and
//! every ±shift evaluation of its Jacobian, as one task.
//!
//! The parameter-shift rule evaluates the raw schedule once per shifted
//! angle: 2 evaluations per trainable occurrence, 4 for a controlled
//! rotation. Evaluated one by one, each shift walks the whole schedule
//! from `|0…0⟩`, recomputes every rotation's trig and, under the Sampled
//! backend, re-hashes the row's bindings for its shot-stream seed and
//! allocates fresh sampler buffers. All of that is shared within a row:
//!
//! 1. the `(inputs, params)` fingerprint is hashed once
//!    ([`SeedPrefix`]); each evaluation only mixes in its salt;
//! 2. every raw rotation's half-angle `sin_cos` is computed once;
//! 3. the raw schedule is walked once from `|0…0⟩`; at each occurrence
//!    the shifted evaluations copy the walk's current state (the prefix
//!    before that gate), apply the overridden gate and run only the rest
//!    of the schedule;
//! 4. shot readouts go through one reusable [`ShotSampler`].
//!
//! **Exactness.** No floating-point operation is reordered: the prefix
//! state is the same sequence of kernel calls on the same `sin_cos`
//! values, the seeds are the same FNV-1a words, and the sampler draws the
//! same stream. Results are therefore bit-identical to evaluating each
//! shift from scratch (the oracle in this module's tests), and the
//! forward pass runs the fused schedule exactly as a plain forward call.

use qmarl_qsim::shots::ShotSampler;
use qmarl_qsim::state::StateVector;
use qmarl_vqc::grad::{shift_rule, Jacobian};
use qmarl_vqc::observable::Readout;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::{override_salt, SeedPrefix};
use crate::compile::CompiledCircuit;
use crate::error::RuntimeError;
use crate::exec::{apply_cgate_sc, rotation_angle, rotation_trig, run_schedule_unchecked};

/// How a row's evaluations are read out.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowReadout {
    /// Exact expectation values (the Ideal backend).
    Exact,
    /// `shots` samples per evaluation from a content-addressed stream
    /// under root `seed` (the Sampled backend).
    Shots {
        /// Samples per readout.
        shots: usize,
        /// Root seed of the per-evaluation streams.
        seed: u64,
    },
}

/// A row's readout state: the hashed bindings and the reused sampler.
struct RowReader<'a> {
    readout: &'a Readout,
    shots: Option<(usize, SeedPrefix)>,
    sampler: ShotSampler,
}

impl RowReader<'_> {
    fn eval(&mut self, state: &StateVector, salt: u64) -> Result<Vec<f64>, RuntimeError> {
        let out = match self.shots {
            None => self.readout.evaluate(state),
            Some((shots, prefix)) => {
                let mut rng = StdRng::seed_from_u64(prefix.finish(salt));
                self.readout
                    .evaluate_shots_with(state, shots, &mut rng, &mut self.sampler)
            }
        };
        out.map_err(RuntimeError::from)
    }
}

/// One row's forward outputs (fused schedule) and circuit-parameter
/// Jacobian (parameter shift over the raw schedule). Contributions fold
/// into the Jacobian in occurrence order. No binding validation.
///
/// # Errors
///
/// Returns readout errors (the readout is validated per evaluation).
pub(crate) fn forward_and_jacobian_row(
    compiled: &CompiledCircuit,
    readout: &Readout,
    mode: RowReadout,
    inputs: &[f64],
    params: &[f64],
) -> Result<(Vec<f64>, Jacobian), RuntimeError> {
    let mut reader = RowReader {
        readout,
        shots: match mode {
            RowReadout::Exact => None,
            RowReadout::Shots { shots, seed } => {
                Some((shots, SeedPrefix::new(seed, inputs, params)))
            }
        },
        sampler: ShotSampler::default(),
    };
    let n_qubits = compiled.n_qubits();
    let forward = reader.eval(
        &run_schedule_unchecked(n_qubits, compiled.fused_schedule(), inputs, params),
        override_salt(None),
    )?;

    let raw = compiled.raw_schedule();
    let trig: Vec<(f64, f64)> = raw
        .iter()
        .map(|gate| rotation_trig(gate, inputs, params))
        .collect();
    let mut jacobian = Jacobian::zeros(readout.output_len(), compiled.n_params());
    let mut prefix = StateVector::zero(n_qubits);
    let mut shifted = prefix.clone();
    // Raw gates `..walked` are applied to `prefix`.
    let mut walked = 0;
    for occ in compiled.occurrences() {
        let k = occ.raw_idx;
        for (gate, &sc) in raw[walked..k].iter().zip(&trig[walked..k]) {
            apply_cgate_sc(&mut prefix, gate, sc);
        }
        walked = k;
        let gate = &raw[k];
        let theta = rotation_angle(gate, inputs, params)
            .unwrap_or_else(|| unreachable!("occurrence points at non-rotation gate {gate:?}"));
        let grads = shift_rule(theta, occ.controlled, |t| {
            shifted
                .amplitudes_mut()
                .copy_from_slice(prefix.amplitudes());
            apply_cgate_sc(&mut shifted, gate, (t / 2.0).sin_cos());
            for (rest, &sc) in raw[k + 1..].iter().zip(&trig[k + 1..]) {
                apply_cgate_sc(&mut shifted, rest, sc);
            }
            reader.eval(&shifted, override_salt(Some((k, t))))
        })?;
        for (j, g) in grads.into_iter().enumerate() {
            *jacobian.get_mut(j, occ.param) += g;
        }
    }
    Ok((forward, jacobian))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecutionBackend;
    use crate::batch::BatchExecutor;
    use crate::compile::{compile, CGate};
    use crate::exec::{run_compiled, run_raw_with_override};
    use crate::test_circuits::random_circuit;
    use rand::Rng;

    /// The per-evaluation reference: the fused forward pass and every
    /// shift evaluated from `|0…0⟩` with one overridden gate, each read out
    /// through `Readout::evaluate`/`evaluate_shots` on its own freshly
    /// derived seed — the flat-queue computation the row walk replaces.
    fn oracle(
        compiled: &CompiledCircuit,
        readout: &Readout,
        mode: RowReadout,
        inputs: &[f64],
        params: &[f64],
    ) -> (Vec<f64>, Jacobian) {
        let eval = |state: &StateVector, salt: u64| match mode {
            RowReadout::Exact => readout.evaluate(state).unwrap(),
            RowReadout::Shots { shots, seed } => {
                let mut rng =
                    StdRng::seed_from_u64(ExecutionBackend::eval_seed(seed, inputs, params, salt));
                readout.evaluate_shots(state, shots, &mut rng).unwrap()
            }
        };
        let forward = eval(&run_compiled(compiled, inputs, params).unwrap(), 0);
        let mut jacobian = Jacobian::zeros(readout.output_len(), compiled.n_params());
        for occ in compiled.occurrences() {
            let theta = match &compiled.raw_schedule()[occ.raw_idx] {
                CGate::Rot { angle, .. } | CGate::CRot { angle, .. } => angle.value(inputs, params),
                other => panic!("occurrence at {other:?}"),
            };
            let grads = shift_rule(theta, occ.controlled, |t| {
                let state = run_raw_with_override(compiled, inputs, params, occ.raw_idx, t);
                Ok::<_, RuntimeError>(eval(&state, override_salt(Some((occ.raw_idx, t)))))
            })
            .unwrap();
            for (j, g) in grads.into_iter().enumerate() {
                *jacobian.get_mut(j, occ.param) += g;
            }
        }
        (forward, jacobian)
    }

    #[test]
    fn row_walk_is_bit_identical_to_per_evaluation_oracle() {
        for n_qubits in 1..=8 {
            for variant in 0..2u64 {
                let seed = 100 * n_qubits as u64 + variant;
                let circuit = random_circuit(n_qubits, seed);
                let compiled = compile(&circuit);
                assert!(compiled.occurrences().iter().any(|o| o.controlled) || n_qubits == 1);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
                let params: Vec<f64> = (0..compiled.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                let inputs: Vec<Vec<f64>> = (0..3)
                    .map(|_| {
                        (0..compiled.n_inputs())
                            .map(|_| rng.gen_range(-1.5..1.5))
                            .collect()
                    })
                    .collect();
                // Both readout kinds on every circuit, in two spellings
                // across the variants.
                let readouts = if variant == 0 {
                    [
                        Readout::z_all(n_qubits),
                        Readout::WeightedZSum {
                            weights: (0..n_qubits).map(|q| 0.75 - 0.5 * q as f64).collect(),
                        },
                    ]
                } else {
                    [
                        Readout::ZPerQubit {
                            qubits: (0..n_qubits).rev().step_by(2).collect(),
                        },
                        Readout::mean_z(n_qubits),
                    ]
                };
                let shots = 24 + seed as usize % 17;
                for readout in &readouts {
                    for mode in [RowReadout::Exact, RowReadout::Shots { shots, seed: 5 }] {
                        let expected: Vec<_> = inputs
                            .iter()
                            .map(|x| oracle(&compiled, readout, mode, x, &params))
                            .collect();
                        for workers in [1usize, 2, 4] {
                            let ex = BatchExecutor::new(workers);
                            let (outs, jacs) = match mode {
                                RowReadout::Exact => ex
                                    .forward_and_jacobian_batch(
                                        &compiled, readout, &inputs, &params,
                                    )
                                    .unwrap(),
                                RowReadout::Shots { shots, seed } => ex
                                    .forward_and_jacobian_batch_backend(
                                        &compiled,
                                        readout,
                                        &inputs,
                                        &params,
                                        &ExecutionBackend::Sampled { shots, seed },
                                    )
                                    .unwrap(),
                            };
                            let label =
                                format!("{n_qubits}q v{variant} {readout:?} {mode:?} w{workers}");
                            for (b, (fwd, jac)) in expected.iter().enumerate() {
                                assert_eq!(outs[b], *fwd, "{label}: row {b} outputs");
                                assert_eq!(jacs[b], *jac, "{label}: row {b} jacobian");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shot_rows_really_are_sampled_and_seeded() {
        let circuit = random_circuit(3, 7);
        let compiled = compile(&circuit);
        let params = vec![0.3; compiled.n_params()];
        let inputs = vec![0.2; compiled.n_inputs()];
        let readout = Readout::z_all(3);
        let row = |mode| forward_and_jacobian_row(&compiled, &readout, mode, &inputs, &params);
        let exact = row(RowReadout::Exact).unwrap();
        let sampled = row(RowReadout::Shots { shots: 64, seed: 1 }).unwrap();
        let reseeded = row(RowReadout::Shots { shots: 64, seed: 2 }).unwrap();
        assert_ne!(exact, sampled);
        assert_ne!(sampled, reseeded);
        assert_eq!(
            sampled,
            row(RowReadout::Shots { shots: 64, seed: 1 }).unwrap()
        );
    }
}

//! Measurement readouts: how expectation values become model outputs.
//!
//! The paper's measurement step `M` reads `⟨Z⟩` on up to `n_qubit` wires
//! (`|M| ≤ n_qubit`). Actors use one output per action logit
//! ([`Readout::ZPerQubit`]); the centralized critic compresses the register
//! into one scalar ([`Readout::WeightedZSum`]).

use qmarl_qsim::density::DensityMatrix;
use qmarl_qsim::error::QsimError;
use qmarl_qsim::measure;
use qmarl_qsim::shots::ShotSampler;
use qmarl_qsim::state::StateVector;

use crate::error::VqcError;

/// A readout scheme mapping a final quantum state to an output vector.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Readout {
    /// One `⟨Z_q⟩` output per listed wire (actor logits).
    ZPerQubit {
        /// The wires to read, in output order.
        qubits: Vec<usize>,
    },
    /// A single output `Σ_q w_q ⟨Z_q⟩` (critic value head).
    WeightedZSum {
        /// Per-wire weights, indexed by wire.
        weights: Vec<f64>,
    },
}

impl Readout {
    /// Z readout on every wire of an `n`-qubit register.
    pub fn z_all(n_qubits: usize) -> Self {
        Readout::ZPerQubit {
            qubits: (0..n_qubits).collect(),
        }
    }

    /// Uniform-weight scalar readout over `n_qubits` wires (mean ⟨Z⟩).
    pub fn mean_z(n_qubits: usize) -> Self {
        Readout::WeightedZSum {
            weights: vec![1.0 / n_qubits as f64; n_qubits],
        }
    }

    /// Number of classical outputs this readout produces.
    pub fn output_len(&self) -> usize {
        match self {
            Readout::ZPerQubit { qubits } => qubits.len(),
            Readout::WeightedZSum { .. } => 1,
        }
    }

    /// Validates wire references against a register width.
    ///
    /// # Errors
    ///
    /// Returns [`VqcError::ReadoutOutOfRange`] for a bad wire, or
    /// [`VqcError::InvalidConfig`] for an empty readout.
    pub fn validate(&self, n_qubits: usize) -> Result<(), VqcError> {
        match self {
            Readout::ZPerQubit { qubits } => {
                if qubits.is_empty() {
                    return Err(VqcError::InvalidConfig(
                        "readout must name at least one wire".into(),
                    ));
                }
                for &q in qubits {
                    if q >= n_qubits {
                        return Err(VqcError::ReadoutOutOfRange { qubit: q, n_qubits });
                    }
                }
            }
            Readout::WeightedZSum { weights } => {
                if weights.is_empty() {
                    return Err(VqcError::InvalidConfig(
                        "weighted readout needs weights".into(),
                    ));
                }
                if weights.len() > n_qubits {
                    return Err(VqcError::ReadoutOutOfRange {
                        qubit: weights.len() - 1,
                        n_qubits,
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates the readout on a pure state.
    ///
    /// # Errors
    ///
    /// Returns [`VqcError::ReadoutOutOfRange`] for a bad wire.
    pub fn evaluate(&self, state: &StateVector) -> Result<Vec<f64>, VqcError> {
        self.validate(state.n_qubits())?;
        self.fold_z(|q| measure::expectation_z(state, q))
    }

    /// Evaluates the readout from `shots` computational-basis samples —
    /// the finite-shot estimate real hardware would return. One sample
    /// batch serves every output because all `Z_q` commute.
    ///
    /// # Errors
    ///
    /// Returns [`VqcError::ReadoutOutOfRange`] for a bad wire, or a
    /// simulator error when `shots == 0`.
    pub fn evaluate_shots<R: rand::Rng + ?Sized>(
        &self,
        state: &StateVector,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, VqcError> {
        self.validate(state.n_qubits())?;
        let record = qmarl_qsim::shots::measure_shots(state, shots, rng)?;
        self.fold_z(|q| record.expectation_z(q))
    }

    /// [`Readout::evaluate_shots`] through a caller-owned [`ShotSampler`]
    /// whose buffers are reused across calls — bit-identical to it for
    /// the same RNG stream.
    ///
    /// # Errors
    ///
    /// As [`Readout::evaluate_shots`].
    pub fn evaluate_shots_with<R: rand::Rng + ?Sized>(
        &self,
        state: &StateVector,
        shots: usize,
        rng: &mut R,
        sampler: &mut ShotSampler,
    ) -> Result<Vec<f64>, VqcError> {
        self.validate(state.n_qubits())?;
        sampler.sample_state(state, shots, rng)?;
        self.fold_z(|q| sampler.expectation_z(q))
    }

    /// Evaluates the readout from `shots` computational-basis samples of
    /// a mixed state — the finite-shot estimate of noisy hardware
    /// execution (channel noise *and* shot noise together).
    ///
    /// # Errors
    ///
    /// Returns [`VqcError::ReadoutOutOfRange`] for a bad wire, or a
    /// simulator error when `shots == 0`.
    pub fn evaluate_shots_density<R: rand::Rng + ?Sized>(
        &self,
        rho: &DensityMatrix,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, VqcError> {
        self.validate(rho.n_qubits())?;
        let record = qmarl_qsim::shots::measure_shots_density(rho, shots, rng)?;
        self.fold_z(|q| record.expectation_z(q))
    }

    /// Evaluates the readout on a mixed state (noisy execution).
    ///
    /// # Errors
    ///
    /// Returns [`VqcError::ReadoutOutOfRange`] for a bad wire.
    pub fn evaluate_density(&self, rho: &DensityMatrix) -> Result<Vec<f64>, VqcError> {
        self.validate(rho.n_qubits())?;
        self.fold_z(|q| rho.expectation_z(q))
    }

    /// Folds per-wire `⟨Z_q⟩` values (exact, sampled or mixed-state)
    /// through the readout — the one place the output layout lives.
    fn fold_z(&self, z: impl Fn(usize) -> Result<f64, QsimError>) -> Result<Vec<f64>, VqcError> {
        match self {
            Readout::ZPerQubit { qubits } => qubits
                .iter()
                .map(|&q| z(q).map_err(VqcError::from))
                .collect(),
            Readout::WeightedZSum { weights } => {
                let mut acc = 0.0;
                for (q, w) in weights.iter().enumerate() {
                    acc += w * z(q)?;
                }
                Ok(vec![acc])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmarl_qsim::gate::Gate1;

    #[test]
    fn z_all_reads_every_wire() {
        let r = Readout::z_all(4);
        assert_eq!(r.output_len(), 4);
        let s = StateVector::zero(4);
        let out = r.evaluate(&s).unwrap();
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn weighted_sum_is_scalar() {
        let r = Readout::mean_z(4);
        assert_eq!(r.output_len(), 1);
        let s = StateVector::zero(4);
        assert!((r.evaluate(&s).unwrap()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_respects_weights() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::pauli_x()).unwrap(); // wire0 → ⟨Z⟩ = −1
        let r = Readout::WeightedZSum {
            weights: vec![2.0, 3.0],
        };
        // 2·(−1) + 3·(+1) = 1.
        assert!((r.evaluate(&s).unwrap()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subset_readout_order() {
        let mut s = StateVector::zero(3);
        s.apply_gate1(2, &Gate1::pauli_x()).unwrap();
        let r = Readout::ZPerQubit { qubits: vec![2, 0] };
        let out = r.evaluate(&s).unwrap();
        assert!((out[0] + 1.0).abs() < 1e-12);
        assert!((out[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(Readout::ZPerQubit { qubits: vec![] }.validate(4).is_err());
        assert!(Readout::ZPerQubit { qubits: vec![4] }.validate(4).is_err());
        assert!(Readout::WeightedZSum { weights: vec![] }
            .validate(4)
            .is_err());
        assert!(Readout::WeightedZSum {
            weights: vec![1.0; 5]
        }
        .validate(4)
        .is_err());
        assert!(Readout::z_all(4).validate(4).is_ok());
    }

    #[test]
    fn shot_estimates_converge_to_exact() {
        use rand::SeedableRng;
        let mut s = StateVector::zero(3);
        s.apply_gate1(0, &Gate1::ry(0.8)).unwrap();
        s.apply_gate1(2, &Gate1::ry(-1.1)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for r in [Readout::z_all(3), Readout::mean_z(3)] {
            let exact = r.evaluate(&s).unwrap();
            let est = r.evaluate_shots(&s, 100_000, &mut rng).unwrap();
            for (a, b) in exact.iter().zip(&est) {
                assert!((a - b).abs() < 0.02, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn reused_sampler_readout_is_bit_identical_to_evaluate_shots() {
        use rand::SeedableRng;
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::ry(0.4 + 0.7 * q as f64)).unwrap();
        }
        let mut sampler = ShotSampler::default();
        for readout in [
            Readout::z_all(3),
            Readout::ZPerQubit { qubits: vec![2, 0] },
            Readout::WeightedZSum {
                weights: vec![0.5, -1.25, 2.0],
            },
        ] {
            for seed in 0..4 {
                let rng = || rand::rngs::StdRng::seed_from_u64(seed);
                assert_eq!(
                    readout
                        .evaluate_shots_with(&s, 64, &mut rng(), &mut sampler)
                        .unwrap(),
                    readout.evaluate_shots(&s, 64, &mut rng()).unwrap()
                );
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(Readout::ZPerQubit { qubits: vec![5] }
            .evaluate_shots_with(&s, 8, &mut rng, &mut sampler)
            .is_err());
        assert!(Readout::z_all(3)
            .evaluate_shots_with(&s, 0, &mut rng, &mut sampler)
            .is_err());
    }

    #[test]
    fn shot_readout_validates() {
        use rand::SeedableRng;
        let s = StateVector::zero(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(Readout::ZPerQubit { qubits: vec![5] }
            .evaluate_shots(&s, 100, &mut rng)
            .is_err());
        assert!(Readout::z_all(2).evaluate_shots(&s, 0, &mut rng).is_err());
    }

    #[test]
    fn density_and_pure_agree() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::ry(0.8)).unwrap();
        s.apply_cnot(0, 1).unwrap();
        let rho = qmarl_qsim::density::DensityMatrix::from_state_vector(&s);
        for r in [Readout::z_all(2), Readout::mean_z(2)] {
            let a = r.evaluate(&s).unwrap();
            let b = r.evaluate_density(&rho).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }
}

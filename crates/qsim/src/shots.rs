//! Finite-shot measurement: estimating expectations from samples.
//!
//! Real quantum hardware never returns exact expectation values — it
//! returns `n_shots` computational-basis samples, and `⟨Z_q⟩` is estimated
//! as the mean of `±1` outcomes. Everything downstream (policies, values,
//! gradients) then carries *shot noise* of magnitude `O(1/√shots)`. This
//! module provides the sampled readout path used by the shot-budget
//! ablation; the exact path in [`crate::measure`] is the
//! `shots → ∞` limit.

use rand::Rng;

use crate::density::DensityMatrix;
use crate::error::QsimError;
use crate::state::StateVector;

/// A batch of computational-basis measurement outcomes.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShotRecord {
    counts: Vec<(usize, usize)>,
    shots: usize,
    n_qubits: usize,
}

impl ShotRecord {
    /// Total number of shots taken.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// `(basis index, count)` pairs, sorted by basis index; zero-count
    /// outcomes are omitted.
    pub fn counts(&self) -> &[(usize, usize)] {
        &self.counts
    }

    /// The empirical probability of a basis outcome.
    pub fn frequency(&self, index: usize) -> f64 {
        self.counts
            .iter()
            .find(|(i, _)| *i == index)
            .map_or(0.0, |(_, c)| *c as f64 / self.shots as f64)
    }

    /// The shot-estimated `⟨Z_q⟩`: mean of `+1` (bit clear) / `−1`
    /// (bit set) over the recorded outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        if q >= self.n_qubits {
            return Err(QsimError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            });
        }
        let mask = 1usize << q;
        let mut acc = 0i64;
        for &(i, c) in &self.counts {
            if i & mask == 0 {
                acc += c as i64;
            } else {
                acc -= c as i64;
            }
        }
        Ok(acc as f64 / self.shots as f64)
    }

    /// Shot-estimated `⟨Z⟩` on every wire. One sample batch serves all
    /// wires because the `Z_q` all commute.
    pub fn expectation_z_all(&self) -> Vec<f64> {
        (0..self.n_qubits)
            .map(|q| {
                self.expectation_z(q)
                    .expect("wire in range by construction")
            })
            .collect()
    }
}

/// Measures `shots` computational-basis samples from a state.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0`.
pub fn measure_shots<R: Rng + ?Sized>(
    state: &StateVector,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    measure_shots_probs(&state.probabilities(), state.n_qubits(), shots, rng)
}

/// Measures `shots` computational-basis samples from a mixed state: the
/// density-matrix twin of [`measure_shots`], sampling the diagonal of
/// `ρ` — the finite-shot readout of noisy hardware execution.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0`.
pub fn measure_shots_density<R: Rng + ?Sized>(
    rho: &DensityMatrix,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    // Kraus arithmetic can leave the diagonal a rounding error below
    // zero; clamp so physical states always sample.
    let probs: Vec<f64> = rho.probabilities().iter().map(|p| p.max(0.0)).collect();
    measure_shots_probs(&probs, rho.n_qubits(), shots, rng)
}

/// Measures `shots` samples from an explicit computational-basis
/// distribution (shared by the pure- and mixed-state entry points): one
/// pass of a fresh [`ShotSampler`], recorded.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0` or any
/// entry is negative/non-finite, and [`QsimError::InvalidDimension`]
/// when the distribution does not cover an `n_qubits` register.
pub fn measure_shots_probs<R: Rng + ?Sized>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    let mut sampler = ShotSampler::default();
    sampler.sample_probs(probs, n_qubits, shots, rng)?;
    Ok(sampler.record())
}

/// An inverse-CDF shot sampler that keeps its buffers (Born
/// probabilities, CDF, outcome histogram) between batches, so repeated
/// readouts of same-sized registers allocate nothing — the
/// parameter-shift row walk reads out dozens of shifted circuits per
/// minibatch row through one sampler. For the same distribution and RNG
/// stream it draws exactly the outcomes [`measure_shots_probs`] records
/// (that function is a one-pass wrapper over this type).
#[derive(Debug, Clone, Default)]
pub struct ShotSampler {
    probs: Vec<f64>,
    cdf: Vec<f64>,
    histogram: Vec<usize>,
    shots: usize,
    n_qubits: usize,
}

impl ShotSampler {
    /// Samples `shots` outcomes from a pure state's Born distribution,
    /// replacing the previous batch.
    ///
    /// # Errors
    ///
    /// As [`ShotSampler::sample_probs`].
    pub fn sample_state<R: Rng + ?Sized>(
        &mut self,
        state: &StateVector,
        shots: usize,
        rng: &mut R,
    ) -> Result<(), QsimError> {
        let mut probs = std::mem::take(&mut self.probs);
        probs.clear();
        probs.extend(state.amplitudes().iter().map(|a| a.norm_sqr()));
        let sampled = self.sample_probs(&probs, state.n_qubits(), shots, rng);
        self.probs = probs;
        sampled
    }

    /// Samples `shots` outcomes from an explicit computational-basis
    /// distribution, replacing the previous batch.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidProbability`] when `shots == 0` or any
    /// entry is negative/non-finite, [`QsimError::InvalidDimension`] when
    /// the distribution does not cover an `n_qubits` register, and
    /// [`QsimError::NotNormalized`] for zero total mass. On error the
    /// previous batch is discarded.
    pub fn sample_probs<R: Rng + ?Sized>(
        &mut self,
        probs: &[f64],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> Result<(), QsimError> {
        self.shots = 0;
        self.histogram.clear();
        if shots == 0 {
            return Err(QsimError::InvalidProbability { value: 0.0 });
        }
        if probs.len() != 1usize << n_qubits {
            return Err(QsimError::InvalidDimension { len: probs.len() });
        }
        if let Some(&bad) = probs.iter().find(|p| !p.is_finite() || **p < 0.0) {
            return Err(QsimError::InvalidProbability { value: bad });
        }
        // A zero-mass distribution has no state to sample; rejecting it
        // here keeps the no-zero-probability-outcome guarantee total.
        if probs.iter().sum::<f64>() <= 0.0 {
            return Err(QsimError::NotNormalized { norm: 0.0 });
        }
        // Inverse-CDF sampling over the cumulative distribution: one
        // binary search per shot.
        self.cdf.clear();
        let mut acc = 0.0;
        for p in probs {
            acc += p;
            self.cdf.push(acc);
        }
        self.histogram.resize(probs.len(), 0);
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            // `c <= r` (not `c < r`) keeps zero-probability states out of
            // reach: a flat CDF segment contributes an empty interval, so
            // in particular `r == 0.0` lands on the first *positive*-mass
            // state, never on a zero-amplitude prefix entry.
            let mut idx = self.cdf.partition_point(|&c| c <= r);
            if idx >= probs.len() {
                // `gen::<f64>() * acc` can round up to `acc` itself; fold
                // the boundary onto the last positive-mass state.
                idx = probs.iter().rposition(|&p| p > 0.0).unwrap_or(0);
            }
            debug_assert!(probs[idx] > 0.0, "sampled a zero-probability state");
            self.histogram[idx] += 1;
        }
        self.shots = shots;
        self.n_qubits = n_qubits;
        Ok(())
    }

    /// The shot-estimated `⟨Z_q⟩` of the current batch — the same value
    /// [`ShotRecord::expectation_z`] gives for the same outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        if q >= self.n_qubits {
            return Err(QsimError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            });
        }
        let mask = 1usize << q;
        let mut acc = 0i64;
        for (i, &c) in self.histogram.iter().enumerate() {
            if i & mask == 0 {
                acc += c as i64;
            } else {
                acc -= c as i64;
            }
        }
        Ok(acc as f64 / self.shots as f64)
    }

    /// The current batch as a [`ShotRecord`] (zero-count outcomes
    /// omitted).
    pub fn record(&self) -> ShotRecord {
        ShotRecord {
            counts: self
                .histogram
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (i, *c))
                .collect(),
            shots: self.shots,
            n_qubits: self.n_qubits,
        }
    }
}

/// The standard error of a shot-estimated `⟨Z⟩` with true value `z`:
/// `√((1 − z²) / shots)`.
pub fn z_standard_error(z: f64, shots: usize) -> f64 {
    ((1.0 - z * z).max(0.0) / shots as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basis_state_measures_deterministically() {
        let s = StateVector::basis(3, 0b101).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let rec = measure_shots(&s, 100, &mut rng).unwrap();
        assert_eq!(rec.shots(), 100);
        assert_eq!(rec.counts(), &[(0b101, 100)]);
        assert_eq!(rec.frequency(0b101), 1.0);
        assert_eq!(rec.frequency(0b000), 0.0);
        assert_eq!(rec.expectation_z(0).unwrap(), -1.0);
        assert_eq!(rec.expectation_z(1).unwrap(), 1.0);
    }

    #[test]
    fn estimates_converge_to_exact() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::ry(0.9)).unwrap();
        s.apply_cnot(0, 1).unwrap();
        let exact = crate::measure::expectation_z_all(&s);
        let mut rng = StdRng::seed_from_u64(5);
        let rec = measure_shots(&s, 200_000, &mut rng).unwrap();
        for (q, &e) in exact.iter().enumerate() {
            let est = rec.expectation_z(q).unwrap();
            assert!((est - e).abs() < 0.01, "wire {q}: {est} vs {e}");
        }
    }

    #[test]
    fn error_shrinks_with_shot_count() {
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &Gate1::hadamard()).unwrap(); // ⟨Z⟩ = 0, max variance
        let spread = |shots: usize| -> f64 {
            let mut errs = Vec::new();
            for seed in 0..30 {
                let mut rng = StdRng::seed_from_u64(seed);
                let rec = measure_shots(&s, shots, &mut rng).unwrap();
                errs.push(rec.expectation_z(0).unwrap().abs());
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let coarse = spread(16);
        let fine = spread(4096);
        assert!(
            fine < coarse / 3.0,
            "shot noise must shrink ~1/√shots: {coarse} vs {fine}"
        );
    }

    #[test]
    fn one_batch_serves_all_wires() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::ry(0.4 + q as f64)).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(9);
        let rec = measure_shots(&s, 10_000, &mut rng).unwrap();
        let all = rec.expectation_z_all();
        assert_eq!(all.len(), 3);
        for (q, est) in all.iter().enumerate() {
            let exact = crate::measure::expectation_z(&s, q).unwrap();
            assert!((est - exact).abs() < 0.05, "wire {q}");
        }
    }

    #[test]
    fn zero_shots_rejected_and_bad_wire() {
        let s = StateVector::zero(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(measure_shots(&s, 0, &mut rng).is_err());
        let rec = measure_shots(&s, 10, &mut rng).unwrap();
        assert!(rec.expectation_z(5).is_err());
    }

    #[test]
    fn seeded_measurement_is_reproducible() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(1, &Gate1::ry(1.2)).unwrap();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            measure_shots(&s, 500, &mut rng).unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn standard_error_formula() {
        assert!((z_standard_error(0.0, 100) - 0.1).abs() < 1e-12);
        assert_eq!(z_standard_error(1.0, 100), 0.0);
        assert!((z_standard_error(0.6, 400) - (0.64f64 / 400.0).sqrt()).abs() < 1e-12);
    }

    /// An RNG that always returns 0, forcing `r == 0.0` in the sampler.
    struct ZeroRng;
    impl rand::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn zero_probability_prefix_is_never_sampled() {
        // Amplitude 0 is *exactly* zero: |ψ⟩ = |1⟩ on one wire. The old
        // `partition_point(|&c| c < r)` selected basis state 0 whenever
        // r == 0.0 because the zero-mass prefix entry satisfies `c < 0.0`
        // for no c but `partition_point` returns index 0.
        let s = StateVector::basis(1, 1).unwrap();
        let mut zero = ZeroRng;
        let rec = measure_shots(&s, 50, &mut zero).unwrap();
        assert_eq!(rec.counts(), &[(1, 50)], "r == 0.0 must skip P=0 states");

        // The same holds for interior flat CDF segments.
        let probs = [0.5, 0.0, 0.5, 0.0];
        let mut rng = StdRng::seed_from_u64(3);
        let rec = measure_shots_probs(&probs, 2, 4096, &mut rng).unwrap();
        assert_eq!(rec.frequency(1), 0.0, "flat CDF segment must be skipped");
        assert!(rec.frequency(0) > 0.3 && rec.frequency(2) > 0.3);
    }

    #[test]
    fn explicit_distributions_are_validated() {
        let mut rng = StdRng::seed_from_u64(1);
        // Length must cover the claimed register.
        assert!(matches!(
            measure_shots_probs(&[0.5, 0.5, 0.0], 1, 10, &mut rng),
            Err(QsimError::InvalidDimension { len: 3 })
        ));
        // Negative and non-finite masses are rejected, not silently
        // folded into the CDF.
        assert!(measure_shots_probs(&[1.5, -0.5], 1, 10, &mut rng).is_err());
        assert!(measure_shots_probs(&[f64::NAN, 1.0], 1, 10, &mut rng).is_err());
        // Zero total mass leaves nothing to sample.
        assert!(matches!(
            measure_shots_probs(&[0.0, 0.0], 1, 10, &mut rng),
            Err(QsimError::NotNormalized { .. })
        ));
        assert!(measure_shots_probs(&[0.5, 0.5], 1, 10, &mut rng).is_ok());
    }

    #[test]
    fn density_shots_match_pure_state_distribution() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::ry(0.9)).unwrap();
        s.apply_cnot(0, 1).unwrap();
        let rho = crate::density::DensityMatrix::from_state_vector(&s);
        let mut rng = StdRng::seed_from_u64(7);
        let rec = measure_shots_density(&rho, 100_000, &mut rng).unwrap();
        for q in 0..2 {
            let exact = crate::measure::expectation_z(&s, q).unwrap();
            let est = rec.expectation_z(q).unwrap();
            assert!((est - exact).abs() < 0.02, "wire {q}: {est} vs {exact}");
        }
        assert!(measure_shots_density(&rho, 0, &mut rng).is_err());
    }

    #[test]
    fn density_shots_skip_zero_probability_rows() {
        // A rank-one mixed state whose diagonal has exact zeros —
        // including a zero *prefix* and interior flat CDF segments. The
        // shared inverse-CDF sampler must never land on a zero-mass row,
        // whatever the rounding of the running sum.
        use crate::complex::Complex64;
        let dim = 8usize;
        let mut flat = vec![Complex64::ZERO; dim * dim];
        // diag = [0, 0.25, 0, 0, 0.5, 0, 0.25, 0]: zero prefix, two
        // interior flat segments, zero tail.
        for (i, p) in [(1usize, 0.25), (4, 0.5), (6, 0.25)] {
            flat[i * dim + i] = Complex64::from_real(p);
        }
        let rho = crate::density::DensityMatrix::from_flat(3, flat);
        let mut rng = StdRng::seed_from_u64(11);
        let rec = measure_shots_density(&rho, 50_000, &mut rng).unwrap();
        for &(idx, count) in rec.counts() {
            assert!(
                matches!(idx, 1 | 4 | 6),
                "sampled zero-probability outcome {idx} ({count} times)"
            );
        }
        assert!((rec.frequency(4) - 0.5).abs() < 0.02);
        assert_eq!(rec.frequency(0), 0.0);
        assert_eq!(rec.frequency(7), 0.0);
    }

    #[test]
    fn density_shots_clamp_negative_rounding_noise() {
        // Kraus arithmetic can leave diagonal entries a rounding error
        // below zero; the density entry point clamps them before the
        // positivity check so physical states always sample.
        use crate::complex::Complex64;
        let dim = 4usize;
        let mut flat = vec![Complex64::ZERO; dim * dim];
        flat[0] = Complex64::from_real(-1e-17);
        flat[5] = Complex64::from_real(1.0);
        let rho = crate::density::DensityMatrix::from_flat(2, flat);
        let mut rng = StdRng::seed_from_u64(3);
        let rec = measure_shots_density(&rho, 1000, &mut rng).unwrap();
        assert_eq!(rec.counts(), &[(1, 1000)]);
    }

    #[test]
    fn reused_sampler_matches_fresh_records_bit_for_bit() {
        // One sampler reused across registers of different widths and
        // across distributions with zero-probability prefixes, interior
        // flat segments and zero tails must give exactly the estimates
        // (and counts) of a fresh `ShotRecord` drawn from the same stream.
        let mut pure = StateVector::zero(3);
        for q in 0..3 {
            pure.apply_gate1(q, &Gate1::ry(0.3 + 0.5 * q as f64))
                .unwrap();
        }
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (pure.probabilities(), 3),
            (vec![0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0], 3),
            (vec![0.0, 1.0], 1),
            (vec![0.5, 0.0, 0.5, 0.0], 2),
            (vec![0.0; 15].into_iter().chain([1.0]).collect(), 4),
        ];
        let mut sampler = ShotSampler::default();
        for (round, (probs, n)) in cases.iter().chain(cases.iter()).enumerate() {
            let seed = 40 + round as u64;
            let record =
                measure_shots_probs(probs, *n, 257, &mut StdRng::seed_from_u64(seed)).unwrap();
            sampler
                .sample_probs(probs, *n, 257, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(sampler.record(), record, "round {round}");
            for q in 0..*n {
                assert_eq!(
                    sampler.expectation_z(q).unwrap(),
                    record.expectation_z(q).unwrap(),
                    "round {round} wire {q}"
                );
            }
            assert!(sampler.expectation_z(*n).is_err());
        }
        // The pure-state entry point draws the same stream as
        // `measure_shots`, and the all-zero RNG still skips P = 0 states.
        sampler
            .sample_state(&pure, 99, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(
            sampler.record(),
            measure_shots(&pure, 99, &mut StdRng::seed_from_u64(7)).unwrap()
        );
        let one = StateVector::basis(1, 1).unwrap();
        sampler.sample_state(&one, 50, &mut ZeroRng).unwrap();
        assert_eq!(sampler.record().counts(), &[(1, 50)]);
        assert_eq!(sampler.expectation_z(0).unwrap(), -1.0);
    }

    #[test]
    fn sampler_rejects_what_measure_shots_probs_rejects() {
        let mut sampler = ShotSampler::default();
        let mut rng = StdRng::seed_from_u64(1);
        sampler.sample_probs(&[0.5, 0.5], 1, 10, &mut rng).unwrap();
        assert!(matches!(
            sampler.sample_probs(&[0.5, 0.5, 0.0], 1, 10, &mut rng),
            Err(QsimError::InvalidDimension { len: 3 })
        ));
        // A failed batch discards the previous one.
        assert_eq!(sampler.record().shots(), 0);
        assert!(sampler.sample_probs(&[1.5, -0.5], 1, 10, &mut rng).is_err());
        assert!(sampler
            .sample_probs(&[f64::NAN, 1.0], 1, 10, &mut rng)
            .is_err());
        assert!(matches!(
            sampler.sample_probs(&[0.0, 0.0], 1, 10, &mut rng),
            Err(QsimError::NotNormalized { .. })
        ));
        assert!(sampler.sample_probs(&[0.5, 0.5], 1, 0, &mut rng).is_err());
    }

    #[test]
    fn frequencies_sum_to_one() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::hadamard()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(17);
        let rec = measure_shots(&s, 4096, &mut rng).unwrap();
        let total: f64 = (0..8).map(|i| rec.frequency(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}

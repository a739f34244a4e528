//! Seeded random circuits shared by the runtime's oracle tests.

use qmarl_qsim::gate::RotationAxis;
use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random circuit over every raw gate kind: input, parameter
/// and constant rotations on all three axes (input rotations also after
/// the trainable ones), controlled rotations (the four-term rule), fixed
/// gates, CNOT and CZ. Parameters repeat, so several occurrences fold
/// into one Jacobian column.
pub(crate) fn random_circuit(n_qubits: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let axes = [RotationAxis::X, RotationAxis::Y, RotationAxis::Z];
    let fixed = [FixedGate::H, FixedGate::X, FixedGate::S, FixedGate::T];
    let (n_inputs, n_params) = (n_qubits.min(3), 2 * n_qubits + 1);
    let mut c = Circuit::new(n_qubits);
    for q in 0..n_qubits {
        c.fixed(q, FixedGate::H).unwrap();
        c.rot(q, RotationAxis::Y, Angle::Input(InputId(q % n_inputs)))
            .unwrap();
    }
    for p in 0..n_params {
        c.rot(p % n_qubits, axes[p % 3], Angle::Param(ParamId(p)))
            .unwrap();
    }
    for _ in 0..6 * n_qubits {
        let q = rng.gen_range(0..n_qubits);
        let other = (q + rng.gen_range(1..n_qubits.max(2))) % n_qubits;
        let two_qubit = n_qubits > 1;
        let angle = match rng.gen_range(0..4) {
            0 => Angle::Input(InputId(rng.gen_range(0..n_inputs))),
            1 => Angle::Const(rng.gen_range(-3.0..3.0)),
            _ => Angle::Param(ParamId(rng.gen_range(0..n_params))),
        };
        let axis = axes[rng.gen_range(0..3)];
        match rng.gen_range(0..6) {
            0 | 1 => {
                c.rot(q, axis, angle).unwrap();
            }
            2 if two_qubit => {
                c.controlled_rot(q, other, axis, angle).unwrap();
            }
            3 => {
                c.fixed(q, fixed[rng.gen_range(0..fixed.len())]).unwrap();
            }
            4 if two_qubit => {
                c.cnot(q, other).unwrap();
            }
            5 if two_qubit => {
                c.cz(q, other).unwrap();
            }
            _ => {
                c.rot(q, axis, Angle::Param(ParamId(rng.gen_range(0..n_params))))
                    .unwrap();
            }
        }
    }
    // Every gate kind at least once, whatever the draws were — including
    // input-dependent rotations after the first parameterised op, which
    // the reverse sweeps must un-apply with per-lane trig.
    c.fixed(0, FixedGate::T).unwrap();
    c.rot(0, RotationAxis::X, Angle::Input(InputId(0))).unwrap();
    if n_qubits > 1 {
        c.cnot(0, 1).unwrap();
        c.cz(1, 0).unwrap();
        c.controlled_rot(n_qubits - 1, 0, RotationAxis::Y, Angle::Param(ParamId(0)))
            .unwrap();
        c.controlled_rot(0, n_qubits - 1, RotationAxis::Z, Angle::Input(InputId(0)))
            .unwrap();
    }
    c.rot(0, RotationAxis::Z, Angle::Param(ParamId(1))).unwrap();
    c
}

"""Spectral propagation: closed-form checks, unitarity, composition, revival."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbloch import (
    HermitianOperator,
    InvalidParameterError,
    NumericError,
    SpectralPropagator,
    StateVector,
    Trajectory,
    analytic_ws_profile,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    propagate,
    return_probability,
    swap_indices,
    two_site_coupler,
)

from conftest import FD, KAPPA, N_PAIR

PERIOD = 2 * math.pi / FD


def coupler_operator(kappa):
    return HermitianOperator(np.array([[0.0, -kappa], [-kappa, 0.0]]))


def test_two_site_populations_match_oracle():
    kappa = 0.7
    traj = propagate(coupler_operator(kappa), StateVector.delta(2, 0), 4.0, 0.02)
    for z, state in zip(traj.z_samples, traj.states):
        p_in, p_cross = two_site_coupler(kappa, z)
        assert abs(state[0]) ** 2 == pytest.approx(p_in, abs=1e-12)
        assert abs(state[1]) ** 2 == pytest.approx(p_cross, abs=1e-12)


def test_diagonal_generator_pure_phases():
    energies = np.array([0.3, -1.2, 2.0])
    h = HermitianOperator(np.diag(energies))
    psi0 = StateVector(np.sqrt(np.array([0.5, 0.25, 0.25]), dtype=complex))
    traj = propagate(h, psi0, 3.0, 0.5)
    for z, state in zip(traj.z_samples, traj.states):
        expected = np.exp(-1j * energies * z) * psi0.amplitudes
        assert np.max(np.abs(state - expected)) < 1e-12


def test_matches_bessel_oracle_over_full_period():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    traj = propagate(h, StateVector.delta(n, n // 2), 13.0, 0.05)
    edge = np.max(np.abs(traj.states[:, [0, -1]]) ** 2)
    assert edge < 1e-6  # infinite-lattice assumption holds
    worst = 0.0
    for z, state in zip(traj.z_samples, traj.states):
        oracle = analytic_ws_profile(KAPPA, FD, z, n // 2)
        worst = max(worst, float(np.max(np.abs(np.abs(state) - oracle))))
    assert worst <= 1e-6


def test_return_probability_examples():
    kappa = 0.6
    traj = propagate(
        coupler_operator(kappa), StateVector.delta(2, 0), math.pi / (2 * kappa), 0.01
    )
    series = return_probability(traj, 0)
    assert series.values[0] == pytest.approx(1.0, abs=1e-15)
    assert series.values[-1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        return_probability(traj, 2)


def test_full_revival_return_probability():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    traj = propagate(h, StateVector.delta(n, n // 2), PERIOD, PERIOD / 2)
    assert abs(traj.states[-1][n // 2]) ** 2 >= 0.999


def test_unitarity_per_sample(pair_trajectory):
    norms = np.sum(np.abs(pair_trajectory.states) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_composition(pair_params):
    h = build_fock_hamiltonian(pair_params)
    plan = SpectralPropagator(h)
    psi0 = StateVector.pair_excitation(N_PAIR, 7, 7)
    mid = plan.evolve(psi0, 3.3)
    indirect = plan.evolve(mid, 2.2)
    direct = plan.evolve(psi0, 5.5)
    assert np.max(np.abs(indirect.amplitudes - direct.amplitudes)) <= 1e-10


def test_energy_conservation(pair_params, pair_trajectory):
    h = build_fock_hamiltonian(pair_params).entries
    energies = np.real(
        np.einsum("ki,ij,kj->k", pair_trajectory.states.conj(), h, pair_trajectory.states)
    )
    scale = max(1.0, abs(energies[0]))
    assert np.max(np.abs(energies - energies[0])) / scale <= 1e-10


def test_swap_symmetry_preserved(pair_params):
    h = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, 6, 8)  # symmetrized off-diagonal
    traj = propagate(h, psi0, 5.0, 0.05)
    p = swap_indices(N_PAIR)
    for state in traj.states:
        assert np.max(np.abs(state[p] - state)) <= 1e-10


def test_exact_revival_up_to_global_phase():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    psi0 = StateVector.delta(n, n // 2)
    traj = propagate(h, psi0, PERIOD, PERIOD / 4)
    edge = np.max(np.abs(traj.states[:, [0, -1]]) ** 2)
    assert edge < 1e-6
    final = traj.states[-1]
    phase = final[n // 2] / abs(final[n // 2])
    assert np.linalg.norm(final / phase - psi0.amplitudes) <= 1e-5


def test_propagation_is_deterministic(pair_params):
    h = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, 7, 7)
    a = propagate(h, psi0, 2.0, 0.01)
    b = propagate(h, psi0, 2.0, 0.01)
    assert np.array_equal(a.states, b.states)
    assert a.generator_id == b.generator_id


def test_dimension_and_grid_validation():
    h = coupler_operator(1.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(3, 0), 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 2.0)


def test_non_finite_entries_reported_with_index():
    h = HermitianOperator(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(NumericError) as err:
        SpectralPropagator(h)
    assert "(0, 1)" in str(err.value)


def test_dimension_cap_guard(pair_params):
    h = build_fock_hamiltonian(pair_params)
    from fracbloch import DimensionCapError

    with pytest.raises(DimensionCapError):
        SpectralPropagator(h, dim_cap=100)


def test_state_vector_validation():
    with pytest.raises(InvalidParameterError):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(InvalidParameterError):
        StateVector.delta(4, 5)
    pair = StateVector.pair_excitation(5, 1, 3)
    assert pair.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    assert pair.amplitudes[1 * 5 + 3] == pair.amplitudes[3 * 5 + 1]


def test_trajectory_validation():
    z = np.array([0.0, 0.5])
    good = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    Trajectory(z, good, "tag")
    with pytest.raises(InvalidParameterError):
        Trajectory(np.array([0.1, 0.5]), good, "tag")  # must start at 0
    with pytest.raises(InvalidParameterError):
        Trajectory(np.array([0.0, 0.0]), good, "tag")  # strictly increasing
    with pytest.raises(InvalidParameterError):
        Trajectory(z, 0.5 * good, "tag")  # norm violated


def test_trajectory_probabilities_computed_once_and_read_only(pair_trajectory):
    probs = pair_trajectory.probabilities
    assert probs is pair_trajectory.probabilities
    assert not probs.flags.writeable
    assert np.array_equal(probs, np.abs(pair_trajectory.states) ** 2)
    ret = return_probability(pair_trajectory, 7 * N_PAIR + 7)
    assert np.array_equal(ret.values, probs[:, 7 * N_PAIR + 7])


@settings(max_examples=60, deadline=None)
@given(
    matrix=arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-3.0, max_value=3.0),
    ),
    z1=st.floats(min_value=0.01, max_value=5.0),
    z2=st.floats(min_value=0.01, max_value=5.0),
)
def test_random_generator_unitarity_and_composition(matrix, z1, z2):
    h = HermitianOperator((matrix + matrix.T) / 2.0)
    plan = SpectralPropagator(h)
    psi0 = StateVector.delta(6, 2)
    a = plan.evolve(plan.evolve(psi0, z1), z2)
    b = plan.evolve(psi0, z1 + z2)
    assert abs(np.sum(np.abs(a.amplitudes) ** 2) - 1.0) <= 1e-12
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

"""Spectral propagation: closed-form checks, unitarity, composition, revival,
the swap-sector path against a dense eigendecomposition of the full lattice
(the bond enumerator's matrix), and chunked synthesis against the same oracle
and against unchunked arithmetic. Trajectories hold populations; amplitude
checks take their states from ``evolve``."""

import contextlib
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbloch import (
    DimensionCapError,
    HermitianOperator,
    InvalidParameterError,
    ModelParams,
    NumericError,
    SpectralPropagator,
    StateVector,
    Trajectory,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    propagate,
    return_probability,
    swap_indices,
)
from fracbloch import model, propagator
from fracbloch.reference import analytic_ws_profile, two_site_coupler
from fracbloch.scenario import preset_config, run_scenario

from conftest import FD, KAPPA, N_PAIR, RHO, U0, amplitude_rows, dense_entries

PERIOD = 2 * math.pi / FD


def coupler_operator(kappa):
    return HermitianOperator(np.array([[0.0, -kappa], [-kappa, 0.0]]))


def test_two_site_populations_match_oracle():
    kappa = 0.7
    traj = propagate(coupler_operator(kappa), StateVector.delta(2, 0), 4.0, 0.02)
    for z, probs in zip(traj.z_samples, traj.probabilities):
        p_in, p_cross = two_site_coupler(kappa, z)
        assert probs[0] == pytest.approx(p_in, abs=1e-12)
        assert probs[1] == pytest.approx(p_cross, abs=1e-12)


def test_diagonal_generator_pure_phases():
    energies = np.array([0.3, -1.2, 2.0])
    h = HermitianOperator(np.diag(energies))
    psi0 = StateVector(np.sqrt(np.array([0.5, 0.25, 0.25]), dtype=complex))
    traj = propagate(h, psi0, 3.0, 0.5)
    for z, state in zip(traj.z_samples, amplitude_rows(h, psi0, traj.z_samples)):
        expected = np.exp(-1j * energies * z) * psi0.amplitudes
        assert np.max(np.abs(state - expected)) < 1e-12


def test_matches_bessel_oracle_over_full_period():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    traj = propagate(h, StateVector.delta(n, n // 2), 13.0, 0.05)
    edge = np.max(traj.probabilities[:, [0, -1]])
    assert edge < 1e-6  # infinite-lattice assumption holds
    worst = 0.0
    for z, probs in zip(traj.z_samples, traj.probabilities):
        oracle = analytic_ws_profile(KAPPA, FD, z, n // 2)
        worst = max(worst, float(np.max(np.abs(np.sqrt(probs) - oracle))))
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
    assert traj.probabilities[-1, n // 2] >= 0.999


def test_unitarity_per_sample(pair_trajectory):
    norms = np.sum(pair_trajectory.probabilities, axis=1)
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
    op = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, N_PAIR // 2, N_PAIR // 2)
    states = amplitude_rows(op, psi0, pair_trajectory.z_samples)
    h = dense_entries(op)
    energies = np.real(np.einsum("ki,ij,kj->k", states.conj(), h, states))
    scale = max(1.0, abs(energies[0]))
    assert np.max(np.abs(energies - energies[0])) / scale <= 1e-10


def test_swap_symmetry_preserved(pair_params):
    h = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, 6, 8)  # symmetrized off-diagonal
    traj = propagate(h, psi0, 5.0, 0.05)
    p = swap_indices(N_PAIR)
    for state in amplitude_rows(h, psi0, traj.z_samples):
        assert np.max(np.abs(state[p] - state)) <= 1e-10


def test_exact_revival_up_to_global_phase():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    psi0 = StateVector.delta(n, n // 2)
    traj = propagate(h, psi0, PERIOD, PERIOD / 4)
    edge = np.max(traj.probabilities[:, [0, -1]])
    assert edge < 1e-6
    final = amplitude_rows(h, psi0, traj.z_samples[-1:])[0]
    phase = final[n // 2] / abs(final[n // 2])
    assert np.linalg.norm(final / phase - psi0.amplitudes) <= 1e-5


def test_propagation_is_deterministic(pair_params):
    h = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, 7, 7)
    a = propagate(h, psi0, 2.0, 0.01)
    b = propagate(h, psi0, 2.0, 0.01)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.generator_id == b.generator_id


@pytest.mark.parametrize(
    "build, generator_id",
    [
        (lambda: build_single_particle_hamiltonian(7, KAPPA, 0.0), "8a488420a7e2"),
        (lambda: build_single_particle_hamiltonian(7, 0.0, 0.95), "16a1739001c5"),
        (
            lambda: build_effective_hamiltonian(
                ModelParams(kappa=0.0, rho=RHO, u0=U0, fd=0.0, n_sites=7)
            ),
            "194543ca3560",
        ),
        (lambda: HermitianOperator(np.array([[1, -1j], [1j, -0.0]])), "ec6a86e59e9e"),
        (
            lambda: build_fock_hamiltonian(
                ModelParams(kappa=0.0, rho=0.0, u0=0.0, fd=0.0, n_sites=6)
            ),
            "700b470599e5",
        ),
    ],
    ids=["single", "single-bonds", "effective", "complex", "fock"],
)
def test_generator_id_hashes_signed_zeros(build, generator_id):
    # with no tilt the sites left of the origin carry -0.0, and with no
    # hopping every bond does; the hash reads the terms' bytes, so a block
    # that dropped them as zeros, or wrote them +0.0, would change the id.
    # In the pair block a lone -0.0 bond sums to +0.0 and two -0.0 kappa1
    # bonds sum to -0.0, as in the dense sum
    h = build()
    entries = dense_entries(h)
    assert np.any((entries == 0) & np.signbit(entries.real))
    assert SpectralPropagator(h).generator_id == generator_id


def test_dimension_and_grid_validation():
    h = coupler_operator(1.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(3, 0), 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 2.0)
    # an endless grid is a bad parameter, not a resource the cap refuses
    with pytest.raises(InvalidParameterError, match="need 0 < dz <= z_max"):
        propagate(h, StateVector.delta(2, 0), math.inf, 0.1)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_evolve_rejects_a_non_finite_z(z):
    h = build_single_particle_hamiltonian(400, KAPPA, FD)
    with eigh_dims() as dims:
        with pytest.raises(InvalidParameterError, match="z must be finite") as err:
            SpectralPropagator(h).evolve(StateVector.delta(400, 200), z)
    assert err.value.field == "z" and dims == []


@pytest.mark.parametrize("dz", [1e-7, 1e-300, 5e-324])
def test_sample_count_is_capped_before_the_grid(pair_params, dz):
    plan = SpectralPropagator(build_fock_hamiltonian(pair_params))
    psi0 = StateVector.pair_excitation(N_PAIR, 7, 7)
    with mock.patch.object(np, "arange", side_effect=AssertionError("grid allocated")):
        with pytest.raises(DimensionCapError, match="cap of 4096 allows"):
            plan.trajectory(psi0, 8.5, dz)


def test_sample_bound_scales_with_the_cap():
    # 65536 populations per capped site: a 4-site chain at cap 4 takes 65536 samples at most
    small = SpectralPropagator(build_single_particle_hamiltonian(4, KAPPA, FD), dim_cap=4)
    assert small.trajectory(StateVector.delta(4, 1), 1.0, 1.0 / 65533).n_samples == 65534
    with pytest.raises(DimensionCapError):
        small.trajectory(StateVector.delta(4, 1), 1.0, 1.0 / 65535)


def test_non_finite_entries_reported_with_index():
    with pytest.raises(InvalidParameterError) as err:
        HermitianOperator(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    assert "(0, 1)" in str(err.value) and err.value.field == "entries"
    # NaN != NaN, so the symmetry check alone would call it not Hermitian
    with pytest.raises(InvalidParameterError, match=r"finite, got nan at \(0, 0\)"):
        HermitianOperator(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_chain_whose_entries_overflow_is_refused_when_made():
    # 1e308 * (5 // 2) overflows; the block would warn before the plan's scan
    with pytest.raises(InvalidParameterError, match="not finite") as err:
        model.ChainOperator(5, KAPPA, 1e308)
    assert err.value.field == "tilt"
    with pytest.raises(InvalidParameterError) as err:
        model.ChainOperator(5, math.inf, FD)
    assert err.value.field == "hopping"


def test_plan_scans_any_generator_for_non_finite_terms():
    block = HermitianOperator(np.eye(2)).swap_block()._replace(values=np.array([0.0, math.inf]))
    h = mock.Mock(dim=2, swap_block=lambda: block)
    with pytest.raises(NumericError, match=r"at \(1, 1\)"):
        SpectralPropagator(h)


def test_dimension_cap_guard(pair_params):
    h = build_fock_hamiltonian(pair_params)
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


def test_non_finite_amplitudes_fail_the_norm_check():
    with pytest.raises(InvalidParameterError, match="nan"):
        StateVector(np.array([math.nan, 1.0], dtype=complex))


#: A hand-built trajectory from populations, and one bad variant of each part.
GOOD_Z = np.array([0.0, 0.5])
GOOD_POPULATIONS = np.array([[1.0, 0.0], [0.25, 0.75]])
BAD_TRAJECTORIES = {
    "nan": (GOOD_Z, [[math.nan, 1.0], [0.25, 0.75]], "non-negative, found nan"),
    "inf": (GOOD_Z, [[math.inf, 0.0], [0.25, 0.75]], "deviates from 1 by inf"),
    "negative": (GOOD_Z, [[1.5, -0.5], [0.25, 0.75]], "non-negative, found -0.5"),
    "row-sum": (GOOD_Z, [[1.0, 2e-12], [0.25, 0.75]], "deviates from 1 by 2.000e-12"),
    "z-start": (np.array([0.1, 0.5]), GOOD_POPULATIONS, "starting at 0"),
    "z-repeat": (np.array([0.0, 0.0]), GOOD_POPULATIONS, "strictly increase"),
    "z-falls": (np.array([0.0, 0.5, 0.4]), np.tile([1.0, 0.0], (3, 1)), "strictly increase"),
    "shape": (GOOD_Z, np.array([1.0, 1.0]), "one population row per z sample"),
    "rows": (np.array([0.0]), GOOD_POPULATIONS, "one population row per z sample"),
    "amplitudes": (GOOD_Z, GOOD_POPULATIONS.astype(complex), "not amplitudes"),
}


def test_trajectory_validation():
    traj = Trajectory(GOOD_Z, GOOD_POPULATIONS, "tag")
    assert traj.dim == 2 and traj.n_samples == 2
    assert traj.probabilities.dtype == np.float64
    Trajectory(GOOD_Z, GOOD_POPULATIONS + [[0.0, 5e-13], [0.0, 0.0]], "tag")  # within 1e-12


@pytest.mark.parametrize("case", sorted(BAD_TRAJECTORIES))
def test_bad_trajectory_fails_closed(case):
    z, probs, message = BAD_TRAJECTORIES[case]
    with pytest.raises(InvalidParameterError, match=message):
        Trajectory(z, probs, "tag")


#: The z sample a failed check names: the first z out of order, the sample
#: whose sum strays furthest, and none for a fault of no one sample.
FAULT_SAMPLES = {
    "z-start": 0, "z-repeat": 1, "z-falls": 2, "row-sum": 0, "inf": 0,
    "nan": None, "negative": None, "shape": None, "amplitudes": None,
}


@pytest.mark.parametrize("case", sorted(FAULT_SAMPLES))
def test_bad_trajectory_names_the_sample_at_fault(case):
    z, probs, _ = BAD_TRAJECTORIES[case]
    with pytest.raises(InvalidParameterError) as info:
        Trajectory(z, probs, "tag")
    assert info.value.sample == FAULT_SAMPLES[case]


def test_worst_sum_names_its_sample():
    rows = np.array([[1.0, 5e-13], [1.0, 0.0], [0.5, 0.5 + 3e-12], [1.0, 2e-12]])
    with pytest.raises(InvalidParameterError, match="by 3.0") as info:
        Trajectory(np.arange(4.0), rows, "tag")
    assert info.value.sample == 2


def test_trajectory_probabilities_computed_once_and_read_only(pair_params, pair_trajectory):
    probs = pair_trajectory.probabilities
    assert probs is pair_trajectory.probabilities
    assert not probs.flags.writeable
    plan = SpectralPropagator(build_fock_hamiltonian(pair_params))
    psi0 = StateVector.pair_excitation(N_PAIR, N_PAIR // 2, N_PAIR // 2)
    assert np.array_equal(probs, np.abs(unchunked_states(plan, psi0, pair_trajectory.z_samples)) ** 2)
    ret = return_probability(pair_trajectory, 7 * N_PAIR + 7)
    assert np.array_equal(ret.values, probs[:, 7 * N_PAIR + 7])


def test_trajectory_keeps_no_memory_the_caller_can_write(pair_trajectory):
    z = np.array([0.0, 1.0])
    pops = np.zeros((2, 4))
    pops[:, 1] = 1.0
    read_only_view = pops[:, :]
    read_only_view.setflags(write=False)
    trajs = [Trajectory(z, pops, "tag"), Trajectory(z, read_only_view, "tag")]
    pops[:, 1], pops[:, 2] = 0.0, 1.0
    for traj in trajs:
        assert traj.probabilities[0, 1] == 1.0
        assert not traj.probabilities.flags.writeable
    # the propagator's populations are C-ordered, owned and read-only
    probs = pair_trajectory.probabilities
    assert probs.flags.owndata and probs.flags.c_contiguous
    assert not probs.flags.writeable


@pytest.mark.parametrize("kind", ["doublon", "unsymmetrized"])
def test_state_rows_square_to_the_populations(kind):
    h, psi0, _ = _pair_case(kind)
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, 8.5, 0.01)
    assert traj.n_samples == 851
    # each row is evolve's own synthesis: its one-sample product rounds apart
    # from the chunk's wider one, by up to 1.9e-15 on the doublon's populations
    worst = max(
        float(np.max(np.abs(np.abs(traj.states[k]) ** 2 - traj.probabilities[k])))
        for k in range(traj.n_samples)
    )
    assert worst <= 1e-14
    assert np.array_equal(traj.states[-1], plan.evolve(psi0, traj.z_samples[-1]).amplitudes)
    with pytest.raises(InvalidParameterError, match="no amplitudes"):
        Trajectory(GOOD_Z, GOOD_POPULATIONS, "tag").states


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


# ---------------------------------------------------------------------------
# Swap sectors: every case against np.linalg.eigh of the full dense matrix
# ---------------------------------------------------------------------------

SECTOR_TOL = 1e-12


@contextlib.contextmanager
def eigh_dims():
    """Record the matrix dimension of every np.linalg.eigh call in the block."""
    dims = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        dims.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", counting):
        yield dims


def dense_states(h, psi0, z):
    """exp(-i H z_k) psi0 as rows, from the eigenpairs of the full matrix."""
    energies, vectors = np.linalg.eigh(dense_entries(h))
    coeffs = vectors.conj().T @ psi0.amplitudes
    return (np.exp(-1j * np.outer(z, energies)) * coeffs) @ vectors.T


def assert_matches_dense(h, psi0, z_max=3.0, dz=0.05):
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, z_max, dz)
    oracle = dense_states(h, psi0, traj.z_samples)
    assert np.max(np.abs(traj.probabilities - np.abs(oracle) ** 2)) <= SECTOR_TOL
    for k in (1, traj.n_samples // 2, traj.n_samples - 1):
        state = plan.evolve(psi0, traj.z_samples[k])
        assert np.max(np.abs(state.amplitudes - oracle[k])) <= SECTOR_TOL
    return traj


def _pair_state(kind, n):
    if kind == "doublon":
        return StateVector.pair_excitation(n, n // 2, n // 2)
    if kind == "symmetrized":
        return StateVector.pair_excitation(n, n // 2 - 2, n // 2 + 1)
    return StateVector.delta(n * n, (n // 2 - 2) * n + n // 2 + 1)


@pytest.mark.parametrize("kind", ["doublon", "symmetrized", "unsymmetrized"])
def test_sector_path_matches_dense_eigh(pair_params, kind):
    h = build_fock_hamiltonian(pair_params)
    assert_matches_dense(h, _pair_state(kind, N_PAIR))


@pytest.mark.parametrize("kind", ["doublon", "unsymmetrized"])
def test_sector_path_matches_dense_eigh_with_ebh_features(kind):
    params = ModelParams.from_ebh(j_hop=9.0, eps=0.19, u0=-4.0, fd=0.5, n_sites=11)
    assert params.kappa1 != params.kappa and params.near_diagonal_defect() != 0.0
    assert_matches_dense(build_fock_hamiltonian(params), _pair_state(kind, 11))


@settings(max_examples=40, deadline=None)
@given(
    matrix=arrays(np.float64, (9, 9), elements=st.floats(min_value=-3.0, max_value=3.0)),
    parts=arrays(np.float64, (2, 9), elements=st.floats(min_value=-1.0, max_value=1.0)),
    z=st.floats(min_value=0.01, max_value=5.0),
)
def test_random_swap_symmetric_generator_matches_dense(matrix, parts, z):
    symmetric = (matrix + matrix.T) / 2.0
    p = swap_indices(3)
    h = HermitianOperator((symmetric + symmetric[p][:, p]) / 2.0)
    amp = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(amp)
    assume(norm > 1e-3)
    psi0 = StateVector(amp / norm)
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        state = plan.evolve(psi0, z)
        traj = plan.trajectory(psi0, z, z / 4)
    assert dims == [9]  # a hand-built operator is one dense block, swap-invariant or not
    oracle = dense_states(h, psi0, traj.z_samples)
    assert np.max(np.abs(state.amplitudes - oracle[-1])) <= SECTOR_TOL
    assert np.max(np.abs(traj.probabilities - np.abs(oracle) ** 2)) <= SECTOR_TOL


@pytest.mark.parametrize("side", [3, None])
def test_complex_generator_matches_dense(side):
    rng = np.random.default_rng(7)
    dim = 9 if side else 7
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2.0
    if side:
        p = swap_indices(side)
        m = (m + m[p][:, p]) / 2.0
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    with eigh_dims() as dims:
        assert_matches_dense(HermitianOperator(m), StateVector(amp / np.linalg.norm(amp)))
    assert dims == [dim, dim]  # the plan's one dense block, then the oracle's


@pytest.mark.parametrize("n", [9, 16])
def test_chain_of_square_length_stays_one_block(n):
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    with eigh_dims() as dims:
        assert_matches_dense(h, StateVector.delta(n, n // 2))
    assert dims == [n, n]  # the plan's, then the oracle's


@pytest.mark.parametrize("kind", ["doublon", "unsymmetrized"])
def test_pair_propagation_never_builds_the_dense_matrix(kind):
    # a doublon takes its N(N+1)/2 sector; a state that is not swap-symmetric
    # takes the whole lattice, from its Krylov space from N = 20 (400 sites) on
    n = N_PAIR if kind == "doublon" else 20
    h = _fixture_pair(n)
    assert not hasattr(h, "entries")  # its blocks are its only representation
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        traj = plan.trajectory(_pair_state(kind, n), 2.0, 0.1)
    assert traj.dim == n**2
    assert max(dims) < n**2


def test_pair_scenario_never_builds_the_dense_matrix(tmp_path):
    with eigh_dims() as dims:
        summary = run_scenario(preset_config("fig4a-fractional-bo"), out_dir=str(tmp_path))
    assert summary["model"] == "fock"
    assert dims == [N_PAIR * (N_PAIR + 1) // 2]  # the doublon's symmetric sector only


def test_sector_work_count(pair_params):
    n = N_PAIR
    h = build_fock_hamiltonian(pair_params)
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        plan.trajectory(_pair_state("doublon", n), 2.0, 0.1)
        plan.evolve(_pair_state("symmetrized", n), 1.0)
    assert dims == [n * (n + 1) // 2]
    with eigh_dims() as dims:
        plan.trajectory(_pair_state("unsymmetrized", n), 2.0, 0.1)
        plan.evolve(_pair_state("unsymmetrized", n), 1.0)
        plan.trajectory(_pair_state("doublon", n), 2.0, 0.1)
    assert dims == [n * n]  # one block per state: the whole lattice, without a swap


# ---------------------------------------------------------------------------
# Chunked synthesis: many chunks against dense eigh, one chunk bit for bit
# ---------------------------------------------------------------------------


def _complex_case():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    amp = rng.normal(size=7) + 1j * rng.normal(size=7)
    return HermitianOperator((m + m.conj().T) / 2.0), StateVector(amp / np.linalg.norm(amp)), 3.5


def _pair_case(kind, params=None, z_max=3.0):
    params = params or ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=N_PAIR)
    return build_fock_hamiltonian(params), _pair_state(kind, params.n_sites), z_max


#: name -> (generator, initial state, z_max), sampled with dz = 0.05. z_max = 3
#: gives 61 samples and 3.5 gives 71, both primes, so any chunk of 1 < C < 61
#: (71) samples leaves a shorter last chunk; z_max = 3.02 adds a sample off
#: the grid.
CHUNK_CASES = {
    "doublon": lambda: _pair_case("doublon"),
    "unsymmetrized": lambda: _pair_case("unsymmetrized"),
    "from-ebh": lambda: _pair_case(
        "doublon", ModelParams.from_ebh(j_hop=9.0, eps=0.19, u0=-4.0, fd=0.5, n_sites=11)
    ),
    "complex-hermitian": _complex_case,
    "off-grid-tail": lambda: (
        build_single_particle_hamiltonian(9, KAPPA, FD), StateVector.delta(9, 4), 3.02
    ),
}

#: _CHUNK_ELEMENTS for chunks of one sample, and for chunks of 2 to 64 samples
#: (450 // block for the blocks of the cases above: 225, 120, 66, 9 and 7).
CHUNK_BUDGETS = {"one-sample": 1, "ragged": 450}


@pytest.fixture
def chunk_widths(monkeypatch):
    """The number of samples in every chunk that synthesis multiplies, in order."""
    widths = []
    apply = propagator._apply

    def recording(a, b, out=None):
        if b.ndim == 2:
            widths.append(b.shape[1])
        return apply(a, b, out)

    monkeypatch.setattr(propagator, "_apply", recording)
    return widths


@pytest.mark.parametrize("budget", sorted(CHUNK_BUDGETS))
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_synthesis_matches_dense_eigh(monkeypatch, chunk_widths, case, budget):
    h, psi0, z_max = CHUNK_CASES[case]()
    monkeypatch.setattr(propagator, "_CHUNK_ELEMENTS", CHUNK_BUDGETS[budget])
    traj = assert_matches_dense(h, psi0, z_max=z_max)
    first = chunk_widths[0]
    if budget == "one-sample":
        assert set(chunk_widths) == {1}
    else:  # several chunks, the last one shorter
        assert 1 < first < traj.n_samples and traj.n_samples % first != 0
    if case == "off-grid-tail":
        assert traj.z_samples[-1] == 3.02 and traj.z_samples[-2] == pytest.approx(3.0)


def unchunked_states(plan, psi0, z):
    """The synthesis without chunks: every phase from exp, one product."""
    psi = psi0.amplitudes
    states = np.empty((z.size, plan.dim), dtype=complex)
    sector = plan._block(psi).whole
    swap = sector.block.swap
    coeffs = propagator._apply(sector.vectors.conj().T, sector.block.fold(psi))
    phases = np.exp(-1j * np.outer(sector.energies, z))
    phases *= coeffs[:, None]
    rows = propagator._apply(sector.vectors, phases).T
    states[:, swap.partner] = rows
    states[:, swap.rep] = rows
    return states


@pytest.mark.parametrize("case", sorted(CHUNK_CASES) + ["fig4a-grid"])
def test_one_chunk_is_bit_identical_to_unchunked_synthesis(case):
    if case == "fig4a-grid":  # the fig4a preset's operator and 851-sample grid
        h, psi0, z_max = _pair_case("doublon", z_max=8.5)
        dz = 0.01
    else:
        (h, psi0, z_max), dz = CHUNK_CASES[case](), 0.05
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, z_max, dz)
    assert traj.n_samples <= propagator._CHUNK_ELEMENTS // plan._block(psi0.amplitudes).whole.energies.size
    squares = np.abs(unchunked_states(plan, psi0, traj.z_samples)) ** 2
    assert np.array_equal(traj.probabilities, squares)


def test_long_grid_does_not_drift(monkeypatch):
    monkeypatch.setattr(propagator, "_CHUNK_ELEMENTS", 3 * 9)  # 3-sample chunks
    h = build_single_particle_hamiltonian(9, KAPPA, FD)
    psi0 = StateVector.delta(9, 4)
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, 200.0, 0.01)
    assert traj.n_samples == 20001
    oracle = dense_states(h, psi0, traj.z_samples[-1:])[0]
    assert np.max(np.abs(traj.probabilities[-1] - np.abs(oracle) ** 2)) <= SECTOR_TOL
    # each chunk's first sample takes its phases from exp directly, so it
    # matches the unchunked synthesis to round-off, however late the chunk
    direct = unchunked_states(plan, psi0, traj.z_samples[::3])
    assert np.max(np.abs(traj.probabilities[::3] - np.abs(direct) ** 2)) <= 1e-14


@pytest.mark.parametrize("kind", ["doublon", "unsymmetrized"])
def test_synthesis_memory_is_bounded_by_the_chunk(monkeypatch, kind):
    budget = 1 << 12
    monkeypatch.setattr(propagator, "_CHUNK_ELEMENTS", budget)
    synthesis_peaks = []
    synthesize = propagator._synthesize

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        rows = synthesize(*args, **kwargs)
        synthesis_peaks.append(tracemalloc.get_traced_memory()[1] - rows.nbytes)
        return rows

    monkeypatch.setattr(propagator, "_synthesize", measured)
    h, psi0, _ = _pair_case(kind)
    plan = SpectralPropagator(h)
    plan.evolve(psi0, 1.0)  # diagonalizes the state's block outside the measurement
    tracemalloc.start()
    try:
        traj = plan.trajectory(psi0, 20.0, 0.01)
        traj.rows  # a run's rows are synthesized on first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == 2001
    # a doublon stores the N(N+1)/2 symmetric columns, any other state every site
    stored = N_PAIR * (N_PAIR + 1) // 2 if kind == "doublon" else N_PAIR**2
    assert traj.rows.shape == (2001, stored) and traj.dim == N_PAIR**2
    transient = 8 * budget * 16  # a few chunk buffers of `budget` complex elements
    assert peak <= traj.rows.nbytes + transient  # no (samples, dim) amplitudes or populations
    assert synthesis_peaks[-1] <= transient  # beside the stored rows, synthesis holds only chunks


@pytest.mark.parametrize("on_grid", [34, 21])  # a full chunk, and a short one's strided slice
def test_phase_product_allocates_no_buffer(on_grid):
    rng = np.random.default_rng(5)
    table = np.exp(-1j * rng.random((120, 34)) * 50)[:, :on_grid]
    scale = np.exp(-1j * rng.random(120) * 50) * rng.random(120)
    out = np.empty((120, 34), dtype=complex)[:, :on_grid]
    tracemalloc.start()
    try:
        propagator._scale_rows(table, scale, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024  # numpy's broadcast product buffers 66-122 KB here
    assert np.array_equal(out, table * scale[:, None])  # the broadcast product, bit for bit


def test_z_max_just_past_the_grid_is_a_sample():
    # z_max lies 1e-6 dz past the last grid point: it is a sample of its own,
    # and a tolerance as loose as 1e-3 dz would drop it
    dz = 0.01
    z_max = 100 * dz + 1e-6 * dz
    traj = propagate(build_single_particle_hamiltonian(5, KAPPA, FD), StateVector.delta(5, 2), z_max, dz)
    assert traj.n_samples == 102
    assert traj.z_samples[-2] == 100 * dz and traj.z_samples[-1] == z_max
    on_grid = propagate(build_single_particle_hamiltonian(5, KAPPA, FD), StateVector.delta(5, 2), 1.0, dz)
    assert on_grid.n_samples == 101


def test_trajectory_column_map_is_checked():
    z, rows = np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.25, 0.375]])
    traj = Trajectory(z, rows, "tag", np.array([0, 1, 1]))  # site 2 reads column 1 too
    assert traj.dim == 3 and traj.probabilities.tolist() == [[1.0, 0.0, 0.0], [0.25, 0.375, 0.375]]
    assert not traj.column.flags.writeable and not traj.probabilities.flags.writeable
    for column in ([0, 2], [-1, 1], [0.0, 1.0], [[0, 1]], []):
        with pytest.raises(InvalidParameterError, match="stored column"):
            Trajectory(z, rows, "tag", np.array(column))
    with pytest.raises(InvalidParameterError, match="deviates from 1 by 3.750e-01"):
        Trajectory(z, rows, "tag", np.array([0, 1]))  # the second sample sums to 0.625


# ---------------------------------------------------------------------------
# Krylov steps: against the bond enumerator's dense matrix and the whole
# blocks, the selection rule, the strict bound, and the cost rule
# ---------------------------------------------------------------------------


def _block(n):
    return n * (n + 1) // 2


def whole_blocks():
    """Switch the Krylov path off in the block: every block is diagonalized whole."""
    return mock.patch.object(propagator, "_reduces", lambda block: False)


def _fixture_pair(n):
    return build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=n))


def _dense_generator(dim):
    """A random dense real symmetric generator: dim terms in every row."""
    m = np.random.default_rng(3).normal(size=(dim, dim))
    return HermitianOperator((m + m.T) / 2.0)


@pytest.mark.parametrize(
    "generator, block, reduced",
    [
        pytest.param(lambda: _fixture_pair(15), 120, False, id="120-False"),
        pytest.param(lambda: _fixture_pair(20), _block(20), False, id="210-False"),
        pytest.param(lambda: _fixture_pair(27), _block(27), False, id="378-False"),
        pytest.param(lambda: _fixture_pair(28), _block(28), True, id="406-True"),
        pytest.param(lambda: _fixture_pair(56), _block(56), True, id="1596-True"),
        pytest.param(lambda: _dense_generator(400), 400, False, id="dense-400-False"),
        pytest.param(
            lambda: build_single_particle_hamiltonian(400, KAPPA, FD), 400, True, id="chain-400-True"
        ),
    ],
)
def test_selection_rule_reads_the_block_size(generator, block, reduced):
    h = generator()
    swap = h.swap_block()
    assert swap.rep.size == block
    assert propagator._reduces(swap) is reduced
    # a plan follows the rule: Krylov steps of at most _STEP_M iterations, or
    # the one whole block (a dense generator's too, whatever its size)
    psi0 = StateVector.delta(h.dim, int(swap.rep[0]))  # (0, 0) on a pair lattice: swap-symmetric
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        plan.trajectory(psi0, 1.0, 0.1)
        plan.evolve(psi0, 1.0)
    assert max(dims) <= propagator._STEP_M if reduced else dims == [block]


def _complex_chain(n, fd):
    """The single chain with its hopping turned complex: a Hermitian,
    not real symmetric, generator with three terms a row."""
    m = dense_entries(build_single_particle_hamiltonian(n, KAPPA, fd)).astype(complex)
    bonds = np.arange(n - 1)
    m[bonds, bonds + 1] *= np.exp(0.7j)
    m[bonds + 1, bonds] *= np.exp(-0.7j)
    return HermitianOperator(m)


@pytest.mark.parametrize("fd", [FD, 0.0], ids=["tilted", "untilted"])
@pytest.mark.parametrize("n", [383, 384, 401])
@pytest.mark.parametrize("model", ["single", "effective", "complex"])
def test_chain_krylov_path_matches_the_dense_oracle(model, n, fd):
    if model == "single":
        h = build_single_particle_hamiltonian(n, KAPPA, fd)
    elif model == "complex":  # a real share in a complex block: the Lanczos basis is complex
        h = _complex_chain(n, fd)
    else:
        h = build_effective_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=fd, n_sites=n))
    psi0, z_max = StateVector.delta(n, n // 2 + 3), 8.5
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        traj = plan.trajectory(psi0, z_max, z_max / 300)
        states = [plan.evolve(psi0, z).amplitudes for z in (z_max, -z_max)]
    if n < propagator._KRYLOV_BLOCK:
        assert dims == [n]  # the whole chain, diagonalized once
    else:  # Krylov steps, then the whole chain at most once where the cost rule finds it cheaper
        steps = [d for d in dims if d != n]
        assert steps and max(steps) <= propagator._STEP_M and dims.count(n) <= 1
        if model != "effective":  # the effective chain's doubled tilt shortens its steps
            assert n not in dims
    oracle = dense_states(h, psi0, np.r_[traj.z_samples, -z_max])
    assert np.max(np.abs(traj.probabilities - np.abs(oracle[:-1]) ** 2)) <= SECTOR_TOL
    assert np.max(np.abs(np.array(states) - oracle[-2:])) <= SECTOR_TOL


def test_krylov_space_of_a_weakly_coupled_site_is_not_taken_as_invariant():
    # Ten sites off the origin the state's energy is 10 and its bonds 1e-7:
    # the first Lanczos residual (1.4e-7) is small against ||T|| but not
    # negligible. A space taken as invariant there misses the weight that
    # leaves the site, about 1e-7 over z = 8.5.
    h = build_single_particle_hamiltonian(400, 1e-7, 1.0)
    psi0 = StateVector.delta(400, 210)
    with eigh_dims() as dims:
        state = SpectralPropagator(h).evolve(psi0, 8.5)
    assert max(dims) <= 200
    with whole_blocks():
        exact = SpectralPropagator(h).evolve(psi0, 8.5)
    assert np.max(np.abs(state.amplitudes - exact.amplitudes)) <= SECTOR_TOL


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([20, 28, 29]),  # the swap block below, across and above the rule's size
    ebh=st.booleans(),
    kind=st.sampled_from(["doublon", "unsymmetrized", "complex", "antisymmetric"]),
    u0=st.floats(-10.0, -4.0),
    rho=st.floats(0.0, 0.3),
    fd=st.floats(0.3, 0.6),
    z_max=st.floats(1.0, 8.5),
)
# evolve(8) takes one Krylov step, then the cost rule finds the 406-state swap block cheaper
@example(n=28, ebh=False, kind="doublon", u0=-9.0, rho=0.0, fd=0.5, z_max=8.0)
def test_krylov_path_matches_the_bond_oracle(n, ebh, kind, u0, rho, fd, z_max):
    if ebh:  # kappa1 != kappa and a near-diagonal defect
        params = ModelParams.from_ebh(j_hop=9.0, eps=0.19, u0=u0, fd=fd, n_sites=n)
    else:
        params = ModelParams(kappa=KAPPA, rho=rho, u0=u0, fd=fd, n_sites=n)
    h = build_fock_hamiltonian(params)
    if kind == "complex":  # a complex state: Lanczos in complex arithmetic
        amp = _pair_state("doublon", n).amplitudes + 1j * _pair_state("unsymmetrized", n).amplitudes
        psi0 = StateVector(amp / np.linalg.norm(amp))
    elif kind == "antisymmetric":  # odd under the swap
        amp = _pair_state("unsymmetrized", n).amplitudes
        psi0 = StateVector((amp - amp[swap_indices(n)]) / np.sqrt(2.0))
    else:
        psi0 = _pair_state(kind, n)
    plan = SpectralPropagator(h)
    with eigh_dims() as dims:
        traj = plan.trajectory(psi0, z_max, z_max / 300)  # 301 samples
        states = [plan.evolve(psi0, z).amplitudes for z in (z_max, -z_max)]
    # a doublon takes the swap block, every other kind the whole lattice (400 sites
    # or more here): a block the rule does not reduce is diagonalized once; in one
    # it does, every eigh is a Krylov step's, of at most _STEP_M iterations, but
    # for at most one whole-block eigh after a step, where the cost rule finds
    # the rest of the reach cheaper whole
    swap = h.swap_block() if kind == "doublon" else h.lattice_block()
    block = swap.rep.size
    wide = [d for d in dims if d > propagator._STEP_M]
    if propagator._reduces(swap):
        assert wide == [] or (wide == [block] and dims.index(block) > 0)
    else:
        assert wide == [block]
    oracle = dense_states(h, psi0, np.r_[traj.z_samples, -z_max])
    assert np.max(np.abs(traj.probabilities - np.abs(oracle[:-1]) ** 2)) <= SECTOR_TOL
    assert np.max(np.abs(np.array(states) - oracle[-2:])) <= SECTOR_TOL


def _pair_scan_points(seed):
    """The benchmark's pair-scan points: rho, u0 and fd drawn per point, in
    that order, from one seeded stream (N = 56, dz = 0.01; N = 31, dz = 0.001)."""
    rng = random.Random(seed)
    return [
        (ModelParams(kappa=0.95, rho=rng.uniform(0.0, 0.3), u0=rng.uniform(-10.0, -4.0),
                     fd=rng.uniform(0.3, 0.6), n_sites=n), dz)
        for n, dz in ((56, 0.01), (31, 0.001))
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pair_scan_points_match_the_whole_blocks(seed):
    for params, dz in _pair_scan_points(seed):
        n = params.n_sites
        h = build_fock_hamiltonian(params)
        psi0 = _pair_state("doublon", n)
        with eigh_dims() as dims:
            plan = SpectralPropagator(h)
            traj = plan.trajectory(psi0, 8.5, dz)
            state = plan.evolve(psi0, traj.z_samples[10]).amplitudes
        assert max(dims) <= _block(n) // 2  # no whole block was diagonalized
        with whole_blocks(), eigh_dims() as dims:
            whole = SpectralPropagator(h)
            exact = whole.trajectory(psi0, 8.5, dz).probabilities
            exact_state = whole.evolve(psi0, traj.z_samples[10]).amplitudes
        assert dims == [_block(n)] and whole.generator_id == plan.generator_id
        assert np.max(np.abs(traj.probabilities - exact)) <= SECTOR_TOL
        assert np.max(np.abs(state - exact_state)) <= SECTOR_TOL


def test_pair_scan_state_matches_the_bond_oracle():
    (_, (params, dz)) = _pair_scan_points(1)  # N = 31: the bond oracle is 961 wide
    h = build_fock_hamiltonian(params)
    psi0 = _pair_state("doublon", 31)
    state = SpectralPropagator(h).evolve(psi0, 10 * dz)
    assert np.max(np.abs(state.amplitudes - dense_states(h, psi0, [10 * dz])[0])) <= SECTOR_TOL


def test_untilted_doublon_to_z_120_matches_the_whole_block():
    # Untilted, the N = 56 doublon spreads over the whole block by z = 120:
    # about thirty Krylov steps, each certified to its share of 1e-13, and
    # still cheaper than the 1596-state block's eigh
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=0.0, n_sites=56))
    psi0 = _pair_state("doublon", 56)
    with eigh_dims() as dims:
        traj = SpectralPropagator(h).trajectory(psi0, 120.0, 0.5)
    assert len(dims) > 10 and max(dims) <= propagator._STEP_M  # Krylov steps only
    with whole_blocks():
        exact = SpectralPropagator(h).trajectory(psi0, 120.0, 0.5).probabilities
    assert np.max(np.abs(traj.probabilities - exact)) <= SECTOR_TOL


def _recorded_steps():
    """Record the steps of every Krylov run, as the synthesis consumes them."""
    runs = []
    reduced = propagator._Block.reduced

    def recording(self, *args):
        runs.append([])
        for step in reduced(self, *args):
            runs[-1].append(step)
            yield step

    return runs, mock.patch.object(propagator._Block, "reduced", recording)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["doublon", "unsymmetrized", "chain"]),
    tilted=st.booleans(),
    seed=st.integers(0, 2**16),
    z=st.floats(2.0, 16.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_krylov_error_is_within_the_sum_of_its_step_bounds(kind, tilted, seed, z, sign):
    # evolve over several Krylov steps against the whole block: the error is
    # at most the sum of the steps' strict bounds, and that sum at most 1e-13
    fd = FD if tilted else 0.0
    if kind == "chain":  # a complex state on ten sites of a 450-site chain
        rng = np.random.default_rng(seed)
        h = build_single_particle_hamiltonian(450, KAPPA, fd)
        amp = np.zeros(450, dtype=complex)
        amp[220:230] = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi0 = StateVector(amp / np.linalg.norm(amp))
    else:
        h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=fd, n_sites=31))
        psi0 = _pair_state(kind, 31)
    runs, recording = _recorded_steps()
    with recording:
        state = SpectralPropagator(h).evolve(psi0, sign * z).amplitudes
    (steps,) = runs
    assume(len(steps) >= 2 and steps[-1].end == math.inf)  # Krylov steps to the end
    with whole_blocks():
        exact = SpectralPropagator(h).evolve(psi0, sign * z).amplitudes
    total = sum(step.bound for step in steps)
    assert np.max(np.abs(state - exact)) <= total <= propagator._KRYLOV_TOL


def _krylov_case(kind, tilted, seed):
    """A generator and a state of test_krylov_error_is_within_the_sum_of_its_step_bounds."""
    fd = FD if tilted else 0.0
    if kind == "chain":  # a complex state on ten sites of a 450-site chain
        rng = np.random.default_rng(seed)
        amp = np.zeros(450, dtype=complex)
        amp[220:230] = rng.normal(size=10) + 1j * rng.normal(size=10)
        return build_single_particle_hamiltonian(450, KAPPA, fd), StateVector(amp / np.linalg.norm(amp))
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=fd, n_sites=31))
    return h, _pair_state(kind, 31)


def _rounding(steps, z):
    """The rounding that the steps' strict bounds leave out, eps (row sum x |z|
    + the steps' m) (see the module), allowed twice: once for the steps, and
    once for the whole block's phases that a test checks them against."""
    iterations = sum(step.sector.energies.size for step in steps)
    return 2.0 * propagator._EPS * (steps[0].sector.block.row_sum * abs(z) + iterations)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["doublon", "unsymmetrized", "chain"]),
    tilted=st.booleans(),
    seed=st.integers(0, 2**16),
    z=st.floats(16.0, 60.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_krylov_error_at_long_reach_is_within_its_step_bounds_and_rounding(kind, tilted, seed, z, sign):
    # the property above past z = 16, where rounding is no longer small
    # against the truncation: the error is at most the sum of the steps'
    # strict bounds plus the rounding term, and that sum at most 1e-13
    h, psi0 = _krylov_case(kind, tilted, seed)
    runs, recording = _recorded_steps()
    with recording:
        state = SpectralPropagator(h).evolve(psi0, sign * z).amplitudes
    (steps,) = runs
    assume(len(steps) >= 2 and steps[-1].end == math.inf)  # Krylov steps to the end
    with whole_blocks():
        exact = SpectralPropagator(h).evolve(psi0, sign * z).amplitudes
    total = sum(step.bound for step in steps)
    assert total <= propagator._KRYLOV_TOL
    assert np.max(np.abs(state - exact)) <= total + _rounding(steps, z)


def test_untilted_bound_pair_to_z_120_is_within_its_step_bounds_and_rounding():
    # At u0 = -20 the untilted N = 56 doublon is an isolated bound pair, whose
    # Ritz values converge early, so the plain recurrence's basis loses its
    # orthogonality here first. Its phases reach |E| z of about 2400, so by
    # z = 120 rounding, not truncation, holds most of the error.
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=-20.0, fd=0.0, n_sites=56))
    psi0 = _pair_state("doublon", 56)
    runs, recording = _recorded_steps()
    plan = SpectralPropagator(h)
    with recording:
        traj = plan.trajectory(psi0, 120.0, 0.5)
        state = plan.evolve(psi0, 120.0).amplitudes
    with whole_blocks():
        whole = SpectralPropagator(h)
        exact = whole.trajectory(psi0, 120.0, 0.5).probabilities
        exact_state = whole.evolve(psi0, 120.0).amplitudes
    allowed = []
    for steps in runs:  # the trajectory's steps, then the evolve's: Krylov steps to the end
        total = sum(step.bound for step in steps)
        assert len(steps) > 10 and steps[-1].end == math.inf and total <= propagator._KRYLOV_TOL
        allowed.append(total + _rounding(steps, 120.0))
    traj_allowed, state_allowed = allowed
    # a population |a|^2 moves by at most (|a| + |b|) |a - b| <= 2 |a - b|
    assert np.max(np.abs(traj.probabilities - exact)) <= 2.0 * traj_allowed
    assert np.max(np.abs(state - exact_state)) <= state_allowed


def _lanczos_betas(h, b, m):
    """beta0 = |b|, beta1, ..., beta_m of Lanczos on the dense matrix h from b,
    two Gram-Schmidt passes against every earlier vector a step."""
    vectors, betas = [b / np.linalg.norm(b)], [np.linalg.norm(b)]
    for _ in range(m):
        w = h @ vectors[-1]
        for _ in range(2):
            basis = np.array(vectors)
            w = w - basis.T @ (basis.conj() @ w)
        betas.append(np.linalg.norm(w))
        vectors.append(w / betas[-1])
    return np.array(betas)


@pytest.mark.parametrize("norm", [1e-3, 1e3])
def test_each_step_certifies_the_strict_bound(norm):
    # A complex state of norm 1e-3 or 1e3 on an untilted 400-site chain,
    # carried to z = 60 with tolerance 1e-13: each step's bound is
    # beta0 beta1 ... beta_m h^m / m! from Lanczos run here from the step's
    # start, and every step that ends before the reach is as long as that
    # bound allows, tol h / reach. (A tilt makes the late betas sensitive to
    # rounding in the start state, so an independent run would not agree.)
    n, far, tol = 400, 60.0, propagator._KRYLOV_TOL
    h = build_single_particle_hamiltonian(n, KAPPA, 0.0)
    block = propagator._Block(h.swap_block(), n)
    rng = np.random.default_rng(5)
    b = np.zeros(n, dtype=complex)
    b[195:206] = rng.normal(size=11) + 1j * rng.normal(size=11)
    b *= norm / np.linalg.norm(b)
    steps = [step for step in block.reduced(b, far, 100, tol) if step.end < math.inf]
    assert len(steps) >= 2
    dense = block.swap.entries
    for (energies, vectors, _), coeffs, start, end, bound in steps:
        m, length = energies.size, end - start
        betas = _lanczos_betas(dense, vectors @ coeffs, m)  # a chain's states are its sites
        assert betas[0] == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert bound == pytest.approx(np.prod(betas) * length**m / math.factorial(m), rel=1e-9, abs=0.0)
        assert bound == pytest.approx(tol * length / far, rel=1e-9, abs=0.0)


def test_untilted_doublon_takes_the_cheaper_path_and_throws_no_run_away():
    # Without a tilt nothing localizes the pair: over z = 120 its Krylov steps
    # would cost more than the 496-state block's eigh, so after the first step
    # the rule diagonalizes the block for the rest of the samples.
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=0.0, n_sites=31))
    _assert_takes_the_cheaper_path(h, _pair_state("doublon", 31))


def test_untilted_chain_takes_the_cheaper_path_and_throws_no_run_away():
    # The untilted 400-site chain spreads to its ends by z = 120.
    h = build_single_particle_hamiltonian(400, KAPPA, 0.0)
    _assert_takes_the_cheaper_path(h, StateVector.delta(400, 200))


def _assert_takes_the_cheaper_path(h, psi0):
    runs, recording = _recorded_steps()
    plan = SpectralPropagator(h)
    block = h.swap_block().rep.size
    with recording, eigh_dims() as dims:
        traj = plan.trajectory(psi0, 120.0, 0.5)
        far = plan.evolve(psi0, 1e6)
        again = plan.trajectory(psi0, 120.0, 0.5)
    # one Krylov run, whose every step served samples; later calls take the
    # whole block it left, diagonalized once
    (steps,) = runs
    assert steps and all(0.5 <= step.end < 120.0 for step in steps)
    assert dims.count(block) == 1 and max(d for d in dims if d != block) <= propagator._STEP_M
    with whole_blocks():
        whole = SpectralPropagator(h)
        exact = whole.trajectory(psi0, 120.0, 0.5).probabilities
        assert np.array_equal(far.amplitudes, whole.evolve(psi0, 1e6).amplitudes)
    assert np.array_equal(again.probabilities, exact)
    assert np.max(np.abs(traj.probabilities - exact)) <= SECTOR_TOL


def test_far_evolve_takes_the_whole_block_without_overflowing_the_cost():
    # At z = 1e300 Krylov steps of any length could not reach: after the first
    # step the cost rule takes the whole block, whose phases start from z = 0
    # as if the Krylov path were off. At 1e308 the phases E z would overflow:
    # the plan refuses that z before any eigh or Lanczos step, on either path.
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=28))
    psi0 = _pair_state("doublon", 28)
    plan = SpectralPropagator(h)
    with whole_blocks():
        whole = SpectralPropagator(h)
        assert np.array_equal(plan.evolve(psi0, 1e300).amplitudes, whole.evolve(psi0, 1e300).amplitudes)
    plan = SpectralPropagator(h)  # a fresh plan, holding no whole block yet
    for z in (1e308, -1e308):
        for each in (plan, whole):
            with eigh_dims() as dims, pytest.raises(InvalidParameterError, match="overflows") as err:
                each.evolve(psi0, z)
            assert err.value.field == "z" and dims == []


def test_reach_that_overflows_the_phases_fails_closed():
    # the 7-site chain's energies lie within its largest row sum, 2.87: at
    # |z| = 1e308 the phases E z would overflow, so the plan refuses the reach,
    # naming the argument, before any eigh
    plan = SpectralPropagator(build_single_particle_hamiltonian(7, KAPPA, FD))
    psi0 = StateVector.delta(7, 3)
    calls = [(lambda: plan.evolve(psi0, 1e308), "z"), (lambda: plan.evolve(psi0, -1e308), "z"),
             (lambda: plan.trajectory(psi0, 1e308, 1e307), "z_max")]
    with eigh_dims() as dims:
        for call, name in calls:
            with pytest.raises(InvalidParameterError, match=f"^{name} = .* overflows the phases") as err:
                call()
            assert err.value.field == name
    assert dims == []
    far = plan.evolve(psi0, 1e300)  # far, but its phases are finite
    assert abs(np.sum(far.probabilities) - 1.0) <= 1e-12


def test_krylov_state_at_short_reach_needs_few_steps():
    # the state is not swap-symmetric: the whole lattice (841 sites) takes its Krylov path
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=29))
    psi0 = _pair_state("unsymmetrized", 29)
    plan = SpectralPropagator(h)
    with eigh_dims() as dims:
        state = plan.evolve(psi0, 0.1)
        same = plan.evolve(psi0, 0.0)
    assert len(dims) == 2 and max(dims) <= propagator._STEP_M  # one short step each
    assert np.max(np.abs(state.amplitudes - dense_states(h, psi0, [0.1])[0])) <= SECTOR_TOL
    assert np.max(np.abs(same.amplitudes - psi0.amplitudes)) <= 1e-15


def test_krylov_plan_allocates_only_its_terms(monkeypatch):
    # a plan builds the first block's terms and hashes them; it scatters no
    # dense block (11,998 terms here, 128 MB as dense rows)
    tracemalloc.start()
    try:
        SpectralPropagator(build_single_particle_hamiltonian(4000, KAPPA, 0.4833))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak

    def no_dense(self):
        raise AssertionError("a Krylov-path run built a dense block")

    monkeypatch.setattr(model.SwapBlock, "entries", property(no_dense))
    chain = SpectralPropagator(build_single_particle_hamiltonian(4000, KAPPA, 0.4833))
    psi0 = StateVector.delta(4000, 2000)
    assert chain.trajectory(psi0, 8.5, 0.01).n_samples == 851
    chain.evolve(psi0, 8.5)
    doublon = SpectralPropagator(_fixture_pair(31))
    psi0 = _pair_state("doublon", 31)
    assert doublon.trajectory(psi0, 8.5, 0.01).n_samples == 851
    doublon.evolve(psi0, 8.5)

"""Spectral propagation: closed-form checks, unitarity, composition, revival,
the swap-sector path against a dense eigendecomposition of the full lattice
(the bond enumerator's matrix), and chunked synthesis against the same oracle
and against unchunked arithmetic. Trajectories hold populations; amplitude
checks take their states from ``evolve``."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    propagate,
    return_probability,
    swap_indices,
)
from fracbloch import propagator
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


def test_dimension_and_grid_validation():
    h = coupler_operator(1.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(3, 0), 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        propagate(h, StateVector.delta(2, 0), 1.0, 2.0)


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
    h = HermitianOperator(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(NumericError) as err:
        SpectralPropagator(h)
    assert "(0, 1)" in str(err.value)


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
def test_pair_propagation_never_builds_the_dense_matrix(pair_params, kind):
    h = build_fock_hamiltonian(pair_params)
    assert not hasattr(h, "entries")  # the swap blocks are its only representation
    with eigh_dims() as dims:
        plan = SpectralPropagator(h)
        traj = plan.trajectory(_pair_state(kind, N_PAIR), 2.0, 0.1)
    assert traj.dim == N_PAIR**2
    assert max(dims) < N_PAIR**2


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
    assert dims == [n * (n - 1) // 2]


# ---------------------------------------------------------------------------
# Chunked synthesis: many chunks against dense eigh, one chunk bit for bit
# ---------------------------------------------------------------------------


def _complex_case():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    amp = rng.normal(size=7) + 1j * rng.normal(size=7)
    return HermitianOperator((m + m.conj().T) / 2.0), StateVector(amp / np.linalg.norm(amp)), 3.0


def _pair_case(kind, params=None, z_max=3.0):
    params = params or ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=N_PAIR)
    return build_fock_hamiltonian(params), _pair_state(kind, params.n_sites), z_max


#: name -> (generator, initial state, z_max), sampled with dz = 0.05. z_max = 3
#: gives 61 samples, a prime, so any chunk of 1 < C < 61 samples leaves a
#: shorter last chunk; z_max = 3.02 adds a sample off the grid.
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

#: _CHUNK_ELEMENTS for chunks of one sample, and for chunks of 3 to 57 samples
#: (400 // block for the widest blocks of the cases above: 120, 66, 9 and 7).
CHUNK_BUDGETS = {"one-sample": 1, "ragged": 400}


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
    """The synthesis without chunks: every phase from exp, one product per sector."""
    psi = psi0.amplitudes
    states = np.empty((z.size, plan.dim), dtype=complex)
    for sector in plan._sectors(psi):
        coeffs = propagator._apply(sector.vectors.conj().T, sector.fold(psi))
        phases = np.exp(-1j * np.outer(sector.energies, z))
        phases *= coeffs[:, None]
        rows = propagator._apply(sector.vectors, phases).T
        if sector.sign > 0:
            states[:, sector.partner] = rows
            states[:, sector.rep] = rows
        else:
            states[:, sector.rep] += rows
            states[:, sector.partner] -= rows
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
    for sector in plan._sectors(psi0.amplitudes):
        assert traj.n_samples <= propagator._CHUNK_ELEMENTS // sector.energies.size
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
    synthesize = SpectralPropagator._synthesize

    def measured(self, *args):
        tracemalloc.reset_peak()
        out = synthesize(self, *args)
        synthesis_peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        return out

    monkeypatch.setattr(SpectralPropagator, "_synthesize", measured)
    h, psi0, _ = _pair_case(kind)
    plan = SpectralPropagator(h)
    plan.evolve(psi0, 1.0)  # builds the antisymmetric sector outside the measurement
    tracemalloc.start()
    try:
        traj = plan.trajectory(psi0, 20.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == 2001
    transient = 8 * budget * 16  # a few chunk buffers of `budget` complex elements
    assert peak <= traj.probabilities.nbytes + transient  # no (samples, dim) amplitudes
    assert synthesis_peaks[-1] <= transient  # beside the populations, synthesis holds only chunks

"""Trajectory diagnostics against closed forms and factorization oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import (
    InvalidParameterError,
    ModelParams,
    StateVector,
    boundary_population,
    breathing_width,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    diagonal_confinement,
    find_refocus,
    participation_ratio,
    propagate,
    return_probability,
)
from fracbloch import observables, propagator
from fracbloch.observables import (
    ObservableSeries,
    RefocusReport,
    _parabolic_vertex,
    period_from_width_maximum,
    strongest_interior_peak,
)

from conftest import (
    FD,
    KAPPA,
    N_PAIR,
    N_SINGLE,
    RHO,
    U0,
    amplitude_rows,
    frequency_ratio,
    wannier_stark_spacing,
)


@pytest.fixture(scope="module")
def effective_trajectory(pair_params):
    h = build_effective_hamiltonian(pair_params)
    return propagate(h, StateVector.delta(N_PAIR, N_PAIR // 2), 8.5, 0.01)


@pytest.fixture(scope="module")
def factorized_runs():
    # u0 = 0: the pair lattice factorizes into two independent chains
    n = 11
    params = ModelParams(kappa=KAPPA, rho=0.0, u0=0.0, fd=FD, n_sites=n)
    pair = propagate(
        build_fock_hamiltonian(params),
        StateVector.pair_excitation(n, n // 2, n // 2),
        6.5,
        0.05,
    )
    chain = propagate(
        build_single_particle_hamiltonian(n, KAPPA, FD),
        StateVector.delta(n, n // 2),
        6.5,
        0.05,
    )
    return n, pair, chain


def test_confinement_starts_at_one(pair_trajectory):
    series = diagonal_confinement(pair_trajectory, N_PAIR)
    assert series.values[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all((series.values >= 0) & (series.values <= 1 + 1e-12))


def test_confinement_rejects_non_square(single_trajectory):
    with pytest.raises(InvalidParameterError):
        diagonal_confinement(single_trajectory, 5)


def test_confinement_factorization_oracle(factorized_runs):
    n, pair, chain = factorized_runs
    conf = diagonal_confinement(pair, n)
    single_pops = chain.probabilities
    expected = np.sum(single_pops**2, axis=1)  # sum_n |A_n|^4
    assert np.max(np.abs(conf.values - expected)) <= 1e-8


def test_factorized_return_probability_squares(factorized_runs):
    n, pair, chain = factorized_runs
    center = n // 2
    pair_ret = return_probability(pair, center * n + center).values
    single_ret = chain.probabilities[:, center]
    assert np.max(np.abs(pair_ret - single_ret**2)) <= 1e-8


def test_factorized_amplitudes_product(factorized_runs):
    n, pair, chain = factorized_runs
    pair_states = amplitude_rows(
        build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=0.0, u0=0.0, fd=FD, n_sites=n)),
        StateVector.pair_excitation(n, n // 2, n // 2),
        pair.z_samples,
    )
    chain_states = amplitude_rows(
        build_single_particle_hamiltonian(n, KAPPA, FD), StateVector.delta(n, n // 2), chain.z_samples
    )
    for pair_state, chain_state in zip(pair_states, chain_states):
        product = np.einsum("i,j->ij", chain_state, chain_state).ravel()
        assert np.max(np.abs(pair_state - product)) <= 1e-8


def test_confinement_plus_offdiagonal_is_one(pair_trajectory):
    conf = diagonal_confinement(pair_trajectory, N_PAIR).values
    total = np.sum(pair_trajectory.probabilities, axis=1)
    off_diagonal = total - conf
    assert np.max(np.abs(conf + off_diagonal - 1.0)) <= 1e-10


def test_pair_confinement_frozen_value(pair_trajectory):
    # measured floor of the diagonal confinement at the experiment's rates;
    # the pair at |u0| = 4 kappa is only marginally bound
    series = diagonal_confinement(pair_trajectory, N_PAIR)
    assert series.values.min() == pytest.approx(0.6183, abs=0.005)


def test_width_zero_at_start(pair_trajectory, single_trajectory):
    assert breathing_width(single_trajectory, "1d").values[0] == pytest.approx(
        0.0, abs=1e-12
    )
    assert breathing_width(pair_trajectory, "2d-diagonal").values[0] == pytest.approx(
        0.0, abs=1e-12
    )


def test_width_maximum_at_half_period():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    traj = propagate(h, StateVector.delta(n, n // 2), 13.0, 0.01)
    width = breathing_width(traj, "1d")
    k = int(np.argmax(width.values))
    assert width.z_samples[k] == pytest.approx(math.pi / FD, abs=0.02)
    # RMS width of the Bessel profile is zeta_max / sqrt(2)
    assert width.values[k] == pytest.approx(4 * KAPPA / FD / math.sqrt(2), abs=0.01)


def test_single_width_exceeds_pair_width(pair_trajectory, single_trajectory):
    single_max = np.nanmax(breathing_width(single_trajectory, "1d").values)
    pair_max = np.nanmax(breathing_width(pair_trajectory, "2d-diagonal").values)
    assert single_max > pair_max


def test_width_geometry_validation(single_trajectory):
    with pytest.raises(InvalidParameterError):
        breathing_width(single_trajectory, "2d-diagonal")
    with pytest.raises(InvalidParameterError):
        breathing_width(single_trajectory, "3d")


def test_participation_ratio_delta_is_one(pair_trajectory):
    series = participation_ratio(pair_trajectory)
    assert series.values[0] == pytest.approx(1.0, abs=1e-10)


def test_find_refocus_constant_series_empty():
    z = np.linspace(0.0, 5.0, 100)
    report = find_refocus(ObservableSeries(z, np.ones_like(z), "const"), 0.8)
    assert report.refocus_positions == ()
    assert report.period_estimate is None


def test_find_refocus_effective_model(effective_trajectory):
    series = return_probability(effective_trajectory, N_PAIR // 2)
    report = find_refocus(series, 0.8)
    interior = [p for p in report.refocus_positions if p > 0]
    assert len(interior) == 1
    assert interior[0] == pytest.approx(6.50, abs=0.05)
    assert report.period_estimate == pytest.approx(2 * math.pi / (2 * FD), abs=0.02)
    assert report.frequency_estimate == pytest.approx(2 * FD, rel=1e-3)


def test_find_refocus_single_particle_none(single_trajectory):
    series = return_probability(single_trajectory, N_SINGLE // 2)
    report = find_refocus(series, 0.8)
    assert all(p == 0.0 for p in report.refocus_positions)
    width = breathing_width(single_trajectory, "1d")
    k = int(np.argmax(width.values))
    assert width.z_samples[k] == pytest.approx(6.5, abs=0.1)


def test_find_refocus_resampling_invariance(pair_params):
    h = build_effective_hamiltonian(pair_params)
    psi0 = StateVector.delta(N_PAIR, N_PAIR // 2)
    coarse = return_probability(propagate(h, psi0, 8.5, 0.02), N_PAIR // 2)
    fine = return_probability(propagate(h, psi0, 8.5, 0.01), N_PAIR // 2)
    pos_coarse = find_refocus(coarse, 0.8).refocus_positions
    pos_fine = find_refocus(fine, 0.8).refocus_positions
    assert len(pos_coarse) == len(pos_fine)
    for a, b in zip(pos_coarse, pos_fine):
        assert abs(a - b) <= 0.5 * 0.02


def test_find_refocus_validation():
    z = np.linspace(0, 1, 10)
    series = ObservableSeries(z, np.ones_like(z), "x")
    with pytest.raises(InvalidParameterError):
        find_refocus(series, 0.0)
    with pytest.raises(InvalidParameterError):
        find_refocus(series, 1.0)


def loop_maxima(v, threshold=-math.inf):
    """The strict interior maxima at or above threshold, sample by sample."""
    return [
        k for k in range(1, v.size - 1)
        if v[k] >= threshold and v[k] > v[k - 1] and v[k] > v[k + 1]
    ]


def loop_strongest_peak(series):
    best = None
    for k in loop_maxima(series.values):
        zv, vv = _parabolic_vertex(series.z_samples, series.values, k)
        if best is None or vv > best[1]:
            best = (zv, vv)
    return best


#: Few distinct values, so plateaus and ties are common; NaN marks undefined samples.
SAMPLE = st.sampled_from([0.0, 0.3, 0.8, 0.9, 1.0, 1.2, math.nan]) | st.floats(-0.5, 1.5)


@st.composite
def series(draw):
    values = draw(st.lists(SAMPLE, min_size=1, max_size=40))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values), max_size=len(values)))
    return ObservableSeries(np.cumsum(gaps) - gaps[0], np.array(values), "x")


@settings(max_examples=300, deadline=None)
@given(s=series(), threshold=st.floats(0.05, 0.95))
def test_vectorized_maxima_match_the_sample_loop(s, threshold):
    v = s.values
    assert observables._interior_maxima(v).tolist() == loop_maxima(v)
    assert strongest_interior_peak(s) == loop_strongest_peak(s)
    if v.size < 2:
        return
    try:
        report = find_refocus(s, threshold)
    except InvalidParameterError:  # refined positions that do not increase
        report = None
    keep = loop_maxima(v, threshold)
    refined = [_parabolic_vertex(s.z_samples, v, k) for k in keep]
    positions = [zv for zv, _ in refined]
    peaks = [float(np.clip(vv, 0.0, 1.0)) for _, vv in refined]
    if v[0] >= threshold and v[0] > v[1]:
        positions.insert(0, float(s.z_samples[0]))
        peaks.insert(0, float(min(v[0], 1.0)))
    if report is None:
        assert any(b <= a for a, b in zip(positions, positions[1:]))
    else:
        assert report.refocus_positions == tuple(positions)
        assert report.peak_values == tuple(peaks)


def test_return_probability_keeps_its_propagator_path():
    assert propagator.return_probability is observables.return_probability


def test_period_from_width_maximum(effective_trajectory):
    width = breathing_width(effective_trajectory, "1d")
    report = period_from_width_maximum(width)
    assert report.period_estimate == pytest.approx(6.5, abs=0.05)


def test_frequency_ratio_basics():
    def report(period):
        return RefocusReport((), (), period, 2 * math.pi / period)

    assert frequency_ratio(report(6.5), report(13.0)) == pytest.approx(2.0, abs=1e-12)
    assert frequency_ratio(report(4.2), report(4.2)) == 1.0
    # rescaling both z axes by the same factor leaves the ratio unchanged
    assert frequency_ratio(report(6.5 * 3), report(13.0 * 3)) == pytest.approx(
        2.0, abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        frequency_ratio(report(6.5), RefocusReport((), (), None, None))


def test_frequency_ratio_halves_under_doubled_force(pair_params):
    psi0 = StateVector.delta(N_PAIR, N_PAIR // 2)
    reports = []
    for fd in (FD, 2 * FD):
        params = ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=fd, n_sites=N_PAIR)
        traj = propagate(build_effective_hamiltonian(params), psi0, 13.5, 0.01)
        reports.append(
            find_refocus(return_probability(traj, N_PAIR // 2), 0.8)
        )
    assert frequency_ratio(reports[0], reports[1]) == pytest.approx(0.5, abs=0.01)


def test_wannier_stark_spacing_zero_hopping():
    h = build_single_particle_hamiltonian(21, 0.0, FD)
    mean, spread = wannier_stark_spacing(h, 1.0 / 3.0)
    assert mean == pytest.approx(FD, abs=1e-12)
    assert spread <= 1e-12


def test_wannier_stark_spacing_interior_third():
    h = build_single_particle_hamiltonian(41, KAPPA, FD)
    mean, spread = wannier_stark_spacing(h, 1.0 / 3.0)
    assert mean == pytest.approx(FD, rel=0.01)
    assert spread <= 0.01 * mean


def test_wannier_stark_spacing_doubles_for_pair(pair_params):
    h_single = build_single_particle_hamiltonian(N_PAIR, KAPPA, FD)
    h_pair = build_effective_hamiltonian(pair_params)
    mean_single, _ = wannier_stark_spacing(h_single, 1.0 / 3.0)
    mean_pair, _ = wannier_stark_spacing(h_pair, 1.0 / 3.0)
    assert mean_pair == pytest.approx(2 * mean_single, rel=0.01)


def test_wannier_stark_spacing_converges_to_tilt():
    # shrinking the interior window pushes the mean gap toward the tilt step
    h = build_single_particle_hamiltonian(41, KAPPA, FD)
    errors = [
        abs(wannier_stark_spacing(h, fraction)[0] - FD)
        for fraction in (0.9, 0.5, 0.2)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-10


def test_wannier_stark_spacing_validation(pair_params):
    h = build_single_particle_hamiltonian(5, KAPPA, FD)
    with pytest.raises(InvalidParameterError):
        wannier_stark_spacing(h, 0.2)  # only one interior eigenvalue
    with pytest.raises(InvalidParameterError):
        wannier_stark_spacing(h, 1.5)


def test_boundary_population(pair_trajectory, single_trajectory):
    pair_edges = boundary_population(pair_trajectory, "2d")
    assert pair_edges.values[0] == pytest.approx(0.0, abs=1e-15)
    assert pair_edges.values.max() == pytest.approx(0.0329, abs=0.002)
    single_edges = boundary_population(single_trajectory, "1d")
    assert single_edges.values.max() < 1e-3
    with pytest.raises(InvalidParameterError):
        boundary_population(pair_trajectory, "diag")


def test_series_and_report_validation():
    with pytest.raises(InvalidParameterError):
        ObservableSeries(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "x")
    with pytest.raises(InvalidParameterError):
        ObservableSeries(np.array([]), np.array([]), "x")
    with pytest.raises(InvalidParameterError):
        RefocusReport((1.0, 0.5), (1.0, 1.0), None, None)
    with pytest.raises(InvalidParameterError):
        RefocusReport((0.5,), (1.5,), None, None)
    with pytest.raises(InvalidParameterError):
        RefocusReport((0.5,), (1.0,), 6.5, None)

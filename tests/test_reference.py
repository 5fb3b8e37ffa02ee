"""Oracle self-checks: Bessel routes, coupler and bound-pair closed forms, bond lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import InvalidParameterError, ModelParams, build_fock_hamiltonian
from fracbloch.reference import (
    SiteIndex2D,
    analytic_ws_profile,
    bessel_j_all,
    bessel_j_series,
    bound_pair_weights,
    enumerate_fock_bonds,
    operator_from_bonds,
    two_site_coupler,
    ws_breathing_argument,
)

from conftest import FD, KAPPA, N_PAIR, RHO, U0, dense_entries


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, -1, -4])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.7, 3.93, 7.8626, 12.5])
def test_recurrence_matches_series(n, x):
    recurrence = bessel_j_all(abs(n), x)[abs(n) + n]
    assert recurrence == pytest.approx(bessel_j_series(n, x), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=-20, max_value=20),
    x=st.floats(min_value=-15.0, max_value=15.0),
)
def test_recurrence_matches_series_property(n, x):
    recurrence = bessel_j_all(abs(n), x)[abs(n) + n]
    assert abs(recurrence - bessel_j_series(n, x)) < 1e-9


def test_bessel_j_all_layout():
    values = bessel_j_all(6, 2.7)
    # parity J_{-n} = (-1)^n J_n
    assert values[6 - 3] == pytest.approx(-values[6 + 3], abs=1e-15)


@pytest.mark.parametrize("x", [0.5, 3.93, 7.8626])
def test_bessel_sum_rule(x):
    n_max = int(math.ceil(3 * x)) + 10
    values = bessel_j_all(n_max, x)
    assert np.sum(values**2) == pytest.approx(1.0, abs=1e-8)


def test_ws_amplitude_delta_at_origin_and_revival():
    assert analytic_ws_profile(KAPPA, FD, 0.0, 0)[0] == 1.0
    assert analytic_ws_profile(KAPPA, FD, 0.0, 3)[3 + 3] == 0.0
    period = 2 * math.pi / FD
    assert analytic_ws_profile(KAPPA, FD, period, 0)[0] == pytest.approx(1.0, abs=1e-10)


def test_ws_amplitude_periodicity():
    period = 2 * math.pi / FD
    for z in (0.7, 2.31, 5.5):
        a = analytic_ws_profile(KAPPA, FD, z, 2)[2 + 2]
        b = analytic_ws_profile(KAPPA, FD, z + period, 2)[2 + 2]
        assert a == pytest.approx(b, abs=1e-12)


def test_ws_amplitude_half_period_value():
    # zeta(6.5 cm) = 7.862611; |J_0| there frozen from the series evaluation
    zeta = ws_breathing_argument(KAPPA, FD, 6.5)
    assert zeta == pytest.approx(7.862611, abs=1e-5)
    value = analytic_ws_profile(KAPPA, FD, 6.5, 0)[0]
    assert value == pytest.approx(0.2024382, abs=1e-6)
    assert value == pytest.approx(abs(bessel_j_series(0, zeta)), abs=1e-13)


def test_ws_params_reject_zero_tilt():
    with pytest.raises(InvalidParameterError):
        analytic_ws_profile(1.0, 0.0, 1.0, 4)


def test_two_site_coupler_values():
    assert two_site_coupler(1.0, 0.0) == (1.0, 0.0)
    p_in, p_cross = two_site_coupler(1.0, math.pi / 4)
    assert p_in == pytest.approx(0.5, abs=1e-15)
    assert p_cross == pytest.approx(0.5, abs=1e-15)
    p_in, p_cross = two_site_coupler(0.95, 1.0)
    assert p_in == pytest.approx(math.cos(0.95) ** 2, abs=1e-15)
    assert p_cross == pytest.approx(math.sin(0.95) ** 2, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        two_site_coupler(-0.1, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(min_value=0.0, max_value=10.0),
    z=st.floats(min_value=0.0, max_value=50.0),
)
def test_two_site_coupler_sums_to_one_exactly(kappa, z):
    p_in, p_cross = two_site_coupler(kappa, z)
    assert p_in + p_cross == 1.0
    assert 0.0 <= p_in <= 1.0


def test_bound_pair_weight_matches_localized_eigenstates():
    # the zero-force pair lattice has one bound state per K, localized near
    # the diagonal; the doublon's overlaps with them sum to W
    params = ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=0.0, n_sites=N_PAIR)
    energies, vectors = np.linalg.eigh(dense_entries(build_fock_hamiltonian(params)))
    n, m = np.divmod(np.arange(N_PAIR * N_PAIR), N_PAIR)
    localized = np.sum(vectors[np.abs(n - m) <= 3] ** 2, axis=0) > 0.9
    doublon = (N_PAIR // 2) * N_PAIR + N_PAIR // 2
    lattice_weight = float(np.sum(vectors[doublon, localized] ** 2))

    weight = float(np.mean(bound_pair_weights(KAPPA, RHO, U0, 64)))
    assert np.count_nonzero(localized) == N_PAIR
    assert weight == pytest.approx(0.8563, abs=5e-5)
    assert lattice_weight == pytest.approx(weight, abs=1e-6)
    # the bound band reaches u0 + 2 rho = -3.4, above the continuum edge
    # -4 kappa, so an energy cut at -4 kappa misses part of it
    assert energies[localized].max() > -4.0 * KAPPA
    assert float(np.sum(vectors[doublon, energies < -4.0 * KAPPA] ** 2)) < weight - 0.2


def test_bound_pair_weights_shape_and_convergence():
    weights = bound_pair_weights(KAPPA, RHO, U0, 256)
    assert weights.shape == (256,)
    assert np.all((weights > 0) & (weights <= 1))
    assert np.allclose(weights, weights[::-1], rtol=0, atol=1e-12)  # w(-K) = w(K)
    coarse = np.mean(bound_pair_weights(KAPPA, RHO, U0, N_PAIR))
    assert coarse == pytest.approx(np.mean(weights), abs=1e-8)


def test_bound_pair_weight_tends_to_one_with_interaction():
    weights = [
        float(np.mean(bound_pair_weights(KAPPA, RHO, u0, 64)))
        for u0 in (-4.0, -6.0, -10.0, -100.0, -1000.0)
    ]
    assert all(b > a for a, b in zip(weights, weights[1:]))
    assert 1.0 - weights[-1] == pytest.approx(4 * KAPPA**2 / 1000.0**2, rel=1e-2)
    assert np.mean(bound_pair_weights(KAPPA, 0.0, 1000.0, 64)) == pytest.approx(
        weights[-1], abs=1e-6
    )


def test_bound_pair_weights_validation():
    for bad in (dict(kappa=0.0), dict(kappa=math.nan), dict(u0=math.inf), dict(n_k=0)):
        args = dict(kappa=KAPPA, rho=RHO, u0=U0, n_k=8) | bad
        with pytest.raises(InvalidParameterError):
            bound_pair_weights(**args)


def test_bond_list_minimal_lattice():
    params = ModelParams(kappa=0.8, rho=0.0, u0=0.0, fd=0.0, n_sites=2)
    bonds, energies = enumerate_fock_bonds(params)
    assert len(bonds) == 4
    assert all(amp == -0.8 for _, _, amp in bonds)
    assert len(energies) == 4
    assert all(e == 0.0 for _, e in energies)


def test_bond_list_diagonal_features():
    params = ModelParams(kappa=0.5, rho=0.1, u0=1.0, fd=0.0, n_sites=3)
    bonds, energies = enumerate_fock_bonds(params)
    assert (SiteIndex2D(0, 0), SiteIndex2D(1, 1), -0.1) in bonds
    assert (SiteIndex2D(1, 1), SiteIndex2D(2, 2), -0.1) in bonds
    energy_map = {site: e for site, e in energies}
    for k in range(3):
        assert energy_map[SiteIndex2D(k, k)] == 1.0
    assert energy_map[SiteIndex2D(0, 1)] == 0.0


def test_bond_list_each_bond_once_and_symmetric_matrix(pair_params):
    bonds, energies = enumerate_fock_bonds(pair_params)
    seen = set()
    for a, b, _ in bonds:
        key = frozenset((a, b))
        assert key not in seen
        seen.add(key)
    h = operator_from_bonds(pair_params.n_sites, bonds, energies)
    assert np.array_equal(h, h.T)

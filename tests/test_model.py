"""Operator builders: transcription examples, oracle equivalence, symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import (
    DimensionCapError,
    HermitianOperator,
    InvalidParameterError,
    ModelParams,
    SpectralPropagator,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    flatten_index,
    kappa_eff,
    swap_indices,
)
from fracbloch import model
from fracbloch.errors import SingularParameterError
from fracbloch.model import PairOperator
from fracbloch.propagator import DEFAULT_DIM_CAP
from fracbloch.reference import enumerate_fock_bonds, operator_from_bonds

from conftest import FD, KAPPA, N_PAIR, RHO, U0, assembled_pair_terms, dense_entries


def test_single_particle_pure_hopping():
    h = build_single_particle_hamiltonian(3, 1.0, 0.0)
    expected = np.array([[0, -1, 0], [-1, 0, -1], [0, -1, 0]], dtype=float)
    assert np.array_equal(dense_entries(h), expected)


def test_single_particle_pure_tilt_centered():
    h = build_single_particle_hamiltonian(3, 0.0, 1.0)
    assert np.array_equal(dense_entries(h), np.diag([-1.0, 0.0, 1.0]))


def test_single_particle_interior_ladder_spacing():
    h = build_single_particle_hamiltonian(41, KAPPA, FD)
    eigenvalues = np.sort(np.linalg.eigvalsh(dense_entries(h)))
    keep = round(41 / 3)
    start = (41 - keep) // 2
    gaps = np.diff(eigenvalues[start : start + keep])
    assert gaps.mean() == pytest.approx(FD, rel=0.01)
    assert gaps.std() <= 0.01 * gaps.mean()


@pytest.mark.parametrize("n_sites", [0, 1, -3])
def test_single_particle_rejects_bad_size(n_sites):
    with pytest.raises(InvalidParameterError):
        build_single_particle_hamiltonian(n_sites, 1.0, 0.0)


def test_single_particle_rejects_negative_kappa():
    with pytest.raises(InvalidParameterError):
        build_single_particle_hamiltonian(5, -0.2, 0.0)


def test_fock_two_site_lattice_by_hand():
    params = ModelParams(kappa=1.0, rho=0.0, u0=5.0, fd=0.0, n_sites=2, kappa1=1.0)
    h = assembled_pair_terms(build_fock_hamiltonian(params))
    assert np.array_equal(np.diag(h), [5.0, 0.0, 0.0, 5.0])
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert h[i, j] == -1.0
    assert h[0, 3] == 0.0  # rho = 0: no pair cross-coupling
    assert h[1, 2] == 0.0  # no bond between (0,1) and (1,0)


def test_fock_factorizes_without_interaction():
    params = ModelParams(kappa=0.7, rho=0.0, u0=0.0, fd=0.3, n_sites=5)
    h2 = assembled_pair_terms(build_fock_hamiltonian(params))
    h1 = dense_entries(build_single_particle_hamiltonian(5, 0.7, 0.3))
    eye = np.eye(5)
    assert np.array_equal(h2, np.kron(h1, eye) + np.kron(eye, h1))


def test_fock_matches_bond_enumerator(pair_params):
    h = assembled_pair_terms(build_fock_hamiltonian(pair_params))
    bonds, energies = enumerate_fock_bonds(pair_params)
    assert np.array_equal(h, operator_from_bonds(pair_params.n_sites, bonds, energies))


def test_fock_matches_bond_enumerator_with_all_ebh_features():
    params = ModelParams.from_ebh(j_hop=9.0, eps=0.19, u0=-4.0, fd=0.5, n_sites=7)
    h = assembled_pair_terms(build_fock_hamiltonian(params))
    bonds, energies = enumerate_fock_bonds(params)
    assert np.array_equal(h, operator_from_bonds(7, bonds, energies))


def test_fock_swap_symmetry_exact(pair_params):
    h = assembled_pair_terms(build_fock_hamiltonian(pair_params))
    p = swap_indices(pair_params.n_sites)
    assert np.array_equal(h[p][:, p], h)


def test_swap_indices_maps_nm_to_mn():
    n = 4
    state = np.arange(n * n, dtype=float)
    swapped = state[swap_indices(n)]
    for a in range(n):
        for b in range(n):
            assert swapped[flatten_index(a, b, n)] == state[flatten_index(b, a, n)]


def test_fock_tilt_changes_only_the_diagonal(pair_params):
    tilted = assembled_pair_terms(build_fock_hamiltonian(pair_params))
    flat = assembled_pair_terms(
        build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=0.0, n_sites=N_PAIR))
    )
    diff = tilted - flat
    origin = N_PAIR // 2
    expected = np.zeros_like(diff)
    for n in range(N_PAIR):
        for m in range(N_PAIR):
            i = flatten_index(n, m, N_PAIR)
            expected[i, i] = FD * ((n - origin) + (m - origin))
    assert np.allclose(diff, expected, atol=1e-15)
    assert np.count_nonzero(diff - np.diag(np.diag(diff))) == 0


def test_fock_dimension_cap():
    params = ModelParams(kappa=1.0, rho=0.0, u0=0.0, fd=0.0, n_sites=4)
    with pytest.raises(DimensionCapError) as err:
        SpectralPropagator(build_fock_hamiltonian(params), dim_cap=10)
    assert "10" in str(err.value)
    with pytest.raises(DimensionCapError):
        SpectralPropagator(build_fock_hamiltonian(ModelParams(kappa=1, rho=0, u0=0, fd=0, n_sites=70)))


def test_pair_operator_checks_its_own_rates():
    # built without build_fock_hamiltonian: the -kappa bond overflows, and the
    # operator fails closed naming kappa before a block is summed
    params = ModelParams(kappa=1.7e308, rho=0.0, u0=-4.0, fd=0.4, n_sites=4)
    with pytest.raises(InvalidParameterError) as err:
        SpectralPropagator(PairOperator(params))
    assert err.value.field == "kappa"


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_single_particle_hamiltonian(200000, KAPPA, FD),
        lambda: build_effective_hamiltonian(
            ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=200000)
        ),
    ],
    ids=["single", "effective"],
)
def test_chain_builders_check_the_cap_before_allocating(monkeypatch, build):
    # a builder allocates nothing; the plan refuses before it asks for a block
    def no_block(*args):
        raise AssertionError("a block was built past the dimension cap")

    monkeypatch.setattr(model.ChainOperator, "swap_block", no_block)
    with pytest.raises(DimensionCapError) as err:
        SpectralPropagator(build(), dim_cap=DEFAULT_DIM_CAP)
    assert "200000" in str(err.value)
    with pytest.raises(DimensionCapError):
        SpectralPropagator(build(), dim_cap=10**5)


def test_kappa_eff_values():
    assert kappa_eff(KAPPA, RHO, U0) == pytest.approx(0.75125, abs=1e-12)
    assert kappa_eff(KAPPA, RHO, U0) == pytest.approx(0.7513, abs=5e-5)
    assert kappa_eff(0.0, 0.3, -4.0) == 0.3
    with pytest.raises(SingularParameterError):
        kappa_eff(1.0, 0.1, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    eps=st.floats(min_value=0.01, max_value=0.5),
    j_hop=st.floats(min_value=0.1, max_value=10.0),
    u0=st.floats(min_value=0.1, max_value=10.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_kappa_eff_consistent_parameterization(eps, j_hop, u0, sign):
    # with rho = -2 u0 eps^2 and kappa = eps J / 2 the closed form applies,
    # and both contributions carry the sign of -u0
    u0 = sign * u0
    kappa = eps * j_hop / 2.0
    rho = -2.0 * u0 * eps**2
    value = kappa_eff(kappa, rho, u0)
    expected = -(eps**2) * j_hop**2 / (2.0 * u0) - 2.0 * u0 * eps**2
    assert value == pytest.approx(expected, rel=1e-12)
    assert np.sign(-2.0 * kappa**2 / u0) == np.sign(rho)


def test_kappa_eff_equal_scales_identity():
    # J = u0 collapses the closed form to -(5/2) u0 eps^2
    eps, u0 = 0.2, -3.0
    kappa = eps * u0 / 2.0
    value = kappa_eff(abs(kappa), -2.0 * u0 * eps**2, u0)
    assert value == pytest.approx(-2.5 * u0 * eps**2, rel=1e-12)


def test_effective_hamiltonian_structure(pair_params):
    h = dense_entries(build_effective_hamiltonian(pair_params))
    assert h.shape == (N_PAIR, N_PAIR)
    assert h[7, 8] == pytest.approx(-0.75125, abs=1e-12)
    tilt_steps = np.diff(np.diag(h))
    assert np.allclose(tilt_steps, 2 * FD, atol=1e-12)


def test_effective_hamiltonian_direct_tunneling_only():
    params = ModelParams(kappa=0.0, rho=0.3, u0=-4.0, fd=0.0, n_sites=5)
    h = dense_entries(build_effective_hamiltonian(params))
    assert h[1, 2] == pytest.approx(-0.3, abs=1e-15)


def test_effective_hamiltonian_rejects_zero_interaction():
    params = ModelParams(kappa=1.0, rho=0.0, u0=0.0, fd=0.0, n_sites=5)
    with pytest.raises(SingularParameterError):
        build_effective_hamiltonian(params)


def test_effective_hamiltonian_accepts_negative_hopping():
    params = ModelParams(kappa=0.5, rho=-0.1, u0=4.0, fd=0.1, n_sites=5)
    h = dense_entries(build_effective_hamiltonian(params))
    assert h[0, 1] == pytest.approx(0.225, abs=1e-12)


def test_model_params_validation():
    with pytest.raises(InvalidParameterError):
        ModelParams(kappa=-0.1, rho=0.0, u0=0.0, fd=0.0, n_sites=5)
    with pytest.raises(InvalidParameterError):
        ModelParams(kappa=0.1, rho=0.0, u0=0.0, fd=-0.2, n_sites=5)
    with pytest.raises(InvalidParameterError):
        ModelParams(kappa=0.1, rho=0.0, u0=0.0, fd=0.0, n_sites=1)
    with pytest.raises(InvalidParameterError):
        ModelParams(kappa=0.1, rho=0.0, u0=0.0, fd=0.0, n_sites=5, eps=1.5)
    base = dict(kappa=0.1, rho=0.0, u0=0.0, fd=0.0, n_sites=5)
    for name in ("kappa", "kappa1", "rho", "u0", "fd"):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=name):
                ModelParams(**{**base, name: bad})


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    n_sites=st.integers(2, 6),
)
def test_equal_records_give_equal_generator_ids(rates, n_sites):
    # an int rate is stored as its float: the records compare equal, and
    # their terms, whose bytes the hash reads, are the same (an int 0 negated
    # is +0, a float 0.0 negated -0.0)
    kappa, kappa1, rho, u0, defect = rates
    ints = dict(kappa=abs(kappa), kappa1=kappa1, rho=rho, u0=u0, fd=abs(kappa1),
                near_diag_defect=defect, n_sites=n_sites)
    floats = {k: v if k == "n_sites" else float(v) for k, v in ints.items()}
    a, b = ModelParams(**ints), ModelParams(**floats)
    assert a == b and all(isinstance(getattr(a, k), float) for k in floats if k != "n_sites")
    builds = [build_fock_hamiltonian] + ([build_effective_hamiltonian] if u0 else [])
    for build in builds:
        assert SpectralPropagator(build(a)).generator_id == SpectralPropagator(build(b)).generator_id


def test_int_rates_hash_as_their_floats():
    # the record whose int rates used to give acf68fef72f2
    ints = ModelParams(kappa=0, rho=0, u0=0, fd=0, n_sites=6)
    assert SpectralPropagator(build_fock_hamiltonian(ints)).generator_id == "700b470599e5"


def test_model_params_ebh_consistency_checks():
    params = ModelParams.from_ebh(j_hop=9.81, eps=0.1936, u0=-4.0, fd=FD, n_sites=15)
    assert params.kappa == pytest.approx(0.9498, abs=1e-3)
    assert params.rho == pytest.approx(0.2998, abs=1e-3)
    assert params.near_diagonal_defect() == pytest.approx(-0.2998, abs=1e-3)
    with pytest.raises(InvalidParameterError):
        ModelParams(
            kappa=0.5, rho=0.3, u0=-4.0, fd=0.0, n_sites=5, eps=0.19, j_hop=9.81
        )


def test_model_params_defaults_and_overrides():
    params = ModelParams(kappa=0.95, rho=0.3, u0=-4.0, fd=0.0, n_sites=5)
    assert params.kappa1 == params.kappa
    assert params.near_diagonal_defect() == 0.0
    override = ModelParams(
        kappa=0.95, rho=0.3, u0=-4.0, fd=0.0, n_sites=5, near_diag_defect=-0.25
    )
    assert override.near_diagonal_defect() == -0.25


def test_hermitian_operator_validation():
    with pytest.raises(InvalidParameterError):
        HermitianOperator(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        HermitianOperator(np.zeros((2, 3)))
    h = HermitianOperator(np.array([[1.0, 2.0], [2.0, 0.0]]))
    assert h.dim == 2
    with pytest.raises(ValueError):
        h.entries[0, 0] = 7.0  # frozen storage


def test_flatten_unflatten_roundtrip():
    for n_sites in (2, 5, 15):
        for n in range(n_sites):
            for m in range(n_sites):
                idx = flatten_index(n, m, n_sites)
                assert divmod(idx, n_sites) == (n, m)


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(min_value=2, max_value=7),
    kappa=st.floats(min_value=0.0, max_value=3.0),
    kappa1=st.floats(min_value=0.0, max_value=3.0),
    rho=st.floats(min_value=-1.0, max_value=1.0),
    u0=st.floats(min_value=-6.0, max_value=6.0),
    fd=st.floats(min_value=0.0, max_value=1.0),
)
def test_fock_builder_properties(n_sites, kappa, kappa1, rho, u0, fd):
    params = ModelParams(
        kappa=kappa, rho=rho, u0=u0, fd=fd, n_sites=n_sites, kappa1=kappa1
    )
    h = assembled_pair_terms(build_fock_hamiltonian(params))
    assert np.array_equal(h, h.T)
    p = swap_indices(n_sites)
    assert np.array_equal(h[p][:, p], h)
    bonds, energies = enumerate_fock_bonds(params)
    assert np.array_equal(h, operator_from_bonds(n_sites, bonds, energies))


# ---------------------------------------------------------------------------
# Swap blocks: built from the rates, against gathering them from dense matrices
# ---------------------------------------------------------------------------


def gathered_swap_block(entries: np.ndarray, n: int) -> np.ndarray:
    """The swap-symmetric block gathered by index from dense N^2 x N^2 entries.

    Basis state I is |a, a> on the diagonal, else (|a, b> + |b, a>) / sqrt 2
    with a < b. For swap-invariant entries <I|H|J> = g_I g_J (H[ab, cd] +
    H[ab, dc]), with g = 1/sqrt 2 on the diagonal and 1 off it.
    """
    a, b = np.triu_indices(n)
    rep, partner = a * n + b, b * n + a
    block = entries[np.ix_(rep, rep)] + entries[np.ix_(rep, partner)]
    g = np.where(a == b, math.sqrt(0.5), 1.0)
    block *= g[:, None]
    block *= g
    return block


def assert_blocks_match_gather(params: ModelParams):
    n = params.n_sites
    h = build_fock_hamiltonian(params)
    # bytes against the builder's own terms; values against the oracle, which
    # omits zero bonds and so holds +0.0 where a -0.0 rate puts -0.0
    assembled, oracle = assembled_pair_terms(h), dense_entries(h)
    swap, size = h.swap_block(), n * (n + 1) // 2
    assert swap.entries.shape == (size, size)
    assert swap.entries.tobytes() == gathered_swap_block(assembled, n).tobytes()
    assert np.array_equal(swap.entries, gathered_swap_block(oracle, n))
    assert np.array_equal(swap.entries, swap.entries.T)
    a, b = np.divmod(swap.rep, n)
    assert np.all(a <= b) and np.array_equal(swap.partner, b * n + a)
    assert np.array_equal(swap.weight, np.where(a == b, 1.0, math.sqrt(0.5)))
    # the whole lattice without a swap: the builder's own terms, byte for byte
    lattice, sites = h.lattice_block(), np.arange(n * n)
    assert lattice.entries.tobytes() == assembled.tobytes()
    assert np.array_equal(lattice.entries, oracle)
    assert np.array_equal(lattice.rep, sites) and np.array_equal(lattice.partner, sites)
    assert np.array_equal(lattice.weight, np.ones(n * n))
    for block in (swap, lattice):
        # the terms: keys I * size + J strictly increase, and every diagonal key is there
        size = block.rep.size
        keys = block.i * size + block.j
        assert np.all(np.diff(keys) > 0)
        assert np.isin(np.arange(size) * (size + 1), keys).all()


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=N_PAIR),
        ModelParams.from_ebh(j_hop=9.0, eps=0.19, u0=-4.0, fd=0.5, n_sites=9),
        ModelParams(kappa=0.0, rho=0.0, u0=0.0, fd=0.0, n_sites=6),  # -0.0 rates
        *(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=n) for n in (2, 3, 16)),
    ],
    ids=["fixture", "from_ebh", "zero-rates", "n2", "n3", "n16"],
)
def test_swap_blocks_equal_the_gathered_blocks(params):
    if params.eps is not None:
        assert params.kappa1 != params.kappa and params.near_diagonal_defect() != 0.0
    assert_blocks_match_gather(params)


finite = st.floats(min_value=-1e3, max_value=1e3)
non_negative = st.floats(min_value=0.0, max_value=1e3)


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(min_value=2, max_value=8),
    kappa=non_negative,
    kappa1=non_negative,
    rho=finite,
    u0=finite,
    fd=non_negative,
    defect=st.none() | finite,
)
def test_swap_blocks_equal_the_gathered_blocks_for_any_rates(
    n_sites, kappa, kappa1, rho, u0, fd, defect
):
    assert_blocks_match_gather(
        ModelParams(
            kappa=kappa, rho=rho, u0=u0, fd=fd, n_sites=n_sites, kappa1=kappa1,
            near_diag_defect=defect,
        )
    )


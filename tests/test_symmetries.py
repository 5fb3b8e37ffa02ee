"""The pair lattice's exact symmetries as properties, with no oracle.

Time reversal: the generator is real, so for a real start the populations at
-z equal those at z. The interaction mirror: with S = (-1)^(n+m), which flips
the sign of every hop, and R, which reflects n -> N-1-n and so flips the tilt
about a constant, S R (-H) R S is the generator with u0, rho and the
near-diagonal defect negated (kappa, kappa1 and fd unchanged). So the
populations from (a, b) equal the mirrored populations from (N-1-a, N-1-b)
under (-u0, -rho, -defect): attractive and repulsive pairs show the same
fractional Bloch oscillation, mirrored. Both run through the sector
propagator, its Krylov sectors too on a lattice whose blocks take them, and
through a run's trajectory CSV read back.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbloch import ModelParams, SpectralPropagator, StateVector, build_fock_hamiltonian
from fracbloch.scenario import ScenarioConfig, run_scenario

from conftest import read_whole

RATE = st.floats(-3.0, 3.0, allow_nan=False)
POSITIVE = st.floats(0.0, 2.0, allow_nan=False)


#: A lattice whose blocks (the 435-state swap block and the 841-site lattice)
#: both take the Krylov path (``propagator._reduces``).
KRYLOV_SITES = 29


@st.composite
def params(draw):
    """Small pair lattices, set rate by rate or derived from (J, eps, u0)."""
    n_sites = draw(st.integers(2, 7))
    if draw(st.booleans()):
        return ModelParams.from_ebh(
            j_hop=draw(st.floats(0.0, 4.0)), eps=draw(st.floats(0.05, 0.95)),
            u0=draw(RATE), fd=draw(POSITIVE), n_sites=n_sites,
        )
    return ModelParams(
        kappa=draw(POSITIVE), kappa1=draw(POSITIVE), rho=draw(RATE), u0=draw(RATE),
        fd=draw(POSITIVE), near_diag_defect=draw(RATE), n_sites=n_sites,
    )


def mirrored(p: ModelParams) -> ModelParams:
    """The interaction mirror's partner; kappa1 and the defect are given
    explicitly, because from_ebh at -u0 would change kappa1."""
    return ModelParams(
        kappa=p.kappa, kappa1=p.kappa1, rho=-p.rho, u0=-p.u0, fd=p.fd,
        near_diag_defect=-p.near_diagonal_defect(), n_sites=p.n_sites,
    )


def mirror_state(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """S R psi: the site (n, m) takes psi's (N-1-n, N-1-m) amplitude, times (-1)^(n+m)."""
    n, m = np.divmod(np.arange(n_sites * n_sites), n_sites)
    return psi[::-1] * np.where((n + m) % 2, -1.0, 1.0)


@st.composite
def real_start(draw, n_sites):
    """A pair excitation, or any real state, which need not be swap-symmetric."""
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n_sites - 1)), draw(st.integers(0, n_sites - 1))
        return StateVector.pair_excitation(n_sites, a, b).amplitudes.real
    psi = draw(arrays(float, n_sites * n_sites, elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(psi)
    assume(norm > 0.1)
    return psi / norm


@st.composite
def krylov_params(draw):
    """The KRYLOV_SITES lattice at rates around the paper's arrays, whose tilt
    keeps a local start in short Krylov steps, for either sign of the
    interaction."""
    return ModelParams(
        kappa=draw(st.floats(0.5, 1.0)), kappa1=draw(st.floats(0.5, 1.5)),
        rho=draw(st.floats(-0.3, 0.3)), u0=draw(st.floats(-10.0, 10.0)),
        fd=draw(st.floats(0.3, 0.6)), near_diag_defect=draw(st.floats(-0.3, 0.3)),
        n_sites=KRYLOV_SITES,
    )


@st.composite
def local_start(draw, n_sites):
    """A pair excitation, or one site off the diagonal, which takes the whole
    lattice: starts whose Krylov spaces the tilt keeps small."""
    a, b = draw(st.integers(0, n_sites - 1)), draw(st.integers(0, n_sites - 1))
    if a == b or draw(st.booleans()):
        return StateVector.pair_excitation(n_sites, a, b).amplitudes.real
    return StateVector.delta(n_sites * n_sites, a * n_sites + b).amplitudes.real


@contextlib.contextmanager
def krylov_only(n_sites):
    """Fail if any block of the n_sites lattice is diagonalized whole."""
    eigh = np.linalg.eigh

    def reduced_only(a, *args, **kwargs):
        assert a.shape[0] <= n_sites * (n_sites + 1) // 4, "a whole block was diagonalized"
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", reduced_only):
        yield


def assert_time_reversal(p, psi, z):
    plan = SpectralPropagator(build_fock_hamiltonian(p))
    forward = plan.evolve(StateVector(psi), z).probabilities
    backward = plan.evolve(StateVector(psi), -z).probabilities
    assert np.max(np.abs(forward - backward)) <= 1e-14


def assert_interaction_mirror(p, psi, z):
    pops = SpectralPropagator(build_fock_hamiltonian(p)).evolve(StateVector(psi), z)
    partner = SpectralPropagator(build_fock_hamiltonian(mirrored(p)))
    pops_mirror = partner.evolve(StateVector(mirror_state(psi, p.n_sites)), z)
    assert np.max(np.abs(pops.probabilities[::-1] - pops_mirror.probabilities)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=params(), z=st.floats(0.0, 6.0))
def test_time_reversal_through_the_propagator(data, p, z):
    assert_time_reversal(p, data.draw(real_start(p.n_sites)), z)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=params(), z=st.floats(0.0, 6.0))
def test_interaction_mirror_through_the_propagator(data, p, z):
    assert_interaction_mirror(p, data.draw(real_start(p.n_sites)), z)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), p=krylov_params(), z=st.floats(0.0, 6.0))
def test_time_reversal_through_krylov_sectors(data, p, z):
    with krylov_only(KRYLOV_SITES):
        assert_time_reversal(p, data.draw(local_start(KRYLOV_SITES)), z)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), p=krylov_params(), z=st.floats(0.0, 6.0))
def test_interaction_mirror_through_krylov_sectors(data, p, z):
    with krylov_only(KRYLOV_SITES):
        assert_interaction_mirror(p, data.draw(local_start(KRYLOV_SITES)), z)


def _run_csv(tmp, name, p, excitation):
    config = ScenarioConfig("fock", 2.0, p, dz=0.1, excitation=excitation)
    run_scenario(config, out_dir=str(tmp / name))
    return read_whole(tmp / name / "trajectory.csv")


@settings(max_examples=15, deadline=None)
@given(data=st.data(), p=params())
def test_symmetries_through_the_trajectory_csv(tmp_path_factory, data, p):
    n = p.n_sites
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    tmp = tmp_path_factory.mktemp("symmetry")
    z, probs, kind = _run_csv(tmp, "run", p, (a, b))
    z_mirror, probs_mirror, _ = _run_csv(tmp, "mirror", mirrored(p), (n - 1 - a, n - 1 - b))
    assert kind == "pair" and np.array_equal(z, z_mirror)
    # the CSV prints 13 significant digits of populations <= 1
    assert np.max(np.abs(probs[:, ::-1] - probs_mirror)) <= 1e-12
    plan = SpectralPropagator(build_fock_hamiltonian(p))
    psi0 = StateVector.pair_excitation(n, a, b)
    backward = np.array([plan.evolve(psi0, -zk).probabilities for zk in z])
    assert np.max(np.abs(probs - backward)) <= 1e-12

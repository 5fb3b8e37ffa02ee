"""Shared fixtures: the measured array parameters, cached preset runs, the
dense pair matrices, the amplitudes that trajectories do not keep, and the
spectral helpers that only tests use."""

import numpy as np
import pytest

from fracbloch import (
    HermitianOperator,
    InvalidParameterError,
    ModelParams,
    SpectralPropagator,
    StateVector,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    propagate,
)
from fracbloch import model
from fracbloch.model import PairOperator
from fracbloch.observables import RefocusReport
from fracbloch.reference import enumerate_fock_bonds, operator_from_bonds
from fracbloch.scenario import preset_config, run_scenario

KAPPA = 0.95
RHO = 0.3
U0 = -4.0
FD = 0.4833
N_PAIR = 15
N_SINGLE = 23


@pytest.fixture(scope="session")
def pair_params():
    return ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=N_PAIR)


@pytest.fixture(scope="session")
def pair_trajectory(pair_params):
    h = build_fock_hamiltonian(pair_params)
    psi0 = StateVector.pair_excitation(N_PAIR, N_PAIR // 2, N_PAIR // 2)
    return propagate(h, psi0, 8.5, 0.01)


@pytest.fixture(scope="session")
def single_trajectory():
    h = build_single_particle_hamiltonian(N_SINGLE, KAPPA, FD)
    psi0 = StateVector.delta(N_SINGLE, N_SINGLE // 2)
    return propagate(h, psi0, 8.5, 0.01)


def run_preset(name, out_dir):
    return run_scenario(preset_config(name), out_dir=str(out_dir))


@pytest.fixture(scope="session")
def fig4a_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4a")
    return run_preset("fig4a-fractional-bo", out), out


@pytest.fixture(scope="session")
def fig4b_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4b")
    return run_preset("fig4b-single-bo", out), out


def dense_entries(h) -> np.ndarray:
    """The generator as a dense matrix: a pair operator's from the bond
    enumerator oracle, which shares no code with the builder, and any other
    generator's own entries. For propagation and eigenstate checks."""
    if isinstance(h, PairOperator):
        return operator_from_bonds(h.params.n_sites, *enumerate_fock_bonds(h.params))
    return h.entries


def amplitude_rows(h, psi0, z) -> np.ndarray:
    """exp(-i H z_k) psi0 as rows, one ``evolve`` per sample. A trajectory
    keeps only populations, so checks of the amplitudes take them from here."""
    plan = SpectralPropagator(h)
    return np.array([plan.evolve(psi0, zk).amplitudes for zk in z])


def assembled_pair_terms(h: PairOperator) -> np.ndarray:
    """The dense N^2 x N^2 matrix of a pair operator, assembled from the
    builder's own site energies and bonds (``model._pair_terms``) with their
    exact arithmetic. For checks of the builder itself."""
    energy, rows, cols, rates = model._pair_terms(h.params)
    matrix = np.diag(energy)
    matrix[rows, cols] = rates
    return matrix


def assert_allclose(actual, desired, atol=0.0, rtol=1e-12):
    np.testing.assert_allclose(actual, desired, atol=atol, rtol=rtol)


def frequency_ratio(pair_report: RefocusReport, single_report: RefocusReport) -> float:
    """Ratio of oscillation frequencies, pair over single."""
    if pair_report.frequency_estimate is None or single_report.frequency_estimate is None:
        raise InvalidParameterError("both reports must carry frequency estimates")
    return pair_report.frequency_estimate / single_report.frequency_estimate


def wannier_stark_spacing(
    h: HermitianOperator, interior_fraction: float
) -> tuple[float, float]:
    """Mean and spread of consecutive eigenvalue gaps in the spectrum center.

    Sorts the eigenvalues, keeps the central ``interior_fraction`` of them,
    and returns (mean, standard deviation) of the consecutive differences.
    Edge-localized states are excluded this way, exposing the equally spaced
    ladder of the tilted chain.
    """
    if not 0.0 < interior_fraction <= 1.0:
        raise InvalidParameterError(
            f"interior_fraction must lie in (0, 1], got {interior_fraction}"
        )
    dim = h.dim
    keep = int(round(dim * interior_fraction))
    if keep < 3:
        raise InvalidParameterError(
            f"only {keep} interior eigenvalues selected; need at least 3"
        )
    eigenvalues = np.sort(np.linalg.eigvalsh(h.entries))
    start = (dim - keep) // 2
    gaps = np.diff(eigenvalues[start : start + keep])
    return float(np.mean(gaps)), float(np.std(gaps))

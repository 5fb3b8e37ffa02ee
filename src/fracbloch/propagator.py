"""Exact unitary z-evolution by eigendecomposition of the generator.

The generator is diagonalized once (dense real-symmetric / Hermitian solve)
and every sampled state is synthesized spectrally, so unitarity holds to
machine precision and revival positions are not integration artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionCapError, InvalidParameterError, NumericError
from .model import DEFAULT_DIM_CAP, HermitianOperator, flatten_index
from .observables import ObservableSeries

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over lattice sites, normalized to 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise InvalidParameterError("amplitudes must be a non-empty 1D array")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise InvalidParameterError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}"
            )
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def delta(cls, dim: int, site: int) -> "StateVector":
        """All amplitude on one site."""
        if not 0 <= site < dim:
            raise InvalidParameterError(f"site {site} outside [0, {dim})")
        amp = np.zeros(dim, dtype=complex)
        amp[site] = 1.0
        return cls(amp)

    @classmethod
    def pair_excitation(cls, n_sites: int, n: int, m: int) -> "StateVector":
        """Two bosons at sites n and m of the chain, swap-symmetrized."""
        if not (0 <= n < n_sites and 0 <= m < n_sites):
            raise InvalidParameterError(
                f"excitation ({n}, {m}) outside the {n_sites}-site chain"
            )
        amp = np.zeros(n_sites * n_sites, dtype=complex)
        if n == m:
            amp[flatten_index(n, m, n_sites)] = 1.0
        else:
            amp[flatten_index(n, m, n_sites)] = 1.0 / np.sqrt(2.0)
            amp[flatten_index(m, n, n_sites)] = 1.0 / np.sqrt(2.0)
        return cls(amp)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: states[k] is the state vector at z_samples[k]."""

    z_samples: np.ndarray
    states: np.ndarray
    generator_id: str

    def __post_init__(self):
        z = np.asarray(self.z_samples, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if z.ndim != 1 or states.ndim != 2 or states.shape[0] != z.size:
            raise InvalidParameterError("need one state row per z sample")
        if z.size == 0 or z[0] != 0.0 or np.any(np.diff(z) <= 0):
            raise InvalidParameterError(
                "z samples must strictly increase starting at 0"
            )
        norms = np.sum(np.abs(states) ** 2, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > _NORM_TOL:
            raise InvalidParameterError(
                f"trajectory state norm^2 deviates from 1 by {worst:.3e}"
            )
        z = z.copy()
        states = states.copy()
        z.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.z_samples.size

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Site populations, shape (n_samples, dim); computed once, read-only."""
        probs = np.abs(self.states) ** 2
        probs.setflags(write=False)
        return probs

    def state(self, k: int) -> StateVector:
        return StateVector(self.states[k])


def _generator_id(entries: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(entries.shape[0]).encode())
    digest.update(np.ascontiguousarray(entries).tobytes())
    return digest.hexdigest()[:12]


class SpectralPropagator:
    """Immutable propagation plan: one eigendecomposition, many syntheses.

    Safe to share across threads; independent trajectories need no
    coordination.
    """

    def __init__(self, h: HermitianOperator, dim_cap: int = DEFAULT_DIM_CAP):
        entries = h.entries
        if h.dim > dim_cap:
            raise DimensionCapError(h.dim, dim_cap)
        bad = np.argwhere(~np.isfinite(entries))
        if bad.size:
            i, j = bad[0]
            raise NumericError(f"non-finite generator entry at ({i}, {j})")
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(entries)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.generator_id = _generator_id(entries)
        self.dim = h.dim

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0."""
        self._check_dim(psi0)
        coeffs = self.eigenvectors.conj().T @ psi0.amplitudes
        coeffs = coeffs * np.exp(-1j * self.eigenvalues * z)
        return StateVector(self.eigenvectors @ coeffs)

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """Sample exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z = _sample_grid(z_max, dz)
        coeffs = self.eigenvectors.conj().T @ psi0.amplitudes
        phases = np.exp(-1j * np.outer(z, self.eigenvalues))
        states = (phases * coeffs) @ self.eigenvectors.T
        return Trajectory(z_samples=z, states=states, generator_id=self.generator_id)

    def _check_dim(self, psi0: StateVector):
        if psi0.dim != self.dim:
            raise InvalidParameterError(
                f"state dimension {psi0.dim} does not match generator {self.dim}"
            )


def _sample_grid(z_max: float, dz: float) -> np.ndarray:
    if not 0 < dz <= z_max:
        raise InvalidParameterError(f"need 0 < dz <= z_max, got dz={dz}, z_max={z_max}")
    n_steps = int(np.floor(z_max / dz + 1e-9))
    z = dz * np.arange(n_steps + 1)
    if z_max - z[-1] > 1e-9 * dz:
        z = np.append(z, z_max)
    return z


def propagate(
    h: HermitianOperator,
    psi0: StateVector,
    z_max: float,
    dz: float,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Trajectory:
    """One-shot trajectory of i d(psi)/dz = H psi from psi0."""
    return SpectralPropagator(h, dim_cap=dim_cap).trajectory(psi0, z_max, dz)


def return_probability(traj, site: int) -> ObservableSeries:
    """Population of one site along a trajectory (or any populations record)."""
    dim = traj.probabilities.shape[1]
    if not 0 <= site < dim:
        raise InvalidParameterError(f"site {site} outside [0, {dim})")
    return ObservableSeries(
        z_samples=traj.z_samples,
        values=traj.probabilities[:, site],
        label=f"return_probability[site={site}]",
    )

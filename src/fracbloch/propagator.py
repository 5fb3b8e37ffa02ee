"""Exact unitary z-evolution by eigendecomposition of the generator.

The generator is diagonalized once per invariant sector and every sampled
state is synthesized spectrally, so unitarity holds to machine precision and
revival positions are not integration artifacts. A generator on an N x N
lattice that commutes exactly with the (n, m) swap (every pair-lattice
operator does) splits into its symmetric sector, of dimension N(N+1)/2, and
its antisymmetric sector, of dimension N(N-1)/2; any other generator is one
sector. Sectors are dense real-symmetric / Hermitian solves, and a real
sector is synthesized in real arithmetic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, InvalidParameterError, NumericError
from .model import DEFAULT_DIM_CAP, HermitianOperator, flatten_index, swap_indices
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
    """Sampled evolution: states[k] is the state vector at z_samples[k].

    The states are copied unless they come as a C-ordered, read-only array
    that owns its memory, which the trajectory then keeps as it is.
    """

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
        z = z.copy()
        flags = states.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous):
            states = states.copy()
        probs = np.abs(states)
        np.square(probs, out=probs)
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if worst > _NORM_TOL:
            raise InvalidParameterError(
                f"trajectory state norm^2 deviates from 1 by {worst:.3e}"
            )
        for array in (z, states, probs):
            array.setflags(write=False)
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_probabilities", probs)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.z_samples.size

    @property
    def probabilities(self) -> np.ndarray:
        """Site populations, shape (n_samples, dim); computed once, read-only."""
        return self._probabilities


def _generator_id(entries: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(entries.shape[0]).encode())
    digest.update(np.ascontiguousarray(entries).tobytes())
    return digest.hexdigest()[:12]


class _Sector(NamedTuple):
    """Eigenpairs of one invariant block, eigenvectors embedded in the full basis."""

    energies: np.ndarray
    vectors: np.ndarray  # (dim, block dim)


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _swap_side(entries: np.ndarray) -> int | None:
    """N when entries act on an N x N lattice and commute exactly with the swap."""
    n = math.isqrt(entries.shape[0])
    if n * n != entries.shape[0]:
        return None
    grid = entries.reshape(n, n, n, n)
    return n if np.array_equal(grid, grid.transpose(1, 0, 3, 2)) else None


def _swap_sector(entries: np.ndarray, n: int, sign: int) -> _Sector:
    """Diagonalize entries on the swap-symmetric (sign 1) or antisymmetric sector.

    Basis state I is |a, a> on the diagonal, else (|a, b> + sign |b, a>) / sqrt 2
    with a < b. Block entries are gathered by index: for swap-invariant entries,
    <I|H|J> = g_I g_J (H[ab, cd] + sign H[ab, dc]) with g = 1/sqrt 2 on the
    diagonal and 1 off it.
    """
    a, b = np.triu_indices(n, k=0 if sign > 0 else 1)
    rep, partner = a * n + b, b * n + a
    on_diagonal = a == b
    block = entries[np.ix_(rep, rep)] + sign * entries[np.ix_(rep, partner)]
    g = np.where(on_diagonal, math.sqrt(0.5), 1.0)
    block *= g[:, None]
    block *= g
    energies, v = _eigh(block)
    vectors = np.zeros((n * n, rep.size), dtype=v.dtype)
    vectors[rep] = np.where(on_diagonal, 1.0, math.sqrt(0.5))[:, None] * v
    vectors[partner] = sign * vectors[rep]
    return _Sector(energies, vectors)


def _apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex b; a real a acts on b's real and imaginary parts in
    one real product instead of being cast to complex."""
    if np.iscomplexobj(a):
        return a @ b
    b = np.ascontiguousarray(b, dtype=complex)
    pairs = b.view(np.float64).reshape(b.shape[0], -1)
    return (a @ pairs).view(complex).reshape(a.shape[0], *b.shape[1:])


class SpectralPropagator:
    """Immutable propagation plan: one eigendecomposition per sector, many syntheses.

    For a swap-invariant generator the symmetric sector is diagonalized here;
    the antisymmetric one only when a state first reaches it, and then once.
    Safe to share across threads; independent trajectories need no
    coordination (two threads reaching the antisymmetric sector first at the
    same time may both diagonalize it, with the same result).
    """

    def __init__(self, h: HermitianOperator, dim_cap: int = DEFAULT_DIM_CAP):
        entries = h.entries
        if h.dim > dim_cap:
            raise DimensionCapError(h.dim, dim_cap)
        bad = np.argwhere(~np.isfinite(entries))
        if bad.size:
            i, j = bad[0]
            raise NumericError(f"non-finite generator entry at ({i}, {j})")
        self._entries = entries
        self._side = _swap_side(entries)
        # The symmetric sector, or the whole space without swap symmetry.
        if self._side is None:
            self._first = _Sector(*_eigh(entries))
        else:
            self._first = _swap_sector(entries, self._side, 1)
        self.generator_id = _generator_id(entries)
        self.dim = h.dim

    @cached_property
    def _antisymmetric(self) -> _Sector:
        return _swap_sector(self._entries, self._side, -1)

    def _sectors(self, psi: np.ndarray) -> tuple[_Sector, ...]:
        """The sectors psi has weight in; the second only if psi is not swap-symmetric."""
        if self._side is None or np.array_equal(psi, psi[swap_indices(self._side)]):
            return (self._first,)
        return (self._first, self._antisymmetric)

    def _synthesize(self, psi0: StateVector, z: np.ndarray) -> np.ndarray:
        """exp(-i H z_k) psi0 for every z_k, as the columns of a (dim, len(z)) array."""
        psi = psi0.amplitudes
        columns = None
        for sector in self._sectors(psi):
            coeffs = _apply(sector.vectors.conj().T, psi)
            phases = np.exp(-1j * np.outer(sector.energies, z))
            phases *= coeffs[:, None]
            part = _apply(sector.vectors, phases)
            del phases
            if columns is None:
                columns = part
            else:
                columns += part
        return columns

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0."""
        self._check_dim(psi0)
        return StateVector(self._synthesize(psi0, np.array([z]))[:, 0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """Sample exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z = _sample_grid(z_max, dz)
        # handed over C-ordered and read-only, so Trajectory needs no copy
        states = np.ascontiguousarray(self._synthesize(psi0, z).T)
        states.setflags(write=False)
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

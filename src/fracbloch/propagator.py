"""Exact unitary z-evolution by eigendecomposition of the generator.

The generator is diagonalized once per invariant sector and every sampled
state is synthesized spectrally, so unitarity holds to machine precision and
revival positions are not integration artifacts. A pair-lattice operator
(``model.PairOperator``) supplies its swap blocks, built from the rates: the
symmetric sector, of dimension N(N+1)/2, and the antisymmetric sector, of
dimension N(N-1)/2, which is built only when a state reaches it. Any other
generator is one sector, its dense entries. Sectors are dense
real-symmetric / Hermitian solves, and a real sector is synthesized in real
arithmetic. Synthesis stays in the sector basis: each sector's part of the
samples is written straight into the rows of the (samples, dim) states, and
the full-basis eigenvectors are never formed. ``generator_id`` hashes the
first sector's block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, InvalidParameterError, NumericError
from .model import (
    DEFAULT_DIM_CAP,
    HermitianOperator,
    PairOperator,
    SwapBlock,
    flatten_index,
)
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
    """Eigenpairs of one invariant block and the block's place in the full basis.

    Without rep the block is the whole space. With it, vectors[I, k] is
    eigenvector k's amplitude on site rep[I], and it carries sign times that
    on site partner[I] (the same site on the main diagonal).
    """

    energies: np.ndarray
    vectors: np.ndarray  # (block dim, block dim)
    rep: np.ndarray | None = None
    partner: np.ndarray | None = None
    sign: int = 1

    def fold(self, psi: np.ndarray) -> np.ndarray:
        """The block's share of psi: psi[rep] + sign psi[partner], psi[rep] on the diagonal."""
        if self.rep is None:
            return psi
        rep, partner = self.rep, self.partner
        return np.where(rep == partner, psi[rep], psi[rep] + self.sign * psi[partner])

    def place(self, states: np.ndarray, rows: np.ndarray):
        """Put this sector's (S, block) part into the (S, dim) states.

        The whole space or the symmetric sector comes first and writes every
        site; the antisymmetric sector, which has no diagonal site, adds.
        """
        if self.rep is None:
            states[...] = rows
        elif self.sign > 0:  # a diagonal site is its own partner
            states[:, self.partner] = rows
            states[:, self.rep] = rows
        else:
            states[:, self.rep] += rows
            states[:, self.partner] -= rows


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _diagonalize(swap: SwapBlock) -> _Sector:
    energies, v = _eigh(swap.entries)
    v *= swap.weight[:, None]
    return _Sector(energies, v, swap.rep, swap.partner, swap.sign)


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

    For a pair-lattice operator the symmetric sector is diagonalized here;
    the antisymmetric one only when a state first reaches it, and then once.
    Safe to share across threads; independent trajectories need no
    coordination (two threads reaching the antisymmetric sector first at the
    same time may both diagonalize it, with the same result).
    """

    def __init__(self, h: HermitianOperator, dim_cap: int = DEFAULT_DIM_CAP):
        if h.dim > dim_cap:
            raise DimensionCapError(h.dim, dim_cap)
        self._pair = h if isinstance(h, PairOperator) else None
        # The symmetric sector, or the whole space without swap blocks.
        first = h.swap_block(1) if self._pair is not None else None
        entries = h.entries if first is None else first.entries
        bad = np.argwhere(~np.isfinite(entries))
        if bad.size:
            i, j = bad[0]
            raise NumericError(f"non-finite generator entry at ({i}, {j})")
        self.generator_id = _generator_id(entries)
        if first is None:
            self._first = _Sector(*_eigh(entries))
        else:
            self._first = _diagonalize(first)
        self.dim = h.dim

    @cached_property
    def _antisymmetric(self) -> _Sector:
        return _diagonalize(self._pair.swap_block(-1))

    def _sectors(self, psi: np.ndarray) -> tuple[_Sector, ...]:
        """The sectors psi has weight in; the second only if psi is not swap-symmetric."""
        first = self._first
        if first.rep is None or np.array_equal(psi[first.rep], psi[first.partner]):
            return (first,)
        return (first, self._antisymmetric)

    def _synthesize(self, psi0: StateVector, z: np.ndarray) -> np.ndarray:
        """exp(-i H z_k) psi0 for every z_k, as the rows of a C-ordered (len(z), dim) array."""
        psi = psi0.amplitudes
        states = None
        for sector in self._sectors(psi):
            coeffs = _apply(sector.vectors.conj().T, sector.fold(psi))
            phases = np.exp(-1j * np.outer(sector.energies, z))
            phases *= coeffs[:, None]
            part = _apply(sector.vectors, phases)
            del phases
            if states is None:  # after phases is freed: the peak holds states and one part
                states = np.empty((z.size, self.dim), dtype=complex)
            sector.place(states, part.T)
            del part
        return states

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0."""
        self._check_dim(psi0)
        return StateVector(self._synthesize(psi0, np.array([z]))[0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """Sample exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z = _sample_grid(z_max, dz)
        # handed over C-ordered and read-only, so Trajectory needs no copy
        states = self._synthesize(psi0, z)
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

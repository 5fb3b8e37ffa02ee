"""Exact unitary z-evolution by eigendecomposition of the generator.

The generator is diagonalized once per invariant sector and every sampled
state is synthesized spectrally, so unitarity holds to machine precision and
revival positions are not integration artifacts. A pair-lattice operator
(``model.PairOperator``) supplies its swap blocks, built from the rates: the
symmetric sector, of dimension N(N+1)/2, and the antisymmetric sector, of
dimension N(N-1)/2, which is built only when a state reaches it. Any other
generator is one sign-1 sector whose every site is its own partner. Sectors
are dense real-symmetric / Hermitian solves, and a real sector is
synthesized in real arithmetic. Synthesis stays in the sector basis: each
sector's part of the samples is written straight into the rows of the
(samples, dim) states, and the full-basis eigenvectors are never formed.
``generator_id`` hashes the first sector's block.

Synthesis walks the samples in chunks of max(1, _CHUNK_ELEMENTS // block)
samples, so its buffers hold O(_CHUNK_ELEMENTS) elements whatever the length
of the trajectory; only the (samples, dim) states are whole. On the grid
z_k = k dz the phases of a chunk starting at sample k0 are one table of
offsets exp(-i E j dz), computed once per sector, times the chunk's anchor
coeffs exp(-i E z_k0), computed directly, so no error accumulates from chunk
to chunk. A z off the grid (an appended z_max, or ``evolve``'s z) takes its
phase from exp directly. The first chunk's anchor is the coefficients
themselves, so a trajectory that fits in one chunk is computed with exactly
the arithmetic of an unchunked synthesis, bit for bit.
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
from .observables import return_probability  # noqa: F401  (re-exported)

_NORM_TOL = 1e-12
#: Complex elements per synthesis buffer: the phase offsets, the phases and
#: the product of a chunk each hold block x chunk of them.
_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over lattice sites, normalized to 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise InvalidParameterError("amplitudes must be a non-empty 1D array")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
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
        if not worst <= _NORM_TOL:  # NaN fails too
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

    vectors[I, k] is eigenvector k's amplitude on site rep[I], and it carries
    sign times that on site partner[I]; a site that is its own partner (the
    main diagonal, or every site of a generator without swap blocks) carries
    it once. In a sign-1 sector column[s] is the block index I whose rep or
    partner is site s; a sign -1 sector has no column.
    """

    energies: np.ndarray
    vectors: np.ndarray  # (block dim, block dim)
    rep: np.ndarray
    partner: np.ndarray
    sign: int
    column: np.ndarray | None

    def fold(self, psi: np.ndarray) -> np.ndarray:
        """The block's share of psi: psi[rep] + sign psi[partner], psi[rep] where they coincide."""
        rep, partner = self.rep, self.partner
        return np.where(rep == partner, psi[rep], psi[rep] + self.sign * psi[partner])

    def place(self, states: np.ndarray, part: np.ndarray):
        """Put this sector's (block, n) part of n samples into their (n, dim) states.

        The sign-1 sector comes first and writes every site; the antisymmetric
        sector, which has no site that is its own partner, adds.
        """
        if self.sign > 0:  # gathered 32 rows at a time, so the temporary stays small
            rows = part.T
            for r in range(0, len(states), 32):
                states[r : r + 32] = rows[r : r + 32, self.column]
        else:
            states[:, self.rep] += part.T
            states[:, self.partner] -= part.T


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _diagonalize(swap: SwapBlock, dim: int) -> _Sector:
    energies, v = _eigh(swap.entries)
    v *= swap.weight[:, None]
    column = None
    if swap.sign > 0:  # a site that is its own partner gets one column
        column = np.empty(dim, dtype=np.intp)
        column[swap.partner] = column[swap.rep] = np.arange(swap.rep.size)
    return _Sector(energies, v, swap.rep, swap.partner, swap.sign, column)


def _apply(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for complex b, into out if given; a real a acts on b's real and
    imaginary parts in one real product instead of being cast to complex."""
    if np.iscomplexobj(a):
        return np.matmul(a, b, out=out)
    b = np.ascontiguousarray(b, dtype=complex)
    pairs = b.view(np.float64).reshape(b.shape[0], -1)
    if out is not None:
        out = out.view(np.float64).reshape(out.shape[0], -1)
    return np.matmul(a, pairs, out=out).view(complex).reshape(a.shape[0], *b.shape[1:])


class SpectralPropagator:
    """Immutable propagation plan: one eigendecomposition per sector, many syntheses.

    The first sector (a pair operator's symmetric block, or any other
    generator whole) is diagonalized here; a pair operator's antisymmetric
    sector only when a state first reaches it, and then once.
    Safe to share across threads; independent trajectories need no
    coordination (two threads reaching the antisymmetric sector first at the
    same time may both diagonalize it, with the same result).
    """

    def __init__(self, h: HermitianOperator, dim_cap: int = DEFAULT_DIM_CAP):
        if h.dim > dim_cap:
            raise DimensionCapError(h.dim, dim_cap)
        self._pair = h if isinstance(h, PairOperator) else None
        if self._pair is None:  # no swap blocks: one sign-1 block, each site its own partner
            sites = np.arange(h.dim)
            first = SwapBlock(h.entries, 1, sites, sites, np.ones(h.dim))
        else:
            first = h.swap_block(1)
        bad = np.argwhere(~np.isfinite(first.entries))
        if bad.size:
            i, j = bad[0]
            raise NumericError(f"non-finite generator entry at ({i}, {j})")
        self.generator_id = _generator_id(first.entries)
        self._first = _diagonalize(first, h.dim)
        self.dim = h.dim

    @cached_property
    def _antisymmetric(self) -> _Sector:
        return _diagonalize(self._pair.swap_block(-1), self.dim)

    def _sectors(self, psi: np.ndarray) -> tuple[_Sector, ...]:
        """The sectors psi has weight in; the second only if psi is not swap-symmetric."""
        first = self._first
        if np.array_equal(psi[first.rep], psi[first.partner]):
            return (first,)
        return (first, self._antisymmetric)

    def _synthesize(
        self, psi0: StateVector, n_grid: int, dz: float, off_grid: np.ndarray
    ) -> np.ndarray:
        """exp(-i H z) psi0 at z = 0, dz, ..., (n_grid - 1) dz and then at each
        z in off_grid, as the rows of a C-ordered (samples, dim) array."""
        psi = psi0.amplitudes
        n_samples = n_grid + off_grid.size
        states = None
        for sector in self._sectors(psi):
            energies, block = sector.energies, sector.energies.size
            coeffs = _apply(sector.vectors.conj().T, sector.fold(psi))
            chunk = min(n_samples, max(1, _CHUNK_ELEMENTS // block))
            offsets = np.exp(-1j * np.outer(energies, dz * np.arange(min(chunk, n_grid))))
            phase_buf = np.empty(block * chunk, dtype=complex)
            part_buf = np.empty_like(phase_buf)
            for k0 in range(0, n_samples, chunk):
                k1 = min(k0 + chunk, n_samples)
                # flat buffers reshaped, so a short last chunk is contiguous too
                phases = phase_buf[: block * (k1 - k0)].reshape(block, k1 - k0)
                part = part_buf[: phases.size].reshape(phases.shape)
                on_grid = max(0, min(k1, n_grid) - k0)
                if on_grid:  # the first anchor is coeffs: one chunk is unchunked arithmetic
                    anchor = coeffs if k0 == 0 else coeffs * np.exp(-1j * energies * (dz * k0))
                    np.multiply(offsets[:, :on_grid], anchor[:, None], out=phases[:, :on_grid])
                if on_grid < k1 - k0:  # an appended z_max, or evolve's z
                    z = off_grid[k0 + on_grid - n_grid : k1 - n_grid]
                    direct = np.exp(-1j * np.outer(energies, z))
                    np.multiply(direct, coeffs[:, None], out=phases[:, on_grid:])
                part = _apply(sector.vectors, phases, out=part)
                if k1 == n_samples:  # free the phases before the last chunk touches its states
                    del offsets, phase_buf, phases
                if states is None:  # late: a one-chunk run never holds its phases beside it
                    states = np.empty((n_samples, self.dim), dtype=complex)
                sector.place(states[k0:k1], part)
        return states

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0."""
        self._check_dim(psi0)
        return StateVector(self._synthesize(psi0, 0, 0.0, np.array([z], dtype=float))[0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """Sample exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z, n_grid = _sample_grid(z_max, dz)
        # handed over C-ordered and read-only, so Trajectory needs no copy
        states = self._synthesize(psi0, n_grid, dz, z[n_grid:])
        states.setflags(write=False)
        return Trajectory(z_samples=z, states=states, generator_id=self.generator_id)

    def _check_dim(self, psi0: StateVector):
        if psi0.dim != self.dim:
            raise InvalidParameterError(
                f"state dimension {psi0.dim} does not match generator {self.dim}"
            )


def _sample_grid(z_max: float, dz: float) -> tuple[np.ndarray, int]:
    """The samples 0, dz, 2 dz, ..., z_max, and how many lie on the dz grid."""
    if not 0 < dz <= z_max:
        raise InvalidParameterError(f"need 0 < dz <= z_max, got dz={dz}, z_max={z_max}")
    n_grid = int(np.floor(z_max / dz + 1e-9)) + 1
    z = dz * np.arange(n_grid)
    if z_max - z[-1] > 1e-9 * dz:
        z = np.append(z, z_max)
    return z, n_grid


def propagate(
    h: HermitianOperator,
    psi0: StateVector,
    z_max: float,
    dz: float,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Trajectory:
    """One-shot trajectory of i d(psi)/dz = H psi from psi0."""
    return SpectralPropagator(h, dim_cap=dim_cap).trajectory(psi0, z_max, dz)

"""Exact unitary z-evolution by eigendecomposition of the generator.

The generator is diagonalized once per invariant sector and every sampled
state is synthesized spectrally, so unitarity holds to machine precision and
revival positions are not integration artifacts. A pair-lattice operator
(``model.PairOperator``) supplies its swap blocks, built from the rates: the
symmetric sector, of dimension N(N+1)/2, and the antisymmetric sector, of
dimension N(N-1)/2, which is built only when a state reaches it. Any other
generator is one sign-1 sector whose every site is its own partner. Sectors
are dense real-symmetric / Hermitian solves, and a real sector is
synthesized in real arithmetic. Synthesis stays in the sector basis, and the
full-basis eigenvectors are never formed.
``generator_id`` hashes the first sector's block.

A trajectory holds populations, not amplitudes: what every observable reads.
Each chunk of samples is squared right after its product. With only the
sign-1 sector (every swap-symmetric state) the (block, chunk) part is
squared and its rows are gathered into the populations; with the
antisymmetric sector too, the chunk's amplitudes are summed in a chunk-sized
buffer first. So no (samples, dim) complex array is ever held. Amplitudes
come from ``SpectralPropagator.evolve``, through the same chunk loop.

Synthesis walks the samples in chunks of max(1, _CHUNK_ELEMENTS // block)
samples of the widest block, so its buffers hold O(_CHUNK_ELEMENTS) elements
whatever the length of the trajectory; only the (samples, dim) populations
are whole. On the grid
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
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

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
#: the product of a chunk each hold block x chunk of them (the summed rows of
#: a state in both sectors, dim x chunk).
_CHUNK_ELEMENTS = 1 << 17
#: The dimension cap also bounds a trajectory: samples x dim populations are at
#: most dim_cap times this many (2 GiB of them at the default cap).
_SAMPLES_PER_CAPPED_SITE = 1 << 16


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
    """Sampled evolution: probabilities[k] holds the site populations |c|^2 at
    z_samples[k], each row summing to 1 within 1e-12.

    A trajectory holds no amplitudes; ``SpectralPropagator.evolve`` gives
    them. The populations are copied unless they come as a C-ordered,
    read-only float64 array that owns its memory, which the trajectory then
    keeps as it is.
    """

    z_samples: np.ndarray
    probabilities: np.ndarray
    generator_id: str
    _evolve: Callable[[float], StateVector] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        z = np.asarray(self.z_samples, dtype=float)
        if np.iscomplexobj(self.probabilities):
            raise InvalidParameterError("probabilities must be real populations, not amplitudes")
        probs = np.asarray(self.probabilities, dtype=float)
        if z.ndim != 1 or probs.ndim != 2 or probs.shape[0] != z.size:
            raise InvalidParameterError("need one population row per z sample")
        if z.size == 0 or z[0] != 0.0 or np.any(np.diff(z) <= 0):
            raise InvalidParameterError(
                "z samples must strictly increase starting at 0"
            )
        z = z.copy()
        flags = probs.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous):
            probs = probs.copy()
        lowest = float(probs.min()) if probs.size else 0.0
        if not lowest >= 0.0:  # NaN fails too
            raise InvalidParameterError(f"populations must be non-negative, found {lowest}")
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if not worst <= _NORM_TOL:  # an infinite population fails here
            raise InvalidParameterError(
                f"trajectory population sum deviates from 1 by {worst:.3e}"
            )
        for array in (z, probs):
            array.setflags(write=False)
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "probabilities", probs)

    @property
    def dim(self) -> int:
        return self.probabilities.shape[1]

    @property
    def n_samples(self) -> int:
        return self.z_samples.size

    @property
    def states(self) -> "_AmplitudeRows":
        """states[k]: the amplitudes at z_samples[k], synthesized on demand by
        the plan's ``evolve``; no (samples, dim) array stands behind it.

        Only a trajectory from ``SpectralPropagator.trajectory`` has them. Kept
        for the benchmark's one-sample check; prefer ``evolve``.
        """
        if self._evolve is None:
            raise InvalidParameterError("a trajectory built from populations has no amplitudes")
        return _AmplitudeRows(self._evolve, self.z_samples)


class _AmplitudeRows:
    """Row k is the state at z_samples[k], one ``evolve`` per row read."""

    def __init__(self, evolve: Callable[[float], StateVector], z_samples: np.ndarray):
        self._evolve, self._z = evolve, z_samples

    def __getitem__(self, k: int) -> np.ndarray:
        return self._evolve(float(self._z[k])).amplitudes


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
        """Put this sector's (block, n) part of n samples into their (n, dim) rows.

        The sign-1 sector comes first and writes every site, of amplitudes or
        of their squares; the antisymmetric sector, which has no site that is
        its own partner, adds amplitudes.
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
        self._dim_cap = dim_cap

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
        self, psi0: StateVector, n_grid: int, dz: float, off_grid: np.ndarray, square: bool
    ) -> np.ndarray:
        """exp(-i H z) psi0 at z = 0, dz, ..., (n_grid - 1) dz and then at each
        z in off_grid, as the rows of a C-ordered (samples, dim) array: the
        populations |c|^2 if square, else the complex amplitudes."""
        psi = psi0.amplitudes
        n_samples = n_grid + off_grid.size
        sectors = self._sectors(psi)
        widest = sectors[0].energies.size  # the sign-1 block is never the narrower
        chunk = min(n_samples, max(1, _CHUNK_ELEMENTS // widest))
        steps = dz * np.arange(min(chunk, n_grid))
        coeffs = [_apply(s.vectors.conj().T, s.fold(psi)) for s in sectors]
        offsets = [np.exp(-1j * np.outer(s.energies, steps)) for s in sectors]
        phase_buf = np.empty(widest * chunk, dtype=complex)
        part_buf = np.empty_like(phase_buf)
        # one sign-1 sector is squared in its block rows; two sum their amplitudes first
        summed = square and len(sectors) > 1
        row_buf = np.empty(chunk * self.dim, dtype=complex) if summed else None
        out = None
        for k0 in range(0, n_samples, chunk):
            k1 = min(k0 + chunk, n_samples)
            on_grid = max(0, min(k1, n_grid) - k0)
            z = off_grid[k0 + on_grid - n_grid : k1 - n_grid]  # an appended z_max, or evolve's z
            rows = row_buf[: (k1 - k0) * self.dim].reshape(k1 - k0, -1) if summed else None
            for i, sector in enumerate(sectors):
                energies, block = sector.energies, sector.energies.size
                # flat buffers reshaped, so a short last chunk is contiguous too
                phases = phase_buf[: block * (k1 - k0)].reshape(block, k1 - k0)
                if on_grid:  # the first anchor is coeffs: one chunk is unchunked arithmetic
                    anchor = coeffs[i] if k0 == 0 else coeffs[i] * np.exp(-1j * energies * (dz * k0))
                    np.multiply(offsets[i][:, :on_grid], anchor[:, None], out=phases[:, :on_grid])
                if z.size:
                    direct = np.exp(-1j * np.outer(energies, z))
                    np.multiply(direct, coeffs[i][:, None], out=phases[:, on_grid:])
                part = _apply(sector.vectors, phases, out=part_buf[: phases.size].reshape(phases.shape))
                if k1 == n_samples and i == len(sectors) - 1:
                    offsets.clear()  # free the phase tables before the last chunk touches the output
                if out is None:  # late: a one-chunk run never holds its tables beside it
                    out = np.empty((n_samples, self.dim), dtype=float if square else complex)
                if square and not summed:  # |c|^2 on the block's rows, in the spent phases, then gathered
                    squares = np.abs(part, out=phase_buf.view(float)[: part.size].reshape(part.shape))
                    np.square(squares, out=squares)
                    sector.place(out[k0:k1], squares)
                else:
                    sector.place(out[k0:k1] if rows is None else rows, part)
            if summed:
                squares = np.abs(rows, out=out[k0:k1])
                np.square(squares, out=squares)
        return out

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0."""
        self._check_dim(psi0)
        return StateVector(self._synthesize(psi0, 0, 0.0, np.array([z], dtype=float), False)[0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """The populations of exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z, n_grid = _sample_grid(z_max, dz, self.dim, self._dim_cap)
        # handed over C-ordered and read-only, so Trajectory needs no copy
        probs = self._synthesize(psi0, n_grid, dz, z[n_grid:], True)
        probs.setflags(write=False)
        traj = Trajectory(z_samples=z, probabilities=probs, generator_id=self.generator_id)
        object.__setattr__(traj, "_evolve", partial(self.evolve, psi0))
        return traj

    def _check_dim(self, psi0: StateVector):
        if psi0.dim != self.dim:
            raise InvalidParameterError(
                f"state dimension {psi0.dim} does not match generator {self.dim}"
            )


def _sample_grid(z_max: float, dz: float, dim: int, dim_cap: int) -> tuple[np.ndarray, int]:
    """The samples 0, dz, 2 dz, ..., z_max, and how many lie on the dz grid;
    a grid whose populations the dimension cap does not allow fails first."""
    if not 0 < dz <= z_max:
        raise InvalidParameterError(f"need 0 < dz <= z_max, got dz={dz}, z_max={z_max}")
    samples = z_max / dz + 2  # at most; inf for a dz far below z_max
    if not samples * dim <= dim_cap * _SAMPLES_PER_CAPPED_SITE:
        raise DimensionCapError(
            dim, dim_cap,
            f"{samples:.4g} samples of dimension {dim} exceed the "
            f"{dim_cap} x {_SAMPLES_PER_CAPPED_SITE} populations that the cap of {dim_cap} allows",
        )
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

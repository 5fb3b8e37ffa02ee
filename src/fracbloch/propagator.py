"""Unitary z-evolution from the eigenpairs of one block of the generator.

A plan propagates each state in exactly one block, a record of its terms,
the (I, J, value) entries sorted by row (``model.SwapBlock``). A
swap-symmetric state takes the generator's ``swap_block()``: a pair-lattice
operator's (``model.PairOperator``) symmetric sector, of dimension
N(N+1)/2, where every pair excitation lies, or any other generator whole (a
chain, ``model.ChainOperator``, or a dense matrix), every site its own
partner. Any other state takes a pair operator's ``lattice_block()``, the
whole N^2 lattice without a swap, built when a state first needs it.

A plan checks the dimension cap, builds, checks and hashes the swap block's
terms (``generator_id``), and decomposes a block lazily, once a state's reach
times the block's largest absolute row sum (a bound on every energy) is
known to be finite, in one of two ways:

* The terms are scattered into the dense block, which is diagonalized
  (real-symmetric / Hermitian eigh) once per plan. Every sampled state is
  then synthesized spectrally, so unitarity holds to machine precision and
  revival positions are not integration artifacts.
* A block of at least ``_KRYLOV_BLOCK`` states in sparse rows (``_reduces``;
  every lattice's) is reduced to the Krylov space that the state's share
  explores up to the largest |z| asked for: Lanczos with full
  reorthogonalization, each product summed from the terms row by row, then
  the eigenpairs of the small tridiagonal matrix T_m.
  The tilt localizes the state, so m stays far below the block size. Lanczos
  stops at the first checked m whose a-posteriori defect bound (Hochbruck &
  Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)), evaluated on a grid (see
  ``_defect``), is at most 1e-13 for every |z| up to that reach, or where the
  space is invariant. Without a certificate after block/2 steps the whole
  block is diagonalized instead, as above, so every input gets a correct
  result; once a plan holds a whole block it uses it for every later state.

Either way a sector is eigenpairs with (block, m) vectors, m = block for the
whole block, and synthesis is one code path for both; a real sector is
synthesized in real arithmetic, in the sector basis.

A trajectory holds populations, not amplitudes: each chunk of samples is
squared right after its product and copied, transposed, into the
trajectory's (samples, block) rows. A swap-symmetric pair state so stores
each (n, m)/(m, n) population once (N(N+1)/2 columns for N^2 sites: 33.7 MB
instead of 65.4 MB for pair-scan's N = 31 fine grid), read through the
block's site -> column map. Amplitudes come from ``SpectralPropagator.evolve``,
through the same chunk loop.

Synthesis walks the samples in chunks of max(1, _CHUNK_ELEMENTS // block)
samples, so its buffers hold O(_CHUNK_ELEMENTS) elements whatever the length
of the trajectory. On the grid z_k = k dz the phases of a chunk starting at
sample k0 are one table of offsets exp(-i E j dz) times the chunk's anchor
coeffs exp(-i E z_k0), computed directly, so no error accumulates from chunk
to chunk. A z off the grid (an appended z_max, or ``evolve``'s z) takes its
phase from exp directly. The first chunk's anchor is the coefficients
themselves, so a trajectory that fits in one chunk is computed with exactly
the arithmetic of an unchunked synthesis, bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionCapError, InvalidParameterError, NumericError
from .model import HermitianOperator, SwapBlock, flatten_index
from .observables import return_probability, whole  # noqa: F401  (return_probability re-exported)

#: Largest generator dimension a plan accepts by default. It bounds what
#: grows with the dimension: a block's terms, the dense block of a
#: whole-block eigh (a small block's, or the fall-back of a Krylov space
#: without a certificate), and a trajectory's populations. Override per plan
#: (the CLI maps an environment variable onto it).
DEFAULT_DIM_CAP = 4096
_NORM_TOL = 1e-12
#: Complex elements per synthesis buffer: the phase offsets, the phases and
#: the product of a chunk each hold block x chunk of them.
_CHUNK_ELEMENTS = 1 << 17
#: Blocks of at least this many states take the Krylov path; below it a
#: whole-block eigh is the faster.
_KRYLOV_BLOCK = 384
#: ... with at most this many terms a row on average; a dense generator is
#: diagonalized whole. At 150 Lanczos steps the products overtake the eigh near
#: 200 terms a row at 400 states, past 500 at 2000 (CHANGES.md).
_KRYLOV_ROW_TERMS = 32
#: Bound on the amplitude error of a Krylov-built trajectory.
_KRYLOV_TOL = 1e-13
#: Lanczos steps before the first certificate check, and the growth of the
#: step count from one check to the next.
_FIRST_CHECK = 32
_CHECK_GROWTH = 1.25
_EPS = np.finfo(float).eps
#: Most grid intervals a certificate integral is evaluated on; a longer reach
#: is bounded without the grid.
_DEFECT_POINTS = 1 << 14
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
    """Sampled evolution: the site populations |c|^2 at each of z_samples,
    each sample's summing to 1 within 1e-12.

    Site s's population at z_samples[k] is rows[k, column[s]]. A
    swap-symmetric pair state keeps the N(N+1)/2 columns of the symmetric
    block, each (n, m)/(m, n) population once; every other trajectory has no
    column map (None), and each site is its own column. ``probabilities`` is
    the whole (samples, dim) array, built on first read.

    A trajectory holds no amplitudes; ``SpectralPropagator.evolve`` gives
    them. The rows and the map are copied unless they come as C-ordered,
    read-only arrays that own their memory, which the trajectory then keeps
    as they are.
    """

    z_samples: np.ndarray
    rows: np.ndarray
    generator_id: str
    column: np.ndarray | None = None
    _evolve: Callable[[float], StateVector] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        z = np.asarray(self.z_samples, dtype=float)
        if np.iscomplexobj(self.rows):
            raise InvalidParameterError("probabilities must be real populations, not amplitudes")
        rows = _kept(np.asarray(self.rows, dtype=float))
        if z.ndim != 1 or rows.ndim != 2 or rows.shape[0] != z.size:
            raise InvalidParameterError("need one population row per z sample")
        if z.size == 0 or z[0] != 0.0 or np.any(np.diff(z) <= 0):
            raise InvalidParameterError(
                "z samples must strictly increase starting at 0"
            )
        z = z.copy()
        column = self.column
        if column is not None:
            column = _kept(np.asarray(column))
            if not (column.ndim == 1 and column.dtype.kind in "iu" and column.size
                    and 0 <= column.min() and column.max() < rows.shape[1]):
                raise InvalidParameterError("column must map each site to a stored column")
        lowest = float(rows.min()) if rows.size else 0.0
        if not lowest >= 0.0:  # NaN fails too
            raise InvalidParameterError(f"populations must be non-negative, found {lowest}")
        # a stored column counts once for each site that reads it
        sums = rows.sum(axis=1) if column is None else rows @ np.bincount(column, minlength=rows.shape[1])
        worst = float(np.max(np.abs(sums - 1.0)))
        if not worst <= _NORM_TOL:  # an infinite population fails here
            raise InvalidParameterError(
                f"trajectory population sum deviates from 1 by {worst:.3e}"
            )
        z.setflags(write=False)
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "column", column)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """The (samples, dim) populations, read-only: the rows themselves
        without a column map, else built from them on first read."""
        probs = whole(self)
        probs.setflags(write=False)
        return probs

    @property
    def dim(self) -> int:
        return self.rows.shape[1] if self.column is None else self.column.size

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


def _kept(array: np.ndarray) -> np.ndarray:
    """array itself if it is C-ordered, read-only and owns its memory, else a
    read-only copy: either way no caller can write it."""
    flags = array.flags
    if flags.writeable or not (flags.owndata and flags.c_contiguous):
        array = array.copy()
        array.setflags(write=False)
    return array


class _AmplitudeRows:
    """Row k is the state at z_samples[k], one ``evolve`` per row read."""

    def __init__(self, evolve: Callable[[float], StateVector], z_samples: np.ndarray):
        self._evolve, self._z = evolve, z_samples

    def __getitem__(self, k: int) -> np.ndarray:
        return self._evolve(float(self._z[k])).amplitudes


class _Sector(NamedTuple):
    """Eigenpairs of one invariant block, or of the part of it that a state
    explores, and the block they belong to.

    vectors[I, k] is eigenvector k's amplitude on site rep[I] of the block,
    and on site partner[I] too where that is another site. The vectors are
    (block, m): m = block for the whole block, and m <= block for the Ritz
    vectors of a Krylov space, which are orthonormal but do not span the block.
    """

    energies: np.ndarray  # (m,)
    vectors: np.ndarray  # (block, m)
    block: _Block


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _reduces(swap: SwapBlock) -> bool:
    """Whether a block is reduced to a state's Krylov space rather than
    diagonalized whole: at least _KRYLOV_BLOCK states (see the README) and at
    most _KRYLOV_ROW_TERMS terms a row on average."""
    size = swap.rep.size
    return size >= _KRYLOV_BLOCK and swap.values.size <= _KRYLOV_ROW_TERMS * size


class _Block:
    """One block of a plan, its terms checked for non-finite values:
    diagonalized whole at most once, or reduced to the Krylov space of each
    state that reaches it, whose products read the terms directly.

    column[s] is the block index I whose rep or partner is site s, and None
    where that is s itself (a block without a swap). row_sum, the largest
    absolute row sum, bounds every energy (Gershgorin).
    """

    def __init__(self, swap: SwapBlock, dim: int):
        finite = np.isfinite(swap.values)
        if not finite.all():  # the first in row order; an entry that is not a term is +0.0
            k = np.argmin(finite)
            raise NumericError(f"non-finite generator entry at ({swap.i[k]}, {swap.j[k]})")
        self.swap = swap
        size = swap.rep.size
        column = np.empty(dim, dtype=np.intp)
        column[swap.partner] = column[swap.rep] = np.arange(size)
        self.column = None
        if not np.array_equal(column, np.arange(dim)):
            column.setflags(write=False)  # trajectories keep it
            self.column = column
        # row I's terms start here; every row has one, its diagonal
        self.row_starts = np.searchsorted(swap.i, np.arange(size))
        self.row_sum = float(np.add.reduceat(np.abs(swap.values), self.row_starts).max())

    def fold(self, psi: np.ndarray) -> np.ndarray:
        """The block's share of psi: psi[rep] + psi[partner], psi[rep] where they coincide."""
        rep, partner = self.swap.rep, self.swap.partner
        return np.where(rep == partner, psi[rep], psi[rep] + psi[partner])

    def place(self, states: np.ndarray, part: np.ndarray):
        """Put the block's (block, n) amplitudes of n samples into their
        (n, dim) rows, every site written: state I's on rep[I] and partner[I],
        scattered with no temporary."""
        rows = part.T
        states[:, self.swap.partner] = rows
        states[:, self.swap.rep] = rows

    def sector(self, energies: np.ndarray, vectors: np.ndarray) -> _Sector:
        """Eigenpairs in the block's orthonormal basis, placed on the sites."""
        vectors *= self.swap.weight[:, None]
        return _Sector(energies, vectors, self)

    @cached_property
    def whole(self) -> _Sector:
        return self.sector(*_eigh(self.swap.entries))

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """The block times x, from its terms."""
        return np.add.reduceat(self.swap.values * x[self.swap.j], self.row_starts)

    def reduced(self, b: np.ndarray, reach: float, tol: float) -> _Sector | None:
        """The Ritz pairs of b's Krylov space, with exp(-i H z) b within tol
        for |z| <= reach; None without a certificate by block/2 steps.

        Lanczos with full reorthogonalization. After m steps the error of the
        Krylov synthesis is at most beta0 beta_m int_0^reach |e_m^T exp(-i s T_m) e_1| ds
        (Hochbruck & Lubich 1997), evaluated from the Ritz pairs of T_m (``_defect``).
        """
        if np.isrealobj(self.swap.values) and not np.any(b.imag):  # a real block and share stay real
            b = b.real
        size = b.size
        beta0 = float(np.linalg.norm(b))
        if beta0 == 0.0:  # no weight here: an empty sector is exact
            return self.sector(np.empty(0), np.zeros((size, 0), dtype=b.dtype))
        limit = size // 2
        basis = np.empty((min(limit, _FIRST_CHECK) + 1, size), dtype=b.dtype)  # grown as needed
        alpha, beta = np.empty(limit), np.empty(limit)
        basis[0] = b / beta0
        check = _FIRST_CHECK
        for j in range(limit):
            if j + 1 == len(basis):
                basis = np.concatenate([basis, np.empty((min(j, limit - j), size), basis.dtype)])
            w = self._matvec(basis[j])
            alpha[j] = np.vdot(basis[j], w).real
            w -= alpha[j] * basis[j]
            if j:
                w -= beta[j - 1] * basis[j - 1]
            known = basis[: j + 1]
            norm = np.linalg.norm(w)
            for _ in range(2):  # a second pass only if the first cancelled much (twice is enough)
                w -= (known @ w.conj()).conj() @ known
                norm, before = np.linalg.norm(w), norm
                if norm > 0.5 * before:
                    break
            beta[j] = norm = float(norm)
            m = j + 1
            scale = np.abs(alpha[:m]).max() + 2.0 * beta[:m].max()
            # an invariant space is exact; beta_m reach bounds the defect outright
            # (Python floats, so a far reach overflows to inf without a warning)
            done = norm <= _EPS * scale or beta0 * norm * reach <= tol
            if done or m >= check or m == limit:
                check = max(m + 1, int(m * _CHECK_GROWTH))
                t = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
                energies, s = _eigh(t)
                if done or _defect(energies, s, beta0 * norm, reach) <= tol:
                    return self.sector(energies, known.T @ s)
            basis[m] = w / beta[j]
        return None


def _generator_id(swap: SwapBlock) -> str:
    """The first 12 hex digits of the SHA-256 of "size,1", then the terms:
    i and j as little-endian int64 (whatever the platform's intp), then the
    values as little-endian float64, or complex128 for a complex block. The
    1 is the sign of the swap-symmetric sector, kept so no id changes."""
    digest = hashlib.sha256(f"{swap.rep.size},1".encode())
    value = "<c16" if np.iscomplexobj(swap.values) else "<f8"
    for terms, dtype in ((swap.i, "<i8"), (swap.j, "<i8"), (swap.values, value)):
        digest.update(np.ascontiguousarray(terms, dtype=dtype))
    return digest.hexdigest()[:12]


def _defect(energies: np.ndarray, s: np.ndarray, scale: float, reach: float) -> float:
    """scale * int_0^reach |f(z)| dz with f(z) = sum_k s[-1, k] s[0, k] exp(-i E_k z).

    Bounded first by scale * reach * sum_k |s[-1, k] s[0, k]|, then, if at
    most _DEFECT_POINTS intervals reach that far, on a grid of eight points
    per period of the widest Ritz frequency difference dE, each interval
    taken at its larger end and the sum divided by 1 - pi/16. f's frequencies
    lie within dE/2 of their centre, so by Bernstein's inequality |f| rises
    above the larger end of an interval by at most pi/16 of its supremum.
    The division covers that rise where |f| is near its supremum; elsewhere
    the grid sum is an estimate with that margin, not a strict bound. The
    grid's phases are a table of r steps times r anchors, so f on r^2 points
    costs one (r, m) x (m, r) product.
    """
    c = s[-1] * s[0]
    bound = scale * reach * float(np.abs(c).sum())
    span = reach * float(energies[-1] - energies[0]) * 4.0 / math.pi
    if not span <= _DEFECT_POINTS:  # a span that overflowed to inf too
        return bound
    intervals = max(1, math.ceil(span))
    step = reach / intervals
    r = math.isqrt(intervals) + 1  # r^2 > intervals
    centred = energies - 0.5 * (energies[0] + energies[-1])
    table = np.exp(-1j * np.outer(centred, step * np.arange(r)))
    anchors = np.exp(-1j * np.outer(step * r * np.arange(r), centred)) * c
    f = np.abs(anchors @ table).ravel()[: intervals + 1]
    grid = scale * step * float(np.maximum(f[1:], f[:-1]).sum()) / (1.0 - math.pi / 16.0)
    return min(bound, grid)


def _scale_rows(table: np.ndarray, scale: np.ndarray, out: np.ndarray):
    """out = table * scale[:, None], a row at a time: numpy buffers the
    broadcast product of a (m, n) slice (66-113 KB a call), not a row's."""
    for row, factor, into in zip(table, scale, out):
        np.multiply(row, factor, out=into)


def _apply(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for complex b, into out if given; a real a acts on b's real and
    imaginary parts in one real product instead of being cast to complex."""
    if np.iscomplexobj(a):
        return np.matmul(a, b, out=out)
    b = np.ascontiguousarray(b, dtype=complex)
    pairs = b.view(np.float64).reshape(b.shape[0], 2 * math.prod(b.shape[1:]))  # b may have no rows
    if out is not None:
        out = out.view(np.float64).reshape(out.shape[0], -1)
    return np.matmul(a, pairs, out=out).view(complex).reshape(a.shape[0], *b.shape[1:])


class SpectralPropagator:
    """Immutable propagation plan: the blocks of a generator, decomposed
    lazily, and many syntheses.

    The dimension cap is checked here, before any block exists; then the
    swap block's terms are built, checked for non-finite values and hashed.
    Nothing is diagonalized here, and nothing dense is built but for an eigh.
    ``trajectory`` and ``evolve`` propagate each state in one block (see the
    module): the eigenpairs of the whole block, computed once per plan, or
    the Ritz pairs of the state's Krylov space, within 1e-13 by the defect
    bound, built per call. A reach that would overflow the phases is refused
    first (``InvalidParameterError`` naming ``z_max`` or ``z``).
    Safe to share across threads; independent trajectories need no
    coordination (two threads reaching a whole block first at the same time
    may both diagonalize it, with the same result).
    """

    def __init__(self, h: HermitianOperator, dim_cap: int = DEFAULT_DIM_CAP):
        if h.dim > dim_cap:
            raise DimensionCapError(h.dim, dim_cap)
        self._h = h
        self._first = _Block(h.swap_block(), h.dim)
        self.generator_id = _generator_id(self._first.swap)
        self.dim = h.dim
        self._dim_cap = dim_cap

    @cached_property
    def _lattice(self) -> _Block:
        return _Block(self._h.lattice_block(), self.dim)

    def _block(self, psi: np.ndarray) -> _Block:
        """The block psi is propagated in: the swap block if psi is
        swap-symmetric, else a pair operator's whole lattice."""
        first = self._first
        if np.array_equal(psi[first.swap.rep], psi[first.swap.partner]):
            return first
        return self._lattice

    def _sector(self, psi: np.ndarray, reach: float | None = None) -> _Sector:
        """psi's block's whole eigenpairs, or, given the largest |z| to reach,
        the Krylov space that psi's share explores where ``_reduces`` picks it,
        it is certified and the plan holds no whole block yet."""
        block = self._block(psi)
        # a whole block once diagonalized serves every later state
        if reach is not None and _reduces(block.swap) and "whole" not in block.__dict__:
            sector = block.reduced(block.swap.weight * block.fold(psi), reach, _KRYLOV_TOL)
            if sector is not None:
                return sector
        return block.whole

    def _check_reach(self, psi0: StateVector, z: float, name: str):
        """Fail, naming the argument, where |E z| may overflow for an energy E
        of psi0's block: before any eigh or Lanczos step."""
        bound = self._block(psi0.amplitudes).row_sum
        if not math.isfinite(bound * abs(z)):
            raise InvalidParameterError(
                f"{name} = {z!r} overflows the phases exp(-i E z) of energies up to {bound:.6g}", name
            )

    def _synthesize(
        self, psi0: StateVector, n_grid: int, dz: float, off_grid: np.ndarray, square: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """exp(-i H z) psi0 at z = 0, dz, ..., (n_grid - 1) dz and then at each
        z in off_grid, as the rows of a C-ordered (samples, width) array and
        its column map (``Trajectory``): the populations |c|^2 on the block's
        columns if square, else the complex amplitudes, whose rows are whole
        (no map)."""
        psi = psi0.amplitudes
        n_samples = n_grid + off_grid.size
        reach = max(dz * (n_grid - 1) if n_grid else 0.0, float(np.abs(off_grid).max(initial=0.0)))
        energies, vectors, block = self._sector(psi, reach)
        size, m = vectors.shape
        chunk = min(n_samples, max(1, _CHUNK_ELEMENTS // size))
        coeffs = _apply(vectors.conj().T, block.fold(psi))
        offsets = np.exp(-1j * np.outer(energies, dz * np.arange(min(chunk, n_grid))))
        phase_buf = np.empty(size * chunk, dtype=complex)
        part_buf = np.empty_like(phase_buf)
        out = None
        for k0 in range(0, n_samples, chunk):
            k1 = min(k0 + chunk, n_samples)
            on_grid = max(0, min(k1, n_grid) - k0)
            z = off_grid[k0 + on_grid - n_grid : k1 - n_grid]  # an appended z_max, or evolve's z
            # flat buffers reshaped, so a short last chunk is contiguous too
            phases = phase_buf[: m * (k1 - k0)].reshape(m, k1 - k0)
            if on_grid:  # the first anchor is coeffs: one chunk is unchunked arithmetic
                anchor = coeffs if k0 == 0 else coeffs * np.exp(-1j * energies * (dz * k0))
                _scale_rows(offsets[:, :on_grid], anchor, phases[:, :on_grid])
            if z.size:
                direct = np.exp(-1j * np.outer(energies, z))
                np.multiply(direct, coeffs[:, None], out=phases[:, on_grid:])
            part = _apply(vectors, phases, out=part_buf[: size * (k1 - k0)].reshape(size, -1))
            if k1 == n_samples:
                offsets = None  # free the phase table before the last chunk touches the output
            if out is None:  # late: a one-chunk run never holds its table beside it
                width, dtype = (size, float) if square else (self.dim, complex)
                out = np.empty((n_samples, width), dtype=dtype)
            if square:  # |c|^2 on the block's rows, in the spent phases, then copied transposed
                squares = np.abs(part, out=phase_buf.view(float)[: part.size].reshape(part.shape))
                np.square(squares, out=squares)
                out[k0:k1] = squares.T
            else:
                block.place(out[k0:k1], part)
        return out, block.column if square else None

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0, for a finite z."""
        self._check_dim(psi0)
        if not math.isfinite(z):
            raise InvalidParameterError(f"z must be finite, got {z}", "z")
        self._check_reach(psi0, z, "z")
        amplitudes, _ = self._synthesize(psi0, 0, 0.0, np.array([z], dtype=float), False)
        return StateVector(amplitudes[0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """The populations of exp(-i H z) psi0 on the grid 0, dz, 2 dz, ..., z_max."""
        self._check_dim(psi0)
        z, n_grid = _sample_grid(z_max, dz, self.dim, self._dim_cap)
        self._check_reach(psi0, z_max, "z_max")
        # handed over C-ordered and read-only, so Trajectory needs no copy
        rows, column = self._synthesize(psi0, n_grid, dz, z[n_grid:], True)
        rows.setflags(write=False)
        traj = Trajectory(z, rows, self.generator_id, column)
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
    if not 0 < dz <= z_max < math.inf:
        raise InvalidParameterError(f"need 0 < dz <= z_max < inf, got dz={dz}, z_max={z_max}")
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

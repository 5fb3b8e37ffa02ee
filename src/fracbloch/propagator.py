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
  every lattice's) carries the state's share in short Krylov steps (Park &
  Light, J. Chem. Phys. 85, 5870 (1986)): the plain three-term Lanczos
  recurrence from the current state, each product summed from the terms row
  by row. After m iterations the computed recurrence's truncation at
  |z - start| <= h is at most the strict bound beta0 beta1 ... beta_m h^m / m!
  (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, SIAM J.
  Numer. Anal. 34, 1911 (1997)). With Expokit's step control (Sidje, ACM TOMS
  24, 130 (1998)) each step takes the m <= _STEP_M whose longest h certifying
  1e-13 h / reach costs the least per unit of reach, so the truncations sum to
  at most 1e-13; only its small tridiagonal T_m is diagonalized. Rounding adds
  a term outside the 1e-13, of order eps (row sum x |z| + the steps' m): the
  phases' and the products' (Paige, IMA J. Appl. Math. 18, 341 (1976); no
  reorthogonalization is needed, Druskin, Greenbaum & Knizhnerman, SIAM J.
  Sci. Comput. 19, 38 (1998)). After each step the rest of the reach, at that
  step's cost, is weighed against the whole block's eigh; where that is the
  cheaper (no tilt over a long z, a huge z in ``evolve``), the whole block
  serves the samples past the last step. No Lanczos run fails, and a plan
  that holds a whole block uses it for every later state.

Either way a step is eigenpairs with (block, m) vectors, m = block for the
whole block, and the state's coefficients on them at the step's start;
synthesis is one code path for both, in real arithmetic for a real block and
share (every Krylov step after the first holds a complex state).

A run's trajectory keeps its steps and synthesizes populations only as they
are read (``Trajectory``). Each step is kept with the samples it serves, its
vectors cut to the rows between the first and the last that are not zero (a
localized state's Krylov space is zero away from it: 2.7 MB instead of
26.5 MB for the 4000-site chain to z = 8.5). Its population sums are checked
on the steps before the trajectory is returned. A read of some columns
multiplies only the matching rows of each step's vectors; a read of the rows
multiplies them all, squares each chunk of samples right after its product
and copies it, transposed, into the (samples, block) rows, dropping each step
once its samples are written. A swap-symmetric pair state so stores each
(n, m)/(m, n) population once (N(N+1)/2 columns for N^2 sites: 33.7 MB
instead of 65.4 MB for pair-scan's N = 31 fine grid, against 2.7 MB of kept
steps), read through the block's site -> column map. Amplitudes come from
``SpectralPropagator.evolve``, through the same chunk loop.

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
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionCapError, InvalidParameterError, NumericError
from .model import HermitianOperator, SwapBlock, flatten_index, site_columns
from .observables import return_probability  # noqa: F401  (re-exported)

#: Largest generator dimension a plan accepts by default. It bounds what
#: grows with the dimension: a block's terms, the dense block of a
#: whole-block eigh (a small block's, or one the cost rule finds cheaper than
#: Krylov steps), and a trajectory's populations. Override per plan (the CLI
#: maps an environment variable onto it).
DEFAULT_DIM_CAP = 4096
_NORM_TOL = 1e-12
#: Complex elements per synthesis buffer: the phase offsets, the phases and
#: the product of a chunk each hold block x chunk of them.
_CHUNK_ELEMENTS = 1 << 17
#: Blocks of at least this many states may take Krylov steps; below it a
#: whole-block eigh is the faster.
_KRYLOV_BLOCK = 384
#: ... with at most this many terms in the widest row, which sets the width of
#: the products' padded table; a dense generator is diagonalized whole. At 150
#: Lanczos steps the products overtake the eigh near 200 terms a row at 400
#: states, past 500 at 2000 (CHANGES.md).
_KRYLOV_ROW_TERMS = 32
#: Bound on the amplitude error of Krylov steps over the whole reach.
_KRYLOV_TOL = 1e-13
#: Most Lanczos iterations in one Krylov step: its basis holds at most
#: _STEP_M + 1 vectors of the block.
_STEP_M = 48
#: Costs are estimated in complex multiply-adds at the synthesis's speed. A
#: Lanczos iteration's passes over the terms and the vectors run at memory
#: speed: about this many of them a term and a block state (15-30 and 50-70 us
#: an iteration on the N = 31 and N = 56 pair blocks, 5-11 ns a term and state,
#: against 0.06 ns a multiply-add of the synthesis and 0.1-0.2 ns x block^3 an eigh).
_PASS_COST = 128
_EPS = np.finfo(float).eps
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


class Trajectory:
    """Site populations |c|^2 sampled along z: the one record that every
    observable, writer and renderer reads, from a run or from a trajectory
    CSV read back. The z samples strictly increase from 0, and each sample's
    populations are non-negative and sum to 1 within 1e-12.

    Site s's population at z_samples[k] is rows[k, column[s]]. A
    swap-symmetric pair state keeps the N(N+1)/2 columns of the symmetric
    block, each (n, m)/(m, n) population once; every other trajectory keeps
    every site, and its map, by default, is the identity. ``probabilities``
    is the whole (samples, dim) array, built from the rows on first read.
    generator_id names the generator of a run; populations read back from a
    file have none.

    A trajectory built from rows (a file read back, a test) holds them as
    given: the z samples, rows and map are copied unless they come as
    C-ordered, read-only arrays that own their memory. A run's trajectory
    (``SpectralPropagator.trajectory``) holds no rows at first but the record
    it synthesizes from: each step's sector (energies and vectors), its
    coefficients and the samples it serves. ``observables.site_populations``
    synthesizes only the distinct columns it reads, from the matching rows
    of each step's vectors, and keeps nothing. The first read of ``rows``
    (the writer, ``observables.per_sample``, the 1d width and heatmap,
    ``probabilities``) builds every column once, caches them read-only and
    drops each step once its samples are written; later reads, of rows or
    columns, read the cached rows. A column read before the rows exist
    agrees with them to rounding, not bit for bit: a one-column product goes
    through gemv, and the whole block's product rounds apart from every
    narrower one. Two threads reading the rows at once build them once; the
    second waits for the first, which has dropped the steps.

    A run's population sums are checked on its steps (``_check_steps``),
    exactly: a sample's sum is Re(c^H G c), for its phased coefficients c and
    the Gram matrix G of its step's vectors. A trajectory holds no
    amplitudes; ``SpectralPropagator.evolve`` gives them.
    """

    def __init__(self, z_samples, rows, generator_id: str | None = None, column=None):
        z = _kept(np.asarray(z_samples, dtype=float))
        if np.iscomplexobj(rows):
            raise InvalidParameterError("probabilities must be real populations, not amplitudes")
        rows = _kept(np.asarray(rows, dtype=float))
        if z.ndim != 1 or rows.ndim != 2 or rows.shape[0] != z.size:
            raise InvalidParameterError("need one population row per z sample")
        rises = np.r_[z[:1] == 0.0, np.diff(z) > 0]  # from 0, each z above the one before
        if not (z.size and rises.all()):
            raise InvalidParameterError(
                "z samples must strictly increase starting at 0",
                sample=int(np.argmin(rises)) if z.size else None,
            )
        if column is None:  # every site its own column
            sites = np.arange(rows.shape[1])
            column = site_columns(sites, sites, sites.size)
        column = _kept(np.asarray(column))
        if not (column.ndim == 1 and column.dtype.kind in "iu" and column.size
                and 0 <= column.min() and column.max() < rows.shape[1]):
            raise InvalidParameterError("column must map each site to a stored column")
        lowest = float(rows.min()) if rows.size else 0.0
        if not lowest >= 0.0:  # NaN fails too
            raise InvalidParameterError(f"populations must be non-negative, found {lowest}")
        # a stored column counts once for each site that reads it
        _check_sums(rows @ np.bincount(column, minlength=rows.shape[1]))
        self._set(z, generator_id, column, rows=rows)

    @classmethod
    def _of_steps(cls, z: np.ndarray, n_grid: int, dz: float, steps: list[_Span],
                  generator_id: str, column: np.ndarray, evolve: Callable[[float], StateVector]):
        """A run's trajectory at the samples z (n_grid of them on the dz grid),
        synthesized from its kept steps, checked on them (``_check_steps``)."""
        z.setflags(write=False)
        _check_steps(steps, n_grid, dz, z[n_grid:])
        traj = cls.__new__(cls)
        traj._set(z, generator_id, column, steps=tuple(steps), grid=(n_grid, dz), evolve=evolve)
        return traj

    def _set(self, z, generator_id, column, rows=None, steps=None, grid=None, evolve=None):
        for name, value in (("z_samples", z), ("generator_id", generator_id), ("column", column),
                            ("_rows", rows), ("_steps", steps), ("_grid", grid), ("_evolve", evolve),
                            ("_building", threading.Lock())):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Trajectory is read-only; cannot set {name}")

    @property
    def rows(self) -> np.ndarray:
        """The (samples, stored columns) populations, read-only; a run's are
        synthesized on first read (see the class)."""
        rows = self._rows
        if rows is None:
            with self._building:
                rows = self._rows
                if rows is None:
                    steps = list(self._steps)
                    object.__setattr__(self, "_steps", None)  # each step freed once written
                    rows = _synthesize(steps, *self._grid, self.z_samples[self._grid[0]:])
                    rows.setflags(write=False)
                    object.__setattr__(self, "_rows", rows)
        return rows

    def _columns(self, stored) -> np.ndarray:
        """rows[:, stored] (``observables.site_populations``): while the rows
        are not built, only the distinct stored columns are synthesized."""
        steps = self._steps
        if steps is None:
            return self.rows[:, stored]
        distinct, inverse = np.unique(stored, return_inverse=True)
        populations = _synthesize(list(steps), *self._grid, self.z_samples[self._grid[0]:], distinct)
        return populations if np.array_equal(distinct, stored) else populations[:, inverse]

    @cached_property
    def probabilities(self) -> np.ndarray:
        """The (samples, dim) populations, read-only, built from the rows
        through the column map on first read."""
        probs = np.take(self.rows, self.column, axis=1)
        probs.setflags(write=False)
        return probs

    @property
    def dim(self) -> int:
        return self.column.size

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


def _check_sums(sums: np.ndarray):
    """Fail closed, naming the sample, unless every sample's population sum
    is within _NORM_TOL of 1."""
    deviation = np.abs(sums - 1.0)
    worst = int(np.argmax(deviation))
    if not deviation[worst] <= _NORM_TOL:  # NaN, or an infinite population, fails here
        raise InvalidParameterError(
            f"trajectory population sum deviates from 1 by {deviation[worst]:.3e}",
            sample=worst,
        )


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
    """Eigenpairs of one invariant block, or of a Krylov space in it, and the
    block they belong to.

    vectors[I, k] is eigenvector k's amplitude on site rep[I] of the block,
    and on site partner[I] too where that is another site. The vectors are
    (block, m): m = block for the whole block, and m <= _STEP_M for the Ritz
    vectors of a Krylov space, which are orthonormal but do not span the block.
    """

    energies: np.ndarray  # (m,)
    vectors: np.ndarray  # (block, m)
    block: _Block


class _Step(NamedTuple):
    """A state carried by one sector: its coefficients on the sector's
    eigenvectors at z = start (signed), for the samples whose |z| is at most
    end (and past the previous step's end). bound bounds the truncation error
    that the step adds at any of them: beta0 beta1 ... beta_m h^m / m! for a
    Krylov step of length h, 0 for the whole block's one step."""

    sector: _Sector
    coeffs: np.ndarray  # (m,)
    start: float
    end: float
    bound: float


class _Span(NamedTuple):
    """A step that a synthesis reads: its sector and its coefficients at
    z = start, for samples first, first + 1, ..., stop - 1 of a trajectory
    (or of ``evolve``'s one z). The sector's vectors hold rows low, low + 1,
    ... of the step's (block, m) vectors, every other row of which is zero:
    a localized state's Krylov space is zero away from it."""

    sector: _Sector
    coeffs: np.ndarray  # (m,)
    start: float
    first: int
    stop: int
    low: int = 0


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _reduces(swap: SwapBlock) -> bool:
    """Whether a block may be reduced to a state's Krylov spaces rather than
    diagonalized whole: at least _KRYLOV_BLOCK states (see the README) and at
    most _KRYLOV_ROW_TERMS terms in its widest row."""
    return bool(swap.rep.size >= _KRYLOV_BLOCK and np.bincount(swap.i).max() <= _KRYLOV_ROW_TERMS)


def _step_length(m: int, log_product: float, rate: float, left: float) -> float:
    """The longest h <= left at which the strict bound
    beta0 beta1 ... beta_m h^m / m! is at most rate h, given
    log_product = log(beta0 beta1 ... beta_m); 0 if none is."""
    if m == 1:  # the bound and rate h both grow linearly in h
        return left if log_product <= math.log(rate) else 0.0
    log_h = (math.log(rate) - log_product + math.lgamma(m + 1)) / (m - 1)
    return left if log_h >= math.log(left) else math.exp(log_h)


class _Block:
    """One block of a plan, its terms checked for non-finite values:
    diagonalized whole at most once, or carrying each state that reaches it
    in short Krylov steps, whose products read the terms directly.

    column[s] is the block index I whose rep or partner is site s
    (``model.site_columns``), which a trajectory keeps. row_sum, the largest
    absolute row sum, bounds every energy (Gershgorin).
    """

    def __init__(self, swap: SwapBlock, dim: int):
        finite = np.isfinite(swap.values)
        if not finite.all():  # the first in row order; an entry that is not a term is +0.0
            k = np.argmin(finite)
            raise NumericError(f"non-finite generator entry at ({swap.i[k]}, {swap.j[k]})")
        self.swap = swap
        self.column = site_columns(swap.rep, swap.partner, dim)
        self.row_sum = float(np.bincount(swap.i, np.abs(swap.values)).max())

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

    @cached_property
    def counts(self) -> np.ndarray:
        """The sites that read each state, 1 / weight^2: 1 or 2, exactly."""
        return np.where(self.swap.rep == self.swap.partner, 1.0, 2.0)

    @cached_property
    def whole_gap(self) -> float:
        """``_gram_gap`` of the whole block's eigenvectors, once per plan."""
        return _gram_gap(self.whole.vectors, self.counts)

    def steps(self, psi: np.ndarray, far: float, samples: int) -> Iterator[_Step]:
        """psi's share carried out to z = far (signed), for the given number of
        samples: short Krylov steps (``reduced``) where ``_reduces`` allows
        them and the plan holds no whole block yet, then, for the samples
        past the last step if it stopped short, one step of the whole
        block's eigenpairs from z = 0."""
        share = self.fold(psi)
        if _reduces(self.swap) and "whole" not in self.__dict__:
            for step in self.reduced(self.swap.weight * share, far, samples, _KRYLOV_TOL):
                yield step
            if step.end == math.inf:
                return
        sector = self.whole  # a whole block once diagonalized serves every later state
        yield _Step(sector, _apply(sector.vectors.conj().T, share), 0.0, math.inf, 0.0)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms as (widest row, block) tables of columns and values:
        row I's k-th term at [k, I], padded with I and 0.0."""
        i, size = self.swap.i, self.swap.rep.size
        slot = np.arange(i.size) - np.searchsorted(i, i)  # a term's place in its row
        columns = np.tile(np.arange(size), (int(slot.max()) + 1, 1))
        values = np.zeros(columns.shape, dtype=self.swap.values.dtype)
        columns[slot, i] = self.swap.j
        values[slot, i] = self.swap.values
        return columns, values

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """The block times x, from its terms: the padded table's products
        summed over its short axis."""
        columns, values = self._table
        return (values * x[columns]).sum(axis=0)

    def reduced(self, b: np.ndarray, far: float, samples: int, tol: float) -> Iterator[_Step]:
        """exp(-i H z) b for z from 0 towards far (signed), in short steps
        whose truncations sum to at most tol, for the given number of samples.

        A step's plain three-term Lanczos recurrence keeps log(beta0 beta1
        ... beta_m): the bound on its truncation (rounding adds its own term;
        see the module). It stops at the first m past the one whose longest
        certified h (``_step_length``, tol h / |far|) costs the least per unit
        of reach, where h covers the rest of the reach, or where the space is
        invariant (and exact); only then is T_m diagonalized. Its Ritz pairs
        are the step's sector, and one (block, m) product of the basis gives
        the next step's state. After each step the rest of the reach at the
        step's cost is weighed against a whole-block eigh and synthesis
        (block^3 + block^2 x samples); where that is the cheaper, the steps
        end short of far.
        """
        size, passes = b.size, _PASS_COST * (self.swap.values.size + b.size)
        reach, direction = abs(far), math.copysign(1.0, far)
        allowed = tol / reach if reach else math.inf  # bound per unit of reach
        density = samples / reach if reach else 0.0
        if np.isrealobj(self.swap.values) and not np.any(b.imag):  # a real block and share stay real
            b = b.real
        start = 0.0
        while True:
            left = reach - start
            beta0 = float(np.linalg.norm(b))
            basis = np.empty((_STEP_M + 1, size), dtype=b.dtype)
            alpha, beta = np.empty(_STEP_M), np.empty(_STEP_M)
            basis[0] = b / beta0
            log_product = math.log(beta0)
            best = (math.inf, 0, 0.0, 0.0)  # cost per unit of reach, m, h, log_product
            top_alpha = top_beta = 0.0  # the largest |alpha| and beta so far: T_m's scale
            for j in range(_STEP_M):
                w = self._matvec(basis[j])
                alpha[j] = a = np.vdot(basis[j], w).real
                w -= a * basis[j]
                if j:
                    w -= beta[j - 1] * basis[j - 1]
                beta[j] = norm = math.sqrt(np.vdot(w, w).real)
                m = j + 1
                top_alpha, top_beta = max(top_alpha, abs(a)), max(top_beta, norm)
                log_product += math.log(norm) if norm else -math.inf
                if norm <= _EPS * (top_alpha + 2.0 * top_beta):
                    best = (0.0, m, left, log_product)  # an invariant space is exact
                    break
                h = _step_length(m, log_product, allowed, left)
                # per unit of reach: the products and vector passes, and the samples' synthesis
                cost = m * (passes + size * density * h) / h if h else math.inf
                if cost > best[0]:  # past the cheapest m
                    break
                best = (cost, m, h, log_product)
                if h >= left:
                    break
                np.multiply(w, 1.0 / norm, out=basis[m])
            cost, m, h, log_product = best
            energies, s = _eigh(np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1))
            coeffs = beta0 * s[0]
            last = h >= left
            ritz = basis[:m].T @ s if np.isrealobj(basis) else _apply(s.T, basis[:m]).T
            bound = math.exp(min(log_product + m * math.log(h) - math.lgamma(m + 1), 700.0)) if h else 0.0
            end = math.inf if last else start + h
            yield _Step(self.sector(energies, ritz), coeffs, direction * start, end, bound)
            start += h
            # the rest of the reach at this step's cost per unit, against the whole block
            if last or cost * (reach - start) > size * size * (size + density * (reach - start)):
                return
            b = _apply(basis[:m].T, s @ (np.exp(-1j * direction * h * energies) * coeffs))


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
    the Ritz pairs of short Krylov steps, built per call, whose truncations
    sum to at most 1e-13 by their strict bounds, rounding apart. A reach that
    would overflow the phases is refused first (``InvalidParameterError``
    naming ``z_max`` or ``z``).
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

    def _check_reach(self, psi0: StateVector, z: float, name: str):
        """Fail, naming the argument, where |E z| may overflow for an energy E
        of psi0's block: before any eigh or Lanczos step."""
        bound = self._block(psi0.amplitudes).row_sum
        if not math.isfinite(bound * abs(z)):
            raise InvalidParameterError(
                f"{name} = {z!r} overflows the phases exp(-i E z) of energies up to {bound:.6g}", name
            )

    def _steps(self, psi0: StateVector, n_grid: int, dz: float, off_grid: np.ndarray) -> list[_Span]:
        """psi0's steps (``_Block.steps``) for the samples 0, dz, ...,
        (n_grid - 1) dz and then each z in off_grid, with the samples each
        serves; a step that serves none is dropped."""
        n_samples = n_grid + off_grid.size
        far = float(off_grid[-1]) if off_grid.size else dz * (n_grid - 1)  # |z| grows sample by sample
        kept, ka = [], 0
        for sector, coeffs, start, end, _ in self._block(psi0.amplitudes).steps(psi0.amplitudes, far, n_samples):
            kb = n_samples  # past the step's last sample: on the grid up to end, then off it
            if end < math.inf:
                kb = min(n_grid, math.floor(end / dz) + 1) if n_grid else 0
                if kb == n_grid:
                    kb += int(np.count_nonzero(np.abs(off_grid) <= end))
            if kb > ka:
                nonzero = np.flatnonzero(np.any(sector.vectors, axis=1))
                low, high = int(nonzero[0]), int(nonzero[-1]) + 1
                if high - low < sector.vectors.shape[0]:  # a copy, so the zero rows are freed
                    sector = sector._replace(vectors=sector.vectors[low:high].copy())
                kept.append(_Span(sector, coeffs, start, ka, kb, low))
            ka = kb
        return kept

    def evolve(self, psi0: StateVector, z: float) -> StateVector:
        """exp(-i H z) applied to psi0, for a finite z."""
        self._check_dim(psi0)
        if not math.isfinite(z):
            raise InvalidParameterError(f"z must be finite, got {z}", "z")
        self._check_reach(psi0, z, "z")
        off_grid = np.array([z], dtype=float)
        return StateVector(_synthesize(self._steps(psi0, 0, 0.0, off_grid), 0, 0.0, off_grid, square=False)[0])

    def trajectory(self, psi0: StateVector, z_max: float, dz: float) -> Trajectory:
        """The populations of exp(-i H z) psi0 on the grid 0, dz, 2 dz, ...,
        z_max, synthesized as they are read (``Trajectory``)."""
        self._check_dim(psi0)
        z, n_grid = _sample_grid(z_max, dz, self.dim, self._dim_cap)
        self._check_reach(psi0, z_max, "z_max")
        steps = self._steps(psi0, n_grid, dz, z[n_grid:])
        column = self._block(psi0.amplitudes).column
        return Trajectory._of_steps(z, n_grid, dz, steps, self.generator_id, column, partial(self.evolve, psi0))

    def _check_dim(self, psi0: StateVector):
        if psi0.dim != self.dim:
            raise InvalidParameterError(
                f"state dimension {psi0.dim} does not match generator {self.dim}"
            )


def _synthesize(
    steps: list[_Span], n_grid: int, dz: float, off_grid: np.ndarray,
    columns: np.ndarray | None = None, square: bool = True,
) -> np.ndarray:
    """The samples that the kept steps serve, first to last, of
    exp(-i H z) psi0 at z = 0, dz, ..., (n_grid - 1) dz and then at each z in
    off_grid, as the rows of a C-ordered array: the populations |c|^2 on the
    given block columns (every column by default) if square, else the
    complex amplitudes of every site. Each list entry is dropped once its
    samples are written, so a step that no caller holds is freed then."""
    base, last = steps[0].first, steps[-1].stop
    size = steps[0].sector.block.swap.rep.size
    chunk = min(n_grid + off_grid.size, max(1, _CHUNK_ELEMENTS // size))
    width = size if columns is None else columns.size
    height = max(width, max(step.sector.energies.size for step in steps))  # of the phase buffer
    phase_buf = part_buf = out = None
    for index in range(len(steps)):
        (energies, vectors, block), coeffs, start, ka, kb, low = steps[index]
        steps[index] = None
        if columns is not None or vectors.shape[0] != size:  # the rows read, zero outside the kept ones
            read = np.arange(size) if columns is None else columns
            held = (low <= read) & (read < low + vectors.shape[0])
            vectors, kept = np.zeros((read.size, energies.size), vectors.dtype), vectors
            vectors[held] = kept[read[held] - low]
        m = energies.size
        on_step = max(0, min(kb, n_grid) - ka)  # the step's samples on the grid
        offsets = np.exp(-1j * np.outer(energies, dz * np.arange(min(chunk, on_step))))
        if phase_buf is None:  # after the table, whose exp holds two of its size
            phase_buf = np.empty(height * chunk, dtype=complex)
            part_buf = np.empty(width * chunk, dtype=complex)
        for k0 in range(ka, kb, chunk):
            k1 = min(k0 + chunk, kb)
            on_grid = max(0, min(k1, n_grid) - k0)
            z = off_grid[k0 + on_grid - n_grid : k1 - n_grid]  # an appended z_max, or evolve's z
            # flat buffers reshaped, so a short last chunk is contiguous too
            phases = phase_buf[: m * (k1 - k0)].reshape(m, k1 - k0)
            if on_grid:  # the first anchor is coeffs: one chunk is unchunked arithmetic
                shift = dz * k0 - start
                anchor = coeffs if shift == 0.0 else coeffs * np.exp(-1j * energies * shift)
                _scale_rows(offsets[:, :on_grid], anchor, phases[:, :on_grid])
            if z.size:
                direct = np.exp(-1j * np.outer(energies, z - start))
                np.multiply(direct, coeffs[:, None], out=phases[:, on_grid:])
            part = _apply(vectors, phases, out=part_buf[: width * (k1 - k0)].reshape(width, -1))
            if k1 == last:
                offsets = None  # free the phase table before the last chunk touches the output
            if out is None:  # late: a one-chunk run never holds its table beside it
                shape = (last - base, width) if square else (last - base, block.column.size)
                out = np.empty(shape, dtype=float if square else complex)
            if square:  # |c|^2 on the block's rows, in the spent phases, then copied transposed
                squares = np.abs(part, out=phase_buf.view(float)[: part.size].reshape(part.shape))
                np.square(squares, out=squares)
                out[k0 - base : k1 - base] = squares.T
            else:
                block.place(out[k0 - base : k1 - base], part)
    return out


def _gram_gap(vectors: np.ndarray, counts: np.ndarray) -> float:
    """||G - I||_F for G = V^H diag(counts) V, the Gram matrix of the vectors
    V in their block's orthonormal basis (counts: the sites that read each
    state): a sample's populations sum to c^H G c."""
    gram = vectors.conj().T @ (vectors * counts[:, None])
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.linalg.norm(gram))


def _check_steps(steps: list[_Span], n_grid: int, dz: float, off_grid: np.ndarray):
    """Fail closed, as a trajectory's row check does, unless every sample's
    populations sum to 1 within _NORM_TOL, read from the steps: a sample's
    sum is c^H G c, for its phased coefficients c and the Gram matrix G of
    the step's vectors (``_gram_gap``). The step's bound
    |c^H c - 1| + ||G - I||_F c^H c settles a step where it is within
    _NORM_TOL; elsewhere each sample's |R c|^2, R^H R = G, is synthesized."""
    sums = np.ones(steps[-1].stop)
    for step in steps:
        sector, coeffs = step.sector, step.coeffs
        block, vectors = sector.block, sector.vectors
        counts = block.counts[step.low : step.low + vectors.shape[0]]
        gap = block.whole_gap if sector is block.__dict__.get("whole") else _gram_gap(vectors, counts)
        norm = float(np.vdot(coeffs, coeffs).real)
        if not abs(norm - 1.0) + gap * norm <= _NORM_TOL:
            root = np.linalg.qr(vectors * np.sqrt(counts)[:, None], mode="r")
            span = _Span(sector._replace(vectors=root), coeffs, step.start, step.first, step.stop)
            sums[step.first : step.stop] = _synthesize([span], n_grid, dz, off_grid, np.arange(root.shape[0])).sum(axis=1)
    _check_sums(sums)


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

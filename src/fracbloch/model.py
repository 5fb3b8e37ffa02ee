"""Operator builders for the tilted-lattice boson-pair problem.

Three Hermitian generators are constructed from physical rates:

* a single particle on a tilted chain (hopping ``kappa``, tilt step ``fd``),
* two interacting bosons on that chain, recast as one particle on an N x N
  square lattice whose main diagonal carries the interaction defect ``u0``,
  modified hopping ``kappa1`` on the bonds touching it, and a direct pair
  cross-coupling ``rho`` between consecutive diagonal sites,
* the effective bound-pair chain (hopping ``kappa_eff``, tilt step ``2 fd``),
  valid when the pair is strongly bound.

All rates are in cm^-1; propagation distance plays the role of time. The
sign convention is i d(psi)/dz = H psi with hopping entries -kappa, and
attractive on-site interaction is u0 < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, SingularParameterError

_CONSISTENCY_RTOL = 1e-9


def flatten_index(n: int, m: int, n_sites: int) -> int:
    """Flatten 2D lattice coordinates (n, m) to the index n * N + m."""
    return n * n_sites + m


def square_side(dim: int) -> int:
    """Chain length N of an N x N pair lattice with ``dim`` sites."""
    n = math.isqrt(dim)
    if n * n != dim:
        raise InvalidParameterError(f"dimension {dim} is not a square lattice")
    return n


def diagonal_indices(n_sites: int) -> np.ndarray:
    """Flat indices of the pair-lattice main diagonal (n, n)."""
    return np.arange(n_sites) * n_sites + np.arange(n_sites)


@dataclass(frozen=True)
class ModelParams:
    """Physical rates defining the lattice Hamiltonians.

    Parameters
    ----------
    kappa : float
        Nearest-neighbour hopping rate (cm^-1), >= 0.
    rho : float
        Direct pair cross-coupling rate between consecutive main-diagonal
        sites (cm^-1).
    u0 : float
        On-site interaction energy (cm^-1, signed; attractive is u0 < 0).
    fd : float
        Tilt energy step per site (cm^-1), >= 0.
    n_sites : int
        Chain length N (the pair lattice is N x N), >= 2.
    kappa1 : float, optional
        Hopping on bonds incident on the main diagonal. Defaults to kappa
        (the photonic lattice is fabricated with uniform couplings).
    eps, j_hop : float, optional
        Attenuation factor and bare hopping scale of the underlying lattice
        model. When both are given the derived rates must satisfy
        kappa = eps * j_hop / 2, kappa1 = kappa - u0 * eps**1.5 and
        rho = -2 * u0 * eps**2; this is validated, not assumed.
    near_diag_defect : float, optional
        Explicit site-energy defect on the |n - m| = 1 diagonals. Defaults
        to 2 * eps**2 * u0 when eps is given, else 0.
    """

    kappa: float
    rho: float
    u0: float
    fd: float
    n_sites: int
    kappa1: float | None = None
    eps: float | None = None
    j_hop: float | None = None
    near_diag_defect: float | None = None

    def __post_init__(self):
        for name in ("kappa", "kappa1", "rho", "u0", "fd", "j_hop", "near_diag_defect", "eps"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))  # an int rate too: equal records, equal terms
        if self.kappa < 0:
            raise InvalidParameterError(f"kappa must be >= 0, got {self.kappa}")
        if self.fd < 0:
            raise InvalidParameterError(f"fd must be >= 0, got {self.fd}")
        if self.n_sites < 2:
            raise InvalidParameterError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise InvalidParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if self.kappa1 is None:
            object.__setattr__(self, "kappa1", self.kappa)
        if self.eps is not None and self.j_hop is not None:
            self._check_ebh_consistency()

    def _check_ebh_consistency(self):
        scale = max(1.0, abs(self.u0), abs(self.j_hop))
        tol = _CONSISTENCY_RTOL * scale
        expect = {
            "kappa": self.eps * self.j_hop / 2.0,
            "kappa1": self.eps * self.j_hop / 2.0 - self.u0 * self.eps**1.5,
            "rho": -2.0 * self.u0 * self.eps**2,
        }
        for name, want in expect.items():
            got = getattr(self, name)
            if abs(got - want) > tol:
                raise InvalidParameterError(
                    f"inconsistent parameterization: {name}={got} but the "
                    f"(eps, j_hop, u0) values imply {want}"
                )

    @classmethod
    def from_ebh(
        cls, j_hop: float, eps: float, u0: float, fd: float, n_sites: int
    ) -> "ModelParams":
        """Derive all rates from the (J, eps, u0) parameterization."""
        kappa = eps * j_hop / 2.0
        return cls(
            kappa=kappa,
            rho=-2.0 * u0 * eps**2,
            u0=u0,
            fd=fd,
            n_sites=n_sites,
            kappa1=kappa - u0 * eps**1.5,
            eps=eps,
            j_hop=j_hop,
        )

    def near_diagonal_defect(self) -> float:
        """Effective site-energy defect on the |n - m| = 1 diagonals."""
        if self.near_diag_defect is not None:
            return self.near_diag_defect
        if self.eps is not None:
            return 2.0 * self.eps**2 * self.u0
        return 0.0


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian generator of the z-evolution, given as a matrix;
    symmetry is checked exactly at construction and the entries are frozen."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidParameterError(
                f"entries must be a square matrix, got shape {entries.shape}"
            )
        if not np.isfinite(entries).all():  # first, as NaN != NaN fails the symmetry check
            row, col = np.argwhere(~np.isfinite(entries))[0]
            message = f"entries must be finite, got {entries[row, col]} at ({row}, {col})"
            raise InvalidParameterError(message, "entries")
        if not np.array_equal(entries, entries.conj().T):
            raise InvalidParameterError("entries must be Hermitian")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def swap_block(self) -> SwapBlock:
        """The one block (``_unswapped``): the diagonal and every entry whose
        bytes are not those of +0.0, so a -0.0 entry is kept."""
        kept = self.entries.view(np.uint8).reshape(self.dim, self.dim, -1).any(axis=-1)
        np.fill_diagonal(kept, True)
        i, j = np.nonzero(kept)
        return SwapBlock(*_unswapped(self.dim), i, j, self.entries[i, j])


def _unswapped(dim: int) -> tuple:
    """(rep, partner) of a block without a swap: every site is its own
    partner, and state I is site I."""
    sites = np.arange(dim)
    return sites, sites


def site_columns(rep: np.ndarray, partner: np.ndarray, dim: int) -> np.ndarray:
    """The read-only site -> column map of a block's states over dim sites: the
    state I whose rep or partner is site s, so the identity without a swap."""
    column = np.empty(dim, dtype=np.intp)
    column[partner] = column[rep] = np.arange(rep.size)
    column.setflags(write=False)
    return column


@dataclass(frozen=True)
class ChainOperator:
    """Tilted open chain of ``dim`` sites, H[n][n +- 1] = -hopping and
    H[n][n] = tilt * (n - N//2). Like ``PairOperator``'s blocks, its one
    block (``_unswapped``) is its only representation; a ``hopping`` or
    ``tilt * (dim // 2)`` that is not finite fails at construction."""

    dim: int
    hopping: float
    tilt: float

    def __post_init__(self):
        _require_finite(("tilt", self.tilt, self.tilt * (self.dim // 2)),
                        ("hopping", self.hopping, -self.hopping))

    def swap_block(self) -> SwapBlock:
        """Row by row: the left bond, the site, the right bond."""
        n = self.dim
        i, kind = np.divmod(np.arange(1, 3 * n - 1), 3)  # kind 0, 1, 2; row 0 has no left bond
        values = np.full(i.size, -self.hopping, dtype=float)
        values[::3] = self.tilt * (np.arange(n) - n // 2)
        return SwapBlock(*_unswapped(n), i, i + kind - 1, values)


def _require_finite(*terms: tuple[str, float, float]):
    """Fail at the first (field, rate, entry) whose generator entry is not finite.

    Each entry is the largest the rate gives, computed as the builder computes
    it, so a rate that passes builds a generator without overflow.
    """
    for field, rate, entry in terms:
        if not math.isfinite(entry):
            raise InvalidParameterError(
                f"{field} = {rate!r} gives a generator entry that is not finite", field
            )


def _fock_terms(p: ModelParams):
    """The pair lattice's largest entries: the tilt, the diagonal and
    near-diagonal site energies at either end (a diagonal state's energy and
    a diagonal bond's rate are doubled in the symmetric block), then the bonds."""
    origin = p.n_sites // 2
    low, high = -2 * origin, 2 * (p.n_sites - 1 - origin)  # (a - origin) + (b - origin)
    kappa1 = "kappa1" if p.kappa1 != p.kappa else "kappa"  # kappa1 defaults to kappa
    defect = p.near_diagonal_defect()
    return (
        ("fd", p.fd, 2.0 * (p.fd * low)),
        *(("u0", p.u0, 2.0 * (p.fd * j + p.u0)) for j in (low, high)),
        *(("near_diag_defect", defect, p.fd * j + defect) for j in (low + 1, high - 1)),
        (kappa1, p.kappa1, 2.0 * -p.kappa1),
        ("rho", p.rho, 2.0 * -p.rho),
    )


def _single_terms(n_sites: int, kappa: float, fd: float):
    """The chain's largest entries: the tilt at the far end from the origin, the bond."""
    return (("fd", fd, fd * (n_sites // 2)), ("kappa", kappa, -kappa))


def _effective_terms(p: ModelParams):
    """The bound-pair chain's entries: kappa_eff step by step, then the tilt."""
    square = -2.0 * p.kappa * p.kappa
    hopping = kappa_eff(p.kappa, p.rho, p.u0)  # raises at u0 = 0
    return (
        ("kappa", p.kappa, square),
        ("u0", p.u0, square / p.u0),
        ("rho", p.rho, hopping),
        ("fd", p.fd, 2.0 * p.fd * (p.n_sites // 2)),
    )


def check_generator(params: ModelParams, model: str, z_max: float | None = None):
    """Raise InvalidParameterError, naming the field at fault, if a rate makes
    an entry of the `model` generator ("fock", "single" or "effective") overflow,
    or, given z_max, its phases exp(-i E z) up to z_max: |E| is at most a row sum
    (Gershgorin), taken as 4x the sum of the largest entries, the largest at fault."""
    if model == "fock":
        terms = _fock_terms(params)
    elif model == "single":
        terms = _single_terms(params.n_sites, params.kappa, params.fd)
    else:
        terms = _effective_terms(params)
    _require_finite(*terms)
    if z_max is not None and not math.isfinite(4.0 * sum(abs(t[2]) for t in terms) * z_max):
        field, rate, _ = max(terms, key=lambda t: abs(t[2]))
        raise InvalidParameterError(
            f"{field} = {rate!r} gives generator energies whose phase over z_max = {z_max!r} "
            "is not finite", field
        )


def build_single_particle_hamiltonian(n_sites: int, kappa: float, fd: float) -> ChainOperator:
    """Tilted open chain: H[n][n+-1] = -kappa, H[n][n] = fd * (n - N//2).

    The excited (central) site carries tilt energy zero; the choice of
    origin is a pure gauge and shifts all eigenvalues uniformly.
    """
    if n_sites < 2:
        raise InvalidParameterError(f"n_sites must be >= 2, got {n_sites}")
    if kappa < 0:
        raise InvalidParameterError(f"kappa must be >= 0, got {kappa}")
    _require_finite(*_single_terms(n_sites, kappa, fd))
    return ChainOperator(n_sites, kappa, fd)


class SwapBlock(NamedTuple):
    """One block of a generator, as its terms: the swap-symmetric sector of
    the pair lattice's (n, m) swap, or a block without a swap.

    Basis state I is |a, a> when rep[I] == partner[I], else
    (|a, b> + |b, a>) / sqrt 2 with a < b; rep[I] and partner[I] are the
    flat indices of (a, b) and (b, a), and weight[I] is the state's amplitude
    on rep[I] (1 or 1/sqrt 2). A block without a swap (a chain, a dense
    generator, a pair operator's whole lattice) has state I on site I alone.
    Entry (i[k], j[k]) of the (block, block) Hermitian matrix is values[k]:
    the terms are sorted by row and then column, each (I, J) once, every
    diagonal entry among them, and every entry that is not a term is +0.0;
    ``entries`` scatters the terms into that matrix.
    """

    rep: np.ndarray
    partner: np.ndarray
    i: np.ndarray
    j: np.ndarray
    values: np.ndarray

    @property
    def weight(self) -> np.ndarray:
        return np.where(self.rep == self.partner, 1.0, math.sqrt(0.5))

    @property
    def entries(self) -> np.ndarray:
        dense = np.zeros((self.rep.size, self.rep.size), dtype=self.values.dtype)
        dense[self.i, self.j] = self.values
        return dense


def _pair_terms(params: ModelParams):
    """Site energies and bonds of the pair lattice, by flat index.

    Returns (energy, rows, cols, rates): H[i, i] = energy[i] and
    H[rows[k], cols[k]] = rates[k], every bond listed in both directions.
    """
    n = params.n_sites
    origin = n // 2
    a, b = np.divmod(np.arange(n * n), n)
    energy = params.fd * ((a - origin) + (b - origin)).astype(float)
    energy[a == b] += params.u0
    energy[np.abs(a - b) == 1] += params.near_diagonal_defect()
    rows, cols, rates = [], [], []
    # Bonds from (a, b) to (a + 1, b), i.e. to index + n, and to (a, b + 1);
    # a bond touching the main diagonal carries kappa1.
    for step, head, tail in ((n, a + 1, b), (1, a, b + 1)):
        i = np.flatnonzero((head < n) & (tail < n))
        touches = (a[i] == b[i]) | (head[i] == tail[i])
        rows.append(i)
        cols.append(i + step)
        rates.append(np.where(touches, -params.kappa1, -params.kappa))
    # Consecutive main-diagonal sites are cross-coupled with -rho.
    i = diagonal_indices(n)[:-1]
    rows.append(i)
    cols.append(i + n + 1)
    rates.append(np.full(i.size, -params.rho))
    rows, cols, rates = (np.concatenate(x) for x in (rows, cols, rates))
    return energy, np.r_[rows, cols], np.r_[cols, rows], np.r_[rates, rates]


@dataclass(frozen=True)
class PairOperator:
    """Two-boson pair-lattice generator, built from its rates on demand.

    It has ``dim`` (N^2) and one term list, ``lattice_block()``: the whole
    lattice without a swap, for a state that is not swap-symmetric.
    ``swap_block()``, the generator on the swap-symmetric sector (N(N+1)/2
    states, where every pair excitation lies), is read from those terms.
    Its rates are checked at construction (``check_generator``).
    """

    params: ModelParams

    def __post_init__(self):
        check_generator(self.params, "fock")

    @property
    def dim(self) -> int:
        return self.params.n_sites**2

    def swap_block(self) -> SwapBlock:
        """The generator on the swap-symmetric sector, read from the terms of
        ``lattice_block()``: entry (I, J) is g_I g_J (H[rep_I, rep_J] +
        H[rep_I, partner_J]), with H = +0.0 where it has no term and g =
        1/sqrt 2 on the main diagonal, 1 off it.
        """
        n = self.params.n_sites
        rep, partner = swap_sites(n)
        size = rep.size
        lattice = self.lattice_block()
        state = site_columns(rep, partner, n * n)
        # (I, J) is a term where a term's row is rep_I and its column rep_J or partner_J
        from_rep = lattice.i // n <= lattice.i % n
        keys = np.sort(state[lattice.i[from_rep]] * size + state[lattice.j[from_rep]])
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]  # not np.unique, which imports numpy.ma
        i, j = np.divmod(keys, size)
        # H[rep_I, rep_J] and H[rep_I, partner_J], +0.0 where the lattice has no
        # term; its last key is the last site's own, so no lookup runs past it
        lattice_keys = lattice.i * n * n + lattice.j
        wanted = rep[i] * n * n + np.stack((rep[j], partner[j]))
        at = np.searchsorted(lattice_keys, wanted)
        same, swapped = np.where(lattice_keys[at] == wanted, lattice.values[at], 0.0)
        values = same + swapped
        # the row scale g_I, then the column scale g_J; g = 1 leaves a term as it is
        g = np.where(rep == partner, math.sqrt(0.5), 1.0)
        values *= g[i]
        values *= g[j]
        return SwapBlock(rep, partner, i, j, values)

    def lattice_block(self) -> SwapBlock:
        """The whole N^2 lattice as one block without a swap (``_unswapped``):
        the site energies and bonds of ``_pair_terms``, sorted by row and
        then column."""
        energy, rows, cols, rates = _pair_terms(self.params)
        sites = np.arange(self.dim)
        i, j = np.r_[sites, rows], np.r_[sites, cols]
        order = np.argsort(i * self.dim + j)  # each (i, j) once
        return SwapBlock(*_unswapped(self.dim), i[order], j[order], np.r_[energy, rates][order])


def build_fock_hamiltonian(params: ModelParams) -> PairOperator:
    """Two-boson pair lattice: one particle on an N x N square lattice.

    Site (n, m) carries energy fd * ((n - N//2) + (m - N//2)), plus u0 on
    the main diagonal and the near-diagonal defect on |n - m| = 1.
    Nearest-neighbour bonds carry -kappa, except the four bonds incident on
    each main-diagonal site, which carry -kappa1. Consecutive main-diagonal
    sites are additionally cross-coupled with -rho. The result commutes with
    the (n, m) swap exactly. Nothing is allocated here: the operator builds
    its blocks when they are asked for, and for a swap-symmetric state never
    the N^2 x N^2 matrix.
    """
    return PairOperator(params)


def kappa_eff(kappa: float, rho: float, u0: float) -> float:
    """Bound-pair hopping rate: second-order tunneling plus direct pair hopping.

    Returns -2 * kappa**2 / u0 + rho. For the self-consistent lattice
    parameterization both terms carry the sign of -u0, so they always add.
    """
    if u0 == 0:
        raise SingularParameterError(
            "kappa_eff diverges at u0 = 0 (second-order pair tunneling)", "u0"
        )
    return -2.0 * kappa * kappa / u0 + rho


def build_effective_hamiltonian(params: ModelParams) -> ChainOperator:
    """Bound-pair chain: the single-particle structure with kappa_eff and 2 fd.

    The effective hopping may be negative for repulsive interaction with a
    positive cross-coupling; that is a legitimate gauge and is accepted.
    """
    check_generator(params, "effective")
    hopping = kappa_eff(params.kappa, params.rho, params.u0)
    return ChainOperator(params.n_sites, hopping, 2.0 * params.fd)


def swap_sites(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(rep, partner) of the swap-symmetric block's states in their order:
    state I is the pair of sites (a, b) and (b, a), a <= b, by np.triu_indices."""
    a, b = np.triu_indices(n_sites)
    return a * n_sites + b, b * n_sites + a


def swap_indices(n_sites: int) -> np.ndarray:
    """Index permutation of the (n, m) -> (m, n) swap: state[p] is the swapped state."""
    return np.arange(n_sites * n_sites).reshape(n_sites, n_sites).T.ravel()

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

from .errors import DimensionCapError, InvalidParameterError, SingularParameterError

#: Largest operator dimension the builders and the propagator accept by
#: default. Guards against accidental dense matrices that do not fit memory;
#: override per call (the CLI maps an environment variable onto it).
DEFAULT_DIM_CAP = 4096

_CONSISTENCY_RTOL = 1e-9


def flatten_index(n: int, m: int, n_sites: int) -> int:
    """Flatten 2D lattice coordinates (n, m) to the index n * N + m."""
    return n * n_sites + m


def unflatten_index(index: int, n_sites: int) -> tuple[int, int]:
    """Invert :func:`flatten_index`."""
    return divmod(index, n_sites)


def square_side(dim: int) -> int:
    """Chain length N of an N x N pair lattice with ``dim`` sites."""
    n = math.isqrt(dim)
    if n * n != dim:
        raise InvalidParameterError(f"dimension {dim} is not a square lattice")
    return n


def diagonal_indices(n_sites: int) -> np.ndarray:
    """Flat indices of the pair-lattice main diagonal (n, n)."""
    return np.arange(n_sites) * n_sites + np.arange(n_sites)


class SiteIndex2D(NamedTuple):
    """Coordinates of one pair-lattice site; (n, m) = particle positions."""

    n: int
    m: int

    def flat(self, n_sites: int) -> int:
        return flatten_index(self.n, self.m, n_sites)


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
        for name in ("kappa", "kappa1", "rho", "u0", "fd", "j_hop", "near_diag_defect"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
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
    """Dense Hermitian generator of the z-evolution.

    All builders emit real symmetric matrices; symmetry is checked exactly
    at construction and the entry array is frozen afterwards.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidParameterError(
                f"entries must be a square matrix, got shape {entries.shape}"
            )
        if not np.array_equal(entries, entries.conj().T):
            raise InvalidParameterError("entries must be Hermitian")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _tilted_chain(n_sites: int, hopping: float, tilt_step: float) -> np.ndarray:
    origin = n_sites // 2
    h = np.zeros((n_sites, n_sites))
    sites = np.arange(n_sites)
    h[sites, sites] = tilt_step * (sites - origin)
    off = np.arange(n_sites - 1)
    h[off, off + 1] = -hopping
    h[off + 1, off] = -hopping
    return h


def build_single_particle_hamiltonian(
    n_sites: int, kappa: float, fd: float
) -> HermitianOperator:
    """Tilted open chain: H[n][n+-1] = -kappa, H[n][n] = fd * (n - N//2).

    The excited (central) site carries tilt energy zero; the choice of
    origin is a pure gauge and shifts all eigenvalues uniformly.
    """
    if n_sites < 2:
        raise InvalidParameterError(f"n_sites must be >= 2, got {n_sites}")
    if kappa < 0:
        raise InvalidParameterError(f"kappa must be >= 0, got {kappa}")
    return HermitianOperator(_tilted_chain(n_sites, kappa, fd))


def build_fock_hamiltonian(
    params: ModelParams, dim_cap: int = DEFAULT_DIM_CAP
) -> HermitianOperator:
    """Two-boson pair lattice: one particle on an N x N square lattice.

    Site (n, m) carries energy fd * ((n - N//2) + (m - N//2)), plus u0 on
    the main diagonal and the near-diagonal defect on |n - m| = 1.
    Nearest-neighbour bonds carry -kappa, except the four bonds incident on
    each main-diagonal site, which carry -kappa1. Consecutive main-diagonal
    sites are additionally cross-coupled with -rho. The result commutes with
    the (n, m) swap exactly.
    """
    n = params.n_sites
    dim = n * n
    if dim > dim_cap:
        raise DimensionCapError(dim, dim_cap)

    h = np.zeros((dim, dim))
    origin = n // 2
    defect = params.near_diagonal_defect()
    for a in range(n):
        for b in range(n):
            i = flatten_index(a, b, n)
            energy = params.fd * ((a - origin) + (b - origin))
            if a == b:
                energy += params.u0
            elif abs(a - b) == 1:
                energy += defect
            h[i, i] = energy
            for da, db in ((1, 0), (0, 1)):
                aa, bb = a + da, b + db
                if aa >= n or bb >= n:
                    continue
                j = flatten_index(aa, bb, n)
                rate = params.kappa1 if (a == b or aa == bb) else params.kappa
                h[i, j] = -rate
                h[j, i] = -rate
            if a == b and a + 1 < n:
                j = flatten_index(a + 1, b + 1, n)
                h[i, j] = -params.rho
                h[j, i] = -params.rho
    return HermitianOperator(h)


def kappa_eff(kappa: float, rho: float, u0: float) -> float:
    """Bound-pair hopping rate: second-order tunneling plus direct pair hopping.

    Returns -2 * kappa**2 / u0 + rho. For the self-consistent lattice
    parameterization both terms carry the sign of -u0, so they always add.
    """
    if u0 == 0:
        raise SingularParameterError(
            "kappa_eff diverges at u0 = 0 (second-order pair tunneling)"
        )
    return -2.0 * kappa * kappa / u0 + rho


def build_effective_hamiltonian(params: ModelParams) -> HermitianOperator:
    """Bound-pair chain: the single-particle structure with kappa_eff and 2 fd.

    The effective hopping may be negative for repulsive interaction with a
    positive cross-coupling; that is a legitimate gauge and is accepted.
    """
    hopping = kappa_eff(params.kappa, params.rho, params.u0)
    return HermitianOperator(
        _tilted_chain(params.n_sites, hopping, 2.0 * params.fd)
    )


def swap_indices(n_sites: int) -> np.ndarray:
    """Index permutation of the (n, m) -> (m, n) swap: state[p] is the swapped state."""
    return np.arange(n_sites * n_sites).reshape(n_sites, n_sites).T.ravel()

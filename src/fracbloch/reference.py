"""Independent oracles used by tests and acceptance runs.

Everything here is deliberately implemented on a separate code path from the
operator builders and the spectral propagator, so it can serve as a check on
them: a closed-form solution of the tilted chain (Wannier-Stark breathing),
the two-site coupler, the closed-form two-body bound state of the untilted
pair lattice, and a rule-by-rule bond enumerator for the pair lattice.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .model import ModelParams


def bessel_j_series(n: int, x: float, terms: int = 80) -> float:
    """Integer-order Bessel function of the first kind by its power series.

    Slow but definitionally transparent; used to validate the recurrence
    route. Accurate for moderate |x| (the series alternates, so very large
    arguments lose digits to cancellation).
    """
    m = abs(n)
    half = x / 2.0
    term = half**m / math.factorial(m)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + m))
        total += term
    if n < 0 and m % 2 == 1:
        total = -total
    return total


def bessel_j_all(n_max: int, x: float) -> np.ndarray:
    """J_n(x) for all integer orders n in [-n_max, n_max].

    Computed by Miller's downward recurrence, normalised with the sum rule
    J_0 + 2*sum_{k>=1} J_2k = 1. Entry [i] holds order i - n_max.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be non-negative")
    out = np.zeros(2 * n_max + 1)
    if x == 0.0:
        out[n_max] = 1.0
        return out
    sign_x = 1.0
    if x < 0.0:
        x = -x
        sign_x = -1.0  # J_n(-x) = (-1)^n J_n(x)

    if x < 1e-8:
        # the downward recurrence amplifies by 2k/x per step and would
        # overflow; the series is exact here within a couple of terms
        for n in range(n_max + 1):
            val = bessel_j_series(n, x, terms=4)
            if sign_x < 0 and n % 2 == 1:
                val = -val
            out[n_max + n] = val
            out[n_max - n] = -val if n % 2 == 1 else val
        return out

    start = max(n_max, int(math.ceil(x))) + 16
    start += int(math.sqrt(40.0 * start))
    if start % 2:
        start += 1

    jp, jc = 0.0, 1e-300  # J_{start+1}, J_start seeded arbitrarily small
    positive = np.zeros(n_max + 1)
    norm = 0.0
    for m in range(start, 0, -1):
        jp, jc = jc, (2.0 * m / x) * jc - jp  # jc now holds J_{m-1}
        order = m - 1
        if order % 2 == 0:
            norm += jc if order == 0 else 2.0 * jc
        if order <= n_max:
            positive[order] = jc
        if abs(jc) > 1e250:  # rescale to dodge overflow
            jp /= 1e250
            jc /= 1e250
            positive /= 1e250
            norm /= 1e250
    positive /= norm

    for n in range(n_max + 1):
        val = positive[n]
        if sign_x < 0 and n % 2 == 1:
            val = -val
        out[n_max + n] = val
        out[n_max - n] = -val if n % 2 == 1 else val
    return out


def ws_breathing_argument(kappa: float, fd: float, z: float) -> float:
    """The Bessel argument zeta(z) = (4 kappa / fd) |sin(fd z / 2)|."""
    return (4.0 * kappa / fd) * abs(math.sin(fd * z / 2.0))


def analytic_ws_profile(kappa: float, fd: float, z: float, n_max: int) -> np.ndarray:
    """|A_n(z)| = |J_n(zeta(z))| for a delta excitation of the infinite tilted chain.

    Entry [i] holds the offset n = i - n_max from the excited site. Periodic
    in z with period 2*pi/fd, so a full revival recurs at every multiple of
    the period. Assumes negligible edge population.
    """
    if fd <= 0:
        raise InvalidParameterError("closed-form breathing solution needs fd > 0")
    zeta = ws_breathing_argument(kappa, fd, z)
    return np.abs(bessel_j_all(n_max, zeta))


def two_site_coupler(kappa: float, z: float) -> tuple[float, float]:
    """(p_in, p_cross) of the two-waveguide coupler; sums to 1 exactly."""
    if kappa < 0:
        raise InvalidParameterError("kappa must be non-negative")
    p_cross = math.sin(kappa * z) ** 2
    return 1.0 - p_cross, p_cross


def bound_pair_weights(kappa: float, rho: float, u0: float, n_k: int) -> np.ndarray:
    """Weight w(K) of a doublon on the bound pair state of momentum K.

    Closed form of the two-body bound state on the infinite untilted chain
    (Winkler et al., Nature 441, 853 (2006)). A pair of total quasi-momentum
    K sees the interaction U_K = u0 - 2 rho cos K at zero separation, and its
    relative coordinate hops at 2 kappa cos(K/2). The bound state has energy
    E_K = sign(U_K) sqrt(U_K**2 + 16 kappa**2 cos(K/2)**2), outside the
    two-particle continuum, and puts the weight w(K) = |U_K| / |E_K| on zero
    separation.

    Returns w at the n_k midpoint momenta K_j = -pi + 2 pi (j + 1/2) / n_k.
    Their mean is the bound-band weight W of a doublon (n, n): the share of
    a pair excitation that lies in the bound band. The mean converges
    exponentially in n_k, since w is smooth and periodic. W tends to 1 as
    |u0| grows, as 1 - 4 kappa**2 / u0**2.

    Holds for the fabricated parameterization (kappa1 = kappa, no
    near-diagonal defect).
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise InvalidParameterError(f"kappa must be finite and > 0, got {kappa}")
    if not (math.isfinite(rho) and math.isfinite(u0)):
        raise InvalidParameterError(f"rho and u0 must be finite, got {rho}, {u0}")
    if n_k < 1:
        raise InvalidParameterError(f"n_k must be >= 1, got {n_k}")
    k = -math.pi + 2.0 * math.pi * (np.arange(n_k) + 0.5) / n_k
    interaction = np.abs(u0 - 2.0 * rho * np.cos(k))
    # |K| < pi on the midpoint grid, so cos(K/2) > 0 and |E_K| > 0
    return interaction / np.hypot(interaction, 4.0 * kappa * np.cos(k / 2.0))


class SiteIndex2D(NamedTuple):
    """Coordinates of one pair-lattice site; (n, m) = particle positions."""

    n: int
    m: int


Bond = tuple[SiteIndex2D, SiteIndex2D, float]
SiteEnergy = tuple[SiteIndex2D, float]


def enumerate_fock_bonds(params: ModelParams) -> tuple[list[Bond], list[SiteEnergy]]:
    """Rule-by-rule bond and site-energy list of the two-boson pair lattice.

    Built family by family (row bonds, column bonds, pair cross-coupling,
    then site energies) as an independent cross-check of the matrix builder.
    Each undirected bond appears exactly once; zero-amplitude bonds are
    omitted, the site-energy list is complete.
    """
    n = params.n_sites
    kappa = params.kappa
    kappa1 = params.kappa1
    bonds: list[Bond] = []

    def add(a: SiteIndex2D, b: SiteIndex2D, amplitude: float):
        if amplitude != 0.0:
            bonds.append((a, b, amplitude))

    # bonds along rows: (r, c) <-> (r, c+1)
    for r in range(n):
        for c in range(n - 1):
            rate = kappa1 if r == c or r == c + 1 else kappa
            add(SiteIndex2D(r, c), SiteIndex2D(r, c + 1), -rate)
    # bonds along columns: (r, c) <-> (r+1, c)
    for c in range(n):
        for r in range(n - 1):
            rate = kappa1 if r == c or r + 1 == c else kappa
            add(SiteIndex2D(r, c), SiteIndex2D(r + 1, c), -rate)
    # pair cross-coupling along the main diagonal
    for r in range(n - 1):
        add(SiteIndex2D(r, r), SiteIndex2D(r + 1, r + 1), -params.rho)

    origin = n // 2
    defect = params.near_diagonal_defect()
    energies: list[SiteEnergy] = []
    for r in range(n):
        for c in range(n):
            e = params.fd * ((r - origin) + (c - origin))
            if r == c:
                e += params.u0
            if abs(r - c) == 1:
                e += defect
            energies.append((SiteIndex2D(r, c), e))
    return bonds, energies


def operator_from_bonds(
    n_sites: int, bonds: list[Bond], energies: list[SiteEnergy]
) -> np.ndarray:
    """Assemble the dense symmetric matrix described by a bond/energy list."""
    dim = n_sites * n_sites
    h = np.zeros((dim, dim))
    for site, energy in energies:
        i = site.n * n_sites + site.m
        h[i, i] = energy
    for a, b, amplitude in bonds:
        i, j = a.n * n_sites + a.m, b.n * n_sites + b.m
        h[i, j] = amplitude
        h[j, i] = amplitude
    return h

"""A run's trajectory keeps its steps and synthesizes populations as they are
read: a read of some sites multiplies only their distinct block columns, and
agrees with the rows to rounding before they are built and bit for bit after;
the four pair-scan observables never build the rows; and the population-sum
check, made on the steps, fails closed."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fracbloch import (
    InvalidParameterError,
    ModelParams,
    SpectralPropagator,
    StateVector,
    Trajectory,
    boundary_population,
    breathing_width,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    diagonal_confinement,
    return_probability,
)
from fracbloch import propagator
from fracbloch.model import diagonal_indices
from fracbloch.observables import site_populations
from fracbloch.scenario import preset_config

from conftest import FD, KAPPA, RHO, U0


def _pair(n, fd=FD):
    return build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=fd, n_sites=n))


def _guide(n, a, b):
    """The unfolded (a, b) guide of the pair lattice: one site, not swap-symmetric."""
    return StateVector.delta(n * n, a * n + b)


def _fig4b():
    config = preset_config("fig4b-single-bo")
    p = config.params
    h = build_single_particle_hamiltonian(p.n_sites, p.kappa, p.fd)
    return h, StateVector.delta(p.n_sites, *config.excitation), config.z_max, config.dz


#: name -> (generator, state, z_max, dz), and whether its block takes Krylov steps
SOURCES = {
    "krylov-doublon": (lambda: (_pair(28), StateVector.pair_excitation(28, 14, 14), 8.5, 0.01), True),
    "whole-doublon": (lambda: (_pair(15), StateVector.pair_excitation(15, 7, 7), 8.5, 0.01), False),
    "fig4b-chain": (_fig4b, False),
    "guide-2-4": (lambda: (_pair(7), _guide(7, 2, 4), 2.0, 0.05), False),
    # its steps keep only the rows around the localized state
    "krylov-chain": (lambda: (build_single_particle_hamiltonian(400, KAPPA, FD),
                              StateVector.delta(400, 200), 8.5, 0.01), True),
}


def _site_sets(traj):
    """One site, the diagonal or the chain's ends, the lattice's edges, every site."""
    dim = traj.dim
    n = math.isqrt(dim)
    if n * n == dim and n > 2:
        on_edge = np.ones((n, n), dtype=bool)
        on_edge[1:-1, 1:-1] = False
        return [dim // 2, diagonal_indices(n), np.flatnonzero(on_edge), np.arange(dim)]
    return [dim // 2, np.array([0, dim - 1]), np.arange(dim)[::-1], np.arange(dim)]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_columns_read_before_the_rows_agree_with_them(source):
    make, krylov = SOURCES[source]
    h, psi0, z_max, dz = make()
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, z_max, dz)
    assert propagator._reduces(plan._block(psi0.amplitudes).swap) is krylov
    trimmed = any(step.sector.vectors.shape[0] < plan._block(psi0.amplitudes).swap.rep.size
                  for step in traj._steps)
    assert trimmed == (source == "krylov-chain")
    early = [site_populations(traj, sites) for sites in _site_sets(traj)]
    assert traj._rows is None  # no read of some sites builds the rows
    # One column's amplitude is a dot product over the m <= block vectors
    # (gemv), which rounds apart from the whole block's product by up to
    # 2 m eps in the amplitude of a unit vector, so 4 m eps in its population
    # (1.9e-15 at the whole N = 15 doublon's excitation site); wider reads
    # agree within 1e-15.
    one_column = 4 * plan._block(psi0.amplitudes).swap.rep.size * propagator._EPS
    rows = traj.rows
    for sites, before in zip(_site_sets(traj), early):
        whole = rows[:, traj.column[sites]]
        assert before.shape == whole.shape
        assert np.max(np.abs(before - whole)) <= (1e-15 if np.ndim(sites) else one_column)
        assert site_populations(traj, sites).tobytes() == whole.tobytes()  # read from the rows
    assert traj.rows is rows and not rows.flags.writeable


def test_pair_scan_observables_never_build_the_rows():
    # pair-scan's fine-grid point: its four observables read 90 of the 496
    # stored columns, each synthesized per read, never the 33.7 MB of rows
    n = 31
    traj = SpectralPropagator(_pair(n)).trajectory(StateVector.pair_excitation(n, 15, 15), 8.5, 0.001)
    assert traj.n_samples == 8501
    tracemalloc.start()
    try:
        diagonal_confinement(traj, n)
        breathing_width(traj, "2d-diagonal")
        boundary_population(traj, "2d")
        return_probability(traj, 15 * n + 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj._rows is None
    assert peak <= 8501 * 496 * 8 / 4, peak


def test_threads_reading_one_trajectory_share_one_build():
    # more threads than cores, switching often: each reads the diagonal and
    # then the rows of one fresh trajectory a round; the rows are built once,
    # and every read agrees with them
    n = 28
    plan = SpectralPropagator(_pair(n))
    diagonal = diagonal_indices(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            traj = plan.trajectory(StateVector.pair_excitation(n, 14, 14), 8.5, 0.01)
            reads = []
            threads = [threading.Thread(target=lambda: reads.append(
                (site_populations(traj, diagonal), traj.rows))) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads) and len(reads) == 6
            for columns, rows in reads:
                assert rows is traj.rows
                assert np.max(np.abs(columns - rows[:, traj.column[diagonal]])) <= 1e-15
    finally:
        sys.setswitchinterval(interval)


def _steps(h, psi0, z_max, dz):
    plan = SpectralPropagator(h)
    z, n_grid = propagator._sample_grid(z_max, dz, plan.dim, propagator.DEFAULT_DIM_CAP)
    steps = plan._steps(psi0, n_grid, dz, z[n_grid:])
    return plan, z, n_grid, steps


def _trajectory(plan, psi0, z, n_grid, dz, steps):
    return Trajectory._of_steps(z, n_grid, dz, steps, plan.generator_id,
                                plan._block(psi0.amplitudes).column, None)


def _bound(step):
    """|c^H c - 1| + ||G - I||_F c^H c, the step's bound on its samples' sums."""
    vectors, block = step.sector.vectors, step.sector.block
    gap = propagator._gram_gap(vectors, block.counts[step.low : step.low + vectors.shape[0]])
    norm = float(np.vdot(step.coeffs, step.coeffs).real)
    return abs(norm - 1.0) + gap * norm


def _scaled_coefficients(step):
    return step._replace(coeffs=step.coeffs * (1.0 + 1e-11))


def _perturbed_vector(step):
    """The vector that carries the most of the state, lengthened by 1e-8."""
    vectors = step.sector.vectors.copy()
    vectors[:, np.argmax(np.abs(step.coeffs))] *= 1.0 + 1e-8
    return step._replace(sector=step.sector._replace(vectors=vectors))


@pytest.mark.parametrize("fault", [_scaled_coefficients, _perturbed_vector])
@pytest.mark.parametrize("n", [15, 28])  # a whole block, and Krylov steps
def test_step_check_fails_closed(n, fault):
    h, psi0 = _pair(n), StateVector.pair_excitation(n, n // 2, n // 2)
    plan, z, n_grid, steps = _steps(h, psi0, 8.5, 0.01)
    assert all(_bound(step) <= 1e-12 for step in steps)
    _trajectory(plan, psi0, z.copy(), n_grid, 0.01, list(steps))  # as they are, they pass
    k = len(steps) // 2
    steps[k] = fault(steps[k])
    with pytest.raises(InvalidParameterError, match="population sum deviates from 1") as info:
        _trajectory(plan, psi0, z, n_grid, 0.01, steps)
    assert steps[k].first <= info.value.sample < steps[k].stop


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: (build_single_particle_hamiltonian(400, KAPPA, FD),
                              StateVector.delta(400, 0), 1.0, 0.1), id="chain-400"),
        pytest.param(lambda: (_pair(56, 0.45), StateVector.pair_excitation(56, 28, 28), 8.5, 0.01),
                     id="doublon-56-fd-0.45"),
    ],
)
def test_steps_over_their_bound_pass_sample_by_sample(make):
    # plain Lanczos loses orthogonality: these steps' bounds exceed 1e-12
    # (3.2e-6 and 4.5e-11), so their samples' sums are checked one by one
    h, psi0, z_max, dz = make()
    plan, z, n_grid, steps = _steps(h, psi0, z_max, dz)
    assert max(_bound(step) for step in steps) > 1e-12
    traj = _trajectory(plan, psi0, z, n_grid, dz, steps)
    sums = traj.rows @ np.bincount(traj.column, minlength=traj.rows.shape[1])
    assert np.max(np.abs(sums - 1.0)) <= 1e-12

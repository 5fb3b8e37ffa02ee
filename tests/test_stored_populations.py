"""A swap-symmetric pair trajectory stores each (n, m)/(m, n) population once,
in the symmetric block's N(N+1)/2 columns. Every reader gives the same bytes
from those stored rows as from the whole (samples, N^2) populations, and the
run, analyze and render paths never build the whole array."""

import dataclasses
import json

import numpy as np
import pytest

from fracbloch import (
    ModelParams,
    SpectralPropagator,
    StateVector,
    Trajectory,
    boundary_population,
    breathing_width,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    diagonal_confinement,
    participation_ratio,
    propagate,
    return_probability,
)
from fracbloch import cli, propagator
from fracbloch.heatmap import probability_image, render_heatmap
from fracbloch.observables import summarize_populations
from fracbloch.scenario import preset_config, run_scenario, write_trajectory_csv

from conftest import FD, KAPPA, RHO, U0

#: N -> z_max: N = 15's 120-state block is diagonalized whole, N = 31's
#: 496-state block carries the doublon in Krylov steps.
DOUBLONS = {15: 8.5, 31: 2.0}


@pytest.fixture(scope="module", params=sorted(DOUBLONS))
def doublon(request):
    n = request.param
    plan = SpectralPropagator(build_fock_hamiltonian(
        ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=n)
    ))
    psi0 = StateVector.pair_excitation(n, n // 2, n // 2)
    traj = plan.trajectory(psi0, DOUBLONS[n], 0.01)
    whole = "whole" in plan._block(psi0.amplitudes).__dict__  # else its Krylov steps
    assert whole == (n == 15)
    return n, traj


def read_everything(pops, n, out_dir) -> dict:
    """Every series, summary field, raw image, pixmap and trajectory CSV of a
    pair lattice's populations, as bytes."""
    out_dir.mkdir()
    site = (n // 2) * n + n // 2
    series = {
        "return": return_probability(pops, site),
        "boundary-2d": boundary_population(pops, "2d"),
        "boundary-1d": boundary_population(pops, "1d"),
        "width-2d": breathing_width(pops, "2d-diagonal"),
        "width-1d": breathing_width(pops, "1d"),
        "confinement": diagonal_confinement(pops, n),
        "participation": participation_ratio(pops),
    }
    read = {name: s.values.tobytes() for name, s in series.items()}
    fields, summary_series = summarize_populations(pops, True, site)
    read["fields"] = json.dumps(fields, sort_keys=True)
    read.update({f"summary-{k}": s.values.tobytes() for k, s in summary_series.items()})
    for axis in ("1d-vs-z", "diagonal-vs-z", "full-2d-slice"):
        read[f"image-{axis}"] = probability_image(pops, axis).tobytes()
        for norm in ("per-column", "global"):
            path = out_dir / f"{axis}-{norm}.pgm"
            render_heatmap(pops, axis, norm, str(path))
            read[path.name] = path.read_bytes()
    path = out_dir / "slice-z1.pgm"
    render_heatmap(pops, "full-2d-slice", "global", str(path), z=1.0)
    read[path.name] = path.read_bytes()
    path = out_dir / "trajectory.csv"
    write_trajectory_csv(str(path), pops, "fock", n)
    read[path.name] = path.read_bytes()
    return read


def test_stored_rows_read_as_the_whole_populations(tmp_path, doublon):
    n, traj = doublon
    assert traj.rows.shape == (traj.n_samples, n * (n + 1) // 2) and traj.dim == n * n
    stored = read_everything(traj, n, tmp_path / "stored")
    assert "probabilities" not in vars(traj)  # no reader built the whole array
    whole = read_everything(Trajectory(traj.z_samples, traj.probabilities), n, tmp_path / "whole")
    assert stored.keys() == whole.keys()
    assert [key for key in stored if stored[key] != whole[key]] == []
    # each site reads its column: (a, b) and (b, a) hold one population
    probs = traj.probabilities
    assert probs.shape == (traj.n_samples, n * n) and probs is traj.probabilities
    assert np.array_equal(probs, probs.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n))
    assert probs.flags.owndata and probs.flags.c_contiguous and not probs.flags.writeable


def test_other_trajectories_store_every_site():
    n = 7
    chain = propagate(build_single_particle_hamiltonian(n, KAPPA, FD), StateVector.delta(n, 3), 2.0, 0.05)
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=n))
    amplitudes = np.zeros(n * n)
    amplitudes[2 * n + 4] = 1.0  # (2, 4) alone is not swap-symmetric: the whole lattice
    pair = propagate(h, StateVector(amplitudes), 2.0, 0.05)
    for traj in (chain, pair):
        assert traj.rows.shape[1] == traj.dim and np.array_equal(traj.column, np.arange(traj.dim))
        assert np.array_equal(traj.probabilities, traj.rows)  # each site reads its own column


#: Every kind of trajectory: a chain (the fig4b preset), a folded doublon, and
#: the (2, 4) guide at N = 7, which is not swap-symmetric and so unfolded.
SOURCES = ("fig4b", "doublon", "guide")


def _source(name):
    """(generator, initial state, z_max, dz, model, n_sites) of a source."""
    if name == "fig4b":
        config = preset_config("fig4b-single-bo")
        p = config.params
        h = build_single_particle_hamiltonian(p.n_sites, p.kappa, p.fd)
        psi0 = StateVector.delta(p.n_sites, *config.excitation)
        return h, psi0, config.z_max, config.dz, "single", p.n_sites
    n = 7
    h = build_fock_hamiltonian(ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=n))
    if name == "doublon":
        return h, StateVector.pair_excitation(n, 3, 3), 2.0, 0.05, "fock", n
    amplitudes = np.zeros(n * n)
    amplitudes[2 * n + 4] = 1.0
    return h, StateVector(amplitudes), 2.0, 0.05, "fock", n


@pytest.mark.parametrize("form", ["run", "csv"])
@pytest.mark.parametrize("source", SOURCES)
def test_every_trajectory_reads_site_s_at_its_column(tmp_path, source, form):
    h, psi0, z_max, dz, model, n_sites = _source(source)
    plan = SpectralPropagator(h)
    traj = plan.trajectory(psi0, z_max, dz)
    if form == "run":
        # the amplitudes that the same chunks and products place on every
        # site, squared as the trajectory squares its block's
        z, n_grid = propagator._sample_grid(z_max, dz, plan.dim, propagator.DEFAULT_DIM_CAP)
        steps = plan._steps(psi0, n_grid, dz, z[n_grid:])
        amplitudes = propagator._synthesize(steps, n_grid, dz, z[n_grid:], square=False)
        oracle = np.square(np.abs(amplitudes))
    else:  # np.loadtxt of the written file, every site's row
        csv = tmp_path / "trajectory.csv"
        write_trajectory_csv(str(csv), traj, model, n_sites)
        table = np.loadtxt(str(csv), delimiter=",", skiprows=1, ndmin=2)
        oracle = table[:, 1:] if model == "single" else table[:, 3].reshape(-1, n_sites**2)
        traj, _ = cli._read_trajectory(str(csv))
    column = traj.column
    assert column.dtype == np.intp and column.shape == (traj.dim,) and not column.flags.writeable
    assert traj.rows[:, column].tobytes() == oracle.tobytes()  # bit for bit
    assert (traj.rows.shape[1] < column.size) == (source == "doublon")


def test_run_analyze_and_render_never_build_the_whole_populations(tmp_path, monkeypatch):
    def unread(self):
        raise AssertionError("the whole (samples, dim) populations were built")

    monkeypatch.setattr(Trajectory, "probabilities", property(unread))
    made = []
    trajectory = SpectralPropagator.trajectory

    def kept(self, *args):
        made.append(trajectory(self, *args))
        return made[-1]

    monkeypatch.setattr(SpectralPropagator, "trajectory", kept)
    config = preset_config("fig4a-fractional-bo")
    config = dataclasses.replace(config, observables=(*config.observables, "participation_ratio"))
    run_scenario(config, out_dir=str(tmp_path))
    (traj,) = made
    assert traj.rows.shape[1] == 15 * 16 // 2
    csv = str(tmp_path / "trajectory.csv")
    assert cli.main(["analyze", csv, "--out", str(tmp_path / "analyze.json")]) == 0
    for axis in ("1d-vs-z", "diagonal-vs-z", "full-2d-slice"):
        assert cli.main(["render", csv, "--axis", axis, "--out", str(tmp_path / f"{axis}.pgm")]) == 0

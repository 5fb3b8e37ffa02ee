"""The benchmark's three workloads: inputs from the seed, one pass, checks.

A workload is a list of operations. One pass runs every operation once, in
order, with no pause between them (closed loop, one client). Each operation
returns a payload that its check verifies after the pass, outside the timed
region; a check raises VerificationError on a wrong output.

* presets   -- the five shipped presets through ``fracbloch.cli.main``, in a
               seed-shuffled order. Small operators; the trajectory CSV writer
               does most of the work.
* pair-scan -- two pair-lattice points through the library in memory: a
               large lattice (N=56, dim 3136) and a fine z grid (N=31,
               dz=0.001). eigh and spectral synthesis do all of the work; no
               files are written.
* reload    -- ``analyze`` and ``render`` on trajectory CSVs that the
               program's own CLI wrote before the clock started; reading the
               CSV back is most of the work.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Callable, NamedTuple

import numpy as np

from fracbloch import cli, model, observables, propagator, reference

HERE = os.path.dirname(os.path.abspath(__file__))
#: summary.json of each preset as written by the program when the benchmark
#: was defined; numeric fields must still match within SUMMARY_RTOL.
EXPECTED_SUMMARIES = os.path.join(HERE, "expected_summaries.json")

SUMMARY_RTOL = 1e-9
PROB_SUM_TOL = 1e-9
STATE_TOL = 1e-10

#: Ranges of the seeded pair-lattice parameters, around the fig4a array.
KAPPA = 0.95
U0_RANGE = (-10.0, -4.0)
RHO_RANGE = (0.0, 0.3)
FD_RANGE = (0.3, 0.6)
Z_MAX = 8.5

#: (n_sites, dz) of the pair-scan points: a large lattice, where eigh
#: dominates, and a fine z grid, where synthesis dominates. N=56 rather than
#: the N=64 dense cap keeps a pass near 7 s, so a run of the benchmark holds
#: three passes and three cold set-ups within its time budget.
PAIR_SCAN_POINTS = ((56, 0.01), (31, 0.001))
#: Sample index at which pair-scan states are checked against expm_multiply.
CHECK_SAMPLE = 10

#: Reload inputs: two shipped presets and one generated N=31 fock config.
RELOAD_PRESETS = ("fig4a-fractional-bo", "fig4b-single-bo")
RELOAD_RUN_SITES = 31
RELOAD_RUN_DZ = 0.01
#: analyze output fields that the run's summary.json also carries.
ANALYZE_FIELDS = (
    "norm_max_deviation", "truncated", "diagonal_confinement",
    "breathing_width", "refocus",
)
PAIR_AXES = ("1d-vs-z", "diagonal-vs-z", "full-2d-slice")
CHAIN_AXES = ("1d-vs-z",)


class VerificationError(Exception):
    """An operation completed but its output is wrong."""


class Op(NamedTuple):
    label: str
    run: Callable[[str], object]
    check: Callable[[object], None]


def _draw_pair_params(rng: random.Random, n_sites: int) -> model.ModelParams:
    return model.ModelParams(
        kappa=KAPPA,
        rho=rng.uniform(*RHO_RANGE),
        u0=rng.uniform(*U0_RANGE),
        fd=rng.uniform(*FD_RANGE),
        n_sites=n_sites,
    )


def _mismatches(expected, actual, path="") -> list[str]:
    """Numeric, boolean and null fields of expected that actual does not match.

    Numbers match within SUMMARY_RTOL relative to max(1, |value|), so values
    near zero (norm deviations) are compared on an absolute 1e-9 scale.
    Strings are not compared.
    """
    if isinstance(expected, str):
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        found = []
        for key, value in expected.items():
            if key not in actual:
                if not isinstance(value, str):
                    found.append(f"{path}.{key}: missing")
                continue
            found += _mismatches(value, actual[key], f"{path}.{key}")
        return found
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} entries, got {actual!r}"]
        found = []
        for k, (e, a) in enumerate(zip(expected, actual)):
            found += _mismatches(e, a, f"{path}[{k}]")
        return found
    if expected is None or isinstance(expected, bool):
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return [f"{path}: {actual!r} is not a number"]
    if math.isnan(expected) and math.isnan(actual):
        return []
    scale = max(1.0, abs(expected), abs(actual))
    if not abs(actual - expected) <= SUMMARY_RTOL * scale:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _require(condition: bool, message: str):
    if not condition:
        raise VerificationError(message)


def _check_probability_sums(path: str):
    """Every z sample of a trajectory CSV sums to 1 within PROB_SUM_TOL."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header == "z_cm,n,m,probability":
        z, probs = data[:, 0], data[:, 3]
        starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        sums = np.add.reduceat(probs, starts)
    else:
        _require(header.startswith("z_cm,p0"), f"{path}: unknown header {header!r}")
        sums = data[:, 1:].sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    _require(worst <= PROB_SUM_TOL, f"{path}: a z column sums to 1 {worst:+.3e}")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_exit(code):
    _require(code == 0, f"exit code {code}")


class Presets:
    """The five shipped presets, run as users run them, in a seeded order."""

    def __init__(self, seed: int, workdir: str):
        self.expected = _load_json(EXPECTED_SUMMARIES)
        self.order = sorted(self.expected)
        random.Random(seed).shuffle(self.order)

    def ops(self) -> list[Op]:
        return [Op(name, self._runner(name), self._checker(name)) for name in self.order]

    @staticmethod
    def _runner(name):
        def run(pass_dir):
            out = os.path.join(pass_dir, name)
            return cli.main(["preset", name, "--out", out]), out

        return run

    def _checker(self, name):
        def check(payload):
            code, out = payload
            _check_exit(code)
            _check_probability_sums(os.path.join(out, "trajectory.csv"))
            summary = _load_json(os.path.join(out, "summary.json"))
            wrong = _mismatches(self.expected[name], summary)
            _require(not wrong, f"summary.json differs: {'; '.join(wrong[:3])}")

        return check


class PairScan:
    """Two pair-lattice points propagated in memory through the library."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.points = [
            (_draw_pair_params(rng, n_sites), dz) for n_sites, dz in PAIR_SCAN_POINTS
        ]

    def ops(self) -> list[Op]:
        return [
            Op(f"N={params.n_sites},dz={dz}", self._runner(params, dz), self._check)
            for params, dz in self.points
        ]

    @staticmethod
    def _runner(params, dz):
        def run(pass_dir):
            n = params.n_sites
            center = n // 2
            h = model.build_fock_hamiltonian(params)
            plan = propagator.SpectralPropagator(h)
            psi0 = propagator.StateVector.pair_excitation(n, center, center)
            traj = plan.trajectory(psi0, Z_MAX, dz)
            confinement = observables.diagonal_confinement(traj, n)
            observables.breathing_width(traj, "2d-diagonal")
            edge = observables.boundary_population(traj, "2d")
            ret = propagator.return_probability(traj, center * n + center)
            observables.find_refocus(ret)
            return {
                "params": params,
                "z": float(traj.z_samples[CHECK_SAMPLE]),
                "state": traj.states[CHECK_SAMPLE].copy(),
                "ranges": (confinement.values, edge.values),
            }

        return run

    @staticmethod
    def _check(payload):
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import expm_multiply

        params = payload["params"]
        n = params.n_sites
        bonds, energies = reference.enumerate_fock_bonds(params)
        rows = [a.n * n + a.m for a, _, _ in bonds] + [b.n * n + b.m for _, b, _ in bonds]
        cols = rows[len(bonds):] + rows[: len(bonds)]
        vals = [amp for _, _, amp in bonds] * 2
        rows += [s.n * n + s.m for s, _ in energies]
        cols += [s.n * n + s.m for s, _ in energies]
        vals += [e for _, e in energies]
        h = coo_matrix((vals, (rows, cols)), shape=(n * n, n * n)).tocsr()
        psi0 = np.zeros(n * n, dtype=complex)
        psi0[(n // 2) * n + n // 2] = 1.0
        exact = expm_multiply(-1j * payload["z"] * h, psi0)
        error = float(np.max(np.abs(payload["state"] - exact)))
        _require(error <= STATE_TOL, f"state at z={payload['z']} off by {error:.3e}")
        for values in payload["ranges"]:
            _require(
                bool(np.all((values >= -1e-12) & (values <= 1 + 1e-12))),
                "an observable population left [0, 1]",
            )


def generate_reload_inputs(seed: int, workdir: str):
    """Write the reload inputs with the program's own CLI, before any clock.

    inputs/meta.json records, per trajectory, the files and the geometry that
    the render check needs.
    """
    inputs = os.path.join(workdir, "inputs")
    params = _draw_pair_params(random.Random(seed), RELOAD_RUN_SITES)
    config = os.path.join(inputs, "pair-n31.ini")
    os.makedirs(inputs, exist_ok=True)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(
            f"[scenario]\nmodel = fock\nz_max = {Z_MAX!r}\ndz = {RELOAD_RUN_DZ!r}\n"
            f"[model]\nkappa = {params.kappa!r}\nrho = {params.rho!r}\n"
            f"u0 = {params.u0!r}\nfd = {params.fd!r}\nn_sites = {params.n_sites}\n"
        )
    runs = {name: ["preset", name] for name in RELOAD_PRESETS}
    runs["pair-n31"] = ["run", config]
    meta = {}
    for label, argv in runs.items():
        out = os.path.join(inputs, label)
        code = cli.main(argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"fracbloch {' '.join(argv)} exited with {code}")
        csv = os.path.join(out, "trajectory.csv")
        summary = _load_json(os.path.join(out, "summary.json"))
        n_sites = summary["params"]["n_sites"]
        pair = summary["model"] == "fock"
        with open(csv, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        meta[label] = {
            "csv": csv,
            "summary": os.path.join(out, "summary.json"),
            "axes": PAIR_AXES if pair else CHAIN_AXES,
            "n_sites": n_sites,
            "dim": n_sites * n_sites if pair else n_sites,
            "samples": rows // n_sites**2 if pair else rows,
            "z_max": summary["z_max"],
        }
    with open(os.path.join(inputs, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)


class Reload:
    """analyze and render of each trajectory CSV written by the program.

    The seed draws each trajectory's first render axis and every slice z.
    Successive passes rotate through the axes valid for the trajectory, so
    every run of three or more passes renders each of them and the peak
    memory does not depend on which axis the seed drew first.
    """

    def __init__(self, seed: int, workdir: str):
        self.meta = _load_json(os.path.join(workdir, "inputs", "meta.json"))
        self.rng = random.Random(seed)
        self.first_axis = {
            label: self.rng.randrange(len(item["axes"]))
            for label, item in self.meta.items()
        }
        self.passes = 0

    def ops(self) -> list[Op]:
        ops = []
        for label, item in self.meta.items():
            axes = item["axes"]
            axis = axes[(self.first_axis[label] + self.passes) % len(axes)]
            z = self.rng.uniform(0.0, item["z_max"])
            ops.append(Op(f"analyze {label}", self._analyze(label, item),
                          self._check_analysis(item)))
            ops.append(Op(f"render {label} {axis}", self._render(label, item, axis, z),
                          self._check_render(item, axis)))
        self.passes += 1
        return ops

    @staticmethod
    def _analyze(label, item):
        def run(pass_dir):
            out = os.path.join(pass_dir, f"{label}.json")
            return cli.main(["analyze", item["csv"], "--out", out]), out

        return run

    @staticmethod
    def _render(label, item, axis, z):
        argv = ["render", item["csv"], "--axis", axis]
        if axis == "full-2d-slice":
            argv += ["--z", repr(z)]

        def run(pass_dir):
            out = os.path.join(pass_dir, f"{label}.pgm")
            return cli.main(argv + ["--out", out]), out

        return run

    @staticmethod
    def _check_analysis(item):
        summary = _load_json(item["summary"])
        expected = {key: summary[key] for key in ANALYZE_FIELDS if key in summary}

        def check(payload):
            code, out = payload
            _check_exit(code)
            wrong = _mismatches(expected, _load_json(out))
            _require(not wrong, f"analyze differs from summary.json: {'; '.join(wrong[:3])}")

        return check

    @staticmethod
    def _check_render(item, axis):
        n, samples = item["n_sites"], item["samples"]
        width, height = {
            "1d-vs-z": (samples, item["dim"]),
            "diagonal-vs-z": (samples, n),
            "full-2d-slice": (n, n),
        }[axis]
        header = f"P5\n{width} {height}\n65535\n".encode("ascii")

        def check(payload):
            code, out = payload
            _check_exit(code)
            with open(out, "rb") as fh:
                data = fh.read()
            _require(data.startswith(header), f"PGM header {data[:24]!r} != {header!r}")
            _require(
                len(data) == len(header) + 2 * width * height,
                f"PGM holds {len(data) - len(header)} sample bytes, "
                f"expected {2 * width * height}",
            )

        return check


WORKLOADS = {"presets": Presets, "pair-scan": PairScan, "reload": Reload}
#: Input writers of the workloads that read files, run before any clock.
GENERATORS = {"reload": generate_reload_inputs}

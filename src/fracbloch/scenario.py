"""Scenario configs, experiment presets, and the batch runner.

A scenario selects one of the three models, a parameter source (direct rates
or a waveguide-array description), an initial excitation, and a z grid; the
runner produces deterministic artifacts: a trajectory CSV, observable CSVs,
a JSON summary, and a heatmap pixmap. Reruns are byte-identical.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import heatmap
from .errors import ConfigError, InvalidParameterError
from .model import (
    DEFAULT_DIM_CAP,
    ModelParams,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    flatten_index,
    square_side,
)
from .observables import (
    EDGE_TRUNCATION_TOL,
    REFOCUS_THRESHOLD,
    ObservableSeries,
    Populations,
    boundary_population,
    breathing_width,
    diagonal_confinement,
    find_refocus,
    participation_ratio,
    period_from_width_maximum,
    strongest_interior_peak,
)
from .photonics import (
    CouplingCalibration,
    DEFAULT_FORCE_CALIBRATION,
    ForceCalibration,
    WaveguideArraySpec,
    project_single_particle_radius,
    waveguide_to_model,
)
from .propagator import SpectralPropagator, StateVector, return_probability

#: Environment variable overriding the operator dimension cap in the CLI.
DIM_CAP_ENV = "FRACBLOCH_DIM_CAP"

MODELS = ("fock", "single", "effective")

OBSERVABLE_NAMES = (
    "return_probability",
    "diagonal_confinement",
    "breathing_width",
    "participation_ratio",
    "boundary_population",
)

_FLOAT_FMT = "{:.12e}"

#: The strongest interior return peak defines a period only when it recovers
#: at least this much probability (a majority refocus); lower bumps are
#: breathing residue, not revivals.
PEAK_PERIOD_MIN_RETURN = 0.5


@dataclass(frozen=True)
class ScenarioConfig:
    """One batch run: model choice, parameter source, excitation, z grid."""

    model: str
    z_max: float
    dz: float = 0.01
    excitation: tuple[int, ...] | None = None
    params: ModelParams | None = None
    waveguides: WaveguideArraySpec | None = None
    calibration: CouplingCalibration | None = None
    force_calibration: ForceCalibration | None = DEFAULT_FORCE_CALIBRATION
    first_principles_force: bool = False
    observables: tuple[str, ...] | None = None
    out_dir: str | None = None
    preset: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParameterError(f"model must be one of {MODELS}")
        if (self.params is None) == (self.waveguides is None):
            raise InvalidParameterError(
                "exactly one parameter source (params or waveguides) is required"
            )
        if not 0 < self.z_max < math.inf:
            raise InvalidParameterError("z_max must be positive and finite")
        if self.observables is not None:
            unknown = set(self.observables) - set(OBSERVABLE_NAMES)
            if unknown:
                raise InvalidParameterError(f"unknown observables: {sorted(unknown)}")

    def resolve_params(self) -> ModelParams:
        if self.params is not None:
            return self.params
        cal = self.calibration or CouplingCalibration()
        return waveguide_to_model(
            self.waveguides,
            cal,
            self.force_calibration,
            first_principles_force=self.first_principles_force,
        )

    def resolve_excitation(self, n_sites: int) -> tuple[int, ...]:
        center = n_sites // 2
        if self.excitation is None:
            return (center, center) if self.model == "fock" else (center,)
        want = 2 if self.model == "fock" else 1
        if len(self.excitation) != want:
            raise InvalidParameterError(
                f"{self.model} model takes {want} excitation index(es), "
                f"got {self.excitation}"
            )
        if any(not 0 <= x < n_sites for x in self.excitation):
            raise InvalidParameterError(
                f"excitation {self.excitation} outside the {n_sites}-site lattice"
            )
        return self.excitation

    def resolve_observables(self) -> tuple[str, ...]:
        if self.observables is not None:
            return self.observables
        if self.model == "fock":
            return (
                "return_probability",
                "diagonal_confinement",
                "breathing_width",
                "boundary_population",
            )
        return ("return_probability", "breathing_width", "boundary_population")


# ---------------------------------------------------------------------------
# Presets reproducing the reference experiments
# ---------------------------------------------------------------------------

_CAL = CouplingCalibration()


def _preset_fig3() -> ScenarioConfig:
    return ScenarioConfig(
        model="fock",
        z_max=2.5,
        waveguides=WaveguideArraySpec(
            shape="square-15x15",
            spacing_d=19.0,
            bend_radius=math.inf,
            length_l=2.5,
            detuning_db=-4.0,
        ),
        calibration=_CAL,
        preset="fig3-delocalization",
    )


def _preset_fig3c() -> ScenarioConfig:
    # Same array with the direct pair cross-coupling switched off: the pair
    # then moves only by second-order tunneling.
    return ScenarioConfig(
        model="fock",
        z_max=2.5,
        params=ModelParams(kappa=0.95, rho=0.0, u0=-4.0, fd=0.0, n_sites=15),
        preset="fig3c-bh-only",
    )


def _preset_fig4a() -> ScenarioConfig:
    return ScenarioConfig(
        model="fock",
        z_max=8.5,
        waveguides=WaveguideArraySpec(
            shape="square-15x15",
            spacing_d=19.0,
            bend_radius=400.0,
            length_l=8.5,
            detuning_db=-4.0,
        ),
        calibration=_CAL,
        preset="fig4a-fractional-bo",
    )


def _preset_fig4b() -> ScenarioConfig:
    return ScenarioConfig(
        model="single",
        z_max=8.5,
        waveguides=WaveguideArraySpec(
            shape="linear-23",
            spacing_d=19.0,
            bend_radius=project_single_particle_radius(400.0),
            length_l=8.5,
            detuning_db=0.0,
        ),
        calibration=_CAL,
        preset="fig4b-single-bo",
    )


def _preset_effective() -> ScenarioConfig:
    return ScenarioConfig(
        model="effective",
        z_max=8.5,
        waveguides=WaveguideArraySpec(
            shape="square-15x15",
            spacing_d=19.0,
            bend_radius=400.0,
            length_l=8.5,
            detuning_db=-4.0,
        ),
        calibration=_CAL,
        preset="effective-pair",
    )


PRESETS = {
    "fig3-delocalization": (
        _preset_fig3,
        "two-boson pair lattice, straight 15x15 array: interaction-bound "
        "delocalization without a force",
        {"d_um": 19.0, "kappa": 0.95, "rho": 0.3, "detuning_db": -4.0,
         "bend_radius_cm": "inf", "length_cm": 2.5, "n_sites": 15},
    ),
    "fig3c-bh-only": (
        _preset_fig3c,
        "counterfactual of fig3-delocalization with the direct pair "
        "cross-coupling removed (second-order tunneling only)",
        {"kappa": 0.95, "rho": 0.0, "detuning_db": -4.0,
         "bend_radius_cm": "inf", "length_cm": 2.5, "n_sites": 15},
    ),
    "fig4a-fractional-bo": (
        _preset_fig4a,
        "two-boson pair lattice, bent 15x15 array: fractional Bloch "
        "oscillation of the bound pair",
        {"d_um": 19.0, "kappa": 0.95, "rho": 0.3, "detuning_db": -4.0,
         "bend_radius_cm": 400.0, "length_cm": 8.5, "n_sites": 15},
    ),
    "fig4b-single-bo": (
        _preset_fig4b,
        "linear 23-guide array bent at R*sqrt(2): single-particle Bloch "
        "oscillation under the same force per site",
        {"d_um": 19.0, "kappa": 0.95, "detuning_db": 0.0,
         "bend_radius_cm": 565.685424949238, "length_cm": 8.5, "n_sites": 23},
    ),
    "effective-pair": (
        _preset_effective,
        "effective bound-pair chain (hopping kappa_eff, doubled tilt) for "
        "the fig4a parameters",
        {"kappa_eff": 0.75125, "tilt_step": 0.966643893412244,
         "length_cm": 8.5, "n_sites": 15},
    ),
}


def preset_config(name: str) -> ScenarioConfig:
    try:
        factory = PRESETS[name][0]
    except KeyError:
        raise InvalidParameterError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return factory()


def list_presets() -> list[dict]:
    """Preset catalogue with parameter provenance, machine-readable."""
    return [
        {"name": name, "description": desc, "parameters": params}
        for name, (_, desc, params) in PRESETS.items()
    ]


# ---------------------------------------------------------------------------
# Config file parsing (fail-closed INI; see scenario_schema.ini)
# ---------------------------------------------------------------------------

_SCHEMA = {
    "scenario": {
        "model", "z_max", "dz", "excite", "observables", "out", "label",
    },
    "model": {
        "kappa", "kappa1", "rho", "u0", "fd", "n_sites", "eps", "j_hop",
        "near_diag_defect",
    },
    "waveguides": {
        "shape", "spacing_um", "bend_radius_cm", "length_cm", "detuning_db",
        "wavelength_nm", "n_eff", "force_mode",
    },
    "calibration": {
        "reference_spacing_um", "kappa", "rho", "decay_gamma", "l_foc_cm",
        "calibration_radius_cm",
    },
}


def _line_of(text: str, section: str, key: str | None = None) -> int:
    """Best-effort line number of a section or key for diagnostics."""
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if key is None and stripped == f"[{section}]":
                return lineno
            in_section = stripped == f"[{section}]"
        elif key is not None and in_section:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return lineno
    return 0


def _get_float(cfg, text, filename, section, key, default=None):
    raw = cfg.get(section, key, fallback=None)
    if raw is None or raw.strip() == "":
        return default
    raw = raw.strip()
    try:
        value = math.inf if raw.lower() == "infinite" else float(raw)
    except ValueError:
        raise ConfigError(
            f"key '{key}' must be a number, got {raw!r}",
            filename, _line_of(text, section, key),
        ) from None
    if math.isnan(value) or (math.isinf(value) and key != "bend_radius_cm"):
        raise ConfigError(
            f"key '{key}' must be finite, got {raw!r}",
            filename, _line_of(text, section, key),
        )
    return value


def _get_int(cfg, text, filename, section, key, default=None):
    raw = cfg.get(section, key, fallback=None)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(
            f"key '{key}' must be an integer, got {raw!r}",
            filename, _line_of(text, section, key),
        ) from None


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario config file. Unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path, 0) from exc

    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_string(text, source=path)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", 0) or 0
        raise ConfigError(f"malformed config: {exc.message}", path, line) from exc

    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]", path, _line_of(text, section)
            )
        for key in cfg.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key '{key}' in [{section}]",
                    path, _line_of(text, section, key),
                )

    if not cfg.has_section("scenario"):
        raise ConfigError("missing [scenario] section", path, 0)
    model = cfg.get("scenario", "model", fallback=None)
    if model is None:
        raise ConfigError(
            "missing 'model' in [scenario]", path, _line_of(text, "scenario")
        )
    if model not in MODELS:
        raise ConfigError(
            f"model must be one of {', '.join(MODELS)}, got {model!r}",
            path, _line_of(text, "scenario", "model"),
        )

    has_model = cfg.has_section("model")
    has_guides = cfg.has_section("waveguides")
    if has_model == has_guides:
        raise ConfigError(
            "exactly one of [model] or [waveguides] must be present", path, 0
        )

    params = waveguides = calibration = None
    force_cal = DEFAULT_FORCE_CALIBRATION
    first_principles = False
    try:
        if has_model:
            n_sites = _get_int(cfg, text, path, "model", "n_sites")
            if n_sites is None:
                raise ConfigError(
                    "missing 'n_sites' in [model]", path, _line_of(text, "model")
                )
            params = ModelParams(
                kappa=_get_float(cfg, text, path, "model", "kappa", 0.0),
                rho=_get_float(cfg, text, path, "model", "rho", 0.0),
                u0=_get_float(cfg, text, path, "model", "u0", 0.0),
                fd=_get_float(cfg, text, path, "model", "fd", 0.0),
                n_sites=n_sites,
                kappa1=_get_float(cfg, text, path, "model", "kappa1"),
                eps=_get_float(cfg, text, path, "model", "eps"),
                j_hop=_get_float(cfg, text, path, "model", "j_hop"),
                near_diag_defect=_get_float(
                    cfg, text, path, "model", "near_diag_defect"
                ),
            )
        else:
            shape = cfg.get("waveguides", "shape", fallback=None)
            if shape is None:
                raise ConfigError(
                    "missing 'shape' in [waveguides]",
                    path, _line_of(text, "waveguides"),
                )
            waveguides = WaveguideArraySpec(
                shape=shape.strip(),
                spacing_d=_get_float(
                    cfg, text, path, "waveguides", "spacing_um", 19.0
                ),
                bend_radius=_get_float(
                    cfg, text, path, "waveguides", "bend_radius_cm", math.inf
                ),
                length_l=_get_float(cfg, text, path, "waveguides", "length_cm", 1.0),
                detuning_db=_get_float(
                    cfg, text, path, "waveguides", "detuning_db", 0.0
                ),
                wavelength=_get_float(
                    cfg, text, path, "waveguides", "wavelength_nm", 633.0
                ),
                n_eff=_get_float(cfg, text, path, "waveguides", "n_eff", 1.45),
            )
            mode = cfg.get("waveguides", "force_mode", fallback="calibrated").strip()
            if mode not in ("calibrated", "first-principles"):
                raise ConfigError(
                    f"force_mode must be 'calibrated' or 'first-principles', "
                    f"got {mode!r}",
                    path, _line_of(text, "waveguides", "force_mode"),
                )
            first_principles = mode == "first-principles"
            if cfg.has_section("calibration"):
                calibration = CouplingCalibration(
                    reference_spacing=_get_float(
                        cfg, text, path, "calibration", "reference_spacing_um", 19.0
                    ),
                    kappa_ref=_get_float(cfg, text, path, "calibration", "kappa", 0.95),
                    rho_ref=_get_float(cfg, text, path, "calibration", "rho", 0.3),
                    decay_gamma=_get_float(
                        cfg, text, path, "calibration", "decay_gamma"
                    ),
                )
                force_cal = ForceCalibration(
                    l_foc=_get_float(cfg, text, path, "calibration", "l_foc_cm", 6.5),
                    bend_radius=_get_float(
                        cfg, text, path, "calibration", "calibration_radius_cm", 400.0
                    ),
                )

        z_max = _get_float(cfg, text, path, "scenario", "z_max")
        if z_max is None:
            if waveguides is not None:
                z_max = waveguides.length_l
            else:
                raise ConfigError(
                    "missing 'z_max' in [scenario]",
                    path, _line_of(text, "scenario"),
                )
        excitation = _parse_excitation(
            cfg.get("scenario", "excite", fallback="center"), path, text
        )
        observables = None
        raw_obs = cfg.get("scenario", "observables", fallback=None)
        if raw_obs is not None:
            observables = tuple(
                name.strip() for name in raw_obs.split(",") if name.strip()
            )
        return ScenarioConfig(
            model=model,
            z_max=z_max,
            dz=_get_float(cfg, text, path, "scenario", "dz", 0.01),
            excitation=excitation,
            params=params,
            waveguides=waveguides,
            calibration=calibration,
            force_calibration=force_cal,
            first_principles_force=first_principles,
            observables=observables,
            out_dir=cfg.get("scenario", "out", fallback=None),
            preset=cfg.get("scenario", "label", fallback=None),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path, 0) from exc


def _parse_excitation(raw: str, path: str, text: str):
    raw = raw.strip()
    if raw == "center":
        return None
    try:
        indices = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(
            f"excite must be 'center' or comma-separated integers, got {raw!r}",
            path, _line_of(text, "scenario", "excite"),
        ) from None
    return indices


# ---------------------------------------------------------------------------
# Runner and writers
# ---------------------------------------------------------------------------


def _build_operator(config: ScenarioConfig, params: ModelParams, dim_cap: int):
    if config.model == "fock":
        return build_fock_hamiltonian(params, dim_cap=dim_cap)
    if config.model == "single":
        return build_single_particle_hamiltonian(
            params.n_sites, params.kappa, params.fd
        )
    return build_effective_hamiltonian(params)


def _initial_state(config: ScenarioConfig, excitation, n_sites: int) -> StateVector:
    if config.model == "fock":
        return StateVector.pair_excitation(n_sites, *excitation)
    return StateVector.delta(n_sites, excitation[0])


def write_series_csv(path: str, series: ObservableSeries):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z_cm,value\n")
        for z, v in zip(series.z_samples, series.values):
            fh.write(f"{_FLOAT_FMT.format(z)},{_FLOAT_FMT.format(v)}\n")


def write_trajectory_csv(path: str, traj, model: str, n_sites: int):
    """Long form (z, n, m, probability) for the pair lattice, wide for chains."""
    probs = traj.probabilities
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if model == "fock":
            fh.write("z_cm,n,m,probability\n")
            for k, z in enumerate(traj.z_samples):
                zs = _FLOAT_FMT.format(z)
                row = probs[k]
                for n in range(n_sites):
                    base = n * n_sites
                    for m in range(n_sites):
                        fh.write(f"{zs},{n},{m},{_FLOAT_FMT.format(row[base + m])}\n")
        else:
            header = ",".join(f"p{i}" for i in range(n_sites))
            fh.write(f"z_cm,{header}\n")
            for k, z in enumerate(traj.z_samples):
                values = ",".join(_FLOAT_FMT.format(p) for p in probs[k])
                fh.write(f"{_FLOAT_FMT.format(z)},{values}\n")


def _refocus_summary(return_series, width_series) -> dict:
    """Refocus report plus the period fallback chain (refocus > peak > width)."""
    report = find_refocus(return_series, REFOCUS_THRESHOLD)
    summary = {
        "threshold": REFOCUS_THRESHOLD,
        "positions": list(report.refocus_positions),
        "peak_values": list(report.peak_values),
        "period_estimate": report.period_estimate,
        "frequency_estimate": report.frequency_estimate,
        "period_source": "refocus" if report.period_estimate is not None else None,
    }
    peak = strongest_interior_peak(return_series)
    if peak is not None:
        summary["strongest_peak"] = {"z": peak[0], "value": peak[1]}
    if summary["period_estimate"] is None:
        starts_refocused = return_series.values[0] >= REFOCUS_THRESHOLD
        if (
            peak is not None
            and starts_refocused
            and peak[0] > 0
            and peak[1] >= PEAK_PERIOD_MIN_RETURN * return_series.values[0]
        ):
            summary["period_estimate"] = peak[0]
            summary["frequency_estimate"] = 2.0 * math.pi / peak[0]
            summary["period_source"] = "peak"
    if summary["period_estimate"] is None and width_series is not None:
        try:
            fallback = period_from_width_maximum(width_series)
        except InvalidParameterError:
            fallback = None
        if fallback is not None:
            summary["period_estimate"] = fallback.period_estimate
            summary["frequency_estimate"] = fallback.frequency_estimate
            summary["period_source"] = "width-max"
    return summary


def summarize_populations(
    pops, pair: bool, site: int
) -> tuple[dict, dict[str, ObservableSeries]]:
    """Summary fields computed from site populations, with their series.

    pops carries ``z_samples`` and ``probabilities`` (a Trajectory, or a
    :class:`Populations` read back from CSV); pair selects the pair-lattice
    geometry; site is the excitation site whose return probability drives
    the refocus report. Both ``run`` and ``analyze`` go through here.
    """
    probs = pops.probabilities
    series: dict[str, ObservableSeries] = {
        "return_probability": return_probability(pops, site),
        "boundary_population": boundary_population(pops, "2d" if pair else "1d"),
        "breathing_width": breathing_width(pops, "2d-diagonal" if pair else "1d"),
    }
    edge = series["boundary_population"].values
    fields: dict = {
        "norm_max_deviation": float(np.max(np.abs(probs.sum(axis=1) - 1.0))),
        "truncated": bool(np.any(edge > EDGE_TRUNCATION_TOL)),
        "refocus": _refocus_summary(
            series["return_probability"], series["breathing_width"]
        ),
    }
    width = series["breathing_width"].values
    if np.any(np.isfinite(width)):
        k = int(np.nanargmax(width))
        fields["breathing_width"] = {
            "max": float(width[k]),
            "z_at_max": float(pops.z_samples[k]),
        }
    if pair:
        conf = diagonal_confinement(pops, square_side(probs.shape[1]))
        series["diagonal_confinement"] = conf
        fields["diagonal_confinement"] = {
            "min": float(conf.values.min()),
            "max": float(conf.values.max()),
        }
    return fields, series


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> dict:
    """Run one scenario and write its artifacts; returns the summary dict."""
    out_dir = out_dir or config.out_dir
    if out_dir is None:
        raise InvalidParameterError("no output directory given")
    os.makedirs(out_dir, exist_ok=True)

    params = config.resolve_params()
    n_sites = params.n_sites
    excitation = config.resolve_excitation(n_sites)
    operator = _build_operator(config, params, dim_cap)
    psi0 = _initial_state(config, excitation, n_sites)
    plan = SpectralPropagator(operator, dim_cap=dim_cap)
    traj = plan.trajectory(psi0, config.z_max, config.dz)

    is_pair = config.model == "fock"
    site = (
        flatten_index(excitation[0], excitation[1], n_sites)
        if is_pair
        else excitation[0]
    )
    fields, series = summarize_populations(traj, is_pair, site)
    if "participation_ratio" in config.resolve_observables():
        series["participation_ratio"] = participation_ratio(traj)
    over_edge = series["boundary_population"].values > EDGE_TRUNCATION_TOL
    if fields["truncated"]:
        series = {
            name: dataclasses.replace(s, truncated=True)
            for name, s in series.items()
        }

    summary: dict = {
        "preset": config.preset,
        "model": config.model,
        "params": {
            "kappa": params.kappa,
            "kappa1": params.kappa1,
            "rho": params.rho,
            "u0": params.u0,
            "fd": params.fd,
            "n_sites": params.n_sites,
            "near_diag_defect": params.near_diagonal_defect(),
        },
        "z_max": config.z_max,
        "dz": config.dz,
        "excitation": list(excitation),
        "generator_id": traj.generator_id,
        "truncation_z": (
            float(traj.z_samples[np.argmax(over_edge)]) if fields["truncated"] else None
        ),
        **fields,
    }

    outputs = {"trajectory": "trajectory.csv", "summary": "summary.json",
               "heatmap": "heatmap.pgm"}
    write_trajectory_csv(
        os.path.join(out_dir, "trajectory.csv"), traj, config.model, n_sites
    )
    for name in config.resolve_observables():
        if name in series:
            outputs[name] = f"{name}.csv"
            write_series_csv(os.path.join(out_dir, f"{name}.csv"), series[name])
    heatmap.render_heatmap(
        traj,
        axis="diagonal-vs-z" if is_pair else "1d-vs-z",
        normalization="per-column",
        path=os.path.join(out_dir, "heatmap.pgm"),
    )
    summary["outputs"] = outputs
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def write_summary_json(path: str, summary: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Probability-matrix analysis (for `analyze` on a trajectory CSV)
# ---------------------------------------------------------------------------


def analyze_probabilities(z: np.ndarray, probs: np.ndarray, kind: str) -> dict:
    """Observable summary from a (z, populations) matrix alone.

    Works on probabilities (no phases), which is all the diagnostics need;
    the excitation site is taken as the brightest site of the first sample.
    """
    site = int(np.argmax(probs[0]))
    fields, _ = summarize_populations(Populations(z, probs), kind == "pair", site)
    return {"kind": kind, "excitation_site": site, **fields}

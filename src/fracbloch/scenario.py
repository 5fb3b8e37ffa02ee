"""Scenario configs, experiment presets, and the batch runner.

A scenario selects one of the three models, a parameter source (direct rates
or a waveguide-array description), an initial excitation, and a z grid; the
runner produces deterministic artifacts: a trajectory CSV, observable CSVs,
a JSON summary, and a heatmap pixmap. Reruns are byte-identical.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import heatmap
from .errors import ConfigError, DimensionCapError, InvalidParameterError
from .model import (
    DEFAULT_DIM_CAP,
    ModelParams,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    flatten_index,
    kappa_eff,
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

#: printf format of every float that the CSV artifacts carry.
_FLOAT_FMT = "%.12e"

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
            raise InvalidParameterError(
                f"model must be one of {', '.join(MODELS)}, got {self.model!r}",
                "model",
            )
        if (self.params is None) == (self.waveguides is None):
            raise InvalidParameterError(
                "exactly one parameter source (params or waveguides) is required"
            )
        if not 0 < self.z_max < math.inf:
            raise InvalidParameterError("z_max must be positive and finite", "z_max")
        if not 0 < self.dz <= self.z_max:
            raise InvalidParameterError(
                f"need 0 < dz <= z_max, got dz={self.dz}, z_max={self.z_max}", "dz"
            )
        if self.out_dir == "":
            raise InvalidParameterError("out must name a directory, got ''", "out_dir")
        if self.observables is not None:
            unknown = set(self.observables) - set(OBSERVABLE_NAMES)
            if unknown:
                raise InvalidParameterError(
                    f"unknown observables: {sorted(unknown)}", "observables"
                )

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
                f"got {self.excitation}",
                "excitation",
            )
        if any(not 0 <= x < n_sites for x in self.excitation):
            raise InvalidParameterError(
                f"excitation {self.excitation} outside the {n_sites}-site lattice",
                "excitation",
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

_REQUIRED = object()


class _Key(NamedTuple):
    """What one INI key feeds: a record field, through a conversion."""

    record: type
    field: str
    convert: Callable[[str, str], object]
    default: object = None


def _text(key: str, raw: str) -> str:
    return raw


def _float(key: str, raw: str, finite: bool = True) -> float | None:
    if not raw:
        return None
    try:
        value = math.inf if raw.lower() == "infinite" else float(raw)
    except ValueError:
        raise ValueError(f"key '{key}' must be a number, got {raw!r}") from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ValueError(f"key '{key}' must be finite, got {raw!r}")
    return value


def _radius(key: str, raw: str) -> float | None:
    """A bend radius: a number, or inf for a straight guide."""
    return _float(key, raw, finite=False)


def _int(key: str, raw: str) -> int | None:
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"key '{key}' must be an integer, got {raw!r}") from None


def _excitation(key: str, raw: str) -> tuple[int, ...] | None:
    if raw == "center":
        return None
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(
            f"excite must be 'center' or comma-separated integers, got {raw!r}"
        ) from None


def _names(key: str, raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _force_mode(key: str, raw: str) -> bool:
    if raw not in ("calibrated", "first-principles"):
        raise ValueError(
            f"force_mode must be 'calibrated' or 'first-principles', got {raw!r}"
        )
    return raw == "first-principles"


#: Every (section, key) of the scenario INI, once: the record field it feeds,
#: the conversion of its text, and a parser default only where the record has
#: none (_REQUIRED: the key must be given). A conversion that returns None
#: leaves the field unset.
_KEYS = {
    ("scenario", "model"): _Key(ScenarioConfig, "model", _text, _REQUIRED),
    ("scenario", "z_max"): _Key(ScenarioConfig, "z_max", _float, _REQUIRED),
    ("scenario", "dz"): _Key(ScenarioConfig, "dz", _float),
    ("scenario", "excite"): _Key(ScenarioConfig, "excitation", _excitation),
    ("scenario", "observables"): _Key(ScenarioConfig, "observables", _names),
    ("scenario", "out"): _Key(ScenarioConfig, "out_dir", _text),
    ("scenario", "label"): _Key(ScenarioConfig, "preset", _text),
    ("model", "n_sites"): _Key(ModelParams, "n_sites", _int, _REQUIRED),
    ("model", "kappa"): _Key(ModelParams, "kappa", _float, 0.0),
    ("model", "kappa1"): _Key(ModelParams, "kappa1", _float),
    ("model", "rho"): _Key(ModelParams, "rho", _float, 0.0),
    ("model", "u0"): _Key(ModelParams, "u0", _float, 0.0),
    ("model", "fd"): _Key(ModelParams, "fd", _float, 0.0),
    ("model", "eps"): _Key(ModelParams, "eps", _float),
    ("model", "j_hop"): _Key(ModelParams, "j_hop", _float),
    ("model", "near_diag_defect"): _Key(ModelParams, "near_diag_defect", _float),
    ("waveguides", "shape"): _Key(WaveguideArraySpec, "shape", _text, _REQUIRED),
    ("waveguides", "spacing_um"): _Key(WaveguideArraySpec, "spacing_d", _float, 19.0),
    ("waveguides", "bend_radius_cm"): _Key(WaveguideArraySpec, "bend_radius", _radius, math.inf),
    ("waveguides", "length_cm"): _Key(WaveguideArraySpec, "length_l", _float, 1.0),
    ("waveguides", "detuning_db"): _Key(WaveguideArraySpec, "detuning_db", _float, 0.0),
    ("waveguides", "wavelength_nm"): _Key(WaveguideArraySpec, "wavelength", _float),
    ("waveguides", "n_eff"): _Key(WaveguideArraySpec, "n_eff", _float),
    ("waveguides", "force_mode"): _Key(ScenarioConfig, "first_principles_force", _force_mode),
    ("calibration", "reference_spacing_um"): _Key(CouplingCalibration, "reference_spacing", _float),
    ("calibration", "kappa"): _Key(CouplingCalibration, "kappa_ref", _float),
    ("calibration", "rho"): _Key(CouplingCalibration, "rho_ref", _float),
    ("calibration", "decay_gamma"): _Key(CouplingCalibration, "decay_gamma", _float),
    ("calibration", "l_foc_cm"): _Key(ForceCalibration, "l_foc", _float),
    ("calibration", "calibration_radius_cm"): _Key(ForceCalibration, "bend_radius", _float),
}


def _line_numbers(text: str) -> dict:
    """Line of each section header, keyed (section, None), and of each key."""
    lines: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
            lines.setdefault((section, None), lineno)
        elif section is not None:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip().lower()
            lines.setdefault((section, name), lineno)
    return lines


def _decode(raw: bytes, path: str) -> str:
    """raw as UTF-8 text with universal newlines, as a text-mode read gives it;
    the first byte that is not UTF-8 fails at its line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _decode(raw[: exc.start], path).count("\n") + 1
        message = f"text is not UTF-8: cannot decode byte 0x{raw[exc.start]:02x}"
        raise ConfigError(message, path, line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario config file. Unknown keys are errors.

    Params and excitation are resolved here, so every bad value fails at the
    line of its key, or else at the header of the section that holds it.
    """
    try:
        with open(path, "rb") as fh:
            text = _decode(fh.read(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path, 0) from exc

    # no header names the empty section, so [DEFAULT] is an ordinary section
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cfg.read_string(text, source=path)
    except configparser.Error as exc:
        errors = getattr(exc, "errors", None)  # a ParsingError's (line, text)
        line = errors[0][0] if errors else getattr(exc, "lineno", 0)
        raise ConfigError(f"malformed config: {exc.message}", path, line) from exc
    lines = _line_numbers(text)

    def error(message, section=None, key=None):
        line = lines.get((section, key)) or lines.get((section, None), 0)
        return ConfigError(message, path, line)

    @contextlib.contextmanager
    def located(section):
        """A record's rejection, at the key feeding the field it names."""
        try:
            yield
        except InvalidParameterError as exc:
            key = next((k for (s, k), spec in _KEYS.items()
                        if s == section and spec.field == exc.field), None)
            raise error(str(exc), section, key) from exc

    fields = {spec.record: {} for spec in _KEYS.values()}
    for section in cfg.sections():
        if not any(s == section for s, _ in _KEYS):
            raise error(f"unknown section [{section}]", section)
        for key, raw in cfg.items(section):
            spec = _KEYS.get((section, key))
            if spec is None:
                raise error(f"unknown key '{key}' in [{section}]", section, key)
            try:
                value = spec.convert(key, raw)
            except ValueError as exc:
                raise error(str(exc), section, key) from None
            if value is not None:
                fields[spec.record][spec.field] = value

    if not cfg.has_section("scenario"):
        raise error("missing [scenario] section")
    if cfg.has_section("model") == cfg.has_section("waveguides"):
        raise error("exactly one of [model] or [waveguides] must be present")
    if cfg.has_section("calibration") and not cfg.has_section("waveguides"):
        raise error("[calibration] is allowed only with [waveguides]", "calibration")

    def build(record, section, **given):
        values = {**given, **fields[record]}
        for (s, key), spec in _KEYS.items():
            if spec.record is record and spec.field not in values:
                if spec.default is _REQUIRED:
                    raise error(f"missing '{key}' in [{s}]", s)
                if spec.default is not None:
                    values[spec.field] = spec.default
        with located(section):
            return record(**values)

    given = {}
    if cfg.has_section("model"):
        given["params"] = build(ModelParams, "model")
    else:
        guides = given["waveguides"] = build(WaveguideArraySpec, "waveguides")
        given["z_max"] = guides.length_l  # unless [scenario] sets z_max
        if cfg.has_section("calibration"):
            given["calibration"] = build(CouplingCalibration, "calibration")
            given["force_calibration"] = build(ForceCalibration, "calibration")
    config = build(ScenarioConfig, "scenario", **given)
    with located("model" if "params" in given else "waveguides"):
        params = config.resolve_params()
        if config.model == "effective":
            kappa_eff(params.kappa, params.rho, params.u0)  # diverges at u0 = 0
    with located("scenario"):
        config.resolve_excitation(params.n_sites)
    return config


# ---------------------------------------------------------------------------
# Runner and writers
# ---------------------------------------------------------------------------


def _build_operator(config: ScenarioConfig, params: ModelParams, dim_cap: int):
    dim = params.n_sites**2 if config.model == "fock" else params.n_sites
    if dim > dim_cap:
        raise DimensionCapError(dim, dim_cap)
    if config.model == "fock":
        return build_fock_hamiltonian(params, dim_cap=dim_cap)
    if config.model == "single":
        return build_single_particle_hamiltonian(
            params.n_sites, params.kappa, params.fd, dim_cap=dim_cap
        )
    return build_effective_hamiltonian(params, dim_cap=dim_cap)


def _initial_state(config: ScenarioConfig, excitation, n_sites: int) -> StateVector:
    if config.model == "fock":
        return StateVector.pair_excitation(n_sites, *excitation)
    return StateVector.delta(n_sites, excitation[0])


def write_series_csv(path: str, series: ObservableSeries):
    pairs = np.column_stack([series.z_samples, series.values]).ravel().tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z_cm,value\n")
        fh.write(f"{_FLOAT_FMT},{_FLOAT_FMT}\n" * len(series.z_samples) % tuple(pairs))


def write_trajectory_csv(path: str, traj, model: str, n_sites: int):
    """Long form (z, n, m, probability) for the pair lattice, wide for chains.

    One ``%`` over a per-file template formats a whole sample, and only that
    sample's text is held at a time.
    """
    probs = traj.probabilities
    z_samples = traj.z_samples.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if model == "fock":
            fh.write("z_cm,n,m,probability\n")
            # z goes between the parts: "" z ",0,0,%.12e\n" z ",0,1,%.12e\n" ...
            parts = [""] + [
                f",{n},{m},{_FLOAT_FMT}\n" for n in range(n_sites) for m in range(n_sites)
            ]
            for z, row in zip(z_samples, probs):
                fh.write((_FLOAT_FMT % z).join(parts) % tuple(row.tolist()))
        else:
            header = ",".join(f"p{i}" for i in range(n_sites))
            fh.write(f"z_cm,{header}\n")
            template = ",".join([_FLOAT_FMT] * (n_sites + 1)) + "\n"
            for z, row in zip(z_samples, probs):
                fh.write(template % (z, *row.tolist()))


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
    os.makedirs(out_dir, exist_ok=True)
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

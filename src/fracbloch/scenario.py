"""Scenario configs, experiment presets, and the batch runner.

A scenario is one resolved run: a model, its lattice rates, an initial
excitation, and a z grid. A waveguide-array description (an INI
``[waveguides]`` section, or a preset's array) becomes rates once, through
:func:`~fracbloch.photonics.waveguide_to_model`, before the scenario is
built. The runner produces deterministic artifacts: a trajectory CSV,
observable CSVs, a JSON summary, and a heatmap pixmap. Reruns are
byte-identical.
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
from .codec import write_series_csv, write_trajectory_csv
from .errors import ConfigError, DimensionCapError, InvalidParameterError
from .model import (
    DEFAULT_DIM_CAP,
    ModelParams,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    check_generator,
    flatten_index,
)
from .observables import Populations, participation_ratio, summarize_populations
from .photonics import (
    CouplingCalibration,
    ForceCalibration,
    WaveguideArraySpec,
    project_single_particle_radius,
    waveguide_to_model,
)
from .propagator import SpectralPropagator, StateVector

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

@dataclass(frozen=True)
class ScenarioConfig:
    """One resolved batch run: model, lattice rates, excitation, z grid.

    excitation defaults to the centre site (doubled for the pair lattice) and
    observables to the model's standard set; both are filled in here, so
    every field of a built record is what the run uses. A copy made with
    ``dataclasses.replace(config, params=...)`` keeps the excitation already
    filled in, even off the new lattice's centre; pass ``excitation=None``
    to have it filled in again.
    """

    model: str
    z_max: float
    params: ModelParams
    dz: float = 0.01
    excitation: tuple[int, ...] | None = None
    observables: tuple[str, ...] | None = None
    out_dir: str | None = None
    preset: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParameterError(
                f"model must be one of {', '.join(MODELS)}, got {self.model!r}",
                "model",
            )
        if not 0 < self.z_max < math.inf:
            raise InvalidParameterError("z_max must be positive and finite", "z_max")
        if not 0 < self.dz <= self.z_max:
            raise InvalidParameterError(
                f"need 0 < dz <= z_max, got dz={self.dz}, z_max={self.z_max}", "dz"
            )
        if self.out_dir == "":
            raise InvalidParameterError("out must name a directory, got ''", "out_dir")
        pair = self.model == "fock"
        if self.observables is None:
            object.__setattr__(self, "observables", (
                "return_probability",
                *(("diagonal_confinement",) if pair else ()),
                "breathing_width",
                "boundary_population",
            ))
        unknown = set(self.observables) - set(OBSERVABLE_NAMES)
        if unknown:
            raise InvalidParameterError(
                f"unknown observables: {sorted(unknown)}", "observables"
            )
        n_sites, want = self.params.n_sites, 2 if pair else 1
        if self.excitation is None:
            object.__setattr__(self, "excitation", (n_sites // 2,) * want)
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


# ---------------------------------------------------------------------------
# Presets reproducing the reference experiments
# ---------------------------------------------------------------------------


def _array(shape: str, bend_radius: float, length: float, detuning: float) -> ModelParams:
    """Rates of a fabricated array at the calibrated 19 um spacing."""
    spec = WaveguideArraySpec(shape, 19.0, bend_radius, length, detuning)
    return waveguide_to_model(spec, CouplingCalibration())


_FIG4A = _array("square-15x15", 400.0, 8.5, -4.0)

#: name -> (scenario, description, the parameters the catalogue lists)
PRESETS = {
    "fig3-delocalization": (
        ScenarioConfig("fock", 2.5, _array("square-15x15", math.inf, 2.5, -4.0),
                       preset="fig3-delocalization"),
        "two-boson pair lattice, straight 15x15 array: interaction-bound "
        "delocalization without a force",
        {"d_um": 19.0, "kappa": 0.95, "rho": 0.3, "detuning_db": -4.0,
         "bend_radius_cm": "inf", "length_cm": 2.5, "n_sites": 15},
    ),
    # the same array with the direct pair cross-coupling switched off: the
    # pair then moves only by second-order tunneling
    "fig3c-bh-only": (
        ScenarioConfig("fock", 2.5,
                       ModelParams(kappa=0.95, rho=0.0, u0=-4.0, fd=0.0, n_sites=15),
                       preset="fig3c-bh-only"),
        "counterfactual of fig3-delocalization with the direct pair "
        "cross-coupling removed (second-order tunneling only)",
        {"kappa": 0.95, "rho": 0.0, "detuning_db": -4.0,
         "bend_radius_cm": "inf", "length_cm": 2.5, "n_sites": 15},
    ),
    "fig4a-fractional-bo": (
        ScenarioConfig("fock", 8.5, _FIG4A, preset="fig4a-fractional-bo"),
        "two-boson pair lattice, bent 15x15 array: fractional Bloch "
        "oscillation of the bound pair",
        {"d_um": 19.0, "kappa": 0.95, "rho": 0.3, "detuning_db": -4.0,
         "bend_radius_cm": 400.0, "length_cm": 8.5, "n_sites": 15},
    ),
    "fig4b-single-bo": (
        ScenarioConfig("single", 8.5,
                       _array("linear-23", project_single_particle_radius(400.0), 8.5, 0.0),
                       preset="fig4b-single-bo"),
        "linear 23-guide array bent at R*sqrt(2): single-particle Bloch "
        "oscillation under the same force per site",
        {"d_um": 19.0, "kappa": 0.95, "detuning_db": 0.0,
         "bend_radius_cm": 565.685424949238, "length_cm": 8.5, "n_sites": 23},
    ),
    "effective-pair": (
        ScenarioConfig("effective", 8.5, _FIG4A, preset="effective-pair"),
        "effective bound-pair chain (hopping kappa_eff, doubled tilt) for "
        "the fig4a parameters",
        {"kappa_eff": 0.75125, "tilt_step": 0.966643893412244,
         "length_cm": 8.5, "n_sites": 15},
    ),
}


def preset_config(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name][0]
    except KeyError:
        raise InvalidParameterError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None


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
    """What one INI key feeds: a keyword of a record (or of the function that
    builds one), through a conversion."""

    record: Callable[..., object]
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


#: Every (section, key) of the scenario INI, once: the record field (or the
#: keyword of waveguide_to_model) it feeds, the conversion of its text, and a
#: parser default only where the record has none (_REQUIRED: the key must be
#: given). A conversion that returns None leaves the field unset.
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
    ("waveguides", "force_mode"): _Key(waveguide_to_model, "first_principles_force", _force_mode),
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

    A ``[waveguides]`` array is mapped to rates here, once, so the returned
    record is the resolved run and every bad value fails at the line of its
    key, or else at the header of the section that holds it.
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

    if cfg.has_section("model"):
        source, given = "model", {"params": build(ModelParams, "model")}
    else:
        guides = build(WaveguideArraySpec, "waveguides")
        source, given = "waveguides", {
            "z_max": guides.length_l,  # unless [scenario] sets z_max
            "params": build(
                waveguide_to_model, "waveguides",
                spec=guides,
                cal=build(CouplingCalibration, "calibration"),
                force_calibration=build(ForceCalibration, "calibration"),
            ),
        }
    config = build(ScenarioConfig, "scenario", **given)
    with located(source):  # kappa_eff diverges at u0 = 0; huge rates overflow, or their phases
        check_generator(config.params, config.model, config.z_max)
    return config


# ---------------------------------------------------------------------------
# Runner and writers
# ---------------------------------------------------------------------------


def _build_operator(config: ScenarioConfig, dim_cap: int):
    params = config.params
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


def _initial_state(config: ScenarioConfig) -> StateVector:
    if config.model == "fock":
        return StateVector.pair_excitation(config.params.n_sites, *config.excitation)
    return StateVector.delta(config.params.n_sites, config.excitation[0])


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> dict:
    """Run one scenario and write its artifacts; returns the summary dict."""
    out_dir = out_dir or config.out_dir
    if out_dir is None:
        raise InvalidParameterError("no output directory given")

    params, excitation = config.params, config.excitation
    n_sites = params.n_sites
    operator = _build_operator(config, dim_cap)
    psi0 = _initial_state(config)
    plan = SpectralPropagator(operator, dim_cap=dim_cap)
    traj = plan.trajectory(psi0, config.z_max, config.dz)

    is_pair = config.model == "fock"
    site = (
        flatten_index(excitation[0], excitation[1], n_sites)
        if is_pair
        else excitation[0]
    )
    fields, series = summarize_populations(traj, is_pair, site)
    if "participation_ratio" in config.observables:
        series["participation_ratio"] = participation_ratio(traj)

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
        **fields,
    }

    outputs = {"trajectory": "trajectory.csv", "summary": "summary.json",
               "heatmap": "heatmap.pgm"}
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(
        os.path.join(out_dir, "trajectory.csv"), traj, config.model, n_sites
    )
    for name in config.observables:
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

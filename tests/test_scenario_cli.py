"""Config parsing, the batch runner's artifacts, pixmaps, and the CLI contract."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbloch
from fracbloch import (
    ModelParams, StateVector, Trajectory, kappa_eff, propagate, waveguide_to_model,
)
from fracbloch import build_fock_hamiltonian, build_single_particle_hamiltonian
from fracbloch import codec, scenario
from fracbloch.cli import main
from fracbloch.errors import ConfigError, InvalidParameterError
from fracbloch.heatmap import (
    load_trajectory_csv,
    normalize,
    probability_image,
    write_pgm,
)
from fracbloch.observables import RefocusReport
from fracbloch.scenario import (
    _KEYS,
    PRESETS,
    ScenarioConfig,
    analyze_probabilities,
    list_presets,
    parse_config,
    preset_config,
    run_scenario,
)

from conftest import N_PAIR, frequency_ratio, read_whole

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

MODEL_CONFIG = """\
[scenario]
model = effective
z_max = 8.5
dz = 0.01

[model]
n_sites = 15
kappa = 0.95
rho = 0.3
u0 = -4
fd = 0.4833
"""

WAVEGUIDE_CONFIG = """\
[scenario]
model = fock
dz = 0.05

[waveguides]
shape = square-15x15
spacing_um = 19
bend_radius_cm = inf
length_cm = 2.5
detuning_db = -4

[calibration]
kappa = 0.95
rho = 0.3
"""


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    # a lone surrogate "\udcXX" stands for the byte 0xXX, which is not UTF-8
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return str(path)


def test_parse_model_config(tmp_path):
    config = parse_config(write_config(tmp_path, MODEL_CONFIG))
    assert config.model == "effective"
    assert config.params == ModelParams(kappa=0.95, rho=0.3, u0=-4, fd=0.4833, n_sites=15)
    assert config.z_max == 8.5


def test_parse_waveguide_config_defaults_zmax_to_length(tmp_path):
    config = parse_config(write_config(tmp_path, WAVEGUIDE_CONFIG))
    assert config.params.n_sites == 15  # square-15x15
    assert config.z_max == 2.5
    assert config.params.u0 == -4.0 and config.params.fd == 0.0


def test_waveguide_config_maps_the_array_once(tmp_path):
    code, calls = waveguide_to_model.__code__, []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    config_path = write_config(tmp_path, WAVEGUIDE_CONFIG)
    sys.setprofile(count)
    try:
        assert main(["run", config_path, "--out", str(tmp_path / "out")]) == 0
    finally:
        sys.setprofile(None)
    assert len(calls) == 1


def test_unknown_key_rejected_with_line_number(tmp_path):
    bad = MODEL_CONFIG + "typo_key = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "typo_key" in str(err.value)
    line = int(str(err.value).split(":")[1])
    assert line == bad.splitlines().index("typo_key = 1") + 1


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, MODEL_CONFIG + "\n[mystery]\nx = 1\n"))


def test_both_sources_rejected(tmp_path):
    text = MODEL_CONFIG + "\n[waveguides]\nshape = linear-23\n"
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, text))


def test_bad_number_reports_line(tmp_path):
    text = MODEL_CONFIG.replace("kappa = 0.95", "kappa = fast")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert "kappa" in str(err.value)


def test_schema_file_documents_exactly_the_parsed_keys():
    path = os.path.join(os.path.dirname(fracbloch.__file__), "scenario_schema.ini")
    documented, section = set(), None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("["):
                section = line.strip()[1:-1]
            elif section and (match := re.match(r"# (\w+) = ", line)):
                documented.add((section, match.group(1)))
    assert documented == set(_KEYS)


def test_public_names_are_exactly_the_documented_ones():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    # the names are listed before the section's first code example
    documented = set(re.findall(r"`(\w+)`", section.split("```", 1)[0]))
    exported = {
        name for name, value in vars(fracbloch).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(fracbloch.__all__) == len(set(fracbloch.__all__))
    assert set(fracbloch.__all__) == documented
    assert exported == documented


def test_scenario_config_validation(pair_params):
    with pytest.raises(TypeError):
        ScenarioConfig(model="fock", z_max=1.0)  # no parameter source
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(model="warp", z_max=1.0, params=pair_params)
    config = ScenarioConfig(model="fock", z_max=1.0, params=pair_params)
    assert config.excitation == (7, 7)  # the centre of 15 sites, doubled
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(model="fock", z_max=1.0, params=pair_params, excitation=(20, 7))
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(model="single", z_max=1.0, params=pair_params, excitation=(3, 4))


def test_preset_catalogue():
    names = [entry["name"] for entry in list_presets()]
    assert names == [
        "fig3-delocalization",
        "fig3c-bh-only",
        "fig4a-fractional-bo",
        "fig4b-single-bo",
        "effective-pair",
    ]
    for entry in list_presets():
        assert entry["description"]
        assert entry["parameters"]
    with pytest.raises(InvalidParameterError):
        preset_config("fig9-unknown")


def test_readme_config_is_the_fig4a_preset(tmp_path):
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.S)
    config = parse_config(write_config(tmp_path, block))
    assert config == dataclasses.replace(preset_config("fig4a-fractional-bo"), preset=None)


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_catalogue_lists_its_record(name):
    (entry,) = [e for e in list_presets() if e["name"] == name]
    listed, config = entry["parameters"], preset_config(name)
    params = config.params
    assert config.preset == name
    assert listed["n_sites"] == params.n_sites
    assert listed["length_cm"] == config.z_max
    if config.model == "effective":
        assert listed["kappa_eff"] == kappa_eff(params.kappa, params.rho, params.u0)
        assert listed["tilt_step"] == 2 * params.fd
    else:
        assert listed["kappa"] == params.kappa
        assert listed.get("rho", 0.0) == params.rho
        assert listed["detuning_db"] == params.u0


def test_preset_catalogue_json_flag(capsys):
    assert main(["presets", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert main(["presets"]) == 0
    table = capsys.readouterr().out
    assert [e["name"] for e in machine] == [n for n in PRESETS]
    for entry in machine:
        assert entry["name"] in table


def test_run_scenario_artifacts(tmp_path):
    config = preset_config("effective-pair")
    summary = run_scenario(config, out_dir=str(tmp_path / "eff"))
    for artifact in summary["outputs"].values():
        assert (tmp_path / "eff" / artifact).exists()
    assert summary["refocus"]["period_source"] == "refocus"
    assert summary["refocus"]["period_estimate"] == pytest.approx(6.5, abs=0.01)
    assert summary["truncated"] is False
    written = json.loads((tmp_path / "eff" / "summary.json").read_text())
    assert written["refocus"]["period_estimate"] == summary["refocus"]["period_estimate"]


def test_run_requires_out_dir():
    with pytest.raises(InvalidParameterError):
        run_scenario(preset_config("effective-pair"))


def test_csv_columns_sum_to_one(tmp_path, fig4b_run):
    _, out = fig4b_run
    z, probs, column, kind = load_trajectory_csv(str(out / "trajectory.csv"))
    assert kind == "chain" and np.array_equal(column, np.arange(probs.shape[1]))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_pair_csv_round_trip(tmp_path):
    config = preset_config("fig3c-bh-only")
    run_scenario(config, out_dir=str(tmp_path / "a"))
    z, probs, kind = read_whole(tmp_path / "a" / "trajectory.csv")
    assert kind == "pair"
    assert probs.shape == (z.size, N_PAIR * N_PAIR)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


#: Each preset's generator_id: a hash of its first sector's terms, whose bytes
#: come from elementwise arithmetic only (no BLAS), so they hold on any platform.
#: A one-bit change to a block, such as a -0.0 bond turning into +0.0, moves it.
PRESET_GENERATOR_IDS = {
    "effective-pair": "004ada319357",
    "fig3-delocalization": "bcfa5fbdd16f",
    "fig3c-bh-only": "df6bed92e513",
    "fig4a-fractional-bo": "7994383ae616",
    "fig4b-single-bo": "42b8e3a5b00b",
}


def test_preset_generator_ids_are_pinned(tmp_path):
    assert sorted(PRESET_GENERATOR_IDS) == sorted(PRESETS)
    for name, generator_id in PRESET_GENERATOR_IDS.items():
        summary = run_scenario(preset_config(name), out_dir=str(tmp_path / name))
        assert summary["generator_id"] == generator_id, name


def test_rerun_is_byte_identical(tmp_path):
    config = preset_config("fig3c-bh-only")
    run_scenario(config, out_dir=str(tmp_path / "one"))
    run_scenario(config, out_dir=str(tmp_path / "two"))
    for name in os.listdir(tmp_path / "one"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical reruns"


def test_summary_frequency_ratio_between_experiments(fig4a_run, fig4b_run):
    pair_summary, _ = fig4a_run
    single_summary, _ = fig4b_run
    assert pair_summary["refocus"]["period_source"] == "peak"
    assert single_summary["refocus"]["period_source"] == "width-max"
    pair = RefocusReport(
        (), (),
        pair_summary["refocus"]["period_estimate"],
        pair_summary["refocus"]["frequency_estimate"],
    )
    single = RefocusReport(
        (), (),
        single_summary["refocus"]["period_estimate"],
        single_summary["refocus"]["frequency_estimate"],
    )
    assert frequency_ratio(pair, single) == pytest.approx(2.0, abs=0.04)


def test_fig4a_truncation_flagged(fig4a_run):
    summary, _ = fig4a_run
    assert summary["truncated"] is True
    assert summary["truncation_z"] == pytest.approx(2.29, abs=0.05)


def test_fig3_preset_delocalizes_along_diagonal(tmp_path):
    summary = run_scenario(
        preset_config("fig3-delocalization"), out_dir=str(tmp_path / "fig3")
    )
    # the pair spreads several sites along the diagonal within 2.5 cm, and
    # the marginal binding leaves a measured confinement floor of 0.62
    assert summary["breathing_width"]["max"] > 2.0
    assert summary["breathing_width"]["z_at_max"] == pytest.approx(2.5, abs=0.05)
    assert summary["diagonal_confinement"]["min"] == pytest.approx(0.619, abs=0.005)
    assert summary["params"]["fd"] == 0.0
    assert (tmp_path / "fig3" / "heatmap.pgm").exists()


def test_run_scenario_off_center_excitation_and_extras(tmp_path):
    config = ScenarioConfig(
        model="fock",
        z_max=0.5,
        dz=0.05,
        excitation=(4, 6),
        params=preset_config("fig3c-bh-only").params,
        observables=("return_probability", "participation_ratio"),
    )
    summary = run_scenario(config, out_dir=str(tmp_path / "off"))
    assert summary["excitation"] == [4, 6]
    assert (tmp_path / "off" / "participation_ratio.csv").exists()
    # symmetrized two-site excitation: half the weight on the injected site
    assert summary["refocus"]["positions"] == []
    z, probs, _ = read_whole(tmp_path / "off" / "trajectory.csv")
    assert probs[0, 4 * N_PAIR + 6] == pytest.approx(0.5, abs=1e-12)
    assert probs[0, 6 * N_PAIR + 4] == pytest.approx(0.5, abs=1e-12)


def test_pgm_format_and_values(tmp_path):
    image = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "img.pgm"
    write_pgm(str(path), image)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"2 2"
    maxval, samples = rest.split(b"\n", 1)
    assert maxval == b"65535"
    values = struct.unpack(">4H", samples)
    assert values == (0, 32768, 65535, 16384)


def test_uniform_state_renders_constant_image(tmp_path):
    dim = 16
    traj = Trajectory(np.array([0.0, 1.0]), np.full((2, dim), 1.0 / dim), "uniform")
    image = normalize(probability_image(traj, "1d-vs-z"), "global")
    assert np.all(image == 1.0)


def test_delta_state_single_bright_pixel():
    n = 5
    h = build_single_particle_hamiltonian(n, 0.0, 0.3)  # kappa = 0: nothing moves
    traj = propagate(h, StateVector.delta(n, 2), 1.0, 0.5)
    image = normalize(probability_image(traj, "1d-vs-z"), "per-column")
    first = np.rint(image[:, 0] * 65535)
    assert first[2] == 65535
    assert np.count_nonzero(first) == 1


def test_full_2d_slice_brightest_at_excitation(fig4a_run, tmp_path):
    _, out = fig4a_run
    z, rows, column, _ = load_trajectory_csv(str(out / "trajectory.csv"))
    image = probability_image(Trajectory(z, rows, column=column), "full-2d-slice", z=6.5)
    n, m = np.unravel_index(np.argmax(image), image.shape)
    assert (n, m) == (7, 7)


def test_cli_run_and_render_and_analyze(tmp_path, capsys):
    config_path = write_config(tmp_path, MODEL_CONFIG)
    out_dir = tmp_path / "run"
    assert main(["run", config_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    capsys.readouterr()

    csv_path = str(out_dir / "trajectory.csv")
    assert main(["render", csv_path, "--out", str(tmp_path / "img.pgm")]) == 0
    assert (tmp_path / "img.pgm").read_bytes().startswith(b"P5\n")
    capsys.readouterr()

    assert main(["analyze", csv_path]) == 0
    analysis = json.loads(capsys.readouterr().out)
    assert analysis["kind"] == "chain"
    assert analysis["refocus"]["period_estimate"] == pytest.approx(6.5, abs=0.01)


def test_cli_preset_default_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "effective-pair"]) == 0
    assert (tmp_path / "effective-pair" / "summary.json").exists()


def test_cli_runs_as_module():
    src = os.path.dirname(os.path.dirname(fracbloch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "fracbloch", "presets"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "fig4a-fractional-bo" in done.stdout


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = write_config(tmp_path, MODEL_CONFIG + "typo = 1\n")
    assert main(["run", bad, "--out", str(tmp_path / "x")]) == 2
    assert "typo" in capsys.readouterr().err


NON_FINITE_CASES = [
    (MODEL_CONFIG, "kappa = 0.95", "kappa = inf"),
    (MODEL_CONFIG, "u0 = -4", "u0 = inf"),
    (MODEL_CONFIG, "fd = 0.4833", "fd = inf"),
    (MODEL_CONFIG, "kappa = 0.95", "kappa = nan"),
    (MODEL_CONFIG, "rho = 0.3", "rho = nan"),
    (MODEL_CONFIG, "z_max = 8.5", "z_max = inf"),
    (WAVEGUIDE_CONFIG, "spacing_um = 19", "spacing_um = nan"),
    (WAVEGUIDE_CONFIG, "length_cm = 2.5", "length_cm = nan"),
]


@pytest.mark.parametrize(
    "base, old, new",
    NON_FINITE_CASES,
    ids=[new.replace(" ", "") for _, _, new in NON_FINITE_CASES],
)
def test_cli_non_finite_value_fails_closed(tmp_path, capsys, base, old, new):
    text = base.replace(old, new)
    config_path = write_config(tmp_path, text)
    line = text.splitlines().index(new) + 1
    assert main(["run", config_path, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{config_path}:{line}:" in err
    assert "finite" in err
    assert "Traceback" not in err


def _with(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


#: (id, config text, the line the diagnostic points at (None: line 0), and the
#: message; "{path}" stands for the config path). One case per error that the
#: parser raises for a key or a section.
CONFIG_ERRORS = [
    ("unknown-section", MODEL_CONFIG + "\n[mystery]\nx = 1\n", "[mystery]",
     "unknown section [mystery]"),
    ("unknown-key", MODEL_CONFIG + "typo_key = 1\n", "typo_key = 1",
     "unknown key 'typo_key' in [model]"),
    ("missing-scenario", MODEL_CONFIG.split("\n\n", 1)[1], None,
     "missing [scenario] section"),
    ("missing-model", _with(MODEL_CONFIG, "model = effective\n", ""), "[scenario]",
     "missing 'model' in [scenario]"),
    ("bad-model", _with(MODEL_CONFIG, "effective", "warp"), "model = warp",
     "model must be one of fock, single, effective, got 'warp'"),
    ("missing-n_sites", _with(MODEL_CONFIG, "n_sites = 15\n", ""), "[model]",
     "missing 'n_sites' in [model]"),
    ("missing-shape", _with(WAVEGUIDE_CONFIG, "shape = square-15x15\n", ""),
     "[waveguides]", "missing 'shape' in [waveguides]"),
    ("missing-z_max", _with(MODEL_CONFIG, "z_max = 8.5\n", ""), "[scenario]",
     "missing 'z_max' in [scenario]"),
    ("bad-number", _with(MODEL_CONFIG, "kappa = 0.95", "kappa = fast"),
     "kappa = fast", "key 'kappa' must be a number, got 'fast'"),
    ("bad-integer", _with(MODEL_CONFIG, "n_sites = 15", "n_sites = 15.5"),
     "n_sites = 15.5", "key 'n_sites' must be an integer, got '15.5'"),
    ("bad-excite", _with(MODEL_CONFIG, "dz = 0.01", "dz = 0.01\nexcite = a,b"),
     "excite = a,b",
     "excite must be 'center' or comma-separated integers, got 'a,b'"),
    ("bad-force_mode",
     _with(WAVEGUIDE_CONFIG, "detuning_db = -4", "detuning_db = -4\nforce_mode = magic"),
     "force_mode = magic",
     "force_mode must be 'calibrated' or 'first-principles', got 'magic'"),
    ("non-finite", _with(MODEL_CONFIG, "u0 = -4", "u0 = infinite"),
     "u0 = infinite", "key 'u0' must be finite, got 'infinite'"),
    ("non-finite-calibration", WAVEGUIDE_CONFIG + "calibration_radius_cm = inf\n",
     "calibration_radius_cm = inf",
     "key 'calibration_radius_cm' must be finite, got 'inf'"),
    ("both-sources", MODEL_CONFIG + "\n[waveguides]\nshape = linear-23\n", None,
     "exactly one of [model] or [waveguides] must be present"),
    ("no-source", "[scenario]\nmodel = fock\nz_max = 1\n", None,
     "exactly one of [model] or [waveguides] must be present"),
    ("malformed", "model = fock\n" + MODEL_CONFIG, "model = fock",
     "malformed config: File contains no section headers."),
    ("not-utf-8", _with(MODEL_CONFIG, "[model]\n", "[model]\n# \udcff\n"), "# \udcff",
     "text is not UTF-8: cannot decode byte 0xff"),
]

#: Errors that a record raises on the values it is given: they point at the
#: key at fault, or else at the header of the section whose record rejected
#: them, and they are found before any output directory is made.
VALUE_ERRORS = [
    ("calibration-with-model", MODEL_CONFIG + "\n[calibration]\nkappa = 0.5\n",
     "[calibration]", "[calibration] is allowed only with [waveguides]"),
    ("negative-kappa", _with(MODEL_CONFIG, "kappa = 0.95", "kappa = -0.95"),
     "[model]", "kappa must be >= 0, got -0.95"),
    ("negative-dz", _with(MODEL_CONFIG, "dz = 0.01", "dz = -0.01"), "dz = -0.01",
     "need 0 < dz <= z_max, got dz=-0.01, z_max=8.5"),
    ("dz-above-z_max", _with(MODEL_CONFIG, "z_max = 8.5\ndz = 0.01", "z_max = 2\ndz = 5"),
     "dz = 5", "need 0 < dz <= z_max, got dz=5.0, z_max=2.0"),
    ("dz-above-length", _with(WAVEGUIDE_CONFIG, "dz = 0.05", "dz = 3"), "dz = 3",
     "need 0 < dz <= z_max, got dz=3.0, z_max=2.5"),
    ("negative-z_max", _with(MODEL_CONFIG, "z_max = 8.5", "z_max = -1"),
     "z_max = -1", "z_max must be positive and finite"),
    ("excite-outside",
     _with(MODEL_CONFIG, "model = effective\n", "model = fock\nexcite = 3,40\n"),
     "excite = 3,40", "excitation (3, 40) outside the 15-site lattice"),
    ("excite-count", _with(MODEL_CONFIG, "dz = 0.01", "dz = 0.01\nexcite = 3,4"),
     "excite = 3,4", "effective model takes 1 excitation index(es), got (3, 4)"),
    ("unknown-observable",
     _with(MODEL_CONFIG, "dz = 0.01", "dz = 0.01\nobservables = width"),
     "observables = width", "unknown observables: ['width']"),
    ("bad-shape", _with(WAVEGUIDE_CONFIG, "square-15x15", "hex-7"), "[waveguides]",
     "shape must be 'square-NxN' or 'linear-N', got 'hex-7'"),
    ("spacing-without-gamma", _with(WAVEGUIDE_CONFIG, "spacing_um = 19", "spacing_um = 20"),
     "[waveguides]",
     "spacing 20.0 um differs from the calibrated 19.0 um and no decay_gamma was given"),
    ("bad-calibration", _with(WAVEGUIDE_CONFIG, "rho = 0.3", "rho = 2"), "[calibration]",
     "calibration requires kappa_ref > rho_ref > 0"),
    ("parse-error", MODEL_CONFIG + "no delimiter\n", "no delimiter",
     "malformed config: Source contains parsing errors: '{path}'"),
    ("default-section", "[DEFAULT]\n" + MODEL_CONFIG, "[DEFAULT]",
     "unknown section [DEFAULT]"),
    ("empty-out", _with(MODEL_CONFIG, "dz = 0.01", "dz = 0.01\nout ="), "out =",
     "out must name a directory, got ''"),
    ("effective-u0-zero", _with(MODEL_CONFIG, "u0 = -4", "u0 = 0"), "u0 = 0",
     "kappa_eff diverges at u0 = 0 (second-order pair tunneling)"),
    ("effective-without-u0", _with(MODEL_CONFIG, "u0 = -4\n", ""), "[model]",
     "kappa_eff diverges at u0 = 0 (second-order pair tunneling)"),
    ("effective-zero-detuning",
     _with(_with(WAVEGUIDE_CONFIG, "fock", "effective"), "detuning_db = -4", "detuning_db = 0"),
     "[waveguides]", "kappa_eff diverges at u0 = 0 (second-order pair tunneling)"),
    # finite generator entries whose energies overflow the phases exp(-i E z) up to z_max
    ("fock-kappa-phase", _with(_with(MODEL_CONFIG, "effective", "fock"), "kappa = 0.95", "kappa = 8e307"),
     "kappa = 8e307",
     "kappa = 8e+307 gives generator energies whose phase over z_max = 8.5 is not finite"),
    ("fock-u0-phase", _with(_with(MODEL_CONFIG, "effective", "fock"), "u0 = -4", "u0 = -4e307"),
     "u0 = -4e307",
     "u0 = -4e+307 gives generator energies whose phase over z_max = 8.5 is not finite"),
]


@pytest.mark.parametrize(
    "text, at, message",
    [case[1:] for case in CONFIG_ERRORS + VALUE_ERRORS],
    ids=[case[0] for case in CONFIG_ERRORS + VALUE_ERRORS],
)
def test_cli_config_error_diagnostic(tmp_path, capsys, text, at, message):
    config_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    line = text.splitlines().index(at) + 1 if at else 0
    assert main(["run", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    expected = f"config error: {config_path}:{line}: {message.format(path=config_path)}"
    assert err.startswith(expected), err
    assert not out.exists()


#: (model, key, value): finite rates that make an entry of the model's generator overflow.
OVERFLOWING_RATES = [
    ("fock", "kappa", "1e308"),
    ("fock", "rho", "1e308"),
    ("fock", "u0", "1e308"),
    ("fock", "fd", "1e308"),
    ("single", "fd", "1e308"),
    ("effective", "kappa", "1e200"),
    ("effective", "u0", "1e-320"),
    ("effective", "fd", "1e308"),
]


def _rate_config(model, key, value):
    text = _with(MODEL_CONFIG, "model = effective", f"model = {model}")
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    return _with(text, old, f"{key} = {value}"), f"{key} = {value}"


@pytest.mark.parametrize("model, key, value", OVERFLOWING_RATES)
def test_cli_rate_that_overflows_the_generator_fails_at_its_line(
    tmp_path, capsys, model, key, value
):
    text, at = _rate_config(model, key, value)
    config_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", config_path, "--out", str(out)]) == 2
    assert not caught, [str(w.message) for w in caught]
    line = text.splitlines().index(at) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config_path}:{line}: {key} = "), err
    assert err.rstrip().endswith("gives a generator entry that is not finite"), err
    assert not out.exists()


@pytest.mark.parametrize("model, key, value", [("fock", "u0", "-1e300"), ("effective", "u0", "1e-300")])
def test_cli_huge_rate_with_finite_entries_runs(tmp_path, model, key, value):
    text, _ = _rate_config(model, key, value)  # no magnitude bound beyond finite entries
    assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "out")]) == 0


#: Small runs for the INI fuzz: one through [model], one through [waveguides].
FUZZ_MODEL_CONFIG = """\
[scenario]
model = fock
z_max = 1.0
dz = 0.1

[model]
n_sites = 5
kappa = 0.95
rho = 0.3
u0 = -4
fd = 0.4833
"""

FUZZ_WAVEGUIDE_CONFIG = """\
[scenario]
model = fock
z_max = 1.0
dz = 0.1

[waveguides]
shape = square-5x5
spacing_um = 19
bend_radius_cm = 400
length_cm = 1
detuning_db = -4

[calibration]
kappa = 0.95
rho = 0.3
"""

#: Every (section, key) of the INI whose text is read as a number.
NUMERIC_KEYS = sorted(
    where for where, spec in scenario._KEYS.items()
    if spec.convert in (scenario._float, scenario._radius, scenario._int)
)

#: Hostile values: non-finite, near the double limit, empty, non-ASCII and
#: not UTF-8 ("\udcff" is written as the byte 0xff).
FUZZ_VALUES = [
    "nan", "-nan", "inf", "-inf", "infinite", "1e308", "-1e308", "8e307", "-8e307",
    "1e-320", "0", "-0", "", "\u0661\u0662", "\uff15", "1\u2009", "\u03c0", "\udcff", "1\udcff",
]


def _fuzz_config(section, key, value):
    """The fuzz base that has the section, with key set to value."""
    base = FUZZ_MODEL_CONFIG if section in ("scenario", "model") else FUZZ_WAVEGUIDE_CONFIG
    lines = base.splitlines()
    start = lines.index(f"[{section}]")
    end = next((k for k in range(start + 1, len(lines)) if not lines[k]), len(lines))
    given = [k for k in range(start + 1, end) if lines[k].startswith(f"{key} = ")]
    if given:
        lines[given[0]] = f"{key} = {value}"
    else:  # a key the base leaves out goes last in its section
        lines.insert(end, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    where=st.sampled_from(NUMERIC_KEYS),
    value=st.one_of(
        st.sampled_from(FUZZ_VALUES),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    ),
)
def test_ini_fuzz_exits_cleanly(where, value):
    """Any value of a numeric key ends in exit 0, 2 (at a line of the file) or
    3, with no traceback and no RuntimeWarning. A cap of 32 keeps a run that
    asks for many samples to a few MB of populations."""
    section, key = where
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), _fuzz_config(section, key, value))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            with mock.patch.dict(os.environ, {scenario.DIM_CAP_ENV: "32"}):
                code = main(["run", path, "--out", os.path.join(tmp, "out")])
    message = err.getvalue()
    assert code in (0, 2, 3), message
    assert "Traceback" not in message
    if code == 2:
        assert re.match(rf"config error: {re.escape(path)}:[1-9][0-9]*: ", message), message


def test_cli_exit_code_missing_out(tmp_path, capsys):
    config_path = write_config(tmp_path, MODEL_CONFIG)
    assert main(["run", config_path]) == 2


def test_cli_exit_code_resource_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACBLOCH_DIM_CAP", "100")
    config_path = write_config(tmp_path, WAVEGUIDE_CONFIG)
    assert main(["run", config_path, "--out", str(tmp_path / "x")]) == 3
    assert "100" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model", ["fock", "single", "effective"])
def test_cli_sample_count_beyond_the_cap_exits_3(tmp_path, capsys, monkeypatch, model):
    def no_eigh(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran before the sample bound was checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)  # the bound comes first, before any work
    text = _with(_with(MODEL_CONFIG, "model = effective", f"model = {model}"), "dz = 0.01", "dz = 1e-7")
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: 8.5e+07 samples of dimension "), err
    assert "FRACBLOCH_DIM_CAP" in err
    assert not out.exists()


@pytest.mark.parametrize("model, n_sites", [("fock", 11), ("single", 101), ("effective", 101)])
def test_cli_dimension_cap_checked_before_build(
    tmp_path, monkeypatch, capsys, model, n_sites
):
    # the builders allocate nothing; the plan refuses before a block or the state exists
    def no_build(*args, **kwargs):
        raise AssertionError("a block or a state was built past the dimension cap")

    for owner, name in ((fracbloch.model.PairOperator, "swap_block"),
                        (fracbloch.model.ChainOperator, "swap_block"),
                        (StateVector, "delta"), (StateVector, "pair_excitation")):
        monkeypatch.setattr(owner, name, no_build)
    monkeypatch.setenv("FRACBLOCH_DIM_CAP", "100")
    text = _with(_with(MODEL_CONFIG, "effective", model), "n_sites = 15", f"n_sites = {n_sites}")
    assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x")]) == 3
    assert "exceeds the cap of 100" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_exit_code_bad_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACBLOCH_DIM_CAP", "many")
    config_path = write_config(tmp_path, MODEL_CONFIG)
    assert main(["run", config_path, "--out", str(tmp_path / "x")]) == 2
    # an environment variable has no config file or line to name
    err = "config error: FRACBLOCH_DIM_CAP must be a positive integer, got 'many'\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "x").exists()


def test_cli_exit_code_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    config_path = write_config(tmp_path, MODEL_CONFIG)
    rc = main(["run", config_path, "--out", str(blocker / "sub")])
    assert rc == 4


def test_config_out_key_used(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = MODEL_CONFIG.replace("[scenario]", "[scenario]\nout = from-config")
    config_path = write_config(tmp_path, text)
    assert main(["run", config_path]) == 0
    assert (tmp_path / "from-config" / "summary.json").exists()


#: Trajectory CSVs that the writer never produces, with a word of the reason.
MALFORMED_CSVS = [
    ("not-a-number", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,abc\n0,1,0,0\n0,1,1,0\n",
     "could not convert"),
    ("not-finite", "z_cm,p0,p1\n0,nan,0\n0.1,1,0\n", "not finite"),
    ("narrow-rows", "z_cm,p0,p1\n0,1\n0.1,1\n", "header names 3"),
    ("no-samples", "z_cm,p0,p1\n", "no samples"),
    ("partial-sample", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,0\n",
     "not whole samples"),
    ("out-of-order", "z_cm,n,m,probability\n0,0,1,0\n0,0,0,1\n0,1,0,0\n0,1,1,0\n",
     "writer order"),
    ("z-decreasing", "z_cm,p0,p1\n0.1,1,0\n0,1,0\n", "strictly increase"),
    ("comment", "z_cm,p0,p1\n0.0,1.0,0.0 # note\n0.1,1,0\n", "could not convert"),
    ("comment-line", "z_cm,p0,p1\n0,1,0\n# note\n0.1,1,0\n", "header names 3"),
    ("blank-line", "z_cm,p0,p1\n0,1,0\n\n0.1,1,0\n", "blank line"),
    ("one-site", "z_cm,p0\n0,1\n0.1,1\n", "unrecognized trajectory CSV header"),
    ("negative", "z_cm,p0,p1\n0,1,0\n0.1,1,0\n0.2,2.0,-1.0\n", "negative population"),
    ("negative-pair", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,-0.5\n0,1,1,0.5\n",
     "negative population"),
    ("one-sample", "z_cm,p0,p1\n0,1,0\n", "holds one sample"),
    ("one-sample-pair", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n",
     "holds one sample"),
    ("padded-space", "z_cm,p0,p1\n0, 1,0\n0.1,1,0\n", "could not convert"),
    ("padded-tab", "z_cm,p0,p1\n0,1\t,0\n0.1,1,0\n", "could not convert"),
    ("padded-separator", "z_cm,p0,p1\n0,\x1c1,0\n0.1,1,0\n", "could not convert"),
    ("padded-nbsp", "z_cm,p0,p1\n0,\xa01,0\n0.1,1,0\n", "could not convert"),
    ("padded-header", "z_cm,p0,p1  \n0,1,0\n0.1,1,0\n", "unrecognized trajectory CSV header"),
    # the reader takes these; the trajectory's own checks refuse them, at the
    # first line of the first sample or of the worst sample
    ("z-not-from-zero", "z_cm,p0,p1\n0.1,1,0\n0.2,0.5,0.5\n",
     ": line 2: z samples must strictly increase starting at 0"),
    ("sum-off-one", "z_cm,p0,p1\n0,1,0\n0.1,0.5,0.500000000002\n",
     ": line 3: trajectory population sum deviates from 1 by 2.0"),
    ("sum-off-one-pair", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n"
     "0.5,0,0,0.5\n0.5,0,1,0.25\n0.5,1,0,0.25\n0.5,1,1,1e-9\n",
     ": line 6: trajectory population sum deviates from 1 by 1.0"),
    ("sum-off-one-unfolded-pair", "z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n"
     "0.5,0,0,0.5\n0.5,0,1,0.25\n0.5,1,0,0.2\n0.5,1,1,0\n",
     ": line 6: trajectory population sum deviates from 1 by 5.0"),
]


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize(
    "text, reason", [case[1:] for case in MALFORMED_CSVS], ids=[case[0] for case in MALFORMED_CSVS]
)
def test_cli_malformed_trajectory_csv_fails_closed(tmp_path, capsys, command, text, reason):
    csv = tmp_path / "trajectory.csv"
    csv.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {csv}: ") and reason in err, err
    assert not out.exists()


#: (text, file line the diagnostic names); the header is line 1.
LINE_NUMBERED_CSVS = {
    "header": ("z_cm;p0\n0,1\n", 1),
    "not-a-number": ("z_cm,p0,p1\n0,1,0\n0.1,1,0\n0.2,abc,0\n", 4),
    "underscore": ("z_cm,p0,p1\n0,1,0\n0.1,1_0,0\n", 3),
    "comment": ("z_cm,p0,p1\n0,1,0\n0.1,1,0 # note\n", 3),
    "comment-first-line": ("z_cm,p0,p1\n# note\n0,1,0\n", 2),
    "blank-first-line": ("z_cm,p0,p1\n\n0,1,0\n", 2),
    "blank-last-line": ("z_cm,p0,p1\n0,1,0\n0.1,1,0\n\n", 4),
    "blank-crlf": ("z_cm,p0,p1\r\n0,1,0\r\n\r\n0.1,1,0\r\n", 3),
    "fault-before-blank": ("z_cm,p0,p1\n0,x,0\n\n0.1,1,0\n", 2),
    "blank-before-bad-bytes": (b"z_cm,p0,p1\n0,1,0\n\n0.1,\xff,0\n", 3),
    "ragged": ("z_cm,p0,p1\n0,1,0\n0.1,1\n", 3),
    "narrow": ("z_cm,p0,p1\n0,1\n0.1,1\n", 2),
    "not-finite": ("z_cm,p0,p1\n0,1,0\n0.1,1,0\n0.2,inf,0\n", 4),
    "z-decreasing": ("z_cm,p0,p1\n0,1,0\n0.2,1,0\n0.1,1,0\n", 4),
    "pair-order": ("z_cm,n,m,probability\n" + "0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n"
                   "1,0,0,1\n1,0,1,0\n1,1,1,0\n1,1,0,0\n", 8),
    "pair-z-within": ("z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0.5,1,1,0\n", 5),
    "pair-z-decreasing": ("z_cm,n,m,probability\n" + "1,0,0,1\n1,0,1,0\n1,1,0,0\n1,1,1,0\n"
                          "0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n", 6),
    "one-site": ("z_cm,p0\n0,1\n", 1),
    "negative": ("z_cm,p0,p1\n0,1,0\n0.1,1,0\n0.2,2.0,-1.0\n", 4),
    "negative-pair": ("z_cm,n,m,probability\n" + "0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,0\n"
                      "1,0,0,0.5\n1,0,1,0.5\n1,1,0,-0.0\n1,1,1,-1e-300\n", 9),
    "padded-space": ("z_cm,p0,p1\n0,1,0\n0.1,0, 1\n", 3),
    "padded-tab": ("z_cm,p0,p1\n0,1,0\n0.1,1\t,0\n", 3),
    "padded-separator": ("z_cm,p0,p1\n0,1,0\n0.1,1,\x1f0\n", 3),
    "padded-nbsp": ("z_cm,p0,p1\n0,1,0\n0.1,\xa01,0\n", 3),
    "padded-header": ("z_cm,p0,p1 \n0,1,0\n0.1,1,0\n", 1),
    "padded-pair": ("z_cm,n,m,probability\n0,0,0,1\n0,0,1,0\n0,1,0,\x0b0\n0,1,1,0\n", 4),
}


@pytest.mark.parametrize("name", sorted(LINE_NUMBERED_CSVS))
def test_trajectory_csv_diagnostic_names_the_file_line(tmp_path, name):
    text, line = LINE_NUMBERED_CSVS[name]
    csv = tmp_path / "trajectory.csv"
    csv.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(InvalidParameterError) as info:
        load_trajectory_csv(str(csv))
    assert str(info.value).startswith(f"{csv}: line {line}: "), str(info.value)


@pytest.mark.parametrize(
    "field",
    ["1", "-0.0", "2.5e-3", "1E+2", " 1", "1 ", "\t1", "1\x0b", "\x0c1", "\x1c1", "1\x1e",
     "\xa01", "1\u2000", "1_0", "abc", ""],
)
def test_is_number_agrees_with_the_fast_path(tmp_path, field):
    csv = tmp_path / "trajectory.csv"
    csv.write_text(f"z_cm,p0,p1\n0,1,0\n0.1,{field},0\n", encoding="utf-8")
    try:
        load_trajectory_csv(str(csv))
    except InvalidParameterError as exc:
        assert str(exc).startswith(f"{csv}: line 3: could not convert"), str(exc)
        assert not codec._is_number(field)
    else:
        assert codec._is_number(field)


@pytest.mark.parametrize("where", ["header", "data"])
def test_trajectory_csv_that_is_not_utf8_fails_closed(tmp_path, capsys, where):
    text = b"z_cm,p0,p\xff1\n0,1,0\n" if where == "header" else b"z_cm,p0,p1\n0,1,0\n0.1,\xff,0\n"
    csv = tmp_path / "trajectory.csv"
    csv.write_bytes(text)
    assert main(["analyze", str(csv)]) == 2
    line = 1 if where == "header" else 3
    assert f"config error: {csv}: line {line}: text is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_trajectory_csv_chunk_edges(tmp_path, monkeypatch, chunk):
    rows = [f"{0.1 * k:.12e},{1 - k / 8:.12e},{k / 8:.12e}" for k in range(8)]
    csv = tmp_path / "trajectory.csv"
    csv.write_text("z_cm,p0,p1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    want = load_trajectory_csv(str(csv))
    monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    for got, expected in zip(load_trajectory_csv(str(csv)), want):
        assert np.array_equal(got, expected)
    for blank in range(len(rows) + 1):
        text = "\n".join(["z_cm,p0,p1", *rows[:blank], "", *rows[blank:]]) + "\n"
        csv.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidParameterError, match=f": line {blank + 2}: blank line"):
            load_trajectory_csv(str(csv))


def test_trajectory_csv_accepts_negative_zero(tmp_path):
    csv = tmp_path / "trajectory.csv"
    csv.write_text("z_cm,p0,p1\n0,1,-0.0\n0.1,-0.0,1\n", encoding="utf-8")
    z, probs, column, kind = load_trajectory_csv(str(csv))
    assert kind == "chain" and np.array_equal(column, [0, 1])
    assert np.array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])


def test_crlf_trajectory_csv_reads_like_lf(tmp_path):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(b"z_cm,p0,p1\n0,1,0\n0.1,0.5,0.5")
    crlf.write_bytes(b"z_cm,p0,p1\r\n0,1,0\r\n0.1,0.5,0.5\r\n")
    for got, want in zip(load_trajectory_csv(str(crlf)), load_trajectory_csv(str(lf))):
        assert np.array_equal(got, want)


def test_cli_render_rejects_incompatible_axis(fig4b_run, capsys):
    _, out = fig4b_run
    rc = main(["render", str(out / "trajectory.csv"), "--axis", "diagonal-vs-z"])
    assert rc == 2  # chain trajectories have no pair-lattice diagonal
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["diagonal-vs-z", "full-2d-slice"])
@pytest.mark.parametrize("n_sites", [4, 5])  # 4 = 2 x 2 once passed for a pair lattice
def test_cli_render_refuses_pair_axes_on_a_chain(tmp_path, capsys, axis, n_sites):
    traj = propagate(build_single_particle_hamiltonian(n_sites, 0.95, 0.4833),
                     StateVector.delta(n_sites, n_sites // 2), 1.0, 0.1)
    csv, target = tmp_path / "trajectory.csv", tmp_path / "image.pgm"
    codec.write_trajectory_csv(str(csv), traj, "single", n_sites)
    assert main(["render", str(csv), "--axis", axis, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {csv}: axis {axis} needs the square lattice of a pair "
                   f"trajectory, not a {n_sites}-site chain\n"), err
    assert not target.exists()
    assert main(["render", str(csv), "--axis", "1d-vs-z", "--out", str(target)]) == 0


@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_cli_render_rejects_non_finite_slice_z(fig4a_run, tmp_path, capsys, z):
    _, out = fig4a_run
    target = tmp_path / "slice.pgm"
    argv = ["render", str(out / "trajectory.csv"), "--axis", "full-2d-slice"]
    assert main(argv + [f"--z={z}", "--out", str(target)]) == 2
    assert "slice z must be finite" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("axis", [None, "1d-vs-z", "diagonal-vs-z"])
@pytest.mark.parametrize("z", ["6.5", "nan"])
def test_cli_render_rejects_z_without_slice_axis(fig4a_run, tmp_path, capsys, axis, z):
    _, out = fig4a_run
    target = tmp_path / "image.pgm"
    argv = ["render", str(out / "trajectory.csv"), f"--z={z}", "--out", str(target)]
    assert main(argv + (["--axis", axis] if axis else [])) == 2
    assert "a slice z needs the full-2d-slice axis" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_analyze_out_file(fig4b_run, tmp_path, capsys):
    _, out = fig4b_run
    target = tmp_path / "analysis.json"
    assert main(["analyze", str(out / "trajectory.csv"), "--out", str(target)]) == 0
    assert json.loads(target.read_text())["kind"] == "chain"


#: analyze output fields that the run's summary.json also carries.
SHARED_FIELDS = (
    "norm_max_deviation", "truncated", "truncation_z", "diagonal_confinement",
    "breathing_width", "refocus",
)


def _preset_trajectory(config):
    params = config.params
    n, center = params.n_sites, params.n_sites // 2
    if config.model == "fock":
        h = build_fock_hamiltonian(params)
        psi0 = StateVector.pair_excitation(n, center, center)
    else:
        h = build_single_particle_hamiltonian(n, params.kappa, params.fd)
        psi0 = StateVector.delta(n, center)
    return propagate(h, psi0, config.z_max, config.dz)


def _leaves(tree, path=""):
    """Flatten nested dicts and lists into {path: leaf}."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return {path: tree}
    leaves = {}
    for key, sub in items:
        leaves.update(_leaves(sub, f"{path}/{key}"))
    return leaves


def _assert_close_tree(actual, expected, tol):
    got, want = _leaves(actual), _leaves(expected)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=tol, abs=tol), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", ["fig4b-single-bo", "fig3c-bh-only"])
def test_analyze_matches_summary(name, tmp_path, capsys):
    config = preset_config(name)
    summary = run_scenario(config, out_dir=str(tmp_path))
    shared = {key: summary[key] for key in SHARED_FIELDS if key in summary}
    kind = "pair" if config.model == "fock" else "chain"

    # the same populations give the same fields, bit for bit
    traj = _preset_trajectory(config)
    in_memory = analyze_probabilities(traj, kind)
    assert {key: in_memory[key] for key in shared} == shared

    # the CSV round trip keeps 12 significant digits
    assert main(["analyze", str(tmp_path / "trajectory.csv")]) == 0
    reloaded = json.loads(capsys.readouterr().out)
    assert reloaded["kind"] == kind
    _assert_close_tree({key: reloaded[key] for key in shared}, shared, 1e-9)


def test_analyze_reports_the_run_truncation(fig4a_run, capsys):
    summary, out = fig4a_run
    assert main(["analyze", str(out / "trajectory.csv")]) == 0
    reloaded = json.loads(capsys.readouterr().out)
    assert reloaded["truncated"] is True
    assert reloaded["truncation_z"] == pytest.approx(2.29, abs=0.05)
    assert abs(reloaded["truncation_z"] - summary["truncation_z"]) <= 1e-9


def test_analyze_off_center_pair_matches_run(tmp_path, capsys):
    # an off-diagonal pair starts with no diagonal population; the width is
    # undefined at z = 0 on both paths, not measured from round-off
    config = ScenarioConfig(
        model="fock", z_max=3.0, dz=0.02, excitation=(4, 6),
        params=preset_config("fig3c-bh-only").params,
    )
    summary = run_scenario(config, out_dir=str(tmp_path))
    assert main(["analyze", str(tmp_path / "trajectory.csv")]) == 0
    reloaded = json.loads(capsys.readouterr().out)
    shared = {key: summary[key] for key in SHARED_FIELDS if key in summary}
    _assert_close_tree({key: reloaded[key] for key in shared}, shared, 1e-9)

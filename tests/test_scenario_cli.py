"""Config parsing, the batch runner's artifacts, pixmaps, and the CLI contract."""

import json
import os
import struct

import numpy as np
import pytest

from fracbloch import StateVector, Trajectory, frequency_ratio, propagate
from fracbloch import build_fock_hamiltonian, build_single_particle_hamiltonian
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
    PRESETS,
    ScenarioConfig,
    analyze_probabilities,
    list_presets,
    parse_config,
    preset_config,
    run_scenario,
)

from conftest import N_PAIR

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
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_model_config(tmp_path):
    config = parse_config(write_config(tmp_path, MODEL_CONFIG))
    assert config.model == "effective"
    assert config.params.kappa == 0.95
    assert config.waveguides is None
    assert config.z_max == 8.5


def test_parse_waveguide_config_defaults_zmax_to_length(tmp_path):
    config = parse_config(write_config(tmp_path, WAVEGUIDE_CONFIG))
    assert config.waveguides.shape == "square-15x15"
    assert config.z_max == 2.5
    params = config.resolve_params()
    assert params.u0 == -4.0 and params.fd == 0.0


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


def test_scenario_config_validation(pair_params):
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(model="fock", z_max=1.0)  # no parameter source
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(model="warp", z_max=1.0, params=pair_params)
    config = ScenarioConfig(model="fock", z_max=1.0, params=pair_params)
    assert config.resolve_excitation(15) == (7, 7)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(
            model="fock", z_max=1.0, params=pair_params, excitation=(20, 7)
        ).resolve_excitation(15)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(
            model="single", z_max=1.0, params=pair_params, excitation=(3, 4)
        ).resolve_excitation(15)


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
    z, probs, kind = load_trajectory_csv(str(out / "trajectory.csv"))
    assert kind == "chain"
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_pair_csv_round_trip(tmp_path):
    config = preset_config("fig3c-bh-only")
    run_scenario(config, out_dir=str(tmp_path / "a"))
    z, probs, kind = load_trajectory_csv(str(tmp_path / "a" / "trajectory.csv"))
    assert kind == "pair"
    assert probs.shape == (z.size, N_PAIR * N_PAIR)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


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
    z, probs, _ = load_trajectory_csv(str(tmp_path / "off" / "trajectory.csv"))
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
    amp = np.full(dim, 1.0 / 4.0, dtype=complex)
    traj = Trajectory(
        np.array([0.0, 1.0]), np.vstack([amp, amp]), "uniform"
    )
    image = normalize(probability_image(traj.probabilities, "1d-vs-z"), "global")
    assert np.all(image == 1.0)


def test_delta_state_single_bright_pixel():
    n = 5
    h = build_single_particle_hamiltonian(n, 0.0, 0.3)  # kappa = 0: nothing moves
    traj = propagate(h, StateVector.delta(n, 2), 1.0, 0.5)
    image = normalize(probability_image(traj.probabilities, "1d-vs-z"), "per-column")
    first = np.rint(image[:, 0] * 65535)
    assert first[2] == 65535
    assert np.count_nonzero(first) == 1


def test_full_2d_slice_brightest_at_excitation(fig4a_run, tmp_path):
    _, out = fig4a_run
    z, probs, kind = load_trajectory_csv(str(out / "trajectory.csv"))
    image = probability_image(probs, "full-2d-slice", z_samples=z, z=6.5)
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


def test_cli_exit_code_missing_out(tmp_path, capsys):
    config_path = write_config(tmp_path, MODEL_CONFIG)
    assert main(["run", config_path]) == 2


def test_cli_exit_code_resource_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACBLOCH_DIM_CAP", "100")
    config_path = write_config(tmp_path, WAVEGUIDE_CONFIG)
    assert main(["run", config_path, "--out", str(tmp_path / "x")]) == 3
    assert "100" in capsys.readouterr().err


def test_cli_exit_code_bad_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRACBLOCH_DIM_CAP", "many")
    config_path = write_config(tmp_path, MODEL_CONFIG)
    assert main(["run", config_path, "--out", str(tmp_path / "x")]) == 2


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


def test_cli_render_rejects_incompatible_axis(fig4b_run, capsys):
    _, out = fig4b_run
    rc = main(["render", str(out / "trajectory.csv"), "--axis", "diagonal-vs-z"])
    assert rc == 2  # chain trajectories have no pair-lattice diagonal
    assert "square" in capsys.readouterr().err


def test_cli_analyze_out_file(fig4b_run, tmp_path, capsys):
    _, out = fig4b_run
    target = tmp_path / "analysis.json"
    assert main(["analyze", str(out / "trajectory.csv"), "--out", str(target)]) == 0
    assert json.loads(target.read_text())["kind"] == "chain"


#: analyze output fields that the run's summary.json also carries.
SHARED_FIELDS = (
    "norm_max_deviation", "truncated", "diagonal_confinement",
    "breathing_width", "refocus",
)


def _preset_trajectory(config):
    params = config.resolve_params()
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
    in_memory = analyze_probabilities(traj.z_samples, traj.probabilities, kind)
    assert {key: in_memory[key] for key in shared} == shared

    # the CSV round trip keeps 12 significant digits
    assert main(["analyze", str(tmp_path / "trajectory.csv")]) == 0
    reloaded = json.loads(capsys.readouterr().out)
    assert reloaded["kind"] == kind
    _assert_close_tree({key: reloaded[key] for key in shared}, shared, 1e-9)


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

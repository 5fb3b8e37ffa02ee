"""The CSV writers against a row-by-row oracle: the same bytes, edge values included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbloch.observables import ObservableSeries, Populations
from fracbloch.scenario import write_series_csv, write_trajectory_csv

_ORACLE_FMT = "{:.12e}"

#: Probabilities whose text is easy to get wrong: signed zero, the smallest
#: subnormal, one, and a value that rounds up to 1.000000000000e+00.
EDGE_VALUES = (0.0, -0.0, 5e-324, 1.0, 0.99999999999995)


def oracle_write_series_csv(path, series):
    """One str.format pair and one write per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z_cm,value\n")
        for z, v in zip(series.z_samples, series.values):
            fh.write(f"{_ORACLE_FMT.format(z)},{_ORACLE_FMT.format(v)}\n")


def oracle_write_trajectory_csv(path, traj, model, n_sites):
    """Long form for the pair lattice, wide for chains, one row per write."""
    probs = traj.probabilities
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if model == "fock":
            fh.write("z_cm,n,m,probability\n")
            for k, z in enumerate(traj.z_samples):
                zs = _ORACLE_FMT.format(z)
                row = probs[k]
                for n in range(n_sites):
                    base = n * n_sites
                    for m in range(n_sites):
                        fh.write(f"{zs},{n},{m},{_ORACLE_FMT.format(row[base + m])}\n")
        else:
            header = ",".join(f"p{i}" for i in range(n_sites))
            fh.write(f"z_cm,{header}\n")
            for k, z in enumerate(traj.z_samples):
                values = ",".join(_ORACLE_FMT.format(p) for p in probs[k])
                fh.write(f"{_ORACLE_FMT.format(z)},{values}\n")


def assert_trajectory_bytes_match(tmp_path, traj, model, n_sites):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_trajectory_csv(str(new), traj, model, n_sites)
    oracle_write_trajectory_csv(str(old), traj, model, n_sites)
    assert new.read_bytes() == old.read_bytes()


def assert_series_bytes_match(tmp_path, series):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_series_csv(str(new), series)
    oracle_write_series_csv(str(old), series)
    assert new.read_bytes() == old.read_bytes()


def test_fock_trajectory_bytes_match_oracle(tmp_path, pair_trajectory):
    n_sites = 15
    assert pair_trajectory.probabilities.shape[1] == n_sites * n_sites
    assert_trajectory_bytes_match(tmp_path, pair_trajectory, "fock", n_sites)


def test_chain_trajectory_bytes_match_oracle(tmp_path, single_trajectory):
    n_sites = single_trajectory.probabilities.shape[1]
    assert_trajectory_bytes_match(tmp_path, single_trajectory, "single", n_sites)


@pytest.mark.parametrize("model, n_sites", [("fock", 3), ("single", 9)])
def test_edge_values_bytes_match_oracle(tmp_path, model, n_sites):
    dim = n_sites * n_sites if model == "fock" else n_sites
    probs = np.resize(np.array(EDGE_VALUES), (4, dim))
    z = np.array([-0.0, 5e-324, 0.99999999999995, 8.5])
    assert_trajectory_bytes_match(tmp_path, Populations(z, probs), model, n_sites)
    text = (tmp_path / "new.csv").read_text(encoding="utf-8")
    assert "-0.000000000000e+00" in text and "4.940656458412e-324" in text
    assert "1.000000000000e+00" in text and "9.99999999999" not in text


def test_series_with_nan_bytes_match_oracle(tmp_path):
    values = np.array([np.nan, 1.0, -0.0, 5e-324, 0.99999999999995, np.nan])
    series = ObservableSeries(np.linspace(0.0, 0.5, values.size), values, "width")
    assert_series_bytes_match(tmp_path, series)
    assert (tmp_path / "new.csv").read_text(encoding="utf-8").count(",nan\n") == 2


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["fock", "single"]),
    n_sites=st.integers(1, 4),
    samples=st.integers(1, 3),
    data=st.data(),
)
def test_random_arrays_bytes_match_oracle(tmp_path_factory, model, n_sites, samples, data):
    dim = n_sites * n_sites if model == "fock" else n_sites
    probs = data.draw(arrays(np.float64, (samples, dim), elements=finite_or_not))
    z = data.draw(arrays(np.float64, samples, elements=finite_or_not))
    tmp_path = tmp_path_factory.mktemp("random")
    assert_trajectory_bytes_match(tmp_path, Populations(z, probs), model, n_sites)
    series = ObservableSeries(np.arange(samples) * 0.1, probs[:, 0], "random")
    assert_series_bytes_match(tmp_path, series)

"""Waveguide-geometry to model-parameter mapping and the force calibration."""

import math

import numpy as np
import pytest

from fracbloch import (
    CouplingCalibration,
    ForceCalibration,
    InvalidParameterError,
    StateVector,
    WaveguideArraySpec,
    breathing_width,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    find_refocus,
    project_single_particle_radius,
    propagate,
    return_probability,
    waveguide_to_model,
)
from fracbloch.photonics import DEFAULT_FORCE_CALIBRATION, curvature_to_force

from conftest import assembled_pair_terms, dense_entries


def square_spec(bend_radius=math.inf, detuning=-4.0, length=2.5, **kwargs):
    return WaveguideArraySpec(
        shape="square-15x15",
        spacing_d=19.0,
        bend_radius=bend_radius,
        length_l=length,
        detuning_db=detuning,
        **kwargs,
    )


def linear_spec(bend_radius, n=23, spacing=19.0):
    return WaveguideArraySpec(
        shape=f"linear-{n}",
        spacing_d=spacing,
        bend_radius=bend_radius,
        length_l=8.5,
        detuning_db=0.0,
    )


CAL = CouplingCalibration()


def test_straight_array_maps_to_measured_rates():
    params = waveguide_to_model(square_spec(), CAL)
    assert params.kappa == 0.95
    assert params.rho == 0.3
    assert params.u0 == -4.0
    assert params.fd == 0.0
    assert params.kappa1 == params.kappa
    assert params.n_sites == 15
    assert params.near_diagonal_defect() == 0.0


def test_zero_detuning_gives_factorizing_map():
    params = waveguide_to_model(square_spec(detuning=0.0), CAL)
    assert params.u0 == 0.0
    assert params.rho == 0.0
    h2 = assembled_pair_terms(build_fock_hamiltonian(params))
    h1 = dense_entries(build_single_particle_hamiltonian(15, params.kappa, params.fd))
    eye = np.eye(15)
    assert np.array_equal(h2, np.kron(h1, eye) + np.kron(eye, h1))


def test_bent_array_force_calibrated():
    params = waveguide_to_model(square_spec(bend_radius=400.0, length=8.5), CAL)
    assert params.fd == pytest.approx(math.pi / 6.5, rel=1e-12)
    assert params.fd == pytest.approx(0.4833, abs=5e-5)


def test_curvature_examples():
    assert curvature_to_force(square_spec(bend_radius=math.inf)) == 0.0
    fd_400 = curvature_to_force(square_spec(bend_radius=400.0))
    assert fd_400 == pytest.approx(math.pi / 6.5, rel=1e-12)
    fd_200 = curvature_to_force(square_spec(bend_radius=200.0))
    assert fd_200 == pytest.approx(2 * fd_400, rel=1e-12)


def test_curvature_homogeneous_in_radius():
    for mode in (False, True):
        values = [
            curvature_to_force(square_spec(bend_radius=r), first_principles=mode) * r
            for r in (100.0, 400.0, 1234.5)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)


def test_calibrated_mode_requires_calibration():
    with pytest.raises(InvalidParameterError):
        curvature_to_force(square_spec(bend_radius=400.0), calibration=None)


def test_projection_identity():
    assert project_single_particle_radius(400.0) == pytest.approx(565.685, abs=1e-3)
    assert project_single_particle_radius(1.0) == pytest.approx(math.sqrt(2), rel=1e-15)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(InvalidParameterError):
            project_single_particle_radius(bad)


def test_projected_radius_matches_pair_tilt():
    # the linear array at R' = R sqrt(2) feels half the pair's diagonal
    # tilt step 2 fd, i.e. exactly fd of the square array at R
    r = 400.0
    fd_pair = curvature_to_force(square_spec(bend_radius=r))
    fd_single = curvature_to_force(linear_spec(project_single_particle_radius(r)))
    assert fd_single == pytest.approx(0.5 * (2 * fd_pair), rel=1e-12)
    # and the same identity holds in first-principles mode, exactly
    fp_pair = curvature_to_force(square_spec(bend_radius=r), first_principles=True)
    fp_single = curvature_to_force(
        linear_spec(project_single_particle_radius(r)), first_principles=True
    )
    assert fp_single == pytest.approx(fp_pair, rel=1e-14)


def test_first_principles_close_to_calibrated():
    # with n_eff = 1.45 the geometric estimate lands within 0.1% of the
    # refocus-calibrated value; it is still documented as approximate
    spec = square_spec(bend_radius=400.0)
    fp = curvature_to_force(spec, first_principles=True)
    pitch_cm = 19.0e-4 / math.sqrt(2.0)
    expected = 2 * math.pi * 1.45 * pitch_cm / (633.0e-7 * 400.0)
    assert fp == pytest.approx(expected, rel=1e-12)
    assert fp == pytest.approx(math.pi / 6.5, rel=1e-3)


def test_spacing_extrapolation():
    with pytest.raises(InvalidParameterError):
        waveguide_to_model(
            WaveguideArraySpec("square-15x15", 21.0, math.inf, 2.5, -4.0), CAL
        )
    cal = CouplingCalibration(decay_gamma=0.2)
    params = waveguide_to_model(
        WaveguideArraySpec("square-15x15", 21.0, math.inf, 2.5, -4.0), cal
    )
    assert params.kappa == pytest.approx(0.95 * math.exp(-0.4), rel=1e-12)
    assert params.rho == 0.3


@pytest.mark.parametrize("detuning", [-4.0, -0.5, 0.0, 2.0])
def test_sign_preservation(detuning):
    params = waveguide_to_model(square_spec(detuning=detuning), CAL)
    assert np.sign(params.u0) == np.sign(detuning)


def test_experiments_mutually_consistent():
    # max-width position of the single-particle run (R', kappa) matches the
    # pair refocus position of the effective run (R, kappa_eff) within 2%
    pair_params = waveguide_to_model(square_spec(bend_radius=400.0, length=8.5), CAL)
    single_params = waveguide_to_model(
        linear_spec(project_single_particle_radius(400.0)), CAL
    )
    pair_traj = propagate(
        build_effective_hamiltonian(pair_params),
        StateVector.delta(15, 7),
        8.5,
        0.01,
    )
    refocus = find_refocus(return_probability(pair_traj, 7), 0.8)
    pair_position = [p for p in refocus.refocus_positions if p > 0][0]
    single_traj = propagate(
        build_single_particle_hamiltonian(23, single_params.kappa, single_params.fd),
        StateVector.delta(23, 11),
        8.5,
        0.01,
    )
    width = breathing_width(single_traj, "1d")
    single_position = float(width.z_samples[np.argmax(width.values)])
    assert abs(single_position - pair_position) / pair_position <= 0.02


def test_spec_shape_parsing_and_validation():
    assert square_spec().kind == "square"
    assert square_spec().n_sites == 15
    assert linear_spec(400.0).kind == "linear"
    assert linear_spec(400.0).n_sites == 23
    with pytest.raises(InvalidParameterError):
        WaveguideArraySpec("square-15x14", 19.0, math.inf, 2.5, 0.0)
    with pytest.raises(InvalidParameterError):
        WaveguideArraySpec("ring-15", 19.0, math.inf, 2.5, 0.0)
    with pytest.raises(InvalidParameterError):
        WaveguideArraySpec("linear-23", -1.0, math.inf, 2.5, 0.0)
    with pytest.raises(InvalidParameterError):
        WaveguideArraySpec("linear-23", 19.0, -5.0, 2.5, 0.0)
    with pytest.raises(InvalidParameterError, match="spacing_d"):
        WaveguideArraySpec("linear-23", math.nan, math.inf, 2.5, 0.0)
    with pytest.raises(InvalidParameterError, match="length_l"):
        WaveguideArraySpec("linear-23", 19.0, math.inf, math.nan, 0.0)
    with pytest.raises(InvalidParameterError, match="wavelength"):
        WaveguideArraySpec("linear-23", 19.0, math.inf, 2.5, 0.0, n_eff=math.nan)


def test_calibration_validation():
    with pytest.raises(InvalidParameterError):
        CouplingCalibration(kappa_ref=0.2, rho_ref=0.3)
    with pytest.raises(InvalidParameterError):
        CouplingCalibration(rho_ref=0.0)
    with pytest.raises(InvalidParameterError):
        ForceCalibration(l_foc=0.0)
    with pytest.raises(InvalidParameterError):
        ForceCalibration(bend_radius=math.inf)
    assert DEFAULT_FORCE_CALIBRATION.l_foc == 6.5

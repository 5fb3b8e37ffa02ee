"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
criteria are asserted exactly as stated, at their stated tolerances; the
measured values are printed either way.

Criteria 2, 3 and the return-probability clause of criterion 1 encode a
stronger pair binding than the model parameters produce (at |u0| = 4 kappa
the pair is only marginally bound, with bound-band weight 0.64), so they
fail honestly with the measured values shown; the propagation behind those
numbers is verified against the closed-form oracle (criterion 5) and an
independent bond enumerator (criterion 7).
"""

import os

import numpy as np
import pytest

from fracbloch import (
    ModelParams,
    StateVector,
    analytic_ws_profile,
    boundary_population,
    breathing_width,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    diagonal_confinement,
    enumerate_fock_bonds,
    find_refocus,
    operator_from_bonds,
    period_from_width_maximum,
    propagate,
    return_probability,
    strongest_interior_peak,
    swap_indices,
    wannier_stark_spacing,
)
from fracbloch.scenario import preset_config, run_scenario

from conftest import FD, KAPPA, N_PAIR, N_SINGLE, RHO, U0


def _criterion(name, clauses):
    ok = all(passed for _, passed in clauses)
    details = "; ".join(f"{text} [{'ok' if p else 'FAIL'}]" for text, p in clauses)
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} :: {details}")
    assert ok, details


def test_criterion_1_frequency_doubling(pair_trajectory, single_trajectory):
    pair_return = return_probability(pair_trajectory, (N_PAIR // 2) * N_PAIR + N_PAIR // 2)
    peak = strongest_interior_peak(pair_return)
    assert peak is not None
    peak_z, peak_value = peak

    single_width = breathing_width(single_trajectory, "1d")
    single_period = period_from_width_maximum(single_width).period_estimate
    single_refocus = find_refocus(
        return_probability(single_trajectory, N_SINGLE // 2), 0.8
    )
    interior_refocus = [p for p in single_refocus.refocus_positions if p > 0]

    ratio = single_period / peak_z  # pair frequency over single frequency

    _criterion(
        "1 (frequency doubling)",
        [
            (f"pair refocus at {peak_z:.3f} cm within 6.5+-0.15", abs(peak_z - 6.5) <= 0.15),
            (f"pair return probability {peak_value:.3f} >= 0.8", peak_value >= 0.8),
            (
                f"single width max at {single_period / 2:.3f} cm within 6.5+-0.15",
                abs(single_period / 2 - 6.5) <= 0.15,
            ),
            (
                f"single has no refocus before 8.5 cm (found {interior_refocus})",
                not interior_refocus,
            ),
            (f"frequency ratio {ratio:.4f} within 2.0+-0.04", abs(ratio - 2.0) <= 0.04),
        ],
    )


def test_criterion_2_effective_model_equivalence(pair_params, pair_trajectory):
    effective = propagate(
        build_effective_hamiltonian(pair_params),
        StateVector.delta(N_PAIR, N_PAIR // 2),
        8.5,
        0.01,
    )
    diag = np.arange(N_PAIR) * N_PAIR + np.arange(N_PAIR)
    pair_diag = np.abs(pair_trajectory.states[:, diag]) ** 2
    effective_pops = np.abs(effective.states) ** 2
    deviation = float(np.max(np.abs(pair_diag - effective_pops)))
    _criterion(
        "2 (effective-model equivalence)",
        [(f"max |c_nn|^2 deviation {deviation:.4f} <= 0.05", deviation <= 0.05)],
    )


def test_criterion_3_bound_state_confinement(pair_trajectory):
    conf = diagonal_confinement(pair_trajectory, N_PAIR)
    k_lmax = int(np.argmin(np.abs(conf.z_samples - 3.25)))
    minimum = float(conf.values.min())
    at_lmax = float(conf.values[k_lmax])
    _criterion(
        "3 (bound-state confinement)",
        [
            (f"confinement min {minimum:.4f} >= 0.9 over [0, 8.5]", minimum >= 0.9),
            (f"confinement {at_lmax:.4f} >= 0.9 at L_max = 3.25", at_lmax >= 0.9),
        ],
    )


def test_criterion_4_pair_tunneling_distinction():
    widths = {}
    for rho in (RHO, 0.0):
        params = ModelParams(kappa=KAPPA, rho=rho, u0=U0, fd=0.0, n_sites=N_PAIR)
        traj = propagate(
            build_fock_hamiltonian(params),
            StateVector.pair_excitation(N_PAIR, N_PAIR // 2, N_PAIR // 2),
            2.5,
            0.01,
        )
        widths[rho] = float(np.nanmax(breathing_width(traj, "2d-diagonal").values))
    ratio = widths[RHO] / widths[0.0]
    target = 0.751 / 0.451
    _criterion(
        "4 (pair-tunneling distinction)",
        [
            (
                f"width ratio {ratio:.4f} within 10% of {target:.4f}",
                abs(ratio - target) / target <= 0.10,
            )
        ],
    )


def test_criterion_5_single_particle_oracle():
    n = 41
    h = build_single_particle_hamiltonian(n, KAPPA, FD)
    traj = propagate(h, StateVector.delta(n, n // 2), 13.0, 0.01)
    edge = float(np.max(boundary_population(traj, "1d").values))
    worst = 0.0
    for z, state in zip(traj.z_samples, traj.states):
        oracle = analytic_ws_profile(KAPPA, FD, z, n // 2)
        worst = max(worst, float(np.max(np.abs(np.abs(state) - oracle))))
    _criterion(
        "5 (single-particle oracle)",
        [
            (f"boundary population {edge:.2e} < 1e-6", edge < 1e-6),
            (f"max per-site magnitude error {worst:.2e} <= 1e-6", worst <= 1e-6),
        ],
    )


def test_criterion_6_wannier_stark_ladder(pair_params):
    h_single = build_single_particle_hamiltonian(41, KAPPA, FD)
    mean_single, _ = wannier_stark_spacing(h_single, 1.0 / 3.0)
    params41 = ModelParams(kappa=KAPPA, rho=RHO, u0=U0, fd=FD, n_sites=41)
    mean_pair, _ = wannier_stark_spacing(build_effective_hamiltonian(params41), 1.0 / 3.0)
    _criterion(
        "6 (Wannier-Stark ladder)",
        [
            (
                f"single spacing {mean_single:.5f} = Fd within 1%",
                abs(mean_single - FD) <= 0.01 * FD,
            ),
            (
                f"effective spacing {mean_pair:.5f} = 2 Fd within 1%",
                abs(mean_pair - 2 * FD) <= 0.02 * FD,
            ),
        ],
    )


def test_criterion_7_invariant_suite(pair_params, pair_trajectory):
    norms = np.sum(np.abs(pair_trajectory.states) ** 2, axis=1)
    unitarity = float(np.max(np.abs(norms - 1.0)))

    h = build_fock_hamiltonian(pair_params)
    swap = swap_indices(N_PAIR)
    traj_sym = propagate(h, StateVector.pair_excitation(N_PAIR, 6, 8), 5.0, 0.05)
    swap_dev = max(
        float(np.max(np.abs(state[swap] - state))) for state in traj_sym.states
    )

    n = 11
    free = ModelParams(kappa=KAPPA, rho=0.0, u0=0.0, fd=FD, n_sites=n)
    pair_free = propagate(
        build_fock_hamiltonian(free),
        StateVector.pair_excitation(n, n // 2, n // 2),
        6.5,
        0.05,
    )
    chain = propagate(
        build_single_particle_hamiltonian(n, KAPPA, FD),
        StateVector.delta(n, n // 2),
        6.5,
        0.05,
    )
    factor_dev = max(
        float(np.max(np.abs(ps - np.einsum("i,j->ij", cs, cs).ravel())))
        for ps, cs in zip(pair_free.states, chain.states)
    )

    bonds, energies = enumerate_fock_bonds(pair_params)
    builder_equal = np.array_equal(
        build_fock_hamiltonian(pair_params).entries,
        operator_from_bonds(N_PAIR, bonds, energies),
    )

    _criterion(
        "7 (invariant suite)",
        [
            (f"unitarity {unitarity:.2e} <= 1e-12", unitarity <= 1e-12),
            (f"swap-symmetry preservation {swap_dev:.2e} <= 1e-10", swap_dev <= 1e-10),
            (f"u0=0 factorization {factor_dev:.2e} <= 1e-8", factor_dev <= 1e-8),
            ("builder equals bond enumerator entrywise", builder_equal),
        ],
    )


@pytest.mark.parametrize("preset", ["fig3c-bh-only", "fig4b-single-bo"])
def test_criterion_8_determinism(tmp_path, preset):
    config = preset_config(preset)
    run_scenario(config, out_dir=str(tmp_path / "one"))
    run_scenario(config, out_dir=str(tmp_path / "two"))
    mismatched = [
        name
        for name in sorted(os.listdir(tmp_path / "one"))
        if (tmp_path / "one" / name).read_bytes()
        != (tmp_path / "two" / name).read_bytes()
    ]
    _criterion(
        f"8 (determinism, {preset})",
        [(f"byte-identical reruns (mismatched: {mismatched})", not mismatched)],
    )

"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
criteria are asserted exactly as stated, at their stated tolerances; the
measured values are printed either way.

At kappa = 0.95, rho = 0.3, u0 = -4 only W = 0.856 of the doublon lies in
the bound band (closed form, ``reference.bound_pair_weights``). That band,
[-5.97, -3.4], reaches above the continuum edge -4 kappa = -3.8, so the rest
of the light leaves the pair. Criterion 1's return clause is checked against
W^2 = 0.733: at the pair period the bound band refocuses exactly (its rungs
are 2 Fd apart) while the unbound light is at half its own period. The
tolerance is the 0.05 population tolerance of criterion 2.

Criteria 2 and 3 encode a stronger binding than these parameters give, so
they fail honestly with the measured values shown:

* criterion 3 asks for 0.9 on the diagonal, but only 0.856 is bound. The
  bound part's diagonal weight C(z) = mean_K w(K) w(K + 2 Fd z) is 0.728 at
  L_max (measured 0.709); the early dip (0.618 at z = 0.56 cm), where bound
  and unbound light interfere as they separate, is outside the closed form.
* criterion 2's second-order chain (kappa_eff = 0.751) has bandwidth 3.005,
  17% wider than the exact bound band's E(pi) - E(0) = 2.567 (measured
  deviation 0.30).

The propagation behind these numbers is verified against the closed-form
oracle (criterion 5) and an independent bond enumerator (criterion 7).
"""

import os

import numpy as np
import pytest

from fracbloch import (
    ModelParams,
    StateVector,
    boundary_population,
    breathing_width,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    diagonal_confinement,
    find_refocus,
    propagate,
    return_probability,
    swap_indices,
)
from fracbloch.observables import period_from_width_maximum, strongest_interior_peak
from fracbloch.reference import (
    analytic_ws_profile,
    bound_pair_weights,
    enumerate_fock_bonds,
    operator_from_bonds,
)
from fracbloch.scenario import preset_config, run_scenario

from conftest import (
    FD,
    KAPPA,
    N_PAIR,
    N_SINGLE,
    RHO,
    U0,
    amplitude_rows,
    assembled_pair_terms,
    wannier_stark_spacing,
)


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

    # at the pair period the bound band refocuses exactly (rungs 2 Fd apart)
    # while the unbound light sits at half its own period, so the return
    # probability is the bound-band weight squared
    weight = float(np.mean(bound_pair_weights(KAPPA, RHO, U0, 64)))
    revival = weight**2

    _criterion(
        "1 (frequency doubling)",
        [
            (f"pair refocus at {peak_z:.3f} cm within 6.5+-0.15", abs(peak_z - 6.5) <= 0.15),
            (
                f"pair return probability {peak_value:.3f} within 0.05 of "
                f"W^2 = {revival:.3f} (bound-band weight W = {weight:.4f})",
                abs(peak_value - revival) <= 0.05,
            ),
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
    pair_diag = pair_trajectory.probabilities[:, diag]
    effective_pops = effective.probabilities
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
    for z, probs in zip(traj.z_samples, traj.probabilities):
        oracle = analytic_ws_profile(KAPPA, FD, z, n // 2)
        worst = max(worst, float(np.max(np.abs(np.sqrt(probs) - oracle))))
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
    norms = np.sum(pair_trajectory.probabilities, axis=1)
    unitarity = float(np.max(np.abs(norms - 1.0)))

    h = build_fock_hamiltonian(pair_params)
    swap = swap_indices(N_PAIR)
    psi_sym = StateVector.pair_excitation(N_PAIR, 6, 8)
    traj_sym = propagate(h, psi_sym, 5.0, 0.05)
    swap_dev = max(
        float(np.max(np.abs(state[swap] - state)))
        for state in amplitude_rows(h, psi_sym, traj_sym.z_samples)
    )

    n = 11
    free = ModelParams(kappa=KAPPA, rho=0.0, u0=0.0, fd=FD, n_sites=n)
    h_free = build_fock_hamiltonian(free)
    psi_free = StateVector.pair_excitation(n, n // 2, n // 2)
    pair_free = propagate(h_free, psi_free, 6.5, 0.05)
    h_chain = build_single_particle_hamiltonian(n, KAPPA, FD)
    psi_chain = StateVector.delta(n, n // 2)
    chain = propagate(h_chain, psi_chain, 6.5, 0.05)
    factor_dev = max(
        float(np.max(np.abs(ps - np.einsum("i,j->ij", cs, cs).ravel())))
        for ps, cs in zip(
            amplitude_rows(h_free, psi_free, pair_free.z_samples),
            amplitude_rows(h_chain, psi_chain, chain.z_samples),
        )
    )

    bonds, energies = enumerate_fock_bonds(pair_params)
    builder_equal = np.array_equal(
        assembled_pair_terms(build_fock_hamiltonian(pair_params)),
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

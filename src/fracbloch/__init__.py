"""Fractional Bloch oscillations of interacting boson pairs in photonic lattices.

Desk-scale simulator for a pair of interacting bosons on a tilted chain,
mapped to a single particle on a defect-engineered square lattice, together
with the single-particle and effective bound-pair models and the mapping to
femtosecond-written waveguide arrays. The independent oracles live in
:mod:`fracbloch.reference`, the scenario runner in :mod:`fracbloch.scenario`.
"""

from .errors import DimensionCapError, FracblochError, InvalidParameterError, NumericError
from .model import (
    HermitianOperator,
    ModelParams,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    flatten_index,
    kappa_eff,
    swap_indices,
)
from .observables import (
    boundary_population,
    breathing_width,
    diagonal_confinement,
    find_refocus,
    participation_ratio,
)
from .photonics import (
    CouplingCalibration,
    ForceCalibration,
    WaveguideArraySpec,
    project_single_particle_radius,
    waveguide_to_model,
)
from .propagator import SpectralPropagator, StateVector, Trajectory, propagate, return_probability

__all__ = [
    "FracblochError", "InvalidParameterError", "DimensionCapError", "NumericError",
    "ModelParams", "HermitianOperator", "build_single_particle_hamiltonian",
    "build_fock_hamiltonian", "build_effective_hamiltonian", "kappa_eff",
    "flatten_index", "swap_indices",
    "WaveguideArraySpec", "CouplingCalibration", "ForceCalibration",
    "waveguide_to_model", "project_single_particle_radius",
    "StateVector", "SpectralPropagator", "Trajectory", "propagate",
    "return_probability", "diagonal_confinement", "breathing_width",
    "participation_ratio", "boundary_population", "find_refocus",
]

__version__ = "0.1.0"

"""Fractional Bloch oscillations of interacting boson pairs in photonic lattices.

Desk-scale simulator for a pair of interacting bosons on a tilted chain,
mapped to a single particle on a defect-engineered square lattice, together
with the single-particle and effective bound-pair models and the mapping to
femtosecond-written waveguide arrays.
"""

from .errors import (
    ConfigError,
    DimensionCapError,
    FracblochError,
    InvalidParameterError,
    NumericError,
    SingularParameterError,
)
from .model import (
    DEFAULT_DIM_CAP,
    HermitianOperator,
    ModelParams,
    SiteIndex2D,
    build_effective_hamiltonian,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    flatten_index,
    kappa_eff,
    swap_indices,
    unflatten_index,
)
from .observables import (
    ObservableSeries,
    Populations,
    RefocusReport,
    boundary_population,
    breathing_width,
    diagonal_confinement,
    find_refocus,
    frequency_ratio,
    participation_ratio,
    period_from_width_maximum,
    strongest_interior_peak,
    wannier_stark_spacing,
)
from .photonics import (
    CouplingCalibration,
    DEFAULT_FORCE_CALIBRATION,
    ForceCalibration,
    WaveguideArraySpec,
    curvature_to_force,
    project_single_particle_radius,
    waveguide_to_model,
)
from .propagator import (
    SpectralPropagator,
    StateVector,
    Trajectory,
    propagate,
    return_probability,
)
from .reference import (
    BesselOracleParams,
    analytic_ws_amplitude,
    analytic_ws_profile,
    bessel_j,
    bessel_j_all,
    bessel_j_series,
    enumerate_fock_bonds,
    operator_from_bonds,
    two_site_coupler,
    ws_breathing_argument,
)

__version__ = "0.1.0"

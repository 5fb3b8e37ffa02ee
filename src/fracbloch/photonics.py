"""Mapping between waveguide-array geometry and lattice model parameters.

The fabricated quantities are the waveguide spacing d, the circular bend
radius R of the waveguide axes, the propagation-constant detuning of the
main-diagonal guides, and the sample length. Evanescent coupling constants
measured for the spacing play the roles of the hopping rates, the detuning
plays the on-site interaction, and the bend plays the constant force.

The tilt-per-site produced by a bend depends on the site pitch projected on
the bending plane: the square array is rotated 45 degrees so one lattice
step projects to d / sqrt(2) on the bend plane, while the linear comparison
array is bent in its own plane with pitch d. This bookkeeping is what makes
a linear array at R' = R * sqrt(2) feel the same force per site as the
square array's diagonal at R (tested exactly).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InvalidParameterError
from .model import ModelParams

_SHAPE_RE = re.compile(r"^(?:square-(\d+)x(\d+)|linear-(\d+))$")

#: Measured nearest- and second-neighbour couplings at 19 um spacing.
DEFAULT_CALIBRATION_SPACING_UM = 19.0
DEFAULT_KAPPA_REF = 0.95
DEFAULT_RHO_REF = 0.3


@dataclass(frozen=True)
class WaveguideArraySpec:
    """Geometric description of one fabricated array.

    shape is "square-NxN" or "linear-N"; spacing_d in um; bend_radius in cm
    (math.inf for straight guides); length_l in cm; detuning_db in cm^-1,
    applied to the main-diagonal guides (negative = attractive interaction);
    wavelength in nm; n_eff is the dimensionless effective mode index (only
    used by the uncalibrated first-principles force mode).
    """

    shape: str
    spacing_d: float
    bend_radius: float
    length_l: float
    detuning_db: float
    wavelength: float = 633.0
    n_eff: float = 1.45

    def __post_init__(self):
        match = _SHAPE_RE.match(self.shape)
        if match is None:
            raise InvalidParameterError(
                f"shape must be 'square-NxN' or 'linear-N', got {self.shape!r}"
            )
        if match.group(1) is not None and match.group(1) != match.group(2):
            raise InvalidParameterError(f"square shape must be NxN, got {self.shape!r}")
        # the "not (x > 0)" form also rejects NaN
        if not (self.spacing_d > 0):
            raise InvalidParameterError("spacing_d must be positive")
        if not (self.length_l > 0):
            raise InvalidParameterError("length_l must be positive")
        if not (self.bend_radius > 0):
            raise InvalidParameterError("bend_radius must be positive or infinite")
        if not (self.wavelength > 0 and self.n_eff > 0):
            raise InvalidParameterError("wavelength and n_eff must be positive")

    @property
    def kind(self) -> str:
        return "square" if self.shape.startswith("square") else "linear"

    @property
    def n_sites(self) -> int:
        match = _SHAPE_RE.match(self.shape)
        return int(match.group(1) or match.group(3))


def bend_plane_pitch(kind: str, spacing: float) -> float:
    """Per-site pitch of an array of this kind projected on the bending plane."""
    if kind == "square":
        return spacing / math.sqrt(2.0)
    return spacing


@dataclass(frozen=True)
class CouplingCalibration:
    """Evanescent couplings measured at a reference spacing.

    decay_gamma (um^-1), when given, enables single-exponential extrapolation
    of the nearest-neighbour coupling to other spacings; without it, only the
    calibrated spacing is accepted.
    """

    reference_spacing: float = DEFAULT_CALIBRATION_SPACING_UM
    kappa_ref: float = DEFAULT_KAPPA_REF
    rho_ref: float = DEFAULT_RHO_REF
    decay_gamma: float | None = None

    def __post_init__(self):
        if not self.kappa_ref > self.rho_ref > 0:
            raise InvalidParameterError(
                "calibration requires kappa_ref > rho_ref > 0"
            )
        if self.reference_spacing <= 0:
            raise InvalidParameterError("reference_spacing must be positive")


@dataclass(frozen=True)
class ForceCalibration:
    """A measured refocus length pinning the force scale.

    A pair refocus at l_foc (cm) observed on an array of the given shape kind
    and spacing (um) bent at bend_radius (cm) fixes the tilt per site at
    that geometry to pi / l_foc; other geometries scale as 1/R and linearly
    in the bend-plane pitch.
    """

    l_foc: float = 6.5
    bend_radius: float = 400.0
    spacing: float = DEFAULT_CALIBRATION_SPACING_UM
    kind: str = "square"

    def __post_init__(self):
        if self.l_foc <= 0 or self.bend_radius <= 0 or self.spacing <= 0:
            raise InvalidParameterError("calibration lengths must be positive")
        if not math.isfinite(self.bend_radius):
            raise InvalidParameterError("calibration bend radius must be finite")
        if self.kind not in ("square", "linear"):
            raise InvalidParameterError(f"unknown calibration kind {self.kind!r}")


DEFAULT_FORCE_CALIBRATION = ForceCalibration()


def curvature_to_force(
    spec: WaveguideArraySpec,
    calibration: ForceCalibration | None = DEFAULT_FORCE_CALIBRATION,
    *,
    first_principles: bool = False,
) -> float:
    """Tilt energy step per site (cm^-1) produced by the bend.

    Calibrated mode (default) anchors the scale to a measured refocus length
    and is exact in 1/R. First-principles mode evaluates
    2 pi n_eff p / (lambda R) with p the bend-plane pitch; it carries the
    uncertainty of n_eff and is meant for exploration.
    """
    if math.isinf(spec.bend_radius):
        return 0.0
    pitch = bend_plane_pitch(spec.kind, spec.spacing_d)
    if first_principles:
        pitch_cm = pitch * 1e-4
        wavelength_cm = spec.wavelength * 1e-7
        return 2.0 * math.pi * spec.n_eff * pitch_cm / (wavelength_cm * spec.bend_radius)
    if calibration is None:
        raise InvalidParameterError("calibrated force mode needs a calibration point")
    fd_cal = math.pi / calibration.l_foc
    radius_scale = calibration.bend_radius / spec.bend_radius
    pitch_scale = pitch / bend_plane_pitch(calibration.kind, calibration.spacing)
    return fd_cal * radius_scale * pitch_scale


def project_single_particle_radius(r_square: float) -> float:
    """Bend radius for the linear comparison array: R' = R * sqrt(2).

    Projecting the square array's diagonal bend onto one lattice axis keeps
    the force per site equal for the single-particle reference experiment.
    """
    if not (r_square > 0 and math.isfinite(r_square)):
        raise InvalidParameterError("r_square must be finite and positive")
    return r_square * math.sqrt(2.0)


def waveguide_to_model(
    spec: WaveguideArraySpec,
    cal: CouplingCalibration,
    force_calibration: ForceCalibration | None = DEFAULT_FORCE_CALIBRATION,
    *,
    first_principles_force: bool = False,
) -> ModelParams:
    """Translate a fabricated array into lattice model parameters.

    kappa comes from the coupling calibration (exponentially extrapolated in
    spacing when a decay constant is supplied), u0 from the diagonal
    detuning, and fd from the bend via :func:`curvature_to_force`. kappa1
    equals kappa and the near-diagonal defect is zero: neither correction is
    fabricated. The pair cross-coupling applies only when the array actually
    simulates an interaction (detuning != 0); the non-interacting map is the
    plain factorized lattice.
    """
    if spec.spacing_d == cal.reference_spacing:
        kappa = cal.kappa_ref
    elif cal.decay_gamma is not None:
        kappa = cal.kappa_ref * math.exp(
            -cal.decay_gamma * (spec.spacing_d - cal.reference_spacing)
        )
    else:
        raise InvalidParameterError(
            f"spacing {spec.spacing_d} um differs from the calibrated "
            f"{cal.reference_spacing} um and no decay_gamma was given"
        )
    rho = cal.rho_ref if spec.detuning_db != 0.0 else 0.0
    fd = curvature_to_force(
        spec, force_calibration, first_principles=first_principles_force
    )
    return ModelParams(
        kappa=kappa,
        rho=rho,
        u0=spec.detuning_db,
        fd=fd,
        n_sites=spec.n_sites,
        kappa1=kappa,
    )

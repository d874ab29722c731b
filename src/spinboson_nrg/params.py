"""Parameter translation from the dissipative two-level system to the
anisotropic Kondo model, plus analytic reference quantities.

Units: the conduction band half-bandwidth D0 is the energy unit, so the flat
density of states is rho0 = 1/2, and the bath cutoff is the constant
OMEGA_C = 2*D0.  The Wilson chain has no other scale, so a point is fixed by
the dimensionless alpha, eps/Delta and Delta/wc alone.  The level asymmetry
is accepted as the ratio eps/Delta and converted to an absolute energy
internally.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

# bath cutoff wc in D0 units
OMEGA_C = 2.0


class DomainError(ValueError):
    """Input outside the supported parameter domain."""


@dataclass(frozen=True)
class SpinBosonPoint:
    """One physical input point (alpha, eps/Delta, Delta/wc)."""

    alpha: float
    epsilon: float       # eps / Delta, dimensionless
    delta_ratio: float   # Delta / wc, dimensionless

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(
                f"unsupported dissipation sector: alpha={self.alpha} not in (0, 1)"
            )
        if not 0.0 < self.delta_ratio <= 0.1:
            raise DomainError(
                f"delta_ratio={self.delta_ratio} not in (0, 0.1]; the coupling"
                " correspondence holds only to lowest order in Delta/wc"
            )
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon={self.epsilon} must be finite and >= 0")

    @property
    def delta_abs(self) -> float:
        """Bare tunneling amplitude in D0 units."""
        return self.delta_ratio * OMEGA_C

    @property
    def epsilon_abs(self) -> float:
        """Level asymmetry in D0 units."""
        return self.epsilon * self.delta_abs


@dataclass(frozen=True)
class KondoParams:
    """Dimensionless Kondo couplings in half-bandwidth units."""

    rho0_jperp: float
    rho0_jpar: float
    field: float               # local Zeeman energy g*muB*h in D0 units

    def __post_init__(self):
        for name in ("rho0_jperp", "rho0_jpar", "field"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name}={getattr(self, name)} must be finite")
        if self.rho0_jpar <= 0.0:
            raise DomainError(
                f"rho0_jpar={self.rho0_jpar} must be > 0 (antiferromagnetic sector)"
            )
        if self.rho0_jperp <= 0.0:
            raise DomainError(f"rho0_jperp={self.rho0_jperp} must be > 0")

    @property
    def in_longitudinal_sector(self) -> bool:
        """rho0*J_perp < |rho0*J_par|, where the coupling map is controlled."""
        return self.rho0_jperp < abs(self.rho0_jpar)

    @property
    def jperp(self) -> float:
        """Transverse coupling in D0 units (rho0 = 1/2 per spin)."""
        return 2.0 * self.rho0_jperp

    @property
    def jpar(self) -> float:
        """Longitudinal coupling in D0 units."""
        return 2.0 * self.rho0_jpar


def map_to_kondo(p: SpinBosonPoint) -> KondoParams:
    """Translate a spin-boson point to Kondo couplings.

    The scattering phase shift delta = (pi/2)(sqrt(alpha) - 1) is taken on the
    branch (-pi/2, 0), the unique branch with antiferromagnetic J_par for
    alpha < 1.  With wc = 2*D0 the transverse coupling equals the tunneling
    amplitude, J_perp = Delta.
    """
    delta = 0.5 * math.pi * (math.sqrt(p.alpha) - 1.0)
    rho0_jpar = -4.0 / math.pi * math.tan(delta)
    k = KondoParams(
        rho0_jperp=p.delta_ratio,
        rho0_jpar=rho0_jpar,
        field=p.epsilon_abs,
    )
    if not k.in_longitudinal_sector:
        warnings.warn(
            f"rho0_jperp={k.rho0_jperp:.4g} >= rho0_jpar={k.rho0_jpar:.4g}:"
            " outside the longitudinal sector, the parameter correspondence"
            " is no longer controlled",
            UserWarning,
            stacklevel=_caller_stacklevel(),
        )
    return k


def _caller_stacklevel() -> int:
    """The warnings stacklevel, seen from the function that calls this one,
    of the first frame outside this package: the line that called the solver.
    Where only interpreter frames (runpy's, or frozen ones) lie outside, as
    under `python -m spinboson_nrg`, it is the outermost package frame."""
    package = os.path.dirname(os.path.abspath(__file__)) + os.sep
    frame, level = sys._getframe(1), 1
    while frame.f_back and os.path.abspath(frame.f_code.co_filename).startswith(package):
        frame, level = frame.f_back, level + 1
    outer = frame
    while outer and (
        outer.f_globals.get("__name__") == "runpy"
        or outer.f_code.co_filename.startswith("<frozen")
    ):
        outer = outer.f_back
    return level if outer else level - 1


def log_renormalized_tunneling(p: SpinBosonPoint) -> float:
    """ln Delta_r = ln wc + ln(Delta/wc) / (1 - alpha), finite for every point.

    Delta_r = wc * (Delta/wc)^(1/(1-alpha)) is the crossover (Kondo) scale
    that sets the iteration depth needed for convergence; it collapses as
    alpha -> 1, so the depth is computed from its logarithm.
    """
    return math.log(OMEGA_C) + math.log(p.delta_ratio) / (1.0 - p.alpha)


def renormalized_tunneling(p: SpinBosonPoint) -> float:
    """Delta_r itself; 0.0 once it falls below the float range."""
    return math.exp(log_renormalized_tunneling(p))


def noninteracting_reference(delta: float, epsilon: float) -> tuple[float, float]:
    """Ground-state (sx, sz) of the isolated two-level system.

    Returns (Delta, eps)/sqrt(eps^2 + Delta^2); the pair has unit norm.
    """
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    if epsilon < 0.0:
        raise DomainError("epsilon must be >= 0")
    r = math.hypot(delta, epsilon)
    return delta / r, epsilon / r

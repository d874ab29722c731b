"""Logarithmic discretization of a flat conduction band onto a hopping chain.

The dimensionless coefficients

    xi_n = (1 - Lambda^(-n-1)) / sqrt((1 - Lambda^(-2n-1)) (1 - Lambda^(-2n-3)))

increase monotonically toward 1.  The exact tridiagonalization of the
discretized flat band with density of states 1/2 per spin carries a constant
band-edge factor (1 + 1/Lambda)/2 on every hopping, so in D0 units

    t_n = (1 + 1/Lambda)/2 * xi_n * Lambda^(-n/2).

Omitting the band-edge factor would make the chain represent a band of
half-width 2*Lambda/(Lambda + 1) instead of 1, shifting every effective
coupling by a Lambda-dependent amount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DomainError


@dataclass(frozen=True)
class WilsonChain:
    lam: float
    band_edge: float
    xi: np.ndarray
    hop: np.ndarray

    @property
    def length(self) -> int:
        return len(self.xi)

    def coupling(self, n: int) -> float:
        """Rescaled hopping added at iteration n+1: t_n * Lambda^(n/2)."""
        return self.band_edge * float(self.xi[n])


def build_chain(lam: float, n_max: int) -> WilsonChain:
    """Coefficients xi_n and hoppings t_n for n = 0 .. n_max-1."""
    if not 1.0 < lam < np.inf:
        raise DomainError(
            f"discretization parameter lambda={lam} must be finite and exceed 1"
        )
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    n = np.arange(n_max, dtype=float)
    xi = (1.0 - lam ** -(n + 1)) / np.sqrt(
        (1.0 - lam ** -(2 * n + 1)) * (1.0 - lam ** -(2 * n + 3))
    )
    band_edge = 0.5 * (1.0 + 1.0 / lam)
    hop = band_edge * xi * lam ** (-n / 2.0)
    xi.flags.writeable = False
    hop.flags.writeable = False
    return WilsonChain(lam=lam, band_edge=band_edge, xi=xi, hop=hop)


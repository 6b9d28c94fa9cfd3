"""Ideal-gas relations and the 3-rarefaction structure in one dimension.

The gas here is the monatomic-type model with gas constant R = 2/3 and
internal energy e = theta, so that

    p = (2/3) rho theta = k0 rho^(5/3) exp(S),   k0 = 1/(2 pi e).

The characteristic family of interest is the fastest one,
lambda3 = u1 + sqrt(dp/drho at fixed S), and the curve of states reachable
from a given left state through a 3-rarefaction keeps the entropy S and the
Riemann invariant u1 - sqrt(15 k0) exp(S/2) rho^(1/3) constant.  Along that
curve lambda3 is an affine function of rho^(1/3), which lets the self-similar
fan be inverted in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GAS_R",
    "K0",
    "GasState",
    "RiemannData",
    "pressure",
    "entropy",
    "sound_speed",
    "lambda3",
    "curve_lift",
    "r3_state",
    "riemann_rarefaction",
    "curve_coefficients",
]

GAS_R = 2.0 / 3.0
K0 = 1.0 / (2.0 * math.pi * math.e)


@dataclass(frozen=True)
class GasState:
    """Pointwise fluid state (rho, u, theta) with positive rho and theta."""

    rho: float
    u: tuple[float, float, float]
    theta: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.rho, self.theta, *self.u)):
            raise ValueError(f"state components must be finite, got {self}")
        if not (self.rho > 0.0):
            raise ValueError(f"density must be positive, got {self.rho}")
        if not (self.theta > 0.0):
            raise ValueError(f"temperature must be positive, got {self.theta}")
        if len(self.u) != 3:
            raise ValueError("velocity must have three components")
        object.__setattr__(self, "u", tuple(float(c) for c in self.u))

    @property
    def u1(self) -> float:
        return self.u[0]

    @classmethod
    def make(cls, rho, u1, theta, u2=0.0, u3=0.0):
        """Convenience constructor from scalar u1 (u2 = u3 = 0 by default)."""
        return cls(float(rho), (float(u1), float(u2), float(u3)), float(theta))


def pressure(s: GasState) -> float:
    """p = (2/3) rho theta."""
    return GAS_R * s.rho * s.theta


def entropy(s: GasState) -> float:
    """Macroscopic entropy S with p = k0 rho^(5/3) exp(S).

    S = -(2/3) ln rho + ln((4/3) pi theta) + 1
    """
    return -(2.0 / 3.0) * math.log(s.rho) + math.log((4.0 / 3.0) * math.pi * s.theta) + 1.0


def sound_speed(s: GasState) -> float:
    """Isentropic sound speed sqrt(dp/drho|_S) = sqrt((10/9) theta)."""
    return math.sqrt((10.0 / 9.0) * s.theta)


def lambda3(s: GasState) -> float:
    """Largest characteristic speed u1 + sqrt((5/3) p / rho)."""
    return s.u1 + sound_speed(s)


def curve_coefficients(left: GasState) -> tuple[float, float, float]:
    """Affine representation of lambda3 along the 3-rarefaction curve.

    Returns (A, B, cstar) such that for states on the curve through ``left``
    with density rho, writing z = rho^(1/3):

        u1     = u1_left + sqrt(15) cstar (z - z_left)
        theta  = (3/2) cstar^2 z^2
        lambda3 = A + B z

    with cstar = sqrt(k0 exp(S_left)) and B = (sqrt(15) + sqrt(5/3)) cstar.
    """
    cstar = math.sqrt(K0 * math.exp(entropy(left)))
    z_left = left.rho ** (1.0 / 3.0)
    b = (math.sqrt(15.0) + math.sqrt(5.0 / 3.0)) * cstar
    a = left.u1 - math.sqrt(15.0) * cstar * z_left
    return a, b, cstar


def curve_lift(left: GasState, z):
    """(rho, u1, theta) on the 3-rarefaction curve through ``left`` at z = rho^(1/3).

    The closed form of :func:`curve_coefficients` for a scalar or an array z;
    no branch check.
    """
    _, _, cstar = curve_coefficients(left)
    u1 = left.u1 + math.sqrt(15.0) * cstar * (z - left.rho ** (1.0 / 3.0))
    return z ** 3, u1, 1.5 * cstar * cstar * z * z


def r3_state(left: GasState, rho: float) -> GasState:
    """State on the 3-rarefaction curve through ``left`` at density ``rho``.

    Entropy and the Riemann invariant u1 - sqrt(15 k0) exp(S/2) rho^(1/3)
    are preserved exactly.  Densities below the left density would be a
    compression, not a 3-rarefaction, and are rejected.
    """
    if rho < left.rho:
        raise ValueError(
            f"rho={rho} below left density {left.rho}: not on the 3-rarefaction branch"
        )
    return GasState.make(*curve_lift(left, rho ** (1.0 / 3.0)))


@dataclass(frozen=True)
class RiemannData:
    """End states of a 3-rarefaction Riemann problem.

    The right state must lie on the 3-rarefaction curve of the left state
    (relative tolerance 1e-10 on entropy and the Riemann invariant), move no
    slower, and carry no transverse velocity.
    """

    left: GasState
    right: GasState

    def __post_init__(self):
        for s, side in ((self.left, "left"), (self.right, "right")):
            if s.u[1] != 0.0 or s.u[2] != 0.0:
                raise ValueError(f"{side} state carries transverse velocity")
        if not (self.right.rho > self.left.rho and self.right.u1 > self.left.u1):
            raise ValueError("right state must have larger density and velocity")
        target = r3_state(self.left, self.right.rho)
        scale = abs(self.left.u1) + math.sqrt(self.left.theta)
        if abs(target.u1 - self.right.u1) > 1e-10 * scale or not math.isclose(
            target.theta, self.right.theta, rel_tol=1e-10
        ):
            raise ValueError("right state is not on the 3-rarefaction curve of left")

    @classmethod
    def from_density(cls, left: GasState, rho_plus: float) -> "RiemannData":
        """Build data with the right state projected exactly onto the curve."""
        return cls(left, r3_state(left, rho_plus))


def riemann_rarefaction(data: RiemannData, xi: float) -> GasState:
    """Self-similar rarefaction fan state at xi = x/t.

    Constant end states outside [lambda3(left), lambda3(right)]; inside the
    fan, the unique curve state whose lambda3 equals xi.
    """
    if xi <= lambda3(data.left):
        return data.left
    if xi >= lambda3(data.right):
        return data.right
    a, b, _ = curve_coefficients(data.left)
    return GasState.make(*curve_lift(data.left, (xi - a) / b))

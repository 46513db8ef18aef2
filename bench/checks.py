"""Independent references and pass/fail checks for the benchmark's outputs.

Everything here is a closed form on the unit ball in R^3, written with the
``math`` module only; nothing imports ``ellipticmc``.

Reference for a solve. For the CLI's Picard loop v_{k+1} = T v_k started
from the constant m_tilde, T v(x) = E^x[exp(int_0^tau q_v(X_s) ds) phi(X_tau)]
with killing rate lam = -q_v. When the rate lies in [lam_lo, lam_hi] and phi
in [phi_lo, phi_hi], monotonicity of the exponential gives

    phi_lo R(|x|; lam_hi) <= T v(x) <= phi_hi R(|x|; lam_lo),

with R(r; lam) = E^x[exp(-lam tau)] = sinh(a r) / (r sinh a), a = sqrt(2 lam).
Using the Lambda interval [m, m_tilde] for every iterate gives the Lambda
bracket; feeding each iterate's bracket into the next rate range narrows it
per iteration (``picard_bracket``), which is the bracket a solve is checked
against. For a rate that does not depend on v (F = lam u) both collapse to
the closed form R(|x|; lam).

Each bracket is widened by 4 sigma of the Monte Carlo estimate plus an
allowance for the Euler-Maruyama step bias, so a sampler without step bias
passes as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

Z_GATE = 4.0          # sigmas of Monte Carlo noise a value may deviate by
NORM_RTOL = 0.01      # quadrature tolerance on the Green-tight norm

RateRange = Callable[[float, float], tuple[float, float]]


def radial_killed(r: float, lam: float) -> float:
    """E^x[exp(-lam tau)] for Brownian motion with generator (1/2) Lap,
    started at |x| = r in the unit ball of R^3."""
    if lam == 0.0:
        return 1.0
    a = math.sqrt(2.0 * lam)
    if r == 0.0:
        return a / math.sinh(a)
    return math.sinh(a * r) / (r * math.sinh(a))


def em_bias_allowance(lam_max: float, phi_hi: float, dt: float) -> float:
    """Bound on the shift of E[exp(-lam tau) phi] caused by detecting the
    exit at the first exterior Euler-Maruyama position.

    That detection acts like a ball enlarged by the mean overshoot, about
    0.58 sqrt(dt) for a Gaussian step; sqrt(dt) is used here. On the unit
    ball |d R(r; lam) / d radius| <= a coth(a) - 1 with a = sqrt(2 lam).
    """
    if lam_max == 0.0:
        return 0.0
    a = math.sqrt(2.0 * lam_max)
    return phi_hi * (a / math.tanh(a) - 1.0) * math.sqrt(dt)


def lambda_bracket(radii: Sequence[float], m: float, m_tilde: float,
                   phi: tuple[float, float], rate: RateRange):
    """Per-radius (lo, hi) that any T v with v in [m, m_tilde] lies in."""
    lam_lo, lam_hi = rate(m, m_tilde)
    return [(phi[0] * radial_killed(r, lam_hi), phi[1] * radial_killed(r, lam_lo))
            for r in radii]


def picard_bracket(radii: Sequence[float], m: float, m_tilde: float,
                   phi: tuple[float, float], rate: RateRange,
                   widths: Sequence[float]):
    """Per-radius (lo, hi) of the last Picard iterate, before noise.

    ``widths[k]`` is how far iterate k+1 may stray from its own bracket
    (noise plus bias); there is one width per iterate before the last. The
    solver clamps every iterate into [m, m_tilde], and so does this bracket.
    """
    lo = hi = m_tilde
    for width in widths if radii else ():
        bracket = lambda_bracket(radii, lo, hi, phi, rate)
        lo = max(m, min(b[0] for b in bracket) - width)
        hi = min(m_tilde, max(b[1] for b in bracket) + width)
    return lambda_bracket(radii, lo, hi, phi, rate)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: the worst error beyond the reference (<= 0
    inside a bracket), that error in sigmas (None for a deterministic
    quantity), and whether it is allowed."""

    name: str
    ok: bool
    error: float
    z: Optional[float]
    detail: str

    def record(self) -> dict:
        return {"name": self.name, "ok": self.ok, "error": self.error,
                "z": self.z, "detail": self.detail}


def check_bracket(name: str, values: Sequence[float], stderrs: Sequence[float],
                  bracket, allowance: float) -> Verdict:
    """Every value must lie in its (lo, hi), widened by Z_GATE stderrs plus
    ``allowance``."""
    if not values:
        return Verdict(name, False, math.inf, math.inf, "no grid values")
    worst, worst_z, ok = -math.inf, -math.inf, True
    for v, s, (lo, hi) in zip(values, stderrs, bracket):
        err = max(lo - v, v - hi)
        ok &= err <= Z_GATE * s + allowance
        worst = max(worst, err)
        worst_z = max(worst_z, err / s if s > 0 else math.copysign(math.inf, err))
    return Verdict(name, ok, worst, worst_z,
                   f"{len(values)} values, allowance {allowance:.4g}")


def check_norm(norm: float, expected: float, rtol: float = NORM_RTOL) -> Verdict:
    """The Green-tight norm must match its closed form within ``rtol``."""
    err = abs(norm - expected)
    return Verdict("green_tight_norm", err <= rtol * expected, err,
                   None, f"{norm:.6g} vs {expected:.6g} (rtol {rtol})")

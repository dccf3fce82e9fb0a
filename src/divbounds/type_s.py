"""Parametric type-s divergence families.

``phi_s`` is the relative information of type s and ``omega_s`` the unified
relative AG/JS divergence of type s; both interpolate the concrete measure
catalog through one real parameter with removable singularities at s = 0
and s = 1.  ``psi_s`` is the convex normalized generator whose f-divergence
equals omega_s, carried with analytic derivatives through order three.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import exp, expm1, fsum, isfinite, log, log1p, pow
from typing import Callable, NoReturn

from .csiszar import GeneratorFunction
from .divergences import (
    relative_ag_divergence,
    relative_information,
    relative_js_divergence,
)
from .simplex import DistributionPair

#: |s| (resp. |s - 1|) at or below this routes to the limit branch.  The
#: generic branch loses significance to cancellation as s(s - 1) -> 0; at
#: this switch point the two branches still agree to well under 1e-6
#: relative.
S_SWITCH = 1e-5


class NonPositiveArgument(ValueError):
    """Generator argument outside (0, inf)."""


class NonFiniteParameter(ValueError):
    """Family parameter s that is NaN, infinite or not a real number."""


class Regime(enum.Enum):
    GENERIC = "generic"
    LIMIT_AT_ZERO = "limit_at_zero"
    LIMIT_AT_ONE = "limit_at_one"


# The members as module names: reading one through its class (an enum
# metaclass lookup) costs about 0.2 us on CPython 3.11 (timeit), a module
# name about 20 ns, and the generator maps compare a regime per call.
_GENERIC, _LIMIT_AT_ZERO, _LIMIT_AT_ONE = Regime


@dataclass(frozen=True)
class SParameter:
    """A finite family parameter, read with ``float`` (-0.0 as 0.0), its
    regime, and ``canonical``: 0, 1 or s, the parameter that is evaluated."""

    s: float
    regime: Regime = field(init=False)
    canonical: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            # both zeros are falsy, so `or` makes each 0.0 and keeps every
            # other float object as it is
            s = float(self.s) or 0.0
        except (TypeError, ValueError, OverflowError) as exc:
            raise NonFiniteParameter(str(exc)) from None
        if not isfinite(s):
            raise NonFiniteParameter(f"s must be finite, got {s!r}")
        regime, canonical = (
            (_LIMIT_AT_ZERO, 0.0) if abs(s) <= S_SWITCH else
            (_LIMIT_AT_ONE, 1.0) if abs(s - 1.0) <= S_SWITCH else
            (_GENERIC, s))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "canonical", canonical)


def _sparam(s: float | SParameter) -> SParameter:
    return s if isinstance(s, SParameter) else SParameter(s)


def _log_ratio(num: float, den: float, diff: float) -> float:
    # log(num/den), num = den + diff: log1p of the exact small difference is
    # accurate near ratio one, but ill-conditioned far from one, where the
    # direct log of the quotient is the accurate form.
    if abs(diff) <= 0.5 * den:
        return log1p(diff / den)
    return log(num / den)


def phi_s(pair: DistributionPair, s: float | SParameter) -> float:
    """Relative information of type s:
    [s(s-1)]^-1 (sum of p^s q^(1-s) - 1), with Kullback-Leibler limits
    K(Q||P) at s = 0 and K(P||Q) at s = 1.  Nonnegative for all real s.
    """
    sp = _sparam(s)
    if sp.regime is _LIMIT_AT_ZERO:
        return relative_information(pair.swapped())
    if sp.regime is _LIMIT_AT_ONE:
        return relative_information(pair)
    sv = sp.s
    # Each term of the "sum minus one" core is p ((q/p)^(1-s) - 1), kept
    # cancellation-free via expm1 so near-equal pairs lose nothing to the
    # trailing subtraction of one.
    core = fsum(p * expm1((1.0 - sv) * _log_ratio(q, p, q - p))
                for p, q in zip(pair.p.values, pair.q.values) if p != q)
    return core / (sv * (sv - 1.0))


def omega_s(pair: DistributionPair, s: float | SParameter) -> float:
    """Unified relative AG/JS divergence of type s:
    [s(s-1)]^-1 (sum of p ((p+q)/(2p))^s - 1), with the directed JS
    divergence as the s = 0 limit and the directed AG divergence at s = 1.
    Nonnegative for all real s.
    """
    sp = _sparam(s)
    if sp.regime is _LIMIT_AT_ZERO:
        return relative_js_divergence(pair)
    if sp.regime is _LIMIT_AT_ONE:
        return relative_ag_divergence(pair)
    sv = sp.s
    core = fsum([p * expm1(sv * _log_ratio(p + q, 2.0 * p, q - p))
                 for p, q in zip(pair.p.values, pair.q.values) if p != q])
    return core / (sv * (sv - 1.0))


def _raise_non_positive(x: float) -> NoReturn:
    # The error for an argument outside (0, inf).  The generator maps run
    # once per component, so each tests its argument inline and calls this
    # only to raise.
    raise NonPositiveArgument(f"argument must be in (0, inf), got {x!r}")


def psi_s(x: float, s: float | SParameter) -> float:
    """Generator of the unified AG/JS family, normalized so psi_s(1) = 0."""
    if not (isfinite(x) and x > 0.0):
        _raise_non_positive(x)
    # _sparam inlined: the generator maps hand an SParameter on every call
    sp = s if isinstance(s, SParameter) else SParameter(s)
    u = (x + 1.0) / (2.0 * x)
    if sp.regime is _LIMIT_AT_ZERO:
        return 0.5 * (1.0 - x) - x * log(u)
    if sp.regime is _LIMIT_AT_ONE:
        return 0.5 * (x - 1.0) + 0.5 * (x + 1.0) * log(u)
    sv = sp.s
    return (x * pow(u, sv) - x - sv * 0.5 * (1.0 - x)) / (sv * (sv - 1.0))


def _psi_d1_kernel(sp: SParameter) -> Callable[[float], float]:
    """psi_s' for one parameter as a closure: the regime is resolved and s,
    s - 1 are bound once, since the generic engine calls it per component."""
    if sp.regime is _LIMIT_AT_ZERO:
        def d1(x: float) -> float:
            if not (isfinite(x) and x > 0.0):
                _raise_non_positive(x)
            return 0.5 * (1.0 - x) / (1.0 + x) - log((x + 1.0) / (2.0 * x))
    elif sp.regime is _LIMIT_AT_ONE:
        def d1(x: float) -> float:
            if not (isfinite(x) and x > 0.0):
                _raise_non_positive(x)
            return 0.5 * (1.0 - 1.0 / x + log((x + 1.0) / (2.0 * x)))
    else:
        sv = sp.s
        sv_m1 = sv - 1.0

        def d1(x: float) -> float:
            if not (isfinite(x) and x > 0.0):
                _raise_non_positive(x)
            lu = log((x + 1.0) / (2.0 * x))
            power_term = expm1(sv * lu) / sv  # (u^s - 1)/s
            return (power_term + 0.5 * (1.0 - exp(sv_m1 * lu) / x)) / sv_m1
    return d1


def psi_s_d1(x: float, s: float | SParameter) -> float:
    """First derivative of psi_s."""
    return _psi_d1_kernel(_sparam(s))(x)


def psi_s_d2(x: float, s: float | SParameter) -> float:
    """Second derivative of psi_s, u^(s-2)/(4x^3) at ``canonical`` in every
    regime; strictly positive on (0, inf), so the whole family is convex.
    The one psi'' formula: generator(s).d2 and delta_omega read it."""
    if not (isfinite(x) and x > 0.0):
        _raise_non_positive(x)
    sp = s if isinstance(s, SParameter) else SParameter(s)
    return 0.25 * ((1.0 / (x * x * x))
                   * pow((x + 1.0) / (2.0 * x), sp.canonical - 2.0))


def psi_s_d3(x: float, s: float | SParameter) -> float:
    """Third derivative of psi_s: one formula for all s, evaluated at s
    itself, not at ``canonical``; nonpositive whenever s >= -1."""
    if not (isfinite(x) and x > 0.0):
        _raise_non_positive(x)
    sp = s if isinstance(s, SParameter) else SParameter(s)
    u = (x + 1.0) / (2.0 * x)
    one_plus = 1.0 + x
    return -(sp.s + 1.0 + 3.0 * x) / (x * x * one_plus ** 3) * pow(u, sp.s)


def generator(s: float | SParameter) -> GeneratorFunction:
    """The unified AG/JS family member as a generic f-divergence generator."""
    sp = _sparam(s)
    return GeneratorFunction(
        fn=lambda x: psi_s(x, sp),
        d1=_psi_d1_kernel(sp),
        d2=lambda x: psi_s_d2(x, sp),
        d3=lambda x: psi_s_d3(x, sp),
        label=f"unified_ag_js[s={sp.s:g}]",
    )


"""Parametric type-s divergence families.

``phi_s`` is the relative information of type s and ``omega_s`` the unified
relative AG/JS divergence of type s; both interpolate the concrete measure
catalog through one real parameter with removable singularities at s = 0
and s = 1.  ``psi_s`` is the convex normalized generator whose f-divergence
equals omega_s, carried with analytic derivatives through order three.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import exp, expm1, fsum, isfinite, log, log1p, pow
from typing import Callable, NoReturn

from .csiszar import GeneratorFunction, _term
from .divergences import (
    relative_ag_divergence,
    relative_information,
    relative_js_divergence,
)
from .simplex import DistributionPair

#: |s| (resp. |s - 1|) at or below this routes to the limit branch.  The
#: generic branch loses significance to cancellation as s(s - 1) -> 0.  The
#: limit branch holds the value at 0 (resp. 1) across the band, so the two
#: do not meet: at the first generic float past the switch, omega and phi
#: on random pairs of dimension 2 to 64 differ from the limit value by up
#: to about 3e-5 relative (ROADMAP item 2).
S_SWITCH = 1e-5


class NonPositiveArgument(ValueError):
    """Generator argument outside (0, inf)."""


class NonFiniteParameter(ValueError):
    """Family parameter s that is NaN, infinite or not a real number."""


@dataclass(frozen=True)
class SParameter:
    """A finite family parameter, read with ``float`` (-0.0 as 0.0), and
    ``canonical``, the parameter that is evaluated: 0.0 or 1.0 within
    S_SWITCH of it (the limit formulas), else s itself (the generic one)."""

    s: float
    canonical: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        try:
            # both zeros are falsy, so `or` makes each 0.0 and keeps every
            # other float object as it is
            s = float(self.s) or 0.0
        except (TypeError, ValueError, OverflowError) as exc:
            raise NonFiniteParameter(str(exc)) from None
        if not isfinite(s):
            raise NonFiniteParameter(f"s must be finite, got {s!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "canonical",
                           0.0 if abs(s) <= S_SWITCH else
                           1.0 if abs(s - 1.0) <= S_SWITCH else s)


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
    if sp.canonical == 0.0:
        return relative_information(pair.swapped())
    if sp.canonical == 1.0:
        return relative_information(pair)
    sv = sp.s
    # Each term of the "sum minus one" core is p ((q/p)^(1-s) - 1), kept
    # cancellation-free via expm1 so near-equal pairs lose nothing to the
    # trailing subtraction of one.
    core = fsum(p * expm1((1.0 - sv) * _log_ratio(q, p, q - p))
                for p, q in zip(pair.p.values, pair.q.values) if p != q)
    return core / (sv * (sv - 1.0))


def _omega_column(pair: DistributionPair) -> list[tuple[float, float]]:
    return [(p, _log_ratio(p + q, 2.0 * p, q - p))
            for p, q in zip(pair.p.values, pair.q.values) if p != q]


def omega_s(pair: DistributionPair, s: float | SParameter) -> float:
    """Unified relative AG/JS divergence of type s:
    [s(s-1)]^-1 (sum of p ((p+q)/(2p))^s - 1), with the directed JS
    divergence as the s = 0 limit and the directed AG divergence at s = 1.
    Nonnegative for all real s.
    """
    sp = _sparam(s)
    if sp.canonical == 0.0:
        return _term(pair, relative_js_divergence)
    if sp.canonical == 1.0:
        return _term(pair, relative_ag_divergence)
    sv = sp.s
    core = fsum([p * expm1(sv * lr) for p, lr in _term(pair, _omega_column)])
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
    if sp.canonical == 0.0:
        return 0.5 * (1.0 - x) - x * log(u)
    if sp.canonical == 1.0:
        return 0.5 * (x - 1.0) + 0.5 * (x + 1.0) * log(u)
    sv = sp.s
    return (x * pow(u, sv) - x - sv * 0.5 * (1.0 - x)) / (sv * (sv - 1.0))


def _psi_d1_kernel(sp: SParameter) -> Callable[[float], float]:
    """psi_s' for one parameter as a closure: the formula is chosen and s,
    s - 1 are bound once, since the generic engine calls it per component."""
    if sp.canonical == 0.0:
        def d1(x: float) -> float:
            if not (isfinite(x) and x > 0.0):
                _raise_non_positive(x)
            return 0.5 * (1.0 - x) / (1.0 + x) - log((x + 1.0) / (2.0 * x))
    elif sp.canonical == 1.0:
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
    """First derivative of psi_s: the kernel that is generator(s).d1."""
    return _generator_parts(_sparam(s).s)[1](x)


def psi_s_d2(x: float, s: float | SParameter) -> float:
    """Second derivative of psi_s, u^(s-2)/(4x^3) at ``canonical`` for every
    s; strictly positive on (0, inf), so the whole family is convex.
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


def _param_label(value: float) -> str:
    """``value`` spelled with ``%g`` where that reads back as the same
    float, else its ``repr``: %g alone spells 0.5000001 as 0.5."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


@functools.lru_cache(maxsize=64)
def _generator_parts(s: float) -> tuple:
    """generator(s)'s callables and label, made once per classified s.  The
    maps look psi_s, psi_s_d2 and psi_s_d3 up as module names when called,
    so a wrapper installed later still sees every call."""
    sp = SParameter(s)
    return (lambda x: psi_s(x, sp), _psi_d1_kernel(sp),
            lambda x: psi_s_d2(x, sp), lambda x: psi_s_d3(x, sp),
            f"unified_ag_js[s={_param_label(s)}]")


def generator(s: float | SParameter) -> GeneratorFunction:
    """The unified AG/JS family member as a generic f-divergence generator,
    built and validated on every call from the parts made once per s."""
    return GeneratorFunction(*_generator_parts(_sparam(s).s))

"""Which 50-digit value each printed divbounds value must equal.

The values themselves come from the repo's extended-precision oracle,
``tests/oracles.py``, which transcribes the defining sums and closed forms
independently of the package.  This module only maps a ``compute`` measure
id, or the (inequality_id, side) of a ``verify`` record, to the oracle
call.  The ratio bounds (r, R) are taken from the binary quotients exactly
as the package forms them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
import oracles as ref  # noqa: E402  (sets mpmath to 50 digits)

#: Relative agreement the package documents for its values.
REL_TOL = 1e-12

_SIMPLE = {
    "chi2": ref.chi2,
    "kl": ref.kl,
    "rel_j": ref.rel_j,
    "rel_js": ref.rel_js,
    "rel_ag": ref.rel_ag,
    "delta": ref.triangular,
    "bhat": ref.bhattacharyya,
    "hellinger": lambda p, q: 1 - ref.bhattacharyya(p, q),
    "psi_sym": lambda p, q: ref.chi2(p, q) + ref.chi2(q, p),
    "j": lambda p, q: ref.kl(p, q) + ref.kl(q, p),
    "i": lambda p, q: (ref.rel_js(p, q) + ref.rel_js(q, p)) / 2,
    "t": lambda p, q: (ref.rel_ag(p, q) + ref.rel_ag(q, p)) / 2,
}

_PARAMETRIC = {"vajda": ref.vajda, "phi": ref.phi, "omega": ref.omega}


def compute_value(p, q, measure: str):
    """Oracle for one ``compute`` record's measure id, such as ``kl`` or
    ``omega:-0.5``."""
    if ":" in measure:
        base, _, arg = measure.partition(":")
        return _PARAMETRIC[base](p, q, float(arg))
    return _SIMPLE[measure](p, q)


def ratio_bounds(p, q) -> tuple[float, float]:
    quotients = [a / b for a, b in zip(p, q)]
    return min(quotients), max(quotients)


def verify_sides(degenerate: bool, s_count: int) -> int:
    """How many sides ``verify_values`` checks on one pair.  With P = Q the
    ratio-interval entries are skipped, leaving the triangular chain and
    ``omega_le_e``."""
    return 3 + 2 * s_count if degenerate else 9 + 4 * s_count


def _pair_level(p, q):
    table = {
        ("tri_half_le_rel_j_swap", "lhs"): lambda: ref.triangular(p, q) / 2,
        ("tri_half_le_rel_j_swap", "rhs"): lambda: ref.rel_j(q, p),
        ("rel_j_swap_le_chi2_swap", "rhs"): lambda: ref.chi2(q, p),
    }
    for m in (1, 2, 3):
        table[(f"abs_chi[m={m}]_le_interval", "lhs")] = (
            lambda m=m: ref.vajda(p, q, m))
        table[(f"power_diff[m={m}]_le_tv_ceiling", "lhs")] = (
            lambda m=m: ref.power_diff(p, q, m))
    return table


def _per_s(p, q, s):
    r, R = ratio_bounds(p, q)
    return {
        ("omega_le_e", "lhs"): lambda: ref.omega(p, q, s),
        ("omega_le_e", "rhs"): lambda: ref.e_omega(p, q, s),
        ("e_le_a", "rhs"): lambda: ref.a_omega(r, R, s),
        ("omega_le_b", "rhs"): lambda: ref.b_omega(r, R, s),
    }


def verify_values(p, q, records):
    """Yield (label, printed value, oracle value) for every sampled side
    of the given ``verify`` records of one pair."""
    pair_table = _pair_level(p, q)
    s_tables = {}
    for rec in records:
        if rec["s"] is None:
            table = pair_table
        else:
            table = s_tables.setdefault(rec["s"], _per_s(p, q, rec["s"]))
        for side in ("lhs", "rhs"):
            fn = table.get((rec["inequality_id"], side))
            if fn is not None and rec[side] is not None:
                label = f"{rec['inequality_id']}[s={rec['s']}].{side}"
                yield label, rec[side], fn()


def agrees(printed: float, exact) -> bool:
    """Printed value within REL_TOL relative of the 50-digit value."""
    return abs(mp.mpf(printed) - exact) <= REL_TOL * abs(exact)

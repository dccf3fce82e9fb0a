"""The known false failures: valid pairs on which ``verify_all`` reports a
``fail`` that floating point, not mathematics, produces: rounding in the
evaluation, or float inputs that ``validate`` accepts although as rationals
they do not sum to one.

Each case is a strict xfail that must fail by its assertion, so a crash is
not taken for the known failure, and the change that mends a case must
remove its marker.  README's "Known false failures" lists the same kinds.
"""

import pytest

from divbounds import DistributionPair, random_pair, validate, verify_all
from divbounds.cli import DEFAULT_S_LIST


def known(reason, pair, s_list=DEFAULT_S_LIST, *, name):
    return pytest.param(pair, s_list, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


def literal(p, q):
    return DistributionPair(validate(p), validate(q))


CASES = [
    # abs_chi[m=3]_le_interval, an equality at n = 2 on the simplex.  On
    # pair-0648 the exact slack of the float inputs is +1.127e-9 and the
    # float slack -1.49e-8: it fails by rounding against the absolute
    # tolerance.  Pair-0885 fails exactly: its inputs sum to 1 + 5.6e-17
    # (P) and 1 + 6.2e-18 (Q) as rationals, fsum reads 1.0 for both, and
    # the exact slack is -2.048e-10 (test_exact.py pins both slacks)
    known("ROADMAP item 3", random_pair(2, 655), name="seed7-pair-0648"),
    known("ROADMAP items 1 and 3", random_pair(2, 2614),
          name="seed1729-pair-0885"),
    # a_closed_form_agrees loses digits to cancellation just outside the
    # band around s = 1
    known("ROADMAP item 2", random_pair(5, 3), (1.00002,),
          name="near-s-one"),
    # five b_closed_form_agrees entries fail at P close to Q
    known("ROADMAP item 13", literal((0.5000001, 0.4999999), (0.5, 0.5)),
          name="p-near-q"),
    # sixteen entries fail on a sum that validate accepts, 1 + 5e-10
    known("ROADMAP item 1", literal((0.3, 0.7000000005), (0.6, 0.4)),
          name="sum-off-one"),
]


@pytest.mark.parametrize("pair, s_list", CASES)
def test_verify_all_passes(pair, s_list):
    report = verify_all(pair, s_list)
    assert report.all_pass, [(e.s, e.inequality_id, e.slack)
                             for e in report.failures]

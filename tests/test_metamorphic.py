"""Metamorphic invariants, bit for bit.

Every sum in the package goes through ``math.fsum``, which is correctly
rounded, so a sum depends on the multiset of its terms and not on their
order.  The ratio interval (r, R) and the third-derivative scan do not
depend on order either.  So permuting the components of P and Q together
changes no bit of any result.  Splitting one component into two equal
halves in both P and Q keeps every ratio p/q.  Each term of an
f-divergence, q f(p/q), then splits into two exact halves wherever the
term scales exactly with p and q, so ``omega_s``, ``phi_s`` and the other
measures of ``compute`` keep every bit too.
"""

import json
import random

import pytest

from divbounds import DistributionPair, random_pair, validate, verify_all
from divbounds.cli import _PARAMETRIC_MEASURES, _SIMPLE_MEASURES, main

DIMENSIONS = (2, 3, 5, 17, 64)

# -3 to 3.7: the limit regimes (0, 1e-6 and 1) and the general branch
# just past the S_SWITCH of 1e-5 (2e-5) and near 1 (0.99)
S_VALUES = (-3.0, -1.0, -0.5, 0.0, 1e-6, 2e-5, 0.5, 0.99, 1.0, 2.0, 3.7)

# 150 pairs, 30 of each dimension
PAIRS = [random_pair(DIMENSIONS[i % len(DIMENSIONS)], 9000 + i)
         for i in range(150)]


def bits(value):
    # float.hex spells NaN as "nan", so two NaNs compare equal
    return value.hex() if isinstance(value, float) else value


def permuted(pair, rng):
    """The pair with the components of P and Q put in one random order."""
    order = list(range(len(pair.p.values)))
    rng.shuffle(order)
    return DistributionPair(*(validate([part.values[i] for i in order])
                              for part in (pair.p, pair.q)))


def split(pair, index):
    """The pair with component ``index`` split into two equal halves in
    both P and Q."""
    return DistributionPair(*(validate(
        part.values[:index] + (0.5 * part.values[index],) * 2
        + part.values[index + 1:]) for part in (pair.p, pair.q)))


def report_bits(pair):
    return [tuple(map(bits, rec))
            for rec in verify_all(pair, S_VALUES, pair_id="x").records]


def test_permutation_keeps_every_verify_all_bit():
    rng = random.Random(1)
    mismatches = [i for i, pair in enumerate(PAIRS)
                  if report_bits(permuted(pair, rng)) != report_bits(pair)]
    assert mismatches == []


# The parameters each parametric measure is split at.  vajda is taken at
# whole orders only: at a fractional m its term |p - q|^m / q^(m - 1)
# halves only up to the rounding of pow.
PARAMETERS = {"omega": S_VALUES, "phi": S_VALUES, "vajda": (1.0, 2.0, 3.0)}


def evaluate(name, pair):
    """The bits of the compute measure ``name`` on the pair, at each of its
    parameters."""
    if name in _SIMPLE_MEASURES:
        return [bits(_SIMPLE_MEASURES[name](pair))]
    measure = _PARAMETRIC_MEASURES[name]
    return [bits(measure(pair, s)) for s in PARAMETERS[name]]


# Every measure compute knows is an f-divergence, sum of q f(p/q).
@pytest.mark.parametrize("name", [*_SIMPLE_MEASURES, *PARAMETERS])
def test_split_component_keeps_every_bit(name):
    rng = random.Random(2)
    mismatches = [
        i for i, pair in enumerate(PAIRS)
        if evaluate(name, split(pair, rng.randrange(len(pair.p.values))))
        != evaluate(name, pair)]
    assert mismatches == []


# Every measure compute knows, its bare parametric names expanded over
# --s-list.
COMPUTE_MEASURES = ("chi2,kl,rel_j,rel_js,rel_ag,delta,bhat,hellinger,"
                    "psi_sym,j,i,t,vajda:1,vajda:2.5,vajda:3,phi,omega")

CLI_RUNS = {
    "verify": ("verify", "--s-list=" + ",".join(map(repr, S_VALUES))),
    "compute": ("compute", "--measures", COMPUTE_MEASURES,
                "--s-list=" + ",".join(map(repr, S_VALUES))),
    "sweep": ("sweep", "--s-min=-3", "--s-max=3.7", "--s-step=0.1"),
}


@pytest.mark.parametrize("command", sorted(CLI_RUNS))
def test_permutation_keeps_cli_output_bytes(tmp_path, command):
    rng = random.Random(3)
    outputs = []
    for side in (PAIRS, [permuted(pair, rng) for pair in PAIRS]):
        doc = {"pairs": [{"id": f"pair-{i}", "p": list(pair.p.values),
                          "q": list(pair.q.values)}
                         for i, pair in enumerate(side)]}
        source = tmp_path / f"in-{len(outputs)}.json"
        target = tmp_path / f"out-{len(outputs)}.jsonl"
        source.write_text(json.dumps(doc))
        code = main([*CLI_RUNS[command], "--input", str(source),
                     "--output", str(target)])
        outputs.append((code, target.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]

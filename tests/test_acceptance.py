"""Acceptance suite: one test per criterion, each printing a pass line.

Golden values are frozen from the independent extended-precision oracle in
oracles.py; criterion 1 re-derives them on the spot so the frozen literals
cannot drift from the oracle.
"""

import json
import math
import time

from divbounds import (
    a_omega,
    ag_mean_divergence,
    b_omega,
    bhattacharyya,
    bound_a,
    bound_b,
    chi_squared,
    csiszar_divergence,
    delta_omega,
    e_omega,
    e_star_omega,
    generator,
    hellinger,
    j_divergence,
    jensen_shannon,
    lp_power,
    omega_s,
    phi_s,
    psi3_sup,
    psi_s,
    psi_s_d1,
    psi_s_d2,
    psi_s_d3,
    random_pair,
    ratio_bounds,
    relative_ag_divergence,
    relative_information,
    relative_j_divergence,
    relative_js_divergence,
    triangular_discrimination,
    vajda_abs_chi,
    verify_all,
)
from divbounds.cli import main as cli_main

import oracles
from closed_forms import omega_special_cases

P = (0.5, 0.5)
Q = (0.25, 0.75)
R_LO, R_HI = 2.0 / 3.0, 2.0

# criterion id -> (frozen oracle value, implementation thunk, oracle thunk)
GOLDEN_VECTORS = {
    "chi2(P||Q)": (0.33333333333333333,
                   lambda pair, rb: chi_squared(pair),
                   lambda: oracles.chi2(P, Q)),
    "chi2(Q||P)": (0.25,
                   lambda pair, rb: chi_squared(pair.swapped()),
                   lambda: oracles.chi2(Q, P)),
    "kl(P||Q)": (0.14384103622589046,
                 lambda pair, rb: relative_information(pair),
                 lambda: oracles.kl(P, Q)),
    "triangular": (0.13333333333333333,
                   lambda pair, rb: triangular_discrimination(pair),
                   lambda: oracles.triangular(P, Q)),
    "rel_js": (0.032269260568785586,
               lambda pair, rb: relative_js_divergence(pair),
               lambda: oracles.rel_js(P, Q)),
    "rel_ag": (0.03158394240196325,
               lambda pair, rb: relative_ag_divergence(pair),
               lambda: oracles.rel_ag(P, Q)),
    "bhattacharyya": (0.96592582628906829,
                      lambda pair, rb: bhattacharyya(pair),
                      lambda: oracles.bhattacharyya(P, Q)),
    "total_variation": (0.5,
                        lambda pair, rb: vajda_abs_chi(pair, 1.0),
                        lambda: oracles.vajda(P, Q, 1)),
    "abs_chi_cubed": (0.27777777777777778,
                      lambda pair, rb: vajda_abs_chi(pair, 3.0),
                      lambda: oracles.vajda(P, Q, 3)),
    "omega(-1)": (0.033333333333333333,
                  lambda pair, rb: omega_s(pair, -1.0),
                  lambda: oracles.omega(P, Q, -1)),
    "omega(0.5)": (0.03188121493133301,
                   lambda pair, rb: omega_s(pair, 0.5),
                   lambda: oracles.omega(P, Q, "0.5")),
    "omega(2)": (0.03125,
                 lambda pair, rb: omega_s(pair, 2.0),
                 lambda: oracles.omega(P, Q, 2)),
    "phi(2)": (0.16666666666666667,
               lambda pair, rb: phi_s(pair, 2.0),
               lambda: oracles.phi(P, Q, 2)),
    "e_omega(1)": (0.061146797029251165,
                   lambda pair, rb: e_omega(pair, 1.0),
                   lambda: oracles.e_omega(P, Q, 1)),
    "e_star_omega(1)": (0.031962699591881731,
                        lambda pair, rb: e_star_omega(pair, 1.0),
                        lambda: oracles.e_star_omega(P, Q, 1)),
    "a_omega(1)": (0.081529062705668219,
                   lambda pair, rb: a_omega(rb, 1.0),
                   lambda: oracles.a_omega(R_LO, R_HI, 1)),
    "b_omega(1)": (0.03158394240196325,
                   lambda pair, rb: b_omega(rb, 1.0),
                   lambda: oracles.b_omega(R_LO, R_HI, 1)),
    "delta_omega(1)": (0.63333333333333333,
                       lambda pair, rb: delta_omega(rb, 1.0),
                       lambda: oracles.delta_omega(R_LO, R_HI, 1)),
    "psi3_sup(1)": (2.43,
                    lambda pair, rb: psi3_sup(rb, 1.0),
                    lambda: oracles.psi3_sup(R_LO, 1)),
}

S_FULL = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
S_BOUNDED = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def rel_ok(got, want, tol):
    return math.isclose(got, want, rel_tol=tol, abs_tol=tol * 1e-2)


def pairs_stream(count, seed, min_dim=2, max_dim=64):
    span = max_dim - min_dim + 1
    for i in range(count):
        yield random_pair(min_dim + i % span, seed + i)


def report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS in "
          f"{time.perf_counter() - started:.2f}s")


def test_criterion_1_golden_vectors(std_pair, std_rb):
    started = time.perf_counter()
    for name, (frozen, impl, oracle) in GOLDEN_VECTORS.items():
        got = impl(std_pair, std_rb)
        assert rel_ok(got, frozen, 1e-9), (name, got, frozen)
        rederived = oracles.as_float(oracle())
        assert rel_ok(rederived, frozen, 1e-15), (name, rederived, frozen)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "golden vectors", started)


def test_criterion_2_symmetric_identities():
    started = time.perf_counter()
    for pair in pairs_stream(10_000, seed=9100):
        j = j_divergence(pair)
        directed = (relative_j_divergence(pair)
                    + relative_j_divergence(pair.swapped()))
        combined = 4.0 * (jensen_shannon(pair) + ag_mean_divergence(pair))
        assert math.isclose(j, directed, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(j, combined, rel_tol=1e-12, abs_tol=1e-15)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, "symmetric identity suite", started)


def test_criterion_3_special_cases():
    started = time.perf_counter()
    for pair in pairs_stream(1_000, seed=9200):
        swapped = pair.swapped()
        cases = (
            (phi_s(pair, -1.0), 0.5 * chi_squared(swapped)),
            (phi_s(pair, 0.0), relative_information(swapped)),
            (phi_s(pair, 0.5), 4.0 * hellinger(pair)),
            (phi_s(pair, 1.0), relative_information(pair)),
            (phi_s(pair, 2.0), 0.5 * chi_squared(pair)),
        )
        for got, want in cases:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)
        for row in omega_special_cases(pair):
            assert math.isclose(row.family_value, row.reference_value,
                                rel_tol=1e-12, abs_tol=1e-14)
    report(3, "special-case suite", started)


def test_criterion_4_engine_consistency():
    started = time.perf_counter()
    for pair in pairs_stream(1_000, seed=9300):
        rb = ratio_bounds(pair)
        for s in S_FULL:
            gen = generator(s)
            assert math.isclose(omega_s(pair, s),
                                csiszar_divergence(pair, gen),
                                rel_tol=1e-12, abs_tol=1e-14)
            assert math.isclose(a_omega(rb, s), bound_a(rb, gen),
                                rel_tol=1e-12, abs_tol=1e-14)
            assert math.isclose(b_omega(rb, s), bound_b(rb, gen),
                                rel_tol=1e-12, abs_tol=1e-14)
    report(4, "engine consistency suite", started)


def test_criterion_5_inequality_suite(tmp_path):
    started = time.perf_counter()
    for i, pair in enumerate(pairs_stream(10_000, seed=9400)):
        result = verify_all(pair, S_BOUNDED, pair_id=f"p{i}")
        assert result.all_pass, result.failures[:3]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    pairs_file = tmp_path / "pairs.csv"
    assert cli_main(["gen", "--n", "6", "--count", "50", "--seed", "904",
                     "--output", str(pairs_file)]) == 0
    out_file = tmp_path / "report.jsonl"
    assert cli_main(["verify", "--input", str(pairs_file),
                     "--s-list=-1,-0.5,0,0.5,1,2",
                     "--output", str(out_file)]) == 0
    report(5, "inequality suite", started)


def test_criterion_6_binary_tightness():
    started = time.perf_counter()
    for seed in range(100):
        pair = random_pair(2, seed=9500 + seed)
        rb = ratio_bounds(pair)
        r, big_r = rb.r, rb.R
        for s in S_BOUNDED:
            assert math.isclose(omega_s(pair, s), b_omega(rb, s),
                                rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(chi_squared(pair), (big_r - 1.0) * (1.0 - r),
                            rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(
            vajda_abs_chi(pair, 3.0),
            ((big_r - 1.0) * (1.0 - r) / (big_r - r))
            * ((1.0 - r) ** 2 + (big_r - 1.0) ** 2),
            rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(vajda_abs_chi(pair, 1.0),
                            2.0 * (big_r - 1.0) * (1.0 - r) / (big_r - r),
                            rel_tol=1e-12, abs_tol=1e-15)
    report(6, "binary tightness suite", started)


def test_criterion_7_derivatives():
    started = time.perf_counter()
    h = 1e-5
    probes = (0.3, 0.7, 1.0, 1.6, 3.0)
    s_values = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    for s in s_values:
        for x in probes:
            fd1 = (psi_s(x + h, s) - psi_s(x - h, s)) / (2.0 * h)
            fd2 = (psi_s_d1(x + h, s) - psi_s_d1(x - h, s)) / (2.0 * h)
            fd3 = (psi_s_d2(x + h, s) - psi_s_d2(x - h, s)) / (2.0 * h)
            assert math.isclose(psi_s_d1(x, s), fd1, rel_tol=1e-6,
                                abs_tol=1e-9)
            assert math.isclose(psi_s_d2(x, s), fd2, rel_tol=1e-6,
                                abs_tol=1e-9)
            assert math.isclose(psi_s_d3(x, s), fd3, rel_tol=1e-6,
                                abs_tol=1e-9)
            assert psi_s_d2(x, s) > 0.0
            assert psi_s_d3(x, s) <= 0.0
    report(7, "derivative suite", started)


def test_criterion_8_continuity(std_pair):
    started = time.perf_counter()
    targets = [std_pair]
    targets.extend(pairs_stream(20, seed=9600, min_dim=2, max_dim=12))
    for pair in targets:
        for s0 in (0.0, 1.0):
            base = omega_s(pair, s0)
            for eps in (1e-6, -1e-6):
                assert abs(omega_s(pair, s0 + eps) - base) <= (
                    1e-6 * (1.0 + base))
    for a, b in ((1.5, 2.5), (0.3, 4.0)):
        for p0 in (-1.0, 0.0):
            base = lp_power(p0, a, b)
            for eps in (1e-8, -1e-8):
                assert abs(lp_power(p0 + eps, a, b) - base) <= 1e-6
    report(8, "continuity suite", started)


def test_criterion_9_cli_round_trip(tmp_path):
    started = time.perf_counter()
    gen_a = tmp_path / "gen_a.csv"
    gen_b = tmp_path / "gen_b.csv"
    for target in (gen_a, gen_b):
        assert cli_main(["gen", "--n", "4", "--count", "10", "--seed", "7",
                         "--output", str(target)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    verify_a = tmp_path / "verify_a.jsonl"
    verify_b = tmp_path / "verify_b.jsonl"
    for target in (verify_a, verify_b):
        assert cli_main(["verify", "--input", str(gen_a),
                         "--output", str(target)]) == 0
    assert verify_a.read_bytes() == verify_b.read_bytes()
    for line in verify_a.read_text().splitlines():
        assert json.loads(line)["verdict"] in ("pass", "skip", "info")
    report(9, "cli round trip", started)

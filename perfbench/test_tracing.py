"""Self-test of the benchmark's tracing: traced counts must equal their
closed-form values, so an import site the wrappers miss fails here instead
of reading as zero time in the per-layer metrics."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from divbounds import bounds, cli  # noqa: E402

PAIRS = 3


def _traced_cli(tmp_path, *argv):
    pairs_csv = tmp_path / "pairs.csv"
    assert cli.main(["gen", "--n", "5", "--count", str(PAIRS), "--seed", "11",
                     "--output", str(pairs_csv)]) == 0
    plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
    assert cli.main([*argv, "--input", str(pairs_csv),
                     "--output", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main([*argv, "--input", str(pairs_csv),
                         "--output", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    return tracing.layer_metrics(tracer.snapshot(), PAIRS), traced


def test_verify_counts_match_closed_form(tmp_path):
    # Default s-list: six s-values, all >= -1.  Per s: two theorem42_bounds
    # calls; six generator builds (e_omega, e_star_omega, the direct build,
    # b_omega, and one E functional in each theorem42_bounds call); three
    # lp_power calls (two in a_omega, one in b_omega_closed_form); 20 report
    # entries.  Per pair: 17 pair-level entries.
    metrics, out = _traced_cli(tmp_path, "verify")
    assert metrics["bounds.theorem42_calls_per_pair"] == 12
    assert metrics["type_s.generator_builds_per_pair"] == 36
    assert metrics["type_s.generator_useful_ratio"] == 6 / 36
    assert metrics["csiszar.probe_calls_per_pair"] == 36 * 7
    assert metrics["bounds.entries_per_pair"] == 137
    assert metrics["cli.records_out"] == 137 * PAIRS + 2
    assert metrics["cli.bytes_out"] == out.stat().st_size
    assert metrics["simplex.validate_calls"] == 2 * PAIRS
    assert metrics["means.lp_power_calls"] == 18 * PAIRS
    for key in ("cli.load_s", "cli.assemble_s", "cli.write_s",
                "divergences.self_s", "type_s.kernel_s", "csiszar.engine_s",
                "bounds.theorem42_s", "bounds.e_functionals_s",
                "bounds.interval_s", "bounds.verify_all_self_s"):
        assert metrics[key] > 0.0, key


def test_compute_kernels_traced_through_registries(tmp_path):
    # chi2 and kl reach the CLI through its measure registry, phi and
    # omega through the parametric one; the limit members phi:0, phi:1,
    # omega:0 and omega:1 each call one directed divergence.
    metrics, _ = _traced_cli(tmp_path, "compute", "--measures",
                             "chi2,kl,phi,omega")
    assert metrics["divergences.calls_per_pair"] == 6
    assert metrics["cli.records_out"] == 14 * PAIRS
    assert metrics["type_s.kernel_s"] > 0.0
    assert metrics["type_s.generator_builds_per_pair"] == 0


def test_uninstall_restores_every_site():
    original = bounds.verify_all
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.verify_all is not original
        assert bounds.verify_all is cli.verify_all
    assert cli.verify_all is original and bounds.verify_all is original
    assert cli._SIMPLE_MEASURES["chi2"].__module__ == "divbounds.divergences"
    assert not hasattr(cli._SIMPLE_MEASURES["chi2"], "__wrapped__")

"""The package's public surface, pinned: a name enters or leaves
``divbounds.__all__`` only together with an edit here and a CHANGES.md line.
"""

import importlib

import pytest

import divbounds

PUBLIC = {
    "Distribution", "DistributionPair", "RatioBounds",
    "validate", "ratio_bounds", "random_pair",
    "chi_squared", "relative_information", "relative_j_divergence",
    "relative_js_divergence", "relative_ag_divergence",
    "triangular_discrimination", "bhattacharyya", "hellinger",
    "total_variation", "vajda_abs_chi", "symmetric_chi_squared",
    "j_divergence", "jensen_shannon", "ag_mean_divergence", "lp_power",
    "GeneratorFunction", "GapBounds", "GapTarget",
    "csiszar_divergence", "dragomir_e", "dragomir_e_star",
    "bound_a", "bound_b", "theorem33_bounds",
    "Regime", "SParameter", "phi_s", "omega_s", "psi_s",
    "psi_s_d1", "psi_s_d2", "psi_s_d3", "generator",
    "BoundEntry", "BoundReport", "PairMoments",
    "e_omega", "e_star_omega", "a_omega", "b_omega",
    "delta_omega", "psi3_sup", "theorem42_bounds", "verify_all",
}

#: Test-only code that the package no longer carries, by its old module;
#: it lives in tests/generators.py and tests/closed_forms.py.
REMOVED = [
    ("means", "lp_mean"),
    ("csiszar", "builtin_generators"),
    ("csiszar", "_BUILTIN_S"),
    ("csiszar", "kl_generator"),
    ("csiszar", "reverse_kl_generator"),
    ("csiszar", "pearson_chi2_generator"),
    ("csiszar", "hellinger_generator"),
    ("type_s", "omega_special_cases"),
    ("type_s", "SpecialCaseRow"),
]


def test_all_is_pinned():
    assert len(divbounds.__all__) == len(PUBLIC)
    assert set(divbounds.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from divbounds import *", namespace)
    assert PUBLIC <= set(namespace)


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(divbounds, name)
    assert not hasattr(importlib.import_module(f"divbounds.{module}"), name)

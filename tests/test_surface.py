"""The package's public surface, pinned: a name enters or leaves
``divbounds.__all__`` only together with an edit here and a CHANGES.md line.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

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
    "SParameter", "phi_s", "omega_s", "psi_s",
    "psi_s_d1", "psi_s_d2", "psi_s_d3", "generator",
    "BoundEntry", "BoundReport",
    "e_omega", "e_star_omega", "a_omega", "b_omega",
    "delta_omega", "psi3_sup", "theorem42_bounds", "verify_all",
}

#: Names the package no longer carries, by their old module.  The
#: test-only code lives in tests/generators.py and tests/closed_forms.py;
#: RegimeMismatch went with SParameter's regime argument; random_pair
#: raises DimensionTooSmall in place of InvalidDimension; theorem33_bounds
#: and the tests call csiszar._d3_scan, which d3_sup only wrapped;
#: the JSONL writer spells each chunk with one encoder call, not a cache;
#: RatioBounds holds r < 1 < R itself, so no function re-checks it;
#: SParameter.canonical is the one classification of s, so Regime went;
#: verify_all and sweep keep a pair's s-independent terms on a private
#: evaluated pair, so PairMoments and its moments= keywords went;
#: theorem33_bounds chooses its own functional, so _gap_functional went;
#: the gap bounds read GapTarget's members through the class, so their
#: positional aliases went.
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
    ("type_s", "RegimeMismatch"),
    ("simplex", "InvalidDimension"),
    ("csiszar", "d3_sup"),
    ("csiszar", "DegenerateInterval"),
    ("csiszar", "IntervalNotStraddlingOne"),
    ("csiszar", "_require_straddle"),
    ("cli", "_Spellings"),
    ("type_s", "Regime"),
    ("csiszar", "PairMoments"),
    ("bounds", "PairMoments"),
    ("csiszar", "_gap_functional"),
    ("csiszar", "_HALF_E"),
    ("csiszar", "_E_STAR"),
    ("divergences", "power_difference_divergence"),
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


#: Every optional parameter of the public functions, as function(parameter).
#: The other parameters are the paper's arguments: no public function takes
#: a pair's terms or a value it can compute from the others.
OPTIONAL = {"validate(renormalize)", "verify_all(violation_tolerance)",
            "verify_all(pair_id)"}


def test_optional_parameters_are_pinned():
    """An option enters or leaves a public function only together with an
    edit here and a CHANGES.md line; no public callable, class or function,
    takes the moments, omega or functional keywords that verify_all's
    evaluated pair replaced."""
    public = [getattr(divbounds, name) for name in divbounds.__all__]
    assert {f"{fn.__name__}({param.name})" for fn in public
            if inspect.isfunction(fn)
            for param in inspect.signature(fn).parameters.values()
            if param.default is not param.empty} == OPTIONAL
    assert [fn.__name__ for fn in public if callable(fn)
            and {"moments", "omega", "functional"} & set(
                inspect.signature(fn).parameters)] == []


def test_removed_attributes_are_gone():
    # SParameter(s) is the one constructor; a pair's dimension is p.n; a
    # gap bundle's caller holds its target, and min(cap_candidates) was
    # read by nothing
    assert not hasattr(divbounds.SParameter, "from_value")
    # canonical is the one classification of s
    assert not hasattr(divbounds.SParameter(0.5), "regime")
    assert not hasattr(divbounds.DistributionPair, "n")
    names = {f.name for f in dataclasses.fields(divbounds.GapBounds)}
    assert not names & {"target", "cap_minimum"}
    # the caller holds its tolerance, and the notes are bounds.REPORT_NOTES
    assert [f.name for f in dataclasses.fields(divbounds.BoundReport)] == [
        "records"]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


MODULES = sorted(pathlib.Path(divbounds.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [
    path for path in MODULES if path.name != "__init__.py"],
    ids=lambda path: path.name)
def test_no_unused_imports(path):
    """Every name a module imports is read in it (``__init__.py`` imports
    to re-export); stands in for a linter, which neither host nor CI has."""
    assert _unused_imports(path) == []


def _unread_parameters(path):
    """``file:line: function(parameter)`` of each parameter of a ``def`` or
    ``lambda``, ``self`` aside, that its body never reads as a name; a read
    inside a nested function counts."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  args.vararg, *args.kwonlyargs, args.kwarg)
                  if a is not None and a.arg != "self"]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{path.name}:{node.lineno}: {name}({param})"
                   for param in params if param not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    """Every parameter of every function and lambda in the package is read
    in its body, so an argument that lost its last use fails here; stands
    in for a linter's unused-argument check."""
    assert _unread_parameters(path) == []


def _module_names(tree):
    """(name, line) of each module-level def, class or assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _borrowed_private_imports(paths):
    """``file:line: module._name`` of each ``from .module import _name`` in
    ``paths`` whose module does not define ``_name`` at module level."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    defined = {path.stem: {name for name, _ in _module_names(tree)}
               for path, tree in trees.items()}
    return sorted(f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                  for path, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module is not None
                  for alias in node.names if alias.name.startswith("_")
                  and alias.name not in defined[node.module])


def test_private_names_imported_from_their_definer():
    """Every private name a module imports comes from the module that
    defines it, not through one that only imports it, so a module can drop
    an import it no longer reads without breaking another."""
    assert _borrowed_private_imports(MODULES) == []


def _unread_names(paths, wanted):
    """``file:line: name`` of each module-level name for which ``wanted``
    is true and that no module of ``paths`` reads, as a name or as an
    attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{path.name}:{line}: {name}"
                  for path, tree in trees.items()
                  for name, line in _module_names(tree)
                  if wanted(name) and name not in read)


def test_no_unread_private_names():
    """Every private module-level name (one leading underscore) of the
    package is read somewhere in it, as a name or as an attribute, so a
    helper left behind by a merge fails here; stands in for a linter's
    dead-code check."""
    assert _unread_names(MODULES, lambda name: name.startswith("_")
                         and not name.startswith("__")) == []


def test_every_public_name_is_exported_or_read():
    """Every public module-level name (no leading underscore) of the
    package is in ``divbounds.__all__`` or read somewhere in the package,
    so a public function that lost its last caller fails here too."""
    assert _unread_names(MODULES, lambda name: not name.startswith("_")
                         and name not in divbounds.__all__) == []


ROOT = pathlib.Path(__file__).parent.parent


def test_every_dataclass_field_is_read():
    """Every field of a package dataclass is read as an attribute somewhere
    in the package, the tests or the benchmark, so a result field that lost
    its last reader fails here.  This module is left out of the scan: it
    reads ``node.target`` from the AST.  BoundEntry is a NamedTuple whose
    fields are output columns, read through ``_fields``, and is not
    checked."""
    paths = [*MODULES, *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    read = {node.attr for path in paths if path.name != "test_surface.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    classes = {cls for path in MODULES if path.name != "__init__.py"
               for cls in vars(importlib.import_module(
                   f"divbounds.{path.stem}")).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert sorted(f"{cls.__name__}.{field.name}" for cls in classes
                  for field in dataclasses.fields(cls)
                  if field.name not in read) == []

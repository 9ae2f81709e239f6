"""Structural guards for the promise that reads leave shared state alone,
and for one route per job.

No module holds mutable state, no module reaches into another object's
private attributes, and the analyses leave a buffer's published state --
its symbols, prefix counts and factor index -- exactly as they found it.
The digit route of the discrepancy has one alpha-power sum, and the
oracle-equivalence claim reaches it through the batch codec.  Letters are
counted along the word by one kernel, ``words._count_blocks``.  Every
per-length window query reads its windows through one certified slicer,
and returns its value itself, not a wrapper that repeats the arguments.
The spectral certificate and the pruning of the synchronized automaton are
exact: no float enters the code that decides them, and no float slack is
left in it.  Every top-level definition in ``src/`` is reached from the
command line, a registered claim or a module-level statement, save the
few that the benchmark's tracer still wraps by name.
"""

import ast
import dataclasses
import functools
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from conftest import patch_everywhere

import tribalance
from tribalance import (
    abelian_complexity,
    abelian_profile,
    compute_spectral_data,
    discrepancy_blocks,
    discrepancy_direct,
    discrepancy_extremes,
    discrepancy_spectral,
    factor_index,
    imbalance_witness_search,
    parikh_set,
    prefix_balance_check,
    right_special_factor,
    tribonacci_word,
    twelve_vector_geometry,
    verify_equivalences,
    window_parikh,
)
from tribalance import abelian, numeration, special, spectral
from tribalance.verify import SuiteConfig, run_suite

SRC = Path(tribalance.__file__).resolve().parent

# Importing ``__main__`` would run the command line.
MODULES = ["tribalance"] + sorted(
    f"tribalance.{info.name}" for info in pkgutil.iter_modules(tribalance.__path__)
    if info.name != "__main__"
)

# Kept by the interpreter: builtins, a package's search path, and the
# annotations of module-level names.
INTERPRETER_NAMES = {"__builtins__", "__path__", "__annotations__"}

CACHE_WRAPPER = type(functools.lru_cache()(lambda: None))


def is_mutable(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.flags.writeable
    return isinstance(value, (list, dict, set, bytearray, CACHE_WRAPPER))


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_mutable_state(name):
    module = importlib.import_module(name)
    held = sorted(key for key, value in vars(module).items()
                  if key not in INTERPRETER_NAMES and is_mutable(value))
    assert held == []


def foreign_private_attributes(path: Path):
    """``obj._name`` reads and writes on anything but ``self``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_no_private_attribute_access_across_objects():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in foreign_private_attributes(path)]
    assert found == []


def test_queries_leave_published_state_alone():
    buf = tribonacci_word(200_000)
    index = factor_index(buf, 2001)
    symbols, counts = buf.symbols, buf.prefix_counts
    sd = compute_spectral_data()

    abelian_profile(buf, 1, 2000, collect_vectors=True)
    abelian_profile(buf, 1, 2000)
    for letter in range(3):
        assert imbalance_witness_search(buf, letter, 3, 2000) is None
    verify_equivalences(buf, 2000)
    for n in (1, 2, 30, 342, 1999, 2000):
        parikh_set(buf, n)
        abelian_complexity(buf, n)
        prefix_balance_check(buf, n)
        right_special_factor(buf, n)
        twelve_vector_geometry(buf, n)
        window_parikh(buf, n, n)
        discrepancy_direct(buf, n, 0, sd)
        discrepancy_spectral(n, 0, sd)
    for letter in range(3):
        list(discrepancy_blocks(buf, len(buf), letter, sd))
        discrepancy_extremes(buf, len(buf), letter, sd)

    assert buf.symbols is symbols
    assert np.array_equal(buf.prefix_counts, counts)
    assert not buf.prefix_counts.flags.writeable
    assert buf.index is index
    with pytest.raises(ValueError):
        counts[0, 1] += 1


def alpha_power_steps(path: Path):
    """``x *= <...>.alpha`` statements: one step of an alpha-power sum."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "alpha"):
            yield f"{path.name}:{node.lineno}"


def test_one_alpha_power_sum_in_src():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in alpha_power_steps(path)]
    assert len(found) == 1 and found[0].startswith("spectral.py:"), found


def cumsum_callers(path: Path):
    """The functions (``module.qualified_name``) with a ``cumsum`` call."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "cumsum"):
                    yield ".".join([path.stem] + scope)
                yield from walk(child, scope)

    return set(walk(ast.parse(path.read_text()), []))


def test_one_letter_counting_kernel_in_src():
    # The factor index's cumsum forms per-length factor counts, not letter
    # counts; every count of letters along the word is ``_count_blocks``.
    found = set().union(*(cumsum_callers(path) for path in sorted(SRC.glob("*.py"))))
    assert found == {"words._count_blocks", "factors.FactorIndex.__init__"}


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name, and every alias of it in a tribalance module, with
    a call counter; returns the list the calls are appended to."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counted)
    return calls


def test_eq1_claim_runs_the_batched_route(monkeypatch):
    scalar = count_calls(monkeypatch, numeration, "zeckendorf_encode")
    batched = count_calls(monkeypatch, numeration, "zeckendorf_encode_many")
    report = run_suite("paper", SuiteConfig(seed=0), claim_ids={"eq1_oracle_equivalence_1e6"})
    assert [c.status for c in report.claims] == ["pass"]
    assert len(scalar) == 0
    assert len(batched) == 1 and len(batched[0][0]) == 10_000


@pytest.mark.parametrize("query", [
    lambda b: abelian_profile(b, 1, 40),
    lambda b: abelian_complexity(b, 40),
    lambda b: parikh_set(b, 40),
    lambda b: prefix_balance_check(b, 40),
    lambda b: imbalance_witness_search(b, 0, 3, 40),
], ids=["abelian_profile", "abelian_complexity", "parikh_set", "prefix_balance_check",
        "imbalance_witness_search"])
def test_window_queries_read_the_certified_windows(monkeypatch, query):
    calls = count_calls(monkeypatch, abelian, "_certified_windows")
    query(tribonacci_word())
    assert len(calls) == 1


def test_retired_window_routes_are_gone():
    retired = {"_window_counts", "certified_window_bound", "balance_profile"}
    found = [f"{name}.{key}" for name in MODULES
             for key in vars(importlib.import_module(name)) if key in retired]
    assert found == []


def test_geometry_has_one_offset_table():
    # Lengths are classified against the import-time offset table; a
    # classification carries no translated copy of it.
    params = special.GeometryClassification.__dataclass_params__
    assert params.frozen
    fields = [f.name for f in dataclasses.fields(special.GeometryClassification)]
    assert fields == ["n", "base", "containing"]
    names = set(vars(special))
    assert {"NEIGHBORHOOD", "REGIONS", "EXTRA_CLIQUES", "CLIQUE_SIZES"} <= names
    assert not {"_OFFSETS", "_REGIONS", "_EXTRA_CLIQUES", "_CLIQUE_SIZES"} & names


def test_queries_return_their_values():
    exported = set(vars(tribalance))
    assert not {"ParikhSet", "CentralSet", "BoundarySet", "DesubForm", "ZeckendorfRep"} & exported
    assert numeration.zeckendorf_encode(6) == [0, 1, 1]
    buf = tribonacci_word()
    for n in (1, 2, 30, 342):
        assert type(parikh_set(buf, n)) is frozenset


#: The code that derives and decides the spectral certificate, and the
#: pruning of the synchronized automaton, which rests on it.
CERTIFICATE_CODE = {
    "spectral.py": {"_Interval", "_enclose", "_beta", "_head_terms", "_coefficient_squared",
                    "named_constants", "balance_bound_from_interval", "certify_balance_bounds",
                    "synchronization_window"},
    "synchronized.py": {"_pruning_test", "_elements", "digit_automaton"},
    "verify.py": {"matches_truncated", "_claim_spectral_constants", "_prop_claim"},
}


def calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def float_uses(node):
    """Float literals and ``float(...)`` calls under ``node``, except in an
    f-string or as ``round(float(x), digits)``: those display a value."""
    if isinstance(node, ast.JoinedStr):
        return
    if calls(node, "round") and calls(node.args[0], "float"):
        yield from float_uses(node.args[0].args[0])
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, float) or calls(node, "float"):
        yield f"{node.lineno}: {ast.unparse(node)}"
    for child in ast.iter_child_nodes(node):
        yield from float_uses(child)


def test_certificate_decides_without_floats():
    found, seen = [], set()
    for filename, names in CERTIFICATE_CODE.items():
        for node in ast.parse((SRC / filename).read_text()).body:
            if getattr(node, "name", None) in names:
                seen.add(node.name)
                found += [f"{filename}:{hit}" for hit in float_uses(node)]
    assert seen == set().union(*CERTIFICATE_CODE.values())
    assert found == []
    retired = {"head_extremes", "head_terms", "tail_bound", "DiscrepancyInterval",
               "BoundDerivation", "constrained"}
    assert not retired & set(vars(tribalance)) and not retired & set(vars(spectral))


#: Top-level definitions that no command, claim or module-level statement
#: reaches, each with the reason it stays.
TRACER_PATCHED = ("patched by perfbench/tracer.py; goes with ROADMAP item 2 "
                  "after item 1")
UNREACHED = {
    "abelian.prefix_balance_check": TRACER_PATCHED,
    "factors.ScanResult": TRACER_PATCHED,
    "factors.scan_distinct_factors": TRACER_PATCHED,
    "numeration.zeckendorf_decode": TRACER_PATCHED,
    "spectral.discrepancy_direct": TRACER_PATCHED,
    "spectral.discrepancy_spectral": TRACER_PATCHED,
}


def reference_graph():
    """(roots, edges) of the package, by name: the edges map each
    definition to the definitions it names.

    A definition is a top-level def or class, ``module.name``; a class
    counts as one, methods and all.  Its edges go to every definition its
    subtree names: a bare name resolves to the module's own definition or,
    through the ``from .module import name`` chain, to the one it imports,
    and ``module.name`` to a definition of an imported module.  The roots
    are ``cli.main`` and the names in module-level statements other than
    definitions and imports, among them ``verify.CLAIMS``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs = {module: {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for module, tree in trees.items()}
    imported, modules = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[module, local] = alias.name
                    else:
                        imported[module, local] = (node.module, alias.name)

    def resolve(module, name):
        if name in defs[module]:
            return f"{module}.{name}"
        if (module, name) in imported:
            return resolve(*imported[module, name])
        return None

    def named(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(module, sub.id)
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and (module, sub.value.id) in modules):
                yield resolve(modules[module, sub.value.id], sub.attr)

    edges = {f"{module}.{name}": set(named(module, node)) - {None}
             for module, nodes in defs.items() for name, node in nodes.items()}
    roots = {"cli.main"}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots |= set(named(module, node)) - {None}
    return roots, edges


def test_every_definition_is_reached():
    roots, edges = reference_graph()
    definitions = set(edges)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += edges.get(name, ())
    assert sorted(set(UNREACHED) - definitions) == [], "allow-listed but deleted"
    assert sorted(set(UNREACHED) & reached) == [], "allow-listed but reached"
    assert sorted(definitions - reached - set(UNREACHED)) == [], "unreached"

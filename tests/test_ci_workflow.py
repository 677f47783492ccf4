"""The CI workflow, read as text: it must install what the code imports and
run the tier-1 command and the benchmark self-test.

.github/workflows/tier1.yml can only run on a CI host, so this test is what
checks it against the code before then. Local modules (the package, the
test helpers, the benchmark's own files) and the standard library need no
install; every other top-level module that src/, tests/ or perfbench/
imports must be named in the workflow's pip install line. The workflow runs
one Python version, so another test parses every file at the oldest one
that pyproject.toml declares, and another that no module of the package
imports a name it does not use, since CI runs no linter; nor may it export a
name that only unit tests read, keep an underscore name that no package code
reads, or import another module's underscore name outside a short list.
Another test keeps the engine to one batch layout, reading no array
rank. Another checks that the pytest settings in pyproject.toml are in
force, and the last that README's module map and command table list what
the package has.
"""

import argparse
import ast
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from mcrf import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SOURCE_DIRS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _run_lines() -> list[str]:
    """The command of every `run:` line of the workflow."""
    run = re.compile(r"^\s*(?:- )?run:\s*(.*)$")
    matches = map(run.match, WORKFLOW.read_text(encoding="utf-8").splitlines())
    return [m.group(1).strip() for m in matches if m]


def _imported_modules() -> set[str]:
    """The top-level module of every absolute import under SOURCE_DIRS."""
    names = set()
    for path in (p for d in SOURCE_DIRS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _local_modules() -> set[str]:
    return {
        p.stem if p.suffix == ".py" else p.name
        for d in SOURCE_DIRS
        for p in d.iterdir()
        if p.suffix == ".py" or (p / "__init__.py").exists()
    }


def test_install_step_names_every_third_party_import():
    third_party = _imported_modules() - set(sys.stdlib_module_names) - _local_modules()
    assert {"numpy", "pytest", "hypothesis"} <= third_party  # the scan sees the imports
    installs = [line for line in _run_lines() if "pip install" in line]
    assert len(installs) == 1, installs
    packages = {re.split(r"[=<>!~\[]", word)[0] for word in installs[0].split()}
    assert third_party <= packages, (third_party, installs[0])


def test_numpy_is_pinned_to_one_release():
    """TestObservedBits and the row bits of crf._batch_nll's docstring pin
    the bits of one numpy build's math library and BLAS, so CI installs that
    release, not whichever one pip resolves."""
    (install,) = [line for line in _run_lines() if "pip install" in line]
    assert re.search(r"(^| )numpy==\d+\.\d+\.\d+( |$)", install), install


def test_runs_the_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.MULTILINE)
    assert command in _run_lines()


def test_every_file_parses_at_the_oldest_declared_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (oldest,) = re.findall(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE)
    paths = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.py"))
    assert len(paths) > 30  # the scan sees the files
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(oldest)))


def test_package_modules_use_every_name_they_import():
    """An import left behind when a helper moves fails here. cli, training
    and verification re-export crf.viterbi, which the benchmark's self-test
    requires as their module attribute."""
    re_exports = {("cli.py", "viterbi"), ("training.py", "viterbi"), ("verification.py", "viterbi")}
    paths = sorted((ROOT / "src" / "mcrf").glob("*.py"))
    assert len(paths) > 10  # the scan sees the modules
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.name, name) not in re_exports:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_package_modules_import_no_private_name_of_another_but_the_listed():
    """A module that reads another's underscore name leans on its internals:
    only these do, each for a reason its own docstring gives (the engine's
    refusal texts and floor in masking; the stacked oracles, among them
    the gradient enumeration, the stacked engine log Z and paths, the batch
    NLL and the mask-convergence gap given both its sides, which verify
    computes by shape group, in verification; there too the unchecked
    stacked forms of encode, which
    encodes each weight class's perturbed copies in one call, and of
    path_score, which scores each length group of legal paths in one
    call)."""
    allowed = {
        ("masking.py", "crf", "_LOWEST"),
        ("masking.py", "crf", "_NO_FINITE_PATH"),
        ("masking.py", "crf", "_not_finite"),
        ("masking.py", "crf", "_sentence"),
        ("verification.py", "crf", "_batch_nll"),
        ("verification.py", "crf", "_brute_force_gradients"),
        ("verification.py", "crf", "_brute_force_log_z"),
        ("verification.py", "crf", "_brute_force_paths"),
        ("verification.py", "crf", "_engine_log_z"),
        ("verification.py", "crf", "_engine_paths"),
        ("verification.py", "crf", "_scores"),
        ("verification.py", "encoder", "_encode"),
        ("verification.py", "masking", "_convergence_gap"),
    }
    found = set()
    for path in sorted((ROOT / "src" / "mcrf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mcrf")):
                module = (node.module or "").removeprefix("mcrf").lstrip(".")
                found |= {
                    (path.name, module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                }
    assert len(found) >= 5  # the scan sees the imports
    assert sorted(found - allowed) == []


def test_no_function_takes_the_scores_and_the_starts_side_by_side():
    """The transition scores and the starts are one (d + 1, d) table, the
    starts as its row d (TransitionMatrix.table, TransitionRuleSet.table):
    a function with parameters named both scores and start splits what the
    table joins. TransitionMatrix's constructor, which copies the two into
    its table, is the one exception."""
    found = []
    for path in sorted((ROOT / "src" / "mcrf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
                if {"scores", "start"} <= names:
                    found.append(f"{path.name}: {getattr(node, 'name', 'lambda')}")
    assert found == ["crf.py: __init__"]


def test_the_engine_reads_no_array_rank():
    """The engine has one batch layout: _padded, _forward_backward and
    _batch_nll read (T, M, B, d) emissions and (G, B, T) gold tags, M and G
    each 1 or the number of models, and a model axis of 1 broadcasts. None
    of them reads an .ndim, which would let a second layout grow back
    unseen: only the checks before them (_tokens, and _one_model's refusal
    of per-model emissions) tell the batch forms apart."""
    engine = {"_padded", "_forward_backward", "_batch_nll"}
    tree = ast.parse((ROOT / "src" / "mcrf" / "crf.py").read_text(encoding="utf-8"))
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in engine]
    assert sorted(f.name for f in functions) == sorted(engine)  # the scan sees the engine
    found = [
        f"{f.name}: line {node.lineno}"
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Attribute) and node.attr == "ndim"
    ]
    assert found == []


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a syntax tree reads, as a Name or an Attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_is_read_outside_the_unit_tests(monkeypatch):
    """A name that only unit tests read is no public API: each name in
    mcrf.__all__ is read by package code outside its own definition, by
    the acceptance gate, or by the benchmark, whose tracer names the
    functions it wraps as strings."""
    import mcrf

    read = set()
    for path in (ROOT / "src" / "mcrf").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                own = {getattr(node, "name", None)}  # a def or class reading itself
                read |= _names_read(node) - own
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    spec = importlib.util.spec_from_file_location("ci_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses resolves annotations there
    spec.loader.exec_module(tracer)
    read |= {q.rsplit(".", 1)[1] for layer in tracer.MCRF_LAYERS for q in layer.functions}
    assert sorted(set(mcrf.__all__) - read) == []


def _defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement binds: a def's or class's name, or
    the names an assignment stores."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_private_name_is_read_by_package_code():
    """A helper or constant whose last reader went away fails here: each
    top-level underscore name (not a dunder) of a package module is read by
    package code outside its own definition."""
    defined, read = set(), set()
    for path in (ROOT / "src" / "mcrf").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(node)
            defined |= {f"{path.stem}.{name}" for name in own}
            read |= _names_read(node) - own
    private = {q for q in defined if re.match(r"_(?!_)", q.split(".")[1])}
    assert len(private) > 20  # the scan sees the helpers
    assert sorted(q for q in private if q.split(".")[1] not in read) == []


def test_runtime_warnings_fail_a_test():
    """pyproject.toml turns a RuntimeWarning (a silent overflow or nan) into
    an error in every test."""
    with pytest.raises(RuntimeWarning):
        np.log(np.zeros(1))


def test_runs_the_benchmark_self_test():
    assert "python3 perfbench/selftest.py" in _run_lines()


def _readme_section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_module_and_subcommand():
    """A module or subcommand added without docs fails here."""
    row = re.compile(r"^\| `mcrf(?:\.| )([\w-]+)` \|", re.MULTILINE)
    documented = row.findall(_readme_section("Module map"))
    modules = {p.stem for p in (ROOT / "src" / "mcrf").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(documented) == sorted(modules)
    listed = row.findall(_readme_section("Command reference"))
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)

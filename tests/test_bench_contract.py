"""The names and report keys that ``bench/`` reads from the package.

The benchmark imports package names, wraps the functions listed in
``bench/tracing.py``'s ``TRACED`` and reads fields of the ``align`` and
``diagnose`` reports.  A change that drops one of them makes every benchmark
run fail; these tests catch it without running the benchmark.
"""

import ast
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import factoralign
from factoralign.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_names_used(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, name)`` for every name imported from the package, and every
    attribute read from a package submodule imported by name."""
    used, submodules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "factoralign":
            for alias in node.names:
                used.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):
                    submodules[alias.asname or alias.name] = value.__name__
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in submodules:
            used.append((submodules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text())
    missing = [
        f"{module}.{name}"
        for module, name in _package_names_used(tree)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_bench_traced_names_exist():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"factoralign.{layer}"), name, None))
    ]
    assert missing == []


def test_reports_have_the_keys_the_bench_reads(tmp_path):
    data, chain = tmp_path / "data", tmp_path / "chain"
    argvs = [
        ["simulate", "--n", "40", "--p", "9", "--k", "3", "--scenario", "sparse", "--out", data],
        ["fit", f"{data}.csv", "--k", "3", "--iterations", "40", "--burn-in", "10", "--out", chain],
        ["align", chain, "--out", tmp_path / "al"],
        ["diagnose", "--raw", chain, "--aligned", tmp_path / "al", "--traces", "0,0", "--out", tmp_path / "d"],
    ]
    for argv in argvs:
        assert main([str(arg) for arg in argv]) == 0
    report = json.loads((tmp_path / "al_report.json").read_text())
    alignment = report["alignment"]
    for key in ("pivot_index", "pivot_statistic", "losses", "total_loss", "comparisons_per_sample"):
        assert key in alignment, key
    assert all(set(sp) >= {"perm", "signs"} for sp in alignment["permutations"])
    assert len(alignment["permutations"]) == len(alignment["losses"]) == 30
    for key in ("covariance_discrepancy_raw", "covariance_discrepancy_aligned"):
        assert isinstance(report["diagnostics"][key], float), key
    diagnose = json.loads((tmp_path / "d_report.json").read_text())
    assert isinstance(diagnose["covariance_discrepancy_aligned"], float)


def test_align_stages_are_traced(tmp_path):
    # bench/tracing.py wraps module attributes, so align must reach each stage
    # through its module for the traced run to time it.
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    chain = np.random.default_rng(7).standard_normal((12, 7, 2))
    factoralign.write_chain(tmp_path / "c", factoralign.Chain(chain))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.command("align"):
        assert main(["align", str(tmp_path / "c"), "--out", str(tmp_path / "a")]) == 0
    names = [span.name for span in tracer.spans]
    for stage in (
        "varimax.orthogonalize_chain",
        "pivot.select_pivot",
        "align.align_chain",
        "diagnostics.build_report",
        "chainio.read_chain",
        "chainio.write_chain",
        "chainio.write_report",
    ):
        assert names.count(stage) == 1, (stage, names)
    assert tracer.varimax_calls

"""Fast self-check of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 bench/selfcheck.py

It runs every workload, shrunk, untraced and traced; checks that the result
lines name every metric in ``BENCHMARK.json``; shows that each output check
flags a corrupted output; and shows that the benchmark refuses to run in a
directory without the package source.  It exits non-zero on the first
failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
from pipeline import CommandRun, Outputs, run_pipeline, trace_entries
from workloads import REPO_ROOT, TINY, WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent


def shrink(w):
    return dataclasses.replace(
        w, fit_iterations=8, fit_burn_in=2, chain_samples=max(12, w.chain_samples // 15)
    )


def check_definition() -> None:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH_DIR.name], spec["paths"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_runs(work: Path) -> None:
    for w in WORKLOADS.values():
        small = shrink(w)
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = run.run(small, 0, 1, trace, work / f"{w.name}-{trace}")["result"]
            assert result["correct"] and result["failed"] == 0, (w.name, trace, result)
            assert result["attempted"] >= 4 * run.MIN_PASSES[trace], result
            assert list(result["metrics"]) == list(names), (w.name, trace)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (w.name, name, metric)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                assert all(v > 0 for v in metrics.values()), (w.name, metrics)
            else:
                assert metrics["diagnostics.cov_calls"] == 2, metrics
                assert metrics["cli.self_share"] < 0.5, metrics


def check_checks(work: Path) -> None:
    """Every output check passes on a real pass and fails on a corrupted copy."""
    inputs = write_inputs(TINY, 0, work / "inputs")
    runs = run_pipeline(TINY, inputs, 0, work / "out")
    out = Outputs(work / "out")
    raw = checks.load_samples(inputs.chain)
    aligned = checks.load_samples(out.chain("align_t1"))
    report = json.loads(out.report("align_t1").read_text())
    entries = trace_entries(TINY)
    assert all(r.ok for r in runs.values()), runs
    assert checks.check_fit(out, TINY.fit_samples) is None
    assert checks.check_align(raw, aligned, report) is None
    assert checks.check_threads_identical(out) is None
    assert checks.check_diagnose(out, aligned, entries) is None
    tally = run.Tally()
    run.check_pass(TINY, out, raw, runs, {"fit": "0" * 64}, tally)
    assert tally.failed == 1 and tally.reasons[0].startswith("fit: output differs"), tally

    assert checks.check_fit(out, TINY.fit_samples + 1) is not None
    scaled = aligned.copy()
    scaled[3] *= 1.001
    assert checks.check_align(raw, scaled, report) is not None
    bad_loss = json.loads(json.dumps(report))
    bad_loss["alignment"]["losses"][3] *= 1.001
    assert checks.check_align(raw, aligned, bad_loss) is not None
    report_t2 = out.report("align_t2")
    body = json.loads(report_t2.read_text())
    body["alignment"]["total_loss"] += 1.0
    report_t2.write_text(json.dumps(body))
    assert checks.check_threads_identical(out) is not None
    traces = out.traces.read_text().splitlines()
    traces[1] = traces[1].replace(traces[1].split(",")[0], "0.5", 1)
    out.traces.write_text("\n".join(traces) + "\n")
    assert checks.check_diagnose(out, aligned, entries) is not None

    tally = run.Tally()
    run.check_pass(TINY, out, raw, dict(runs, fit=CommandRun(3, 0.0)), {}, tally)
    assert tally.attempted == 4 and tally.failed == 3, tally
    assert tally.reasons[0] == "fit: exit code 3", tally


def check_refuses_without_source(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fit-k5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK_ROOT))
    try:
        check_definition()
        print("ok check_definition")
        for step in (check_checks, check_refuses_without_source, check_runs):
            step(work / step.__name__)
            print(f"ok {step.__name__}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

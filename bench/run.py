"""factoralign benchmark: the fit / align / diagnose CLI on seeded generated inputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload align-drift-k5 --seed 1 --seconds 30 --trace 0

The run first times ``SETUP_PASSES`` fresh set-up processes (interpreter
start, imports, input generation and file writes, and a tiny warm-up
pipeline) and reports their median as ``setup_s``.  It then repeats the
pipeline of ``fit``, ``align --threads 1``, ``align --threads 2`` and
``diagnose`` through ``factoralign.cli.main`` for ``--seconds``, with the
garbage collector off inside each timed command, and checks every output.
The throughput of ``align --threads 2`` is a per-layer metric, not an
end-to-end one: its worker threads and the BLAS library's own threads
outnumber the CPUs of a small machine, so its wall time follows the host's
scheduler more than the program.

A timed metric is the median over the passes during which the machine lost
no more CPU time to hypervisor steal than in its median pass: on a shared
virtual machine steal comes in bursts and changes from minute to minute, and
timing only the least disturbed half keeps one run comparable with the next.
Each pass's steal is recorded in the details line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; its spans are
written to ``.bench_work/spans/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment and the per-metric
sample counts and quartiles.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads  # exits with code 2 when the checkout has no package source
from workloads import REPO_ROOT, WORKLOADS, Inputs, Workload, warm_up

import numpy as np

import checks
from factoralign.align import UNSTABLE_DISTANCE_FRACTION
from factoralign.pivot import RANK_TOLERANCE
from pipeline import COMMANDS, CommandRun, Outputs, cpu_ticks, run_pipeline, trace_entries
from tracing import TRACED, Tracer, self_seconds

WORK_ROOT = REPO_ROOT / ".bench_work"
SETUP_PASSES = 3
SETUP_TIMEOUT_S = 120
MIN_PASSES = {0: 3, 1: 4}
NAN = float("nan")

END_TO_END = {
    "setup_s": "s",
    "fit_iters_per_s": "iter/s",
    "align_samples_per_s": "samples/s",
    "diagnose_samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
    "cov_discrepancy_ratio": "ratio",
    "greedy_optimal_frac": "fraction",
    "ops_ok_frac": "fraction",
}

PER_LAYER = {
    "factor_model.s_per_iter": "s",
    "factor_model.share": "fraction",
    "varimax.s_per_sample": "s",
    "varimax.share": "fraction",
    "varimax.sweeps_median": "count",
    "varimax.sweeps_max": "count",
    "varimax.nonconverged": "count",
    "pivot.s": "s",
    "pivot.inf_frac": "fraction",
    "pivot.fallback": "count",
    "align.s_per_sample": "s",
    "align.share": "fraction",
    "align.comparisons_per_sample": "count",
    "align.unstable_matches": "count",
    "align.switch_rate": "fraction",
    "diagnostics.cov_s": "s",
    "diagnostics.cov_calls": "count",
    "diagnostics.ess_s": "s",
    "diagnostics.ess_calls": "count",
    "diagnostics.diagnose_s": "s",
    "diagnostics.diagnose_share": "fraction",
    "chainio.read_s": "s",
    "chainio.write_chain_s": "s",
    "chainio.write_report_s": "s",
    "chainio.bytes_written": "bytes",
    "chainio.report_bytes": "bytes",
    "cli.self_s": "s",
    "cli.self_share": "fraction",
    "parallel.align_samples_per_s_threads2": "samples/s",
    "parallel.threads2_over_threads1": "ratio",
    "trace.overhead_frac": "fraction",
}

_DIAGNOSTICS = {f"diagnostics.{name}" for name in TRACED["diagnostics"]}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, command: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{command}: {error}")


# ---------------------------------------------------------------- set-up


def timed_setup(w: Workload, seed: int, work: Path) -> tuple[Inputs, list[float]]:
    """Run the set-up passes in fresh processes; return the first one's inputs and every wall."""
    walls = []
    for i in range(SETUP_PASSES):
        cmd = [sys.executable, str(Path(workloads.__file__)), "--spec", json.dumps(asdict(w)),
               "--seed", str(seed), "--out", str(work / f"setup{i}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    first = Inputs(work / "setup0")
    for i in range(1, SETUP_PASSES):
        other = Inputs(work / f"setup{i}")
        if [f.read_bytes() for f in first.files()] != [f.read_bytes() for f in other.files()]:
            raise RuntimeError(f"set-up pass {i} wrote different inputs for the same seed")
    return first, walls


# ---------------------------------------------------------------- checks


def check_pass(w: Workload, out: Outputs, raw: np.ndarray, runs: dict[str, CommandRun],
               reference: dict[str, str], tally: Tally) -> tuple[np.ndarray | None, dict | None]:
    """Check one pass's outputs, counting each command as one operation.

    The first passing output of each command becomes the reference that later
    passes must reproduce byte for byte.  Returns the aligned chain and the
    align report when ``align --threads 1`` passed.
    """
    errors = {
        name: None if run.ok else (run.error or f"exit code {run.exit_code}")
        for name, run in runs.items()
    }
    aligned = report = None
    digests: dict[str, str] = {}

    def fit() -> str | None:
        base = out.chain("fit")
        digests["fit"] = checks.digest(base.with_suffix(".json").read_bytes(), base.with_suffix(".bin").read_bytes())
        return checks.check_fit(out, w.fit_samples)

    def align_t1() -> str | None:
        nonlocal aligned, report
        aligned = checks.load_samples(out.chain("align_t1"))
        report = json.loads(out.report("align_t1").read_text())
        digests["align_t1"] = checks.align_digest(out, "align_t1")
        return checks.check_align(raw, aligned, report)

    def align_t2() -> str | None:
        if errors["align_t1"] is not None:
            return "not comparable: align --threads 1 failed"
        return checks.check_threads_identical(out)

    def diagnose() -> str | None:
        if errors["align_t1"] is not None:
            return "not checkable: align --threads 1 failed"
        digests["diagnose"] = checks.digest(out.report("diagnose").read_bytes(), out.traces.read_bytes())
        return checks.check_diagnose(out, aligned, trace_entries(w))

    for name, check in (("fit", fit), ("align_t1", align_t1), ("align_t2", align_t2), ("diagnose", diagnose)):
        if errors[name] is None:
            try:
                errors[name] = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output fails the check
                errors[name] = f"unreadable output: {type(exc).__name__}: {exc}"
    for name, value in digests.items():
        if errors[name] is None:
            if reference.setdefault(name, value) != value:
                errors[name] = "output differs from the first pass on the same inputs"
    for name in COMMANDS:
        tally.record(name, errors[name])
    if errors["align_t1"] is not None:
        return None, None
    return aligned, report


# ---------------------------------------------------------------- per-layer metrics


def layer_metrics(tracer: Tracer, run: str, w: Workload, out: Outputs,
                  aligned: np.ndarray, report: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans and outputs."""
    spans = [s for s in tracer.spans if s.run == run]
    own = self_seconds(spans)
    roots = {s.name: s for s in spans if s.parent is None}

    def descendants(root):
        ids, found = {root.id}, []
        for s in spans:  # parents precede their children
            if s.parent in ids:
                ids.add(s.id)
                found.append(s)
        return found

    def seconds_in(root, names):
        return sum(own[s.id] for s in descendants(root) if s.name in names)

    def calls_in(root, name):
        return sum(1 for s in descendants(root) if s.name == name)

    fit, a1, diag = roots["cli.fit"], roots["cli.align_t1"], roots["cli.diagnose"]
    t_len = aligned.shape[0]
    gibbs = seconds_in(fit, {"factor_model.gibbs_sample"})
    varimax = seconds_in(a1, {"varimax.orthogonalize_chain"})
    matching = seconds_in(a1, {"align.align_chain"})
    diagnose = seconds_in(diag, _DIAGNOSTICS)
    sweeps = [n for cmd, n, _ in tracer.varimax_calls if cmd == a1.id]
    nonconverged = sum(1 for cmd, _, ok in tracer.varimax_calls if cmd == a1.id and not ok)

    alignment = report["alignment"]
    pivot = aligned[alignment["pivot_index"]]
    svals = np.linalg.svd(aligned, compute_uv=False)
    limit = UNSTABLE_DISTANCE_FRACTION**2 * float(np.max(np.sum(pivot * pivot, axis=0)))
    col_d2 = np.sum((aligned - pivot) ** 2, axis=1)
    perms = [(tuple(sp["perm"]), tuple(sp["signs"])) for sp in alignment["permutations"]]
    switches = sum(1 for a, b in zip(perms, perms[1:]) if a != b)
    base = out.chain("align_t1")

    return {
        "factor_model.s_per_iter": gibbs / w.fit_iterations,
        "factor_model.share": gibbs / fit.seconds,
        "varimax.s_per_sample": varimax / t_len,
        "varimax.share": varimax / a1.seconds,
        "varimax.sweeps_median": float(np.median(sweeps)),
        "varimax.sweeps_max": float(max(sweeps)),
        "varimax.nonconverged": nonconverged,
        "pivot.s": seconds_in(a1, {"pivot.select_pivot"}),
        "pivot.inf_frac": float(np.mean(svals[:, -1] <= RANK_TOLERANCE * svals[:, 0])),
        "pivot.fallback": int(alignment["pivot_statistic"] == "sigma-max"),
        "align.s_per_sample": matching / t_len,
        "align.share": matching / a1.seconds,
        "align.comparisons_per_sample": alignment["comparisons_per_sample"],
        "align.unstable_matches": int(np.sum(col_d2 > limit)),
        "align.switch_rate": switches / max(t_len - 1, 1),
        "diagnostics.cov_s": seconds_in(a1, {"diagnostics.covariance_discrepancy"}),
        "diagnostics.cov_calls": calls_in(a1, "diagnostics.covariance_discrepancy"),
        "diagnostics.ess_s": seconds_in(a1, {"diagnostics.mean_ess_ratio", "diagnostics.per_entry_ess"}),
        "diagnostics.ess_calls": calls_in(a1, "diagnostics.per_entry_ess"),
        "diagnostics.diagnose_s": diagnose,
        "diagnostics.diagnose_share": diagnose / diag.seconds,
        "chainio.read_s": seconds_in(a1, {"chainio.read_chain"}),
        "chainio.write_chain_s": seconds_in(a1, {"chainio.write_chain"}),
        "chainio.write_report_s": seconds_in(a1, {"chainio.write_report"}),
        "chainio.bytes_written": base.with_suffix(".json").stat().st_size + base.with_suffix(".bin").stat().st_size,
        "chainio.report_bytes": out.report("align_t1").stat().st_size,
        "cli.self_s": own[a1.id],
        "cli.self_share": own[a1.id] / a1.seconds,
    }


# ---------------------------------------------------------------- environment


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, read without changing it."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps if "blas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    return None


def environment(w: Workload, seed: int, seconds: int, trace: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- run


def summary(values: list[float]) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": qs[0], "median": statistics.median(values), "q3": qs[2], "max": max(values)}


def least_disturbed(runs: list[CommandRun]) -> list[float]:
    """Wall times of the runs during which the machine lost no more CPU to steal than its median run."""
    if not runs:
        return []
    limit = statistics.median(r.steal for r in runs)
    return [r.seconds for r in runs if r.steal <= limit]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else NAN


def run(w: Workload, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """Set up, measure for ``seconds`` and check; return the result and its details."""
    inputs, setup_walls = timed_setup(w, seed, work)
    warm_up(seed, work / "warmup")

    raw = checks.load_samples(inputs.chain)
    out = Outputs(work / "out")
    tally = Tally()
    reference: dict[str, str] = {}
    plain: dict[str, list[CommandRun]] = {name: [] for name in COMMANDS}
    traced_walls, plain_walls, layers = [], [], []
    tracer = Tracer()
    quality: dict[str, float] = {}
    pass_walls = []
    steal_before, total_before = cpu_ticks()
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        traced = trace == 1 and len(pass_walls) % 2 == 1
        tracer.run = f"{w.name}/seed{seed}/pass{len(pass_walls)}"
        if traced:
            with tracer.installed():
                runs = run_pipeline(w, inputs, seed, out.directory, tracer)
        else:
            runs = run_pipeline(w, inputs, seed, out.directory)
        aligned, report = check_pass(w, out, raw, runs, reference, tally)
        (traced_walls if traced else plain_walls).append(sum(r.seconds for r in runs.values()))
        if not traced:
            for name, r in runs.items():
                plain[name].append(r)
        if aligned is not None:
            if traced:
                layers.append(layer_metrics(tracer, tracer.run, w, out, aligned, report))
            if not quality:
                diag = report["diagnostics"]
                quality = {
                    "cov_discrepancy_ratio": diag["covariance_discrepancy_raw"] / diag["covariance_discrepancy_aligned"],
                    "greedy_optimal_frac": checks.greedy_optimal_frac(aligned, report),
                }
        pass_walls.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if len(pass_walls) >= MIN_PASSES[trace] and elapsed + statistics.median(pass_walls) > seconds:
            break

    steal_after, total_after = cpu_ticks()

    def seconds_ok(name: str) -> list[float]:
        return least_disturbed([r for r in plain[name] if r.ok])

    if trace == 0:
        samples = {
            "setup_s": setup_walls,
            "fit_iters_per_s": [w.fit_iterations / s for s in seconds_ok("fit")],
            "align_samples_per_s": [w.chain_samples / s for s in seconds_ok("align_t1")],
            "diagnose_samples_per_s": [w.chain_samples / s for s in seconds_ok("diagnose")],
        }
        values = {name: median(v) for name, v in samples.items()}
        values.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            cov_discrepancy_ratio=quality.get("cov_discrepancy_ratio", NAN),
            greedy_optimal_frac=quality.get("greedy_optimal_frac", NAN),
            ops_ok_frac=(tally.attempted - tally.failed) / tally.attempted,
        )
        units = END_TO_END
    else:
        samples = {name: [m[name] for m in layers if name in m] for name in PER_LAYER}
        samples["parallel.align_samples_per_s_threads2"] = [w.chain_samples / s for s in seconds_ok("align_t2")]
        samples["parallel.threads2_over_threads1"] = [median(seconds_ok("align_t2")) / median(seconds_ok("align_t1"))]
        samples["trace.overhead_frac"] = [median(traced_walls) / median(plain_walls) - 1.0]
        values = {name: median(v) for name, v in samples.items()}
        spans_path = WORK_ROOT / "spans" / f"{w.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        units = PER_LAYER

    result = {
        "correct": tally.failed == 0 and bool(quality),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "passes": len(pass_walls),
        "measured_s": time.perf_counter() - start,
        "cpu_steal_frac": (steal_after - steal_before) / max(total_after - total_before, 1),
        "samples": {name: summary(v) for name, v in samples.items() if v},
        "values": samples,
        "all_seconds": {name: [r.seconds for r in runs] for name, runs in plain.items()},
        "steal": {name: [r.steal for r in runs] for name, runs in plain.items()},
        "failures": tally.reasons,
    }
    if trace:
        details["spans"] = str(spans_path.relative_to(REPO_ROOT))
    return {"result": result, "details": details}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        outcome = run(w, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {"environment": environment(w, args.seed, args.seconds, args.trace), **outcome["details"]}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

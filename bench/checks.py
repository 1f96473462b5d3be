"""Output checks for one pipeline pass.

Each check returns ``None`` when the output is correct and a one-line reason
otherwise.  Chain files are decoded here from the documented on-disk layout
(a JSON manifest plus T column-major p x k float64 matrices), independently
of ``factoralign.chainio``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from pipeline import Outputs  # puts this checkout's package source on the path

from factoralign.align import exact_match_assignment, match_loss

GRAM_RTOL = 1e-10
LOSS_RTOL = 1e-12
OPTIMAL_RTOL = 1e-10
_CHUNK = 256


def load_samples(base: Path) -> np.ndarray:
    """The (T, p, k) loadings stack of the chain at ``<base>.json`` / ``<base>.bin``."""
    manifest = json.loads(base.with_suffix(".json").read_text())
    t, p, k = manifest["T"], manifest["p"], manifest["k"]
    payload = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
    expected = t * p * k + (t * p if manifest["has_residual_variances"] else 0)
    if payload.size != expected:
        raise ValueError(f"{base}.bin holds {payload.size} values, manifest implies {expected}")
    return payload[: t * p * k].reshape(t, k, p).transpose(0, 2, 1)


def report_body(path: Path) -> dict:
    """A report without its wall-clock ``timings`` block."""
    body = json.loads(path.read_text())
    body.pop("timings", None)
    return body


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def align_digest(out: Outputs, command: str) -> str:
    """Hash of an align command's chain files and report body (timings excluded)."""
    base = out.chain(command)
    body = json.dumps(report_body(out.report(command)), sort_keys=True).encode()
    return digest(base.with_suffix(".json").read_bytes(), base.with_suffix(".bin").read_bytes(), body)


def check_fit(out: Outputs, expected_samples: int) -> str | None:
    samples = load_samples(out.chain("fit"))
    if samples.shape[0] != expected_samples:
        return f"fit chain has T={samples.shape[0]}, expected iterations - burn-in = {expected_samples}"
    if not np.all(np.isfinite(samples)):
        return "fit chain has non-finite entries"
    return None


def check_align(raw: np.ndarray, aligned: np.ndarray, report: dict) -> str | None:
    """Per-sample L L^T preserved, and the reported losses are the distances to the pivot."""
    if aligned.shape != raw.shape:
        return f"aligned chain shape {aligned.shape} differs from raw {raw.shape}"
    for lo in range(0, raw.shape[0], _CHUNK):
        r = raw[lo : lo + _CHUNK]
        a = aligned[lo : lo + _CHUNK]
        g_raw = np.einsum("tik,tjk->tij", r, r)
        g_aln = np.einsum("tik,tjk->tij", a, a)
        err = np.sqrt(np.sum((g_aln - g_raw) ** 2, axis=(1, 2)))
        scale = np.sqrt(np.sum(g_raw**2, axis=(1, 2)))
        bad = np.flatnonzero(~(err <= GRAM_RTOL * scale))
        if bad.size:
            return f"sample {lo + bad[0]}: L L^T changed by {err[bad[0]]:.3g} relative to {scale[bad[0]]:.3g}"
    alignment = report["alignment"]
    index = alignment["pivot_index"]
    if not 0 <= index < aligned.shape[0]:
        return f"pivot index {index} out of range"
    pivot = aligned[index]
    recomputed = np.sqrt(np.sum((aligned - pivot) ** 2, axis=(1, 2)))
    losses = np.asarray(alignment["losses"], dtype=np.float64)
    if losses.shape != recomputed.shape:
        return f"report has {losses.size} losses for {recomputed.size} samples"
    bad = np.flatnonzero(~(np.abs(losses - recomputed) <= LOSS_RTOL * recomputed))
    if bad.size:
        return f"sample {bad[0]}: reported loss {losses[bad[0]]!r}, distance to pivot {recomputed[bad[0]]!r}"
    return None


def check_threads_identical(out: Outputs) -> str | None:
    """The aligned chain and the report body are byte-identical across --threads."""
    for suffix in (".json", ".bin"):
        if out.chain("align_t1").with_suffix(suffix).read_bytes() != out.chain("align_t2").with_suffix(suffix).read_bytes():
            return f"aligned chain {suffix} differs between --threads 1 and --threads 2"
    if report_body(out.report("align_t1")) != report_body(out.report("align_t2")):
        return "align report body differs between --threads 1 and --threads 2"
    return None


def check_diagnose(out: Outputs, aligned: np.ndarray, entries: list[tuple[int, int]]) -> str | None:
    report = json.loads(out.report("diagnose").read_text())
    value = report.get("covariance_discrepancy_aligned")
    if not (isinstance(value, float) and np.isfinite(value) and value >= 0):
        return f"diagnose report has covariance_discrepancy_aligned={value!r}"
    traces = np.loadtxt(out.traces, delimiter=",", skiprows=1, ndmin=2)
    expected = np.column_stack([aligned[:, i, j] for i, j in entries])
    if traces.shape != expected.shape or not np.array_equal(traces, expected):
        return "exported traces differ from the aligned chain's entries"
    return None


def greedy_optimal_frac(aligned: np.ndarray, report: dict) -> float:
    """Share of samples whose greedy loss equals the assignment optimum against the pivot.

    Signed permutations of the aligned sample are those of the rotated one, so
    the optimum can be taken from the aligned chain.
    """
    alignment = report["alignment"]
    pivot = aligned[alignment["pivot_index"]]
    hits = 0
    for sample, greedy in zip(aligned, alignment["losses"]):
        best = match_loss(sample, exact_match_assignment(sample, pivot), pivot)
        hits += abs(greedy - best) <= OPTIMAL_RTOL * max(best, 1e-300)
    return hits / aligned.shape[0]

"""Shared fixtures: helpers plus the one expensive end-to-end pipeline run.

The sparse p=50, k=5 pipeline (simulate, fit 6000/1000, align twice with
``--threads 1`` and ``--threads 8``, which has no effect and so must give the
same artifacts, diagnose) is executed once per session through the CLI; the
acceptance criteria and the CLI-level checks all read its artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from factoralign.cli import main as cli_main

# The end-to-end run uses a tight Gaussian loading prior (see notes in
# test_acceptance): near-unidentified rows otherwise sit at prior scale and
# dominate the covariance metric.
PIPELINE = {
    "n": 500,
    "p": 50,
    "k": 5,
    "gen_seed": 3,
    "fit_seed": 4,
    "iterations": 6000,
    "burn_in": 1000,
    "prior_loading_variance": 0.02,
}


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory) -> Path:
    """Artifacts of the full sparse pipeline, run via the CLI once per session."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = PIPELINE
    start = time.perf_counter()
    assert (
        cli_main(
            [
                "simulate",
                "--n", str(cfg["n"]),
                "--p", str(cfg["p"]),
                "--k", str(cfg["k"]),
                "--scenario", "sparse",
                "--seed", str(cfg["gen_seed"]),
                "--out", str(root / "data"),
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "fit",
                str(root / "data.csv"),
                "--k", str(cfg["k"]),
                "--iterations", str(cfg["iterations"]),
                "--burn-in", str(cfg["burn_in"]),
                "--seed", str(cfg["fit_seed"]),
                "--prior-loading-variance", str(cfg["prior_loading_variance"]),
                "--out", str(root / "chain"),
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "align",
                str(root / "chain"),
                "--threads", "1",
                "--out", str(root / "aligned_t1"),
                "--report", str(root / "aligned_t1_report.json"),
            ]
        )
        == 0
    )
    single_threaded_seconds = time.perf_counter() - start
    assert (
        cli_main(
            [
                "align",
                str(root / "chain"),
                "--threads", "8",
                "--out", str(root / "aligned_t8"),
                "--report", str(root / "aligned_t8_report.json"),
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "diagnose",
                "--raw", str(root / "chain"),
                "--aligned", str(root / "aligned_t1"),
                "--traces", "0,0;10,1",
                "--out", str(root / "diag"),
            ]
        )
        == 0
    )
    (root / "fixture_timing.json").write_text(
        json.dumps({"single_threaded_pipeline_seconds": single_threaded_seconds})
    )
    return root


@pytest.fixture(scope="session")
def pipeline_report(pipeline_dir) -> dict:
    return json.loads((pipeline_dir / "aligned_t1_report.json").read_text())

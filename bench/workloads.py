"""Workload definitions and seeded input generators for the factoralign benchmark.

Every workload runs the same four CLI commands a user runs after ``simulate``:
``fit`` on a simulated dataset, ``align --threads 1``, ``align --threads 2``
and ``diagnose`` on a drifting, label-switching chain.  The workloads differ
in where the work lies, so that a change to one layer shows on one workload
and not on another:

* ``fit-k5`` spends most of its time in the Gibbs sampler; its chain is short.
* ``align-drift-k5`` has the paper's and README's shape (p=50, k=5); varimax
  dominates ``align`` there.
* ``align-switch-k2`` has a long chain of small samples (p=20, k=2), so the
  per-sample overhead of pivot selection, matching, diagnostics and report
  writing weighs more.

Run as a script, this module is one set-up pass: it imports the package,
writes the inputs of one workload and seed into a directory, and runs a tiny
warm-up pipeline.  ``run.py`` times several such passes as ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def import_factoralign():
    """Import ``factoralign`` from this checkout's ``src`` and nothing else.

    Exits with code 2 when the checkout has no package source, so the
    benchmark never measures an installed copy by accident.
    """
    if not (SRC_DIR / "factoralign" / "cli.py").is_file():
        print(f"error: no package source at {SRC_DIR / 'factoralign'}", file=sys.stderr)
        sys.exit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import factoralign

    location = Path(factoralign.__file__).resolve()
    if SRC_DIR.resolve() not in location.parents:
        print(f"error: imported factoralign from {location}, not from {SRC_DIR}", file=sys.stderr)
        sys.exit(2)
    return factoralign


import_factoralign()

import numpy as np  # noqa: E402

from factoralign import chainio  # noqa: E402
from factoralign.cli import main as cli_main  # noqa: E402
from factoralign.core import Chain  # noqa: E402
from factoralign.factor_model import GeneratorConfig, Scenario, generate_sparse  # noqa: E402

# Loading prior used by the fit step, as in the test suite's end-to-end run.
PRIOR_LOADING_VARIANCE = 0.02
N_OBSERVATIONS = 500


@dataclass(frozen=True)
class Workload:
    """Shapes of one workload: the dataset the sampler fits and the chain aligned."""

    name: str
    p: int
    k: int
    fit_iterations: int
    fit_burn_in: int
    chain_samples: int
    n_observations: int = N_OBSERVATIONS

    @property
    def fit_samples(self) -> int:
        return self.fit_iterations - self.fit_burn_in


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-k5", p=50, k=5, fit_iterations=160, fit_burn_in=40, chain_samples=80),
        Workload("align-drift-k5", p=50, k=5, fit_iterations=10, fit_burn_in=2, chain_samples=160),
        Workload("align-switch-k2", p=20, k=2, fit_iterations=30, fit_burn_in=5, chain_samples=800),
    )
}

# Small enough to finish in well under a second; used for warm-up passes and
# by the self-check.
TINY = Workload(
    "tiny", p=7, k=2, fit_iterations=30, fit_burn_in=10, chain_samples=40, n_observations=60
)

# Chain generator constants: AR(1) noise around the truth, a Gaussian random
# walk on the rotation, and a fresh random signed permutation on average
# every SWITCH_EVERY draws.  The rotation step is large enough that the raw
# chain's mean mixes within one short chain, which keeps the covariance-
# discrepancy ratio comparable across seeds.
NOISE_AR = 0.9
NOISE_SD = 0.05
ROTATION_STEP = 0.5
SWITCH_EVERY = 50
VARIANCE_JITTER = 0.05


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated input files."""

    directory: Path

    @property
    def dataset(self) -> Path:
        return self.directory / "data.csv"

    @property
    def chain(self) -> Path:
        return self.directory / "chain"

    def files(self) -> list[Path]:
        return sorted(p for p in self.directory.iterdir() if p.is_file())


def _strength_profile(p: int, k: int) -> np.ndarray:
    # Squared column norms fixed at p/k times weights from 1.5 down to 0.5, so
    # the truth's scale, and with it the covariance-discrepancy ratio, does not
    # depend on the seed; the seed moves the loading pattern, noise, rotation
    # path and switches.
    weights = np.linspace(1.5, 0.5, k) if k > 1 else np.ones(1)
    return np.sqrt(p / k * weights)


def drifting_chain(w: Workload, seed: int) -> Chain:
    """A chain that moves the way an unconstrained Gibbs chain does.

    Each draw is a sparse truth plus AR(1) noise, right-multiplied by a
    random-walk rotation and then by a signed permutation that is redrawn
    about every ``SWITCH_EVERY`` draws.  Residual variances are the truth's
    with multiplicative log-normal jitter.
    """
    truth = generate_sparse(
        GeneratorConfig(
            n=w.n_observations, p=w.p, k=w.k, scenario=Scenario.SPARSE, seed=seed
        )
    )
    loadings = truth.true_loadings
    loadings = loadings / np.linalg.norm(loadings, axis=0) * _strength_profile(w.p, w.k)

    rng = np.random.default_rng([seed, 1])
    p, k, t_len = w.p, w.k, w.chain_samples
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    rotation = q * np.sign(np.diag(r))
    noise = NOISE_SD * rng.standard_normal((p, k))
    innovation_sd = NOISE_SD * np.sqrt(1.0 - NOISE_AR**2)
    perm = np.arange(k)
    signs = np.ones(k)
    eye = np.eye(k)
    samples = np.empty((t_len, p, k))
    for t in range(t_len):
        noise = NOISE_AR * noise + innovation_sd * rng.standard_normal((p, k))
        step = ROTATION_STEP * rng.standard_normal((k, k))
        q, r = np.linalg.qr(rotation @ (eye + step - step.T))
        rotation = q * np.sign(np.diag(r))
        if rng.random() < 1.0 / SWITCH_EVERY:
            perm = rng.permutation(k)
            signs = rng.choice([-1.0, 1.0], size=k)
        samples[t] = ((loadings + noise) @ rotation)[:, perm] * signs
    variances = truth.true_residual_variances * np.exp(
        VARIANCE_JITTER * rng.standard_normal((t_len, p))
    )
    return Chain(samples, variances)


def write_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the dataset (through ``simulate``) and the drifting chain for ``w``."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory)
    argv = [
        "simulate",
        "--n", str(w.n_observations),
        "--p", str(w.p),
        "--k", str(w.k),
        "--scenario", "sparse",
        "--seed", str(seed),
        "--out", str(directory / "data"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise RuntimeError(f"simulate failed for {w.name} seed {seed}")
    chainio.write_chain(
        inputs.chain, drifting_chain(w, seed), seed_provenance=f"bench {w.name} seed {seed}"
    )
    return inputs


def warm_up(seed: int, directory: Path) -> None:
    """Run the whole pipeline once at the tiny size, so lazy set-up is done before timing."""
    from pipeline import run_pipeline  # imported here: pipeline imports this module

    run_pipeline(TINY, write_inputs(TINY, seed, directory), seed, directory / "out")


def setup_pass(w: Workload, seed: int, directory: Path) -> None:
    """One timed set-up: write the inputs, then warm up."""
    write_inputs(w, seed, directory)
    warm_up(seed, directory / "warmup")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="the Workload's fields as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse_args(sys.argv[1:])
    setup_pass(Workload(**json.loads(args.spec)), args.seed, args.out)

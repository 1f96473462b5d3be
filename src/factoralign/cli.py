"""Command-line pipeline: simulate -> fit -> align -> diagnose, plus oracle-check.

Every subcommand is deterministic given its flags and seed.  ``align
--threads`` is accepted for compatibility and has no effect.  Exit codes:
0 success, 2 invalid arguments, 3 input-format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from . import chainio
from .align import (
    BRUTE_FORCE_MAX_K,
    UNSTABLE_DISTANCE_FRACTION,
    MatchConfig,
    MatchOrder,
    _checked_greedy_match,
    align_chain,
    brute_force_match,
    exact_match_assignment,
    match_loss,
)
from .core import Chain, random_signed_permutation
from .diagnostics import build_report, export_traces
from .factor_model import (
    GeneratorConfig,
    NumericalError,
    SamplerConfig,
    Scenario,
    generate_dataset,
    gibbs_sample,
)
from .pivot import (
    INFINITE_FRACTION_THRESHOLD,
    PivotStatistic,
    check_infinite_fraction_threshold,
    select_pivot,
)
from .varimax import VarimaxConfig, orthogonalize_chain

__all__ = ["build_parser", "console", "main"]

logger = logging.getLogger(__name__)

_PIVOT_CHOICES = {
    "auto": None,
    "condition": PivotStatistic.CONDITION_NUMBER,
    "sigma-max": PivotStatistic.LARGEST_SINGULAR_VALUE,
}
_ORDER_CHOICES = {
    "norm": MatchOrder.BY_DESCENDING_NORM,
    "natural": MatchOrder.NATURAL_COLUMN_ORDER,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factoralign",
        description=(
            "Remove rotational, label, and sign ambiguity from posterior "
            "factor-loading chains. Entry indices on this interface are 0-based."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic factor-model dataset")
    sim.add_argument("--n", type=int, default=500, help="number of observations")
    sim.add_argument("--p", type=int, required=True, help="number of observed variables")
    sim.add_argument("--k", type=int, required=True, help="latent dimension")
    sim.add_argument("--scenario", choices=["independent", "sparse"], required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--off-block-sd", type=float, default=0.01)
    sim.add_argument("--out", required=True, help="output prefix (<out>.csv, <out>_truth.*)")

    fit = sub.add_parser("fit", help="run the Gibbs sampler on a dataset CSV")
    fit.add_argument("dataset", help="dataset CSV produced by simulate (or compatible)")
    fit.add_argument("--k", type=int, required=True)
    fit.add_argument("--iterations", type=int, default=11000)
    fit.add_argument("--burn-in", type=int, default=1000)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--prior-loading-variance", type=float, default=1.0)
    fit.add_argument("--prior-residual-shape", type=float, default=0.5)
    fit.add_argument("--prior-residual-rate", type=float, default=0.5)
    fit.add_argument("--out", required=True, help="output chain prefix (<out>.json/.bin)")

    aln = sub.add_parser("align", help="orthogonalize, pick a pivot, and align a chain")
    aln.add_argument("chain", help="input chain prefix (<chain>.json/.bin)")
    aln.add_argument("--order", choices=sorted(_ORDER_CHOICES), default="norm")
    aln.add_argument("--pivot-statistic", choices=["auto", "condition", "sigma-max"], default="auto")
    aln.add_argument(
        "--infinite-fraction-threshold",
        type=float,
        default=INFINITE_FRACTION_THRESHOLD,
        help="fraction of rank-deficient samples above which the pivot statistic "
        "falls back to the largest singular value",
    )
    aln.add_argument("--varimax-tolerance", type=float, default=1e-8)
    aln.add_argument("--varimax-max-iterations", type=int, default=1000)
    aln.add_argument("--kaiser-normalize", action="store_true")
    aln.add_argument(
        "--threads", type=int, default=None, help="accepted for compatibility; has no effect"
    )
    aln.add_argument("--out", required=True, help="aligned chain prefix")
    aln.add_argument("--report", default=None, help="report path (default <out>_report.json)")

    dia = sub.add_parser("diagnose", help="alignment-quality metrics and trace exports")
    dia.add_argument("--raw", default=None, help="raw chain prefix")
    dia.add_argument("--aligned", default=None, help="aligned chain prefix")
    dia.add_argument(
        "--traces",
        default=None,
        help="semicolon-separated 0-based row,col entries to export, e.g. '0,0;3,1'",
    )
    dia.add_argument("--out", required=True, help="output prefix for report and traces")

    orc = sub.add_parser(
        "oracle-check", help="compare greedy, assignment, and brute-force matchers"
    )
    orc.add_argument("--p", type=int, default=12)
    orc.add_argument("--k", type=int, default=4)
    orc.add_argument("--trials", type=int, default=100)
    orc.add_argument("--noise", type=float, default=0.01)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument(
        "--brute",
        choices=["auto", "on", "off"],
        default="auto",
        help=f"run the exhaustive matcher (auto: only when k <= {BRUTE_FORCE_MAX_K})",
    )
    orc.add_argument("--out", default=None, help="report path (default: stdout)")

    return parser


def _cmd_simulate(args) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        p=args.p,
        k=args.k,
        scenario=Scenario(args.scenario),
        seed=args.seed,
        off_block_sd=args.off_block_sd,
    )
    dataset = generate_dataset(cfg)
    chainio.write_dataset(f"{args.out}.csv", dataset.X)
    truth = Chain(dataset.true_loadings[None, :, :], dataset.true_residual_variances[None, :])
    provenance = (
        f"simulate --n {args.n} --p {args.p} --k {args.k} "
        f"--scenario {args.scenario} --seed {args.seed}"
    )
    chainio.write_chain(f"{args.out}_truth", truth, seed_provenance=provenance)
    print(f"wrote {args.out}.csv and {args.out}_truth.json/.bin")
    return 0


def _cmd_fit(args) -> int:
    data = chainio.read_dataset(args.dataset)
    cfg = SamplerConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        prior_loading_variance=args.prior_loading_variance,
        prior_residual_shape=args.prior_residual_shape,
        prior_residual_rate=args.prior_residual_rate,
        seed=args.seed,
    )
    chain = gibbs_sample(data, cfg, args.k)
    provenance = (
        f"fit --k {args.k} --iterations {args.iterations} "
        f"--burn-in {args.burn_in} --seed {args.seed}"
    )
    chainio.write_chain(args.out, chain, seed_provenance=provenance)
    print(f"wrote {args.out}.json/.bin with T={chain.n_samples}")
    return 0


def _permutation_payload(report) -> list[dict]:
    return [
        {"perm": perm, "signs": signs}
        for perm, signs in zip(report.perm.tolist(), report.signs.tolist())
    ]


def _refuse_overwrite(target, inputs, message: str) -> None:
    """Raise ``ValueError(message)`` when ``target`` resolves to one of the ``inputs`` paths."""
    if Path(target).resolve() in {Path(path).resolve() for path in inputs}:
        raise ValueError(message)


def _cmd_align(args) -> int:
    if args.threads is not None and args.threads < 0:
        raise ValueError("--threads must be >= 0")
    report_path = args.report if args.report else f"{args.out}_report.json"
    out_files, in_files = chainio.chain_paths(args.out), chainio.chain_paths(args.chain)
    _refuse_overwrite(
        out_files[0], in_files[:1], f"--out {args.out} would overwrite the input chain {args.chain}"
    )
    _refuse_overwrite(
        report_path, out_files + in_files, f"--report path {report_path} collides with a chain file"
    )
    vconfig = VarimaxConfig(
        max_iterations=args.varimax_max_iterations,
        tolerance=args.varimax_tolerance,
        normalize=args.kaiser_normalize,
    )
    mconfig = MatchConfig(order=_ORDER_CHOICES[args.order])
    check_infinite_fraction_threshold(args.infinite_fraction_threshold)
    # Seconds per stage, each from the end of the one before.
    stamps = [time.perf_counter()]
    raw_chain, _ = chainio.read_chain(args.chain)
    stamps.append(time.perf_counter())
    rotated = orthogonalize_chain(raw_chain, vconfig)
    stamps.append(time.perf_counter())
    selection = select_pivot(
        rotated,
        force_statistic=_PIVOT_CHOICES[args.pivot_statistic],
        infinite_fraction_threshold=args.infinite_fraction_threshold,
    )
    stamps.append(time.perf_counter())
    aligned, report = align_chain(rotated, selection, mconfig)
    stamps.append(time.perf_counter())
    chainio.write_chain(args.out, aligned, seed_provenance=f"align {args.chain}")
    stamps.append(time.perf_counter())
    diagnostics = build_report(raw_chain, aligned)
    del diagnostics["per_entry_ess_raw"]
    stamps.append(time.perf_counter())
    read, varimax, pivot, match, write, diagnose = np.diff(stamps).tolist()

    payload = {
        "subcommand": "align",
        "alignment": {
            "order": args.order,
            "pivot_index": report.pivot.index,
            "pivot_statistic": report.pivot.statistic_used.value,
            "pivot_statistics": report.pivot.statistics.tolist(),
            "comparisons_per_sample": report.comparisons_per_sample,
            "total_loss": report.total_loss,
            "losses": report.losses.tolist(),
            "permutations": _permutation_payload(report),
        },
        "diagnostics": diagnostics,
        "timings": {
            "elapsed_align_seconds": varimax + pivot + match,
            "read_seconds": read,
            "varimax_seconds": varimax,
            "pivot_seconds": pivot,
            "match_seconds": match,
            "write_chain_seconds": write,
            "diagnostics_seconds": diagnose,
        },
    }
    chainio.write_report(report_path, payload)
    print(f"wrote {args.out}.json/.bin and {report_path}")
    return 0


def _parse_trace_entries(spec: str) -> list[tuple[int, int]]:
    entries = []
    for item in spec.split(";"):
        parts = item.split(",")
        if len(parts) != 2:
            raise ValueError(f"trace entry {item!r} is not of the form row,col")
        entries.append((int(parts[0]), int(parts[1])))
    return entries


def _cmd_diagnose(args) -> int:
    if args.raw is None and args.aligned is None:
        raise ValueError("at least one of --raw / --aligned is required")
    report_path = f"{args.out}_report.json"
    chains = [chain for chain in (args.raw, args.aligned) if chain]
    inputs = [path for chain in chains for path in chainio.chain_paths(chain)]
    _refuse_overwrite(report_path, inputs, f"--out {args.out} would overwrite an input chain file")
    entries = _parse_trace_entries(args.traces) if args.traces is not None else None
    raw = chainio.read_chain(args.raw)[0] if args.raw else None
    aligned = chainio.read_chain(args.aligned)[0] if args.aligned else None

    payload = {"subcommand": "diagnose", **build_report(raw, aligned), "traces_file": None}
    if entries is not None:
        source = aligned if aligned is not None else raw
        traces = export_traces(source, entries)
        labels = [f"r{i}_c{j}" for i, j in entries]
        traces_path = f"{args.out}_traces.csv"
        chainio.write_traces(traces_path, traces, labels)
        payload["traces_file"] = traces_path

    chainio.write_report(report_path, payload)
    print(f"wrote {report_path}")
    return 0


def _cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.k < 1 or args.p < args.k:
        raise ValueError("need p >= k >= 1")
    run_brute = args.brute == "on" or (args.brute == "auto" and args.k <= BRUTE_FORCE_MAX_K)
    if args.brute == "on" and args.k > BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"brute-force matching requested but k={args.k} exceeds the cap {BRUTE_FORCE_MAX_K}"
        )

    rng = np.random.default_rng(args.seed)
    greedy_losses, exact_losses, brute_losses = [], [], []
    greedy_times, exact_times, brute_times = [], [], []
    unstable_trials = unstable_columns = 0
    for _ in range(args.trials):
        pivot = rng.standard_normal((args.p, args.k))
        sp = random_signed_permutation(args.k, rng)
        sample = pivot[:, sp.perm] * sp.signs + args.noise * rng.standard_normal(
            (args.p, args.k)
        )
        start = time.perf_counter()
        g, n_unstable = _checked_greedy_match(sample, pivot)
        greedy_times.append(time.perf_counter() - start)
        unstable_trials += n_unstable > 0
        unstable_columns += n_unstable
        greedy_losses.append(match_loss(sample, g, pivot))
        start = time.perf_counter()
        e = exact_match_assignment(sample, pivot)
        exact_times.append(time.perf_counter() - start)
        exact_losses.append(match_loss(sample, e, pivot))
        if run_brute:
            start = time.perf_counter()
            b = brute_force_match(sample, pivot)
            brute_times.append(time.perf_counter() - start)
            brute_losses.append(match_loss(sample, b, pivot))

    if unstable_columns:
        logger.warning(
            "greedy matches of %d columns in %d of %d trials were at a distance above "
            "%.0f%% of the largest pivot column norm; those matches may be unstable",
            unstable_columns,
            unstable_trials,
            args.trials,
            100 * UNSTABLE_DISTANCE_FRACTION,
        )
    greedy_equal = sum(
        1
        for gl, el in zip(greedy_losses, exact_losses)
        if abs(gl - el) <= 1e-10 * max(1.0, el)
    )
    payload: dict = {
        "subcommand": "oracle-check",
        "p": args.p,
        "k": args.k,
        "trials": args.trials,
        "noise": args.noise,
        "seed": args.seed,
        "brute_force_included": run_brute,
        "greedy_losses": greedy_losses,
        "exact_losses": exact_losses,
        "brute_losses": brute_losses if run_brute else None,
        "greedy_equals_exact_count": greedy_equal,
        "exact_equals_brute_count": (
            sum(1 for el, bl in zip(exact_losses, brute_losses) if el == bl)
            if run_brute
            else None
        ),
        "timings": {
            "greedy_median_seconds": median(greedy_times),
            "exact_median_seconds": median(exact_times),
            "brute_median_seconds": median(brute_times) if run_brute else None,
        },
    }
    if args.out:
        chainio.write_report(args.out, payload)
        print(f"wrote {args.out}")
    else:
        print(chainio.report_text(payload))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "align": _cmd_align,
    "diagnose": _cmd_diagnose,
    "oracle-check": _cmd_oracle_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves a parser unchanged, so main builds one per process:
    # every argument makes a help formatter, which costs milliseconds.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except chainio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

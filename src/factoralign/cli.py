"""Command-line pipeline: simulate -> fit -> align -> diagnose, plus oracle-check.

Every subcommand is deterministic given its flags and seed.  ``align
--threads`` is accepted for compatibility and has no effect.  Exit codes:
0 success, 2 invalid arguments or an output that cannot be written, 3
input-format error, 4 numeric failure.  Among the exit-2 cases, each found
before any work: an ``--out`` or ``align --report`` that is empty or ends in
a path separator, and a ``fit --out`` whose chain files would overwrite the
dataset.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import chainio, diagnostics
from .align import (
    BRUTE_FORCE_MAX_K,
    MatchOrder,
    _checked_greedy_match,
    _warn_unstable_matches,
    align_posterior,
    brute_force_match,
    exact_match_assignment,
    match_loss,
)
from .core import Chain, NumericalError, check_seed, random_signed_permutation
from .factor_model import (
    GeneratorConfig,
    SamplerConfig,
    Scenario,
    generate_dataset,
    gibbs_sample,
)
from .pivot import INFINITE_FRACTION_THRESHOLD, PivotStatistic, check_infinite_fraction_threshold
from .varimax import VarimaxConfig

__all__ = ["build_parser", "console", "main"]


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
    sim.add_argument("--scenario", choices=[s.value for s in Scenario], required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--off-block-sd", type=float, default=GeneratorConfig.off_block_sd)
    sim.add_argument("--out", required=True, help="output prefix (<out>.csv, <out>_truth.*)")

    fit = sub.add_parser("fit", help="run the Gibbs sampler on a dataset CSV")
    fit.add_argument("dataset", help="dataset CSV produced by simulate (or compatible)")
    fit.add_argument("--k", type=int, required=True)
    fit.add_argument("--iterations", type=int, default=SamplerConfig.iterations)
    fit.add_argument("--burn-in", type=int, default=SamplerConfig.burn_in)
    fit.add_argument("--seed", type=int, default=SamplerConfig.seed)
    fit.add_argument(
        "--prior-loading-variance", type=float, default=SamplerConfig.prior_loading_variance
    )
    fit.add_argument(
        "--prior-residual-shape", type=float, default=SamplerConfig.prior_residual_shape
    )
    fit.add_argument("--prior-residual-rate", type=float, default=SamplerConfig.prior_residual_rate)
    fit.add_argument("--out", required=True, help="output chain prefix (<out>.json/.bin)")

    aln = sub.add_parser("align", help="orthogonalize, pick a pivot, and align a chain")
    aln.add_argument("chain", help="input chain prefix (<chain>.json/.bin)")
    aln.add_argument(
        "--order",
        choices=sorted(o.value for o in MatchOrder),
        default=MatchOrder.BY_DESCENDING_NORM.value,
    )
    aln.add_argument(
        "--pivot-statistic",
        choices=["auto", *sorted(s.value for s in PivotStatistic)],
        default="auto",
    )
    aln.add_argument(
        "--infinite-fraction-threshold",
        type=float,
        default=INFINITE_FRACTION_THRESHOLD,
        help="fraction of rank-deficient samples above which the pivot statistic "
        "falls back to the largest singular value",
    )
    aln.add_argument("--varimax-tolerance", type=float, default=VarimaxConfig.tolerance)
    aln.add_argument("--varimax-max-iterations", type=int, default=VarimaxConfig.max_iterations)
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


def _config(cls, args, **given):
    """A ``cls`` config from the parsed options named like its fields, with ``given`` overriding."""
    parsed = {field.name: getattr(args, field.name) for field in dataclasses.fields(cls)}
    return cls(**parsed | given)


def _provenance(args) -> str:
    """The parsed command line, for a chain manifest's ``seed_provenance``.

    The subcommand and input path are written bare, then every option as
    ``--name value`` in the parser's order, a set flag as ``--name`` alone.
    ``--out`` and ``--report`` name outputs and ``--threads`` has no effect,
    so they are left out, as are unset flags and options without a value.
    """
    words = []
    for name, value in vars(args).items():
        if name in ("out", "report", "threads") or value is None or value is False:
            continue
        if name not in ("subcommand", "dataset", "chain"):
            words.append(f"--{name.replace('_', '-')}")
        if value is not True:
            words.append(str(value))
    return " ".join(words)


def _cmd_simulate(args) -> int:
    cfg = _config(GeneratorConfig, args, scenario=Scenario(args.scenario))
    truth_files = chainio.chain_paths(f"{args.out}_truth")
    _check_targets([("--out", path) for path in (f"{args.out}.csv", *truth_files)])
    dataset = generate_dataset(cfg)
    chainio.write_dataset(f"{args.out}.csv", dataset.X)
    truth = Chain(dataset.true_loadings[None, :, :], dataset.true_residual_variances[None, :])
    chainio.write_chain(f"{args.out}_truth", truth, seed_provenance=_provenance(args))
    print(f"wrote {args.out}.csv and {truth_files[0]}/.bin")
    return 0


def _cmd_fit(args) -> int:
    cfg = _config(SamplerConfig, args)
    chain_files = chainio.chain_paths(args.out)
    _check_targets([("--out", path) for path in chain_files], [("the dataset", args.dataset)])
    data = chainio.read_dataset(args.dataset)
    chain = gibbs_sample(data, cfg, args.k)
    chainio.write_chain(args.out, chain, seed_provenance=_provenance(args))
    print(f"wrote {chain_files[0]}/.bin with T={chain.n_samples}")
    return 0


def _check_targets(targets, inputs=()) -> None:
    """Refuse an output path that cannot be written or would overwrite an input or another output.

    ``targets`` holds ``(option, path)`` pairs, one per file a command will
    write, and ``inputs`` ``(what, path)`` pairs.  A target is refused when it
    is a directory, when its nearest existing ancestor is not a directory,
    when it resolves to an input or an earlier target, or when it lies under
    an earlier target or an earlier target lies under it.  Commands call this
    before they read anything, so a bad path costs no work.  Each path is
    resolved once.
    """
    taken = {os.path.realpath(path): what for what, path in inputs}
    outputs = {}
    for option, target in targets:
        if os.path.isdir(target):
            raise ValueError(f"{option} path {target} is a directory")
        ancestor = next(parent for parent in Path(target).parents if os.path.exists(parent))
        if not os.path.isdir(ancestor):
            raise ValueError(
                f"{option} path {target} is under {ancestor}, which is not a directory"
            )
        resolved = os.path.realpath(target)
        if resolved in taken:
            raise ValueError(f"{option} path {target} would overwrite {taken[resolved]}")
        for above, (other, upper) in outputs.items():
            if resolved.startswith(above + os.sep):
                raise ValueError(f"{option} path {target} is under the {other} output {upper}")
            if above.startswith(resolved + os.sep):
                raise ValueError(f"{other} path {upper} is under the {option} output {target}")
        taken[resolved] = f"the {option} output"
        outputs[resolved] = (option, target)


def _cmd_align(args) -> int:
    if args.threads is not None and args.threads < 0:
        raise ValueError("--threads must be >= 0")
    report_path = f"{args.out}_report.json" if args.report is None else args.report
    chain_files = chainio.chain_paths(args.out)
    _check_targets(
        [("--out", path) for path in chain_files] + [("--report", report_path)],
        [("an input chain file", path) for path in chainio.chain_paths(args.chain)],
    )
    vconfig = VarimaxConfig(
        max_iterations=args.varimax_max_iterations,
        tolerance=args.varimax_tolerance,
        normalize=args.kaiser_normalize,
    )
    check_infinite_fraction_threshold(args.infinite_fraction_threshold)
    force = None if args.pivot_statistic == "auto" else PivotStatistic(args.pivot_statistic)
    start = time.perf_counter()
    raw_chain, _ = chainio.read_chain(args.chain)
    seconds = {"read": time.perf_counter() - start}
    aligned, body, stage_seconds = align_posterior(
        raw_chain, MatchOrder(args.order), force, args.infinite_fraction_threshold, vconfig
    )
    start = time.perf_counter()
    chainio.write_chain(args.out, aligned, seed_provenance=_provenance(args))
    seconds |= stage_seconds | {"write_chain": time.perf_counter() - start}
    timings = {f"{stage}_seconds": value for stage, value in seconds.items()}
    timings["elapsed_align_seconds"] = seconds["varimax"] + seconds["pivot"] + seconds["match"]
    chainio.write_report(report_path, {"subcommand": "align", **body, "timings": timings})
    print(f"wrote {chain_files[0]}/.bin and {report_path}")
    return 0


def _parse_trace_entries(spec: str) -> list[tuple[int, int]]:
    entries = []
    for item in spec.split(";"):
        # int() would also take "1_0", " 1", "+1" and non-ASCII digits.
        if not re.fullmatch(r"-?[0-9]+,-?[0-9]+", item):
            raise ValueError(f"trace entry {item!r} is not of the form row,col")
        entries.append(tuple(map(int, item.split(","))))
    return entries


def _cmd_diagnose(args) -> int:
    if args.raw is None and args.aligned is None:
        raise ValueError("at least one of --raw / --aligned is required")
    report_path, traces_path = f"{args.out}_report.json", f"{args.out}_traces.csv"
    chains = [chain for chain in (args.raw, args.aligned) if chain]
    _check_targets(
        [("--out", report_path)] + ([("--out", traces_path)] if args.traces is not None else []),
        [("an input chain file", path) for chain in chains for path in chainio.chain_paths(chain)],
    )
    entries = _parse_trace_entries(args.traces) if args.traces is not None else None
    raw = chainio.read_chain(args.raw)[0] if args.raw else None
    aligned = chainio.read_chain(args.aligned)[0] if args.aligned else None

    report = diagnostics.build_report(raw, aligned)
    payload = {"subcommand": "diagnose", **report, "traces_file": None}
    if entries is not None:
        source = aligned if aligned is not None else raw
        traces = diagnostics.export_traces(source, entries)
        labels = [f"r{i}_c{j}" for i, j in entries]
        chainio.write_traces(traces_path, traces, labels)
        payload["traces_file"] = traces_path

    chainio.write_report(report_path, payload)
    print(f"wrote {report_path}" + (f" and {traces_path}" if entries is not None else ""))
    return 0


def _cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.k < 1 or args.p < args.k:
        raise ValueError("need p >= k >= 1")
    if not (np.isfinite(args.noise) and args.noise >= 0):
        raise ValueError(f"--noise must be finite and >= 0, got {args.noise}")
    check_seed(args.seed)
    if args.out:
        _check_targets([("--out", args.out)])
    run_brute = args.brute == "on" or (args.brute == "auto" and args.k <= BRUTE_FORCE_MAX_K)
    if args.brute == "on" and args.k > BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"brute-force matching requested but k={args.k} exceeds the cap {BRUTE_FORCE_MAX_K}"
        )

    unstable = []

    def greedy(sample, pivot):
        sp, n_unstable = _checked_greedy_match(sample, pivot)
        unstable.append(n_unstable)
        return sp

    matchers = {"greedy": greedy, "exact": exact_match_assignment}
    if run_brute:
        matchers["brute"] = brute_force_match
    losses = {name: [] for name in matchers}
    seconds = {name: [] for name in matchers}
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        pivot = rng.standard_normal((args.p, args.k))
        sp = random_signed_permutation(args.k, rng)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports overflow
            noise = args.noise * rng.standard_normal((args.p, args.k))
            sample = pivot[:, sp.perm] * sp.signs + noise
        if not np.isfinite(sample).all():
            raise NumericalError(f"trial {trial}: --noise {args.noise} overflows the sample")
        for name, match in matchers.items():
            start = time.perf_counter()
            try:
                matched = match(sample, pivot)
            except NumericalError as exc:
                raise NumericalError(f"trial {trial}: {exc}") from exc
            seconds[name].append(time.perf_counter() - start)
            losses[name].append(match_loss(sample, matched, pivot))

    _warn_unstable_matches(unstable, "trials")
    greedy_equal = sum(
        1
        for gl, el in zip(losses["greedy"], losses["exact"])
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
        "greedy_losses": losses["greedy"],
        "exact_losses": losses["exact"],
        "brute_losses": losses.get("brute"),
        "greedy_equals_exact_count": greedy_equal,
        "exact_equals_brute_count": (
            sum(1 for el, bl in zip(losses["exact"], losses["brute"]) if el == bl)
            if run_brute
            else None
        ),
        "timings": {
            f"{name}_median_seconds": float(np.median(seconds[name])) if name in seconds else None
            for name in ("greedy", "exact", "brute")
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
        # basename is empty for "" and for a path ending in a separator.
        for option in ("out", "report"):
            path = getattr(args, option, None)
            if path is not None and not os.path.basename(path):
                raise ValueError(f"--{option} {path!r} must end in a file name or prefix")
        return _HANDLERS[args.subcommand](args)
    except (chainio.FileFormatError, NumericalError, ValueError, OSError) as exc:
        # Readers report their OSErrors as FileFormatError, so the others come from writing.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, chainio.FileFormatError):
            return 3
        return 4 if isinstance(exc, NumericalError) else 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

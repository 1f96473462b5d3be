"""One pass of the user pipeline through ``factoralign.cli.main``, timed per command."""

from __future__ import annotations

import contextlib
import gc
import io
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import PRIOR_LOADING_VARIANCE, Inputs, Workload

from factoralign.cli import main as cli_main

COMMANDS = ("fit", "align_t1", "align_t2", "diagnose")


def cpu_ticks() -> tuple[int, int]:
    """Machine-wide (steal, total) CPU ticks; steal is time the hypervisor gave to another guest."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


@dataclass(frozen=True)
class CommandRun:
    exit_code: int | None
    seconds: float
    error: str | None = None
    steal: float = 0.0  # share of the machine's CPU time stolen while the command ran

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


@dataclass(frozen=True)
class Outputs:
    """Paths the pipeline writes under one output directory."""

    directory: Path

    def chain(self, command: str) -> Path:
        return self.directory / command

    def report(self, command: str) -> Path:
        return self.directory / f"{command}_report.json"

    @property
    def traces(self) -> Path:
        return self.directory / "diagnose_traces.csv"


def trace_entries(w: Workload) -> list[tuple[int, int]]:
    return [(0, 0), (w.p - 1, w.k - 1)]


def command_argv(w: Workload, inputs: Inputs, seed: int, out: Outputs) -> dict[str, list[str]]:
    entries = ";".join(f"{i},{j}" for i, j in trace_entries(w))
    return {
        "fit": [
            "fit", str(inputs.dataset),
            "--k", str(w.k),
            "--iterations", str(w.fit_iterations),
            "--burn-in", str(w.fit_burn_in),
            "--seed", str(seed),
            "--prior-loading-variance", str(PRIOR_LOADING_VARIANCE),
            "--out", str(out.chain("fit")),
        ],
        "align_t1": ["align", str(inputs.chain), "--threads", "1", "--out", str(out.chain("align_t1"))],
        "align_t2": ["align", str(inputs.chain), "--threads", "2", "--out", str(out.chain("align_t2"))],
        "diagnose": [
            "diagnose",
            "--raw", str(inputs.chain),
            "--aligned", str(out.chain("align_t1")),
            "--traces", entries,
            "--out", str(out.chain("diagnose")),
        ],
    }


def run_command(argv: list[str], span=None) -> CommandRun:
    """Run one CLI command in-process with the collector off; time it on the wall clock.

    ``span``, when given, is a context manager entered around the call (the
    tracer's command span).  The machine's CPU steal over the call is recorded
    alongside, outside the timed region.
    """
    gc.collect()
    gc.disable()
    steal_before, total_before = cpu_ticks()
    start = time.perf_counter()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with span if span is not None else contextlib.nullcontext():
                code = cli_main(argv)
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        gc.enable()
    steal_after, total_after = cpu_ticks()
    return CommandRun(code, seconds, error, (steal_after - steal_before) / max(total_after - total_before, 1))


def run_pipeline(w: Workload, inputs: Inputs, seed: int, directory: Path, tracer=None) -> dict[str, CommandRun]:
    """Run fit, align (1 and 2 threads) and diagnose once; return each command's run."""
    out = Outputs(directory)
    directory.mkdir(parents=True, exist_ok=True)
    argvs = command_argv(w, inputs, seed, out)
    return {
        name: run_command(argvs[name], tracer.command(name) if tracer else None)
        for name in COMMANDS
    }

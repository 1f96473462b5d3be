"""Check that the CLI of this checkout writes the same files as another source tree.

Usage: ``python tools/same_outputs.py PARENT_SRC``, where ``PARENT_SRC`` is
the ``src`` directory of another checkout, such as one of the parent commit
made with ``git archive`` or ``git clone``.

Each tree runs the same commands in one fresh process, which imports
``factoralign`` from that tree's ``src`` and builds its inputs with the
``bench/workloads.py`` beside it.  For each benchmark workload at seeds 1
and 2 the commands write the ``simulate`` dataset, the drifting chain and a
``fit`` chain at the workload's iterations and burn-in; on each of the two
chains they run ``align`` with the default flags and with
``--kaiser-normalize --order natural --pivot-statistic sigma-max``, each
followed by ``diagnose --raw --aligned --traces "0,0;3,1"``.  Last comes one
``oracle-check --p 12 --k 4 --trials 30``.

The files are compared by SHA-256 after one normalization: a JSON file
loses every key, at any depth, that ends in ``_seconds`` or is
``seed_provenance`` or ``traces_file``, and is compared as ``json.dumps`` of
what is left.  The script prints each file that differs or exists in one
tree only and exits 1 if any does, 0 if none does, and 2 if a tree's
commands fail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THIS_SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (1, 2)
ALIGN_FLAGS = {
    "default": [],
    "kaiser": ["--kaiser-normalize", "--order", "natural", "--pivot-statistic", "sigma-max"],
}
TRACES = "0,0;3,1"
DROPPED_KEYS = ("seed_provenance", "traces_file")


def normalized(value):
    """``value`` without the keys that hold timings, paths or command lines."""
    if isinstance(value, dict):
        return {
            key: normalized(item)
            for key, item in value.items()
            if not key.endswith("_seconds") and key not in DROPPED_KEYS
        }
    if isinstance(value, list):
        return [normalized(item) for item in value]
    return value


def digest(path: Path) -> str:
    """SHA-256 of the file at ``path``, of its normalized content for a JSON file."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(normalized(json.loads(data))).encode()
    return hashlib.sha256(data).hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """The digest of every file under ``directory``, by its path relative to it."""
    return {
        path.relative_to(directory).as_posix(): digest(path)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def compare(first: Path, second: Path) -> int:
    """Print the files that differ between two output directories; return the exit code."""
    a, b = digests(first), digests(second)
    differing = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(a.keys() | b.keys())} files compared, {len(differing)} differ")
    return 1 if differing else 0


def write_outputs(src: Path, out: Path) -> None:
    """Run every command with the package at ``src``, writing under ``out``.

    Paths are relative to ``out``, so that the two trees' files agree.
    """
    sys.path.insert(0, str(src.parent / "bench"))
    import workloads  # imports factoralign from src, beside the bench directory
    from pipeline import Outputs, command_argv

    from factoralign.cli import main as cli_main

    def run(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([str(arg) for arg in argv])
        if code != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} exited {code}")

    out.mkdir(parents=True)
    os.chdir(out)
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS:
            directory = Path(f"{w.name}-seed{seed}")
            inputs = workloads.write_inputs(w, seed, directory)
            run(*command_argv(w, inputs, seed, Outputs(directory))["fit"])
            for chain in (inputs.chain, directory / "fit"):
                for tag, flags in ALIGN_FLAGS.items():
                    aligned = directory / f"{chain.name}_{tag}"
                    run("align", chain, *flags, "--out", aligned)
                    run(
                        "diagnose", "--raw", chain, "--aligned", aligned, "--traces", TRACES,
                        "--out", directory / f"{aligned.name}_diagnose",
                    )
    run("oracle-check", "--p", 12, "--k", 4, "--trials", 30, "--out", "oracle.json")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="the src directory of the tree to compare with")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)  # one tree's worker
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.write is not None:
        write_outputs(src, args.write.resolve())
        return 0
    if not (src.parent / "bench" / "workloads.py").is_file():
        print(f"error: no bench/workloads.py beside {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, tree in (("parent", src), ("this", THIS_SRC)):
            worker = [sys.executable, __file__, str(tree), "--write", str(Path(tmp) / name)]
            done = subprocess.run(worker, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"error: the commands failed under {tree}:\n{done.stderr}", file=sys.stderr)
                return 2
        return compare(Path(tmp) / "parent", Path(tmp) / "this")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

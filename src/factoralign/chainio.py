"""On-disk formats: chain files, dataset CSVs, trace CSVs, and JSON reports.

Chains and datasets are read and written here; trace CSVs and reports are
only written.  A chain is stored as ``<name>.json`` (the manifest) plus
``<name>.bin`` (the payload): T consecutive p x k matrices of little-endian
float64 in column-major order, followed by T length-p residual-variance
vectors when the manifest flags them.  Every float written to CSV uses
repr-exact formatting so write -> read -> write round-trips byte-identically.
Reports are JSON with one sorted key per line and each list on one line
(:func:`report_text`).  Every writer stages its files in temporaries and
moves them into place only once they are whole.
"""

from __future__ import annotations

import contextlib
import json
import os
import typing
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import Chain

__all__ = [
    "ChainFileManifest",
    "FileFormatError",
    "read_chain",
    "read_dataset",
    "write_chain",
    "write_dataset",
]

FORMAT_VERSION = 1
LAYOUT = "column-major"
DTYPE = "f64-le"
FLOAT_FORMAT = "%.17g"
_CSV_BLOCK_ROWS = 64


class FileFormatError(RuntimeError):
    """Malformed or inconsistent input file (manifest/payload/CSV)."""


@dataclass(frozen=True)
class ChainFileManifest:
    format_version: int
    p: int
    k: int
    T: int
    layout: str
    dtype: str
    has_residual_variances: bool
    seed_provenance: str | None = None


# Each manifest field's type, as the isinstance check that _read_manifest applies.
_MANIFEST_TYPES = typing.get_type_hints(ChainFileManifest)


def chain_paths(base) -> tuple[Path, Path]:
    """The ``(<base>.json, <base>.bin)`` manifest and payload paths of a chain.

    The suffixes are appended to ``base`` as written, after one trailing
    ``.json`` or ``.bin`` is dropped, so ``run.v1`` names ``run.v1.json``.
    """
    stem, suffix = os.path.splitext(os.fspath(base))
    base = stem if suffix in (".json", ".bin") else os.fspath(base)
    return Path(f"{base}.json"), Path(f"{base}.bin")


@contextlib.contextmanager
def _staged(*paths: Path):
    """Yield one temporary path per target; on success move each onto its target, in order.

    Every writer fills its temporaries inside the block, so a failure there
    leaves the old files whole; the temporaries left by a failure are removed.
    """
    temporaries = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        yield temporaries
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    except BaseException:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)
        raise


def write_chain(base, chain: Chain, seed_provenance: str | None = None) -> ChainFileManifest:
    """Write ``chain`` as a manifest/payload pair at ``<base>.json`` / ``<base>.bin``.

    Both go to temporary files first, then replace the old files payload first,
    so a failure while the temporary files are written leaves the old chain
    whole.  A failure between the two replaces is not covered: it leaves the
    new payload beside the old manifest.
    """
    manifest_path, payload_path = chain_paths(base)
    manifest = ChainFileManifest(
        format_version=FORMAT_VERSION,
        p=chain.n_variables,
        k=chain.n_factors,
        T=chain.n_samples,
        layout=LAYOUT,
        dtype=DTYPE,
        has_residual_variances=chain.residual_variances is not None,
        seed_provenance=seed_provenance,
    )
    manifest_text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    with _staged(payload_path, manifest_path) as (payload_temporary, manifest_temporary):
        # Each array is written from its own buffer; no bytes copy of the
        # payload is made.  The (T, k, p) block holds each sample in
        # column-major order.
        with payload_temporary.open("wb") as fh:
            fh.write(np.ascontiguousarray(chain.samples.transpose(0, 2, 1), dtype="<f8"))
            if chain.residual_variances is not None:
                fh.write(np.ascontiguousarray(chain.residual_variances, dtype="<f8"))
        manifest_temporary.write_bytes(manifest_text.encode())
    return manifest


def _read_manifest(manifest_path: Path) -> ChainFileManifest:
    try:
        raw = json.loads(manifest_path.read_bytes())
    except (OSError, ValueError) as exc:  # ValueError covers JSON and Unicode decoding
        raise FileFormatError(f"cannot read chain manifest {manifest_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise FileFormatError(f"chain manifest {manifest_path} is not a JSON object")
    try:
        manifest = ChainFileManifest(**raw)
    except TypeError as exc:
        raise FileFormatError(f"invalid manifest fields in {manifest_path}: {exc}") from exc
    for name, kind in _MANIFEST_TYPES.items():
        value = getattr(manifest, name)
        # bool is a subclass of int, but true is not a dimension.
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
            raise FileFormatError(
                f"manifest field {name} in {manifest_path} has the wrong type: {value!r}"
            )
    if manifest.format_version != FORMAT_VERSION:
        raise FileFormatError(
            f"unsupported format_version {manifest.format_version} in {manifest_path}"
        )
    if manifest.layout != LAYOUT or manifest.dtype != DTYPE:
        raise FileFormatError(
            f"unsupported layout/dtype ({manifest.layout}, {manifest.dtype}) in {manifest_path}"
        )
    if min(manifest.p, manifest.k, manifest.T) < 1:
        raise FileFormatError(f"non-positive dimensions in {manifest_path}")
    return manifest


def read_chain(base) -> tuple[Chain, ChainFileManifest]:
    """Read a manifest/payload chain pair, verifying payload length exactly."""
    manifest_path, payload_path = chain_paths(base)
    manifest = _read_manifest(manifest_path)
    try:
        payload = payload_path.read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read chain payload {payload_path}: {exc}") from exc

    t, p, k = manifest.T, manifest.p, manifest.k
    samples_bytes = t * p * k * 8
    expected = samples_bytes + (t * p * 8 if manifest.has_residual_variances else 0)
    if len(payload) != expected:
        raise FileFormatError(
            f"payload length mismatch in {payload_path}: manifest implies {expected} bytes "
            f"but file has {len(payload)} (divergence at offset {min(expected, len(payload))})"
        )
    # Both arrays view the payload bytes; neither copies them.
    samples = (
        np.frombuffer(payload, dtype="<f8", count=t * k * p)
        .reshape(t, k, p)
        .transpose(0, 2, 1)
    )
    variances = None
    if manifest.has_residual_variances:
        variances = np.frombuffer(payload, dtype="<f8", offset=samples_bytes).reshape(t, p)
    try:
        chain = Chain(samples, variances)
    except ValueError as exc:
        raise FileFormatError(f"invalid chain content in {payload_path}: {exc}") from exc
    return chain, manifest


def write_dataset(path, data: np.ndarray) -> None:
    """Write an (n, p) data matrix as CSV with a v1..vp header row."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
    _write_csv(path, ",".join(f"v{j + 1}" for j in range(data.shape[1])), data)


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D float array, ``FLOAT_FORMAT`` joined by commas.

    Each block of ``_CSV_BLOCK_ROWS`` rows is formatted by one ``%`` operation,
    so the text in memory stays one block long.  The bytes equal those of
    ``np.savetxt(path, rows, fmt=FLOAT_FORMAT, delimiter=",", header=header,
    comments="")``, which also writes no header line for an empty header.
    """
    path = Path(path)
    row_format = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    with _staged(path) as (temporary,), temporary.open("w", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start : start + _CSV_BLOCK_ROWS]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def read_dataset(path) -> np.ndarray:
    """Read a dataset CSV written by :func:`write_dataset`; every entry must be finite."""
    path = Path(path)
    try:
        with path.open() as fh, warnings.catch_warnings():
            # An empty body is reported by the error below, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read dataset {path}: {exc}") from exc
    if not header.startswith("v1"):
        raise FileFormatError(f"dataset {path} is missing the v1..vp header row")
    if data.size == 0:
        raise FileFormatError(f"dataset {path} has no data rows")
    expected_cols = header.count(",") + 1
    if data.shape[1] != expected_cols:
        raise FileFormatError(
            f"dataset {path}: header names {expected_cols} columns, rows have {data.shape[1]}"
        )
    if not np.isfinite(data).all():
        raise FileFormatError(f"dataset {path} contains non-finite entries")
    return data


def write_traces(path, traces: np.ndarray, labels: list[str]) -> None:
    """Write trace series as CSV, one labelled column per requested entry."""
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[1] != len(labels):
        raise ValueError("traces must be (T, len(labels))")
    _write_csv(path, ",".join(labels), traces)


def report_text(payload: dict) -> str:
    """The report layout: sorted dict keys one per line, every other value on one line.

    Lists and scalars go through ``json.dumps`` without an indent, which runs
    json's C encoder; only the dict levels are laid out here.  The text parses
    to ``payload``.  It is strict JSON: a non-finite float raises ValueError
    rather than being written as ``NaN`` or ``Infinity``.
    """
    return _layout(payload, "")


def _layout(value, indent: str) -> str:
    if not isinstance(value, dict) or not value:
        return json.dumps(value, sort_keys=True, allow_nan=False)
    inner = indent + "  "
    items = (f"{inner}{json.dumps(key)}: {_layout(value[key], inner)}" for key in sorted(value))
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"


def write_report(path, report: dict) -> None:
    """Write a schema-versioned JSON report in the :func:`report_text` layout."""
    path = Path(path)
    with _staged(path) as (temporary,):
        temporary.write_text(report_text({"schema_version": 1, **report}) + "\n")

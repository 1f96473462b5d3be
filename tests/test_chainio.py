import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from factoralign import (
    Chain,
    FileFormatError,
    align_chain,
    build_report,
    per_entry_ess,
    read_chain,
    read_dataset,
    select_pivot,
    write_chain,
    write_dataset,
)
from factoralign import chainio
from factoralign.chainio import FLOAT_FORMAT, read_traces, report_text, write_report, write_traces


@pytest.fixture
def chain():
    rng = np.random.default_rng(80)
    return Chain(
        rng.standard_normal((5, 7, 3)),
        residual_variances=rng.uniform(0.1, 4.0, size=(5, 7)),
    )


def test_chain_round_trip_bitwise(tmp_path, chain):
    base = tmp_path / "chain"
    write_chain(base, chain, seed_provenance="test --seed 1")
    loaded, manifest = read_chain(base)
    np.testing.assert_array_equal(loaded.samples, chain.samples)
    np.testing.assert_array_equal(loaded.residual_variances, chain.residual_variances)
    assert (manifest.p, manifest.k, manifest.T) == (7, 3, 5)
    assert manifest.has_residual_variances
    assert manifest.seed_provenance == "test --seed 1"


def test_chain_write_read_write_byte_identical(tmp_path, chain):
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_chain(first, chain)
    loaded, _ = read_chain(first)
    write_chain(second, loaded)
    assert (first.with_suffix(".bin")).read_bytes() == (second.with_suffix(".bin")).read_bytes()
    assert (first.with_suffix(".json")).read_text() == (second.with_suffix(".json")).read_text()


def test_failed_payload_write_keeps_old_chain(tmp_path, chain, monkeypatch):
    base = tmp_path / "chain"
    write_chain(base, chain)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    real_open = Path.open

    def fail_payload(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        # The payload's first write, its samples block, writes half and fails.
        return FailingFile(fh, 1) if ".bin" in path.name else fh

    monkeypatch.setattr(Path, "open", fail_payload)
    with pytest.raises(OSError, match="no space"):
        write_chain(base, Chain(np.ones((2, 4, 1))))
    monkeypatch.undo()
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    loaded, _ = read_chain(base)
    np.testing.assert_array_equal(loaded.samples, chain.samples)


def test_chain_io_holds_at_most_one_payload(tmp_path):
    # The writer writes the samples block and the variances from their own
    # buffers, and the reader views the payload bytes; neither copies them.
    rng = np.random.default_rng(84)
    t, p, k = 2000, 40, 5
    chain = Chain(rng.standard_normal((t, p, k)), rng.uniform(0.1, 4.0, size=(t, p)))
    payload = 8 * t * p * (k + 1)
    peaks = []
    tracemalloc.start()
    try:
        for step in (lambda: write_chain(tmp_path / "c", chain), lambda: read_chain(tmp_path / "c")):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.bin").stat().st_size == payload
    assert max(peaks) <= 1.25 * payload, peaks


def test_per_entry_ess_holds_under_two_payloads():
    # The ESS pass centres one copy of the samples in place and reads that
    # copy itself until a series leaves the working set; only then does it
    # compact the surviving rows.
    rng = np.random.default_rng(86)
    t, p, k = 2000, 40, 5
    chain = Chain(rng.standard_normal((t, p, k)))
    payload = 8 * t * p * k
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        per_entry_ess(chain)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * payload, peak / payload


def test_match_and_diagnostics_stages_hold_few_payloads():
    # align_chain signs and squares in place, and the ESS pass centres its own
    # copy of the samples in place, so neither stage holds a third copy.
    rng = np.random.default_rng(85)
    t, p, k = 2000, 50, 5
    chain = Chain(rng.standard_normal((t, p, k)))
    selection = select_pivot(chain)
    payload = 8 * t * p * k
    peaks = {}
    tracemalloc.start()
    try:
        for name, step in (
            ("align_chain", lambda: align_chain(chain, selection)[0]),
            ("build_report", lambda: build_report(chain, aligned)),
        ):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            aligned = step()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / payload
    finally:
        tracemalloc.stop()
    assert peaks["align_chain"] <= 2.5 and peaks["build_report"] <= 3.0, peaks


def test_chain_without_residual_variances(tmp_path):
    chain = Chain(np.random.default_rng(81).standard_normal((3, 4, 2)))
    write_chain(tmp_path / "c", chain)
    loaded, manifest = read_chain(tmp_path / "c")
    assert loaded.residual_variances is None
    assert not manifest.has_residual_variances


def test_chain_payload_is_column_major(tmp_path):
    sample = np.arange(6.0).reshape(3, 2)  # columns (0,2,4) and (1,3,5)
    write_chain(tmp_path / "c", Chain(sample[None]))
    payload = np.frombuffer((tmp_path / "c.bin").read_bytes(), dtype="<f8")
    np.testing.assert_array_equal(payload, [0.0, 2.0, 4.0, 1.0, 3.0, 5.0])


def test_truncated_payload_reports_offsets(tmp_path, chain):
    base = tmp_path / "chain"
    write_chain(base, chain)
    payload = (base.with_suffix(".bin")).read_bytes()
    (base.with_suffix(".bin")).write_bytes(payload[:-16])
    with pytest.raises(FileFormatError, match="bytes"):
        read_chain(base)


def test_manifest_payload_mismatch(tmp_path, chain):
    base = tmp_path / "chain"
    write_chain(base, chain)
    manifest = json.loads(base.with_suffix(".json").read_text())
    manifest["T"] = 99
    base.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(FileFormatError, match="length mismatch"):
        read_chain(base)


def test_manifest_rejects_unknown_version(tmp_path, chain):
    base = tmp_path / "chain"
    write_chain(base, chain)
    manifest = json.loads(base.with_suffix(".json").read_text())
    manifest["format_version"] = 2
    base.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(FileFormatError, match="format_version"):
        read_chain(base)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", "7"),
        ("p", 7.0),
        ("p", True),
        ("T", None),
        ("k", [3]),
        ("layout", 1),
        ("has_residual_variances", "no"),
        ("seed_provenance", 5),
    ],
)
def test_manifest_rejects_wrong_field_type(tmp_path, chain, field, value):
    base = tmp_path / "chain"
    write_chain(base, chain)
    manifest = json.loads(base.with_suffix(".json").read_text())
    manifest[field] = value
    base.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(FileFormatError, match=f"manifest field {field} "):
        read_chain(base)


@pytest.mark.parametrize("text", [b"[1, 2]", b'"chain"', b'{"p": "\xe9"}'])
def test_manifest_not_a_utf8_json_object_is_format_error(tmp_path, chain, text):
    base = tmp_path / "chain"
    write_chain(base, chain)
    base.with_suffix(".json").write_bytes(text)
    with pytest.raises(FileFormatError, match="manifest"):
        read_chain(base)


def test_non_finite_payload_names_the_sample(tmp_path, chain):
    base = tmp_path / "chain"
    write_chain(base, chain)
    payload = bytearray(base.with_suffix(".bin").read_bytes())
    p, k = chain.n_variables, chain.n_factors
    payload[8 * 3 * p * k : 8 * (3 * p * k + 1)] = np.array([np.nan], dtype="<f8").tobytes()
    base.with_suffix(".bin").write_bytes(bytes(payload))
    with pytest.raises(FileFormatError, match=r"chain\.bin: sample 3: samples contain non-finite"):
        read_chain(base)


def test_missing_manifest_is_format_error(tmp_path):
    with pytest.raises(FileFormatError):
        read_chain(tmp_path / "nope")


def test_dataset_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(82)
    data = rng.standard_normal((11, 4)) * np.pi
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    loaded = read_dataset(path)
    np.testing.assert_array_equal(loaded, data)
    header = path.read_text().splitlines()[0]
    assert header == "v1,v2,v3,v4"


def test_dataset_missing_header_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(FileFormatError, match="header"):
        read_dataset(path)


def test_dataset_ragged_rows_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("v1,v2\n1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError):
        read_dataset(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_dataset_non_finite_entry_is_format_error(tmp_path, entry):
    path = tmp_path / "data.csv"
    path.write_text(f"v1,v2\n1.0,2.0\n3.0,{entry}\n")
    with pytest.raises(FileFormatError, match="non-finite"):
        read_dataset(path)


def test_traces_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(83)
    traces = rng.standard_normal((9, 2)) / 7.0
    path = tmp_path / "traces.csv"
    write_traces(path, traces, ["r0_c0", "r3_c1"])
    loaded, labels = read_traces(path)
    np.testing.assert_array_equal(loaded, traces)
    assert labels == ["r0_c0", "r3_c1"]


def savetxt_oracle(data: np.ndarray, header: str) -> bytes:
    out = io.StringIO()
    np.savetxt(out, data, fmt=FLOAT_FORMAT, delimiter=",", header=header, comments="")
    return out.getvalue().encode()


SPECIAL_ROWS = np.array([[-0.0, 5e-324, -2.5e-310, 1e308, -1e308, math.nan, math.inf, -math.inf]])


@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(
        np.float64,
        st.tuples(
            st.one_of(st.integers(1, 6), st.sampled_from([chainio._CSV_BLOCK_ROWS + 1, 2500])),
            st.integers(1, 5),
        ),
        elements=st.floats(width=64),
    )
)
@example(data=SPECIAL_ROWS)
@example(data=SPECIAL_ROWS.T)
@example(data=np.tile(SPECIAL_ROWS, (chainio._CSV_BLOCK_ROWS + 3, 1)))
def test_csv_writer_equals_savetxt(data):
    """Dataset and trace CSVs are byte-equal to ``np.savetxt`` at the same format."""
    header = ",".join(f"v{j + 1}" for j in range(data.shape[1]))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.csv"
        write_dataset(path, data)
        assert path.read_bytes() == savetxt_oracle(data, header)
        labels = [f"r{j}_c0" for j in range(data.shape[1])]
        write_traces(path, data, labels)
        assert path.read_bytes() == savetxt_oracle(data, ",".join(labels))
        assert [p.name for p in Path(directory).iterdir()] == ["data.csv"]


def test_report_layout_round_trips():
    payload = {
        "subcommand": "align",
        "alignment": {
            "pivot_statistics": [math.inf, 1.5, -math.inf, 0.1 + 0.2],
            "permutations": [{"perm": [1, 0], "signs": [-1, 1]}, {"signs": [1, 1], "perm": [0, 1]}],
            "losses": [],
            "nested": {"z": None, "a": {"deep": [[1, 2], [3]]}},
            "empty": {},
        },
        "note": 'quote " and \\ and \u00e9',
        "count": 3,
        "flag": False,
    }
    text = report_text(payload)
    assert json.loads(text) == payload
    # One line per dict key; every list, dicts inside lists too, on one line.
    assert text == "\n".join(
        [
            "{",
            '  "alignment": {',
            '    "empty": {},',
            '    "losses": [],',
            '    "nested": {',
            '      "a": {',
            '        "deep": [[1, 2], [3]]',
            "      },",
            '      "z": null',
            "    },",
            '    "permutations": [{"perm": [1, 0], "signs": [-1, 1]}, {"perm": [0, 1], "signs": [1, 1]}],',
            '    "pivot_statistics": [Infinity, 1.5, -Infinity, 0.30000000000000004]',
            "  },",
            '  "count": 3,',
            '  "flag": false,',
            '  "note": "quote \\" and \\\\ and \\u00e9",',
            '  "subcommand": "align"',
            "}",
        ]
    )


def test_report_is_deterministic_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"zeta": 1.0 / 3.0, "alpha": [1, 2, 3]}
    write_report(a, payload)
    write_report(b, payload)
    assert a.read_bytes() == b.read_bytes()
    loaded = json.loads(a.read_text())
    assert loaded["schema_version"] == 1
    assert loaded["zeta"] == 1.0 / 3.0


class FailingFile:
    """A file whose write number ``fail_at`` writes half its data, then fails."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            self.fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("artifact", ["report", "dataset", "traces"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, artifact):
    path = tmp_path / f"{artifact}.out"
    old, new = np.arange(8.0).reshape(4, 2), np.arange(20.0).reshape(10, 2) / 3.0
    writers = {
        "report": lambda data: write_report(path, {"values": data.tolist()}),
        "dataset": lambda data: write_dataset(path, data),
        "traces": lambda data: write_traces(path, data, ["r0_c0", "r1_c0"]),
    }
    writers[artifact](old)
    before = path.read_bytes()
    real_open = Path.open
    # The report is one write; a CSV writes its header, then one write per block.
    monkeypatch.setattr(chainio, "_CSV_BLOCK_ROWS", 3)
    monkeypatch.setattr(
        Path, "open", lambda self, *a, **kw: FailingFile(real_open(self, *a, **kw), 1 if artifact == "report" else 3)
    )
    with pytest.raises(OSError, match="no space"):
        writers[artifact](new)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == before

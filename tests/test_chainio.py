import json
from pathlib import Path

import numpy as np
import pytest

from factoralign import Chain, FileFormatError, read_chain, read_dataset, write_chain, write_dataset
from factoralign.chainio import read_traces, write_report, write_traces


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
    write_bytes = Path.write_bytes

    def fail_payload(path, data):
        if ".bin" in path.name:
            write_bytes(path, data[:8])
            raise OSError("no space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", fail_payload)
    with pytest.raises(OSError, match="no space"):
        write_chain(base, Chain(np.ones((2, 4, 1))))
    monkeypatch.undo()
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    loaded, _ = read_chain(base)
    np.testing.assert_array_equal(loaded.samples, chain.samples)


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


def test_traces_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(83)
    traces = rng.standard_normal((9, 2)) / 7.0
    path = tmp_path / "traces.csv"
    write_traces(path, traces, ["r0_c0", "r3_c1"])
    loaded, labels = read_traces(path)
    np.testing.assert_array_equal(loaded, traces)
    assert labels == ["r0_c0", "r3_c1"]


def test_report_is_deterministic_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"zeta": 1.0 / 3.0, "alpha": [1, 2, 3]}
    write_report(a, payload)
    write_report(b, payload)
    assert a.read_bytes() == b.read_bytes()
    loaded = json.loads(a.read_text())
    assert loaded["schema_version"] == 1
    assert loaded["zeta"] == 1.0 / 3.0

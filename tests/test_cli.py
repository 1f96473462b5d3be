import contextlib
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factoralign
from factoralign import chainio, read_chain, read_dataset
from factoralign.chainio import read_traces
from factoralign.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(args):
    return main([str(a) for a in args])


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


@pytest.fixture(autouse=True)
def _reports_are_strict_json(monkeypatch):
    # json can write a non-finite float as the bare word NaN, Infinity or
    # -Infinity, which is not JSON; every report the CLI writes or prints goes
    # through report_text, and each must parse without them.
    original = chainio.report_text

    def checked(payload):
        text = original(payload)
        json.loads(text, parse_constant=_refuse_constant)
        return text

    monkeypatch.setattr(chainio, "report_text", checked)


@functools.cache
def _drift_k5_chain():
    """The benchmark's align-drift-k5 chain (``bench/workloads.py``), seed 3."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.drifting_chain(workloads.WORKLOADS["align-drift-k5"], 3)


def _write_scaled_drift_chain(path, scale) -> None:
    """Write the align-drift-k5 chain with its samples times ``scale``, or times 2**scale for an int."""
    from factoralign import Chain, write_chain

    chain = _drift_k5_chain()
    samples = np.ldexp(chain.samples, scale) if isinstance(scale, int) else chain.samples * scale
    write_chain(path, Chain(samples, chain.residual_variances))


def _run_fresh(argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, where numpy's warnings reach stderr."""
    src = str(Path(factoralign.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "factoralign", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )


def simulate_small(tmp_path, seed=5, scenario="sparse", n=40, p=9, k=3):
    out = tmp_path / "data"
    code = run(
        ["simulate", "--n", n, "--p", p, "--k", k, "--scenario", scenario, "--seed", seed, "--out", out]
    )
    assert code == 0
    return out


def fit_small(tmp_path, data_prefix, k=3, iterations=60, burn_in=20, seed=9):
    out = tmp_path / "chain"
    code = run(
        ["fit", f"{data_prefix}.csv", "--k", k, "--iterations", iterations, "--burn-in", burn_in, "--seed", seed, "--out", out]
    )
    assert code == 0
    return out


def test_simulate_writes_dataset_and_truth(tmp_path):
    out = simulate_small(tmp_path)
    data = read_dataset(f"{out}.csv")
    assert data.shape == (40, 9)
    truth, manifest = read_chain(f"{out}_truth")
    assert manifest.T == 1
    assert truth.samples.shape == (1, 9, 3)
    assert truth.residual_variances.shape == (1, 9)


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = simulate_small(tmp_path / "a")
    b = simulate_small(tmp_path / "b")
    assert (tmp_path / "a" / "data.csv").read_bytes() == (tmp_path / "b" / "data.csv").read_bytes()
    assert (tmp_path / "a" / "data_truth.bin").read_bytes() == (tmp_path / "b" / "data_truth.bin").read_bytes()


def test_simulate_rejects_unidentifiable_k(tmp_path, capsys):
    code = run(["simulate", "--n", 10, "--p", 50, "--k", 30, "--scenario", "sparse", "--seed", 1, "--out", tmp_path / "x"])
    assert code == 2
    assert "k <= (p-1)/2" in capsys.readouterr().err


def test_dataset_round_trip_via_cli(tmp_path):
    out = simulate_small(tmp_path)
    data = read_dataset(f"{out}.csv")
    from factoralign import write_dataset

    write_dataset(tmp_path / "again.csv", data)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "data.csv").read_bytes()


def test_fit_manifest_records_kept_samples(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data, iterations=50, burn_in=10)
    _, manifest = read_chain(chain_prefix)
    assert manifest.T == 40
    assert manifest.has_residual_variances


def test_fit_rejects_burn_in_not_below_iterations(tmp_path):
    data = simulate_small(tmp_path)
    code = run(["fit", f"{data}.csv", "--k", 3, "--iterations", 100, "--burn-in", 100, "--seed", 1, "--out", tmp_path / "c"])
    assert code == 2


def test_fit_reproducible(tmp_path):
    data = simulate_small(tmp_path)
    fit_small(tmp_path / "r1", data)
    fit_small(tmp_path / "r2", data)
    assert (tmp_path / "r1" / "chain.bin").read_bytes() == (tmp_path / "r2" / "chain.bin").read_bytes()


def test_fit_missing_dataset_is_format_error(tmp_path):
    code = run(["fit", tmp_path / "absent.csv", "--k", 2, "--out", tmp_path / "c"])
    assert code == 3


def test_fit_default_iterations_keep_10000_samples(tmp_path):
    data = simulate_small(tmp_path, n=30, p=7, k=2)
    out = tmp_path / "chain"
    assert run(["fit", f"{data}.csv", "--k", 2, "--seed", 1, "--out", out]) == 0
    _, manifest = read_chain(out)
    assert manifest.T == 10_000


def test_fit_numeric_failure_exits_4(tmp_path, monkeypatch):
    from factoralign import NumericalError
    from factoralign import cli as cli_module

    data = simulate_small(tmp_path)

    def boom(*args, **kwargs):
        raise NumericalError("posterior precision factorization failed")

    monkeypatch.setattr(cli_module, "gibbs_sample", boom)
    assert run(["fit", f"{data}.csv", "--k", 3, "--out", tmp_path / "c"]) == 4


def test_fit_overflowing_data_exits_4_naming_the_iteration(tmp_path, capsys):
    from factoralign import write_dataset

    data = simulate_small(tmp_path, n=30, p=7, k=2)
    write_dataset(tmp_path / "huge.csv", read_dataset(f"{data}.csv") * 1e200)
    code = run(["fit", tmp_path / "huge.csv", "--k", 2, "--iterations", 5, "--burn-in", 1, "--out", tmp_path / "c"])
    assert code == 4
    assert "iteration 0" in capsys.readouterr().err


def test_align_overflow_prints_only_the_error_line(tmp_path):
    # The varimax objective once printed three RuntimeWarnings with their
    # source lines before the error line.
    _write_scaled_drift_chain(tmp_path / "c", 1e160)
    done = _run_fresh(["align", tmp_path / "c", "--out", tmp_path / "a"])
    assert done.returncode == 4
    assert done.stderr == (
        "error: sample 0: varimax objective is nan: fourth powers of the loadings overflow\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]


@pytest.mark.parametrize("scale", [520, 1e160], ids=["2^520", "1e160"])
def test_diagnose_overflow_prints_only_the_error_line(tmp_path, scale):
    # The metric's true value overflows.  This once printed 22 warning lines,
    # exited 0 and wrote "covariance_discrepancy_raw": NaN and an ESS ratio
    # at its 10.0 cap.
    _write_scaled_drift_chain(tmp_path / "c", scale)
    done = _run_fresh(
        ["diagnose", "--raw", tmp_path / "c", "--traces", "0,0;3,1", "--out", tmp_path / "d"]
    )
    assert done.returncode == 4
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: covariance discrepancy overflows")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]


@pytest.mark.parametrize("exponent", [500, -500])
def test_diagnose_is_exact_at_power_of_two_scales(tmp_path, capsys, exponent):
    # At 2**500 the metric once read Infinity, at 2**-500 0.0; both values
    # are representable.
    _write_scaled_drift_chain(tmp_path / "c", 0)
    _write_scaled_drift_chain(tmp_path / "s", exponent)
    reports = []
    for name in ("c", "s"):
        assert run(["diagnose", "--raw", tmp_path / name, "--out", tmp_path / f"{name}_d"]) == 0
        assert capsys.readouterr().err == ""
        reports.append(json.loads((tmp_path / f"{name}_d_report.json").read_text()))
    unit, scaled = reports
    assert scaled["covariance_discrepancy_raw"] == np.ldexp(unit["covariance_discrepancy_raw"], 2 * exponent)
    assert 0.0 < scaled["covariance_discrepancy_raw"] < np.inf
    for key in ("mean_ess_ratio_raw", "per_entry_ess_raw"):
        assert scaled[key] == unit[key]


def test_fit_overflow_prints_only_the_error_line(tmp_path):
    # In a fresh interpreter, where numpy's warnings reach stderr: the
    # overflow in F^T F once printed three RuntimeWarnings with their source
    # lines before the error line.
    from factoralign import write_dataset

    data = simulate_small(tmp_path, n=300, p=20, k=3)
    write_dataset(tmp_path / "huge.csv", read_dataset(f"{data}.csv") * 1e200)
    done = _run_fresh(
        ["fit", tmp_path / "huge.csv", "--k", 3, "--iterations", 5, "--burn-in", 1, "--out", tmp_path / "c"]
    )
    assert done.returncode == 4
    assert done.stderr == "error: loading-row precision at iteration 0, row 0 is not finite\n"


def test_align_produces_chain_and_report(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    code = run(["align", chain_prefix, "--out", tmp_path / "aligned", "--report", tmp_path / "rep.json"])
    assert code == 0
    aligned, manifest = read_chain(tmp_path / "aligned")
    assert aligned.samples.shape == (40, 9, 3)
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["schema_version"] == 1
    alignment = report["alignment"]
    assert alignment["pivot_statistic"] in ("condition", "sigma-max")
    assert alignment["comparisons_per_sample"] == 3 * 4 + 3
    assert len(alignment["losses"]) == 40
    assert len(alignment["permutations"]) == 40
    assert report["diagnostics"]["covariance_discrepancy_raw"] >= 0.0
    timings = report["timings"]
    stages = ["read", "varimax", "pivot", "match", "write_chain", "diagnostics"]
    assert sorted(timings) == sorted([f"{stage}_seconds" for stage in stages] + ["elapsed_align_seconds"])
    assert all(timings[f"{stage}_seconds"] >= 0.0 for stage in stages)
    aligning = timings["varimax_seconds"] + timings["pivot_seconds"] + timings["match_seconds"]
    assert timings["elapsed_align_seconds"] == pytest.approx(aligning)


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    from factoralign import cli as cli_module

    built = []
    original = cli_module.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli_module, "build_parser", counted)
    cli_module._parser.cache_clear()
    try:
        for _ in range(4):
            assert run(["diagnose", "--out", tmp_path / "d"]) == 2
    finally:
        cli_module._parser.cache_clear()
    assert len(built) == 1
    assert original() is not original()


def test_consecutive_commands_parse_independently(monkeypatch):
    from factoralign import cli as cli_module

    seen = []
    for name in ("align", "diagnose"):
        monkeypatch.setitem(cli_module._HANDLERS, name, lambda args: seen.append(vars(args)) or 0)
    assert run(["align", "c1", "--out", "a1", "--kaiser-normalize", "--order", "natural", "--threads", 2]) == 0
    assert run(["diagnose", "--raw", "c1", "--out", "d1"]) == 0
    assert run(["align", "c2", "--out", "a2"]) == 0
    assert run(["diagnose", "--aligned", "a2", "--traces", "0,0", "--out", "d2"]) == 0
    first, second = seen[0], seen[2]
    assert (first["kaiser_normalize"], first["order"], first["threads"]) == (True, "natural", 2)
    assert (second["kaiser_normalize"], second["order"], second["threads"]) == (False, "norm", None)
    assert (first["chain"], first["out"], second["chain"], second["out"]) == ("c1", "a1", "c2", "a2")
    assert seen[1] == {"subcommand": "diagnose", "raw": "c1", "aligned": None, "traces": None, "out": "d1"}
    assert seen[3] == {"subcommand": "diagnose", "raw": None, "aligned": "a2", "traces": "0,0", "out": "d2"}


def test_align_and_diagnose_share_diagnostics(tmp_path, monkeypatch):
    from factoralign import cli as cli_module
    from factoralign import diagnostics

    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    assert run(["align", chain_prefix, "--out", tmp_path / "a", "--report", tmp_path / "rep.json"]) == 0
    calls = []
    original = diagnostics.per_entry_ess

    def counted(chain):
        calls.append(chain.n_samples)
        return original(chain)

    for module in (diagnostics, cli_module):
        if getattr(module, "per_entry_ess", None) is original:
            monkeypatch.setattr(module, "per_entry_ess", counted)
    code = run(["diagnose", "--raw", chain_prefix, "--aligned", tmp_path / "a", "--out", tmp_path / "d"])
    assert code == 0
    assert calls == [40, 40]  # once per chain
    align_diag = json.loads((tmp_path / "rep.json").read_text())["diagnostics"]
    diagnose_report = json.loads((tmp_path / "d_report.json").read_text())
    assert sorted(align_diag) == [
        "covariance_discrepancy_aligned",
        "covariance_discrepancy_raw",
        "mean_ess_ratio_aligned",
        "mean_ess_ratio_raw",
        "per_entry_ess_aligned",
    ]
    assert align_diag == {key: diagnose_report[key] for key in align_diag}


def test_align_is_idempotent(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    assert run(["align", chain_prefix, "--out", tmp_path / "a1", "--report", tmp_path / "r1.json"]) == 0
    assert run(["align", tmp_path / "a1", "--out", tmp_path / "a2", "--report", tmp_path / "r2.json"]) == 0
    first, _ = read_chain(tmp_path / "a1")
    second, _ = read_chain(tmp_path / "a2")
    scale = np.abs(first.samples).max()
    assert np.abs(second.samples - first.samples).max() <= 1e-10 * scale
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    assert abs(r2["alignment"]["total_loss"] - r1["alignment"]["total_loss"]) <= 1e-8 * max(
        1.0, r1["alignment"]["total_loss"]
    )


def test_align_threads_do_not_change_bytes(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    assert run(["align", chain_prefix, "--threads", 1, "--out", tmp_path / "t1", "--report", tmp_path / "rep1.json"]) == 0
    assert run(["align", chain_prefix, "--threads", 8, "--out", tmp_path / "t8", "--report", tmp_path / "rep8.json"]) == 0
    assert (tmp_path / "t1.bin").read_bytes() == (tmp_path / "t8.bin").read_bytes()
    assert (tmp_path / "t1.json").read_text() == (tmp_path / "t8.json").read_text()
    reports = []
    for name in ("rep1.json", "rep8.json"):
        report = json.loads((tmp_path / name).read_text())
        report.pop("timings")  # wall-clock is the one permitted difference
        reports.append(report)
    assert reports[0] == reports[1]


def test_align_missing_chain_is_format_error(tmp_path):
    assert run(["align", tmp_path / "nope", "--out", tmp_path / "x"]) == 3


def test_align_natural_order_and_forced_statistic(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    code = run(
        ["align", chain_prefix, "--order", "natural", "--pivot-statistic", "sigma-max",
         "--out", tmp_path / "nat", "--report", tmp_path / "nat_report.json"]
    )
    assert code == 0
    report = json.loads((tmp_path / "nat_report.json").read_text())
    assert report["alignment"]["pivot_statistic"] == "sigma-max"
    assert report["alignment"]["comparisons_per_sample"] == 3 * 4


@pytest.mark.parametrize(
    ("flags", "options"),
    [
        ([], {}),
        (
            ["--kaiser-normalize", "--order", "natural", "--pivot-statistic", "sigma-max"],
            {
                "order": factoralign.MatchOrder.NATURAL_COLUMN_ORDER,
                "force_statistic": factoralign.PivotStatistic.LARGEST_SINGULAR_VALUE,
                "config": factoralign.VarimaxConfig(normalize=True),
            },
        ),
    ],
    ids=["default", "non-default"],
)
def test_align_posterior_equals_the_cli(tmp_path, flags, options):
    factoralign.write_chain(tmp_path / "c", _drift_k5_chain())
    assert run(["align", tmp_path / "c", *flags, "--out", tmp_path / "a"]) == 0
    report = json.loads((tmp_path / "a_report.json").read_text())
    del report["timings"]
    raw, _ = read_chain(tmp_path / "c")
    aligned, body, seconds = factoralign.align_posterior(raw, **options)
    library = chainio.report_text({"schema_version": 1, "subcommand": "align", **body})
    assert library == chainio.report_text(report)
    written, _ = read_chain(tmp_path / "a")
    assert written.samples.tobytes() == aligned.samples.tobytes()
    assert written.residual_variances.tobytes() == aligned.residual_variances.tobytes()
    assert sorted(seconds) == ["diagnostics", "match", "pivot", "varimax"]


def test_align_writes_nothing_when_diagnostics_fail(tmp_path, monkeypatch, capsys):
    # The diagnostics run before the aligned chain is written.
    def fail(raw, aligned):
        raise factoralign.NumericalError("diagnostics failed")

    monkeypatch.setattr(factoralign.diagnostics, "build_report", fail)
    factoralign.write_chain(tmp_path / "c", _drift_k5_chain())
    assert run(["align", tmp_path / "c", "--out", tmp_path / "a"]) == 4
    assert capsys.readouterr().err == "error: diagnostics failed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]


def test_align_writes_a_rank_deficient_statistic_as_null(tmp_path):
    from factoralign import Chain, orthogonalize_chain, select_pivot, write_chain

    samples = np.random.default_rng(95).standard_normal((20, 6, 2))
    samples[3, :, 1] = 0.0
    write_chain(tmp_path / "c", Chain(samples))
    assert run(["align", tmp_path / "c", "--out", tmp_path / "a"]) == 0
    alignment = json.loads((tmp_path / "a_report.json").read_text())["alignment"]
    selection = select_pivot(orthogonalize_chain(Chain(samples)))
    assert alignment["pivot_statistic"] == "condition" and selection.statistics[3] == np.inf
    expected = selection.statistics.tolist()
    expected[3] = None
    assert alignment["pivot_statistics"] == expected
    assert alignment["pivot_index"] == selection.index


def test_diagnose_sign_switch_toy(tmp_path):
    from factoralign import Chain, frobenius_norm, write_chain

    rng = np.random.default_rng(90)
    m = rng.standard_normal((5, 2))
    write_chain(tmp_path / "raw", Chain(np.stack([m, -m])))
    write_chain(tmp_path / "aligned", Chain(np.stack([m, m])))
    code = run(["diagnose", "--raw", tmp_path / "raw", "--aligned", tmp_path / "aligned", "--out", tmp_path / "diag"])
    assert code == 0
    report = json.loads((tmp_path / "diag_report.json").read_text())
    assert report["covariance_discrepancy_aligned"] == pytest.approx(0.0, abs=1e-12)
    assert report["covariance_discrepancy_raw"] == pytest.approx(frobenius_norm(m @ m.T))
    assert report["mean_ess_ratio_raw"] is None  # T=2 is below the ESS minimum


def test_diagnose_traces_round_trip(tmp_path):
    from factoralign import Chain, write_chain

    rng = np.random.default_rng(91)
    chain = Chain(rng.standard_normal((12, 4, 2)))
    write_chain(tmp_path / "c", chain)
    code = run(["diagnose", "--aligned", tmp_path / "c", "--traces", "0,0;3,1", "--out", tmp_path / "d"])
    assert code == 0
    traces, labels = read_traces(tmp_path / "d_traces.csv")
    assert labels == ["r0_c0", "r3_c1"]
    np.testing.assert_array_equal(traces[:, 0], chain.samples[:, 0, 0])
    np.testing.assert_array_equal(traces[:, 1], chain.samples[:, 3, 1])


def test_diagnose_out_of_range_trace_is_invalid(tmp_path):
    from factoralign import Chain, write_chain

    chain = Chain(np.ones((4, 3, 2)))
    write_chain(tmp_path / "c", chain)
    assert run(["diagnose", "--aligned", tmp_path / "c", "--traces", "9,0", "--out", tmp_path / "d"]) == 2
    assert run(["diagnose", "--aligned", tmp_path / "c", "--traces", "1;2", "--out", tmp_path / "d"]) == 2
    assert run(["diagnose", "--aligned", tmp_path / "c", "--traces", "", "--out", tmp_path / "d"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]


def test_diagnose_requires_some_chain(tmp_path):
    assert run(["diagnose", "--out", tmp_path / "d"]) == 2


def test_oracle_check_low_noise(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(["oracle-check", "--p", 12, "--k", 4, "--trials", 100, "--noise", 0.01, "--seed", 0, "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["greedy_equals_exact_count"] >= 95
    assert report["exact_equals_brute_count"] == 100
    assert all(
        gl >= el - 1e-12
        for gl, el in zip(report["greedy_losses"], report["exact_losses"])
    )


def test_oracle_check_exact_equals_brute_k6(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(["oracle-check", "--p", 10, "--k", 6, "--trials", 25, "--noise", 0.3, "--seed", 3, "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["exact_equals_brute_count"] == 25


def test_oracle_check_refuses_brute_force_above_cap(tmp_path):
    code = run(["oracle-check", "--p", 12, "--k", 9, "--trials", 5, "--brute", "on", "--out", tmp_path / "o.json"])
    assert code == 2


def test_oracle_check_auto_skips_brute_above_cap(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(["oracle-check", "--p", 12, "--k", 9, "--trials", 3, "--seed", 1, "--out", out])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["brute_force_included"] is False
    assert report["brute_losses"] is None


def test_diagnose_reports_ess_improvement_on_pipeline(pipeline_dir):
    report = json.loads((pipeline_dir / "diag_report.json").read_text())
    assert report["mean_ess_ratio_aligned"] > report["mean_ess_ratio_raw"]
    assert report["covariance_discrepancy_aligned"] <= 0.1 * report["covariance_discrepancy_raw"]
    assert report["traces_file"].endswith("diag_traces.csv")


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_env_var_sets_threads(tmp_path, monkeypatch):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    monkeypatch.setenv("FACTORALIGN_THREADS", "2")
    assert run(["align", chain_prefix, "--out", tmp_path / "env", "--report", tmp_path / "env_report.json"]) == 0
    monkeypatch.delenv("FACTORALIGN_THREADS")
    assert run(["align", chain_prefix, "--out", tmp_path / "noenv", "--report", tmp_path / "noenv_report.json"]) == 0
    assert (tmp_path / "env.bin").read_bytes() == (tmp_path / "noenv.bin").read_bytes()


def test_align_report_path_cannot_overwrite_chain_files(tmp_path, monkeypatch):
    from factoralign import Chain, write_chain

    monkeypatch.chdir(tmp_path)
    write_chain("c", Chain(np.random.default_rng(92).standard_normal((4, 5, 2))))
    inputs = {name: (tmp_path / name).read_bytes() for name in ("c.json", "c.bin")}
    for report in ("./a.json", "a.bin", "c.json"):
        assert run(["align", "c", "--out", "a", "--report", report]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]
        assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs


def test_align_out_cannot_overwrite_input_chain(tmp_path, monkeypatch):
    from factoralign import Chain, write_chain

    monkeypatch.chdir(tmp_path)
    write_chain("c", Chain(np.random.default_rng(93).standard_normal((4, 5, 2))))
    inputs = {name: (tmp_path / name).read_bytes() for name in ("c.json", "c.bin")}
    for out in ("c", "./c.json"):
        assert run(["align", "c", "--out", out]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]
        assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs


def test_diagnose_out_cannot_overwrite_input_chain(tmp_path, monkeypatch, capsys):
    # The report <out>_report.json once replaced the input chain's manifest.
    from factoralign import Chain, write_chain

    monkeypatch.chdir(tmp_path)
    write_chain("d_report", Chain(np.random.default_rng(94).standard_normal((12, 5, 2))))
    inputs = {name: (tmp_path / name).read_bytes() for name in ("d_report.json", "d_report.bin")}
    for flag in ("--raw", "--aligned"):
        for base in ("d_report", "./d_report.json"):
            assert run(["diagnose", flag, base, "--out", "d"]) == 2
            assert "would overwrite an input chain file" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d_report.bin", "d_report.json"]
            assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs
    assert run(["diagnose", "--raw", "d_report", "--out", "e"]) == 0
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs



def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with a file's bytes or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fit", "{data}.csv", "--k", 3, "--prior-residual-shape", "inf"], "prior_residual_shape"),
        (["fit", "{data}.csv", "--k", 3, "--prior-residual-rate", "inf"], "prior_residual_rate"),
        # inf once ran with a flat prior; 1e-320 overflowed the prior precision
        (["fit", "{data}.csv", "--k", 3, "--prior-loading-variance", "inf"], "prior_loading_variance"),
        (["fit", "{data}.csv", "--k", 3, "--prior-loading-variance", "1e-320"], "prior_loading_variance"),
        (["simulate", "--p", 9, "--k", 3, "--scenario", "sparse", "--off-block-sd", "inf"], "off_block_sd"),
        (["oracle-check", "--trials", 3, "--noise", "inf"], "--noise"),
        (["oracle-check", "--trials", 3, "--noise", "-1"], "--noise"),
    ],
)
def test_non_finite_hyperparameter_exits_2_with_one_line(tmp_path, capsys, argv, named):
    data = simulate_small(tmp_path)
    capsys.readouterr()
    before = _tree(tmp_path)
    args = [str(arg).format(data=data) for arg in argv] + ["--out", tmp_path / "o"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and named in err, err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, directory",
    [
        (["fit", "{data}.csv", "--k", 3, "--iterations", 30, "--burn-in", 5, "--out", "o/ff"], "o/ff.bin"),
        (["align", "{chain}", "--out", "o/a"], "o/a.bin"),
        (["align", "{chain}", "--out", "o/a", "--report", "o"], "o"),
        (["diagnose", "--raw", "{chain}", "--out", "o/dd"], "o/dd_report.json"),
        (["diagnose", "--raw", "{chain}", "--traces", "0,0", "--out", "o/dd"], "o/dd_traces.csv"),
        (["simulate", "--p", 9, "--k", 3, "--scenario", "sparse", "--out", "o/s"], "o/s_truth.bin"),
        (["oracle-check", "--trials", 3, "--out", "o/r.json"], "o/r.json"),
        # Without a directory: f is a regular file, or one output lies under another.
        pytest.param(["align", "{chain}", "--out", "al", "--report", "f/r.json"], None, id="align-report-under-file"),
        pytest.param(["align", "{chain}", "--out", "al", "--report", "al.json/r.json"], None, id="align-report-under-out"),
        pytest.param(["align", "{chain}", "--out", "al/a", "--report", "al"], None, id="align-out-under-report"),
        pytest.param(["fit", "{data}.csv", "--k", 3, "--iterations", 30, "--burn-in", 5, "--out", "f/x"], None, id="fit-under-file"),
        pytest.param(["diagnose", "--raw", "{chain}", "--out", "f/g"], None, id="diagnose-under-file"),
        pytest.param(["simulate", "--p", 9, "--k", 3, "--scenario", "sparse", "--out", "f/s"], None, id="simulate-under-file"),
        pytest.param(["oracle-check", "--trials", 3, "--out", "f/r.json"], None, id="oracle-check-under-file"),
    ],
)
def test_output_path_that_is_a_directory_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, argv, directory
):
    # Each once did its work, wrote its other outputs, then exited with a
    # traceback or a bare OSError when the write met the directory or file.
    data = simulate_small(tmp_path)
    chain = fit_small(tmp_path, data)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("")
    if directory:
        (tmp_path / directory).mkdir(parents=True)
    before = _tree(tmp_path)
    assert run([str(arg).format(data=data, chain=chain) for arg in argv]) == 2
    err = capsys.readouterr().err
    expected = "is a directory" if directory else "is under"
    assert len(err.splitlines()) == 1 and err.startswith("error:") and expected in err, err
    assert _tree(tmp_path) == before


def test_fit_out_cannot_overwrite_its_dataset(tmp_path, monkeypatch, capsys):
    # The chain manifest <out>.json once replaced a dataset named d.json.
    data = simulate_small(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.json").write_bytes(Path(f"{data}.csv").read_bytes())
    capsys.readouterr()
    before = _tree(tmp_path)
    assert run(["fit", "d.json", "--k", 3, "--iterations", 30, "--burn-in", 10, "--out", "d"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "would overwrite the dataset" in err, err
    assert _tree(tmp_path) == before


def _named_files(stdout: str) -> set[str]:
    """The files a command's ``wrote`` line names, ``<name>.json/.bin`` naming two.

    ``fit``'s line ends in `` with T=<draws>``, which names no file.
    """
    (line,) = stdout.splitlines()
    assert line.startswith("wrote "), line
    named = set()
    for name in line.removeprefix("wrote ").split(" with ")[0].split(" and "):
        if name.endswith(".json/.bin"):
            named |= {name.removesuffix("/.bin"), name.removesuffix(".json/.bin") + ".bin"}
        else:
            named.add(name)
    return named


_PREFIX_ARGV = {
    "simulate": ["simulate", "--n", 30, "--p", 7, "--k", 2, "--scenario", "sparse"],
    "fit": ["fit", "{data}.csv", "--k", 3, "--iterations", 12, "--burn-in", 2],
    "align": ["align", "{chain}"],
    "diagnose": ["diagnose", "--raw", "{chain}", "--traces", "0,0"],
}


@pytest.mark.parametrize("prefix", ["data.v1", "run.2024.10", "x.json", "sub/"])
@pytest.mark.parametrize("command", list(_PREFIX_ARGV))
def test_out_prefix_names_exactly_the_files_written(tmp_path, monkeypatch, capsys, command, prefix):
    # A dotted prefix once lost its last dotted part to Path.with_suffix:
    # fit --out chain.v1 wrote chain.json, and sub/ wrote sub.json.
    data = simulate_small(tmp_path / "in")
    chain = fit_small(tmp_path / "in", data)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    argv = [str(arg).format(data=data, chain=chain) for arg in _PREFIX_ARGV[command]]
    code = run(argv + ["--out", prefix])
    out, err = capsys.readouterr()
    written = {str(path.relative_to(work)) for path in work.rglob("*")}
    if prefix.endswith("/"):
        assert code == 2 and err.startswith("error: --out") and written == set(), err
        return
    assert code == 0, err
    assert written == _named_files(out)
    if command in ("fit", "align"):
        stem = prefix.removesuffix(".json")
        assert {f"{stem}.json", f"{stem}.bin"} <= written


def test_dotted_chain_prefixes_do_not_collide(tmp_path, monkeypatch):
    data = simulate_small(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, iterations in (("chain.v1", 30), ("chain.v2", 20)):
        argv = ["fit", f"{data}.csv", "--k", 3, "--iterations", iterations, "--burn-in", 10]
        assert run(argv + ["--out", name]) == 0
    assert read_chain("chain.v1")[1].T == 20
    assert read_chain("chain.v2")[1].T == 10
    assert run(["align", "chain.v1", "--out", "aligned.v1"]) == 0
    assert read_chain("aligned.v1")[1].T == 20


def test_manifests_record_the_parsed_options(tmp_path):
    # fit once left out the --prior-* options and simulate --off-block-sd,
    # and align recorded only its input.  Each recorded command, run again,
    # reproduces the payload.
    data = tmp_path / "data"
    simulate = ["simulate", "--n", 40, "--p", 9, "--k", 3, "--scenario", "sparse"]
    assert run(simulate + ["--off-block-sd", 0.05, "--out", data]) == 0
    fit = ["fit", f"{data}.csv", "--k", 3, "--iterations", 30, "--burn-in", 10]
    assert run(fit + ["--prior-loading-variance", 0.02, "--out", tmp_path / "c"]) == 0
    for threads in (1, 2):
        argv = ["align", tmp_path / "c", "--kaiser-normalize", "--threads", threads]
        assert run(argv + ["--out", tmp_path / f"a{threads}"]) == 0
    assert (tmp_path / "a1.json").read_bytes() == (tmp_path / "a2.json").read_bytes()

    recorded = {
        "data_truth": ("--off-block-sd 0.05", "again_truth.bin"),
        "c": ("--prior-loading-variance 0.02", "again.bin"),
        "a1": ("--kaiser-normalize", "again.bin"),
    }
    for base, (option, payload) in recorded.items():
        provenance = read_chain(tmp_path / base)[1].seed_provenance
        assert option in provenance, provenance
        assert run(provenance.split() + ["--out", tmp_path / "again"]) == 0
        assert (tmp_path / payload).read_bytes() == (tmp_path / f"{base}.bin").read_bytes()


def test_write_failure_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # The target passes every check and the write itself fails.
    def refuse(source, target):
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(os, "replace", refuse)
    assert run(["oracle-check", "--trials", 3, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Permission denied" in err, err
    assert list(tmp_path.iterdir()) == []


def test_align_negative_threads_exits_2(tmp_path):
    data = simulate_small(tmp_path)
    chain_prefix = fit_small(tmp_path, data)
    assert run(["align", chain_prefix, "--threads", -1, "--out", tmp_path / "a"]) == 2
    assert not (tmp_path / "a.json").exists()


def test_diagnose_threads_flag_is_removed(tmp_path):
    from factoralign import Chain, write_chain

    write_chain(tmp_path / "c", Chain(np.ones((4, 3, 2))))
    assert run(["diagnose", "--aligned", tmp_path / "c", "--threads", 2, "--out", tmp_path / "d"]) == 2


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--infinite-fraction-threshold", "-1", "infinite_fraction_threshold"),
        ("--infinite-fraction-threshold", "nan", "infinite_fraction_threshold"),
        ("--varimax-tolerance", "inf", "tolerance"),
        ("--varimax-max-iterations", "0", "max_iterations"),
    ],
)
def test_align_rejects_out_of_range_option(tmp_path, capsys, option, value, named):
    # The first three once exited 0: -1 forced sigma-max, nan disabled the
    # fallback, and inf made the varimax gate skip every rotation.
    from factoralign import Chain, write_chain

    write_chain(tmp_path / "c", Chain(np.random.default_rng(93).standard_normal((6, 5, 2))))
    assert run(["align", tmp_path / "c", option, value, "--out", tmp_path / "a"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()
    # Options are checked before the chain is read: a missing chain once
    # turned each of these into exit 3.
    assert run(["align", tmp_path / "missing", option, value, "--out", tmp_path / "a"]) == 2
    assert named in capsys.readouterr().err


_COMMANDS_WITHOUT_SCIPY = """
import json, sys
from factoralign.cli import main

out = sys.argv[1]
codes = [
    main(["simulate", "--n", "30", "--p", "7", "--k", "2", "--scenario", "sparse",
          "--seed", "1", "--out", out + "/data"]),
    main(["fit", out + "/data.csv", "--k", "2", "--iterations", "12", "--burn-in", "2",
          "--seed", "1", "--out", out + "/chain"]),
    main(["align", out + "/chain", "--out", out + "/aligned"]),
    main(["diagnose", "--raw", out + "/chain", "--aligned", out + "/aligned", "--out", out + "/diag"]),
    main(["oracle-check", "--p", "6", "--k", "3", "--trials", "4", "--brute", "on",
          "--out", out + "/brute_on.json"]),
    main(["oracle-check", "--p", "6", "--k", "3", "--trials", "4", "--brute", "off",
          "--out", out + "/brute_off.json"]),
]
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy_modules": scipy}))
"""


def test_cli_commands_do_not_import_scipy(tmp_path):
    # Every command, oracle-check's exact matcher included, runs on numpy
    # alone; importing scipy.optimize would cost most of a CLI start.
    src = str(Path(factoralign.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy_modules": []}


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_align_overflowing_chain_exits_4_and_writes_nothing(tmp_path, capsys, scale):
    # Every matching distance overflows; this once exited 2 with
    # "list.remove(x): x not in list".  Varimax now fails first, on the
    # objective of the one column, as it does for two (see the test below).
    from factoralign import Chain, write_chain

    samples = scale * np.random.default_rng(94).standard_normal((20, 6, 1))
    write_chain(tmp_path / "c", Chain(samples))
    code = run(["align", tmp_path / "c", "--out", tmp_path / "a"])
    assert code == 4
    assert "sample 0: varimax objective" in capsys.readouterr().err
    assert not (tmp_path / "a.bin").exists()
    assert not (tmp_path / "a.json").exists()
    assert not (tmp_path / "a_report.json").exists()


def test_align_varimax_overflow_exits_4_and_writes_nothing(tmp_path, capsys):
    # Varimax once returned these samples unrotated and align exited 0.
    from factoralign import Chain, write_chain

    samples = np.random.default_rng(96).standard_normal((20, 6, 2))
    samples[3:] *= 1e100
    write_chain(tmp_path / "c", Chain(samples))
    code = run(["align", tmp_path / "c", "--out", tmp_path / "a"])
    assert code == 4
    assert "error: sample 3: varimax objective is" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "c.json"]


def test_fit_non_finite_dataset_exits_3_like_a_non_finite_chain(tmp_path, capsys):
    data = simulate_small(tmp_path, n=30, p=7, k=2)
    lines = Path(f"{data}.csv").read_text().splitlines()
    lines[4] = "nan" + lines[4][lines[4].index(","):]
    (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
    assert run(["fit", tmp_path / "nan.csv", "--k", 2, "--iterations", 5, "--burn-in", 1, "--out", tmp_path / "c"]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "v1,v2,v3\n"], ids=["empty", "header-only"])
def test_fit_dataset_without_rows_prints_one_error_line(tmp_path, text):
    # numpy's "input contained no data" warning once printed two lines before
    # the error; warnings reach stderr only in a fresh interpreter.
    (tmp_path / "d.csv").write_text(text)
    src = str(Path(factoralign.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "factoralign", "fit", str(tmp_path / "d.csv"), "--k", "1",
         "--out", str(tmp_path / "c")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:"), done.stderr


@functools.cache
def _valid_inputs() -> dict[str, bytes]:
    """The bytes of a valid 12-sample chain pair and a 20 x 5 dataset CSV."""
    from factoralign import Chain, write_chain, write_dataset

    rng = np.random.default_rng(98)
    with tempfile.TemporaryDirectory() as tmp:
        write_chain(Path(tmp, "c"), Chain(rng.standard_normal((12, 5, 2)), rng.uniform(0.5, 2.0, (12, 5))))
        write_dataset(Path(tmp, "d.csv"), rng.standard_normal((20, 5)))
        return {name: Path(tmp, name).read_bytes() for name in ("c.json", "c.bin", "d.csv")}


def _assert_clean_exit(files: dict[str, bytes], argv: list[str]) -> None:
    """Run ``argv``, with ``{in}`` and ``{out}`` filled in, on ``files``; check the exit contract.

    The exit code is a documented one, stderr holds exactly one ``error:``
    line on failure and none on success, and no input file changes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outputs = Path(tmp, "in"), Path(tmp, "out")
        inputs.mkdir()
        outputs.mkdir()
        for name, data in files.items():
            (inputs / name).write_bytes(data)
        args = [arg.format(**{"in": inputs, "out": outputs}) for arg in argv]
        err = io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)  # an exception here is a traceback at the command line
        assert code in (0, 2, 3, 4)
        error_lines = [line for line in err.getvalue().split("\n") if line.startswith("error:")]
        assert len(error_lines) == (code != 0), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert {path.name: path.read_bytes() for path in inputs.iterdir()} == files


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2**64),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(0, 12), max_size=2),
)


def _with_manifest(edit: dict, drop: str | None = None) -> dict[str, bytes]:
    """The valid inputs with the chain manifest's fields updated by ``edit`` and ``drop`` removed."""
    files = dict(_valid_inputs())
    manifest = {**json.loads(files["c.json"]), **edit}
    manifest.pop(drop, None)
    files["c.json"] = json.dumps(manifest).encode()
    return files


_MANIFEST_FIELDS = [*json.loads(_valid_inputs()["c.json"]), "extra"]


@st.composite
def _mutated_chain(draw) -> dict[str, bytes]:
    files = _with_manifest(
        draw(st.dictionaries(st.sampled_from(_MANIFEST_FIELDS), _JSON_VALUES, max_size=2)),
        draw(st.none() | st.sampled_from(_MANIFEST_FIELDS)),
    )
    files["c.json"] = draw(
        st.just(files["c.json"]) | st.sampled_from([b"[]", b'"c"', b"{", b"", b'{"p": "\xe9"}'])
    )
    payload = bytearray(files["c.bin"])
    for position, mask in draw(st.lists(st.tuples(st.integers(0, len(payload) - 1), st.integers(1, 255)), max_size=3)):
        payload[position] ^= mask
    cut = draw(st.none() | st.integers(0, len(payload)))
    files["c.bin"] = bytes(payload[:cut]) + draw(st.binary(max_size=9))
    # A file under another extension leaves its chain incomplete.
    renamed = draw(st.sampled_from([None, "c.json", "c.bin"]))
    if renamed:
        files[renamed + ".bak"] = files.pop(renamed)
    return files


@given(
    files=_mutated_chain(),
    command=st.sampled_from(["align", "diagnose"]),
    suffix=st.sampled_from(["", ".json", ".bin", ".txt"]),
)
@example(files=_valid_inputs(), command="align", suffix="")
@example(files=_with_manifest({"p": "5"}), command="align", suffix="")  # once a TypeError traceback
@example(files=_with_manifest({"T": None}), command="diagnose", suffix=".bin")  # likewise
@settings(max_examples=60, deadline=None)
def test_cli_exit_contract_on_mutated_chain_files(files, command, suffix):
    chain = "{in}/c" + suffix
    if command == "align":
        argv = ["align", chain, "--out", "{out}/a"]
    else:
        argv = ["diagnose", "--raw", chain, "--traces", "0,0;4,1", "--out", "{out}/d"]
    _assert_clean_exit(files, argv)


_CSV_TOKENS = ["nan", "inf", "-inf", "1e400", "", "x", "1,2", "#", "v1", "0x1p3", "\x00", "é"]


@st.composite
def _mutated_dataset(draw) -> dict[str, bytes]:
    lines = _valid_inputs()["d.csv"].decode().split("\n")
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CSV_TOKENS) | st.text(max_size=4))
        lines[row] = ",".join(cells)
    text = "\n".join(lines)
    text = text[: draw(st.none() | st.integers(0, len(text)))]
    return {**_valid_inputs(), "d.csv": text.encode()}


@pytest.mark.filterwarnings("ignore:loadtxt")  # numpy warns before read_dataset rejects an empty file
@given(files=_mutated_dataset())
@example(files=_valid_inputs())
@settings(max_examples=40, deadline=None)
def test_cli_exit_contract_on_mutated_dataset(files):
    _assert_clean_exit(files, ["fit", "{in}/d.csv", "--k", "2", "--iterations", "4", "--burn-in", "1", "--out", "{out}/f"])


def test_oracle_check_stdout_uses_report_layout(capsys):
    from factoralign.chainio import report_text

    assert run(["oracle-check", "--p", 6, "--k", 2, "--trials", 3]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert "schema_version" not in report
    assert text == report_text(report) + "\n"


def test_oracle_check_warns_about_unstable_matches_once(tmp_path, caplog):
    import logging

    from factoralign import greedy_match

    with caplog.at_level(logging.WARNING):
        code = run(["oracle-check", "--trials", 30, "--noise", 1.0, "--out", tmp_path / "o.json"])
    assert code == 0
    assert len(caplog.records) == 1
    assert "of 30 trials" in caplog.records[0].getMessage()

    # Called directly, greedy_match still warns for its one sample.
    caplog.clear()
    rng = np.random.default_rng(95)
    with caplog.at_level(logging.WARNING, logger="factoralign.align"):
        greedy_match(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
    assert len(caplog.records) == 1

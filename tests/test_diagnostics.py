import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoralign import (
    Chain,
    DegenerateSeriesWarning,
    apply_signed_permutation,
    build_report,
    covariance_discrepancy,
    effective_sample_size,
    export_traces,
    frobenius_norm,
    mean_ess_ratio,
    per_entry_ess,
    random_signed_permutation,
)


def ar1_series(rho, t, rng):
    out = np.empty(t)
    out[0] = rng.standard_normal() / np.sqrt(1.0 - rho * rho)
    noise = rng.standard_normal(t)
    for i in range(1, t):
        out[i] = rho * out[i - 1] + noise[i]
    return out


def loop_effective_sample_size(x, cap_ratio=10.0):
    """Per-series reference for effective_sample_size: one `@` product per lag."""
    t = x.shape[0]
    centered = x - x.mean()
    gamma0 = float(centered @ centered) / t
    if gamma0 == 0.0:
        return float(t)

    def rho(lag):
        if lag >= t:
            return 0.0
        return float(centered[: t - lag] @ centered[lag:]) / t / gamma0

    pair_sum_total = 0.0
    i = 0
    while 2 * i < t:
        pair = rho(2 * i) + rho(2 * i + 1)
        if pair <= 0.0:
            break
        pair_sum_total += pair
        i += 1
    tau = 2.0 * pair_sum_total - 1.0
    tau = max(tau, 1.0 / cap_ratio)
    return min(float(t) / tau, cap_ratio * t)


def loop_covariance_discrepancy(raw, aligned):
    """Per-sample reference for covariance_discrepancy."""
    gram = sum(sample @ sample.T for sample in raw.samples) / raw.n_samples
    mean = aligned.samples.mean(axis=0)
    return frobenius_norm(gram - mean @ mean.T)


def test_metric_zero_for_constant_chain():
    rng = np.random.default_rng(70)
    m = rng.standard_normal((6, 2))
    chain = Chain(np.stack([m] * 4))
    assert covariance_discrepancy(chain, chain) == pytest.approx(0.0, abs=1e-12)


def test_metric_detects_sign_switching_toy():
    rng = np.random.default_rng(71)
    m = rng.standard_normal((5, 2))
    raw = Chain(np.stack([m, -m]))
    aligned = Chain(np.stack([m, m]))
    assert covariance_discrepancy(raw, aligned) == pytest.approx(0.0, abs=1e-12)
    # the unaligned mean is the zero matrix, so the raw metric is ||m m^T||
    assert covariance_discrepancy(raw, raw) == pytest.approx(frobenius_norm(m @ m.T))


def test_metric_rejects_mismatched_chains():
    rng = np.random.default_rng(72)
    a = Chain(rng.standard_normal((3, 4, 2)))
    b = Chain(rng.standard_normal((3, 5, 2)))
    with pytest.raises(ValueError, match="shapes differ"):
        covariance_discrepancy(a, b)


def test_metric_asserts_gram_equality():
    rng = np.random.default_rng(73)
    a = Chain(rng.standard_normal((3, 4, 2)))
    b = Chain(rng.standard_normal((3, 4, 2)))  # unrelated, different per-sample grams
    with pytest.raises(ValueError, match="signed-permutation alignment"):
        covariance_discrepancy(a, b)


def test_metric_first_term_side_invariance():
    # raw and aligned chains give the same mean gram, so swapping which one
    # provides the first term cannot change the value
    rng = np.random.default_rng(74)
    m = rng.standard_normal((6, 3))
    raw = Chain(np.stack([m, -m, m]))
    aligned = Chain(np.stack([m, m, m]))
    forward = covariance_discrepancy(raw, aligned)
    swapped = covariance_discrepancy(aligned, aligned)
    assert abs(forward - swapped) <= 1e-10 * max(1.0, forward)


def test_ess_iid_near_one():
    rng = np.random.default_rng(2024)
    series = rng.standard_normal(100_000)
    assert 0.9 <= effective_sample_size(series) / 100_000 <= 1.1


def test_ess_ar1_matches_closed_form():
    rng = np.random.default_rng(2025)
    t = 100_000
    series = ar1_series(0.5, t, rng)
    # integrated autocorrelation time of AR(1) is (1+rho)/(1-rho) = 3
    assert 0.30 <= effective_sample_size(series) / t <= 0.37


def test_ess_constant_series_flagged():
    with pytest.warns(DegenerateSeriesWarning):
        assert effective_sample_size(np.ones(50)) == 50.0


def test_ess_short_series_rejected():
    with pytest.raises(ValueError, match="at least 10"):
        effective_sample_size(np.arange(5.0))


def test_ess_non_finite_rejected():
    series = np.ones(20)
    series[3] = np.inf
    with pytest.raises(ValueError):
        effective_sample_size(series)


def test_ess_affine_invariance():
    rng = np.random.default_rng(75)
    series = ar1_series(0.3, 5000, rng)
    base = effective_sample_size(series)
    shifted = effective_sample_size(3.5 + series)
    scaled = effective_sample_size(-2.0 * series + 1.0)
    assert shifted == pytest.approx(base, rel=1e-8)
    assert scaled == pytest.approx(base, rel=1e-8)


def test_ess_alternating_series_capped_positive():
    series = np.tile([1.0, -1.0], 500)
    ess = effective_sample_size(series)
    assert 0.0 < ess <= 10.0 * len(series)


def test_mean_ess_ratio_iid_chain():
    rng = np.random.default_rng(76)
    chain = Chain(rng.standard_normal((2000, 4, 2)))
    assert 0.9 <= mean_ess_ratio(chain) <= 1.1


def test_mean_ess_ratio_short_chain_rejected():
    chain = Chain(np.random.default_rng(0).standard_normal((5, 3, 2)))
    with pytest.raises(ValueError):
        mean_ess_ratio(chain)


def test_per_entry_ess_shape_and_range():
    rng = np.random.default_rng(77)
    chain = Chain(rng.standard_normal((500, 3, 2)))
    ess = per_entry_ess(chain)
    assert ess.shape == (3, 2)
    assert np.all(ess > 0)
    assert np.all(ess <= 10.0 * 500)


def test_export_traces_constant_entry():
    chain = Chain(np.ones((7, 3, 2)))
    traces = export_traces(chain, [(0, 0)])
    np.testing.assert_array_equal(traces, np.ones((7, 1)))


def test_export_traces_selects_requested_series():
    rng = np.random.default_rng(78)
    chain = Chain(rng.standard_normal((9, 4, 3)))
    traces = export_traces(chain, [(2, 1), (0, 0)])
    np.testing.assert_array_equal(traces[:, 0], chain.samples[:, 2, 1])
    np.testing.assert_array_equal(traces[:, 1], chain.samples[:, 0, 0])


def test_export_traces_out_of_range():
    chain = Chain(np.ones((4, 3, 2)))
    with pytest.raises(ValueError, match="out of range"):
        export_traces(chain, [(3, 0)])
    with pytest.raises(ValueError, match="out of range"):
        export_traces(chain, [(0, 2)])


REPORT_KEYS = {
    "covariance_discrepancy_raw",
    "covariance_discrepancy_aligned",
    "mean_ess_ratio_raw",
    "mean_ess_ratio_aligned",
    "per_entry_ess_raw",
    "per_entry_ess_aligned",
}


def test_build_report_long_chain():
    rng = np.random.default_rng(79)
    chain = Chain(rng.standard_normal((200, 3, 2)))
    report = build_report(chain, chain)
    assert set(report) == REPORT_KEYS
    assert report["covariance_discrepancy_aligned"] >= 0.0
    assert report["covariance_discrepancy_raw"] == report["covariance_discrepancy_aligned"]
    assert 0.0 < report["mean_ess_ratio_aligned"] <= 10.0
    assert np.shape(report["per_entry_ess_aligned"]) == (3, 2)
    assert report["per_entry_ess_raw"] == report["per_entry_ess_aligned"]
    # without a raw chain the aligned chain is its own covariance reference
    aligned_only = build_report(None, chain)
    assert aligned_only["covariance_discrepancy_raw"] is None
    assert aligned_only["mean_ess_ratio_raw"] is None
    assert aligned_only["per_entry_ess_raw"] is None
    for key in ("covariance_discrepancy_aligned", "mean_ess_ratio_aligned", "per_entry_ess_aligned"):
        assert aligned_only[key] == report[key]


def test_build_report_takes_one_mean_gram_per_chain(monkeypatch):
    from factoralign import diagnostics

    rng = np.random.default_rng(97)
    raw = Chain(rng.standard_normal((40, 5, 3)))
    sp = random_signed_permutation(3, rng)
    aligned = Chain(np.stack([apply_signed_permutation(s, sp) for s in raw.samples]))
    want = build_report(raw, aligned)
    grams = []
    original = diagnostics._mean_gram

    def counted(chain):
        grams.append(id(chain))
        return original(chain)

    monkeypatch.setattr(diagnostics, "_mean_gram", counted)
    assert build_report(raw, aligned) == want
    assert grams == [id(raw), id(aligned)]
    grams.clear()
    build_report(None, aligned)
    assert grams == [id(aligned)]
    # The public metric is unchanged: it takes both grams itself.
    grams.clear()
    assert covariance_discrepancy(raw, aligned) == want["covariance_discrepancy_aligned"]
    assert covariance_discrepancy(raw, raw) == want["covariance_discrepancy_raw"]
    assert len(grams) == 4


def test_build_report_rejects_mismatched_chains():
    rng = np.random.default_rng(98)
    with pytest.raises(ValueError, match="shapes differ"):
        build_report(Chain(rng.standard_normal((12, 4, 2))), Chain(rng.standard_normal((11, 4, 2))))


def test_build_report_short_chain_skips_ess():
    chain = Chain(np.ones((3, 4, 2)))
    report = build_report(chain, chain)
    assert set(report) == REPORT_KEYS
    assert report["covariance_discrepancy_aligned"] == pytest.approx(0.0, abs=1e-12)
    for key in ("mean_ess_ratio_raw", "mean_ess_ratio_aligned", "per_entry_ess_raw", "per_entry_ess_aligned"):
        assert report[key] is None


def test_improvement_on_full_pipeline(pipeline_report):
    diag = pipeline_report["diagnostics"]
    assert diag["covariance_discrepancy_aligned"] <= 0.1 * diag["covariance_discrepancy_raw"]


def test_metric_matches_per_sample_loop():
    rng = np.random.default_rng(75)
    raw = Chain(rng.standard_normal((40, 7, 3)))
    aligned = Chain(
        np.stack(
            [apply_signed_permutation(s, random_signed_permutation(3, rng)) for s in raw.samples]
        )
    )
    for reference, target in ((raw, raw), (raw, aligned), (aligned, raw)):
        expected = loop_covariance_discrepancy(reference, target)
        assert covariance_discrepancy(reference, target) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(10, 300), rho=st.floats(-0.9, 0.99))
def test_ess_equals_per_series_loop(seed, t, rho):
    rng = np.random.default_rng(seed)
    alternating = np.tile([1.0, -1.0], t)[:t]
    columns = [
        np.full(t, 1.5),
        alternating,
        ar1_series(rho, t, rng),
        ar1_series(0.95, t, rng),
        rng.standard_normal(t),
        np.cumsum(rng.standard_normal(t)),
    ]
    chain = Chain(np.stack(columns, axis=1).reshape(t, 3, 2))
    series = chain.samples.reshape(t, -1).T
    expected = np.array([loop_effective_sample_size(x) for x in series])
    # the alternating series keeps every pair positive up to lag T - 1 and
    # ends at the 10 T cap
    assert expected[1] == 10.0 * t
    assert np.array_equal(per_entry_ess(chain).ravel(), expected)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSeriesWarning)
        scalar = np.array([effective_sample_size(x) for x in series])
    assert np.array_equal(scalar, expected)

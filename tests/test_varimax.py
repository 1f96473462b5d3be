import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factoralign import (
    Chain,
    NumericalError,
    VarimaxConfig,
    VarimaxResult,
    apply_signed_permutation,
    exact_match_assignment,
    frobenius_norm,
    match_loss,
    orthogonalize_chain,
    random_signed_permutation,
    varimax_rotate,
)
from factoralign import varimax as varimax_module
from conftest import random_orthogonal


def _criterion(m: np.ndarray) -> float:
    """Raw varimax objective: sum over columns of p*sum(x^4) - (sum(x^2))^2."""
    sq = m * m
    return float(np.sum(m.shape[0] * np.sum(sq * sq, axis=0) - np.sum(sq, axis=0) ** 2))


def _pair_rotation(x: np.ndarray, y: np.ndarray, p: int) -> tuple[float, float]:
    """Optimal planar angle for one column pair and its predicted objective gain."""
    u = x * x - y * y
    v = 2.0 * x * y
    a = float(np.sum(u))
    b = float(np.sum(v))
    c = float(np.sum(u * u - v * v))
    d = 2.0 * float(np.sum(u * v))
    num = p * d - 2.0 * a * b
    den = p * c - (a * a - b * b)
    hyp = math.hypot(num, den)
    if den > 0:
        gain = 0.25 * num * (num / (hyp + den))
    else:
        gain = 0.25 * (hyp - den)
    theta = 0.25 * math.atan2(num, den)
    return theta, gain


def loop_varimax_rotate(m, config: VarimaxConfig | None = None) -> VarimaxResult:
    """Reference for varimax_rotate: the cyclic sweep one real column pair at a time.

    Same pair order, gain gate, stopping rule and Kaiser normalization as
    ``varimax_rotate``; only the arithmetic is spelled out per pair.  Takes
    one (p, k) matrix and returns its fields without the sample axis.
    """
    arr = np.asarray(m, dtype=np.float64)
    cfg = config or VarimaxConfig()
    p, k = arr.shape
    if k == 1:
        return _loop_result(arr.copy(), np.eye(1), 0, _criterion(arr), True)
    if cfg.normalize:
        row_norms = np.sqrt(np.sum(arr * arr, axis=1))
        work = arr / np.where(row_norms > 0, row_norms, 1.0)[:, None]
    else:
        work = arr.copy()
    rotation = np.eye(k)
    n_pairs = k * (k - 1) // 2
    crit = _criterion(work)
    converged = False
    sweeps = 0
    for _ in range(cfg.max_iterations):
        gate = cfg.tolerance * max(crit, 1e-300) / n_pairs
        applied = False
        for a_col in range(k - 1):
            for b_col in range(a_col + 1, k):
                x = work[:, a_col]
                y = work[:, b_col]
                theta, gain = _pair_rotation(x, y, p)
                if not gain > gate:
                    continue
                applied = True
                cos_t = math.cos(theta)
                sin_t = math.sin(theta)
                new_a = cos_t * x + sin_t * y
                new_b = cos_t * y - sin_t * x
                work[:, a_col] = new_a
                work[:, b_col] = new_b
                ra = rotation[:, a_col].copy()
                rb = rotation[:, b_col].copy()
                rotation[:, a_col] = cos_t * ra + sin_t * rb
                rotation[:, b_col] = cos_t * rb - sin_t * ra
        sweeps += 1
        crit = _criterion(work)
        if not applied:
            converged = True
            break
    rotated = arr @ rotation
    return _loop_result(rotated, rotation, sweeps, _criterion(rotated), converged)


def _loop_result(rotated, rotation, sweeps, criterion, converged) -> VarimaxResult:
    return VarimaxResult(
        rotated, rotation, sweeps, criterion, converged, np.array([sweeps]), np.array([converged])
    )


def grid_max_criterion(m: np.ndarray, n_grid: int = 100_000) -> float:
    """Brute-force oracle for k=2: maximize the criterion over planar angles."""
    thetas = np.linspace(0.0, np.pi / 2, n_grid, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    x, y = m[:, 0], m[:, 1]
    u = np.outer(x, cos_t) + np.outer(y, sin_t)
    v = np.outer(y, cos_t) - np.outer(x, sin_t)
    p = m.shape[0]
    crit = (
        p * np.sum(u**4, axis=0)
        - np.sum(u**2, axis=0) ** 2
        + p * np.sum(v**4, axis=0)
        - np.sum(v**2, axis=0) ** 2
    )
    return float(crit.max())


def test_criterion_zero_matrix():
    assert varimax_rotate(np.zeros((1, 3, 2))).criterion[0] == 0.0


def test_criterion_constant_column_is_zero():
    assert varimax_rotate([[[1.0], [1.0]]]).criterion[0] == 0.0


def test_criterion_hand_value():
    assert varimax_rotate([[[1.0], [0.0]]]).criterion[0] == 1.0


def test_criterion_invariant_under_signed_permutation():
    # On a varimax optimum, where a signed permutation leaves nothing to turn.
    rng = np.random.default_rng(10)
    m = varimax_rotate(rng.standard_normal((9, 4))[None]).rotated[0]
    sp = random_signed_permutation(4, rng)
    drift = abs(
        varimax_rotate(apply_signed_permutation(m, sp)[None]).criterion[0]
        - varimax_rotate(m[None]).criterion[0]
    )
    assert drift <= 1e-10


def test_rotate_k1_is_identity():
    m = np.array([[1.0], [2.0], [-3.0]])
    res = varimax_rotate(m[None])
    np.testing.assert_array_equal(res.rotated[0], m)
    np.testing.assert_array_equal(res.rotation[0], [[1.0]])
    assert res.sample_iterations[0] == 0
    assert res.sample_converged[0]


def test_rotate_matches_grid_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 2))
    res = varimax_rotate(m[None])
    assert abs(res.criterion[0] - grid_max_criterion(m)) <= 1e-6


def test_rotate_never_decreases_criterion():
    # A run capped at s sweeps is exactly the state after s sweeps.
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = rng.standard_normal((10, 4))
        previous = _criterion(m)
        for cap in range(1, varimax_rotate(m[None]).sample_iterations[0] + 1):
            crit = varimax_rotate(m[None], VarimaxConfig(max_iterations=cap)).criterion[0]
            assert crit >= previous - 1e-12 * max(1.0, previous), cap
            previous = crit


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((15, 6))
    rotation = varimax_rotate(m[None]).rotation[0]
    eye = rotation.T @ rotation
    assert np.abs(eye - np.eye(6)).max() <= 1e-10


def test_rotated_equals_input_times_rotation():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((12, 5))
    res = varimax_rotate(m[None])
    assert frobenius_norm(res.rotated[0] - m @ res.rotation[0]) <= 1e-10 * frobenius_norm(m)


def test_rotate_preserves_gram_matrix():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((10, 3))
    rotated = varimax_rotate(m[None]).rotated[0]
    gram = m @ m.T
    assert frobenius_norm(rotated @ rotated.T - gram) <= 1e-10 * frobenius_norm(gram)


def test_rotate_idempotent_within_tolerance():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((14, 4))
    cfg = VarimaxConfig()
    first = varimax_rotate(m[None], cfg)
    second = varimax_rotate(first.rotated, cfg)
    gap = abs(second.criterion[0] - first.criterion[0])
    assert gap <= cfg.tolerance * max(1.0, first.criterion[0])
    # a converged output is an exact fixed point
    np.testing.assert_array_equal(second.rotated[0], first.rotated[0])


def test_rotate_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        varimax_rotate(np.array([[np.nan, 1.0], [0.0, 1.0]])[None])


@pytest.mark.parametrize("normalize", [False, True])
def test_rotate_hadamard_pattern_from_zero_criterion(normalize):
    # The criterion starts at exactly 0.0 without the objective being flat:
    # a 45 degree turn takes it to 2.0, so a rule that left inputs at a
    # rounding-level criterion unrotated would be wrong here.
    m = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) / 2.0
    assert _criterion(m) == 0.0
    res = varimax_rotate(m[None], VarimaxConfig(normalize=normalize))
    assert res.sample_converged[0]
    assert res.criterion[0] == pytest.approx(2.0, abs=1e-12)
    assert np.abs(np.abs(res.rotated[0]) - np.sqrt(0.5) * np.eye(2)[[0, 1, 0, 1]]).max() <= 1e-12
    np.testing.assert_array_equal(varimax_rotate(res.rotated).rotated[0], res.rotated[0])


def test_rotate_leaves_a_flat_kaiser_objective_alone():
    # Kaiser-normalized, columns x and -x give the same objective at every
    # angle.  Rounding once turned this input for 4 sweeps, and a second call
    # moved the result by 2.59.
    x = np.array([0.4201183919452433, 1.2286995826584293, 1.2942045252346832,
                  0.04542266006420585, 0.18465963752167422, 1.100868006696127])
    cfg = VarimaxConfig(normalize=True)
    res = varimax_rotate(np.column_stack([x, -x])[None], cfg)
    assert res.sample_converged[0]
    np.testing.assert_array_equal(varimax_rotate(res.rotated, cfg).rotated[0], res.rotated[0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
    normalize=st.booleans(),
    data=st.data(),
)
def test_rotation_with_duplicated_or_negated_columns_is_a_bitwise_fixed_point(
    seed, k, normalize, data
):
    # Column 1 repeats column 0, maybe negated; each later column repeats an
    # earlier one or is its own.  A pair of such columns has a flat objective
    # in the angle, and rounding alone once decided whether it turned.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((data.draw(st.integers(k, 12)), k))
    for j in range(1, k):
        source = 0 if j == 1 else data.draw(st.integers(-1, j - 1))
        if source >= 0:
            m[:, j] = data.draw(st.sampled_from([1.0, -1.0])) * m[:, source]
    cfg = VarimaxConfig(normalize=normalize)
    first = varimax_rotate(m[None], cfg)
    assert first.sample_converged[0]
    np.testing.assert_array_equal(varimax_rotate(first.rotated, cfg).rotated[0], first.rotated[0])


@pytest.mark.parametrize("scale", [1e77, 1e100, 1e200])
@pytest.mark.parametrize("normalize", [False, True])
def test_rotate_overflowing_objective_raises(scale, normalize):
    # These once came back unrotated with converged=True and criterion=nan.
    m = scale * np.random.default_rng(26).standard_normal((20, 4))
    with pytest.raises(NumericalError, match="objective is"):
        varimax_rotate(m[None], VarimaxConfig(normalize=normalize))


def test_one_column_and_criterion_overflow_raise():
    # These once returned a nan criterion without an error.
    m = 1e100 * np.random.default_rng(26).standard_normal((20, 1))
    with pytest.raises(NumericalError, match="^sample 0: varimax objective is"):
        varimax_rotate(m[None])
    with pytest.raises(NumericalError, match="^sample 1: varimax objective is"):
        varimax_rotate(np.stack([m / 1e100, m]))


def test_rotate_overflowing_angle_terms_raise():
    # Equal columns: the objective is 0, but p * sum(w * w) = -4 p^2 c^4 would
    # overflow at this scale; this once raised NumericalError.
    m = np.full((4, 2), 4.7e76)
    assert _criterion(m) == 0.0
    res = varimax_rotate(m[None])
    np.testing.assert_array_equal(res.rotation, varimax_rotate(np.ldexp(m, -254)[None]).rotation)


@pytest.mark.parametrize("exponent", [-400, -300, -120, 60, 250])
def test_rotate_is_bitwise_scale_equivariant_at_powers_of_two(exponent):
    # From 2^-300 down the fourth powers once underflowed: the input came
    # back unrotated after 1 sweep with converged=True.
    m = np.random.default_rng(29).standard_normal((20, 4))
    want = varimax_rotate(m[None])
    got = varimax_rotate(np.ldexp(m, exponent)[None])
    np.testing.assert_array_equal(got.rotation[0], want.rotation[0])
    assert got.sample_iterations[0] == want.sample_iterations[0] and got.sample_converged[0]
    # The criterion stays at the input's scale, a fourth-power quantity that
    # underflows from about 2^-270 down.
    assert (got.criterion[0] == 0.0) == (exponent <= -300)


def test_stack_rotates_each_sample_at_its_own_scale():
    samples = np.random.default_rng(30).standard_normal((3, 12, 3))
    exponents = np.array([-300, 0, 200])
    res = varimax_rotate(np.ldexp(samples, exponents[:, None, None]))
    for t, sample in enumerate(samples):
        want = varimax_rotate(sample[None])
        np.testing.assert_array_equal(res.rotation[t], want.rotation[0])
        assert res.sample_iterations[t] == want.sample_iterations[0]


@pytest.mark.parametrize("scale", [1e60, 1e75])
def test_rotate_is_scale_equivariant_up_to_overflow(scale):
    # The gain once squared the angle numerator, which overflows from about
    # 1e39 on: every gain read inf, so sweeps ran on up to max_iterations.
    m = np.random.default_rng(27).standard_normal((20, 4))
    want = varimax_rotate(m[None])
    got = varimax_rotate(scale * m[None])
    assert got.sample_converged[0] and got.sample_iterations[0] == want.sample_iterations[0]
    assert np.abs(got.rotated[0] / scale - want.rotated[0]).max() <= 1e-13
    assert np.abs(got.rotation[0] - want.rotation[0]).max() <= 1e-13


def test_orthogonalize_chain_names_overflowing_sample():
    samples = np.random.default_rng(28).standard_normal((4, 8, 3))
    samples[2] *= 1e100
    with pytest.raises(NumericalError, match="^sample 2: varimax objective"):
        orthogonalize_chain(Chain(samples))


def test_kaiser_normalization_path():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((10, 3))
    m[0] = 0.0  # zero row must not blow up the normalization
    res = varimax_rotate(m[None], VarimaxConfig(normalize=True))
    rotated, rotation = res.rotated[0], res.rotation[0]
    assert np.abs(rotation.T @ rotation - np.eye(3)).max() <= 1e-10
    assert frobenius_norm(rotated - m @ rotation) <= 1e-10 * frobenius_norm(m)


def test_orthogonalize_chain_singleton():
    rng = np.random.default_rng(18)
    m = rng.standard_normal((9, 3))
    result = orthogonalize_chain(Chain(m[None]))
    np.testing.assert_array_equal(result.rotated[0], varimax_rotate(m[None]).rotated[0])


def test_orthogonalize_chain_deterministic_across_identical_samples():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((9, 3))
    result = orthogonalize_chain(Chain(np.stack([m, m, m])))
    np.testing.assert_array_equal(result.rotated[0], result.rotated[1])
    np.testing.assert_array_equal(result.rotated[0], result.rotated[2])


def test_orthogonalize_chain_returns_the_varimax_result():
    # A cap of 5 sweeps leaves some samples unconverged and stops others earlier.
    samples = np.random.default_rng(21).standard_normal((12, 20, 3))
    cfg = VarimaxConfig(max_iterations=5)
    got = orthogonalize_chain(Chain(samples), cfg)
    want = varimax_rotate(samples, cfg)
    assert 0 < np.count_nonzero(got.sample_converged) < 12
    assert len(set(got.sample_iterations.tolist())) > 1
    np.testing.assert_array_equal(got.sample_iterations, want.sample_iterations)
    np.testing.assert_array_equal(got.sample_converged, want.sample_converged)
    np.testing.assert_array_equal(got.rotated, want.rotated)
    np.testing.assert_array_equal(got.rotation, want.rotation)


def test_orthogonalize_chain_collapses_rotation_orbit():
    # Rotations of one matrix must map to a single representative, up to a
    # signed permutation resolved by the exact matcher.
    rng = np.random.default_rng(21)
    base = np.zeros((20, 3))
    for j, rows in enumerate((slice(0, 7), slice(7, 14), slice(14, 20))):
        width = len(range(*rows.indices(20)))
        base[rows, j] = rng.standard_normal(width) + np.sign(rng.standard_normal(width))
    base += 0.05 * rng.standard_normal((20, 3))

    samples = np.stack([base @ random_orthogonal(3, rng) for _ in range(12)])
    cfg = VarimaxConfig(tolerance=1e-14, max_iterations=5000)
    rotated = orthogonalize_chain(Chain(samples), cfg)
    outs = rotated.rotated
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            sp = exact_match_assignment(outs[i], outs[j])
            assert match_loss(outs[i], sp, outs[j]) <= 1e-6


def test_orthogonalize_chain_reports_failing_sample_index():
    samples = np.ones((3, 4, 2))
    chain = Chain(samples)
    bad = samples.copy()
    bad[1, 0, 0] = np.inf
    # bypass Chain validation to exercise the per-sample error path
    object.__setattr__(chain, "samples", bad)
    with pytest.raises(ValueError, match="sample 1"):
        orthogonalize_chain(chain)


def test_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((12, 5))
    res = varimax_rotate(m[None], VarimaxConfig(max_iterations=1))
    assert not res.sample_converged[0]
    assert res.sample_iterations[0] == 1
    rotation = res.rotation[0]
    assert np.abs(rotation.T @ rotation - np.eye(5)).max() <= 1e-10


def test_orthogonalize_chain_warns_on_non_convergence(caplog):
    chain = Chain(np.random.default_rng(24).standard_normal((20, 12, 4)))
    with caplog.at_level(logging.WARNING, logger="factoralign.varimax"):
        orthogonalize_chain(chain, VarimaxConfig(max_iterations=1))
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert "20 of 20 samples" in message
    assert "[0, 1, 2, 3, 4]" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factoralign.varimax"):
        orthogonalize_chain(chain)
    assert caplog.records == []


def test_config_validation():
    # A fractional cap once ran: 2.5 gave 3 sweeps.
    for max_iterations in (0, 2.5, 3.0, math.nan, "3"):
        with pytest.raises(ValueError, match="max_iterations"):
            VarimaxConfig(max_iterations=max_iterations)
    assert VarimaxConfig(max_iterations=np.int64(3)).max_iterations == 3
    # An infinite tolerance makes the gain gate infinite: nothing would rotate.
    for tolerance in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            VarimaxConfig(tolerance=tolerance)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 8).flatmap(lambda k: st.tuples(st.integers(k, 60), st.just(k))),
    log_scale=st.floats(-3.0, 3.0),
    normalize=st.booleans(),
    max_iterations=st.sampled_from([1, 3, 1000]),
)
def test_rotate_equals_pair_loop(seed, shape, log_scale, normalize, max_iterations):
    """The batched sweep takes every step the per-pair loop takes.

    Inputs are generic tall Gaussian matrices.  Exactly duplicated or negated
    columns are out of scope: there a pair's angle sits on a tie of the
    objective, and which way each implementation turns, and at which of two
    equal-gain points it stops, is decided by rounding in the last bits.
    Both stop at a lower criterion than the other on some such inputs, so
    neither result is the wrong one.
    """
    m = 10.0**log_scale * np.random.default_rng(seed).standard_normal(shape)
    cfg = VarimaxConfig(max_iterations=max_iterations, normalize=normalize)
    got = varimax_rotate(m[None], cfg)
    want = loop_varimax_rotate(m, cfg)
    assert got.sample_iterations[0] == want.iterations
    assert got.sample_converged[0] == want.converged
    scale = np.abs(m).max()
    assert np.abs(got.rotated[0] - want.rotated).max() <= 1e-12 * scale
    assert np.abs(got.rotation[0] - want.rotation).max() <= 1e-12
    assert abs(got.criterion[0] - want.criterion) <= 1e-12 * abs(want.criterion)


def test_orthogonalize_chain_calls_varimax_rotate_once_per_chain(monkeypatch):
    # The benchmark's traced run wraps this module global and reads a scalar
    # iterations and converged from every call.
    calls = []
    original = varimax_module.varimax_rotate

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(varimax_module, "varimax_rotate", counted)
    chain = Chain(np.random.default_rng(25).standard_normal((7, 10, 3)))
    orthogonalize_chain(chain, VarimaxConfig(max_iterations=2))
    assert len(calls) == 1
    result = calls[0]
    assert type(result.iterations) is int and result.iterations == 2
    assert type(result.converged) is bool
    assert result.sample_iterations.shape == result.sample_converged.shape == (7,)
    assert result.iterations == result.sample_iterations.max()
    assert result.converged == result.sample_converged.all()


def _mixed_stack(rng, t_len, shape, scale, converged_first):
    """Gaussian samples, some replaced by a varimax optimum (one sweep to converge)."""
    stack = scale * rng.standard_normal((t_len, *shape))
    for t, fast in enumerate(converged_first):
        if fast:
            stack[t] = loop_varimax_rotate(stack[t]).rotated
    return stack


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 8).flatmap(lambda k: st.tuples(st.integers(k, 60), st.just(k))),
    log_scale=st.floats(-3.0, 3.0),
    normalize=st.booleans(),
    max_iterations=st.sampled_from([1, 3, 1000]),
    converged_first=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_stack_equals_pair_loop_per_sample(
    seed, shape, log_scale, normalize, max_iterations, converged_first
):
    """A stack call takes, per sample, every step the per-pair loop takes.

    Samples that converge in one sweep sit next to slow ones, so the active
    set shrinks while the others sweep on; ``max_iterations`` of 3 leaves
    some samples unconverged and others not.  Same input space and
    tolerances as ``test_rotate_equals_pair_loop``.
    """
    rng = np.random.default_rng(seed)
    stack = _mixed_stack(rng, len(converged_first), shape, 10.0**log_scale, converged_first)
    cfg = VarimaxConfig(max_iterations=max_iterations, normalize=normalize)
    got = varimax_rotate(stack, cfg)
    wants = [loop_varimax_rotate(m, cfg) for m in stack]
    np.testing.assert_array_equal(got.sample_iterations, [w.iterations for w in wants])
    np.testing.assert_array_equal(got.sample_converged, [w.converged for w in wants])
    assert got.iterations == max(w.iterations for w in wants)
    assert got.converged == all(w.converged for w in wants)
    for t, want in enumerate(wants):
        scale = np.abs(stack[t]).max()
        assert np.abs(got.rotated[t] - want.rotated).max() <= 1e-12 * scale
        assert np.abs(got.rotation[t] - want.rotation).max() <= 1e-12
        assert abs(got.criterion[t] - want.criterion) <= 1e-12 * abs(want.criterion)


def test_stack_leaves_unconverged_samples_unconverged():
    rng = np.random.default_rng(29)
    stack = _mixed_stack(rng, 6, (15, 4), 1.0, [True, False, True, False, False, True])
    res = varimax_rotate(stack, VarimaxConfig(max_iterations=2))
    np.testing.assert_array_equal(res.sample_iterations, [1, 2, 1, 2, 2, 1])
    np.testing.assert_array_equal(res.sample_converged, [True, False, True, False, False, True])
    assert res.iterations == 2 and not res.converged


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("max_iterations", [3, 1000])
def test_stack_rows_equal_single_calls(normalize, max_iterations):
    # Bitwise: a sample's arithmetic does not depend on the rest of the stack.
    rng = np.random.default_rng(30)
    stack = _mixed_stack(rng, 50, (12, 4), 1.0, rng.random(50) < 0.3)
    cfg = VarimaxConfig(max_iterations=max_iterations, normalize=normalize)
    got = varimax_rotate(stack, cfg)
    for t, m in enumerate(stack):
        one = varimax_rotate(m[None], cfg)
        np.testing.assert_array_equal(got.rotated[t], one.rotated[0])
        np.testing.assert_array_equal(got.rotation[t], one.rotation[0])
        assert got.criterion[t] == one.criterion[0]
        assert got.sample_iterations[t] == one.sample_iterations[0]
        assert got.sample_converged[t] == one.sample_converged[0]
        assert one.sample_iterations.tolist() == [one.iterations]


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("max_iterations", [1, 3, 1000])
def test_stack_rows_equal_single_calls_to_the_sign_bit(normalize, max_iterations):
    # assert_array_equal takes -0.0 for 0.0, so the bits are compared here.
    # Samples 0 and 2 start converged and stop after one sweep while the
    # others turn, and sample 4 outlives all the others, so it sweeps beside
    # no other sample.  A row of -0.0 and a row of subnormals, whose products
    # round to -0.0 in ``rotated``, make signed zeros.  Samples 0 and 2 turn
    # by a zero angle on every pair step their neighbours turn on, and keep
    # the identity rotation bit for bit.
    converged_cfg = VarimaxConfig(normalize=normalize)
    rng = np.random.default_rng(71)
    stack = rng.standard_normal((6, 12, 4))
    stack[:, 0] = -0.0
    stack[:, 1] = 5e-324 * rng.choice([-1.0, 1.0], size=(6, 4))
    for t in (0, 2):
        stack[t] = loop_varimax_rotate(stack[t], converged_cfg).rotated
    sweeps = varimax_rotate(stack, converged_cfg).sample_iterations
    assert sweeps[0] == sweeps[2] == 1 and np.delete(sweeps, 4).max() < sweeps[4]

    cfg = VarimaxConfig(max_iterations=max_iterations, normalize=normalize)
    got = varimax_rotate(stack, cfg)
    assert np.signbit(got.rotated[got.rotated == 0.0]).any()
    for t in (0, 2):
        np.testing.assert_array_equal(got.rotation[t].view(np.int64), np.eye(4).view(np.int64))
    for t, m in enumerate(stack):
        one = varimax_rotate(m[None], cfg)
        rotation, rotated = one.rotation[0], one.rotated[0]
        np.testing.assert_array_equal(got.rotation[t].view(np.int64), rotation.view(np.int64))
        np.testing.assert_array_equal(got.rotated[t].view(np.int64), rotated.view(np.int64))
        assert got.sample_iterations[t] == one.sample_iterations[0]


def test_stack_fixed_point_is_bitwise():
    rng = np.random.default_rng(31)
    first = varimax_rotate(rng.standard_normal((40, 14, 4)))
    assert first.converged
    second = varimax_rotate(first.rotated)
    np.testing.assert_array_equal(second.rotated, first.rotated)
    np.testing.assert_array_equal(second.sample_iterations, np.ones(40))


def test_stack_k1_is_identity():
    stack = np.random.default_rng(32).standard_normal((3, 5, 1))
    res = varimax_rotate(stack)
    np.testing.assert_array_equal(res.rotated, stack)
    np.testing.assert_array_equal(res.rotation, np.ones((3, 1, 1)))
    assert res.iterations == 0 and res.converged
    assert res.criterion.shape == (3,)


def test_stack_rejects_bad_shapes():
    with pytest.raises(ValueError, match="non-empty"):
        varimax_rotate(np.zeros((0, 4, 2)))
    for shape in [(2, 3, 4, 2), (4, 2)]:
        with pytest.raises(ValueError, match=r"^loadings must have shape \(T, p, k\), got "):
            varimax_rotate(np.zeros(shape))


def test_stack_names_first_non_finite_sample():
    stack = np.ones((5, 4, 2))
    stack[3, 0, 0] = np.nan
    stack[1, 2, 1] = np.inf
    with pytest.raises(ValueError, match="^sample 1: "):
        varimax_rotate(stack)
    chain = Chain(np.ones((5, 4, 2)))
    object.__setattr__(chain, "samples", stack)  # bypass Chain validation
    with pytest.raises(ValueError, match="^sample 1: "):
        orthogonalize_chain(chain)


@pytest.mark.parametrize("normalize", [False, True])
def test_stack_names_first_overflowing_sample(normalize):
    # With normalize the working matrices stay small; the rotated objective
    # overflows at the end instead of at the start.
    stack = np.random.default_rng(33).standard_normal((6, 8, 3))
    stack[[2, 4]] *= 1e100
    with pytest.raises(NumericalError, match="^sample 2: varimax objective"):
        varimax_rotate(stack, VarimaxConfig(normalize=normalize))
    with pytest.raises(NumericalError, match="^sample 2: varimax objective"):
        orthogonalize_chain(Chain(stack), VarimaxConfig(normalize=normalize))


def test_stack_names_first_failing_sample_across_failure_kinds():
    # Sample 1's angle terms once overflowed during the first sweep and were
    # named first; rotated at its own scale it no longer fails, so the stack
    # names sample 3, whose objective overflows.
    stack = np.random.default_rng(34).standard_normal((5, 4, 2))
    stack[1] = 4.7e76
    stack[3] *= 1e100
    with pytest.raises(NumericalError, match="^sample 3: varimax objective"):
        varimax_rotate(stack)

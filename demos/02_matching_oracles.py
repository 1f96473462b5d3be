#!/usr/bin/env python3
"""The three column matchers side by side: greedy, assignment, brute force.

Each trial hides a known signed permutation of a pivot under noise.  The
greedy matcher is the production path; the assignment solver (the Hungarian
method in pure Python, O(k^3)) is the exact per-sample optimum; the
exhaustive search certifies the exact solver at small k.  At low noise all
three coincide; at absurd noise the greedy matcher can fall behind the
optimum, which is exactly the gap the oracles measure.
"""

import logging
import time

import numpy as np

from factoralign import (
    apply_signed_permutation,
    brute_force_match,
    exact_match_assignment,
    greedy_match,
    match_loss,
    random_signed_permutation,
)

# the absurd-noise trials below trip the unstable-match warning by design
logging.getLogger("factoralign.align").setLevel(logging.ERROR)

rng = np.random.default_rng(7)
p, k, trials = 12, 4, 200

for noise in (0.01, 0.5, 2.0):
    greedy_hits = 0
    timings = {"greedy": 0.0, "exact": 0.0, "brute": 0.0}
    for _ in range(trials):
        pivot = rng.standard_normal((p, k))
        hidden = random_signed_permutation(k, rng)
        sample = apply_signed_permutation(pivot, hidden) + noise * rng.standard_normal((p, k))

        t0 = time.perf_counter()
        g = greedy_match(sample, pivot)
        timings["greedy"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        e = exact_match_assignment(sample, pivot)
        timings["exact"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        b = brute_force_match(sample, pivot)
        timings["brute"] += time.perf_counter() - t0

        gl, el, bl = (match_loss(sample, sp, pivot) for sp in (g, e, b))
        assert el == bl, "assignment solver must attain the exhaustive optimum"
        greedy_hits += abs(gl - el) <= 1e-10 * max(1.0, el)

    per_trial = {name: 1e6 * total / trials for name, total in timings.items()}
    print(
        f"noise {noise:4.2f}: greedy = optimum in {greedy_hits}/{trials} trials | "
        f"exact = brute in all {trials} | "
        f"us/trial greedy {per_trial['greedy']:.0f}, exact {per_trial['exact']:.0f}, "
        f"brute {per_trial['brute']:.0f}"
    )

print(
    "\nThe greedy matcher computes all 2k^2 signed candidate distances per sample, "
    "so its cost grows quadratically in k, and it runs on a whole chain as one "
    "batched kernel over samples."
)

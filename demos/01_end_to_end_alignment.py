#!/usr/bin/env python3
"""End-to-end walkthrough: simulate, sample the posterior, align, diagnose.

A sparse factor model is simulated, a Gibbs sampler produces a loadings
chain with no identifiability constraints (so it wanders across rotations,
labels, and signs), and the alignment pipeline pins every sample to a common
orientation.  Watch the covariance metric and the sign shares before/after.
"""

import numpy as np

from factoralign import (
    GeneratorConfig,
    SamplerConfig,
    Scenario,
    align_posterior,
    covariance_discrepancy,
    generate_sparse,
    gibbs_sample,
    mean_ess_ratio,
)

# 1. Simulate: three variable blocks, each loading on its own factor.
gen = GeneratorConfig(n=500, p=30, k=3, scenario=Scenario.SPARSE, seed=11)
dataset = generate_sparse(gen)
print(f"simulated X: {dataset.X.shape}, true loadings: {dataset.true_loadings.shape}")

# 2. Fit. The tight loading prior keeps weakly identified rows in check
#    (the generator's inverse-gamma(1/2, 1/2) residual variances are heavy
#    tailed, so some variables carry almost no signal).
sampler = SamplerConfig(iterations=4000, burn_in=500, seed=12, prior_loading_variance=0.02)
raw = gibbs_sample(dataset.X, sampler, k=gen.k)
print(f"kept {raw.n_samples} posterior samples of a {raw.n_variables} x {raw.n_factors} matrix")

# The raw chain is useless for entrywise summaries: strong entries spend
# serious time on both signs.
share_positive = (raw.samples > 0).mean(axis=0)
switching = (share_positive >= 0.10) & (share_positive <= 0.90)
print(f"raw chain: {switching.sum()} of {switching.size} entries show both signs >= 10%")

# 3. Align: varimax each sample, pick the median-condition-number pivot,
#    then greedily match columns with signs. The body is the align report's.
aligned, body, _ = align_posterior(raw)
alignment = body["alignment"]
print(
    f"pivot: sample {alignment['pivot_index']} by {alignment['pivot_statistic']}, "
    f"mean per-sample loss {np.mean(alignment['losses']):.3f}"
)

# 4. Diagnose: the covariance metric compares mean(L L^T), which alignment
#    cannot change, against the same quantity rebuilt from the mean of the
#    aligned samples.
metric_raw = covariance_discrepancy(raw, raw)
metric_aligned = covariance_discrepancy(raw, aligned)
print(f"covariance metric: raw {metric_raw:.3f} -> aligned {metric_aligned:.3f}")

print(f"ESS/T: raw {mean_ess_ratio(raw):.3f} -> aligned {mean_ess_ratio(aligned):.3f}")

share_stable = (aligned.samples > 0).mean(axis=0)
stable = (share_stable >= 0.99) | (share_stable <= 0.01)
print(
    f"aligned chain: {np.sum(switching & stable)} formerly switching entries "
    "are now sign-stable in >= 99% of samples"
)

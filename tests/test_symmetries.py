"""Symmetries of the model as property tests.

Negating every treatment label negates the modified covariates Z = T X / 2,
and every step of the block descent is odd in Z, so the fitted Gamma is
negated exactly. Rotating the outcomes by an orthogonal Q rotates the
solution, Gamma -> Gamma Q; the iterates then differ by rounding only, and
only while the V step has one solution: when the penalty leaves W with
fewer independent rows than the rank, the Procrustes problem has many
equally good V and the two fits may pick different ones, so those examples
are set aside. Permuting the subjects leaves Gamma as it is and permutes
the rows of C; doubling the weights and quadrupling both penalties leaves
the fit as it is. Both hold to stated tolerances (the Gram sums change
order; the initializer's ridge does not scale), under a tight
configuration and with the same full-rank examples. Each property is
checked through ``fit`` (the one-problem row sweep) and through
``fit_batch`` of three configurations (the stacked sweep).
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multicate import FitConfig, fit, fit_batch, validate_dataset

from conftest import make_dataset

ROTATION_RTOL = 1e-10
# measured at most 1.5e-14 (permutation) and 7.6e-9 (scaling) over 88
# full-rank random examples drawn as in _problems, under TIGHT
PERMUTATION_RTOL = 1e-10
SCALING_RTOL = 1e-6
TIGHT = dict(outer_tol=1e-9, inner_tol=1e-10, max_outer=2000, max_inner=500)


@st.composite
def _problems(draw, lambdas=(0.0, 1.0, 10.0, 50.0)):
    n = draw(st.integers(20, 60))
    p = draw(st.integers(1, 5))
    q = draw(st.integers(2, 5))
    rank = draw(st.integers(1, min(p + 1, q)))
    seed = draw(st.integers(0, 2**32 - 1))
    penalties = st.tuples(st.sampled_from(lambdas),
                          st.sampled_from([0.0, 1.0, 20.0]))
    cfgs = [FitConfig(rank=rank, lambda_w=lam, phi_c=phi)
            for lam, phi in draw(st.lists(penalties, min_size=3, max_size=3))]
    d, _ = make_dataset(n, p, q, seed=seed)
    Y = np.array(d.Y)
    Y[:3] += 10.0  # a few contaminated rows, so that the offsets C take part
    rng = np.random.default_rng(seed)
    return validate_dataset(d.X, Y, d.T), rng.uniform(0.5, 2.0, n), cfgs, rng


def _fits(d, a, cfgs):
    return [fit(d, a, cfgs[0])] + fit_batch(d, a, cfgs)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_problems())
def test_negated_treatment_negates_gamma_exactly(problem):
    d, a, cfgs, _ = problem
    flipped = validate_dataset(d.X, d.Y, -d.T)
    for model, mirror in zip(_fits(d, a, cfgs), _fits(flipped, a, cfgs)):
        assert np.array_equal(mirror.gamma, -model.gamma)
        assert mirror.trace.w_sweeps == model.trace.w_sweeps


# penalties that mostly keep every row of W, so that few examples are set aside
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_problems(lambdas=(0.0, 0.5, 2.0)))
def test_rotated_outcomes_rotate_gamma(problem):
    d, a, cfgs, rng = problem
    Q = np.linalg.qr(rng.standard_normal((d.q, d.q)))[0]
    models = _fits(d, a, cfgs)
    assume(all(np.linalg.matrix_rank(m.W) == cfgs[0].rank for m in models))
    rotated = _fits(validate_dataset(d.X, d.Y @ Q, d.T), a, cfgs)
    for model, turned in zip(models, rotated):
        expected = model.gamma @ Q
        scale = max(np.linalg.norm(expected), 1.0)
        assert np.linalg.norm(turned.gamma - expected) <= ROTATION_RTOL * scale


def _close(got, expected, rtol):
    return np.linalg.norm(got - expected) <= rtol * max(np.linalg.norm(expected), 1.0)


def _tight_full_rank_fits(problem):
    d, a, cfgs, rng = problem
    cfgs = [replace(c, **TIGHT) for c in cfgs]
    models = _fits(d, a, cfgs)
    assume(all(np.linalg.matrix_rank(m.W) == cfgs[0].rank for m in models))
    return d, a, cfgs, rng, models


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_problems(lambdas=(0.0, 0.5, 2.0)))
def test_permuted_subjects_keep_gamma_and_permute_offsets(problem):
    # the Gram matrix and the targets sum the subjects in another order, so
    # the fits agree up to rounding, not bit for bit
    d, a, cfgs, rng, models = _tight_full_rank_fits(problem)
    perm = rng.permutation(d.n)
    permuted = _fits(validate_dataset(d.X[perm], d.Y[perm], d.T[perm]), a[perm], cfgs)
    for model, moved in zip(models, permuted):
        assert _close(moved.gamma, model.gamma, PERMUTATION_RTOL)
        assert _close(moved.C, model.C[perm], PERMUTATION_RTOL)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_problems(lambdas=(0.0, 0.5, 2.0)))
def test_scaled_weights_with_scaled_penalties_keep_the_fit(problem):
    # a -> 2a multiplies the objective by 4, and so do lambda_w and phi_c
    # times 4. Every step then scales exactly by powers of two, except the
    # 1e-8 ridge of the initializer's least-squares solve, which does not
    # scale with the weights: the initial W moves by up to about 1e-8,
    # and with lambda_w = phi_c = 0 the fit stays at its initializer (C
    # absorbs every residual), so the fits agree to the tolerance, not bit
    # for bit
    d, a, cfgs, _, models = _tight_full_rank_fits(problem)
    scaled = [replace(c, lambda_w=4.0 * c.lambda_w, phi_c=4.0 * c.phi_c) for c in cfgs]
    for model, twin in zip(models, _fits(d, 2.0 * a, scaled)):
        assert _close(twin.gamma, model.gamma, SCALING_RTOL)
        assert _close(twin.C, model.C, SCALING_RTOL)

"""The exact Gaussian core's closed-form norm and its misfit on the
target's support, against a 50-digit sum of the output (_mp_reference),
and the search score's independence of the cutoff a finite target is
built at."""

import numpy as np
import pytest
from _mp_reference import core_log_norm_sq, support_misfit

from heraldkit import scheme
from heraldkit.optimizer import Bounds, GAConfig, optimize
from heraldkit.reference_rows import all_rows
from heraldkit.scheme import params_to_vector
from heraldkit.states import AdHoc, Binomial, NegativeBinomial, target_state

# Pinned flat points: corners of the default box (r = 1.7, |alpha| = 4),
# a coherent arm, the point whose output has a squared norm of e^583 beside
# a scale of e^-861, and two interior points.
DRAWS = [
    [1.7, 0.3, 4.0, 1.1, 1.7, 2.5, 4.0, 5.0, 0.5],
    [1.7, 4.0, 4.0, 0.2, 0.0, 0.0, 4.0, 3.0, 0.9],
    [1.7, 0.3, 4.0, 1.1, 1.7, 2.5, 4.0, 5.0, 0.5, 4.0, 0.7],
    [1.7, 5.9, 0.0, 0.0, 1.7, 3.1, 4.0, 2.2, 0.1, 0.0, 3.0],
    [1.306, 3.966, 3.238, 5.876, 1.557, 1.413, 2.692, 3.725, 0.223, 3.469, 2.249],
    [0.4, 1.0, 1.2, 0.5, 0.3, 2.0, 0.7, 1.5, 0.6],
    [0.45, 0.74, 0.34, 1.01, 0.45, 0.28, 1.97, 0.06, 0.9, 0.61, 0.04],
]

# The closed form's log against the 50-digit sum, relative to max(1, |log|):
# worst seen on these draws 3.9e-16.
LOG_NORM_RTOL = 1e-15
# The misfit on the support against 50 digits, on the 40 bundled rows and
# the edge targets.  The closed form's log rounds to a few ulps of itself,
# and the misfit inherits that: worst seen 4.3e-15, on row 07, whose log
# norm is 7.4.
SUPPORT_ATOL = 1e-14

_BINOMIAL = Binomial(0.3, 7)


def _as_batch(a, b, linear):
    """One point's (a, b, linear) as a batch of one."""
    return np.array([a]), np.array([b]), linear and tuple(np.array([v]) for v in linear)


@pytest.mark.parametrize("point", DRAWS, ids=range(len(DRAWS)))
def test_closed_form_log_norm_matches_a_50_digit_sum(point):
    # both evaluations of the formula, on the same (a, b)
    a, b, _, linear = scheme._gaussian_core(point, scheme._SCALAR_MATH)
    want = core_log_norm_sq(a, b, linear)
    scale = max(1.0, abs(want))
    assert abs(scheme._core_log_norm_sq(a, b, linear, scheme._SCALAR_MATH) - want) \
        <= LOG_NORM_RTOL * scale
    a, b, linear = _as_batch(a, b, linear)
    assert abs(scheme._core_log_norm_sq(a, b, linear)[0] - want) <= LOG_NORM_RTOL * scale


def _check_support_misfit(point, tgt):
    # each route against 50 digits on its own core: numpy's and Python's
    # math differ in the last bits of (a, b)
    a, b, _, linear = scheme._gaussian_core(point, scheme._SCALAR_MATH)
    assert abs(scheme._core_misfit(tgt)(scheme._bargmann_point(point))[0]
               - support_misfit(a, b, linear, tgt.amps)) <= SUPPORT_ATOL
    a, b, _, linear = scheme._gaussian_core(np.array(point)[:, None])
    want = support_misfit(complex(a[0]), complex(b[0]),
                          None if linear is None else tuple(complex(v[0]) for v in linear),
                          tgt.amps)
    assert abs(scheme._core_misfit_batch(tgt)(np.array([point]))[0][0] - want) <= SUPPORT_ATOL


def test_support_misfit_matches_a_50_digit_sum_on_bundled_rows():
    for row in all_rows():
        _check_support_misfit(params_to_vector(row.params)[0].tolist(),
                              target_state(row.target, 40, check_tail=False))


@pytest.mark.parametrize("spec,support", [(AdHoc((1.0,)), 0), (NegativeBinomial(0.5, 5), 30)],
                         ids=["vacuum", "negative-binomial"])
def test_support_misfit_at_the_support_edges(spec, support):
    # K = 0 reads d_0 alone; a negative binomial target is nonzero up to
    # its cutoff, so the recurrence runs to K = cutoff
    tgt = target_state(spec, 30, check_tail=False)
    assert len(scheme._support(tgt)) == support + 1
    for point in (DRAWS[5], DRAWS[6], params_to_vector(all_rows()[1].params)[0].tolist()):
        _check_support_misfit(point, tgt)


def test_binomial_score_is_the_same_at_every_search_cutoff():
    # a finite target is scored on its support, so the cutoff it is built
    # at changes no bit of the GA's score, of the polish's objective or of
    # a whole search
    rng = np.random.default_rng(29)
    for kind in ("spd", "hm"):
        box = Bounds.for_kind(kind)
        lo, hi = np.array(box.lower), np.array(box.upper)
        rows = lo + rng.uniform(size=(200, lo.size)) * (hi - lo)
        scores = [scheme._core_misfit_batch(target_state(_BINOMIAL, c))(rows)
                  for c in (30, 60, 200)]
        for eps, weights in scores[1:]:
            assert np.array_equal(eps, scores[0][0]) and np.array_equal(weights, scores[0][1])
        points = [scheme._core_misfit(target_state(_BINOMIAL, c)) for c in (30, 60, 200)]
        for row in map(scheme._bargmann_point, rows[:20]):
            assert points[0](row) == points[1](row) == points[2](row)
    cfg = GAConfig(population_size=10, generations=6, restarts=2, seed=3)
    runs = [optimize(_BINOMIAL, Bounds.for_kind("hm"), cfg, search_cutoff=c, final_cutoff=30)
            for c in (30, 60, 200)]
    assert runs[0] == runs[1] == runs[2]

"""Seeded GA search, the search box and its pins, and the polish: the
exact gradient of the core misfit against central differences, and the
projected quasi-Newton descent on it."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heraldkit import optimizer, scheme
from heraldkit.errors import NormalizationError
from heraldkit.fock import FockVector
from heraldkit.optimizer import (
    Bounds,
    GAConfig,
    local_polish,
    optimize,
    params_to_vector,
    vector_to_params,
)
from heraldkit.optimizer import _reflect_into, layout_for_kind
from heraldkit.scheme import (
    HM,
    SPD,
    SchemeParams,
    conditional_output,
    misfit,
    score,
)
from heraldkit.reference_rows import all_rows, get_row
from heraldkit.states import (
    Binomial,
    NegativeBinomial,
    SqueezedCoherentParams,
    TargetSpec,
    target_state,
)

ROW_BINOM_SPD = SchemeParams(
    SqueezedCoherentParams(0.74, 3.50, 0.10, 2.14),
    SqueezedCoherentParams(0.16, 4.43, 1.97, 0.08),
    0.69,
    SPD(),
)
ROW_BINOM_HM = SchemeParams(
    SqueezedCoherentParams(0.45, 0.74, 0.34, 1.01),
    SqueezedCoherentParams(0.45, 0.28, 1.97, 0.06),
    0.90,
    HM(0.61, 0.04, 0.30),
)

SPD_BOX = Bounds.for_kind("spd")
HM_BOX = Bounds.for_kind("hm")

TINY = GAConfig(population_size=14, generations=10, restarts=2, seed=7)


def objective(params: SchemeParams, target: TargetSpec | FockVector, cutoff: int) -> float:
    """The scalar misfit that the polish starts from and the final scoring
    reports, against a target vector or a family spec built as the search
    builds it."""
    if not isinstance(target, FockVector):
        target = target_state(target, cutoff, check_tail=False)
    return misfit(conditional_output(params, cutoff, check_input_tail=False), target)


def batch_objective(V: np.ndarray, target: TargetSpec | FockVector, cutoff: int) -> np.ndarray:
    """The misfit of every row of V as the GA scores a generation: the exact
    Gaussian core batch against the target the search builds."""
    return scheme._core_misfit_batch(optimizer._target_vector(target, cutoff))(V)[0]


# --------------------------------------------------------------- plumbing


def test_layouts():
    assert layout_for_kind("spd") == (
        "r1", "theta1", "alpha1", "phi1", "r2", "theta2", "alpha2", "phi2", "T",
    )
    assert layout_for_kind("hm") == layout_for_kind("spd") + ("x", "lam")
    with pytest.raises(ValueError):
        layout_for_kind("adaptive")


def test_default_bounds():
    b = Bounds.for_kind("hm")
    by_name = dict(zip(b.names, zip(b.lower, b.upper, b.periodic)))
    two_pi = 2 * np.pi
    assert by_name["r1"] == (0.0, 1.7, False)
    assert by_name["alpha2"] == (0.0, 4.0, False)
    assert by_name["T"] == (0.1, 0.9, False)
    assert by_name["x"] == (0.0, 4.0, False)
    for angle in ("theta1", "phi1", "theta2", "phi2", "lam"):
        lo, hi, per = by_name[angle]
        assert (lo, per) == (0.0, True)
        assert hi == pytest.approx(two_pi)


def test_bounds_validation_and_containment():
    b = Bounds.for_kind("spd")
    # equal limits pin a dimension; reversed ones are refused
    assert Bounds((1.0,) + b.lower[1:], (1.0,) + b.upper[1:]) == b.pin("r1", 1.0)
    with pytest.raises(ValueError, match=re.escape("r1: empty range [1.0, 0.5]")):
        Bounds((1.0,) + b.lower[1:], (0.5,) + b.upper[1:])
    vec, _, _ = params_to_vector(ROW_BINOM_SPD)
    assert np.all((vec >= b.lower) & (vec <= b.upper))
    vec_out = vec.copy()
    vec_out[0] = 2.0
    assert not np.all((vec_out >= b.lower) & (vec_out <= b.upper))
    # |alpha| has no cap above, and r none below optimizer._R_MAX
    assert Bounds(b.lower, (5.0,) + b.upper[1:]).upper[0] == 5.0


@pytest.mark.parametrize("name,limits,message", [
    ("T", (0.05, 0.95), "T: [0.05, 0.95] outside [0.1, 0.9]"),
    ("x", (0.0, 6.0), "x: [0.0, 6.0] outside [0, 4]"),
    ("alpha1", (-1.0, 2.0), "alpha1: lower limit -1.0 below 0"),
    ("r2", (-0.1, 1.0), "r2: lower limit -0.1 below 0"),
    ("r1", (0.0, math.inf), "r1: limits [0.0, inf] not finite"),
    ("theta1", (0.0, math.inf), "theta1: limits [0.0, inf] not finite"),
    ("theta1", (0.0, 1.0), "theta1: angle bounds are fixed at [0, 2*pi)"),
])
def test_bounds_outside_the_parameter_ranges_refused(name, limits, message):
    # a box the scheme cannot evaluate everywhere would fail mid-search, or
    # pass by luck of the draws; the polish treats every angle as unbounded,
    # so narrowed angle limits would bind the search and not the polish
    b = Bounds.for_kind("hm")
    lower, upper = list(b.lower), list(b.upper)
    i = b.names.index(name)
    lower[i], upper[i] = limits
    with pytest.raises(ValueError, match=re.escape(message)):
        Bounds(tuple(lower), tuple(upper))


def test_r_limits_stop_where_tanh_rounds_to_one():
    # the polish moves s = e^{i theta} tanh r, which has no point where
    # tanh r rounds to 1, so the box refuses such an r before any evaluation
    cap = optimizer._R_MAX
    assert math.tanh(cap) < 1.0 == math.tanh(math.nextafter(cap, math.inf))
    assert 19.06 < cap < 19.07
    b = Bounds.for_kind("spd")
    with pytest.raises(ValueError, match=r"^r1: upper limit 20\.0 above 19\.06"):
        Bounds(b.lower, (20.0,) + b.upper[1:])
    with pytest.raises(ValueError, match="^r2: upper limit"):
        Bounds(b.lower, b.upper[:4] + (math.nextafter(cap, math.inf),) + b.upper[5:])
    # a polish that starts at the cap, inside a box that reaches it, runs
    # to the SPD optimum of B(0.3, 7) (1.60423e-5) and stays in the box
    box = Bounds(b.lower, (cap,) + b.upper[1:])
    start = SchemeParams(SqueezedCoherentParams(cap, 0.3, 1.0, 0.5),
                         SqueezedCoherentParams(0.5, 2.0, 1.2, 0.4), 0.5, SPD())
    res = local_polish(start, Binomial(0.3, 7), 30, 400, box)
    assert res.trace[0] > 0.8 and res.best_misfit == res.trace[1]
    assert res.best_misfit == pytest.approx(1.60423e-5, rel=1e-5)
    assert 0.0 <= res.best_params.in1.r <= cap


def test_bounds_pin():
    pinned = SPD_BOX.pin("r1", 0.5).pin("T", 0.3).pin("theta2", 4.43)
    lower, upper = list(SPD_BOX.lower), list(SPD_BOX.upper)
    for i, value in ((0, 0.5), (5, 4.43), (8, 0.3)):
        lower[i] = upper[i] = value
    assert (pinned.lower, pinned.upper) == (tuple(lower), tuple(upper))
    with pytest.raises(ValueError, match="unknown dimension 'x'"):
        SPD_BOX.pin("x", 1.0)  # an HM-only dimension


def test_ga_config_validation_paths():
    # the library names the field; the config path is the CLI's to add
    with pytest.raises(ValueError, match="^population_size=0 "):
        GAConfig(population_size=0)
    with pytest.raises(ValueError, match="^generations=0 "):
        GAConfig(generations=0)
    with pytest.raises(ValueError, match="^restarts=0 "):
        GAConfig(restarts=0)
    with pytest.raises(ValueError, match="^population_size=2 must be at least 3$"):
        GAConfig(population_size=2)
    GAConfig(population_size=3)


def test_ga_operators_are_not_settable():
    # the operators are fixed; a GAConfig sets only the size and the seed
    assert [f.name for f in dataclasses.fields(GAConfig)] == [
        "population_size", "generations", "restarts", "seed",
    ]
    for field in ("tournament_size", "crossover_rate", "mutation_sigma_fraction",
                  "elitism_count"):
        with pytest.raises(TypeError):
            GAConfig(**{field: 3})


def test_vector_params_round_trip():
    for p in (ROW_BINOM_SPD, ROW_BINOM_HM):
        vec, _, window = params_to_vector(p)
        back = vector_to_params(vec, window)
        assert back == p
    # angles wrap on assembly
    vec, _, _ = params_to_vector(ROW_BINOM_SPD)
    vec[1] += 2 * np.pi
    assert vector_to_params(vec).in1.theta == pytest.approx(
        ROW_BINOM_SPD.in1.theta
    )


_ANGLE = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
_ARM = st.builds(SqueezedCoherentParams, st.floats(0.0, 1.7), _ANGLE, st.floats(0.0, 4.0), _ANGLE)


@settings(max_examples=200, deadline=None)
@given(in1=_ARM, in2=_ARM, t=st.floats(0.1, 0.9), window=st.floats(0.0, 1.0),
       reading=st.one_of(st.none(), st.tuples(st.floats(0.0, 4.0), _ANGLE)))
def test_vector_round_trip_reads_kind_from_length(in1, in2, t, window, reading):
    meas = SPD() if reading is None else HM(*reading, window)
    p = SchemeParams(in1, in2, t, meas)
    assert vector_to_params(params_to_vector(p)[0], window) == p


def test_flat_point_of_another_width_is_refused():
    vec = np.append(params_to_vector(ROW_BINOM_SPD)[0], 0.5)
    with pytest.raises(ValueError, match="not 10"):
        vector_to_params(vec)
    with pytest.raises(ValueError, match="not 10"):
        batch_objective(vec[None], Binomial(0.3, 7), 20)
    # a box's width names its dimensions, and the polish's box is the point's
    with pytest.raises(ValueError, match="not 10"):
        Bounds((0.0,) * 10, (1.0,) * 10)
    with pytest.raises(ValueError, match="a box of width 9 for a hm point"):
        local_polish(ROW_BINOM_HM, Binomial(0.45, 8), cutoff=20, bounds=SPD_BOX)


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("window", [-0.5, math.nan, math.inf])
def test_optimize_checks_window_before_search(window, monkeypatch):
    monkeypatch.setattr(optimizer, "_run_restart", _no_search)
    with pytest.raises(ValueError, match="window_halfwidth"):
        optimize(Binomial(0.3, 7), HM_BOX, window_halfwidth=window)


def test_optimize_refuses_spd_window_before_search(monkeypatch):
    # a single-photon herald has no acceptance window to use it on
    monkeypatch.setattr(optimizer, "_run_restart", _no_search)
    with pytest.raises(ValueError, match="window_halfwidth=0.3 applies to hm only"):
        optimize(Binomial(0.3, 7), SPD_BOX, window_halfwidth=0.3)


def test_reflect_into_folds_into_box():
    lo = np.array([0.0, 0.1])
    hi = np.array([1.7, 0.9])
    rng = np.random.default_rng(5)
    v = rng.uniform(-6, 6, size=(200, 2))
    folded = _reflect_into(v, lo, hi)
    assert np.all(folded >= lo) and np.all(folded <= hi)
    # interior points are fixed, near-wall overshoot reflects back inside
    inside = np.array([[0.5, 0.5]])
    np.testing.assert_allclose(_reflect_into(inside, lo, hi), inside)
    over = np.array([[1.7 + 0.03, 0.9 + 0.01]])
    np.testing.assert_allclose(_reflect_into(over, lo, hi), [[1.7 - 0.03, 0.9 - 0.01]])


# -------------------------------------------------------------- objective


def test_objective_self_target_is_zero():
    out = conditional_output(ROW_BINOM_SPD, 30, check_input_tail=False)
    assert objective(ROW_BINOM_SPD, out.state, 30) <= 1e-12


def test_objective_reproduces_tabulated_row():
    assert objective(ROW_BINOM_SPD, Binomial(0.3, 7), 40) == pytest.approx(
        1.26e-4, abs=2e-5
    )


@pytest.mark.parametrize("params,spec", [(ROW_BINOM_SPD, Binomial(0.3, 7)),
                                         (ROW_BINOM_HM, Binomial(0.45, 8))],
                         ids=["spd", "hm"])
def test_objective_is_the_polish_start(params, spec):
    # the polish reports its start on the truncated route
    polished = local_polish(params, spec, cutoff=30, max_iters=5)
    assert polished.trace[0] == objective(params, spec, 30)


def test_objective_rejects_cutoff_mismatch():
    tgt = target_state(Binomial(0.3, 7), 25)
    with pytest.raises(ValueError, match="does not match evaluation cutoff 30"):
        batch_objective(params_to_vector(ROW_BINOM_SPD)[0][None], tgt, 30)


# ----------------------------------------------------------------- search


def test_objective_batch_matches_objective():
    # the batch keeps the inputs whole and objective truncates them, so they
    # agree where the input tails vanish: r <= 0.3, |alpha| <= 1.5, cutoff 60
    rng = np.random.default_rng(11)
    for kind in ("spd", "hm"):
        b = Bounds.for_kind(kind)
        lo, hi = np.array(b.lower), np.array(b.upper)
        hi[[0, 4]] = 0.3
        hi[[2, 6]] = 1.5
        vecs = lo + rng.uniform(size=(7, len(b.names))) * (hi - lo)
        vecs[1, 0] = 0.0  # coherent input 1
        got = batch_objective(vecs, Binomial(0.3, 7), 60)
        want = [objective(vector_to_params(v), Binomial(0.3, 7), 60) for v in vecs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_objective_batch_raises_on_impossible_outcome():
    vecs = np.tile(params_to_vector(ROW_BINOM_SPD)[0], (3, 1))
    vecs[2, [0, 2, 4, 6]] = 0.0  # vacuum inputs never click
    with pytest.raises(NormalizationError):
        objective(vector_to_params(vecs[2]), Binomial(0.3, 7), 20)
    with pytest.raises(NormalizationError):
        batch_objective(vecs, Binomial(0.3, 7), 20)
    with pytest.raises(NormalizationError):
        local_polish(vector_to_params(vecs[2]), Binomial(0.3, 7), cutoff=20, max_iters=5)


# criterion-1 box: r up to 1.7 and |alpha| up to 4, where the input tails
# above the cutoff do not vanish
_BOX_ARMS = st.tuples(st.floats(0.05, 1.7), st.floats(0.0, 2.0 * math.pi),
                      st.floats(0.0, 4.0), st.floats(0.0, 2.0 * math.pi))

# The scalar core against the batch: both read scheme._gaussian_core, on
# Python complex numbers and on numpy arrays, and differ only in rounding,
# most of it in the sums over 21-61 amplitudes.  Worst seen on 60 000 box
# draws at cutoffs 20-60 and two targets: 1.9e-15.
CORE_SCALAR_ATOL = 4e-15


@settings(max_examples=150, deadline=None)
@given(in1=_BOX_ARMS, in2=_BOX_ARMS, t=st.floats(0.1, 0.9),
       reading=st.one_of(st.just(()), st.tuples(st.floats(0.0, 4.0),
                                                 st.floats(0.0, 2.0 * math.pi))),
       cutoff=st.integers(20, 60))
def test_scalar_core_misfit_matches_batch(in1, in2, t, reading, cutoff):
    vec = [*in1, *in2, t, *reading]
    tgt = target_state(NegativeBinomial(0.5, 5), cutoff, check_tail=False)
    want = batch_objective(np.array([vec]), tgt, cutoff)[0]
    assert abs(scheme._core_misfit(tgt)(scheme._bargmann_point(vec))[0] - want) \
        <= CORE_SCALAR_ATOL


def test_scalar_core_misfit_matches_batch_on_bundled_rows():
    for row in all_rows():
        tgt = target_state(row.target, 40, check_tail=False)
        vec = params_to_vector(row.params)[0]
        want = batch_objective(vec[None], tgt, 40)[0]
        assert abs(scheme._core_misfit(tgt)(scheme._bargmann_point(vec))[0] - want) \
            <= CORE_SCALAR_ATOL


def test_scalar_core_misfit_fails_where_the_batch_fails():
    tgt = target_state(Binomial(0.3, 7), 20)
    vacuum = params_to_vector(ROW_BINOM_SPD)[0]
    vacuum[[0, 2, 4, 6]] = 0.0  # vacuum inputs never click: a zero output
    squeezed = params_to_vector(ROW_BINOM_SPD)[0]
    squeezed[0] = 800.0  # cosh r overflows
    for vec in (vacuum, squeezed):
        with pytest.raises(NormalizationError):
            batch_objective(vec[None], tgt, 20)
        with pytest.raises(NormalizationError):
            scheme._core_misfit(tgt)(scheme._bargmann_point(vec))


def test_optimize_with_coherent_input_reports_objective():
    # r1 pinned to 0: the coherent input 1 goes through the batched closed
    # form like any other row
    cfg = GAConfig(population_size=6, generations=3, restarts=1, seed=2)
    res = optimize(
        Binomial(0.5, 1), SPD_BOX.pin("r1", 0.0), cfg,
        search_cutoff=12, final_cutoff=12,
    )
    assert res.best_params.in1.r == 0.0
    assert np.isfinite(res.best_misfit)
    assert res.best_misfit == objective(res.best_params, Binomial(0.5, 1), 12)


def test_optimize_deterministic():
    a = optimize(Binomial(0.5, 2), SPD_BOX, TINY, search_cutoff=12, final_cutoff=12)
    b = optimize(Binomial(0.5, 2), SPD_BOX, TINY, search_cutoff=12, final_cutoff=12)
    assert a.best_params == b.best_params
    assert a.best_misfit == b.best_misfit
    assert a.trace == b.trace
    assert a.evaluations_count == b.evaluations_count
    assert a.seed == TINY.seed


def test_optimize_result_shape():
    res = optimize(Binomial(0.5, 2), SPD_BOX, TINY, search_cutoff=12, final_cutoff=12)
    # best-so-far trace never rises, across restart boundaries included
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
    assert len(res.trace) == TINY.restarts * TINY.generations
    # each generation keeps the GA's 2 elites and scores the other points
    per_restart = TINY.population_size + TINY.generations * (TINY.population_size - 2)
    assert res.evaluations_count == TINY.restarts * per_restart
    vec, _, _ = params_to_vector(res.best_params)
    b = Bounds.for_kind("spd")
    assert np.all((vec >= b.lower) & (vec <= b.upper))
    assert res.eps_avg is None  # no acceptance window in play
    assert res.best_misfit == objective(res.best_params, Binomial(0.5, 2), 12)


def test_optimize_hm_kind_carries_window():
    res = optimize(
        Binomial(0.5, 2),
        HM_BOX,
        GAConfig(population_size=10, generations=6, restarts=1, seed=3),
        window_halfwidth=0.25,
        search_cutoff=12,
        final_cutoff=12,
    )
    assert isinstance(res.best_params.measurement, HM)
    assert res.best_params.measurement.window_halfwidth == 0.25
    assert res.eps_avg is not None and 0.0 <= res.eps_avg <= 1.0
    assert 0.0 <= res.success_prob <= 1.0


@pytest.mark.parametrize("polish_iters", [0, 30])
def test_optimize_reports_the_score_of_its_point(polish_iters):
    # optimize scores its final point once, polished or not, and reports
    # exactly the figures score gives for it
    res = optimize(
        Binomial(0.45, 8), HM_BOX, GAConfig(population_size=10, generations=4, restarts=1, seed=5),
        window_halfwidth=0.25, polish_iters=polish_iters, search_cutoff=20, final_cutoff=30,
    )
    _, eps, prob, eps_avg = score(
        res.best_params, target_state(Binomial(0.45, 8), 30, check_tail=False), 30,
        check_input_tail=False,
    )
    assert (res.best_misfit, res.success_prob, res.eps_avg) == (eps, prob, eps_avg)
    assert eps_avg is not None


def test_optimize_respects_pins():
    box = SPD_BOX.pin("T", 0.69).pin("r1", 0.74)
    res = optimize(Binomial(0.3, 7), box, TINY, search_cutoff=12, final_cutoff=12)
    assert res.best_params.transmittance == 0.69
    assert res.best_params.in1.r == 0.74


def test_optimize_fully_pinned_is_flat():
    # every hard dimension has a zero span, which the GA must not reflect in
    vec = tuple(params_to_vector(ROW_BINOM_SPD)[0].tolist())
    res = optimize(
        Binomial(0.3, 7), Bounds(vec, vec), TINY, search_cutoff=30, final_cutoff=30
    )
    assert len(set(res.trace)) == 1
    assert res.best_misfit == objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)
    assert res.best_params == ROW_BINOM_SPD


def test_optimize_pin_outside_bounds_rejected():
    # the box refuses the pin, so no search can start from it
    with pytest.raises(ValueError, match=re.escape("[0.95, 0.95] outside [0.1, 0.9]")):
        SPD_BOX.pin("T", 0.95)
    # a pin replaces the limits it is given, so a narrowed box's limits do
    # not bind it, as they do not bind a [v, v] pair
    narrowed = Bounds(SPD_BOX.lower[:8] + (0.3,), SPD_BOX.upper[:8] + (0.7,))
    assert narrowed.pin("T", 0.2) == SPD_BOX.pin("T", 0.2)


_DIMENSIONS = [(kind, name) for kind in ("spd", "hm") for name in layout_for_kind(kind)]


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from(_DIMENSIONS),
       value=st.one_of(st.floats(-8.0, 26.0), st.floats(allow_nan=True)))
@example(dim=("spd", "r1"), value=optimizer._R_MAX)
@example(dim=("spd", "r2"), value=math.nextafter(optimizer._R_MAX, math.inf))
@example(dim=("hm", "x"), value=4.0)
@example(dim=("hm", "lam"), value=-1e300)
@example(dim=("spd", "T"), value=math.inf)
def test_pin_is_the_pair_of_equal_limits(dim, value):
    # one limit check: a pin is the box with [v, v] at that dimension, or
    # both refuse it with the same _limits_fault text
    kind, name = dim
    box = Bounds.for_kind(kind)
    lower, upper = list(box.lower), list(box.upper)
    lower[box.names.index(name)] = upper[box.names.index(name)] = value
    try:
        paired = Bounds(tuple(lower), tuple(upper))
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            box.pin(name, value)
        assert f"{name}: {refused.value}" == str(exc)
    else:
        assert box.pin(name, value) == paired


def test_optimize_then_polish_finds_easy_target():
    def search(polish_iters):
        return optimize(
            Binomial(0.5, 1), SPD_BOX,
            GAConfig(population_size=60, generations=60, restarts=2, seed=2),
            polish_iters=polish_iters, search_cutoff=15, final_cutoff=15,
        )

    assert search(0).best_misfit < 0.1
    assert search(600).best_misfit < 1e-2


# ----------------------------------------------------------------- polish


def test_polish_never_increases():
    res = optimize(Binomial(0.5, 2), SPD_BOX, TINY, search_cutoff=12, final_cutoff=12)
    polished = optimize(
        Binomial(0.5, 2), SPD_BOX, TINY, polish_iters=120, search_cutoff=12, final_cutoff=12
    )
    assert polished.best_misfit <= res.best_misfit
    # the search trace is carried through untouched
    assert polished.trace == res.trace
    assert polished.evaluations_count > res.evaluations_count


def test_polish_from_raw_params_records_descent():
    first = local_polish(ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=300)
    assert len(first.trace) == 2
    assert first.trace[1] <= first.trace[0]
    assert first.best_misfit == first.trace[1]


def test_polish_stays_put_at_converged_point():
    # run the descent to convergence, then confirm a second pass is inert
    first = local_polish(ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=4000)
    second = local_polish(
        first.best_params, Binomial(0.3, 7), cutoff=30, max_iters=4000
    )
    assert second.best_misfit <= first.best_misfit
    assert first.best_misfit - second.best_misfit <= 1e-12


def test_polish_rejects_target_vector_at_another_cutoff():
    # checked before the descent starts, with the message optimize gives
    tgt = target_state(Binomial(0.3, 7), 20)
    with pytest.raises(ValueError) as polish_error:
        local_polish(ROW_BINOM_SPD, tgt, cutoff=30, max_iters=10)
    with pytest.raises(ValueError) as search_error:
        optimize(tgt, SPD_BOX, TINY, search_cutoff=30, final_cutoff=30)
    assert str(polish_error.value) == str(search_error.value)
    assert "does not match evaluation cutoff 30" in str(polish_error.value)


def test_polish_recovers_rounding_loss_on_hm_row():
    polished = local_polish(ROW_BINOM_HM, Binomial(0.45, 8), cutoff=40, max_iters=400)
    assert polished.best_misfit <= 10 * 8.06e-4
    vec, _, _ = params_to_vector(polished.best_params)
    b = Bounds.for_kind("hm")
    assert np.all((vec >= b.lower) & (vec <= b.upper))


@pytest.mark.parametrize("cutoff,moves", [(40, True), (16, False)])
def test_polish_keeps_the_lower_reported_misfit_on_a_tail_heavy_row(cutoff, moves):
    # row 07 (r1 = 1.54): the polish descends on the core, which keeps the
    # input tails, while the reported misfit truncates them; at cutoff 16
    # the descent's end point reports worse than the start, which is kept
    row = get_row("07-binom-0.4-15-hm")
    tgt = target_state(row.target, cutoff, check_tail=False)
    polished = local_polish(row.params, tgt, cutoff, max_iters=400)
    start = misfit(conditional_output(row.params, cutoff, check_input_tail=False), tgt)
    assert polished.trace[0] == start
    assert polished.best_misfit == polished.trace[1] <= start
    assert (polished.best_params != row.params) == moves
    core = scheme._core_misfit(tgt)
    assert (core(scheme._bargmann_point(params_to_vector(polished.best_params)[0]))[0]
            <= core(scheme._bargmann_point(params_to_vector(row.params)[0]))[0])


def test_polish_with_every_dimension_pinned_scores_the_start():
    vec = tuple(params_to_vector(ROW_BINOM_SPD)[0].tolist())
    polished = local_polish(ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=50,
                            bounds=Bounds(vec, vec))
    start = objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)
    assert polished.best_params == ROW_BINOM_SPD
    assert polished.trace == (start, start)
    assert polished.best_misfit == start
    assert polished.evaluations_count == 1


def test_polish_respects_mask():
    box = SPD_BOX.pin("T", 0.69).pin("alpha2", 1.97)
    polished = local_polish(
        ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=200, bounds=box
    )
    assert polished.best_params.transmittance == 0.69
    assert polished.best_params.in2.alpha_abs == 1.97
    assert polished.best_misfit <= objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)


# ------------------------------------------------------ gradient and descent

# Draws for the gradient: the box corners (r = 1.7, |alpha| = 4), T at its
# limits, angles on both sides of the 0/2*pi seam, and r = 0, a coherent
# input (with both inputs coherent SPD's a = A44 is 0).
_GRAD_R = st.one_of(st.sampled_from([0.0, 1.7]), st.floats(0.0, 1.7))
_GRAD_ALPHA = st.one_of(st.sampled_from([0.0, 4.0]), st.floats(0.0, 4.0))
_GRAD_ANGLE = st.one_of(st.sampled_from([0.0, 1e-9, 2.0 * math.pi - 1e-9]),
                        st.floats(0.0, 2.0 * math.pi))
_GRAD_T = st.one_of(st.sampled_from([0.1, 0.9]), st.floats(0.1, 0.9))

# The gradient against central differences of step GRADIENT_STEP, relative
# to max(1, |difference|): worst seen 7.8e-9 on 20 000 draws.  The step's
# truncation error is about 1e-12 of the third derivative and its rounding
# about 1e-10.
GRADIENT_STEP = 1e-6
GRADIENT_RTOL = 1e-7


def _check_gradient(fun, point):
    """fun's gradient at point against central differences of its value."""
    _, grad = fun(point)
    assert len(grad) == len(point)
    for i in range(len(point)):
        up, down = point[:], point[:]
        up[i] += GRADIENT_STEP
        down[i] -= GRADIENT_STEP
        diff = (fun(up)[0] - fun(down)[0]) / (2.0 * GRADIENT_STEP)
        assert abs(grad[i] - diff) <= GRADIENT_RTOL * max(1.0, abs(diff)), i


@settings(max_examples=60, deadline=None)
@given(arms=st.tuples(_GRAD_R, _GRAD_ANGLE, _GRAD_ALPHA, _GRAD_ANGLE,
                      _GRAD_R, _GRAD_ANGLE, _GRAD_ALPHA, _GRAD_ANGLE),
       t=_GRAD_T, reading=st.one_of(st.just(()), st.tuples(st.floats(0.0, 4.0), _GRAD_ANGLE)),
       coherent=st.booleans(), spec=st.sampled_from([Binomial(0.3, 7), NegativeBinomial(0.5, 5)]),
       turns=st.lists(st.booleans(), min_size=4, max_size=4))
@example(arms=(0.0, 0.3, 0.0, 1.1, 0.5, 2.0, 1.2, 0.4), t=0.5, reading=(), coherent=False,
         spec=Binomial(0.3, 7), turns=[False, True, True, False])
@example(arms=(0.7, 4.0, 0.0, 0.0, 0.0, 0.0, 2.0, 5.0), t=0.3, reading=(1.2, 0.5),
         coherent=False, spec=NegativeBinomial(0.5, 5), turns=[True, False, False, True])
def test_core_gradient_matches_central_differences(arms, t, reading, coherent, spec, turns):
    point = [*arms, t, *reading]
    if coherent:
        point[0] = point[4] = 0.0
    # near SPD's zero output (B3 = A34 = 0: vacuum inputs) the misfit turns
    # on the scale of |B3| and |A34|, which no fixed step resolves
    _, _, _, linear = scheme._gaussian_core(point, scheme._SCALAR_MATH)
    assume(linear is None or abs(linear[0]) ** 2 + abs(linear[1]) ** 2 >= 1e-4)
    core = scheme._core_misfit(target_state(spec, 30, check_tail=False))
    # in the core's coordinates (Re s, Im s, Re alpha, Im alpha of each
    # input, T[, x, lam]), where r = 0 and |alpha| = 0 give s = 0 and alpha
    # = 0 exactly
    _check_gradient(core, scheme._bargmann_point(point))
    # in polar form, through the polish's chart: one entry of each (r,
    # theta) and (|alpha|, phi) pair pinned, the radius or the angle
    box = Bounds.for_kind("hm" if reading else "spd")
    for k, turn in zip((0, 2, 4, 6), turns):
        box = box.pin(box.names[k + 1 - turn], point[k + 1 - turn])
    chart = optimizer._chart(np.array(point), box, core)
    assert not chart.disks
    _check_gradient(chart.fun, chart.start.tolist())


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["spd", "hm"]),
       unit=st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11),
       pinned=st.lists(st.booleans(), min_size=11, max_size=11))
# starts at r = 0 and |alpha| = 0, where polar coordinates are singular:
# free pairs, and pairs with the angle pinned
@example(kind="spd", unit=[0.0, 0.3, 0.5, 0.6, 0.0, 0.8, 0.4, 0.2, 0.5, 0.5, 0.5],
         pinned=[False] * 11)
@example(kind="hm", unit=[0.4, 0.3, 0.0, 0.6, 0.5, 0.8, 0.0, 0.2, 0.7, 0.3, 0.6],
         pinned=[False] * 11)
@example(kind="spd", unit=[0.0, 0.3, 0.0, 0.6, 0.5, 0.8, 0.4, 0.2, 0.5, 0.5, 0.5],
         pinned=[False, True, False, True] + [False] * 7)
@example(kind="hm", unit=[0.0, 0.3, 0.5, 0.6, 0.6, 0.8, 0.0, 0.2, 0.5, 0.5, 0.1],
         pinned=[False, False, False, False, False, False, False, True, True, False, False])
def test_polish_never_ends_above_its_start(kind, unit, pinned):
    # from a random start in the box, some dimensions pinned there: the
    # descent lowers the core misfit or stays, the reported misfit never
    # rises, the pins hold and the bounded dimensions stay in the box
    box = Bounds.for_kind(kind)
    vec = [lo + u * (hi - lo) for lo, hi, u in zip(box.lower, box.upper, unit)]
    for name, value, pin in zip(box.names, vec, pinned):
        if pin:
            box = box.pin(name, value)
    params = vector_to_params(vec)
    tgt = target_state(Binomial(0.3, 7), 20)
    core = scheme._core_misfit(tgt)
    try:
        start = core(scheme._bargmann_point(params_to_vector(params)[0]))[0]
    except NormalizationError:  # vacuum inputs under SPD never click
        assume(False)
    polished = local_polish(params, tgt, cutoff=20, max_iters=30, bounds=box)
    assert polished.best_misfit <= polished.trace[0] == objective(params, tgt, 20)
    end = params_to_vector(polished.best_params)[0]
    assert core(scheme._bargmann_point(end))[0] <= start
    for i, (lo, hi, per) in enumerate(zip(box.lower, box.upper, box.periodic)):
        if lo == hi:
            assert end[i] == params_to_vector(params)[0][i]
        elif not per:
            assert lo <= end[i] <= hi


# The GA's end points for B(0.3, 7) under SPD (population 60, 160
# generations, one restart, search cutoff 30; optimize with no polish) for
# seeds 3, 17 and 101, the search workload's operating point.
_GA_END_POINTS = {
    3: [0.2168996807428663, 3.9243020721909376, 1.3775392730864129, 5.114537196863944,
        0.5774686666172243, 5.138825080633546, 1.3995913793175656, 5.043655447669715,
        0.21866364400812147],
    17: [0.5282902000880441, 2.100443324793548, 1.7845027897610064, 4.09937052621955,
         0.6442313612928908, 1.5098987393572494, 1.5774587917770613, 1.7958192959367698,
         0.5269677523540147],
    101: [0.3522864635039133, 5.27274825766508, 0.14434926409873344, 2.8682689394244627,
          0.54179712647992, 5.9909136713923665, 1.8459351131945354, 0.23332997517277365,
          0.5483287517906416],
}


@pytest.mark.parametrize("seed", sorted(_GA_END_POINTS))
def test_polish_reaches_the_spd_optimum_from_ga_end_points(seed):
    # each polish ends at 1.6042e-5, the optimum every seed reaches
    polished = local_polish(vector_to_params(_GA_END_POINTS[seed]), Binomial(0.3, 7),
                            cutoff=40, max_iters=400)
    assert polished.best_misfit < 2e-5


# eps_polished and evaluation counts of three SPD rows (cutoff 40, 400
# iterations) when the descent moved every pair in polar coordinates: it
# crawled where r or |alpha| neared 0 (on row 25, r1 and r2 sank to about
# 0.05 and the polish ran to its cap of 400 iterations, 504 calls)
_POLAR_DESCENT = {
    "06-binom-0.2-10-spd": (9.879e-7, 194),
    "15-negbinom-0.45-10-spd": (6.711e-6, 154),
    "25-ampsq-1-6-1-spd": (3.770e-8, 504),
}


@pytest.mark.parametrize("row_id", sorted(_POLAR_DESCENT))
def test_polish_does_not_crawl_where_polar_coordinates_are_singular(row_id):
    eps_polar, calls_polar = _POLAR_DESCENT[row_id]
    row = get_row(row_id)
    tgt = target_state(row.target, 40, check_tail=False)
    polished = local_polish(row.params, tgt, 40, max_iters=400)
    assert polished.best_misfit <= eps_polar
    assert polished.evaluations_count <= 0.6 * calls_polar

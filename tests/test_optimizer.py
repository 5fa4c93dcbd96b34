"""Seeded GA search, bounds/mask plumbing, and simplex polish."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldkit import optimizer, scheme
from heraldkit.errors import NormalizationError
from heraldkit.fock import FockVector
from heraldkit.optimizer import (
    Bounds,
    FixedMask,
    GAConfig,
    local_polish,
    objective_batch,
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
    conditional_output_batch,
    misfit,
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

TINY = GAConfig(
    population_size=14,
    generations=10,
    tournament_size=3,
    elitism_count=2,
    restarts=2,
    seed=7,
)


def objective(params: SchemeParams, target: TargetSpec | FockVector, cutoff: int) -> float:
    """The scalar misfit that the polish starts from and the final scoring
    reports, against a target vector or a family spec built as the search
    builds it."""
    if not isinstance(target, FockVector):
        target = target_state(target, cutoff, check_tail=False)
    return misfit(conditional_output(params, cutoff, check_input_tail=False), target)


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
    with pytest.raises(ValueError, match="r1: empty range"):
        Bounds((1.0,) + b.lower[1:], (1.0,) + b.upper[1:])
    vec, _, _ = params_to_vector(ROW_BINOM_SPD)
    assert np.all((vec >= b.lower) & (vec <= b.upper))
    vec_out = vec.copy()
    vec_out[0] = 2.0
    assert not np.all((vec_out >= b.lower) & (vec_out <= b.upper))


def test_fixed_mask_constructors():
    free = FixedMask.free("hm")
    assert free.values == (None,) * 11
    pinned = FixedMask.pin("spd", r1=0.5, T=0.3)
    assert pinned.values[0] == 0.5 and pinned.values[8] == 0.3
    assert all(v is None for i, v in enumerate(pinned.values) if i not in (0, 8))
    with pytest.raises(ValueError):
        FixedMask.pin("spd", x=1.0)  # an HM-only dimension


def test_ga_config_validation_paths():
    # the library names the field; the config path is the CLI's to add
    with pytest.raises(ValueError, match="^population_size=0 "):
        GAConfig(population_size=0)
    with pytest.raises(ValueError, match="^generations=0 "):
        GAConfig(generations=0)
    with pytest.raises(ValueError, match="^crossover_rate=1.5 "):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(ValueError, match="^elitism_count=50 .* population_size=10$"):
        GAConfig(elitism_count=50, population_size=10)


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
        conditional_output_batch(vec[None], 20)
    with pytest.raises(ValueError, match="not 10"):
        objective_batch(vec[None], Binomial(0.3, 7), 20)
    # a box's width names its dimensions
    with pytest.raises(ValueError, match="not 10"):
        Bounds((0.0,) * 10, (1.0,) * 10)


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("kind", ["SPD", SPD, HM(0.0, 0.0, 0.25)],
                         ids=["upper", "class", "instance"])
def test_optimize_takes_kind_only_as_lower_case_name(kind, monkeypatch):
    monkeypatch.setattr(optimizer, "_run_restart", _no_search)
    with pytest.raises(ValueError, match="unknown measurement kind"):
        optimize(Binomial(0.5, 2), kind, cfg=TINY, search_cutoff=12, final_cutoff=12)


@pytest.mark.parametrize("window", [-0.5, math.nan, math.inf])
def test_optimize_checks_window_before_search(window, monkeypatch):
    monkeypatch.setattr(optimizer, "_run_restart", _no_search)
    with pytest.raises(ValueError, match="window_halfwidth"):
        optimize(Binomial(0.3, 7), "hm", window_halfwidth=window)


def test_optimize_refuses_spd_window_before_search(monkeypatch):
    # a single-photon herald has no acceptance window to use it on
    monkeypatch.setattr(optimizer, "_run_restart", _no_search)
    with pytest.raises(ValueError, match="window_halfwidth=0.3 applies to hm only"):
        optimize(Binomial(0.3, 7), "spd", window_halfwidth=0.3)


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
        objective_batch(params_to_vector(ROW_BINOM_SPD)[0][None], tgt, 30)


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
        got = objective_batch(vecs, Binomial(0.3, 7), 60)
        want = [objective(vector_to_params(v), Binomial(0.3, 7), 60) for v in vecs]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_objective_batch_raises_on_impossible_outcome():
    vecs = np.tile(params_to_vector(ROW_BINOM_SPD)[0], (3, 1))
    vecs[2, [0, 2, 4, 6]] = 0.0  # vacuum inputs never click
    with pytest.raises(NormalizationError):
        objective(vector_to_params(vecs[2]), Binomial(0.3, 7), 20)
    with pytest.raises(NormalizationError):
        objective_batch(vecs, Binomial(0.3, 7), 20)
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
    want = objective_batch(np.array([vec]), tgt, cutoff)[0]
    assert abs(scheme._core_misfit(tgt)(vec) - want) <= CORE_SCALAR_ATOL


def test_scalar_core_misfit_matches_batch_on_bundled_rows():
    for row in all_rows():
        tgt = target_state(row.target, 40, check_tail=False)
        vec = params_to_vector(row.params)[0]
        want = objective_batch(vec[None], tgt, 40)[0]
        assert abs(scheme._core_misfit(tgt)(vec.tolist()) - want) <= CORE_SCALAR_ATOL


def test_scalar_core_misfit_fails_where_the_batch_fails():
    tgt = target_state(Binomial(0.3, 7), 20)
    vacuum = params_to_vector(ROW_BINOM_SPD)[0]
    vacuum[[0, 2, 4, 6]] = 0.0  # vacuum inputs never click: a zero output
    squeezed = params_to_vector(ROW_BINOM_SPD)[0]
    squeezed[0] = 800.0  # cosh r overflows
    for vec in (vacuum, squeezed):
        with pytest.raises(NormalizationError):
            objective_batch(vec[None], tgt, 20)
        with pytest.raises(NormalizationError):
            scheme._core_misfit(tgt)(vec.tolist())


def test_optimize_with_coherent_input_reports_objective():
    # r1 pinned to 0: the coherent input 1 goes through the batched closed
    # form like any other row
    cfg = GAConfig(population_size=6, generations=3, restarts=1, seed=2)
    res = optimize(
        Binomial(0.5, 1), "spd", mask=FixedMask.pin("spd", r1=0.0), cfg=cfg,
        search_cutoff=12, final_cutoff=12,
    )
    assert res.best_params.in1.r == 0.0
    assert np.isfinite(res.best_misfit)
    assert res.best_misfit == objective(res.best_params, Binomial(0.5, 1), 12)


def test_optimize_deterministic():
    a = optimize(Binomial(0.5, 2), "spd", cfg=TINY, search_cutoff=12, final_cutoff=12)
    b = optimize(Binomial(0.5, 2), "spd", cfg=TINY, search_cutoff=12, final_cutoff=12)
    assert a.best_params == b.best_params
    assert a.best_misfit == b.best_misfit
    assert a.trace == b.trace
    assert a.evaluations_count == b.evaluations_count
    assert a.seed == TINY.seed


def test_optimize_result_shape():
    res = optimize(Binomial(0.5, 2), "spd", cfg=TINY, search_cutoff=12, final_cutoff=12)
    # best-so-far trace never rises, across restart boundaries included
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
    assert len(res.trace) == TINY.restarts * TINY.generations
    per_restart = TINY.population_size + TINY.generations * (
        TINY.population_size - TINY.elitism_count
    )
    assert res.evaluations_count == TINY.restarts * per_restart
    vec, _, _ = params_to_vector(res.best_params)
    b = Bounds.for_kind("spd")
    assert np.all((vec >= b.lower) & (vec <= b.upper))
    assert res.eps_avg is None  # no acceptance window in play
    assert res.best_misfit == objective(res.best_params, Binomial(0.5, 2), 12)


def test_optimize_hm_kind_carries_window():
    res = optimize(
        Binomial(0.5, 2),
        "hm",
        window_halfwidth=0.25,
        cfg=GAConfig(population_size=10, generations=6, restarts=1, seed=3),
        search_cutoff=12,
        final_cutoff=12,
    )
    assert isinstance(res.best_params.measurement, HM)
    assert res.best_params.measurement.window_halfwidth == 0.25
    assert res.eps_avg is not None and 0.0 <= res.eps_avg <= 1.0
    assert 0.0 <= res.success_prob <= 1.0


def test_optimize_respects_pins():
    mask = FixedMask.pin("spd", T=0.69, r1=0.74)
    res = optimize(
        Binomial(0.3, 7), "spd", mask=mask, cfg=TINY, search_cutoff=12, final_cutoff=12
    )
    assert res.best_params.transmittance == 0.69
    assert res.best_params.in1.r == 0.74


def test_optimize_fully_pinned_is_flat():
    vec, _, _ = params_to_vector(ROW_BINOM_SPD)
    names = layout_for_kind("spd")
    mask = FixedMask.pin("spd", **dict(zip(names, vec)))
    res = optimize(
        Binomial(0.3, 7), "spd", mask=mask, cfg=TINY, search_cutoff=30, final_cutoff=30
    )
    assert len(set(res.trace)) == 1
    assert res.best_misfit == objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)
    assert res.best_params == ROW_BINOM_SPD


def test_optimize_pin_outside_bounds_rejected():
    with pytest.raises(ValueError):
        optimize(
            Binomial(0.5, 2), "spd", mask=FixedMask.pin("spd", T=0.95),
            cfg=TINY, search_cutoff=12, final_cutoff=12,
        )


def test_optimize_then_polish_finds_easy_target():
    def search(polish_iters):
        return optimize(
            Binomial(0.5, 1), "spd",
            cfg=GAConfig(population_size=60, generations=60, restarts=2, seed=2),
            polish_iters=polish_iters, search_cutoff=15, final_cutoff=15,
        )

    assert search(0).best_misfit < 0.1
    assert search(600).best_misfit < 1e-2


# ----------------------------------------------------------------- polish


def test_polish_never_increases():
    res = optimize(Binomial(0.5, 2), "spd", cfg=TINY, search_cutoff=12, final_cutoff=12)
    polished = optimize(
        Binomial(0.5, 2), "spd", cfg=TINY, polish_iters=120, search_cutoff=12, final_cutoff=12
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
    # run the simplex to convergence, then confirm a second pass is inert
    first = local_polish(ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=4000)
    second = local_polish(
        first.best_params, Binomial(0.3, 7), cutoff=30, max_iters=4000
    )
    assert second.best_misfit <= first.best_misfit
    assert first.best_misfit - second.best_misfit <= 1e-12


def test_polish_rejects_target_vector_at_another_cutoff():
    # checked before the simplex starts, with the message optimize gives
    tgt = target_state(Binomial(0.3, 7), 20)
    with pytest.raises(ValueError) as polish_error:
        local_polish(ROW_BINOM_SPD, tgt, cutoff=30, max_iters=10)
    with pytest.raises(ValueError) as search_error:
        optimize(tgt, "spd", cfg=TINY, search_cutoff=30, final_cutoff=30)
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
    # row 07 (r1 = 1.54): the simplex descends on the core, which keeps the
    # input tails, while the reported misfit truncates them; at cutoff 16
    # the simplex's end point reports worse than the start, which is kept
    row = get_row("07-binom-0.4-15-hm")
    tgt = target_state(row.target, cutoff, check_tail=False)
    polished = local_polish(row.params, tgt, cutoff, max_iters=400)
    start = misfit(conditional_output(row.params, cutoff, check_input_tail=False), tgt)
    assert polished.trace[0] == start
    assert polished.best_misfit == polished.trace[1] <= start
    assert (polished.best_params != row.params) == moves
    core = scheme._core_misfit(tgt)
    assert (core(params_to_vector(polished.best_params)[0].tolist())
            <= core(params_to_vector(row.params)[0].tolist()))


def test_polish_with_every_dimension_pinned_scores_the_start():
    mask = FixedMask(tuple(params_to_vector(ROW_BINOM_SPD)[0].tolist()))
    polished = local_polish(ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=50,
                            mask=mask)
    start = objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)
    assert polished.best_params == ROW_BINOM_SPD
    assert polished.trace == (start, start)
    assert polished.best_misfit == start
    assert polished.evaluations_count == 1


def test_polish_respects_mask():
    mask = FixedMask.pin("spd", T=0.69, alpha2=1.97)
    polished = local_polish(
        ROW_BINOM_SPD, Binomial(0.3, 7), cutoff=30, max_iters=200, mask=mask
    )
    assert polished.best_params.transmittance == 0.69
    assert polished.best_params.in2.alpha_abs == 1.97
    assert polished.best_misfit <= objective(ROW_BINOM_SPD, Binomial(0.3, 7), 30)

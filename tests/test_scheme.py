"""Conditional-preparation engine: closed forms, oracle, figures of merit.

The load-bearing check is closed-form against first-principles-pipeline
agreement; on top of that this file carries an independent brute-force
beam-splitter expansion so the pipeline itself is not self-certifying.
"""

import itertools
import math
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _operator_reference import basis_state, core_outputs, partial_trace, quadrature_wavefunction
from scipy.special import roots_legendre

from heraldkit import scheme
from heraldkit import tolerances as tol
from heraldkit.errors import NormalizationError, TailMassError
from heraldkit.fock import (
    DensityMatrix,
    FockVector,
    TwoModeState,
    hermite_gaussian_columns,
    project_quadrature,
)
from heraldkit.scheme import (
    HM,
    SPD,
    SchemeParams,
    average_misfit,
    conditional_output,
    embedded_two_mode_state,
    hm_outcome_density,
    misfit,
    output_oracle,
    params_to_vector,
    score,
    success_prob_hm,
    success_prob_spd,
    vector_to_params,
)
from heraldkit.optimizer import Bounds
from heraldkit.reference_rows import all_rows
from heraldkit.states import (
    SqueezedCoherentParams,
    binomial_state,
    squeezed_coherent_amplitudes,
    target_state,
)

# Table row used throughout: binomial(0.3, 7) target prepared by SPD
ROW_BINOM_SPD = SchemeParams(
    SqueezedCoherentParams(0.74, 3.50, 0.10, 2.14),
    SqueezedCoherentParams(0.16, 4.43, 1.97, 0.08),
    0.69,
    SPD(),
)
# binomial(0.45, 8) target prepared by HM with acceptance window 0.30
ROW_BINOM_HM = SchemeParams(
    SqueezedCoherentParams(0.45, 0.74, 0.34, 1.01),
    SqueezedCoherentParams(0.45, 0.28, 1.97, 0.06),
    0.90,
    HM(0.61, 0.04, 0.30),
)

GENERIC_A = SqueezedCoherentParams(0.5, 1.1, 0.8, 0.3)
GENERIC_B = SqueezedCoherentParams(0.3, 2.0, 1.2, 2.5)


def overlap_deficit(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


# ------------------------------------------------- brute-force reference


def brute_force_joint(a1: np.ndarray, a2: np.ndarray, t: float) -> dict:
    """Beam-splitter output by literal binomial expansion of the mode map

        mode1 -> sqrt(T) out3 + i sqrt(1-T) out4
        mode2 -> i sqrt(1-T) out3 + sqrt(T) out4

    applied to creation-operator monomials.  Returns {(n3, n4): amplitude}.
    """
    rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    joint: dict = defaultdict(complex)
    for n, c1 in enumerate(a1):
        for m, c2 in enumerate(a2):
            if c1 == 0.0 and c2 == 0.0:
                continue
            base = c1 * c2 / math.sqrt(math.factorial(n) * math.factorial(m))
            for k in range(n + 1):
                f1 = math.comb(n, k) * rt ** k * (1j * rr) ** (n - k)
                for l in range(m + 1):
                    f2 = math.comb(m, l) * (1j * rr) ** l * rt ** (m - l)
                    n3, n4 = k + l, (n - k) + (m - l)
                    joint[(n3, n4)] += (
                        base * f1 * f2
                        * math.sqrt(math.factorial(n3) * math.factorial(n4))
                    )
    return joint


def brute_force_spd(a1, a2, t):
    joint = brute_force_joint(a1, a2, t)
    n_max = max(n4 for (_, n4) in joint)
    out = np.zeros(n_max + 1, dtype=complex)
    for (n3, n4), amp in joint.items():
        if n3 == 1:
            out[n4] += amp
    return out


def brute_force_hm(a1, a2, t, x, lam):
    joint = brute_force_joint(a1, a2, t)
    n_max = max(n4 for (_, n4) in joint)
    out = np.zeros(n_max + 1, dtype=complex)
    for (n3, n4), amp in joint.items():
        out[n4] += quadrature_wavefunction(n3, x, lam) * amp
    return out


def truncated_inputs(p: SchemeParams, cutoff: int):
    """The two inputs truncated at the cutoff and normalized there."""
    return tuple(FockVector(squeezed_coherent_amplitudes(arm, cutoff), cutoff).normalized().amps
                 for arm in (p.in1, p.in2))


def test_scaled_sqrt_factorials_match_math_factorial():
    for n_max in (1, 60, 400):
        s = scheme._scaled_sqrt_factorials(n_max)
        log_kappa = 0.5 * math.log(n_max / math.e)
        for n in range(n_max + 1):
            want = math.exp(0.5 * math.lgamma(n + 1.0) - n * log_kappa)
            assert s[n] == pytest.approx(want, rel=1e-13)


def test_binomials_are_exact():
    b = scheme._binomials(200)
    for d, k in ((0, 0), (1, 5), (17, 23), (100, 100), (3, 197), (150, 50)):
        assert b[d, k] == float(math.comb(d + k, d))
    assert b[100, 101] == 0.0 and b[200, 1] == 0.0


# criterion-1 box
_BOX_ARMS = st.builds(
    SqueezedCoherentParams,
    st.floats(0.05, 1.7), st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 4.0), st.floats(0.0, 2.0 * math.pi),
)


def test_spd_route_matches_brute_force():
    n = 10
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.7, SPD())
    a1, a2 = truncated_inputs(p, n)
    full = brute_force_spd(a1, a2, 0.7)
    ref_state = full[: n + 1] / np.linalg.norm(full[: n + 1])
    ref_weight = float(np.sum(np.abs(full) ** 2))

    out = conditional_output(p, n, check_input_tail=False)
    assert overlap_deficit(out.state.amps, ref_state) <= 1e-12
    p_spd = success_prob_spd(p, n, check_input_tail=False)
    assert p_spd == pytest.approx(ref_weight, rel=1e-12)


def test_hm_route_matches_brute_force():
    n = 10
    x, lam = 0.8, 0.4
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.7, HM(x, lam))
    a1, a2 = truncated_inputs(p, n)
    full = brute_force_hm(a1, a2, 0.7, x, lam)
    ref_state = full[: n + 1] / np.linalg.norm(full[: n + 1])
    ref_density = float(np.sum(np.abs(full) ** 2))

    out = conditional_output(p, n, check_input_tail=False)
    assert overlap_deficit(out.state.amps, ref_state) <= 1e-12
    dens = hm_outcome_density(p, x, n, check_input_tail=False)
    assert dens == pytest.approx(ref_density, rel=1e-12)


# ------------------------------------- closed forms against the pipeline


@pytest.mark.parametrize("t", [0.15, 0.5, 0.69])
def test_spd_closed_form_matches_oracle(t):
    p = SchemeParams(GENERIC_A, GENERIC_B, t, SPD())
    closed = conditional_output(p, 30, method="closed", check_input_tail=False)
    oracle = output_oracle(p, 30, check_input_tail=False)
    assert overlap_deficit(closed.state.amps, oracle.state.amps) <= 1e-10
    assert closed.raw_weight == pytest.approx(oracle.raw_weight, rel=1e-9)
    assert closed.truncation_loss == pytest.approx(oracle.truncation_loss, rel=1e-6)


@pytest.mark.parametrize("x,lam", [(0.0, 0.0), (0.8, 0.4), (2.5, 5.0)])
def test_hm_closed_form_matches_oracle(x, lam):
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(x, lam))
    closed = conditional_output(p, 30, method="closed", check_input_tail=False)
    oracle = output_oracle(p, 30, check_input_tail=False)
    assert overlap_deficit(closed.state.amps, oracle.state.amps) <= 1e-10
    assert closed.raw_weight == pytest.approx(oracle.raw_weight, rel=1e-9)


def test_spd_oracle_reads_row_one_of_the_embedded_state():
    # the SPD oracle walks only rows 0 and 1 of the beam splitter over the
    # inputs' box; row 1 of the whole embedding is the same figure, up to
    # the order in which a matrix product of another shape sums (measured
    # on these draws: 3.1e-17 on the unnormalized row, 1.4e-13 relative
    # on the weight)
    rng = np.random.default_rng(20260823)
    for p in box_draws(rng, "spd", 200):
        out = output_oracle(p, 30, check_input_tail=False)
        row = embedded_two_mode_state(p, 30, check_input_tail=False).amps[1]
        ref = scheme._split_output(row, 30)
        assert out.raw_weight == pytest.approx(ref.raw_weight, rel=1e-12)
        assert out.truncation_loss == pytest.approx(ref.truncation_loss, rel=1e-12)
        unnormalized = out.state.amps * math.sqrt(out.raw_weight)
        assert np.max(np.abs(unnormalized - row[:31])) <= 2e-16


def _no_route(*args, **kwargs):
    raise AssertionError("route must not be taken")


@pytest.mark.parametrize("meas", [SPD(), HM(0.8, 0.4)], ids=["spd", "hm"])
def test_zero_squeezing_takes_closed_route(meas, monkeypatch):
    # coherent inputs are regular for the input recurrence, so neither the
    # scalar nor the batched closed form needs the oracle
    points = [
        SchemeParams(replace(GENERIC_A, r=0.0), GENERIC_B, 0.42, meas),
        SchemeParams(GENERIC_A, replace(GENERIC_B, r=0.0), 0.42, meas),
        SchemeParams(replace(GENERIC_A, r=0.0), replace(GENERIC_B, r=0.0), 0.42, meas),
    ]
    # at cutoff 60 the input tails vanish, so the batch, which keeps the
    # inputs whole, agrees with the truncating routes
    refs = [output_oracle(p, 60) for p in points]
    monkeypatch.setattr(scheme, "output_oracle", _no_route)
    rows = np.array([params_to_vector(p)[0] for p in points])
    states, weights = core_outputs(rows, 60)
    eps, _ = scheme._core_misfit_batch(binomial_state(0.3, 7, 60))(rows)
    for p, ref, state, weight in zip(points, refs, states, weights):
        out = conditional_output(p, 60)
        for amps, w in ((out.state.amps, out.raw_weight), (state, weight)):
            assert overlap_deficit(amps, ref.state.amps) <= 1e-10
            assert w == pytest.approx(ref.raw_weight, rel=1e-9)
    np.testing.assert_allclose(eps, [misfit(r, binomial_state(0.3, 7, 60)) for r in refs],
                               rtol=0.0, atol=1e-10)


def test_nearly_coherent_input_stays_finite_at_high_cutoff():
    # r = 1e-6 with |alpha| = 3 once overflowed the Hermite form at order 85
    p = SchemeParams(
        SqueezedCoherentParams(1e-6, 0.3, 3.0, 0.2),
        SqueezedCoherentParams(0.5, 1.0, 1.0, 0.5),
        0.5,
        SPD(),
    )
    lo, hi = conditional_output(p, 60), conditional_output(p, 100)
    assert np.all(np.isfinite(hi.state.amps)) and np.isfinite(hi.raw_weight)
    assert overlap_deficit(lo.state.amps, hi.state.amps[:61]) <= 1e-12
    assert hi.raw_weight == pytest.approx(lo.raw_weight, rel=1e-12)
    prob = success_prob_spd(p, 100)
    assert np.isfinite(prob)
    assert prob == pytest.approx(success_prob_spd(p, 60), rel=1e-12)


def test_conditional_output_rejects_unknown_method():
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.5, SPD())
    with pytest.raises(ValueError):
        conditional_output(p, 20, method="fancy")


def test_conditional_output_tail_guard():
    hot = SqueezedCoherentParams(1.6, 0.2, 3.5, 0.1)
    p = SchemeParams(hot, GENERIC_B, 0.5, SPD())
    with pytest.raises(TailMassError):
        conditional_output(p, 15)
    out = conditional_output(p, 15, check_input_tail=False)
    assert np.linalg.norm(out.state.amps) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_inputs_cannot_herald():
    vac = SqueezedCoherentParams(0.0, 0.0, 0.0, 0.0)
    p = SchemeParams(vac, vac, 0.5, SPD())
    out = conditional_output(p, 20)
    assert out.raw_weight == 0.0
    assert success_prob_spd(p, 20) == 0.0

    # near-vacuum through the closed form: weight vanishes quadratically
    faint = SqueezedCoherentParams(1e-8, 0.0, 0.0, 0.0)
    p = SchemeParams(faint, faint, 0.5, SPD())
    assert conditional_output(p, 20, method="closed").raw_weight <= 1e-12


def test_conditional_output_invariants():
    for meas in (SPD(), HM(0.8, 0.4)):
        p = SchemeParams(GENERIC_A, GENERIC_B, 0.7, meas)
        out = conditional_output(p, 30, check_input_tail=False)
        assert np.linalg.norm(out.state.amps) == pytest.approx(1.0, abs=1e-12)
        assert out.raw_weight >= 0.0
        assert 0.0 <= out.truncation_loss < 1.0


# ------------------------------------------------------ closed-route kernel


def kernel_misfit(vec: np.ndarray, target, cutoff: int) -> float:
    """The misfit read off the closed-route kernel, on a flat search vector."""
    return misfit(scheme._split_output(scheme._herald(vec, cutoff)[0], cutoff), target)


@pytest.fixture(scope="module")
def bundled_at_40():
    return [(row.params, target_state(row.target, 40, check_tail=False)) for row in all_rows()]


def test_kernel_misfit_matches_conditional_output_on_bundled_rows(bundled_at_40):
    for p, tgt in bundled_at_40:
        want = misfit(conditional_output(p, 40, check_input_tail=False), tgt)
        assert abs(kernel_misfit(params_to_vector(p)[0], tgt, 40) - want) <= 1e-15


def test_closed_route_matches_oracle_on_bundled_rows(bundled_at_40):
    # the bounds bench/checks.py holds every reproduce-table row to
    for p, tgt in bundled_at_40:
        closed = conditional_output(p, 40, check_input_tail=False)
        oracle = output_oracle(p, 40, check_input_tail=False)
        assert abs(misfit(closed, tgt) - misfit(oracle, tgt)) <= 1e-9
        assert closed.raw_weight == pytest.approx(oracle.raw_weight, rel=1e-9, abs=0.0)


# a well-conditioned sub-box of the search box: at the corners of the full
# box the binomial convolution of heavy-tailed inputs turns rounding-level
# changes into HM misfit changes of up to 3e-9
_TAME_ARMS = st.builds(
    SqueezedCoherentParams,
    st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    in1=_TAME_ARMS, in2=_TAME_ARMS, t=st.floats(0.1, 0.9), cutoff=st.integers(8, 40),
    meas=st.one_of(st.just(SPD()),
                   st.builds(HM, st.floats(0.0, 4.0), st.floats(0.0, 2.0 * math.pi))),
)
def test_kernel_misfit_matches_conditional_output(in1, in2, t, cutoff, meas):
    p = SchemeParams(in1, in2, t, meas)
    vec = params_to_vector(p)[0]
    tgt = binomial_state(0.5, 4, cutoff)
    try:
        want = misfit(conditional_output(p, cutoff, check_input_tail=False), tgt)
    except NormalizationError:
        # vacuum inputs never click: the kernel refuses the point too
        with pytest.raises(NormalizationError):
            kernel_misfit(vec, tgt, cutoff)
        return
    assert abs(kernel_misfit(vec, tgt, cutoff) - want) <= 1e-13


def test_tail_guard_holds_for_every_figure():
    hot = SqueezedCoherentParams(1.6, 0.2, 3.5, 0.1)
    spd = SchemeParams(hot, GENERIC_B, 0.5, SPD())
    hm = SchemeParams(GENERIC_B, hot, 0.5, HM(0.8, 0.4, 0.3))
    tgt = binomial_state(0.5, 4, 15)
    for figure in (
        lambda: conditional_output(spd, 15),
        lambda: conditional_output(hm, 15),
        lambda: score(spd, tgt, 15),
        lambda: score(hm, tgt, 15),
        lambda: success_prob_spd(spd, 15),
        lambda: success_prob_hm(hm, 15),
        lambda: hm_outcome_density(hm, 1.1, 15),
        lambda: average_misfit(hm, tgt, 15),
    ):
        with pytest.raises(TailMassError):
            figure()


# ------------------------------------------------------ transmittance symmetry


def conjugated(p: SqueezedCoherentParams) -> SqueezedCoherentParams:
    """Time-reversed input: both phases negated."""
    return SqueezedCoherentParams(p.r, -p.theta % (2 * np.pi), p.alpha_abs,
                                  -p.phi % (2 * np.pi))


def test_transmittance_complement_symmetry_spd():
    # Complementing T is equivalent to time-reversing the swapped inputs;
    # the heralded state comes back conjugated with an i^n phase ramp.
    t = 0.7
    ref = conditional_output(
        SchemeParams(GENERIC_A, GENERIC_B, t, SPD()), 30, check_input_tail=False
    ).state.amps
    flipped = conditional_output(
        SchemeParams(conjugated(GENERIC_B), conjugated(GENERIC_A), 1.0 - t, SPD()),
        30,
        check_input_tail=False,
    ).state.amps
    ramp = 1j ** np.arange(31)
    assert abs(np.vdot(ref, ramp * flipped.conj())) >= 1 - 1e-10


@pytest.mark.parametrize("t,x,lam", [(0.7, 0.8, 0.4), (0.42, 1.3, 2.2)])
def test_transmittance_complement_symmetry_hm(t, x, lam):
    # same symmetry for homodyne heralding; the local-oscillator phase of
    # the relabeled arm maps to pi/2 - lambda
    ref = conditional_output(
        SchemeParams(GENERIC_A, GENERIC_B, t, HM(x, lam)), 30, check_input_tail=False
    ).state.amps
    st = embedded_two_mode_state(
        SchemeParams(conjugated(GENERIC_A), conjugated(GENERIC_B), 1.0 - t,
                     HM(x, lam)),
        30,
        check_input_tail=False,
    )
    # the relabeled arm is mode 4, the second index
    vec, _ = project_quadrature(TwoModeState(st.amps.T, st.cutoff), x, np.pi / 2 - lam)
    flipped = vec.amps[:31]
    flipped = flipped / np.linalg.norm(flipped)
    ramp = 1j ** np.arange(31)
    assert abs(np.vdot(ref, ramp * flipped.conj())) >= 1 - 1e-10


def test_relabeling_both_arms_is_exact():
    # swapping the inputs and measuring the other output arm is a pure
    # relabeling at the same T, with no extra phases
    t = 0.63
    st_a = embedded_two_mode_state(
        SchemeParams(GENERIC_A, GENERIC_B, t, SPD()), 20, check_input_tail=False
    )
    st_b = embedded_two_mode_state(
        SchemeParams(GENERIC_B, GENERIC_A, t, SPD()), 20, check_input_tail=False
    )
    # one photon in mode 3 of the first, in mode 4 of the second
    np.testing.assert_allclose(st_a.amps[1], st_b.amps[:, 1], atol=1e-12)


def test_embedding_memory_stays_bounded():
    # the beam-splitter blocks are streamed, so one embedding at cutoff 60
    # (sectors up to 120) never holds the ~10 MB of all its blocks at once
    embedded_two_mode_state(ROW_BINOM_HM, 60, check_input_tail=False)
    tracemalloc.start()
    try:
        embedded_two_mode_state(ROW_BINOM_HM, 60, check_input_tail=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ----------------------------------------------------------------- misfit


def test_misfit_trivial_cases():
    tgt = binomial_state(0.3, 7, 30)
    assert misfit(tgt, tgt) == pytest.approx(0.0, abs=1e-14)
    assert misfit(basis_state(1, 30), basis_state(0, 30)) == 1.0

    # even classical mixture of the target and an orthogonal state
    perp = basis_state(9, 30)
    rho = 0.5 * np.outer(tgt.amps, tgt.amps.conj()) + 0.5 * np.outer(
        perp.amps, perp.amps.conj()
    )
    assert misfit(DensityMatrix(rho, 30), tgt) == pytest.approx(0.5, abs=1e-12)


def test_misfit_global_phase_invariant():
    tgt = binomial_state(0.3, 7, 30)
    out = conditional_output(ROW_BINOM_SPD, 30, check_input_tail=False)
    base = misfit(out, tgt)
    rotated = FockVector(np.exp(0.77j) * out.state.amps, 30)
    assert misfit(rotated, tgt) == pytest.approx(base, abs=1e-14)
    rotated_tgt = FockVector(np.exp(-1.2j) * tgt.amps, 30)
    assert misfit(out, rotated_tgt) == pytest.approx(base, abs=1e-14)


# ----------------------------------------------- tabulated reference rows


def test_tabulated_spd_row_reproduces():
    tgt = binomial_state(0.3, 7, 40)
    out = conditional_output(ROW_BINOM_SPD, 40, check_input_tail=False)
    # 2-decimal parameter rounding keeps the misfit near the tabulated value
    assert misfit(out, tgt) == pytest.approx(1.26e-4, abs=2e-5)
    assert success_prob_spd(ROW_BINOM_SPD, 40, check_input_tail=False) == pytest.approx(
        0.318, abs=0.005
    )


def test_tabulated_hm_row_reproduces():
    tgt = binomial_state(0.45, 8, 40)
    out = conditional_output(ROW_BINOM_HM, 40, check_input_tail=False)
    assert misfit(out, tgt) == pytest.approx(8.06e-4, abs=2e-4)
    assert success_prob_hm(ROW_BINOM_HM, 40, check_input_tail=False) == pytest.approx(
        0.275, abs=0.05
    )
    assert average_misfit(ROW_BINOM_HM, tgt, 40, check_input_tail=False) == pytest.approx(
        0.008, abs=1.5e-3
    )


def test_tabulated_hm_p_fits_mirrored_reading_phase():
    # The table's P column matches the window probability read at -lam on
    # every HM row, while its eps matches +lam; reproduce-table's P gate
    # therefore fails on exactly five rows.  Row 12's target needs cutoff 60.
    p_gate_fails, mirrored_eps_off = set(), set()
    for row in all_rows():
        if row.kind != "hm":
            continue
        cutoff = 60 if row.row_id.startswith("12-") else 40
        tgt = target_state(row.target, cutoff, check_tail=False)
        m = row.params.measurement
        mirrored = replace(row.params, measurement=replace(m, lam=-m.lam % (2 * math.pi)))
        _, eps, prob, _ = score(row.params, tgt, cutoff, check_input_tail=False)
        _, eps_mirrored, prob_mirrored, _ = score(mirrored, tgt, cutoff, check_input_tail=False)
        number = row.row_id[:2]
        assert abs(prob_mirrored - row.success_prob) < 0.01, number
        assert eps < 0.01, number
        if abs(prob - row.success_prob) > 0.05:
            p_gate_fails.add(number)
        if eps_mirrored > 0.04:
            mirrored_eps_off.add(number)
    assert p_gate_fails == {"07", "10", "12", "22", "24"}
    assert mirrored_eps_off == {"01", "05", "07", "10", "12", "14", "22", "24"}


# ------------------------------------------------------- success probability


def test_success_prob_spd_equals_partial_trace_route():
    p = ROW_BINOM_SPD
    st = embedded_two_mode_state(p, 30, check_input_tail=False)
    rho = partial_trace(st.amps)  # reduced state of the measured arm
    trace = float(np.trace(rho.rho).real)
    expect = float(rho.rho[1, 1].real) / trace
    assert success_prob_spd(p, 30, check_input_tail=False) == pytest.approx(
        expect, abs=1e-12
    )


def test_success_prob_spd_matches_oracle_weight():
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.31, SPD())
    oracle = output_oracle(p, 30, check_input_tail=False)
    a1, a2 = truncated_inputs(p, 30)
    # raw_weight is relative to the unnormalized truncated inputs
    norm_sq = float(np.sum(np.abs(a1) ** 2) * np.sum(np.abs(a2) ** 2))
    got = success_prob_spd(p, 30, check_input_tail=False)
    assert got == pytest.approx(oracle.raw_weight / norm_sq, rel=1e-9)


def test_hm_output_periodic_in_lambda():
    p1 = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4))
    p2 = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4 + 2 * np.pi))
    a = conditional_output(p1, 30, check_input_tail=False)
    b = conditional_output(p2, 30, check_input_tail=False)
    np.testing.assert_allclose(a.state.amps, b.state.amps, atol=1e-12)
    assert a.raw_weight == pytest.approx(b.raw_weight, rel=1e-12)


def test_success_prob_hm_window_limits():
    # zero-measure window
    p0 = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4, 0.0))
    assert success_prob_hm(p0, 30, check_input_tail=False) == 0.0
    # window wide enough to catch everything
    p_all = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.0, 0.4, 20.0))
    assert success_prob_hm(p_all, 30, check_input_tail=False) == pytest.approx(
        1.0, abs=1e-6
    )


def test_success_prob_hm_wide_window_holds_all_mass():
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.0, 0.4, 20.0))
    assert success_prob_hm(p, 30, check_input_tail=False) == pytest.approx(1.0, abs=1e-12)


def test_success_prob_hm_monotone_in_window():
    last = 0.0
    for delta in (0.05, 0.1, 0.3, 0.6, 1.2, 2.5):
        p = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4, delta))
        val = success_prob_hm(p, 30, check_input_tail=False)
        assert val >= last
        last = val
    assert last <= 1.0 + 1e-9


def test_hm_outcome_density_matches_quadrature_projection():
    p = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4))
    st = embedded_two_mode_state(p, 30, check_input_tail=False)
    _, density = project_quadrature(st, 1.1, 0.4)
    norm_sq = float(np.sum(np.abs(st.amps) ** 2))
    got = hm_outcome_density(p, 1.1, 30, check_input_tail=False)
    assert got == pytest.approx(density / norm_sq, rel=1e-9)


def oracle_window(p: SchemeParams, target: FockVector | None, cutoff: int,
                  nodes: np.ndarray, node_weights: np.ndarray) -> tuple[float, float | None]:
    """P and eps_avg (None without a target) of an HM point from oracle
    outputs at the given reading nodes, each integral read as the weighted
    sum over the nodes: the outputs contract the embedded two-mode state
    with the Hermite functions, and the misfit's denominator is their full
    norm."""
    mixed = embedded_two_mode_state(p, cutoff, check_input_tail=False)
    n = np.arange(2 * cutoff + 1)
    phi = np.array([hermite_gaussian_columns(2 * cutoff, t) for t in nodes]).T
    bra = phi * np.exp(-1j * p.measurement.lam * n)[:, None]
    outputs = bra.T @ mixed.amps
    mass = node_weights @ np.sum(np.abs(outputs) ** 2, axis=1)
    if target is None:
        return mass / mixed.norm_sq(), None
    kept = node_weights @ np.abs(outputs[:, : cutoff + 1] @ target.amps.conj()) ** 2
    return mass / mixed.norm_sq(), 1.0 - kept / mass


def gauss_legendre_window(m: HM, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of a count-node Gauss-Legendre rule on x +/- delta."""
    nodes, node_weights = roots_legendre(count)
    return m.x + m.window_halfwidth * nodes, m.window_halfwidth * node_weights


def test_success_prob_hm_matches_oracle_quadrature():
    tgt = binomial_state(0.45, 8, 30)
    window = gauss_legendre_window(ROW_BINOM_HM.measurement, 128)
    want = oracle_window(ROW_BINOM_HM, tgt, 30, *window)[0]
    got = success_prob_hm(ROW_BINOM_HM, 30, check_input_tail=False)
    assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    in1=_BOX_ARMS, in2=_BOX_ARMS, t=st.floats(0.1, 0.9), x=st.floats(0.0, 4.0),
    lam=st.floats(0.0, 2.0 * math.pi), delta=st.floats(0.0, 3.0, exclude_min=True),
    cutoff=st.integers(12, 30),
)
def test_window_probability_matches_oracle(in1, in2, t, x, lam, delta, cutoff):
    p = SchemeParams(in1, in2, t, HM(x, lam, delta))
    # fixed 256-node Gauss-Legendre sums of oracle outputs, all nodes at once
    window = gauss_legendre_window(p.measurement, 256)
    prob = success_prob_hm(p, cutoff, check_input_tail=False)
    assert prob == pytest.approx(oracle_window(p, None, cutoff, *window)[0], abs=1e-10)
    assert prob <= 1.0 + 1e-12
    # the target, the heralded output at the window's centre, needs an output there
    assume(delta * hm_outcome_density(p, x, cutoff, check_input_tail=False) > 1e-290)
    # both integrals are quadratic forms in 2N + 1 Hermite functions, so they
    # round to about (2N + 1) eps of the mass the window can hold, min(1,
    # 2 delta), however little of it lies there, and eps_avg to that over P.
    # score refuses a P within that bound (as the next test shows); where
    # the bound over P passes 1e-10 (a low outcome density), eps_avg is
    # known only to it: a limit of the two-edge rule.
    bound = (2 * cutoff + 1) * np.finfo(float).eps * min(1.0, 2.0 * delta)
    assume(prob > bound)
    tgt = conditional_output(p, cutoff, check_input_tail=False).state
    got = score(p, tgt, cutoff, check_input_tail=False)
    assert got.success_prob == prob
    rounding = bound / prob
    assert abs(got.eps_avg - oracle_window(p, tgt, cutoff, *window)[1]) <= max(1e-10, rounding)
    assert average_misfit(p, tgt, cutoff, check_input_tail=False) == got.eps_avg


def test_window_probability_within_its_rounding_bound_is_refused():
    # a draw of the test above: P = 2.19e-15 lies below the rounding bound
    # 33 eps min(1, 2 delta) = 3.66e-15 of the window integrals, so score
    # refuses it rather than report an eps_avg made of rounding
    p = SchemeParams(SqueezedCoherentParams(0.0546875, 0.0, 1.0, 4.0),
                     SqueezedCoherentParams(0.125, 0.0, 1.0, 3.0), 0.5, HM(4.0, 1.0, 0.25))
    prob = success_prob_hm(p, 16, check_input_tail=False)
    assert 0.0 < prob <= 33 * np.finfo(float).eps * 0.5
    tgt = conditional_output(p, 16, check_input_tail=False).state
    with pytest.raises(NormalizationError, match="within its rounding bound"):
        score(p, tgt, 16, check_input_tail=False)


def test_hm_figures_at_cutoff_200_match_cutoff_134():
    # the unnormalized H_400(0.61) overflows at order 269; the figures read
    # Hermite functions, so they stay finite and converged above cutoff 134
    def figures(cutoff):
        tgt = binomial_state(0.45, 8, cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return (conditional_output(ROW_BINOM_HM, cutoff),
                    hm_outcome_density(ROW_BINOM_HM, 0.61, cutoff),
                    success_prob_hm(ROW_BINOM_HM, cutoff),
                    average_misfit(ROW_BINOM_HM, tgt, cutoff))

    (out_lo, dens_lo, p_lo, avg_lo), (out_hi, dens_hi, p_hi, avg_hi) = figures(134), figures(200)
    assert overlap_deficit(out_hi.state.amps[:135], out_lo.state.amps) <= 1e-12
    assert dens_hi == pytest.approx(dens_lo, rel=1e-12)
    assert abs(p_hi - p_lo) <= 1e-12
    assert abs(avg_hi - avg_lo) <= 1e-12


# a box point whose inputs pass the tail check at cutoff 90; the window figures
# of its truncated inputs have converged there
HIGH_CUTOFF_HM = SchemeParams(
    SqueezedCoherentParams(1.06069, 0.276096, 0.142721, 3.235142),
    SqueezedCoherentParams(0.81924, 5.762735, 2.516905, 3.230296),
    0.497499, HM(0.99006, 0.074066, 0.3),
)


def test_window_figures_converge_above_cutoff_60():
    # a binomial convolution of the arms once gave P = 45.3 at cutoff 110
    figures = {}
    for cutoff in (90, 110):
        tgt = binomial_state(0.45, 8, cutoff)
        figures[cutoff] = (success_prob_hm(HIGH_CUTOFF_HM, cutoff),
                           average_misfit(HIGH_CUTOFF_HM, tgt, cutoff))
    (p_lo, avg_lo), (p_hi, avg_hi) = figures[90], figures[110]
    assert abs(p_hi - p_lo) <= 1e-9 and abs(avg_hi - avg_lo) <= 1e-9
    assert 0.0 < p_hi <= 1.0


# ----------------------------------------------------------- average misfit


def full_norm_misfit(p: SchemeParams, target: FockVector, cutoff: int) -> float:
    """1 - |<t|d>|^2 / ||d||^2 at the point reading, d the unnormalized
    output and ||d|| its full norm, mass above the cutoff included."""
    out = conditional_output(p, cutoff, check_input_tail=False)
    return 1.0 - (1.0 - out.truncation_loss) * (1.0 - misfit(out, target))


def at_reading(x: float) -> SchemeParams:
    """ROW_BINOM_HM read at x with no window."""
    return replace(ROW_BINOM_HM, measurement=HM(x, ROW_BINOM_HM.measurement.lam))


def test_average_misfit_degenerate_window():
    # as the window closes, eps_avg tends to the full-norm misfit at x and
    # P / (2 delta) to the outcome density there, with no loss of precision
    tgt = binomial_state(0.45, 8, 40)
    eps_x = full_norm_misfit(at_reading(0.61), tgt, 40)
    density = hm_outcome_density(ROW_BINOM_HM, 0.61, 40, check_input_tail=False)
    for delta in (1e-4, 1e-8, 1e-12, 1e-200):
        got = score(replace(ROW_BINOM_HM, measurement=HM(0.61, 0.04, delta)), tgt, 40,
                    check_input_tail=False)
        assert got.eps_avg == pytest.approx(eps_x, abs=1e-9)
        assert got.success_prob / (2.0 * delta) == pytest.approx(density, rel=1e-8)


def test_average_misfit_bounded_by_pointwise_misfits():
    # eps_avg is a mean of the full-norm pointwise misfits, weighted by the
    # outcome density
    tgt = binomial_state(0.45, 8, 40)
    m = ROW_BINOM_HM.measurement
    eps_x = [full_norm_misfit(at_reading(x), tgt, 40)
             for x in np.linspace(m.x - m.window_halfwidth, m.x + m.window_halfwidth, 41)]
    got = average_misfit(ROW_BINOM_HM, tgt, 40, check_input_tail=False)
    assert min(eps_x) <= got <= max(eps_x)


def midpoint_window(m: HM, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoints of pieces equal pieces of x +/- delta and their width."""
    edges = np.linspace(m.x - m.window_halfwidth, m.x + m.window_halfwidth, pieces + 1)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def test_average_misfit_matches_oracle_weighted_sum():
    # a 4001-piece midpoint sum of oracle outputs, full norm, converges on
    # the exact integral
    tgt = binomial_state(0.45, 8, 40)
    window = midpoint_window(ROW_BINOM_HM.measurement, 4001)
    want = oracle_window(ROW_BINOM_HM, tgt, 40, *window)[1]
    got = average_misfit(ROW_BINOM_HM, tgt, 40, check_input_tail=False)
    assert abs(got - want) <= 1e-9


def test_average_misfit_refinement_stable():
    # eps_avg was once a 21-piece midpoint sum: each piece's oracle
    # probability times the misfit of the output at its midpoint.  The
    # exact integral, that sum's limit, sits 1.5e-3 to 2.5e-3 above it.
    tgt = binomial_state(0.45, 8, 40)
    m = ROW_BINOM_HM.measurement
    mids, width = midpoint_window(m, 21)
    probs = [oracle_window(ROW_BINOM_HM, tgt, 40,
                           *gauss_legendre_window(HM(x, m.lam, w / 2), 128))[0]
             for x, w in zip(mids, width)]
    eps = [misfit(conditional_output(at_reading(x), 40, check_input_tail=False), tgt) for x in mids]
    old = float(np.dot(probs, eps) / np.sum(probs))
    got = average_misfit(ROW_BINOM_HM, tgt, 40, check_input_tail=False)
    assert 1.5e-3 <= (got - old) / old <= 2.5e-3


def test_average_misfit_refuses_a_window_below_the_double_range():
    p = replace(ROW_BINOM_HM, measurement=HM(0.61, 0.04, 5e-324))
    assert 0.0 <= success_prob_hm(p, 30, check_input_tail=False) < 1e-300
    with pytest.raises(NormalizationError, match="below the double range"):
        average_misfit(p, binomial_state(0.45, 8, 30), 30, check_input_tail=False)


def test_average_misfit_validates_arguments():
    tgt = binomial_state(0.45, 8, 40)
    no_window = SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4))
    with pytest.raises(ValueError):
        average_misfit(no_window, tgt, 40, check_input_tail=False)
    spd = SchemeParams(GENERIC_A, GENERIC_B, 0.42, SPD())
    with pytest.raises(TypeError):
        average_misfit(spd, tgt, 40, check_input_tail=False)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SchemeParams(GENERIC_A, GENERIC_B, 0.05, SPD())
    with pytest.raises(ValueError):
        HM(5.0, 0.0)
    with pytest.raises(ValueError):
        HM(1.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        SqueezedCoherentParams(-0.1, 0.0, 0.0, 0.0)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize(
    "cls, args",
    [
        (HM, (0.6, 0.1, _NAN)),
        (HM, (0.6, 0.1, _INF)),
        (HM, (0.6, _NAN)),
        (HM, (0.6, -_INF)),
        (SqueezedCoherentParams, (_NAN, 0.0, 0.5, 0.0)),
        (SqueezedCoherentParams, (_INF, 0.0, 0.5, 0.0)),
        (SqueezedCoherentParams, (0.3, _NAN, 0.5, 0.0)),
        (SqueezedCoherentParams, (0.3, 0.0, _NAN, 0.0)),
        (SqueezedCoherentParams, (0.3, 0.0, _INF, 0.0)),
        (SqueezedCoherentParams, (0.3, 0.0, 0.5, -_INF)),
    ],
    ids=[
        "halfwidth-nan", "halfwidth-inf", "lam-nan", "lam-inf",
        "r-nan", "r-inf", "theta-nan", "alpha-nan", "alpha-inf", "phi-inf",
    ],
)
def test_non_finite_parameters_rejected(cls, args):
    with pytest.raises(ValueError, match="finite"):
        cls(*args)


# ------------------------------------------------------------ batched route


def box_draws(rng: np.random.Generator, kind: str, count: int) -> list[SchemeParams]:
    """Uniform draws from the acceptance criterion-1 box, in its draw order."""
    def arm() -> SqueezedCoherentParams:
        return SqueezedCoherentParams(
            rng.uniform(0.05, 1.7), rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0 * math.pi),
        )

    out = []
    for _ in range(count):
        meas = SPD() if kind == "spd" else HM(rng.uniform(0.0, 4.0),
                                              rng.uniform(0.0, 2.0 * math.pi))
        out.append(SchemeParams(arm(), arm(), rng.uniform(0.1, 0.9), meas))
    return out


def input_tail_norm(arm: SqueezedCoherentParams, cutoff: int) -> float:
    """Norm of an input's amplitudes above the cutoff."""
    a = squeezed_coherent_amplitudes(arm, 1000)
    head = float(np.sum(np.abs(a[: cutoff + 1]) ** 2))
    # 1 - head is exact to rounding for heavy tails, the partial sum for light ones
    return math.sqrt(max(1.0 - head, float(np.sum(np.abs(a[cutoff + 1:]) ** 2))))


def batch_amplitudes(points: list[SchemeParams], cutoff: int) -> np.ndarray:
    """Unnormalized batched outputs over |0>..|cutoff>, one row per point."""
    rows = np.array([params_to_vector(p)[0] for p in points])
    states, weights = core_outputs(rows, cutoff)
    return states * np.sqrt(weights)[:, None]


def closed_amplitudes(p: SchemeParams, cutoff: int) -> np.ndarray:
    out = conditional_output(p, cutoff, check_input_tail=False)
    return out.state.amps * math.sqrt(out.raw_weight)


def test_batch_matches_scalar_closed_form():
    # the 400 draws of acceptance criterion 1: the closed form truncates the
    # inputs at the cutoff, the batch keeps them whole
    rng = np.random.default_rng(20260823)
    spd = box_draws(rng, "spd", 200)
    # the SPD projection is a contraction, so the truncated inputs move the
    # retained output by at most the norms of the two input tails
    for p, core in zip(spd, batch_amplitudes(spd, 30)):
        gap = np.linalg.norm(closed_amplitudes(p, 30) - core)
        assert gap <= input_tail_norm(p.in1, 30) + input_tail_norm(p.in2, 30) + 1e-12
    # HM: on the draws with heavy input tails the closed form closes in on
    # the batch as the cutoff doubles
    hm = [p for p in box_draws(rng, "hm", 200)
          if input_tail_norm(p.in1, 30) + input_tail_norm(p.in2, 30) > 1e-4]
    assert len(hm) > 150
    for p, core in zip(hm, batch_amplitudes(hm, 30)):
        gap_30 = np.linalg.norm(closed_amplitudes(p, 30) - core)
        gap_60 = np.linalg.norm(closed_amplitudes(p, 60)[:31] - core)
        assert gap_60 <= 0.6 * gap_30


# a sub-box whose input tails above |60> hold below 1e-32 of the mass
_LIGHT_ARMS = st.builds(
    SqueezedCoherentParams,
    st.floats(0.0, 0.3), st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 1.5), st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=120, deadline=None)
@given(
    in1=_LIGHT_ARMS, in2=_LIGHT_ARMS, t=st.floats(0.1, 0.9),
    meas=st.one_of(st.just(SPD()),
                   st.builds(HM, st.floats(0.0, 4.0), st.floats(0.0, 2.0 * math.pi))),
)
def test_core_matches_closed_form_where_input_tails_vanish(in1, in2, t, meas):
    p = SchemeParams(in1, in2, t, meas)
    vec = params_to_vector(p)[0]
    states, weights = core_outputs(vec[None], 60)
    ref = conditional_output(p, 60, check_input_tail=False)
    # below a density of about 1e-8 the input tails, small as they are, move
    # the closed form by more than 1e-12 (a 50-digit evaluation of the
    # truncated sum agrees with the closed form there, and one at cutoff 90
    # with the batch)
    assume(ref.raw_weight >= 1e-8)
    assert overlap_deficit(states[0], ref.state.amps) <= 1e-12
    assert weights[0] == pytest.approx(ref.raw_weight, rel=1e-10)


def test_batch_keeps_underflowing_weight_in_log_form(monkeypatch):
    # this box point's output over |0>..|30> has a weight of about 1e-331,
    # below the smallest double, and the whole output one of 2.06e-121 with
    # a squared norm of e^583 beside the scale |C|^2 = e^-861: the batch
    # keeps both in log form, and its misfit equals the scalar core's
    row = np.array([1.306, 3.966, 3.238, 5.876, 1.557, 1.413, 2.692, 3.725, 0.223, 3.469, 2.249])
    tgt = binomial_state(0.3, 7, 30)
    monkeypatch.setattr(scheme, "conditional_output", _no_route)
    eps, weights = scheme._core_misfit_batch(tgt)(row[None])
    assert eps[0] == scheme._core_misfit(tgt)(scheme._bargmann_point(row))[0]
    assert weights[0] == pytest.approx(2.0595062584042e-121, rel=1e-12)
    assert 0.0 <= core_outputs(row[None], 30)[1][0] < 1e-300


@pytest.mark.parametrize("kind", ["spd", "hm"])
def test_batch_evaluates_every_box_corner(kind, monkeypatch):
    b = Bounds.for_kind(kind)
    rows = np.array(list(itertools.product(*zip(b.lower, b.upper))))
    tgt = binomial_state(0.3, 7, tol.SEARCH_CUTOFF)
    monkeypatch.setattr(scheme, "conditional_output", _no_route)
    # only vacuum in both arms cannot herald, and only under SPD
    vacuum = (rows[:, [0, 2, 4, 6]] == 0.0).all(axis=1) & (kind == "spd")
    eps, weights = scheme._core_misfit_batch(tgt)(rows[~vacuum])
    assert np.all((-1e-15 <= eps) & (eps <= 1.0)) and np.all(np.isfinite(weights))
    assert vacuum.sum() == (32 if kind == "spd" else 0)  # 2^5 for angles and T
    for row in rows[vacuum]:
        with pytest.raises(NormalizationError, match="heralded output is not finite or zero"):
            scheme._core_misfit_batch(tgt)(row[None])


def test_batch_evaluates_coherent_rows_in_closed_form(monkeypatch):
    vec, _, _ = params_to_vector(SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4)))
    rows = np.tile(vec, (5, 1))
    rows[1, 0] = 0.0                       # coherent input 1
    rows[3, 4] = 5e-9                      # nearly coherent input 2
    rows[4, 1] += 2.0 * math.pi            # unwrapped angle stays regular
    tgt = binomial_state(0.3, 7, 60)
    for width in (11, 9):
        # at cutoff 60 the input tails vanish, so the scalar route agrees
        refs = {
            i: conditional_output(vector_to_params(rows[i, :width]), 60,
                                  check_input_tail=False)
            for i in (1, 3)
        }
        # no row leaves the batch for the scalar route
        with monkeypatch.context() as m:
            m.setattr(scheme, "conditional_output", _no_route)
            eps, weights = scheme._core_misfit_batch(tgt)(rows[:, :width])
        for i, ref in refs.items():
            assert eps[i] == pytest.approx(misfit(ref, tgt), abs=1e-12)
            assert weights[i] == pytest.approx(ref.raw_weight, rel=1e-12)
        assert eps[4] == pytest.approx(eps[0], abs=1e-12)
        assert weights[4] == pytest.approx(weights[0], rel=1e-12)


def test_batch_raises_where_scalar_route_raises():
    vec, _, _ = params_to_vector(SchemeParams(GENERIC_A, GENERIC_B, 0.42, HM(0.8, 0.4)))
    rows = np.tile(vec, (3, 1))
    tgt = binomial_state(0.3, 7, 20)
    rows[2, 8] = 0.95
    with pytest.raises(ValueError, match=r"transmittance 0.95 outside \[0.1, 0.9\]"):
        scheme._core_misfit_batch(tgt)(rows[:, :9])
    rows[2, 8] = 0.42
    rows[1, 9] = 4.5
    with pytest.raises(ValueError, match=r"quadrature value 4.5 outside \[0, 4\]"):
        scheme._core_misfit_batch(tgt)(rows)


@pytest.mark.parametrize("row", [ROW_BINOM_SPD, ROW_BINOM_HM], ids=["spd", "hm"])
def test_batch_raises_on_non_finite_core_row(row, monkeypatch):
    # r = 1000 overflows cosh r in the core; the batch names the row and
    # has no other route to send it to
    monkeypatch.setattr(scheme, "conditional_output", _no_route)
    rows = np.tile(params_to_vector(row)[0], (3, 1))
    rows[1, 4] = 1000.0
    with pytest.raises(NormalizationError, match="row 1: heralded output is not finite"):
        scheme._core_misfit_batch(binomial_state(0.3, 7, 20))(rows)


def test_spd_high_cutoff_stays_finite():
    # sqrt((2N)!) overflows a double above 2N = 340
    lo = conditional_output(ROW_BINOM_SPD, 100)
    hi = conditional_output(ROW_BINOM_SPD, 200)
    assert np.all(np.isfinite(hi.state.amps))
    assert abs(np.vdot(lo.state.amps, hi.state.amps[:101])) == pytest.approx(1.0, abs=1e-12)
    assert success_prob_spd(ROW_BINOM_SPD, 200) == pytest.approx(
        success_prob_spd(ROW_BINOM_SPD, 100), abs=1e-12
    )

"""Loss modeling and the sensitivity sweeps."""

import warnings

import numpy as np
import pytest
from _operator_reference import (
    basis_state,
    coherent_state,
    loss_dilation,
    loss_kraus_sum,
    partial_trace,
)
from test_scheme import box_draws

from heraldkit import imperfections
from heraldkit.fock import DensityMatrix, FockVector, _loss_amplitudes, fidelity
from heraldkit.imperfections import (
    ImperfectionSpec,
    conditional_output_lossy,
    loss_channel,
    sweep_efficiency,
    sweep_parameter_deviation,
)
from heraldkit.scheme import (
    HM,
    SPD,
    SchemeParams,
    conditional_output,
    embedded_two_mode_state,
    hm_outcome_density,
    misfit,
    success_prob_spd,
)
from heraldkit.reference_rows import all_rows
from heraldkit.states import SqueezedCoherentParams, binomial_state

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


def random_density(cutoff: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((cutoff + 1, cutoff + 1)) + 1j * rng.standard_normal(
        (cutoff + 1, cutoff + 1)
    )
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, cutoff)


def random_pure(cutoff: int, seed: int) -> FockVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    return FockVector(amps / np.linalg.norm(amps), cutoff)


# ------------------------------------------------------------ loss channel


def test_single_photon_loss():
    rho = loss_channel(basis_state(1, 10), 0.75)
    expect = np.zeros((11, 11))
    expect[0, 0] = 0.25
    expect[1, 1] = 0.75
    np.testing.assert_allclose(rho.rho, expect, atol=1e-12)


def test_coherent_state_stays_coherent():
    alpha = 1.1 * np.exp(0.4j)
    eta = 0.8
    rho = loss_channel(coherent_state(alpha, 40), eta)
    shrunk = coherent_state(np.sqrt(eta) * alpha, 40)
    assert fidelity(shrunk, rho) >= 1 - 1e-10


def test_identity_channel():
    rho_in = random_density(12, seed=3)
    rho_out = loss_channel(rho_in, 1.0)
    np.testing.assert_allclose(rho_out.rho, rho_in.rho, atol=1e-12)


def test_full_absorption_gives_vacuum():
    rho = loss_channel(random_pure(12, seed=4), 0.0)
    expect = np.zeros((13, 13))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(rho.rho, expect, atol=1e-12)


@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_trace_preserved(eta):
    for state in (random_pure(15, seed=7), random_density(15, seed=8)):
        rho = loss_channel(state, eta)
        assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(rho.rho, rho.rho.conj().T, atol=1e-12)


def test_channel_composition():
    psi = random_pure(15, seed=11)
    once = loss_channel(loss_channel(psi, 0.8), 0.9)
    direct = loss_channel(psi, 0.72)
    np.testing.assert_allclose(once.rho, direct.rho, atol=1e-10)


@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_kraus_route_matches_dilation_route(eta):
    # the closed-form Kraus sum, on a pure state and on its density matrix,
    # against the explicit vacuum-ancilla dilation of the tests' reference
    psi = random_pure(12, seed=13)
    via_dilation = loss_dilation(psi, eta)
    rho_in = DensityMatrix(np.outer(psi.amps, psi.amps.conj()), 12)
    for state in (psi, rho_in):
        np.testing.assert_allclose(loss_channel(state, eta).rho, via_dilation.rho, atol=1e-12)


@pytest.mark.parametrize("cutoff", [40, 60])
@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_kraus_route_matches_dilation_route_at_higher_cutoffs(cutoff, eta):
    psi = random_pure(cutoff, seed=cutoff)
    via_dilation = loss_dilation(psi, eta)
    rho_in = DensityMatrix(np.outer(psi.amps, psi.amps.conj()), cutoff)
    for state in (psi, rho_in):
        np.testing.assert_allclose(loss_channel(state, eta).rho, via_dilation.rho, atol=1e-12)


@pytest.mark.parametrize("cutoff", [12, 40, 60, 200])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.72, 0.95, 1.0])
def test_toeplitz_product_matches_kraus_loop(cutoff, eta):
    # the kappa-scaled weights keep cutoff 200 in range: the two routes
    # differ by at most 6.6e-16 on these states, and the endpoints raise no
    # warning
    for state in (random_pure(cutoff, seed=17), random_density(cutoff, seed=19)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = loss_channel(state, eta).rho
        assert np.max(np.abs(got - loss_kraus_sum(state, eta).rho)) <= 2e-15
        np.testing.assert_array_equal(got, got.conj().T)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 1.0])
def test_single_loss_row_is_bit_identical(eta):
    # the single-photon herald builds row 1 of the loss table alone
    for n_max in (60, 120):
        np.testing.assert_array_equal(
            _loss_amplitudes(eta, n_max, kept=1), _loss_amplitudes(eta, n_max)[1]
        )


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 1.0])
def test_loss_amplitudes_match_gammaln_formula(eta):
    # scipy's gammaln and xlogy as an independent reference.  Both sides
    # round log-factorials near 460 at n = 120, where one unit in the last
    # place is 1e-13, so they differ by a few 1e-14 in the interior (the
    # reference itself is 2e-14 off a 50-digit evaluation); the endpoints
    # are exact and raise no warning.
    from scipy.special import gammaln, xlogy

    n = np.arange(121)
    kept = n[:, None]
    lost = n[None, :] - kept
    valid = lost >= 0
    lost = np.where(valid, lost, 0)
    log_sq = (
        gammaln(n + 1.0) - gammaln(kept + 1.0) - gammaln(lost + 1.0)
        + xlogy(kept, eta) + xlogy(lost, 1.0 - eta)
    )
    ref = np.where(valid, np.exp(0.5 * log_sq), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        amps = imperfections._loss_amplitudes(eta, 120)
    bound = 0.0 if eta in (0.0, 1.0) else 1e-13
    assert np.max(np.abs(amps - ref)) <= bound


def test_loss_channel_validates_eta():
    with pytest.raises(ValueError):
        loss_channel(basis_state(0, 5), 1.2)
    with pytest.raises(ValueError):
        loss_channel(basis_state(0, 5), -0.1)


def test_imperfection_spec_validation():
    with pytest.raises(ValueError):
        ImperfectionSpec(eta_det=1.5)
    with pytest.raises(ValueError):
        ImperfectionSpec(eta_signal=-0.2)


# ------------------------------------------------------------ lossy pipeline


@pytest.mark.parametrize("p", [ROW_BINOM_SPD, ROW_BINOM_HM], ids=["spd", "hm"])
def test_unit_efficiency_reproduces_ideal(p):
    rho, weight = conditional_output_lossy(
        p, ImperfectionSpec(), 30, check_input_tail=False
    )
    ideal = conditional_output(p, 30, check_input_tail=False)
    assert fidelity(ideal.state, rho) >= 1 - 1e-12
    if isinstance(p.measurement, SPD):
        expect = success_prob_spd(p, 30, check_input_tail=False)
        assert weight == pytest.approx(expect, rel=1e-10)


# the bundled rows 02 and 03 and the first criterion-1 box draws of each kind
IDEAL_DETECTOR_POINTS = (
    [r.params for r in all_rows() if r.row_id in ("02-binom-0.3-7-spd", "03-binom-0.45-8-hm")]
    + box_draws(np.random.default_rng(20260823), "spd", 3)
    + box_draws(np.random.default_rng(20260823), "hm", 3)
)


@pytest.mark.parametrize("p", IDEAL_DETECTOR_POINTS, ids=[
    "row02", "row03", "box-spd-0", "box-spd-1", "box-spd-2", "box-hm-0", "box-hm-1", "box-hm-2",
])
def test_ideal_detector_closed_route_matches_walk(p):
    # an ideal detector heralds on the closed route, so its output is the
    # ideal state; the embedded walk at eta_det = 1 is the independent
    # check, to criterion 5's bounds
    rho, weight = conditional_output_lossy(p, ImperfectionSpec(), 30, check_input_tail=False)
    walk_rho, walk_weight = imperfections._herald_lossy(
        embedded_two_mode_state(p, 30, False), p, ImperfectionSpec(), 30
    )
    assert weight == pytest.approx(walk_weight, rel=1e-10)
    # the output is pure: its one vector against the walk's state
    state = FockVector(np.linalg.eigh(rho.rho)[1][:, -1], 30)
    assert fidelity(state, walk_rho) >= 1 - 1e-12


@pytest.mark.parametrize("p", IDEAL_DETECTOR_POINTS[:2], ids=["spd", "hm"])
def test_ideal_detector_seam(p):
    # eta_det = 1 - 1e-9 walks the embedding, eta_det = 1 takes the closed
    # route: one lost photon in 1e9 moves the weight by about <n> 1e-9 of
    # itself and the state by as little, well inside 1e-7
    eps = 1e-9
    mixed = embedded_two_mode_state(p, 30, False)
    near, near_weight = imperfections._herald_lossy(mixed, p, ImperfectionSpec(1.0 - eps), 30)
    rho, weight = conditional_output_lossy(p, ImperfectionSpec(), 30, check_input_tail=False)
    assert near_weight == pytest.approx(weight, rel=100 * eps)
    assert np.max(np.abs(near.rho - rho.rho)) <= 100 * eps


def test_blind_detector_never_heralds():
    rho, weight = conditional_output_lossy(
        ROW_BINOM_SPD, ImperfectionSpec(eta_det=0.0), 30, check_input_tail=False
    )
    assert rho is None
    assert weight == 0.0


def test_lossy_output_is_valid_density_matrix():
    for imp in (ImperfectionSpec(eta_det=0.85), ImperfectionSpec(eta_signal=0.85),
                ImperfectionSpec(eta_det=0.9, eta_signal=0.8)):
        rho, weight = conditional_output_lossy(
            ROW_BINOM_SPD, imp, 30, check_input_tail=False
        )
        assert weight > 0.0
        np.testing.assert_allclose(rho.rho, rho.rho.conj().T, atol=1e-12)
        assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho.rho)) >= -1e-10


def test_signal_loss_factorizes_through_loss_channel():
    # loss after conditioning is exactly the loss channel applied to the
    # ideal conditional state, and does not change the herald weight
    eta = 0.83
    rho, weight = conditional_output_lossy(
        ROW_BINOM_SPD, ImperfectionSpec(eta_signal=eta), 30, check_input_tail=False
    )
    ideal = conditional_output(ROW_BINOM_SPD, 30, check_input_tail=False)
    expect = loss_channel(ideal.state, eta)
    np.testing.assert_allclose(rho.rho, expect.rho, atol=1e-10)
    assert weight == pytest.approx(
        success_prob_spd(ROW_BINOM_SPD, 30, check_input_tail=False), rel=1e-10
    )


def test_inefficient_spd_herald_weight_matches_povm():
    # heralding on one photon behind a loss eta is the diagonal POVM
    # element n eta (1-eta)^(n-1) on the pre-loss measured arm
    eta = 0.7
    _, weight = conditional_output_lossy(
        ROW_BINOM_SPD, ImperfectionSpec(eta_det=eta), 30, check_input_tail=False
    )
    st = embedded_two_mode_state(ROW_BINOM_SPD, 30, check_input_tail=False)
    rho3 = partial_trace(st.amps)
    diag = np.diag(rho3.rho).real / np.trace(rho3.rho).real
    n = np.arange(61)
    povm = n * eta * (1.0 - eta) ** (n - 1)
    povm[0] = 0.0
    assert weight == pytest.approx(float(np.dot(povm, diag)), rel=1e-10)


def test_inefficient_hm_herald_weight_matches_noisy_density():
    # loss eta before homodyne adds vacuum noise: the density of reading x
    # is the ideal outcome density at y smeared by N(x; sqrt(eta) y, (1-eta)/2)
    eta, x = 0.8, ROW_BINOM_HM.measurement.x
    _, weight = conditional_output_lossy(
        ROW_BINOM_HM, ImperfectionSpec(eta_det=eta), 30, check_input_tail=False
    )
    ys = np.linspace(-9.0, 9.0, 361)
    density = [hm_outcome_density(ROW_BINOM_HM, y, 30, check_input_tail=False) for y in ys]
    var = 0.5 * (1.0 - eta)
    noise = np.exp(-((x - np.sqrt(eta) * ys) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    assert weight == pytest.approx(float(np.trapezoid(density * noise, ys)), rel=1e-10)


@pytest.mark.parametrize("p", [ROW_BINOM_SPD, ROW_BINOM_HM], ids=["spd", "hm"])
def test_detector_loss_strictly_degrades_fit(p):
    tgt = binomial_state(0.3, 7, 30) if isinstance(p.measurement, SPD) else \
        binomial_state(0.45, 8, 30)
    ideal = misfit(conditional_output(p, 30, check_input_tail=False), tgt)
    rho, _ = conditional_output_lossy(
        p, ImperfectionSpec(eta_det=0.9), 30, check_input_tail=False
    )
    assert misfit(rho, tgt) > ideal


# ------------------------------------------------------------------- sweeps


def test_deviation_sweep_zero_point_is_exact():
    tgt = binomial_state(0.3, 7, 30)
    pts = sweep_parameter_deviation(
        ROW_BINOM_SPD, tgt, [0.0, 0.05], n_samples=8, seed=5, cutoff=30
    )
    ideal = misfit(conditional_output(ROW_BINOM_SPD, 30, check_input_tail=False), tgt)
    assert pts[0].sweep_var == 0.0
    assert pts[0].misfit_mean == ideal
    assert pts[0].misfit_max == ideal


def test_deviation_sweep_levels_match_scalar_evaluations():
    levels = [0.0, 0.02, 0.1]
    for row, tgt in ((ROW_BINOM_SPD, binomial_state(0.3, 7, 30)),
                     (ROW_BINOM_HM, binomial_state(0.45, 8, 30))):
        pts = sweep_parameter_deviation(row, tgt, levels, n_samples=12, seed=4, cutoff=30)
        envelope = -np.inf
        for d, child, pt in zip(levels, np.random.SeedSequence(4).spawn(3), pts):
            if d == 0.0:
                xi = np.zeros((1, 8))
            else:
                xi = np.random.default_rng(child).uniform(-1.0, 1.0, size=(12, 8))
            eps, weights = [], []
            for s in xi:
                arms = [
                    SqueezedCoherentParams(
                        base.r * (1.0 + d * s[k]), base.theta + 2.0 * np.pi * d * s[k + 1],
                        base.alpha_abs * (1.0 + d * s[k + 2]),
                        base.phi + 2.0 * np.pi * d * s[k + 3],
                    )
                    for base, k in ((row.in1, 0), (row.in2, 4))
                ]
                q = SchemeParams(*arms, row.transmittance, row.measurement)
                if d == 0.0:
                    out = conditional_output(q, 30, check_input_tail=False)
                    eps.append(misfit(out, tgt))
                    weights.append(out.raw_weight)
                    continue
                # the batched levels keep the inputs and the output whole:
                # compare with the scalar route at |100>, where the target
                # is padded with zeros
                out = conditional_output(q, 100, check_input_tail=False)
                eps.append(misfit(out, FockVector(np.pad(tgt.amps, (0, 70)), 100)))
                weights.append(out.raw_weight)
            envelope = max(envelope, max(eps))
            assert pt.misfit_mean == pytest.approx(np.mean(eps), abs=1e-12)
            assert pt.misfit_max == pytest.approx(envelope, abs=1e-12)
            assert pt.herald_weight == pytest.approx(np.mean(weights), rel=1e-12)


def test_deviation_sweep_deterministic_and_order_insensitive():
    tgt = binomial_state(0.3, 7, 30)
    kw = dict(n_samples=6, seed=9, cutoff=30)
    a = sweep_parameter_deviation(ROW_BINOM_SPD, tgt, [0.0, 0.02, 0.1], **kw)
    b = sweep_parameter_deviation(ROW_BINOM_SPD, tgt, [0.1, 0.0, 0.02], **kw)
    for pa, pb in zip(a, b):
        assert pa == pb


def test_deviation_sweep_envelope_monotone():
    tgt = binomial_state(0.3, 7, 30)
    for sampling in ("signed_uniform", "worst_case"):
        pts = sweep_parameter_deviation(
            ROW_BINOM_SPD, tgt, [0.0, 0.01, 0.05, 0.1, 0.2],
            sampling=sampling, n_samples=10, seed=3, cutoff=30,
        )
        maxes = [pt.misfit_max for pt in pts]
        assert all(b >= a for a, b in zip(maxes, maxes[1:]))


def test_deviation_sweep_small_deviation_stays_small():
    tgt = binomial_state(0.3, 7, 30)
    pts = sweep_parameter_deviation(
        ROW_BINOM_SPD, tgt, [0.01], n_samples=20, seed=1, cutoff=30
    )
    assert pts[0].misfit_max < 1e-1


def test_deviation_sweep_validation():
    tgt = binomial_state(0.3, 7, 30)
    with pytest.raises(ValueError):
        sweep_parameter_deviation(ROW_BINOM_SPD, tgt, [0.0, 0.5], cutoff=30)
    with pytest.raises(ValueError):
        sweep_parameter_deviation(ROW_BINOM_SPD, tgt, [0.1], sampling="gauss",
                                  cutoff=30)
    with pytest.raises(ValueError):
        sweep_parameter_deviation(ROW_BINOM_SPD, tgt, [0.1], n_samples=0, cutoff=30)


def test_efficiency_sweep_unit_endpoint():
    tgt = binomial_state(0.3, 7, 30)
    pts = sweep_efficiency(
        ROW_BINOM_SPD, tgt, [0.9, 1.0, 0.8], cutoff=30, check_input_tail=False
    )
    ideal = misfit(conditional_output(ROW_BINOM_SPD, 30, check_input_tail=False), tgt)
    assert [pt.sweep_var for pt in pts] == [0.8, 0.9, 1.0]
    assert abs(pts[-1].misfit_mean - ideal) <= 1e-12
    # lower efficiency never helps
    eps = [pt.misfit_mean for pt in pts]
    assert eps[0] > eps[1] > eps[2]


def test_efficiency_sweep_signal_blackout():
    tgt = binomial_state(0.3, 7, 30)
    pts = sweep_efficiency(
        ROW_BINOM_SPD, tgt, [0.0], which="signal", cutoff=30, check_input_tail=False
    )
    # total absorption leaves vacuum on the signal arm
    expect = 1.0 - abs(tgt.amps[0]) ** 2
    assert pts[0].misfit_mean == pytest.approx(expect, abs=1e-10)


def test_efficiency_sweep_embeds_once(monkeypatch):
    tgt = binomial_state(0.45, 8, 30)
    etas = [0.95, 0.7, 0.85]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return embedded_two_mode_state(*args, **kwargs)

    monkeypatch.setattr(imperfections, "embedded_two_mode_state", counting)
    pts = sweep_efficiency(
        ROW_BINOM_HM, tgt, etas, which="both", cutoff=30, check_input_tail=False
    )
    assert len(calls) == 1
    monkeypatch.undo()
    for pt, eta in zip(pts, sorted(etas)):
        rho, weight = conditional_output_lossy(
            ROW_BINOM_HM, ImperfectionSpec(eta, eta), 30, check_input_tail=False
        )
        eps = misfit(rho, tgt)
        assert (pt.sweep_var, pt.misfit_mean, pt.misfit_max, pt.herald_weight) == (
            eta, eps, eps, weight
        )


@pytest.mark.parametrize("which, etas, embeds", [
    ("signal", [0.7, 1.0, 0.9], 0),
    ("det", [1.0, 1.0], 0),
    ("det", [1.0, 0.9, 0.8], 1),
    ("both", [0.9, 1.0], 1),
])
def test_efficiency_sweep_embeds_only_for_detector_loss(monkeypatch, which, etas, embeds):
    # an ideal detector heralds on the closed route; the grid embeds the
    # two-mode state once, at its first point with detector loss, or never
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return embedded_two_mode_state(*args, **kwargs)

    monkeypatch.setattr(imperfections, "embedded_two_mode_state", counting)
    for p, tgt in ((ROW_BINOM_SPD, binomial_state(0.3, 7, 30)),
                   (ROW_BINOM_HM, binomial_state(0.45, 8, 30))):
        calls.clear()
        sweep_efficiency(p, tgt, etas, which=which, cutoff=30, check_input_tail=False)
        assert len(calls) == embeds


def test_efficiency_sweep_validation():
    tgt = binomial_state(0.3, 7, 30)
    with pytest.raises(ValueError):
        sweep_efficiency(ROW_BINOM_SPD, tgt, [0.9], which="elsewhere", cutoff=30)
    with pytest.raises(ValueError):
        sweep_efficiency(ROW_BINOM_SPD, tgt, [1.5], cutoff=30)

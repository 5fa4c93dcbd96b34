"""Input- and target-state constructors against first-principles oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _operator_reference import (
    basis_state,
    coherent_state,
    displacement_operator_matrix,
    squeeze_operator_matrix,
)
from scipy.linalg import expm

from heraldkit.errors import TailMassError, TruncationQualityError
from heraldkit.fock import FockVector, fidelity
from heraldkit.states import (
    AdHoc,
    AmplitudeSqueezed,
    Binomial,
    NegativeBinomial,
    Resource,
    SqueezedCoherentParams,
    _amplitudes,
    _bargmann_coefficients,
    _recurrence_roots,
    adhoc_superposition,
    amplitude_squeezed_state,
    binomial_state,
    check_tail_mass,
    negative_binomial_state,
    resource_state,
    squeezed_coherent_amplitudes,
    target_state,
)


def overlap(a, b) -> float:
    return abs(np.vdot(a.amps, b.amps))


def squeezed_coherent(p: SqueezedCoherentParams, cutoff: int) -> FockVector:
    """The input p truncated at the cutoff and normalized there."""
    return FockVector(squeezed_coherent_amplitudes(p, cutoff), cutoff).normalized()


# ---------------------------------------------------------------- inputs


def test_squeezed_coherent_vacuum():
    v = squeezed_coherent(SqueezedCoherentParams(0.0, 0.0, 0.0, 0.0), 20)
    assert v.amps[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(v.amps[1:])) == 0.0


def test_squeezed_coherent_coherent_branch():
    v = squeezed_coherent(SqueezedCoherentParams(0.0, 0.0, 1.0, 0.0), 40)
    assert v.amps[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
    for n in (1, 2, 5, 9):
        assert v.amps[n] == pytest.approx(
            math.exp(-0.5) / math.sqrt(math.factorial(n)), abs=1e-12
        )


def operator_oracle(p: SqueezedCoherentParams, cutoff: int) -> np.ndarray:
    """D(alpha) S(zeta) |0> assembled from the operator matrices at a
    comfortably larger cutoff, then truncated and normalized."""
    big = 2 * cutoff
    zeta = p.r * np.exp(1j * p.theta)
    alpha = p.alpha_abs * np.exp(1j * p.phi)
    col = (
        displacement_operator_matrix(alpha, big)
        @ squeeze_operator_matrix(zeta, big)[:, 0]
    )
    col = col[: cutoff + 1]
    return col / np.linalg.norm(col)


def test_squeezed_coherent_matches_operator_oracle():
    p = SqueezedCoherentParams(0.5, 0.3, 0.8, 1.1)
    v = squeezed_coherent(p, 40)
    assert overlap(v, type(v)(operator_oracle(p, 40), 40)) >= 1 - 1e-10


@pytest.mark.parametrize(
    "p",
    [
        SqueezedCoherentParams(1e-6, 0.0, 0.5, 0.7),
        SqueezedCoherentParams(0.2, 4.1, 0.0, 0.0),
        SqueezedCoherentParams(1.1, 2.2, 1.5, 5.9),
        SqueezedCoherentParams(1.7, 0.9, 0.3, 3.3),
    ],
)
def test_squeezed_coherent_oracle_across_range(p):
    v = squeezed_coherent(p, 40)
    ref = operator_oracle(p, 40)
    assert abs(np.vdot(v.amps, ref)) >= 1 - 1e-10


def test_squeezed_coherent_continuous_at_branch_switch():
    # one recurrence covers every r >= 0, so the nearly coherent state
    # must not jump between these two squeezings
    lo = squeezed_coherent(SqueezedCoherentParams(1e-9, 0.4, 0.8, 1.1), 40)
    hi = squeezed_coherent(SqueezedCoherentParams(1e-6, 0.4, 0.8, 1.1), 40)
    assert overlap(lo, hi) >= 1 - 1e-9


_ANGLE = st.floats(-20.0, 20.0)
# one input arm over the search box: r, theta, |alpha|, phi
_ARM = st.tuples(st.floats(0.0, 1.7), _ANGLE, st.floats(0.0, 4.0), _ANGLE)


@settings(max_examples=150, deadline=None)
@given(arms=st.lists(_ARM, min_size=1, max_size=6), cutoff=st.integers(12, 40))
@example(arms=[(0.0, 0.3, 1.3, 1.1), (0.0, 0.0, 0.0, 0.0), (1.7, 2.0, 4.0, 5.0)], cutoff=40)
def test_amplitude_loops_agree(arms, cutoff):
    # one loop runs the recurrence for one input in Python complex
    # arithmetic and for a batch on numpy arrays, one row per input
    rows = np.array(_amplitudes(*_bargmann_coefficients(*np.array(arms).T),
                                _recurrence_roots(cutoff))).T
    for arm, row in zip(arms, rows):
        one = squeezed_coherent_amplitudes(SqueezedCoherentParams(*arm), cutoff)
        assert np.max(np.abs(row - one)) <= 1e-13 * np.max(np.abs(one))


def test_zero_squeezing_is_coherent_ladder():
    alpha = 1.3 * np.exp(1.1j)
    n = np.arange(41)
    ladder = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / [
        math.sqrt(math.factorial(k)) for k in n
    ]
    amps = squeezed_coherent_amplitudes(SqueezedCoherentParams(0.0, 0.4, 1.3, 1.1), 40)
    np.testing.assert_allclose(amps, ladder, rtol=1e-13, atol=0.0)


def test_squeezed_coherent_tail_guard():
    p = SqueezedCoherentParams(1.7, 0.0, 4.0, 0.0)
    with pytest.raises(TailMassError):
        check_tail_mass(squeezed_coherent_amplitudes(p, 15), 15)
    v = squeezed_coherent(p, 15)
    assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_matches_zero_squeezing():
    # the closed-form coherent state of the tests' reference
    a = coherent_state(0.8 * np.exp(1.1j), 40)
    b = squeezed_coherent(SqueezedCoherentParams(0.0, 0.0, 0.8, 1.1), 40)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)


# ---------------------------------------------------------------- targets


def test_binomial_endpoints_are_fock_states():
    assert fidelity(binomial_state(1.0, 3, 20), basis_state(3, 20)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert fidelity(binomial_state(0.0, 3, 20), basis_state(0, 20)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_binomial_half_single():
    v = binomial_state(0.5, 1, 10)
    assert v.amps[0] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert v.amps[1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_binomial_leading_coefficient():
    v = binomial_state(0.3, 7, 40)
    assert v.amps[0] == pytest.approx(0.7 ** 3.5, abs=1e-12)
    # support is exactly {0..M}
    assert np.count_nonzero(v.amps[8:]) == 0
    assert np.all(np.abs(v.amps[: 8]) > 0)


def test_negative_binomial_geometric_case():
    v = negative_binomial_state(0.5, 1, 0.0, 40)
    for n in (0, 1, 2, 7, 15):
        assert v.amps[n] == pytest.approx(math.sqrt(0.75) * 0.5 ** n, abs=1e-12)


def test_negative_binomial_zero_eta_is_vacuum():
    v = negative_binomial_state(0.0, 5, 0.3, 20)
    assert fidelity(v, basis_state(0, 20)) == pytest.approx(1.0, abs=1e-12)


def test_negative_binomial_phase_pattern():
    varphi = 0.7
    v = negative_binomial_state(0.4, 3, varphi, 30)
    for n in range(1, 12):
        assert np.angle(v.amps[n] / abs(v.amps[n])) == pytest.approx(
            (n * varphi + np.pi) % (2 * np.pi) - np.pi, abs=1e-12
        )


def test_amplitude_squeezed_limits():
    narrow = amplitude_squeezed_state(1.0, 0.01, 3.0, 40)
    assert fidelity(narrow, basis_state(3, 40)) >= 1 - 1e-6
    wide = amplitude_squeezed_state(1.0, 100.0, 1.0, 40, check_tail=False)
    coh = coherent_state(1.0, 40)
    assert fidelity(wide, coh) >= 0.999


def test_amplitude_squeezed_direct_evaluation():
    alpha0, u, delta = 1.0, 1.0, 1.0
    n = np.arange(41)
    logs = n * math.log(alpha0) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in n]
    ) - (delta - n) ** 2 / (2 * u ** 2)
    ref = np.exp(logs)
    ref /= np.linalg.norm(ref)
    v = amplitude_squeezed_state(alpha0, u, delta, 40)
    np.testing.assert_allclose(v.amps, ref, atol=1e-12)


def test_squeeze_matrix_identity_at_zero():
    np.testing.assert_allclose(squeeze_operator_matrix(0.0, 12), np.eye(13), atol=0)


def test_squeeze_matrix_vacuum_column():
    r = 0.6
    s = squeeze_operator_matrix(r, 40)
    col = s[:, 0]
    for k in range(0, 12):
        expect = (
            math.sqrt(math.factorial(2 * k))
            / math.factorial(k)
            * (-math.tanh(r) / 2) ** k
            / math.sqrt(math.cosh(r))
        )
        assert col[2 * k] == pytest.approx(expect, abs=1e-12)
    assert np.max(np.abs(col[1::2])) == 0.0


def test_squeeze_matrix_parity_rule_exact():
    s = squeeze_operator_matrix(0.8 * np.exp(0.5j), 20)
    m, n = np.meshgrid(np.arange(21), np.arange(21), indexing="ij")
    assert np.max(np.abs(s[(m - n) % 2 == 1])) == 0.0


def test_squeeze_matrix_block_unitarity():
    # squeezing spreads high columns past any cutoff; only an inner block
    # keeps unit column norms
    s = squeeze_operator_matrix(0.6, 120)
    inner = s[:, :21]
    np.testing.assert_allclose(np.linalg.norm(inner, axis=0), 1.0, atol=1e-8)
    np.testing.assert_allclose(inner.conj().T @ inner, np.eye(21), atol=1e-8)


def test_squeeze_matrix_against_expm():
    # brute-force matrix exponential of (zeta* a^2 - zeta a'^2)/2 at a
    # padded cutoff; only the inner block of the padded oracle is converged
    zeta = 0.5 * np.exp(0.9j)
    dim = 81
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    gen = (np.conj(zeta) * (a @ a) - zeta * (a.T @ a.T)) / 2.0
    full = expm(gen)
    s = squeeze_operator_matrix(zeta, 80)
    np.testing.assert_allclose(s[:30, :30], full[:30, :30], atol=1e-10)


def test_squeeze_matrix_refuses_large_argument():
    # the package refuses |zeta| > 2 where it squeezes: in the resource target
    with pytest.raises(ValueError):
        resource_state(2.5, 0.1, 40)


def test_displacement_matrix_vacuum_column_is_coherent():
    alpha = 0.7 - 0.2j
    d = displacement_operator_matrix(alpha, 40)
    np.testing.assert_allclose(d[:, 0], coherent_state(alpha, 40).amps, atol=1e-12)


def test_resource_state_zero_squeezing():
    v = resource_state(0.0, 0.0, 20)
    assert fidelity(v, basis_state(0, 20)) == pytest.approx(1.0, abs=1e-12)

    chi = 0.1
    v = resource_state(0.0, chi, 20)
    raw = np.zeros(21)
    raw[0] = 1.0
    raw[1] = chi * 3.0 / (2.0 * math.sqrt(2.0))
    raw[3] = chi * math.sqrt(3.0) / 2.0
    np.testing.assert_allclose(v.amps, raw / np.linalg.norm(raw), atol=1e-12)


def test_resource_state_squeezed_case_normalized():
    v = resource_state(0.6, 0.03, 40)
    assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 1.9),
    theta=_ANGLE,
    chi_abs=st.floats(0.0, 1.0),
    chi_arg=_ANGLE,
    cutoff=st.integers(8, 60),
)
@example(r=1.9, theta=0.7, chi_abs=0.5, chi_arg=0.0, cutoff=60)
def test_resource_state_matches_squeeze_matrix(r, theta, chi_abs, chi_arg, cutoff):
    # every element of the reference matrix is exact, so S @ core truncated
    # at the cutoff is the exact image the recurrence must reproduce
    zeta = r * np.exp(1j * theta)
    chi = chi_abs * np.exp(1j * chi_arg)
    core = np.zeros(cutoff + 1, dtype=complex)
    core[[0, 1, 3]] = 1.0, chi * 3.0 / (2.0 * math.sqrt(2.0)), chi * math.sqrt(3.0) / 2.0
    ref = squeeze_operator_matrix(zeta, cutoff) @ core
    ref /= np.linalg.norm(ref)
    v = resource_state(zeta, chi, cutoff, check_tail=False)
    assert np.max(np.abs(v.amps - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_resource_state_refuses_mass_above_cutoff():
    with pytest.raises(TruncationQualityError):
        resource_state(1.2, 0.5, 20)
    v = resource_state(1.2, 0.5, 20, check_tail=False)
    assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)


def test_adhoc_superposition():
    v = adhoc_superposition([1, 1], 10)
    np.testing.assert_allclose(v.amps[:2], [1 / math.sqrt(2)] * 2, atol=1e-14)
    v = adhoc_superposition([0, 2, 1], 10)
    np.testing.assert_allclose(v.amps[:3], [0, 2 / math.sqrt(5), 1 / math.sqrt(5)],
                               atol=1e-14)
    v = adhoc_superposition([1], 10)
    assert v.amps[0] == 1.0
    with pytest.raises(ValueError):
        adhoc_superposition([0, 0], 10)


def test_all_constructors_normalized():
    cases = [
        binomial_state(0.45, 8, 40),
        negative_binomial_state(0.65, 1, 0.0, 40),
        amplitude_squeezed_state(1.0, 0.5, 1.0, 40),
        resource_state(0.6, 0.03, 40),
        adhoc_superposition([1, 0, 0.3, 0, 0.1], 40),
        squeezed_coherent(SqueezedCoherentParams(0.74, 3.5, 0.1, 2.14), 40),
    ]
    for v in cases:
        assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)


def test_target_state_dispatch():
    pairs = [
        (Binomial(0.3, 7), binomial_state(0.3, 7, 40)),
        (NegativeBinomial(0.65, 1, 0.0), negative_binomial_state(0.65, 1, 0.0, 40)),
        (AmplitudeSqueezed(1.0, 0.5, 1.0), amplitude_squeezed_state(1.0, 0.5, 1.0, 40)),
        (Resource(0.6, 0.03), resource_state(0.6, 0.03, 40)),
        (AdHoc((1, 0, 0.3)), adhoc_superposition([1, 0, 0.3], 40)),
    ]
    for spec_obj, direct in pairs:
        np.testing.assert_allclose(target_state(spec_obj, 40).amps, direct.amps,
                                   atol=1e-14)


def test_target_state_tail_guard_passthrough():
    # this family keeps enough mass above cutoff 40 to trip the guard
    spec_obj = NegativeBinomial(0.75, 6, np.pi / 2)
    with pytest.raises(TailMassError):
        target_state(spec_obj, 40)
    v = target_state(spec_obj, 40, check_tail=False)
    assert np.linalg.norm(v.amps) == pytest.approx(1.0, abs=1e-12)

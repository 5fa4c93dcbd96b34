"""Fock-layer unit tests: Hermite evaluation, beam splitter, projections."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _operator_reference import basis_state, partial_trace, quadrature_wavefunction, tensor
from scipy.special import roots_legendre

from heraldkit.errors import HermiteOverflowError, NormalizationError
from heraldkit.fock import (
    BeamSplitterSpec,
    DensityMatrix,
    FockVector,
    TwoModeState,
    beam_splitter_apply,
    fidelity,
    hermite_gaussian_columns,
    hermite_sequence,
    project_quadrature,
    sector_unitary,
    _real_blocks,
)
from heraldkit.scheme import misfit_batch
from heraldkit.states import AdHoc, target_state


def random_fock(cutoff: int, seed: int) -> FockVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    return FockVector(amps / np.linalg.norm(amps), cutoff)


def random_two_mode(cutoff: int, seed: int, max_total: int | None = None):
    """Random normalized two-mode state, optionally restricted in total photon number."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((cutoff + 1, cutoff + 1)) + 1j * rng.standard_normal(
        (cutoff + 1, cutoff + 1)
    )
    if max_total is not None:
        n = np.arange(cutoff + 1)
        c[n[:, None] + n[None, :] > max_total] = 0.0
    return TwoModeState(c / np.linalg.norm(c), cutoff)


def test_hermite_low_orders():
    # H_0 = 1, H_1 = 2z, H_2 = 4z^2 - 2
    h = hermite_sequence(0.5, 1)
    np.testing.assert_allclose(h, [1.0, 1.0])
    h = hermite_sequence(1j, 2)
    np.testing.assert_allclose(h, [1.0, 2j, -6.0])


def hermite_explicit_sum(z: complex, n: int) -> complex:
    # H_n(z) = n! sum_m (-1)^m / (m! (n-2m)!) (2z)^(n-2m)
    total = 0.0 + 0.0j
    for m in range(n // 2 + 1):
        total += (
            (-1) ** m
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2 * z) ** (n - 2 * m)
        )
    return math.factorial(n) * total


def test_hermite_recurrence_matches_explicit_sum():
    z = 1.3 + 0.2j
    h = hermite_sequence(z, 10)
    for n in range(11):
        ref = hermite_explicit_sum(z, n)
        assert abs(h[n] - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("z", [0.3, -2.0, 5.0, 2.1 - 1.7j, 0.5 + 4.9j])
def test_hermite_agreement_moderate_orders(z):
    h = hermite_sequence(z, 25)
    for n in range(26):
        ref = hermite_explicit_sum(z, n)
        assert abs(h[n] - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_hermite_overflow_reports_index():
    with pytest.raises(HermiteOverflowError) as err:
        hermite_sequence(1e160, 3)
    assert err.value.index >= 1


def hermite_functions_vectorized(n_max: int, x: np.ndarray) -> np.ndarray:
    """The normalized Hermite recurrence run by numpy over an array of points."""
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = np.sqrt(2.0 / k) * x * out[k - 1] - np.sqrt((k - 1.0) / k) * out[k - 2]
    return out


@pytest.mark.parametrize("x", [0.0, 0.61, -2.3, 4.0, 11.5])
def test_hermite_functions_one_point_bit_identical(x):
    # one point runs the recurrence on Python floats; it must reproduce the
    # vectorized recurrence exactly, and the unnormalized polynomials where
    # those stay finite
    one = hermite_gaussian_columns(400, x)
    many = hermite_functions_vectorized(400, np.array([x, 1.0]))[:, 0]
    assert one.shape == (401,) and one.dtype == np.float64
    np.testing.assert_array_equal(one, many)
    n = np.arange(41)
    scale = np.pi**-0.25 * np.exp(-0.5 * x * x - 0.5 * (n * math.log(2.0) + np.array(
        [math.lgamma(k + 1.0) for k in n])))
    ref = hermite_sequence(x, 40).real * scale
    assert np.max(np.abs(one[:41] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_quadrature_wavefunction_values():
    # the package's Hermite functions, with the phase of the rotated
    # eigenbra, against scipy's Hermite polynomials
    assert quadrature_wavefunction(0, 0.0, 1.234) == pytest.approx(np.pi ** -0.25)
    assert quadrature_wavefunction(1, 0.0, 0.0) == 0.0
    for x, lam in ((0.0, 1.234), (1.2, 0.7), (-2.3, 0.0), (4.0, 2.9)):
        phi = hermite_gaussian_columns(60, x) * np.exp(-1j * np.arange(61) * lam)
        ref = np.array([quadrature_wavefunction(n, x, lam) for n in range(61)])
        np.testing.assert_allclose(phi, ref, rtol=0.0, atol=1e-13)


def test_quadrature_wavefunction_normalized_over_x():
    # integral of |<x|n>|^2 over x is 1 for each n
    x, w = roots_legendre(200)
    x = x * 10.0
    w = w * 10.0
    vals = np.array([hermite_gaussian_columns(12, t) for t in x]).T ** 2
    for n in (0, 1, 5, 12):
        assert float(np.dot(w, vals[n])) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("s", [1, 2, 5, 11])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.73])
def test_sector_unitary_is_unitary(s, t):
    u = sector_unitary(s, BeamSplitterSpec(t))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(s + 1), atol=1e-12)


def test_sector_unitary_rejects_negative_sector():
    with pytest.raises(ValueError):
        sector_unitary(-1, BeamSplitterSpec(0.5))


def _mpmath_sector_block(s: int, t: float):
    """Block s of the symmetric splitter from an exact binomial sum, to 50 digits.

    Entry [p, n] is the coefficient of x**p y**(s-p) in
    (sqrt(T) x + i r y)**n (i r x + sqrt(T) y)**(s-n), r = sqrt(1-T), times
    sqrt(p! (s-p)! / (n! (s-n)!)).  Collecting the powers gives

        i**(n+p) sqrt(T)**(s-n-p) r**(n+p) sum_k C(n, k) C(s-n, p-k) (-T/(1-T))**k,

    and with T = num/den exactly the sum is one integer over (den-num)**s, so
    only the final scaling is rounded.
    """
    mp = pytest.importorskip("mpmath")
    num, den = Fraction(t).as_integer_ratio()
    powers = [(-num) ** k * (den - num) ** (s - k) for k in range(s + 1)]
    block = np.empty((s + 1, s + 1), dtype=np.complex128)
    with mp.workdps(50):
        rt, rr = mp.sqrt(mp.mpf(t)), mp.sqrt(1 - mp.mpf(t))
        root = [mp.sqrt(mp.factorial(k) * mp.factorial(s - k)) for k in range(s + 1)]
        scale = [rt ** (s - j) * rr ** j / mp.mpf(den - num) ** s for j in range(2 * s + 1)]
        for n in range(s + 1):
            first = [math.comb(n, k) * powers[k] for k in range(n + 1)]
            second = [math.comb(s - n, k) for k in range(s - n + 1)]
            for p in range(s + 1):
                total = sum(first[k] * second[p - k] for k in range(max(0, p + n - s), min(n, p) + 1))
                value = complex(total * scale[n + p] * root[p] / root[n])
                block[p, n] = value * (1, 1j, -1, -1j)[(n + p) % 4]
    return block


@pytest.mark.parametrize("t", [0.37, 0.9])
def test_sector_unitary_matches_high_precision_block(t):
    # s = 60 is the top sector of an oracle evaluation at cutoff 30
    ref = _mpmath_sector_block(60, t)
    block = sector_unitary(60, BeamSplitterSpec(t))
    assert np.max(np.abs(block - ref)) <= 1e-12


@pytest.mark.parametrize("t", [0.1, 0.9])
def test_top_lossy_sector_matches_high_precision_block(t):
    # s = 120 is the top sector of a lossy point at cutoff 60; the rounding
    # of the walk grows with s, to 8.1e-12 (T = 0.1) and 6.5e-12 (T = 0.9)
    ref = _mpmath_sector_block(120, t)
    block = sector_unitary(120, BeamSplitterSpec(t))
    assert np.max(np.abs(block - ref)) <= 2e-11


@settings(max_examples=60, deadline=None)
@given(s_max=st.integers(0, 40), t=st.floats(0.0, 1.0))
@example(s_max=40, t=0.0)
@example(s_max=40, t=1.0)
def test_sector_blocks_unitary_and_norm_preserving(s_max, t):
    spec = BeamSplitterSpec(t)
    # the real form of a unitary block with phases i^(p+n) is orthogonal
    for s, lo, block in _real_blocks(t, s_max, s_max, s_max):
        assert lo == 0 and block.shape == (s + 1, s + 1)
        assert np.max(np.abs(block @ block.T - np.eye(s + 1))) <= 1e-12
    st_in = random_two_mode(s_max, seed=s_max)
    out, _ = beam_splitter_apply(st_in, spec)
    for s in range(s_max + 1):
        p = np.arange(s + 1)
        before = np.sum(np.abs(st_in.amps[p, s - p]) ** 2)
        after = np.sum(np.abs(out.amps[p, s - p]) ** 2)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    cutoff=st.integers(0, 14),
    a_max=st.integers(0, 14),
    b_max=st.integers(0, 14),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(cutoff=9, a_max=0, b_max=9, t=0.3, seed=1)
@example(cutoff=9, a_max=9, b_max=0, t=0.7, seed=2)
@example(cutoff=10, a_max=3, b_max=8, t=0.45, seed=3)
@example(cutoff=12, a_max=12, b_max=12, t=0.6, seed=4)
def test_banded_apply_matches_full_blocks(cutoff, a_max, b_max, t, seed):
    # a random state on the box n <= a_max, m <= b_max, with mass above the
    # cutoff whenever a_max + b_max > cutoff, against every full block
    # applied sector by sector
    a_max, b_max = min(a_max, cutoff), min(b_max, cutoff)
    rng = np.random.default_rng(seed)
    c = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    c[: a_max + 1, : b_max + 1] = rng.standard_normal((a_max + 1, b_max + 1, 2)) @ [1.0, 1.0j]
    c /= np.linalg.norm(c)
    spec = BeamSplitterSpec(t)
    out, dropped = beam_splitter_apply(TwoModeState(c, cutoff), spec)
    ref = np.zeros_like(c)
    for s in range(cutoff + 1):
        n = np.arange(s + 1)
        ref[n, s - n] = sector_unitary(s, spec) @ c[n, s - n]
    assert np.max(np.abs(out.amps - ref)) <= 1e-13
    above = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)) > cutoff
    assert dropped == float(np.sum(np.abs(c[above]) ** 2))


def test_beam_splitter_transparent():
    st = tensor(basis_state(1, 4), basis_state(0, 4))
    out, dropped = beam_splitter_apply(st, BeamSplitterSpec(1.0))
    assert dropped == 0.0
    # |1,0> passes through up to a global phase
    assert abs(out.amps[1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_hong_ou_mandel():
    st = tensor(basis_state(1, 4), basis_state(1, 4))
    out, dropped = beam_splitter_apply(st, BeamSplitterSpec(0.5))
    assert dropped == 0.0
    # balanced splitter cancels the coincidence amplitude exactly
    assert out.amps[1, 1] == 0.0
    assert out.amps[2, 0] == pytest.approx(1j / np.sqrt(2), abs=1e-12)
    assert out.amps[0, 2] == pytest.approx(1j / np.sqrt(2), abs=1e-12)


def test_beam_splitter_unitary_on_supported_states():
    st = random_two_mode(12, seed=5, max_total=12)
    out, dropped = beam_splitter_apply(st, BeamSplitterSpec(0.37))
    assert dropped == 0.0
    assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_conserves_photon_number():
    st = tensor(basis_state(2, 8), basis_state(3, 8))
    out, _ = beam_splitter_apply(st, BeamSplitterSpec(0.3))
    n = np.arange(9)
    off_sector = out.amps[n[:, None] + n[None, :] != 5]
    assert np.max(np.abs(off_sector)) == 0.0


def test_beam_splitter_reports_dropped_mass():
    st = random_two_mode(6, seed=9)  # full support, total number up to 12
    out, dropped = beam_splitter_apply(st, BeamSplitterSpec(0.6))
    kept = float(np.sum(np.abs(out.amps) ** 2))
    assert dropped > 0.0
    assert kept + dropped == pytest.approx(1.0, abs=1e-12)


def test_basis_state_and_vacuum():
    # the package builds a number state as an ad hoc target with one
    # nonzero coefficient, exactly
    v = target_state(AdHoc((0, 0, 0, 2.5)), 10)
    assert v.amps[3] == 1.0 and np.count_nonzero(v.amps) == 1
    assert np.array_equal(target_state(AdHoc((1,)), 5).amps, basis_state(0, 5).amps)
    with pytest.raises(ValueError):
        target_state(AdHoc((0,) * 11 + (1,)), 10)


def test_project_quadrature_vacuum_density():
    vac = basis_state(0, 4)
    _, density = project_quadrature(tensor(vac, vac), 0.0, 0.0)
    assert density == pytest.approx(np.pi ** -0.5, abs=1e-12)


def test_project_quadrature_periodic_in_lambda():
    st = random_two_mode(8, seed=11)
    a, da = project_quadrature(st, 0.7, 0.4)
    b, db = project_quadrature(st, 0.7, 0.4 + 2 * np.pi)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)
    assert da == pytest.approx(db, abs=1e-14)


def test_project_quadrature_density_integrates_to_one():
    st = random_two_mode(8, seed=13)
    x, w = roots_legendre(400)
    x = x * 12.0
    w = w * 12.0
    total = sum(
        wi * project_quadrature(st, xi, 0.9)[1] for xi, wi in zip(x, w)
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_partial_trace_pure_and_mixed():
    # the reference partial trace of the loss dilation
    st = tensor(basis_state(1, 4), basis_state(0, 4))
    rho = partial_trace(st.amps)
    expect = np.zeros((5, 5))
    expect[1, 1] = 1.0
    np.testing.assert_allclose(rho.rho, expect, atol=1e-12)

    # Bell-like state en route to the maximally mixed qubit
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = c[1, 1] = 1 / np.sqrt(2)
    for rho in (partial_trace(c), partial_trace(c.T)):
        np.testing.assert_allclose(np.diag(rho.rho), [0.5, 0.5, 0.0], atol=1e-12)
        assert abs(rho.rho[0, 1]) <= 1e-12


def test_partial_trace_of_product_state():
    a = random_fock(7, 21)
    b = random_fock(7, 22)
    rho = partial_trace(tensor(a, b).amps)
    np.testing.assert_allclose(rho.rho, np.outer(a.amps, a.amps.conj()), atol=1e-12)


def test_density_matrix_invariants():
    st = random_two_mode(8, seed=17)
    rho = partial_trace(st.amps.T)
    np.testing.assert_allclose(rho.rho, rho.rho.conj().T, atol=1e-12)
    assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho.rho)) >= -1e-10


def test_fidelity_pure_cases():
    psi = random_fock(9, 31)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(basis_state(0, 5), basis_state(1, 5)) == 0.0


def test_fidelity_mixed_matches_direct_sum():
    rng = np.random.default_rng(41)
    p = rng.dirichlet(np.ones(4))
    rho = np.zeros((6, 6), dtype=complex)
    for k in range(4):
        rho[k, k] = p[k]
    t = random_fock(5, 42)
    expected = sum(p[k] * abs(t.amps[k]) ** 2 for k in range(4))
    assert fidelity(t, DensityMatrix(rho, 5)) == pytest.approx(expected, abs=1e-12)


def test_fidelity_rejects_unnormalized():
    bad = FockVector(np.array([0.5, 0.0]), 1)
    with pytest.raises(NormalizationError):
        fidelity(bad, basis_state(0, 1))
    with pytest.raises(NormalizationError):
        fidelity(basis_state(0, 1), bad)


def test_nan_state_raises():
    # a NaN squared norm is not within the tolerance of 1 either
    nan_state = FockVector(np.full(4, np.nan), 3)
    with pytest.raises(NormalizationError):
        fidelity(basis_state(0, 3), nan_state)
    rows = np.stack([basis_state(1, 3).amps, nan_state.amps])
    with pytest.raises(NormalizationError):
        misfit_batch(rows, basis_state(0, 3))

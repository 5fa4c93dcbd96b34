"""The exact Gaussian core's output in 50-digit arithmetic.

The reference for the core's closed-form norm and for its misfit on the
target's support (heraldkit.scheme._core_log_norm_sq, _core_misfit and
_core_misfit_batch).  Given the core's (a, b) and, for SPD, its linear
term (B3, A34), as the doubles that scheme._gaussian_core gives, the
output is the Bargmann function f(z) = exp(a z^2 / 2 + b z), times
B3 + A34 z for SPD.  Its Taylor coefficients follow from the equation
f' = (a z + b) f,

    (n + 1) f_{n+1} = b f_n + a f_{n-1},

and its number amplitudes are d_n = sqrt(n!) f_n.  Every amplitude is
kept, up to the n where the mass of the last TAIL_RUN amplitudes is below
1e-40 of the total, so the sum holds the mass above any cutoff the package
reads.  This checks the package's closed forms against a sum, not its
rounding: the inputs (a, b) are shared.
"""
from mpmath import mp, mpc, mpf

DIGITS = 50
TAIL = mpf("1e-40")
TAIL_RUN = 10
MAX_TERMS = 20000


def core_output(a: complex, b: complex, linear=None, head: int = 0):
    """The amplitudes d_0..d_head of the core's output, with its scale C
    left out, as 50-digit complex numbers, and its squared norm over every
    n, as a 50-digit float."""
    with mp.workdps(DIGITS):
        a, b = mpc(a), mpc(b)
        b3, a34 = (mpc(1), mpc(0)) if linear is None else map(mpc, linear)
        f_prev, f = mpc(0), mpc(1)  # f_{n-1}, f_n
        fact = mpf(1)  # n!
        amps, window, total = [], [], mpf(0)
        for n in range(MAX_TERMS):
            h = b3 * f + a34 * f_prev
            if n <= head:
                amps.append(mp.sqrt(fact) * h)
            window.append(fact * (h.real**2 + h.imag**2))
            total += window[-1]
            if len(window) > TAIL_RUN:
                window.pop(0)
                if sum(window) < TAIL * total:
                    return amps, total
            f_prev, f = f, (b * f + a * f_prev) / (n + 1)
            fact *= n + 1
    raise AssertionError(f"no convergence in {MAX_TERMS} terms")


def core_log_norm_sq(a: complex, b: complex, linear=None) -> float:
    """log of the output's squared norm, every n summed."""
    with mp.workdps(DIGITS):
        return float(mp.log(core_output(a, b, linear)[1]))


def support_misfit(a: complex, b: complex, linear, target_amps) -> float:
    """1 - |<t|d>|^2 / ||d||^2 for the target's amplitudes (doubles, unit
    norm), the overlap over the target's support and the norm over every n."""
    with mp.workdps(DIGITS):
        amps, total = core_output(a, b, linear, head=len(target_amps) - 1)
        overlap = mp.fsum(mp.conj(mpc(t)) * d for t, d in zip(target_amps, amps))
        return float(1 - abs(overlap) ** 2 / total)

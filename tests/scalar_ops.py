"""The scalar Cauchy product, backward shift and seminorm, one coefficient at
a time, kept verbatim from before the array kernels as their oracles.

The kernels (``core.convolve``, ``core.shift_back``, ``spaces.shift_norms``)
must give these functions' results bit for bit.
"""
from __future__ import annotations

import cmath
import math

from hyperforge.core import NEG_INF, FiniteSeq, WideComplex, wrap_phase
from hyperforge.spaces import _check_q

_HALF_PI = math.pi / 2.0


def log_sum(terms) -> float:
    """log(sum(exp(t))) for nonnegative summands given by their logs."""
    ts = [t for t in terms if t != NEG_INF]
    if not ts:
        return NEG_INF
    m = max(ts)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in ts))


def _unit(phase: float) -> complex:
    """e^{i phase}, exact on the four half-axes so axis-aligned sums cancel cleanly."""
    if phase == 0.0:
        return 1.0 + 0j
    if phase == math.pi:
        return -1.0 + 0j
    if phase == _HALF_PI:
        return 1j
    if phase == -_HALF_PI:
        return -1j
    return cmath.exp(1j * phase)


def _sum_polar(terms: list[float]) -> tuple[float, float]:
    """(log|s|, arg s) of the sum s of two or more nonzero terms, given as
    log|z| and arg z of each in turn, by max-rescaled accumulation;
    (-inf, 0.0) when they cancel exactly."""
    m = max(terms[::2])
    acc = 0j
    for log_mag, phase in zip(terms[::2], terms[1::2]):
        acc += math.exp(log_mag - m) * _unit(phase)
    if acc == 0:
        return NEG_INF, 0.0
    return m + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


def cauchy_product(x: FiniteSeq, y: FiniteSeq) -> FiniteSeq:
    """Discrete convolution z_n = sum_{k<=n} x_k y_{n-k}."""
    ys = [(k, d.log_mag, d.phase) for k, d in y.items()]
    buckets: dict[int, list[float]] = {}  # log|.| and arg of each term, in turn
    for n, c in x.items():
        log_c, phase_c = c.log_mag, c.phase
        for k, log_d, phase_d in ys:
            log_mag = log_c + log_d
            if log_mag != NEG_INF and log_mag == log_mag:  # else the product is the zero, which sum_of drops
                buckets.setdefault(n + k, []).extend((log_mag, wrap_phase(phase_c + phase_d)))
    return FiniteSeq({n: WideComplex(*(terms if len(terms) == 2 else _sum_polar(terms)))
                      for n, terms in buckets.items()})


def cauchy_power(x: FiniteSeq, m: int) -> FiniteSeq:
    """m-fold Cauchy product; x^0 is the convolution identity e_0."""
    if m < 0:
        raise ValueError("cauchy power needs m >= 0")
    if m == 0:
        return FiniteSeq.basis(0)
    out = x
    for _ in range(m - 1):
        out = cauchy_product(out, x)
    return out


def cauchy_monomials(seqs: list[FiniteSeq]):
    """The map alpha -> prod_i seqs[i]^{alpha_i} under the Cauchy product.

    Factors are multiplied left to right over the nonzero exponents, and each
    power seqs[i]^e is built once per map; the empty product is e_0.
    """
    powers: dict[tuple[int, int], FiniteSeq] = {}

    def monomial(alpha: tuple[int, ...]) -> FiniteSeq:
        out = None
        for i, e in enumerate(alpha):
            if e == 0:
                continue
            piece = powers.get((i, e))
            if piece is None:
                piece = powers[(i, e)] = cauchy_power(seqs[i], e)
            out = piece if out is None else cauchy_product(out, piece)
        return out if out is not None else FiniteSeq.basis(0)

    return monomial


def backward_iterate(w, x: FiniteSeq, a: int) -> FiniteSeq:
    """a-th power of the weighted backward shift: result_n = (v_{n+a}/v_n) x_{n+a}."""
    if a < 0:
        raise ValueError("shift count must be >= 0")
    if a == 0:
        return x
    out = {}
    for n, c in x.items():
        if n >= a:
            out[n - a] = c * w.ratio(n - a, a)
    return FiniteSeq(out)


def seminorm_eval(space, q: int, x: FiniteSeq) -> float:
    """log ||x||_q (-inf encodes the exact zero): exact, except that the
    sup-circle norm of entire_cauchy is bounded above by sum |x_n| q^n."""
    q = _check_q(q)
    sid = space.space_id
    if sid == "l_p":
        p = space.p
        total = log_sum(c.log_mag * p for _, c in x.items())
        return total / p if total not in (NEG_INF, math.inf) else total
    if sid == "c0":
        return max((c.log_mag for _, c in x.items()), default=NEG_INF)
    if sid == "l1":
        return log_sum(c.log_mag for _, c in x.items())
    if sid in ("entire_hadamard", "entire_cauchy"):
        lq = math.log(q)
        return log_sum(c.log_mag + n * lq for n, c in x.items())
    if sid == "omega_coord":
        return max((c.log_mag for n, c in x.items() if n <= q), default=NEG_INF)
    return log_sum(c.log_mag for n, c in x.items() if n <= q)  # omega_cauchy


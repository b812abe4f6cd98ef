"""Inductive constructions for Cauchy-product algebras.

Each round r = (m, l) manufactures a two-part block p = q + b e_gamma whose
m-th convolution power, shifted back by a_r = eta + (m-1) gamma, reproduces the
scheduled target exactly up to a certified top-coefficient remainder:

  C1: the block is small in the requested seminorm;
  C2: m q * b^{m-1} e_{(m-1)gamma} equals the forward-shifted target (exact);
  C3: the shifted top coefficient b^m e_{m gamma} is small.

The block coefficients come from the closed formulas (b from a max/min balance
of basis norms against weight products, c_j from C2); candidate (eta, gamma)
pairs are scanned by increasing eta + gamma and verified directly, which
accepts far smaller windows than the worst-case constants would.  The scan
returns the first passing pair on the anti-diagonals it visits; it jumps over
anti-diagonals by extrapolating the failure margin, without a proof that the
skipped ones hold no passing pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bundle import Bundle, Cert, CauchyRound
from .core import (
    NEG_INF,
    FiniteSeq,
    WeightSpec,
    WideComplex,
    backward_iterate,
    cauchy_power,
    cauchy_product,
    forward_iterate,
)
from .criteria import (
    MixingCertificate,
    PropertyBWitness,
    check_mixing,
    property_b_witness,
)
from .errors import (
    LeadingFormVanishing,
    SearchExhausted,
    SpaceProductError,
    WitnessError,
    search_budget,
    small_budget,
)
from .schedule import PairOrder, TargetSchedule, TripleOrder
from .spaces import SpaceSpec, basis_log_array, seminorm_eval

_LN2 = math.log(2.0)
_C2_TOL = 1e-12


# ---------------------------------------------------------------------------
# multi-index utilities
# ---------------------------------------------------------------------------


def enumerate_multi_indices(mu: int, t: int) -> list[tuple[int, ...]]:
    """All alpha in N_0^t with |alpha| = mu and alpha_t > 0, lexicographic."""
    if mu < 1 or t < 1:
        raise ValueError("multi-index sets need mu >= 1 and t >= 1")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            if remaining >= 1:
                out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), mu, t)
    return out


def multi_index_count(mu: int, t: int) -> int:
    """card I_{mu,t} = C(mu+t-2, t-1)."""
    return math.comb(mu + t - 2, t - 1)


def multinomial(mu: int, alpha: tuple[int, ...]) -> int:
    """mu! / (alpha_1! ... alpha_t!) as an exact integer."""
    if sum(alpha) != mu:
        raise ValueError(f"multi-index {alpha} does not sum to {mu}")
    out = 1
    rest = mu
    for a in alpha:
        out *= math.comb(rest, a)
        rest -= a
    return out


# ---------------------------------------------------------------------------
# building-block solver
# ---------------------------------------------------------------------------


@dataclass
class BlockSolveResult:
    eta: int
    gamma: int
    m: int
    seminorm_index: int
    eps: float
    b: WideComplex
    c: list[WideComplex]
    q_part: FiniteSeq
    block: FiniteSeq
    checks: dict[str, Cert]

    @property
    def shift(self) -> int:
        """a = eta + (m-1) gamma, the backward-shift count this block answers to."""
        return self.eta + (self.m - 1) * self.gamma

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _require_prereqs(space: SpaceSpec, mixing, prop_b) -> None:
    if space.space_id == "omega_cauchy":
        return
    if mixing is None or not mixing.passed:
        raise WitnessError(
            "building blocks need a passing mixing certificate for this space/weight"
        )
    if prop_b is None:
        raise WitnessError("building blocks need a basis-norm compatibility witness")


def solve_building_block(
    space: SpaceSpec,
    w: WeightSpec,
    y: FiniteSeq,
    m: int,
    r: int,
    N: int,
    eps: float,
    *,
    eps_log: float | None = None,
    mixing: MixingCertificate | None = None,
    prop_b: PropertyBWitness | None = None,
    pair_budget: int | None = None,
) -> BlockSolveResult:
    """Find eta >= N, gamma > eta + 2s, and coefficients b, c_0..c_s such that
    p = sum c_j e_{eta+j} + b e_gamma satisfies C1-C3 at seminorm index r.

    m = 1 takes b = 0 and c_j = v_j y_j / v_{eta+j}, scanning eta ascending
    until the block seminorm drops below eps/2 (the same half-split the m >= 2
    bound chain produces).  m >= 2 walks (eta, gamma) pairs by increasing
    eta + gamma, computing b from its closed formula and accepting the first
    pair, on the anti-diagonals the walk visits, where directly evaluated C1
    and C3 pass; C2 holds by construction.
    On omega_cauchy both windows are pushed past the seminorm horizon instead,
    where C1 and C3 are exactly zero.
    """
    if y.is_zero:
        raise ValueError("target must be a nonzero finite sequence")
    if eps_log is None:
        if eps <= 0:
            raise ValueError("eps must be positive (or pass eps_log)")
        eps_log = math.log(eps)
    if m < 1 or r < 1 or N < 0 or not eps_log < math.inf:
        raise ValueError("need m >= 1, r >= 1, N >= 0, finite eps")
    if not space.supports_cauchy:
        raise SpaceProductError(f"{space.cli_id} is not an algebra under the Cauchy product")
    _require_prereqs(space, mixing, prop_b)
    s = y.max_index

    if space.space_id == "omega_cauchy":
        # push both windows past every seminorm the construction will ever
        # point at this block: eta clears N (which the builder sets above all
        # earlier shift counts) by more than the round index, so shifted
        # products stay invisible, and gamma - eta clears the index r as well
        eta = max(N + r, r + 1)
        gamma = eta + max(2 * s, r) + 1
        b = WideComplex.zero() if m == 1 else WideComplex.one()
        return _assemble(space, w, y, m, r, eps_log, eta, gamma, b)

    if m == 1:
        eta = _scan_eta_m1(space, w, y, r, N, eps_log, pair_budget)
        return _assemble(space, w, y, 1, r, eps_log, eta, eta + 2 * s + 1, WideComplex.zero())

    eta, gamma, logb, _ = _scan_pairs(space, w, y, m, r, N, eps_log, pair_budget)
    return _assemble(space, w, y, m, r, eps_log, eta, gamma, WideComplex(logb, 0.0))


def _scan_eta_m1(space, w, y, r, N, eps_log, pair_budget) -> int:
    target = eps_log - _LN2  # aim for eps/2, mirroring the two-part split for m >= 2
    terms = [(j, w.v_log(j) + c.log_mag) for j, c in y.items()]
    budget = pair_budget if pair_budget is not None else search_budget()
    eta = N
    chunk = 1024
    while eta <= N + budget:
        hi = eta + chunk
        logv = w.v_log_array(hi + y.max_index)
        acc = None
        es = np.arange(eta, hi)
        for j, base in terms:
            vals = base - logv[es + j] + basis_log_array(space, r, es + j)
            acc = vals if acc is None else np.logaddexp(acc, vals)
        hit = np.nonzero(acc < target)[0]
        if len(hit):
            return int(es[hit[0]])
        eta = hi
        chunk = min(2 * chunk, 1 << 18)
    raise SearchExhausted("no eta admitted the degree-1 block within budget", N=N, eps_log=eps_log)


def _scan_pairs(space, w, y, m, r, N, eps_log, pair_budget) -> tuple[int, int, float, int]:
    """Walk (eta, gamma) by increasing eta + gamma (then gamma) and return the
    first pair, on the anti-diagonals the walk visits, whose closed-form b
    passes C1 and C3 in the log domain.

    The walk visits anti-diagonals in batches of 64.  Once the failure margin
    shrinks at a measurable rate it jumps over most of the estimated remaining
    distance, without proving that the skipped diagonals hold no such pair.

    Each diagonal is screened first (see ``_diagonal``): a cheap lower bound on
    max(C1, C3) rejects almost every pair, and the exact value is computed only
    on the pairs it cannot reject.  The screen keeps the first passing pair and
    the diagonal minimum bit for bit, so the walk, its margin and its jumps are
    those of an unscreened scan.
    """
    s = y.max_index
    log_eps = eps_log
    yterms = {j: w.v_log(j) + c.log_mag - math.log(m) for j, c in y.items()}
    budget = pair_budget if pair_budget is not None else search_budget()
    scanned = 0
    best = math.inf
    g_min = N + 2 * s + 1
    d = N + g_min  # smallest possible eta + gamma
    batch_rows = 64
    prev_probe: tuple[int, float] | None = None  # (d midpoint, failure margin)
    while scanned <= budget:
        # (eta + gamma, first gamma, last gamma) with gamma > eta + 2s, eta >= N
        rows = [(dd, max(g_min, (dd + 2 * s + 2) // 2), dd - N) for dd in range(d, d + batch_rows)]
        rows = [row for row in rows if row[2] >= row[1]]
        d_mid = d + batch_rows // 2
        d += batch_rows
        if not rows:
            continue
        scanned += sum(g_hi - g_lo + 1 for _, g_lo, g_hi in rows)
        d_last = rows[-1][0]
        logv = w.v_log_array(m * (d_last - N))
        basis = basis_log_array(space, r, np.arange(d_last + s + 1))
        minima = []
        for dd, g_lo, g_hi in rows:
            keep, worst, logb = _diagonal(logv, basis, yterms, s, m, dd, g_lo, g_hi, log_eps)
            hit = np.nonzero(worst < log_eps)[0]
            if len(hit):
                i = int(keep[hit[0]])
                return dd - g_lo - i, g_lo + i, float(logb[i]), scanned
            minima.append(worst.min())
        margin = float(np.min(minima)) - log_eps
        best = min(best, margin + log_eps)
        # deep rounds sit far past the first feasible total; walking every
        # anti-diagonal there is quadratic, so once the failure margin shrinks
        # at a measurable rate, jump most of the estimated remaining distance
        if prev_probe is not None and margin > 0:
            d_prev, m_prev = prev_probe
            if m_prev > margin and d_mid > d_prev:
                slope = (m_prev - margin) / (d_mid - d_prev)
                remaining = margin / slope
                if remaining > 8 * batch_rows:
                    d += int(0.75 * remaining)
        prev_probe = (d_mid, margin)
    raise SearchExhausted(
        "no (eta, gamma) pair admitted the block within budget",
        m=m,
        N=N,
        eps_log=eps_log,
        best_margin_log=best - log_eps,
        scanned=scanned,
    )


def _diagonal(logv, basis, yterms, s, m, dd, g_lo, g_hi, log_eps):
    """Screened max(C1, C3) along eta + gamma = dd for gamma = g_lo..g_hi.

    Returns ``(keep, worst, logb)``: the kept offsets ``gamma - g_lo`` in
    ascending order, max(C1, C3) at those offsets and log b at every offset.

    Every index of the closed forms is an arithmetic progression in gamma, so
    each lookup is a strided view of the log-weight table ``logv`` or of the
    basis table ``basis`` (log ||e_n||_r for n = 0, 1, ...).

    C1 = logaddexp(log ||q||_r, log ||b e_gamma||_r), where log ||q||_r is a
    logaddexp chain over the k target terms t_j.  Two facts screen the pairs:

    - in floating point, logaddexp(x, y) = max(x, y) + log1p(exp(-|x - y|))
      and the added term is >= 0, so ``lower = max(C3, log ||b e_gamma||_r,
      t_0, ..., t_{k-1})`` never exceeds the computed max(C1, C3);
    - in exact arithmetic, max(C1, C3) <= lower + ln(k + 1).

    So a pair whose bound is at least log eps cannot pass, and a pair whose
    bound lies more than ln(k + 1) above the smallest bound cannot hold the
    diagonal minimum.  The extra 1.0 covers rounding: the weight tables end at
    index 2^27, where these log values stay below ~1e11, so the few roundings
    between the bound and max(C1, C3) move it by under 1e-4.  The chain, C1
    and the max run only on the other pairs, by the same elementwise
    expressions as on the whole diagonal, so the first pair with
    max(C1, C3) < log eps and the diagonal minimum are exact.  A NaN bound
    makes the cut NaN, which keeps every pair.
    """
    n = g_hi - g_lo + 1
    top = dd + (m - 2) * g_lo  # eta + (m-1) gamma, stride m - 2

    def basis_at(j):  # log ||e_{eta+j}||_r; eta falls as gamma rises
        return basis[dd - g_hi + j : dd - g_lo + j + 1][::-1]

    def logv_at(j):  # log v_{eta+(m-1)gamma+j}; constant along the diagonal when m = 2
        return logv[top + j] if m == 2 else logv[top + j :: m - 2][:n]

    # log b = (max_j A_j + min(B1, B2)) / 2; the max runs over all of 0..s
    maxA = None
    for j in range(s + 1):
        A = (basis_at(j) - logv_at(j)) / (m - 1)
        maxA = A if maxA is None else np.maximum(maxA, A, out=maxA)
    lo = 2 * g_lo - dd  # gamma - eta, stride 2
    v_gap = logv[lo::2][:n] - logv[m * g_lo :: m][:n]  # log v_{gamma-eta} - log v_{m gamma}
    basis_gap = basis[lo::2][:n]
    B1 = -basis[g_lo : g_hi + 1]
    logb = maxA
    logb += np.minimum(B1, (v_gap - basis_gap) / m)
    logb *= 0.5

    # C1 terms: t_j = log ||q_j e_{eta+j}||_r and log ||b e_gamma||_r
    logb_pow = (m - 1) * logb
    terms = []
    for j, base in yterms.items():
        t = np.subtract(base, logb_pow)
        t -= logv_at(j)
        t += basis_at(j)
        terms.append(t)
    be = np.subtract(logb, B1, out=B1)
    # C3: ||T^{eta+(m-1)gamma} b^m e_{m gamma}||_r, in log
    #   m log b + (log v_{m gamma} - log v_{gamma-eta}) + log||e_{gamma-eta}||
    c3 = np.multiply(m, logb)
    c3 -= v_gap
    c3 += basis_gap

    lower = np.maximum(c3, be)
    for t in terms:
        np.maximum(lower, t, out=lower)
    cut = lower.min() + (math.log(len(terms) + 1) + 1.0)
    if cut < log_eps:  # a NaN cut stays NaN
        cut = log_eps
    keep = np.flatnonzero(~(lower > cut))

    logq = terms[0][keep]
    for t in terms[1:]:
        np.logaddexp(logq, t[keep], out=logq)
    c1 = np.logaddexp(logq, be[keep], out=logq)
    return keep, np.maximum(c1, c3[keep], out=c1), logb


def _assemble(space, w, y, m, r, eps_log, eta, gamma, b: WideComplex) -> BlockSolveResult:
    s = y.max_index
    shift = eta + (m - 1) * gamma
    mb = WideComplex.from_real(float(m)) * b.powi(m - 1)  # m b^{m-1}; equals m when m = 1
    coeffs: list[WideComplex] = []
    q_coef: dict[int, WideComplex] = {}
    for j in range(s + 1):
        yj = y.coef(j)
        if yj.is_zero:
            coeffs.append(WideComplex.zero())
            continue
        cj = (w.v(j) * yj) / (mb * w.v(eta + j + (m - 1) * gamma))
        coeffs.append(cj)
        q_coef[eta + j] = cj
    q_part = FiniteSeq(q_coef)
    block = q_part + FiniteSeq.basis(gamma, b) if not b.is_zero else q_part

    eps_log2 = eps_log / _LN2
    checks = {
        "C1": Cert.less(seminorm_eval(space, r, block).upper_log, eps_log2),
        "C3": Cert.less(seminorm_eval(space, r, c3_image(w, m, eta, gamma, b)).upper_log, eps_log2),
        "C2_residual": c2_residual_cert(w, y, m, eta, gamma, b, q_part),
    }
    eps = math.exp(eps_log) if eps_log > -700 else 0.0
    return BlockSolveResult(
        eta=eta,
        gamma=gamma,
        m=m,
        seminorm_index=r,
        eps=eps,
        b=b,
        c=coeffs,
        q_part=q_part,
        block=block,
        checks=checks,
    )


def c3_image(w, m, eta, gamma, b: WideComplex) -> FiniteSeq:
    """T^{eta+(m-1)gamma} b^m e_{m gamma}, the shifted top coefficient C3 bounds."""
    return backward_iterate(w, FiniteSeq.basis(m * gamma, b.powi(m)), eta + (m - 1) * gamma)


def c2_residual_cert(w, y, m, eta, gamma, b: WideComplex, q_part: FiniteSeq) -> Cert:
    """Relative residual of m q * b^{m-1} e_{(m-1)gamma} against the shifted target."""
    shift = eta + (m - 1) * gamma
    lhs = cauchy_product(q_part, FiniteSeq.basis((m - 1) * gamma, b.powi(m - 1))).scale(
        WideComplex.from_real(float(m))
    )
    rhs = forward_iterate(w, y, shift)
    res = lhs.rel_distance(rhs)
    return Cert(value=res, bound=_C2_TOL, passed=res <= _C2_TOL, op="le")


# ---------------------------------------------------------------------------
# lambda matrix (columns cycling a dense set of bounded finite sequences)
# ---------------------------------------------------------------------------


def _entry_values(denom_max: int) -> list[complex]:
    """Rational-complex values of modulus <= 1; nonzero values first, then 0."""
    seen: set[complex] = set()
    vals: list[complex] = []
    for q in range(1, denom_max + 1):
        cands = []
        for p_re in range(-q, q + 1):
            for p_im in range(-q, q + 1):
                z = complex(Fraction(p_re, q), Fraction(p_im, q))
                if abs(z) > 1.0 + 1e-12 or z in seen:
                    continue
                cands.append(z)
        cands.sort(key=lambda z: (z == 0, -(z.real**2 + z.imag**2), -z.real, -z.imag))
        for z in cands:
            seen.add(z)
            vals.append(z)
    return vals


@dataclass
class LambdaMatrix:
    """Columns cycle an enumerated set A of finite sequences with entries of
    modulus <= 1, so every element of A appears infinitely often as a column.

    A holds all tuples over the rational-complex entry grid, longest length
    first so low column indices carry full-support elements.
    """

    l_max: int
    denom_max: int = 1
    entries: list[tuple[complex, ...]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.l_max < 1 or self.denom_max < 1:
            raise ValueError("lambda matrix needs l_max >= 1 and denom_max >= 1")
        if not self.entries:
            vals = _entry_values(self.denom_max)
            if len(vals) ** self.l_max > 1_000_000:
                raise ValueError("lambda matrix enumeration too large; lower l_max/denom_max")
            ents: list[tuple[complex, ...]] = []
            for L in range(self.l_max, 0, -1):
                idx = [0] * L
                while True:
                    ents.append(tuple(vals[i] for i in idx))
                    for pos in range(L - 1, -1, -1):
                        idx[pos] += 1
                        if idx[pos] < len(vals):
                            break
                        idx[pos] = 0
                    else:
                        break
            self.entries = ents

    @property
    def size(self) -> int:
        return len(self.entries)

    def column(self, nu: int) -> tuple[complex, ...]:
        if nu < 1:
            raise ValueError("column indices start at 1")
        return self.entries[(nu - 1) % len(self.entries)]

    def lam(self, k: int, nu: int) -> complex:
        col = self.column(nu)
        return col[k - 1] if k <= len(col) else 0j

    def to_json(self) -> dict:
        return {"l_max": self.l_max, "denom_max": self.denom_max}

    @classmethod
    def from_json(cls, data: dict) -> "LambdaMatrix":
        return cls(l_max=data["l_max"], denom_max=data["denom_max"])


def leading_form_column(
    coeffs: dict[tuple[int, ...], complex],
    lam: LambdaMatrix,
    s: int,
    threshold: float = 1e-6,
    scan_budget: int | None = None,
    nu_min: int = 1,
) -> tuple[int, complex]:
    """First column nu >= nu_min where the top-degree form evaluates above the
    threshold; recurrence of columns makes arbitrarily large instances exist."""
    if not coeffs:
        raise LeadingFormVanishing("empty top-degree form")
    budget = scan_budget if scan_budget is not None else max(4 * lam.size, 1024)
    for nu in range(nu_min, nu_min + budget):
        rho = _eval_form(coeffs, lam, s, nu)
        if abs(rho) > threshold:
            return nu, rho
    raise LeadingFormVanishing(
        "no column pushed the top-degree form above the threshold; "
        "the form may vanish on the scanned grid",
        threshold=threshold,
        scanned=budget,
    )


def _eval_form(coeffs, lam: LambdaMatrix, s: int, nu: int) -> complex:
    rho = 0j
    for beta, c in coeffs.items():
        term = complex(c)
        for k in range(1, s + 1):
            e = beta[k - 1] if k - 1 < len(beta) else 0
            if e:
                term *= lam.lam(k, nu) ** e
        rho += term
    return rho


def tail_bound(mu_max: int, c_per_degree: list[float], r: int) -> float:
    """sum_{mu<=mu_max} C_mu sum_{t>r} card(I_{mu,t}) t^mu 2^-t, truncated when
    terms drop below 1e-18; the explicit majorant for everything past round r."""
    if len(c_per_degree) < mu_max:
        raise ValueError("need one constant per degree up to mu_max")
    total = 0.0
    for mu in range(1, mu_max + 1):
        C = c_per_degree[mu - 1]
        if C == 0.0:
            continue
        t = r + 1
        while True:
            term = C * multi_index_count(mu, t) * float(t) ** mu * 2.0 ** (-t)
            total += term
            if term < 1e-18:
                break
            t += 1
    return total


# ---------------------------------------------------------------------------
# inductive construction
# ---------------------------------------------------------------------------


# the Property B witness a state verifies depends only on the space; no
# caller mutates it, so one instance per space is shared
_PROP_B: dict[str, PropertyBWitness] = {}


def _state_property_b(space: SpaceSpec) -> PropertyBWitness:
    wit = _PROP_B.get(space.cli_id)
    if wit is None:
        wit = _PROP_B[space.cli_id] = property_b_witness(space, m_max=4, M_max=8, r_max=5, n_max=200)
    return wit


class CauchyState:
    """Mutable record of a Cauchy-product construction in progress."""

    def __init__(
        self,
        space: SpaceSpec,
        w: WeightSpec,
        targets: list[FiniteSeq],
        *,
        algebrable: bool = False,
        K: int = 1,
        lam: LambdaMatrix | None = None,
        mixing: MixingCertificate | None = None,
        prop_b: PropertyBWitness | None = None,
    ):
        if not space.supports_cauchy:
            raise SpaceProductError(f"{space.cli_id} is not an algebra under the Cauchy product")
        self.space = space
        self.w = w
        self.schedule = TargetSchedule(targets, 1)
        self.algebrable = algebrable
        self.K = K if algebrable else 1
        self.pairing = TripleOrder() if algebrable else PairOrder()
        self.lam = (lam or LambdaMatrix(l_max=self.K)) if algebrable else None
        omega = space.space_id == "omega_cauchy"
        self.mixing = mixing if mixing is not None else check_mixing(space, w)
        if not omega and not self.mixing.passed:
            raise WitnessError(
                "the weight is not mixing on this space at the checked horizon",
                failure=self.mixing.failure,
            )
        if omega:
            self.prop_b = None
        else:
            self.prop_b = prop_b if prop_b is not None else _state_property_b(space)
        self.rounds: list[CauchyRound] = []

    def blocks(self) -> list[FiniteSeq]:
        return [rd.block for rd in self.rounds]


def _structural_d2(rounds_prefix: list[CauchyRound], r: int, m: int, gamma: int, a_r: int) -> Cert:
    """Largest index any excluded product P^alpha can reach, checked < a_r.

    For mu < m every factor tops out at gamma; for mu = m either some factor
    is an earlier (smaller) block or alpha_r < m.  The extreme is attained at
    (m-1) copies of the top index plus one next-largest, so the whole range is
    covered by three closed-form maxima.
    """
    prior_max = max((rd.gamma for rd in rounds_prefix[: r - 1]), default=0)
    worst = 0
    if m >= 2:
        worst = max(worst, (m - 1) * gamma)  # mu < m, any t <= r
        worst = max(worst, (m - 1) * gamma + prior_max)  # mu = m, t = r, alpha != top
    if r >= 2:
        worst = max(worst, m * prior_max)  # mu = m, t < r
    return Cert(value=float(worst), bound=float(a_r), passed=worst < a_r, op="lt")


def _power_cache(blocks: list[FiniteSeq]):
    cache: dict[tuple[int, int], FiniteSeq] = {}

    def power(i: int, k: int) -> FiniteSeq:
        key = (i, k)
        if key not in cache:
            cache[key] = cauchy_power(blocks[i - 1], k)
        return cache[key]

    return power


def _product_for(power, alpha: tuple[int, ...]) -> FiniteSeq:
    out = None
    for i, e in enumerate(alpha, start=1):
        if e == 0:
            continue
        piece = power(i, e)
        out = piece if out is None else cauchy_product(out, piece)
    return out if out is not None else FiniteSeq.basis(0)


def _d4_worst(space, w, rounds_prefix, block_r, r, mode: str) -> float:
    """Largest left-hand side (in log) over all fourth-condition inequalities
    at round r, each compared against 2^-r.

    mode "sum": multinomial-weighted sums per (t, mu); mode "max": plain
    seminorms per alpha.  Returns -inf when the condition set is empty (r = 1).
    """
    if r == 1:
        return NEG_INF
    blocks = [rd.block for rd in rounds_prefix[: r - 1]] + [block_r]
    power = _power_cache(blocks)
    worst = NEG_INF
    for t in range(1, r):
        a_t = rounds_prefix[t - 1].a
        m_t = rounds_prefix[t - 1].m
        for mu in range(1, m_t + 1):
            acc = NEG_INF
            for alpha in enumerate_multi_indices(mu, r):
                img = backward_iterate(w, _product_for(power, alpha), a_t)
                val = seminorm_eval(space, r, img).upper_log
                if mode == "max":
                    worst = max(worst, val)
                else:
                    acc = float(np.logaddexp(acc, math.log(multinomial(mu, alpha)) + val))
            if mode == "sum":
                worst = max(worst, acc)
    return worst


def _certify_round(state: CauchyState, r: int, res: BlockSolveResult, m: int, l: int,
                   nu: int | None) -> CauchyRound:
    space, w = state.space, state.w
    y = state.schedule.target(l)
    a_r = res.shift
    mode = "max" if state.algebrable else "sum"
    label = "F" if state.algebrable else "D"

    checks = dict(res.checks)
    checks[f"{label}1"] = Cert.less(seminorm_eval(space, r, res.block).upper_log, -r)
    checks[f"{label}2"] = _structural_d2(state.rounds, r, m, res.gamma, a_r)
    diff = backward_iterate(w, cauchy_power(res.block, m), a_r) - y
    checks[f"{label}3"] = Cert.less(seminorm_eval(space, r, diff).upper_log, -r)
    checks[f"{label}4"] = Cert.less(_d4_worst(space, w, state.rounds, res.block, r, mode), -r)
    sep = Cert(value=float(a_r), bound=float(m * res.gamma), passed=a_r <= m * res.gamma, op="le")
    if state.rounds:
        prev = state.rounds[-1]
        sep_prev = res.eta > prev.m * prev.gamma
        sep = Cert(
            value=float(a_r),
            bound=float(m * res.gamma),
            passed=(a_r <= m * res.gamma) and sep_prev,
            op="le",
        )
    checks["separation"] = sep
    if m >= 2:
        window = 2 * (res.eta + y.max_index) + (m - 2) * res.gamma
        checks["window"] = Cert(
            value=float(window), bound=float(a_r), passed=window < a_r, op="lt"
        )
    lam_col = None
    if nu is not None:
        lam_col = [state.lam.lam(k, nu) for k in range(1, state.K + 1)]
    return CauchyRound(
        r=r,
        m=m,
        l=l,
        a=a_r,
        eta=res.eta,
        gamma=res.gamma,
        b=res.b,
        c=res.c,
        block=res.block,
        rho_index=res.seminorm_index,
        checks=checks,
        nu=nu,
        lambda_column=lam_col,
    )


def build_round(state: CauchyState, r: int) -> CauchyRound:
    """Solve one induction round, tightening (eps, rho) until the certified
    inequalities involving all earlier rounds pass."""
    if r != len(state.rounds) + 1:
        raise ValueError(f"rounds are built in order; expected round {len(state.rounds) + 1}")
    decoded = state.pairing.decode(r)
    if state.algebrable:
        m, l, nu = decoded
    else:
        (m, l), nu = decoded, None
    y = state.schedule.target(l)

    n_support = max((rd.gamma for rd in state.rounds), default=0)
    a_prev = state.rounds[-1].a if state.rounds else 1
    sep_floor = state.rounds[-1].m * state.rounds[-1].gamma if state.rounds else 0
    N = max(n_support, a_prev, sep_floor) + 1

    eps_log2 = -float(r)
    rho = r
    budget = small_budget()
    for attempt in range(budget):
        res = solve_building_block(
            state.space,
            state.w,
            y,
            m,
            rho,
            N,
            0.0,
            eps_log=eps_log2 * _LN2,
            mixing=state.mixing,
            prop_b=state.prop_b,
        )
        round_ = _certify_round(state, r, res, m, l, nu)
        if round_.passed:
            state.rounds.append(round_)
            return round_
        # jump past the observed failure margin, at least halving eps
        gaps = [
            (c.value_log2 or 0.0) - (c.bound_log2 or 0.0)
            for c in round_.checks.values()
            if not c.passed and c.op == "lt" and c.bound_log2 is not None
        ]
        eps_log2 -= max(1.0, (max(gaps) if gaps else 0.0) + 2.0)
        if attempt % 4 == 3:
            rho += 1
    raise SearchExhausted(
        "tightening budget exhausted before the round certified",
        round=r,
        m=m,
        l=l,
        eps_log2=eps_log2,
        rho=rho,
    )


def build_generator_cauchy(state: CauchyState, R: int) -> Bundle:
    """Drive rounds 1..R and assemble the truncated single-generator bundle."""
    if state.algebrable:
        raise ValueError("state is configured for the multi-generator construction")
    for r in range(len(state.rounds) + 1, R + 1):
        build_round(state, r)
    return Bundle(
        kind="cauchy",
        space=state.space,
        weight=state.w,
        targets=list(state.schedule.targets),
        K=1,
        rounds=list(state.rounds[:R]),
    )


def build_algebrable_cauchy(state: CauchyState, R: int) -> Bundle:
    """K generators sharing the blocks, scaled per round by the lambda column."""
    if not state.algebrable:
        raise ValueError("state is configured for the single-generator construction")
    for r in range(len(state.rounds) + 1, R + 1):
        build_round(state, r)
    return Bundle(
        kind="cauchy-algebrable",
        space=state.space,
        weight=state.w,
        targets=list(state.schedule.targets),
        K=state.K,
        rounds=list(state.rounds[:R]),
        lambda_params=state.lam.to_json(),
    )

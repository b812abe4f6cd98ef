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
from dataclasses import dataclass

import numpy as np

from .bundle import Bundle, Cert, CauchyRound
from .core import (
    NEG_INF,
    FiniteSeq,
    WeightSpec,
    WideComplex,
    backward_iterate,
    cauchy_monomials,
    cauchy_power,
    cauchy_product,
    root_power_block,
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
from .schedule import LambdaMatrix, PairOrder, TargetSchedule, TripleOrder
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
        eta = _scan_eta_m1(space, w, y, r, N, eps_log)
        return _assemble(space, w, y, 1, r, eps_log, eta, eta + 2 * s + 1, WideComplex.zero())

    eta, gamma, logb, _ = _scan_pairs(space, w, y, m, r, N, eps_log)
    return _assemble(space, w, y, m, r, eps_log, eta, gamma, WideComplex(logb, 0.0))


def _scan_eta_m1(space, w, y, r, N, eps_log) -> int:
    target = eps_log - _LN2  # aim for eps/2, mirroring the two-part split for m >= 2
    terms = [(j, w.v_log(j) + c.log_mag) for j, c in y.items()]
    budget = search_budget()
    eta = N
    chunk = 1024
    while eta <= N + budget:
        hi = eta + chunk
        logv = w.v_log_array(hi + y.max_index, eta)  # log v_n at n = eta, eta + 1, ...
        acc = None
        es = np.arange(eta, hi)
        for j, base in terms:
            vals = base - logv[j : j + chunk] + basis_log_array(space, r, es + j)
            acc = vals if acc is None else np.logaddexp(acc, vals)
        hit = np.nonzero(acc < target)[0]
        if len(hit):
            return int(es[hit[0]])
        eta = hi
        chunk = min(2 * chunk, 1 << 18)
    raise SearchExhausted("no eta admitted the degree-1 block within budget", N=N, eps_log=eps_log)


def _scan_pairs(space, w, y, m, r, N, eps_log, pair_budget=None) -> tuple[int, int, float, int]:
    """Walk (eta, gamma) by increasing eta + gamma (then gamma) and return the
    first pair, on the anti-diagonals the walk visits, whose closed-form b
    passes C1 and C3 in the log domain.

    The walk visits anti-diagonals in batches of 64.  Once the failure margin
    shrinks at a measurable rate it jumps over most of the estimated remaining
    distance, without proving that the skipped diagonals hold no such pair.

    Inside a batch, runs of consecutive short diagonals are evaluated together
    as one pack (see ``_packs``), and each long diagonal on its own.  Every
    diagonal is screened first (see ``_diagonal``): a cheap lower bound on
    max(C1, C3) rejects almost every pair, and the exact value is computed only
    on the pairs it cannot reject.  The screen keeps the first passing pair and
    the diagonal minimum bit for bit, so the walk, its margin and its jumps are
    those of an unscreened scan, one diagonal at a time.

    A batch reads log v_n up to n = m gamma; one that would read past the
    search budget, as a long jump can, raises SearchExhausted before anything
    is allocated.
    """
    s = y.max_index
    log_eps = eps_log
    yterms = {j: w.v_log(j) + c.log_mag - math.log(m) for j, c in y.items()}
    budget = pair_budget if pair_budget is not None else search_budget()
    reach = search_budget()
    logv = np.empty(0)  # log v_n for n = 0, 1, ..., extended when a batch reads past its end
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
        top = m * (d_last - N)  # the largest weight index of the batch
        if top >= len(logv):
            if top > reach:
                raise SearchExhausted(
                    "the (eta, gamma) pair scan reached past the search budget",
                    index=top, m=m, N=N, eps_log=eps_log, scanned=scanned,
                )
            logv = np.concatenate((logv, w.v_log_array(min(top + top // 4, reach), len(logv))))
        basis = basis_log_array(space, r, np.arange(d_last + s + 1))
        minima = []
        for pack in _packs(rows):
            starts, keep, worst, logb = _diagonal(logv, basis, yterms, s, m, pack, log_eps)
            hit = np.nonzero(worst < log_eps)[0]
            if len(hit):
                i = int(keep[hit[0]])
                row = int(starts.searchsorted(i, side="right")) - 1
                dd, g_lo, _ = pack[row]
                gamma = g_lo + i - int(starts[row])
                return dd - gamma, gamma, float(logb[i]), scanned
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


# a diagonal shorter than _PACK_ROW pairs joins a pack of consecutive short
# diagonals holding at most _PACK_PAIRS pairs; a longer one is evaluated alone
_PACK_ROW = 1024
_PACK_PAIRS = 8192
_FIRST = np.zeros(1, dtype=np.intp)  # the row starts of a lone diagonal


def _packs(rows):
    """Split ``rows`` (eta + gamma, first gamma, last gamma), in order, into
    runs evaluated together: each long diagonal alone, and consecutive short
    ones grouped while their pairs fit in _PACK_PAIRS."""
    pack, size = [], 0
    for row in rows:
        n = row[2] - row[1] + 1
        if n >= _PACK_ROW:
            n = _PACK_PAIRS  # a long diagonal fills a pack on its own
        if size + n > _PACK_PAIRS:
            yield pack
            pack, size = [], 0
        pack.append(row)
        size += n
    if pack:
        yield pack


def _diagonal(logv, basis, yterms, s, m, rows, log_eps):
    """Screened max(C1, C3) over the pairs of the anti-diagonals ``rows``
    (eta + gamma, first gamma, last gamma), laid end to end in
    (eta + gamma, gamma) order.

    Returns ``(starts, keep, worst, logb)``: the offset of each evaluated
    row's first pair, the kept offsets in ascending order, max(C1, C3) at
    those offsets and log b at every offset.  ``_atoms`` reads the tables and
    ``_screen`` does the arithmetic, so a row gives the same values alone or
    in a pack.  Rows past one that surely holds a passing pair are not
    evaluated, and ``starts`` then stops at that row.
    """
    counts = np.array([g_hi - g_lo + 1 for _, g_lo, g_hi in rows])
    starts = _FIRST if len(rows) == 1 else np.concatenate(([0], np.cumsum(counts[:-1])))
    atoms = _atoms(logv, basis, s, m, rows, counts, starts)
    return _screen(*atoms, yterms, m, starts, counts, log_eps)


def _atoms(logv, basis, s, m, rows, counts, starts):
    """The table entries the closed forms read at each pair: log ||e_{eta+j}||_r
    and log v_{eta+(m-1)gamma+j} for j = 0..s, log v_{gamma-eta},
    log v_{m gamma}, log ||e_{gamma-eta}||_r and log ||e_gamma||_r.

    ``logv`` is the log-weight table and ``basis`` the basis table
    (log ||e_n||_r for n = 0, 1, ...).  Every index is an arithmetic
    progression in gamma along one diagonal, so a lone row reads strided
    views; a pack gathers.
    """
    if len(rows) == 1:
        ((dd, g_lo, g_hi),) = rows
        n = g_hi - g_lo + 1
        top = dd + (m - 2) * g_lo  # eta + (m-1) gamma, stride m - 2
        lo = 2 * g_lo - dd  # gamma - eta, stride 2
        # eta falls as gamma rises; log v_top is constant along the diagonal when m = 2
        basis_j = [basis[dd - g_hi + j : dd - g_lo + j + 1][::-1] for j in range(s + 1)]
        logv_j = [logv[top + j] if m == 2 else logv[top + j :: m - 2][:n] for j in range(s + 1)]
        return (basis_j, logv_j, logv[lo::2][:n], logv[m * g_lo :: m][:n],
                basis[lo::2][:n], basis[g_lo : g_hi + 1])
    first = np.array([g_lo for _, g_lo, _ in rows])
    gamma = np.arange(int(counts.sum())) + np.repeat(first - starts, counts)
    eta = np.repeat(np.array([dd for dd, _, _ in rows]), counts) - gamma
    top, gap = eta + (m - 1) * gamma, gamma - eta
    basis_j = [basis.take(eta + j) for j in range(s + 1)]
    logv_j = [logv.take(top + j) for j in range(s + 1)]
    return basis_j, logv_j, logv.take(gap), logv.take(m * gamma), basis.take(gap), basis.take(gamma)


def _screen(basis_j, logv_j, logv_gap, logv_mg, basis_gap, basis_g, yterms, m, starts, counts, log_eps):
    """max(C1, C3) and log b from the atoms of ``_atoms``, screened per row.

    C1 = logaddexp(log ||q||_r, log ||b e_gamma||_r), where log ||q||_r is a
    logaddexp chain over the k target terms t_j.  Two facts screen the pairs:

    - in floating point, logaddexp(x, y) = max(x, y) + log1p(exp(-|x - y|))
      and the added term is >= 0, so ``lower = max(C3, log ||b e_gamma||_r,
      t_0, ..., t_{k-1})`` never exceeds the computed max(C1, C3);
    - in exact arithmetic, max(C1, C3) <= lower + ln(k + 1).

    So a pair whose bound is at least log eps cannot pass, and a pair whose
    bound lies more than ln(k + 1) above the smallest bound L of its row
    cannot hold the row minimum, up to the rounding of the k logaddexp steps
    that take the terms of the pair with bound L to its computed C1.  Each
    step rounds one addition, by at most half an ulp of a result within
    ln(k + 1) + 1 of L (an error in an earlier, smaller result shrinks by the
    exp of its distance to the final one), plus an absolute error under 2^-50
    from log1p and exp.  So the cut adds 1.0, which covers the absolute part
    and the magnitudes near zero, and (k + 1) 2^-48 |L|, which covers the
    relative part at any index the scan can reach.  The chain, C1 and the max
    run only on the other pairs, by the same elementwise expressions as on
    the whole row, so the first pair with max(C1, C3) < log eps and the row
    minimum are exact.  A NaN or infinite L makes the row's cut NaN or +inf,
    which keeps every pair of the row.  By the same bound, a row whose cut
    lies below log eps holds a passing pair, so the rows after it cannot hold
    the first one and are dropped.

    Returns ``(starts, keep, worst, logb)`` as ``_diagonal`` does.
    """
    # log b = (max_j A_j + min(B1, B2)) / 2; the max runs over all of 0..s
    maxA = None
    for b_j, v_j in zip(basis_j, logv_j):
        A = b_j - v_j
        if m > 2:  # dividing by 1 changes no value
            A /= m - 1
        maxA = A if maxA is None else np.maximum(maxA, A, out=maxA)
    v_gap = logv_gap - logv_mg  # log v_{gamma-eta} - log v_{m gamma}
    B1 = -basis_g
    logb = maxA
    logb += np.minimum(B1, (v_gap - basis_gap) / m)
    logb *= 0.5

    # C1 terms: t_j = log ||q_j e_{eta+j}||_r and log ||b e_gamma||_r
    logb_pow = (m - 1) * logb
    terms = []
    for j, base in yterms.items():
        t = np.subtract(base, logb_pow)
        t -= logv_j[j]
        t += basis_j[j]
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
    k = len(terms)
    low = lower.min() if len(starts) == 1 else np.minimum.reduceat(lower, starts)
    cut = low + (math.log(k + 1) + 1.0 + (k + 1) * abs(low) * 2.0**-48)
    if len(starts) > 1:
        sure = (cut < log_eps).nonzero()[0]
        if len(sure):  # that row holds a passing pair, so no later row holds the first
            starts, counts, cut = starts[: sure[0] + 1], counts[: sure[0] + 1], cut[: sure[0] + 1]
            lower = lower[: starts[-1] + counts[-1]]
        cut = np.repeat(cut, counts)
    keep = (~(lower > np.maximum(cut, log_eps))).nonzero()[0]  # a NaN cut stays NaN

    logq = terms[0][keep]
    for t in terms[1:]:
        np.logaddexp(logq, t[keep], out=logq)
    c1 = np.logaddexp(logq, be[keep], out=logq)
    return starts, keep, np.maximum(c1, c3[keep], out=c1), logb


def two_part_block(eta: int, c: list[WideComplex], gamma: int,
                   b: WideComplex) -> tuple[FiniteSeq, FiniteSeq]:
    """(q, q + b e_gamma) for q = sum_j c_j e_{eta+j}."""
    q_part = FiniteSeq({eta + j: cj for j, cj in enumerate(c)})
    return q_part, (q_part + FiniteSeq.basis(gamma, b) if not b.is_zero else q_part)


def _assemble(space, w, y, m, r, eps_log, eta, gamma, b: WideComplex) -> BlockSolveResult:
    mb = WideComplex.from_complex(m) * b.powi(m - 1)  # m b^{m-1}; equals m when m = 1
    coeffs: list[WideComplex] = []
    for j in range(y.max_index + 1):
        yj = y.coef(j)
        coeffs.append(WideComplex.zero() if yj.is_zero
                      else (w.v(j) * yj) / (mb * w.v(eta + j + (m - 1) * gamma)))
    q_part, block = two_part_block(eta, coeffs, gamma, b)
    checks = block_checks(space, w, y, m, eta, gamma, b, q_part, block, r, eps_log / _LN2)
    return BlockSolveResult(
        eta=eta,
        gamma=gamma,
        m=m,
        seminorm_index=r,
        b=b,
        c=coeffs,
        q_part=q_part,
        block=block,
        checks=checks,
    )


def block_checks(space, w, y, m, eta, gamma, b: WideComplex, q_part: FiniteSeq, block: FiniteSeq,
                 rho: int, eps_log2: float) -> dict[str, Cert]:
    """C1, C3 and C2_residual of the block ``block`` = ``q_part`` + b e_gamma
    for target y, degree m and eps = 2^eps_log2, at seminorm index rho.

    C1 bounds ||block||_rho, C3 bounds ||T^{eta+(m-1)gamma} b^m e_{m gamma}||_rho,
    and C2_residual is the relative residual of m q * b^{m-1} e_{(m-1)gamma}
    against the forward-shifted target.  The builder and bundle re-validation
    both certify through this function.
    """
    shift = eta + (m - 1) * gamma
    c3 = backward_iterate(w, FiniteSeq.basis(m * gamma, b.powi(m)), shift)
    lhs = cauchy_product(q_part, FiniteSeq.basis((m - 1) * gamma, b.powi(m - 1))).scale(
        WideComplex.from_complex(m)
    )
    res = lhs.rel_distance(root_power_block(w, y, shift, 1))
    return {
        "C1": Cert.less(seminorm_eval(space, rho, block), eps_log2),
        "C3": Cert.less(seminorm_eval(space, rho, c3), eps_log2),
        "C2_residual": Cert(value=res, bound=_C2_TOL, passed=res <= _C2_TOL, op="le"),
    }


# a column whose top-degree form has modulus at most this counts as vanishing
RHO_THRESHOLD = 1e-6


def leading_form_column(coeffs: dict[tuple[int, ...], complex], lam: LambdaMatrix) -> tuple[int, complex]:
    """First column nu >= 1 where the top-degree form evaluates above
    RHO_THRESHOLD; recurrence of columns makes arbitrarily large instances exist."""
    if not coeffs:
        raise LeadingFormVanishing("empty top-degree form")
    budget = max(4 * lam.size, 1024)
    for nu in range(1, budget + 1):
        rho = form_at_column(coeffs, lam.column(nu))
        if abs(rho) > RHO_THRESHOLD:
            return nu, rho
    raise LeadingFormVanishing(
        "no column pushed the top-degree form above the threshold; "
        "the form may vanish on the scanned grid",
        threshold=RHO_THRESHOLD,
        scanned=budget,
    )


def form_at_column(form: dict[tuple[int, ...], complex], column) -> complex:
    """sum_beta c_beta prod_k lambda_k^{beta_k} for the column (lambda_1, ...);
    entries past the end of the column are 0."""
    rho = 0j
    for beta, c in form.items():
        term = complex(c)
        for k, e in enumerate(beta):
            if e:
                term *= (column[k] if k < len(column) else 0j) ** e
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
        self.mixing = check_mixing(space, w)
        if not omega and not self.mixing.passed:
            raise WitnessError(
                "the weight is not mixing on this space at the checked horizon",
                failure=self.mixing.failure,
            )
        self.prop_b = None if omega else _state_property_b(space)
        self.rounds: list[CauchyRound] = []


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


def _d4_worst(space, w, rounds_prefix, block_r, r, mode: str) -> float:
    """Largest left-hand side (in log) over all fourth-condition inequalities
    at round r, each compared against 2^-r.

    mode "sum": multinomial-weighted sums per (t, mu); mode "max": plain
    seminorms per alpha.  Returns -inf when the condition set is empty (r = 1).
    """
    if r == 1:
        return NEG_INF
    monomial = cauchy_monomials([rd.block for rd in rounds_prefix[: r - 1]] + [block_r])
    # the multi-index sets and the products P^alpha do not depend on t
    alphas = {mu: enumerate_multi_indices(mu, r)
              for mu in range(1, max(rd.m for rd in rounds_prefix[: r - 1]) + 1)}
    products = {alpha: monomial(alpha) for mu_set in alphas.values() for alpha in mu_set}
    worst = NEG_INF
    for t in range(1, r):
        a_t = rounds_prefix[t - 1].a
        m_t = rounds_prefix[t - 1].m
        for mu in range(1, m_t + 1):
            acc = NEG_INF
            for alpha in alphas[mu]:
                img = backward_iterate(w, products[alpha], a_t)
                val = seminorm_eval(space, r, img)
                if mode == "max":
                    worst = max(worst, val)
                else:
                    acc = float(np.logaddexp(acc, math.log(multinomial(mu, alpha)) + val))
            if mode == "sum":
                worst = max(worst, acc)
    return worst


def round_checks(space, w, y, prefix: list[CauchyRound], rd: CauchyRound,
                 algebrable: bool) -> dict[str, Cert]:
    """D1-D4 (F1-F4 for the lambda-matrix construction), separation and window
    of round ``rd`` with target y, after the rounds ``prefix`` (rounds 1..r-1).

    D1 bounds the block, D2 is the structural support bound, D3 the shifted
    m-th power against the target and D4 the excluded block products (summed
    with multinomial weights, or one by one for F4).  separation asks
    a_r <= m gamma and eta > m gamma of the previous round; window
    asks that the terms of p^m with two or more q factors, which reach index
    2 (eta + s) + (m-2) gamma, lie below a_r.  The builder and bundle
    re-validation both certify through this function.
    """
    r, m, a = rd.r, rd.m, rd.a
    label = "F" if algebrable else "D"
    diff = backward_iterate(w, cauchy_power(rd.block, m), a) - y
    d4 = _d4_worst(space, w, prefix, rd.block, r, "max" if algebrable else "sum")
    checks = {
        f"{label}1": Cert.less(seminorm_eval(space, r, rd.block), -r),
        f"{label}2": _structural_d2(prefix, r, m, rd.gamma, a),
        f"{label}3": Cert.less(seminorm_eval(space, r, diff), -r),
        f"{label}4": Cert.less(d4, -r),
    }
    separated = a <= m * rd.gamma and (not prefix or rd.eta > prefix[-1].m * prefix[-1].gamma)
    checks["separation"] = Cert(value=float(a), bound=float(m * rd.gamma), passed=separated,
                                op="le")
    if m >= 2:
        window = 2 * (rd.eta + y.max_index) + (m - 2) * rd.gamma
        checks["window"] = Cert(value=float(window), bound=float(a), passed=window < a, op="lt")
    return checks


def _certify_round(state: CauchyState, r: int, res: BlockSolveResult, m: int, l: int,
                   nu: int | None) -> CauchyRound:
    lam_col = None
    if nu is not None:
        lam_col = [state.lam.lam(k, nu) for k in range(1, state.K + 1)]
    round_ = CauchyRound(
        r=r,
        m=m,
        l=l,
        a=res.shift,
        eta=res.eta,
        gamma=res.gamma,
        b=res.b,
        c=res.c,
        block=res.block,
        rho_index=res.seminorm_index,
        checks=dict(res.checks),
        nu=nu,
        lambda_column=lam_col,
    )
    y = state.schedule.target(l)
    round_.checks.update(
        round_checks(state.space, state.w, y, state.rounds, round_, state.algebrable)
    )
    return round_


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
    """Drive rounds 1..R and assemble the truncated bundle: one generator, or
    for an algebrable state K generators sharing the blocks, scaled per round
    by the lambda column."""
    for r in range(len(state.rounds) + 1, R + 1):
        build_round(state, r)
    return Bundle(
        kind="cauchy-algebrable" if state.algebrable else "cauchy",
        space=state.space,
        weight=state.w,
        targets=list(state.schedule.targets),
        K=state.K,
        rounds=list(state.rounds[:R]),
        lambda_params=state.lam.to_json() if state.algebrable else None,
    )


build_algebrable_cauchy = build_generator_cauchy

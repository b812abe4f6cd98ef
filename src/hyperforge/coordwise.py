"""Inductive constructions for coordinatewise-product algebras.

Round r = (m, l) appends an m-th root block (S^{a_r} y^(l))^{1/m} whose
seminorm certificates make every polynomial in the assembled generator track
the scheduled targets:

  A1: the block itself is small in the round's seminorm;
  A2: every earlier shift applied to every relevant power of the block is small;
  A3: consecutive indices are separated by more than the previous target's
      support, which keeps all block supports pairwise disjoint.

Candidate indices come from a hypercyclicity witness and are screened with
vectorized log arithmetic, from a certified skip target on; the accepted
index is then certified through the exact sequence/seminorm path in
``coord_checks``.  Bundle re-validation calls the same function on each
stored round and compares the result with the stored certificates.
"""
from __future__ import annotations

import math

import numpy as np

from .bundle import Bundle, Cert, CoordRound
from .core import (
    _INDEX_LIMIT,
    _U,
    NEG_INF,
    FiniteSeq,
    WeightSpec,
    backward_iterate,
    coordinatewise_power,
    root_power_block,
)
from .criteria import PkWitness, extend_pk_witness, find_pk_witness
from .errors import SearchExhausted, SpaceProductError, search_budget
from .schedule import PairOrder, TargetSchedule
from .spaces import SpaceSpec, basis_log_array, seminorm_eval

_LN2 = math.log(2.0)
# witness entries per screen window: the first window is small because the
# first survivor usually certifies; the cap bounds each window's A2 work
_WINDOW_MIN = 1 << 12
_WINDOW_MAX = 1 << 16
_MAX_REJECTED = 16


class CoordState:
    """Mutable record of a coordinatewise construction in progress."""

    def __init__(
        self,
        space: SpaceSpec,
        w: WeightSpec,
        targets: list[FiniteSeq],
        K: int = 1,
        *,
        pk: PkWitness | None = None,
    ):
        if not space.supports_coordinatewise:
            raise SpaceProductError(
                f"{space.cli_id} is not an algebra under the coordinatewise product"
            )
        self.space = space
        self.w = w
        self.schedule = TargetSchedule(targets, K)
        self.pairing = PairOrder()
        self.pk = pk if pk is not None else find_pk_witness(
            space, w, 64, horizon_n=64, horizon_q=5, growth=True
        )
        self.rounds: list[CoordRound] = []

    @property
    def K(self) -> int:
        return self.schedule.K


def _candidate_lower_bound(state: CoordState, r: int) -> int:
    if r == 1:
        return 0
    prev = state.rounds[-1]
    return prev.a + state.schedule.s(prev.l)  # strict A3: a_r > a_{r-1} + s


def _combine_terms(space: SpaceSpec, terms: list[np.ndarray]) -> np.ndarray:
    """Seminorm of coefficient-term log arrays, matching seminorm_eval exactly:
    sup-type families take the max, l_p sums p-th powers, the rest sum."""
    sid = space.space_id
    if sid in ("c0", "omega_coord"):
        acc = terms[0]
        for t in terms[1:]:
            acc = np.maximum(acc, t)
        return acc
    if sid == "l_p":
        p = space.p
        acc = terms[0] * p
        for t in terms[1:]:
            acc = np.logaddexp(acc, t * p)
        return acc / p
    acc = terms[0]
    for t in terms[1:]:
        acc = np.logaddexp(acc, t)
    return acc


def _block_logs(w: WeightSpec, m: int, y: FiniteSeq, at: np.ndarray, logv_at) -> list[np.ndarray]:
    """x_n = log |(S^a y)^{1/m}|_{a+n} per support index n of y, at each
    candidate a in ``at``; ``logv_at`` gives log|v_k| over an index array."""
    return [c.log_mag / m - (logv_at(at + n) - w.v_log(n)) / m for n, c in y.items()]


def _shift_parts(space: SpaceSpec, w: WeightSpec, r: int, a_t, supp, at: np.ndarray, logv_at):
    """Per support index n: the weight ratio g_n = log|v_{a+n}| - log|v_{a+n-a_t}|
    and the basis norm b_n = log ||e_{a+n-a_t}||_r, at each candidate a in ``at``
    (``a_t`` is one shift, or one per candidate)."""
    gs = [logv_at(at + n) - w.v_log(at + n - a_t) for n in supp]
    return gs, [basis_log_array(space, r, at + n - a_t) for n in supp]


def _condition_terms(nu: int, xs, gs, bs) -> list[np.ndarray]:
    """The log terms nu x_n + g_n + b_n whose seminorm is log ||T^{a_t} (S^a y)^{nu/m}||_r:
    A2 of (t, nu), or A1 (a_t = 0, nu = 1, gs None) as x_n + b_n with
    b_n = log ||e_{a+n}||_r.  The screen and the skip both read every
    condition through here."""
    if gs is None:
        return [x + b for x, b in zip(xs, bs)]
    return [nu * x + g + b for x, g, b in zip(xs, gs, bs)]


def _screen(state: CoordState, r: int, m: int, y: FiniteSeq, lower: int, size: int) -> np.ndarray:
    """Vectorized A1/A2 pre-filter over the first `size` witness indices > lower
    (order preserved).

    A candidate is dropped once a computed seminorm is not below 2^-r.  The
    screen is thus a necessary test up to its own rounding, which
    ``_skip_target`` bounds; its survivors are certified exactly by ``select_ar``.
    """
    space, w = state.space, state.w
    cands = state.pk.after(lower, size)
    if len(cands) == 0:
        return cands
    supp = y.support
    lo = int(cands[0])
    logv = w.v_log_array(int(cands[-1]) + y.max_index, lo)  # log v_k at k = lo, lo + 1, ...

    def logv_at(idx):
        return logv[idx - lo]

    d_r = state.pairing.max_degree_before(r)
    bound = -r * _LN2
    alive = cands
    xs = _block_logs(w, m, y, alive, logv_at)
    # A1: || (S^a y)^{1/m} ||_r < 2^-r
    bs = [basis_log_array(space, r, alive + n) for n in supp]
    keep = _combine_terms(space, _condition_terms(1, xs, None, bs)) < bound
    alive, xs = alive[keep], [x[keep] for x in xs]
    # A2: || T^{a_t} (S^a y)^{nu/m} ||_r < 2^-r, most recent shifts first; per
    # shift, the weight ratio g and basis norm b do not depend on nu
    for t in range(r - 1, 0, -1):
        if len(alive) == 0:
            return alive
        gs, bs = _shift_parts(space, w, r, state.rounds[t - 1].a, supp, alive, logv_at)
        for nu in range(1, d_r + 1):
            keep = _combine_terms(space, _condition_terms(nu, xs, gs, bs)) < bound
            alive = alive[keep]
            if len(alive) == 0:
                return alive
            xs, gs, bs = ([v[keep] for v in vs] for vs in (xs, gs, bs))
    return alive


# points probed by one step of the skip's bisection, and the bracket width at
# which it stops: the walk screens that much in its first window anyway
_SKIP_SPLIT = 64
_SKIP_SLACK = _WINDOW_MIN // 4


def _skip_delta(state: CoordState, r: int, m: int, y: FiniteSeq, at: np.ndarray) -> np.ndarray:
    """delta = 4 eps(J) at each probe J in ``at``, where eps(J) bounds the
    rounding of every condition value the screen or the skip computes at any
    a <= J (const and maclane weights).

    With u = 2^-53, N support indices, p the l_p exponent (else 1),
    d = max(nu, 1), R the basis ratio of ``_skip_target`` and K = J + max(supp),
    every operand of a term at any a <= J is at most
    Lam = |bound| + 1 + max|log y_n| + 4(|log v_K| + 2 rho(K)) + K log R in
    magnitude, where rho bounds the error of a computed log|v_k|:
    5u(k + 1) log(k + 1) for maclane (``log_factorial``) and
    4u k (1 + |log|lambda||) for const.  A term takes at most ten roundings,
    each below u (d + 1) Lam and amplified at most d + 1 times, besides
    2 (d/m + 1) rho(K) from log|v|; minima and seminorms are 1-Lipschitz in
    the terms, and the logaddexp chain adds N + 1 steps of at most
    5u p ((d + 1) Lam + N).  So

        eps(J) = 2^-40 (N + 1)(d + 1) p (Lam + N) + 2 (d/m + 1) rho(K)

    covers them with a factor of several hundred to spare.
    """
    space, w = state.space, state.w
    N, d = len(y), max(state.pairing.max_degree_before(r), 1)
    p = space.p if space.space_id == "l_p" else 1.0
    log_R = math.log(r) if space.space_id == "entire_hadamard" else 0.0
    K = at + y.max_index
    if w.kind == "const":
        rho = 4 * _U * K * (1 + abs(math.log(abs(w.value))))
    else:
        rho = 5 * _U * (K + 1) * np.log(K + 1)
    c_max = max(abs(c.log_mag) for _, c in y.items())
    lam = r * _LN2 + 1 + c_max + 4 * (np.abs(w.v_log(K)) + 2 * rho) + K * log_R
    return 4 * (2.0**-40 * (N + 1) * (d + 1) * p * (lam + N) + 2 * (d / m + 1) * rho)


def _skip_hits(state: CoordState, r: int, m: int, y: FiniteSeq, lower: int, at: np.ndarray) -> np.ndarray:
    """Whether each probe J > lower in ``at`` is a hit: for A1 or some A2 (t, nu),
    the seminorm of the termwise minima of its terms at lower + 1 and at J
    computes >= bound + delta (``_skip_delta``)."""
    space, w = state.space, state.w
    supp, d_r = y.support, state.pairing.max_degree_before(r)
    need = -r * _LN2 + _skip_delta(state, r, m, y, at)
    ends = np.concatenate(([lower + 1], at))  # column 0 is the left end of every range
    xs = _block_logs(w, m, y, ends, w.v_log)

    def hits(terms):  # each term holds one row of ends per shift
        lows = [np.minimum(v[:, 1:], v[:, :1]) for v in terms]
        return (_combine_terms(space, lows) >= need).any(axis=0)

    hit = hits(_condition_terms(1, xs, None, [basis_log_array(space, r, ends + n)[None] for n in supp]))
    if r > 1:
        # every shift at once: row t - 1 of the (r - 1) x len(ends) grid is shift a_t
        a_ts = np.repeat([rd.a for rd in state.rounds], len(ends))
        grid = np.tile(ends, r - 1)
        gs, bs = _shift_parts(space, w, r, a_ts, supp, grid, w.v_log)
        xs = [np.tile(x, r - 1) for x in xs]
        for nu in range(1, d_r + 1):
            hit |= hits([v.reshape(r - 1, -1) for v in _condition_terms(nu, xs, gs, bs)])
    return hit


def _skip_target(state: CoordState, r: int, m: int, y: FiniteSeq, lower: int) -> int:
    """A J >= lower such that the screen rejects every integer a in (lower, J].

    Shape.  A1 and each A2 (t, nu) combine log terms, one per support index
    n, through a seminorm that is nondecreasing in each term.  With
    k = a + n + 1 and R the basis ratio of the seminorm (R = r on
    entire_hadamard, R = 1 on l_p, c0 and l1), a term changes as a steps to
    a + 1 by -nu log|lambda|/m + log R for const:lambda, a constant, and by
    phi(k) + log R for maclane, where phi(k) = (1 - nu/m) log k - log(k - a_t)
    strictly decreases for k > a_t.  Either way the first difference does not
    increase, so every term is concave in a: on [lower + 1, J] it is at least
    the smaller of its two end values, and each exact condition value is at
    least G(J), the seminorm of those termwise minima.  (Where a term does not
    increase, its minimum is its value at J.)  table: weights and
    omega_coord, whose basis norm is -inf past r, have no such shape and skip
    nothing.

    Search.  A probe J is a hit (``_skip_hits``) when some condition's
    computed G(J) is >= bound + delta, delta = 4 eps(J) (``_skip_delta``).
    Then the exact value of that condition is >= bound + 2 eps on all of
    (lower, J], and the screen, which computes it within eps, rejects every
    integer there (bound + delta rounds by far less than eps).  Galloping
    over J = lower + 2^i and then a 64-way bisection, stopped once the
    bracket is at most 1,024 wide, return the largest hit below the first
    miss they find, never past the search budget.  The probes read weights
    at integers, not witness ranks, and never call ``_screen``: the walk that
    follows still chooses a_r, and it is the one the walk from lower would
    find.
    """
    if state.w.kind == "table" or state.space.space_id == "omega_coord":
        return lower
    top = min(search_budget(), _INDEX_LIMIT - 1 - y.max_index)
    if top <= lower:
        return lower
    at = lower + (1 << np.arange((top - lower).bit_length(), dtype=np.int64))
    at = at[at <= top]
    good, bad = lower, top + 1
    while True:
        hit = _skip_hits(state, r, m, y, lower, at)
        miss = len(at) if hit.all() else int(np.argmin(hit))
        if miss > 0:
            good = int(at[miss - 1])
        if miss < len(at):
            bad = int(at[miss])
        if good == lower or bad - good <= _SKIP_SLACK:
            return good
        at = np.unique(good + (bad - good) * np.arange(1, _SKIP_SPLIT, dtype=np.int64) // _SKIP_SPLIT)
        at = at[at > good]


def coord_checks(space: SpaceSpec, w: WeightSpec, schedule: TargetSchedule, pairing: PairOrder,
                 prev_rounds: list[CoordRound], r: int, a: int,
                 block: FiniteSeq) -> dict[str, Cert]:
    """A1, A2 and A3 of round r with index a and block ``block``, after the
    rounds ``prev_rounds`` (rounds 1..r-1).  The builder and bundle
    re-validation both certify through this function."""
    checks = {"A1": Cert.less(seminorm_eval(space, r, block), -r)}
    if r >= 2:
        d_r = pairing.max_degree_before(r)
        worst = NEG_INF
        for t_round in prev_rounds:
            for nu in range(1, d_r + 1):
                img = backward_iterate(w, coordinatewise_power(block, nu), t_round.a)
                worst = max(worst, seminorm_eval(space, r, img))
        checks["A2"] = Cert.less(worst, -r)
        prev = prev_rounds[-1]
        checks["A3"] = Cert.greater(a - prev.a, schedule.s(prev.l))
    return checks


def certify_coord_round(space: SpaceSpec, w: WeightSpec, schedule: TargetSchedule,
                        pairing: PairOrder, prev_rounds: list[CoordRound], r: int,
                        a: int) -> CoordRound:
    """Exact certification of round r at index a via the sequence/seminorm path."""
    m, l = pairing.decode(r)
    block = root_power_block(w, schedule.target(l), a, m)
    checks = coord_checks(space, w, schedule, pairing, prev_rounds, r, a, block)
    return CoordRound(r=r, m=m, l=l, a=a, block=block, checks=checks)


def select_ar(state: CoordState, r: int) -> CoordRound:
    """Smallest admissible witness index for round r, with stored certificates.

    The walk starts at the skip target J of ``_skip_target``, up to which
    the screen provably rejects every index: each A1/A2 log term changes with
    a by -nu log|lambda|/m + log R (const) or by (1 - nu/m) log k -
    log(k - a_t) + log R, falling in k = a + n + 1 (maclane), so it is
    concave in a and bounded on the range by its end values, and a probe
    counts only with a margin delta over the screen's rounding.  table:
    weights and omega_coord take J = a_{r-1} + s.  From J it walks the
    witness in ascending windows (4096 entries, doubling up to 2^16) and
    certifies the screen's survivors in order, so the first that passes is
    the first witness index that certifies: the screen only discards indices
    that fail a necessary inequality.  The witness is extended only when the
    walk reaches its end.
    """
    if r != len(state.rounds) + 1:
        raise ValueError(f"rounds are built in order; expected round {len(state.rounds) + 1}")
    m, l = state.pairing.decode(r)
    y = state.schedule.target(l)
    lower = _skip_target(state, r, m, y, _candidate_lower_bound(state, r))
    budget = search_budget()
    size = _WINDOW_MIN
    rejected: list[int] = []
    while True:
        pk = state.pk
        start = pk.rank(lower)
        if start == pk.count:
            if pk.last >= budget:
                raise SearchExhausted(
                    "no admissible index within the search budget",
                    round=r,
                    m=m,
                    l=l,
                    scanned_to=pk.last,
                )
            state.pk = extend_pk_witness(state.space, state.w, pk, max(2 * pk.count, 128))
            continue
        for a in _screen(state, r, m, y, lower, size):
            round_ = certify_coord_round(
                state.space, state.w, state.schedule, state.pairing, state.rounds, r, int(a)
            )
            if round_.passed:
                state.rounds.append(round_)
                return round_
            rejected.append(int(a))
            if len(rejected) == _MAX_REJECTED:
                # screen said yes but certification said no for 16 candidates in a row:
                # numerical disagreement beyond slack would be a bug
                raise SearchExhausted(
                    "screened candidates repeatedly failed exact certification",
                    round=r,
                    first_candidate=rejected[0],
                )
        lower = int(pk.index(min(start + size, pk.count) - 1))
        size = min(2 * size, _WINDOW_MAX)


def build_generator(state: CoordState, R: int) -> Bundle:
    """Drive rounds 1..R and assemble the bundle of state.K disjointly
    supported generators sharing one round sequence."""
    for r in range(len(state.rounds) + 1, R + 1):
        select_ar(state, r)
    _assert_disjoint(state.rounds[:R])
    kind = "coord" if state.K == 1 else "coord-algebrable"
    return Bundle(
        kind=kind,
        space=state.space,
        weight=state.w,
        targets=list(state.schedule.targets),
        K=state.K,
        rounds=list(state.rounds[:R]),
    )


build_algebrable = build_generator


def _assert_disjoint(rounds: list[CoordRound]) -> None:
    seen: set[int] = set()
    for rd in rounds:
        s = set(rd.block.support)
        if seen & s:
            raise AssertionError("block supports overlap; separation bookkeeping is broken")
        seen |= s

"""Inductive constructions for coordinatewise-product algebras.

Round r = (m, l) appends an m-th root block (S^{a_r} y^(l))^{1/m} whose
seminorm certificates make every polynomial in the assembled generator track
the scheduled targets:

  A1: the block itself is small in the round's seminorm;
  A2: every earlier shift applied to every relevant power of the block is small;
  A3: consecutive indices are separated by more than the previous target's
      support, which keeps all block supports pairwise disjoint.

Candidate indices come from a hypercyclicity witness and are screened with
vectorized log arithmetic; the accepted index is then certified through the
exact sequence/seminorm path in ``coord_checks``.  Bundle re-validation calls
the same function on each stored round and compares the result with the
stored certificates.
"""
from __future__ import annotations

import math

import numpy as np

from .bundle import Bundle, Cert, CoordRound
from .core import (
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


def _screen(state: CoordState, r: int, m: int, y: FiniteSeq, lower: int, size: int) -> np.ndarray:
    """Vectorized A1/A2 pre-filter over the first `size` witness indices > lower
    (order preserved)."""
    space, w = state.space, state.w
    cands = state.pk.after(lower, size)
    if len(cands) == 0:
        return cands
    supp = y.support
    lo = int(cands[0])
    logv = w.v_log_array(int(cands[-1]) + y.max_index, lo)  # log v_k at k = lo, lo + 1, ...
    d_r = state.pairing.max_degree_before(r)
    bound = -r * _LN2

    # per support index n: x = log |(S^a y)^{1/m}|_{a+n} at each candidate a
    alive = cands
    xs = [c.log_mag / m - (logv[alive + n - lo] - w.v_log(n)) / m for n, c in y.items()]
    # A1: || (S^a y)^{1/m} ||_r < 2^-r
    keep = _combine_terms(space, [x + basis_log_array(space, r, alive + n) for n, x in zip(supp, xs)]) < bound
    alive, xs = alive[keep], [x[keep] for x in xs]
    # A2: || T^{a_t} (S^a y)^{nu/m} ||_r < 2^-r, most recent shifts first; per
    # shift, the weight ratio g and basis norm b do not depend on nu
    for t in range(r - 1, 0, -1):
        if len(alive) == 0:
            return alive
        a_t = state.rounds[t - 1].a
        gs = [logv[alive + n - lo] - w.v_log(alive + n - a_t) for n in supp]
        bs = [basis_log_array(space, r, alive + n - a_t) for n in supp]
        for nu in range(1, d_r + 1):
            keep = _combine_terms(space, [nu * x + g + b for x, g, b in zip(xs, gs, bs)]) < bound
            alive = alive[keep]
            if len(alive) == 0:
                return alive
            xs, gs, bs = ([v[keep] for v in vs] for vs in (xs, gs, bs))
    return alive


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

    Walks the witness in ascending windows (4096 entries, doubling up to 2^16)
    and certifies the screen's survivors in order, so the first that passes is
    the first witness index that certifies: the screen only discards indices
    that fail a necessary inequality.  The witness is extended only when the
    walk reaches its end.
    """
    if r != len(state.rounds) + 1:
        raise ValueError(f"rounds are built in order; expected round {len(state.rounds) + 1}")
    m, l = state.pairing.decode(r)
    y = state.schedule.target(l)
    lower = _candidate_lower_bound(state, r)
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

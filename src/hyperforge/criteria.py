"""Finite-horizon witnesses for the hypotheses the constructions consume.

Limits ("-> 0", "-> infinity") are replaced by explicit desk-scale certificates:
decreasing tolerance schedules, per-index thresholds, and closed-form seminorm
inequalities verified on a horizon.  For the built-in weights the theory
guarantees these hypotheses; the witnesses make each finitely-checkable
instance auditable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _U, NEG_INF, WeightSpec
from .errors import (
    PropertyBUnavailable,
    SearchExhausted,
    SpaceProductError,
    WitnessError,
    search_budget,
)
from .spaces import SpaceSpec, basis_log_array

_LN2 = math.log(2.0)
_SLACK = 1e-9


def _check_horizon(horizon_n: int) -> None:
    """End a check whose horizon lies past the search budget before it allocates anything."""
    if horizon_n > (budget := search_budget()):
        raise SearchExhausted(f"horizon {horizon_n} lies past the search budget", horizon_n=horizon_n, budget=budget)


# derivation segments: a gap wider than this starts a new window, and no
# window spans more indices than the scan's largest chunk
_SEGMENT_GAP = 1 << 12
_SEGMENT_SPAN = 1 << 20


def _window_extremes(space: SpaceSpec, w: WeightSpec, q: int, horizon_n: int, lo: int, hi: int, growth: bool):
    """Window extremes over j in [p, p+horizon_n] for p in [lo, hi), from one
    read of log|v_j| at j = lo..hi+horizon_n-1.

    Returns ``(hmax, gmin, logv)``: the window max of log ||v_j^{-1} e_j||_q,
    the window min of log|v_j| (None unless ``growth``), and the log|v_j|
    read.  Both arrays are monotone beyond a small prefix, so past the last
    break in monotonicity inside the read the window extreme is just the left
    edge; before it an explicit sliding window is taken.  Both are exact.  The
    weight's index guard runs before any allocation.
    """
    _check_horizon(horizon_n)
    logv = w.v_log_array(hi + horizon_n - 1, lo)

    def extreme(vals: np.ndarray, is_max: bool) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # -inf minus -inf (flat omega tails) is benign
            bad = np.flatnonzero(np.diff(vals) > 0 if is_max else np.diff(vals) < 0)
        split = 0 if len(bad) == 0 else min(int(bad[-1]) + 1, hi - lo)
        out = np.empty(hi - lo)
        if split > 0:
            win = np.lib.stride_tricks.sliding_window_view(vals[: split + horizon_n], horizon_n + 1)
            out[:split] = win.max(axis=1) if is_max else win.min(axis=1)
        out[split:] = vals[split : hi - lo]
        return out

    h = basis_log_array(space, q, np.arange(lo, hi + horizon_n))
    h -= logv
    hmax = extreme(h, True)
    del h  # freed before the growth minima are taken
    return hmax, (extreme(logv, False) if growth else None), logv


# ---------------------------------------------------------------------------
# hypercyclicity witness (increasing index sequence with decaying basis terms)
# ---------------------------------------------------------------------------


class PkWitness:
    """Increasing indices p_k with, for every n <= horizon_n,
    ||v_{p_k+n}^{-1} e_{p_k+n}||_{q_k} < tol_k, where q_k = min(k, horizon_q)
    walks up the seminorm indices.

    The tolerance schedule is data-driven: tol_1 = 1 and tol_{k+1} is the k-th
    certified value (or half the previous tolerance once values hit exact
    zero), so it decreases strictly at the weight's own decay rate and any
    weight with monotone decay admits every index.  With ``growth`` set, each
    entry additionally certifies min_n |v_{p_k+n}| > g_k for the increasing
    data-driven thresholds g_1 = 0, g_{k+1} = the k-th certified minimum.

    The indices are held as runs of consecutive integers [lo, hi], with the
    scan's next log tolerance and log growth threshold, so a witness costs
    memory O(runs) and ``extend_pk_witness`` resumes without reading any
    per-entry array.  The build reads its candidates through ``rank``,
    ``after``, ``index`` and ``last``.  The arrays ``p``, ``value_log``,
    ``tol_log``, ``vmin_log`` and ``growth_log`` are derived on first read,
    once per witness and from k = 1: values and minima from one read of
    log|v| per window (window extremes are exact, so they are bit for bit
    what the scan certified), tolerances and thresholds from the data-driven
    rule.  A witness loaded by ``from_json`` is the scan's own witness.

    For const and maclane weights on l_p, c0, l1 and entire_*, the scan
    certifies a contiguous tail in closed form and reads only its two end
    windows, so extending a witness costs O(1) reads of log|v| however many
    entries it adds.  The certificate is an a-priori bound rho(n) on the
    rounding of the computed log ||v_j^{-1} e_j||_q and log|v_j| at j <= n
    (``_monotone_tail``): where the exact step of both exceeds 2 rho, both
    computed sequences are strictly monotone, every window extreme is its
    left edge, and the chunk scan would accept every index with the same
    elementwise values, so the runs and next tolerance and threshold are
    the chunk scan's bit for bit (``_scan_pk``).
    """

    def __init__(self, space: SpaceSpec, w: WeightSpec, lo, hi, horizon_n: int, horizon_q: int,
                 growth: bool, next_tol_log: float, next_growth_log: float):
        self._space, self._w = space, w  # what the arrays are derived from
        self._lo = np.asarray(lo, dtype=np.int64)
        self._hi = np.asarray(hi, dtype=np.int64)
        lengths = self._hi - self._lo + 1
        self._first = np.cumsum(lengths) - lengths  # entries before each run
        self.count = int(lengths.sum())
        self.horizon_n = horizon_n
        self.horizon_q = horizon_q
        self.growth = growth
        self.next_tol_log = next_tol_log
        self.next_growth_log = next_growth_log
        self._arrays: dict[str, np.ndarray] = {}

    # -- run access (the build path) ---------------------------------------------
    @property
    def last(self) -> int:
        """Largest index, or 0 for an empty witness."""
        return int(self._hi[-1]) if len(self._hi) else 0

    def rank(self, x: int) -> int:
        """Number of entries <= x."""
        j = int(np.searchsorted(self._lo, x, side="right"))
        if j == 0:
            return 0
        return int(self._first[j - 1]) + min(x, int(self._hi[j - 1])) - int(self._lo[j - 1]) + 1

    def index(self, k: int) -> int:
        """Entry at 0-based position k."""
        j = int(np.searchsorted(self._first, k, side="right")) - 1
        return int(self._lo[j]) + k - int(self._first[j])

    def after(self, lower: int, size: int) -> np.ndarray:
        """The first `size` indices > lower, ascending."""
        k0 = self.rank(lower)
        return self._entries(k0, min(k0 + size, self.count))

    def _entries(self, k0: int, k1: int) -> np.ndarray:
        """Entries at positions k0..k1-1."""
        j0 = int(np.searchsorted(self._first, k0, side="right")) - 1
        j1 = int(np.searchsorted(self._first, k1, side="left"))
        first = self._first[j0:j1]
        lengths = np.minimum(first + (self._hi[j0:j1] - self._lo[j0:j1] + 1), k1) - np.maximum(first, k0)
        out = np.repeat(self._lo[j0:j1] - first, lengths)
        out += np.arange(k0, k1)
        return out

    # -- per-entry arrays, derived on first read ---------------------------------
    p = property(lambda self: self._array("p"))
    value_log = property(lambda self: self._array("value_log"))
    tol_log = property(lambda self: self._array("tol_log"))
    vmin_log = property(lambda self: self._array("vmin_log") if self.growth else None)
    growth_log = property(lambda self: self._array("growth_log") if self.growth else None)

    def _array(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            if name == "p":
                self._arrays["p"] = self._entries(0, self.count)
            else:
                self._arrays.update(self._derive())
        return self._arrays[name]

    def _derive(self) -> dict[str, np.ndarray]:
        """value_log and tol_log, and with growth vmin_log and growth_log, of
        every entry.  Entry k uses the seminorm min(k, horizon_q), so the
        first horizon_q - 1 entries take a window each and the rest one
        window per segment of nearby indices."""
        space, w = self._space, self._w
        p, growth = self.p, self.growth
        values = np.empty(len(p))
        vmins = np.empty(len(p)) if growth else None
        few = min(len(p), self.horizon_q - 1)
        cuts = np.flatnonzero(np.diff(p[few:]) > _SEGMENT_GAP) + 1 + few
        bounds = [*range(few), few, *cuts.tolist(), len(p)]
        for a, b in zip(bounds, bounds[1:]):
            while a < b:
                lo = int(p[a])
                e = a + int(np.searchsorted(p[a:b], lo + _SEGMENT_SPAN))
                q = min(a + 1, self.horizon_q)
                hmax, gmin, _ = _window_extremes(space, w, q, self.horizon_n, lo, int(p[e - 1]) + 1, growth)
                values[a:e] = hmax[p[a:e] - lo]
                if growth:
                    vmins[a:e] = gmin[p[a:e] - lo]
                a = e
        out = {"value_log": values, "tol_log": _tolerances(values)}
        if self.growth:
            out["vmin_log"] = vmins
            out["growth_log"] = _thresholds(vmins)
        return out

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> dict:
        out = {
            "p": self.p.tolist(),
            "value_log": self.value_log.tolist(),
            "tol_log": self.tol_log.tolist(),
            "count": self.count,
            "horizon_n": self.horizon_n,
            "horizon_q": self.horizon_q,
            "growth": self.growth,
            "q_rule": f"min(k, {self.horizon_q})",
        }
        if self.growth:
            out["vmin_log"] = self.vmin_log.tolist()
            out["growth_log"] = self.growth_log.tolist()
        return out

    @classmethod
    def from_json(cls, data: dict, space: SpaceSpec, w: WeightSpec) -> "PkWitness":
        """The witness of a ``to_json`` document for ``space`` and ``w``.

        The scan is run again with the document's count, horizons and growth
        flag, and the document must equal the scanned witness's ``to_json``
        exactly.  Raises WitnessError when it does not, KeyError, TypeError
        or ValueError when it is malformed, and SearchExhausted or
        WeightError when the scan cannot run.
        """
        count, horizon_n, horizon_q, growth = (data[k] for k in ("count", "horizon_n", "horizon_q", "growth"))
        if any(type(v) is not int for v in (count, horizon_n, horizon_q)) or type(growth) is not bool:
            raise TypeError("witness count and horizons must be integers, and growth a boolean")
        # the rescan is bounded by the document's own length; a float or a
        # bool index would compare equal to the integer it stands for
        if count != len(data["p"]) or not set(map(type, data["p"])) <= {int}:
            raise ValueError("witness indices must be `count` integers")
        pk = find_pk_witness(space, w, count, horizon_n, horizon_q, growth=growth)
        if pk.to_json() != data:
            raise WitnessError("the witness differs from the one the scan finds")
        return pk


def _tolerances(values: np.ndarray) -> np.ndarray:
    """tol_1 = 0, tol_{k+1} = value_k, or tol_k - ln 2 (one subtraction at a
    time, as the scan does) where value_k is -inf."""
    tol = np.concatenate(([0.0], values))[: len(values)]
    halved = np.flatnonzero(tol[1:] == NEG_INF) + 1
    if len(halved):
        breaks = np.flatnonzero(np.diff(halved) > 1)
        for s, e in zip(halved[np.r_[0, breaks + 1]], halved[np.r_[breaks, len(halved) - 1]]):
            steps = np.full(e - s + 2, _LN2)
            steps[0] = tol[s - 1]
            tol[s : e + 1] = np.subtract.accumulate(steps)[1:]
    return tol


def _thresholds(vmins: np.ndarray) -> np.ndarray:
    """g_1 = -inf, g_{k+1} = vmin_k."""
    return np.concatenate(([NEG_INF], vmins))[: len(vmins)]


def find_pk_witness(
    space: SpaceSpec,
    w: WeightSpec,
    count: int,
    horizon_n: int = 500,
    horizon_q: int = 5,
    *,
    growth: bool = False,
) -> PkWitness:
    """Scan indices ascending, certifying each accepted one on the horizon.

    Raises SearchExhausted when the scan stalls, which signals that the weight
    likely fails the hypercyclicity criterion at this horizon (e.g. |lambda| <= 1).
    """
    if count < 0 or horizon_n < 0 or horizon_q < 1:
        raise ValueError("a witness needs count >= 0, horizon_n >= 0 and horizon_q >= 1")
    lo: list[int] = []
    hi: list[int] = []
    tol, g = _scan_pk(
        space, w, count, horizon_n, horizon_q, growth, lo, hi,
        k_start=1, p_start=0, tol0=0.0, g0=NEG_INF,
    )
    return PkWitness(space, w, lo, hi, horizon_n, horizon_q, growth, tol, g)


def extend_pk_witness(space: SpaceSpec, w: WeightSpec, pk: PkWitness, count: int) -> PkWitness:
    """Deterministically continue the scan so the witness holds >= count entries."""
    if count <= pk.count:
        return pk
    lo, hi = pk._lo.tolist(), pk._hi.tolist()
    tol, g = _scan_pk(
        space, w, count - pk.count, pk.horizon_n, pk.horizon_q, pk.growth, lo, hi,
        k_start=pk.count + 1, p_start=pk.last, tol0=pk.next_tol_log, g0=pk.next_growth_log,
    )
    return PkWitness(space, w, lo, hi, pk.horizon_n, pk.horizon_q, pk.growth, tol, g)


def _monotone_tail(space: SpaceSpec, w: WeightSpec, q: int, start: int, end: int) -> bool:
    """Whether, by an a-priori bound alone, the computed
    h_j = log ||e_j||_q - log|v_j| strictly falls and the computed log|v_j|
    strictly rises at every step j -> j + 1 with start <= j < end.

    Only const and maclane weights on l_p, c0, l1 and entire_* qualify.  With
    l = log R, the double that ``basis_log_array`` multiplies by (R = q on
    entire_*; R = 1 elsewhere, where log ||e_j|| is exactly 0), the exact h
    falls by L - l per step for const (L the double log|lambda|) and by
    log(j + 1) - l for maclane, least at j = start.  With u = 2^-53, a
    computed value at j <= n lies within rho(n) of its exact counterpart,
    where

        rho(n) = 3u n (l + |L|)                    for const,
        rho(n) = 8u (n + 1)(l + log(n + 1))        for maclane:

    j l is one product (u j l), j L one product (u j |L|), log j! is within
    the ``log_factorial`` radius 5u(j + 1) log(j + 1), and the subtraction
    adds u |log ||e_j|| - log|v_j||; the sum is at most (2 + 2u) u j (l + |L|)
    and 7u (j + 1)(l + log(j + 1)), and the spare factor covers the rounding
    of the fall itself.  A fall above 2 rho(end) therefore orders every pair
    of computed neighbours; log|v_j| rises by L, or log(j + 1), which is at
    least the fall of h, and its rounding is at most rho.
    """
    if w.kind == "table" or space.space_id in ("omega_coord", "omega_cauchy"):
        return False
    log_r = math.log(q) if space.space_id in ("entire_hadamard", "entire_cauchy") else 0.0
    if w.kind == "const":
        log_abs = math.log(abs(w.value))
        fall, rho = log_abs - log_r, 3 * _U * end * (log_r + abs(log_abs))
    else:
        fall, rho = math.log(start + 1) - log_r, 8 * _U * (end + 1) * (log_r + math.log(end + 1))
    return fall > 2 * rho


def _scan_pk(space, w, need, horizon_n, horizon_q, growth, run_lo, run_hi, k_start, p_start, tol0, g0):
    """Accept `need` indices past p_start, appending them to the runs
    run_lo/run_hi (merged into the last run where adjacent); returns the next
    log tolerance and log growth threshold.

    Indices are read in chunks through ``_window_extremes``, with one
    closed-form tail.  Once the seminorm index is fixed (k > horizon_q) and
    the last index p - 1 was accepted, let E = min(p + need - found,
    limit + 1).  If ``_monotone_tail`` orders the computed h_j and log|v_j|
    strictly at every step from p - 1 on through index E - 1 + horizon_n, the
    whole range [p, E) is accepted as one run, after one read of the window
    at p (its value must be finite and below the tolerance, and with growth
    its minimum above the threshold) and one at E - 1 (the next tolerance and
    threshold).  The output is the chunk scan's, bit for bit: on that range
    every window extreme is its left edge, h_j or log|v_j|, so each chunk the
    scan would read is strictly monotone, passes its chained test, and stores
    the same elementwise values.  The tolerance after p - 1 is h_{p-1} > h_p
    and the threshold log|v_{p-1}| < log|v_p|, so the read at p only fails on
    a witness whose tolerances the scan did not make.  Everything the bound
    does not cover (table weights, omega spaces, small maclane indices,
    near-cancelling const weights, gaps) takes the chunk scan.
    """
    limit = search_budget()
    if w.kind == "table":
        limit = min(limit, int(w.max_index) - horizon_n - 1)
        if limit <= p_start:
            raise SearchExhausted("weight table too short for the requested horizon")
    _check_horizon(horizon_n)

    found = 0
    k = k_start
    tol = tol0  # log tolerance for the next entry (tol_1 = log 1 = 0)
    g = g0  # log growth threshold (g_1 = log 0 = -inf)
    p = p_start + 1
    last_accept = p_start
    chunk = 4096
    best_seen = math.inf

    def add_run(a, b):
        if run_hi and run_hi[-1] == a - 1:
            run_hi[-1] = b
        else:
            run_lo.append(a)
            run_hi.append(b)

    while found < need:
        if p > limit:
            raise SearchExhausted(
                "index scan budget exhausted before the witness was complete; "
                "the weight likely fails the hypercyclicity criterion at this horizon",
                scanned_to=p - 1, entries_found=found, needed=need, best_margin_log=best_seen,
            )
        q = min(k, horizon_q)
        end = min(p + need - found, limit + 1)
        if k > horizon_q and last_accept == p - 1 and _monotone_tail(space, w, q, p - 1, end + horizon_n):
            wm, gmin, _ = _window_extremes(space, w, q, horizon_n, p, p + 1, growth)
            if wm[0] != NEG_INF and wm[0] < tol and (gmin is None or gmin[0] > g):
                if end - 1 > p:
                    wm, gmin, _ = _window_extremes(space, w, q, horizon_n, end - 1, end, growth)
                add_run(p, end - 1)
                found += end - p
                k += end - p
                tol = float(wm[0])
                if growth:
                    g = float(gmin[0])
                p, last_accept = end, end - 1
                continue
        hi = min(p + chunk, limit + 1)
        wm = gmin = None  # the last chunk's arrays are freed before the next read
        wm, gmin, _ = _window_extremes(space, w, q, horizon_n, p, hi, growth)

        if k >= horizon_q:
            # with a fixed seminorm index and strict monotone data, every index
            # in the chunk chains ok = value < previous value < ... < tol
            finite = wm[0] != NEG_INF and wm[-1] != NEG_INF
            ok = finite and wm[0] < tol and bool(np.all(np.diff(wm) < 0))
            if ok and gmin is not None:
                ok = gmin[0] > g and bool(np.all(np.diff(gmin) > 0))
            if ok:
                take = min(hi - p, need - found)
                add_run(p, p + take - 1)
                found += take
                k += take
                tol = float(wm[take - 1])
                if growth:
                    g = float(gmin[take - 1])
                p += take
                last_accept = p - 1
                chunk = min(chunk * 2, 1 << 20)
                continue

        base = 0  # wm[i - base] is the window value at p + i for the seminorm q
        for i in range(hi - p):
            cand = p + i
            if min(k, horizon_q) != q:  # a later seminorm: the rest of the chunk is read again
                q, base = min(k, horizon_q), i
                wm = _window_extremes(space, w, q, horizon_n, cand, hi, False)[0]
            val = wm[i - base]
            best_seen = min(best_seen, val - tol)
            if val < tol and (gmin is None or gmin[i] > g):
                add_run(cand, cand)
                found += 1
                k += 1
                tol = float(val) if val != NEG_INF else tol - _LN2
                if growth:
                    g = float(gmin[i])
                last_accept = cand
                if found == need:
                    break
        p = hi
        stall = max(32768, 8 * horizon_n)
        if p - last_accept > stall:
            raise SearchExhausted(
                "no index certified within the stall window; the weight likely fails "
                "the hypercyclicity criterion at this horizon",
                scanned_to=p - 1, entries_found=found, needed=need, best_margin_log=best_seen,
            )
    return tol, g


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


@dataclass
class MixingCertificate:
    """Per-seminorm thresholds past which ||v_n^{-1} e_n||_q stays below tol."""

    space_id: str
    weight: str
    passed: bool
    tol: float
    horizon_n: int
    horizon_q: int
    thresholds: dict[int, int]
    failure: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "space": self.space_id,
            "weight": self.weight,
            "pass": self.passed,
            "tol": self.tol,
            "horizon_n": self.horizon_n,
            "horizon_q": self.horizon_q,
            "thresholds": {str(q): n for q, n in self.thresholds.items()},
            "failure": list(self.failure) if self.failure else None,
        }


def check_mixing(
    space: SpaceSpec, w: WeightSpec, horizon_n: int = 500, horizon_q: int = 5, tol: float = 1e-3
) -> MixingCertificate:
    """Certify ||v_n^{-1} e_n||_q < tol for every q <= horizon_q and all n past a
    reported threshold; fails with the witnessing (n, q) if decay is not observed."""
    if not (horizon_n >= 0 and horizon_q >= 1 and 0 < tol < math.inf):
        raise ValueError("mixing needs horizon_n >= 0, horizon_q >= 1 and a finite tol > 0")
    _check_horizon(horizon_n)
    log_tol = math.log(tol)
    thresholds: dict[int, int] = {}
    failure = None
    idx = np.arange(horizon_n + 1)
    logv = w.v_log_array(horizon_n)
    for q in range(1, horizon_q + 1):
        vals = basis_log_array(space, q, idx) - logv
        bad = np.nonzero(vals >= log_tol)[0]
        if len(bad) and bad[-1] == horizon_n:
            failure = (int(bad[-1]), q)
            break
        thresholds[q] = int(bad[-1]) + 1 if len(bad) else 0
    return MixingCertificate(
        space.cli_id, w.describe(), failure is None, tol, horizon_n, horizon_q, thresholds, failure
    )


# ---------------------------------------------------------------------------
# Property A (squared basis norms dominated by a higher seminorm)
# ---------------------------------------------------------------------------


def _property_a_breaks(space: SpaceSpec, r: int, q: int, C: float, n_max: int) -> np.ndarray:
    """The indices n <= n_max where 2 log||e_n||_r > log C + log||e_n||_q
    beyond the slack, i.e. where ||e_n||_r^2 <= C ||e_n||_q fails."""
    idx = np.arange(n_max + 1)
    lhs = 2 * basis_log_array(space, r, idx)
    return np.flatnonzero(lhs > math.log(C) + basis_log_array(space, q, idx) + _SLACK)


def _property_a_step(space: SpaceSpec, r: int) -> tuple[int, float]:
    sid = space.space_id
    if sid in ("entire_hadamard", "entire_cauchy"):
        return r * r, 1.0
    # bounded bases (l_p, c0, l1) and 0/1 indicator bases (omega families)
    return r, 1.0


@dataclass
class PropertyAWitness:
    """Per seminorm index r: (q, C) with ||e_n||_r^2 <= C ||e_n||_q on the horizon."""

    space_id: str
    n_max: int
    entries: dict[int, tuple[int, float]]

    def to_json(self) -> dict:
        return {
            "space": self.space_id,
            "n_max": self.n_max,
            "entries": {str(r): [q, C] for r, (q, C) in sorted(self.entries.items())},
        }


def property_a_witness(space: SpaceSpec, r_max: int = 5, n_max: int = 500) -> PropertyAWitness:
    """Closed-form certificates per built-in space, verified on the horizon."""
    if n_max < 0 or r_max < 1:
        raise ValueError("property A needs n_max >= 0 and r_max >= 1")
    _check_horizon(n_max)
    entries = {}
    for r in range(1, r_max + 1):
        q, C = _property_a_step(space, r)
        bad = _property_a_breaks(space, r, q, C, n_max)
        if len(bad):
            raise WitnessError(
                f"no squared-basis-norm witness for {space.cli_id} at r={r}",
                r=r,
                n=int(bad[0]),
            )
        entries[r] = (q, C)
    return PropertyAWitness(space.cli_id, n_max, entries)


# ---------------------------------------------------------------------------
# Property B (Cauchy-product basis norm compatibilities)
# ---------------------------------------------------------------------------


@dataclass
class PropertyBWitness:
    """Closed-form certificates for the three basis-norm conditions of the
    Cauchy building-block hypotheses, verified on a horizon.

    Condition (iii) nests quantifiers; ``cond_iii`` maps each instance
    (m, M, r, t) verified here to its (rho, tau, C2).
    """

    space_id: str
    n_max: int
    m_max: int
    M_max: int
    r_max: int
    t_max: int
    cond_i_q: int
    cond_ii: dict[int, tuple[int, float]]
    cond_iii: dict[tuple[int, int, int, int], tuple[int, int, float]] = field(repr=False)

    def to_json(self) -> dict:
        return {
            "space": self.space_id,
            "n_max": self.n_max,
            "horizons": {"m_max": self.m_max, "M_max": self.M_max, "r_max": self.r_max, "t_max": self.t_max},
            "cond_i": {"q": self.cond_i_q},
            "cond_ii": {str(r): [q, C1] for r, (q, C1) in sorted(self.cond_ii.items())},
            "cond_iii": [
                {"m": m, "M": M, "r": r, "t": t, "rho": rho, "tau": tau, "C2": C2}
                for (m, M, r, t), (rho, tau, C2) in sorted(self.cond_iii.items())
            ],
        }


def _property_b_rules(space_id: str):
    if space_id == "l1":
        return (1, lambda r: (1, 1.0), lambda m, M, r, t: (1, 1, 1.0))
    if space_id == "entire_cauchy":
        return (1, lambda r: (r, 1.0), lambda m, M, r, t: (t, r, float(t) ** M))
    raise AssertionError(space_id)


def property_b_witness(
    space: SpaceSpec,
    m_max: int = 4,
    M_max: int = 16,
    r_max: int = 5,
    n_max: int = 500,
    t_max: int | None = None,
) -> PropertyBWitness:
    if n_max < 0 or min(m_max, M_max, r_max) < 1:
        raise ValueError("property B needs n_max >= 0 and m_max, M_max, r_max >= 1")
    if space.product != "cauchy":
        raise SpaceProductError(
            f"the building-block conditions apply to Cauchy-product algebras; "
            f"{space.cli_id} carries the {space.product} product"
        )
    if space.space_id == "omega_cauchy":
        raise PropertyBUnavailable(
            "omega_cauchy does not satisfy condition (i): every basis seminorm "
            "vanishes beyond its index, so no single seminorm keeps all e_n away "
            "from zero; constructions on this space bypass the building-block "
            "conditions by pushing both block windows past the seminorm horizon"
        )
    _check_horizon(n_max)
    t_max = t_max if t_max is not None else r_max
    cond_i_q, rule_ii, rule_iii = _property_b_rules(space.space_id)
    wit = PropertyBWitness(
        space.cli_id,
        n_max,
        m_max,
        M_max,
        r_max,
        t_max,
        cond_i_q,
        {r: rule_ii(r) for r in range(1, r_max + 1)},
        {
            (m, M, r, t): rule_iii(m, M, r, t)
            for m in range(2, m_max + 1)
            for M in range(1, M_max + 1)
            for r in range(1, r_max + 1)
            for t in range(1, t_max + 1)
        },
    )
    _verify_property_b(space, wit)
    return wit


# condition (ii) is checked in blocks of k holding at most this many (n, k) pairs
_PROP_B_BLOCK = 1 << 16


def _verify_property_b(space: SpaceSpec, wit: PropertyBWitness) -> None:
    """Check conditions (i)-(iii) on n, k <= n_max; raise WitnessError naming
    the first failing instance, in order of k and then n.

    Condition (ii) compares (n_max + 1)^2 pairs per r, so a horizon whose pair
    count lies past the search budget raises SearchExhausted before anything
    is allocated.
    """
    n_max = wit.n_max
    pairs, budget = (n_max + 1) ** 2, search_budget()
    if pairs > budget:
        raise SearchExhausted(
            f"condition (ii) on horizon {n_max} compares {pairs} pairs, past the search budget",
            horizon_n=n_max, budget=budget,
        )
    idx = np.arange(n_max + 1)
    if np.any(basis_log_array(space, wit.cond_i_q, idx) == NEG_INF):
        raise WitnessError("condition (i) failed on the horizon", q=wit.cond_i_q)
    rows = max(1, _PROP_B_BLOCK // (n_max + 1))
    for r, (q, C1) in wit.cond_ii.items():
        br = basis_log_array(space, r, idx)
        # row k of the window view is log ||e_{n+k}||_q for n = 0..n_max
        bq = basis_log_array(space, q, np.arange(2 * n_max + 1))
        bq = np.lib.stride_tricks.sliding_window_view(bq, n_max + 1)
        for k0 in range(0, n_max + 1, rows):
            lhs = br + br[k0 : k0 + rows, None]
            rhs = math.log(C1) + bq[k0 : k0 + rows]
            bad = lhs > rhs + _SLACK
            if bad.any():
                k, n = divmod(int(bad.argmax()), n_max + 1)
                raise WitnessError("condition (ii) failed", r=r, n=n, k=k0 + k)
    # condition (iii) reads, once per seminorm index and m, tables over k <= M_max
    # and n <= n_max; an instance compares the view [:M + 1, M:] of them
    M_top = max((M for _, M, _, _ in wit.cond_iii), default=0)
    ks = np.arange(M_top + 1)[:, None]
    tables: dict[tuple, np.ndarray] = {}

    def table(kind: str, m: int, q: int) -> np.ndarray:
        key = (kind, m, q)
        if key not in tables:
            if kind == "shift":  # [k, n]: log ||e_{m n - k}||_q, clipped at 0 where n < M
                at = np.maximum(m * idx - ks, 0)
                tables[key] = basis_log_array(space, q, at.ravel()).reshape(at.shape)
            else:  # [n]: log ||e_{m n}||_q
                tables[key] = basis_log_array(space, q, m * idx)
        return tables[key]

    for (m, M, r, t), (rho, tau, C2) in wit.cond_iii.items():
        lhs = table("at", m, t)[M:] + table("shift", 1, r)[: M + 1, M:]
        rhs = math.log(C2) + table("at", m, tau)[M:] / m + table("shift", m, rho)[: M + 1, M:]
        bad = lhs > rhs + _SLACK
        if bad.any():
            k, i = divmod(int(bad.argmax()), n_max + 1 - M)
            raise WitnessError("condition (iii) failed", m=m, M=M, r=r, t=t, k=k, n=M + i)

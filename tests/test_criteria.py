import hashlib
import math
import random

import numpy as np
import pytest

from hyperforge import (
    FiniteSeq,
    WeightSpec,
    check_mixing,
    extend_pk_witness,
    find_pk_witness,
    property_a_witness,
    property_b_witness,
    seminorm_eval,
    space,
)
from hyperforge import criteria as criteria_mod
from hyperforge.core import log_decode
from hyperforge.criteria import PkWitness, _verify_property_b, _window_extremes
from hyperforge.spaces import basis_log_array
from hyperforge.errors import PropertyBUnavailable, SearchExhausted, SpaceProductError, WeightError, WitnessError

from conftest import GROWTH_TAMPERS, tamper_growth


class TestHypercyclicityWitness:
    def test_geometric_weight_accepts_every_index(self, weight2):
        # oracle: ||v_{p+n}^{-1} e_{p+n}||_1 = 2^-(p+n) on the l1 norm, so the
        # k-th tolerance 2^(1-k) admits p = k and nothing smaller
        pk = find_pk_witness(space("l1"), weight2, 5, horizon_n=3)
        assert list(pk.p) == [1, 2, 3, 4, 5]
        assert PkWitness.from_json(pk.to_json(), space("l1"), weight2).count == 5
        assert np.exp(pk.tol_log) == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625], rel=1e-12)
        assert pk.to_json()["q_rule"] == "min(k, 5)"

    def test_schedules_monotone(self, maclane):
        pk = find_pk_witness(space("entire_hadamard"), maclane, 12, horizon_n=20)
        assert np.all(np.diff(pk.p) > 0)
        assert pk.tol_log[0] == 0.0 and np.all(np.diff(pk.tol_log) < 0)
        assert np.all(np.isfinite(pk.tol_log))
        assert pk.to_json()["q_rule"] == "min(k, 5)"

    def test_contracting_weight_exhausts_search(self):
        with pytest.raises(SearchExhausted):
            find_pk_witness(space("l1"), WeightSpec.parse("const:0.5"), 3, horizon_n=3)

    def test_unimodular_weight_exhausts_search(self):
        with pytest.raises(SearchExhausted):
            find_pk_witness(space("l1"), WeightSpec.parse("const:1"), 2, horizon_n=3)

    def test_omega_indices_past_the_horizon_qualify(self, maclane):
        oc = space("omega_coord")
        pk = find_pk_witness(oc, maclane, 6, horizon_n=10, horizon_q=3)
        # every accepted index is invisible to its certifying seminorm
        for k in range(1, 7):
            p = int(pk.p[k - 1])
            q = min(k, pk.horizon_q)
            val = log_decode(seminorm_eval(oc, q, FiniteSeq.basis(p)))
            assert val * 2.0 ** (k - 1) < 2.0 or p > q
        assert PkWitness.from_json(pk.to_json(), oc, maclane).count == 6

    def test_growth_certificates(self, weight2):
        pk = find_pk_witness(space("l1"), weight2, 8, horizon_n=4, growth=True)
        assert pk.growth and PkWitness.from_json(pk.to_json(), space("l1"), weight2).growth
        for k in range(1, 9):
            assert weight2.v_log(int(pk.p[k - 1])) >= (k - 1) * math.log(2) - 1e-12

    def test_extension_is_deterministic(self, weight2):
        l1 = space("l1")
        pk8 = find_pk_witness(l1, weight2, 8, horizon_n=4)
        pk3 = find_pk_witness(l1, weight2, 3, horizon_n=4)
        ext = extend_pk_witness(l1, weight2, pk3, 8)
        assert list(ext.p) == list(pk8.p)

    def test_json_roundtrip(self, weight2):
        pk = find_pk_witness(space("l1"), weight2, 6, horizon_n=4)
        back = PkWitness.from_json(pk.to_json(), space("l1"), weight2)
        assert list(back.p) == list(pk.p) and back.horizon_q == pk.horizon_q
        assert back.to_json() == pk.to_json()

    def test_tampered_witness_fails_validation(self, weight2):
        l1 = space("l1")
        doc = find_pk_witness(l1, weight2, 6, horizon_n=4).to_json()
        doc["p"] = [p + 1 for p in doc["p"]]  # shift every index up; stored values no longer match
        with pytest.raises(WitnessError, match="differs from the one the scan finds"):
            PkWitness.from_json(doc, l1, weight2)

    @pytest.mark.parametrize("sid,wspec", [("l1", "const:2"), ("omega_coord", "maclane")])
    def test_tolerance_off_the_data_driven_rule_fails_validation(self, sid, wspec):
        # tol_{k+1} is the k-th value, or half of tol_k where omega_coord
        # values hit exact zero (log -inf); a one-ulp nudge keeps the
        # tolerances strictly decreasing and above the values
        sp, w = space(sid), WeightSpec.parse(wspec)
        pk = find_pk_witness(sp, w, 12, horizon_n=4)
        PkWitness.from_json(pk.to_json(), sp, w)
        for k in (1, pk.count - 1):
            bad = pk.to_json()
            bad["tol_log"][k] = float(np.nextafter(bad["tol_log"][k], -np.inf))
            with pytest.raises(WitnessError, match="differs from the one the scan finds"):
                PkWitness.from_json(bad, sp, w)

    @pytest.mark.parametrize("how", GROWTH_TAMPERS)
    def test_growth_thresholds_off_the_rule_fail_validation(self, weight2, how):
        # each tamper keeps every vmin_k above its threshold, so only the
        # rule g_1 = -inf, g_{k+1} = vmin_k catches it
        l1 = space("l1")
        doc = find_pk_witness(l1, weight2, 12, horizon_n=4, growth=True).to_json()
        tamper_growth(doc, how)
        assert all(g < v for g, v in zip(doc["growth_log"], doc["vmin_log"]))
        with pytest.raises(WitnessError, match="differs from the one the scan finds"):
            PkWitness.from_json(doc, l1, weight2)


def _witness_digest(pk: PkWitness) -> str:
    h = hashlib.sha256()
    for arr in (pk.p, pk.value_log, pk.tol_log, pk.vmin_log, pk.growth_log):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def test_deep_growth_witness_bytes_are_pinned(maclane):
    # digest of the five arrays as the whole-array window provider built them
    sp = space("entire_hadamard")
    pk = find_pk_witness(sp, maclane, 64, horizon_n=64, horizon_q=5, growth=True)
    pk = extend_pk_witness(sp, maclane, pk, 1 << 16)
    assert pk.count == 1 << 16
    assert _witness_digest(pk) == "00b949ea9f32cbd2"


def _table_weight(length: int) -> WeightSpec:
    rng = random.Random(5)
    return WeightSpec("table", table=[rng.uniform(0.5, 3.0) for _ in range(length)])


# -- runs against a naive per-index scan ---------------------------------------


def _naive_windows(arr, N, reduce):
    """reduce over every window arr[p : p + N + 1], p = 0..len(arr) - N - 1."""
    return reduce(np.lib.stride_tricks.sliding_window_view(arr, N + 1), axis=1)


def _scan_arrays(space, w, count, horizon_n, horizon_q, growth):
    """The five per-entry arrays of a witness scanned to `count` entries: each
    index in turn against the data-driven tolerance and threshold, with its
    window extremes taken naively over whole arrays of log|v|; the oracle for
    the arrays a run-backed witness derives."""
    upto = int(w.max_index) if w.kind == "table" else 4 * (count + horizon_n) + 64
    logv = w.v_log_array(upto)
    idx = np.arange(upto + 1)
    hmax = {q: _naive_windows(basis_log_array(space, q, idx) - logv, horizon_n, np.max)
            for q in range(1, horizon_q + 1)}
    gmin = _naive_windows(logv, horizon_n, np.min)
    rows, tol, g = [], 0.0, -math.inf
    for p in range(1, upto - horizon_n):
        val = hmax[min(len(rows) + 1, horizon_q)][p]
        if val < tol and (not growth or gmin[p] > g):
            rows.append((p, val, tol, gmin[p], g))
            tol = val if val != -math.inf else tol - math.log(2.0)
            g = gmin[p]
            if len(rows) == count:
                cols = list(zip(*rows))[: 5 if growth else 3]
                return [np.array(cols[0], dtype=np.int64)] + [np.array(c, dtype=np.float64) for c in cols[1:]]
    raise AssertionError("the oracle's arrays are too short for the requested count")


_ARRAYS = ("p", "value_log", "tol_log", "vmin_log", "growth_log")


def _assert_arrays_match(pk, want):
    got = [getattr(pk, name) for name in _ARRAYS]
    assert (got[3] is None) == (len(want) == 3)
    for name, a, b in zip(_ARRAYS, got, want):
        assert a.dtype == b.dtype and len(a) == len(b) and np.all(a == b), name
        assert a.tobytes() == b.tobytes(), name  # -0.0 and NaN payloads too
        assert getattr(pk, name) is a  # derived once per witness


def _bumpy_table(length: int) -> WeightSpec:
    # a random prefix, where log|v| is not monotone, then a steady weight 2
    rng = random.Random(5)
    return WeightSpec("table", table=[rng.uniform(0.3, 3.0) for _ in range(60)] + [2.0] * (length - 60))


RUN_CASES = [
    # (space, weight, horizon_n, horizon_q, growth, counts)
    ("l1", "const:2", 64, 5, True, [64, 128, 5000, 20000]),
    ("l1", "const:2", 4, 5, False, [12]),
    ("entire_hadamard", "maclane", 64, 5, True, [64, 128, 256, 9000]),
    ("entire_hadamard", "maclane", 20, 5, False, [3000]),
    ("l_p:2", "const:1.5", 500, 5, False, [2000]),
    ("omega_coord", "maclane", 10, 3, True, [6, 40, 500]),
    ("omega_coord", "maclane", 64, 5, False, [700]),
    ("l1", "bumpy", 8, 5, True, [10, 30, 600]),
    ("l1", "bumpy", 8, 2, False, [700]),
]


@pytest.mark.parametrize("sid,wspec,N,Q,growth,counts", RUN_CASES)
def test_derived_arrays_match_the_array_scan(sid, wspec, N, Q, growth, counts):
    sp = space(sid)
    w = _bumpy_table(4000) if wspec == "bumpy" else WeightSpec.parse(wspec)
    pk = find_pk_witness(sp, w, counts[0], horizon_n=N, horizon_q=Q, growth=growth)
    for count in counts[1:]:
        pk = extend_pk_witness(sp, w, pk, count)
    want = _scan_arrays(sp, w, counts[-1], N, Q, growth)
    _assert_arrays_match(pk, want)
    loaded = PkWitness.from_json(pk.to_json(), sp, w)
    _assert_arrays_match(loaded, want)
    last_val = want[1][-1]
    assert pk.next_tol_log == (last_val if last_val != -math.inf else want[2][-1] - math.log(2.0))
    assert (loaded.next_tol_log, loaded.next_growth_log) == (pk.next_tol_log, pk.next_growth_log)
    if sid == "omega_coord":
        assert np.sum(want[1] == -math.inf) > 100  # the halving rule is exercised
    if wspec == "bumpy":
        assert len(pk._lo) > 5  # the prefix leaves gaps between runs


def test_derivation_segments_do_not_change_the_arrays(monkeypatch):
    # tiny segments split every run and every gap into separate windows
    import hyperforge.criteria as criteria

    monkeypatch.setattr(criteria, "_SEGMENT_GAP", 1)
    monkeypatch.setattr(criteria, "_SEGMENT_SPAN", 7)
    for sid, wspec, N, Q, growth, counts in (RUN_CASES[2], RUN_CASES[5], RUN_CASES[7]):
        sp = space(sid)
        w = _bumpy_table(4000) if wspec == "bumpy" else WeightSpec.parse(wspec)
        pk = find_pk_witness(sp, w, counts[0], horizon_n=N, horizon_q=Q, growth=growth)
        pk = extend_pk_witness(sp, w, pk, counts[-1])
        _assert_arrays_match(pk, _scan_arrays(sp, w, counts[-1], N, Q, growth))


@pytest.mark.parametrize("sid,wspec,growth", [("l1", "const:2", True), ("omega_coord", "maclane", False),
                                              ("l1", "bumpy", True)])
def test_loaded_witness_extended_by_the_scan(sid, wspec, growth):
    sp = space(sid)
    w = _bumpy_table(4000) if wspec == "bumpy" else WeightSpec.parse(wspec)
    pk = find_pk_witness(sp, w, 20, horizon_n=8, horizon_q=3, growth=growth)
    loaded = PkWitness.from_json(pk.to_json(), sp, w)
    _assert_arrays_match(loaded, _scan_arrays(sp, w, 20, 8, 3, growth))
    assert (loaded.next_tol_log, loaded.next_growth_log) == (pk.next_tol_log, pk.next_growth_log)
    ext = extend_pk_witness(sp, w, extend_pk_witness(sp, w, loaded, 90), 400)
    _assert_arrays_match(ext, _scan_arrays(sp, w, 400, 8, 3, growth))
    # the extension derives every entry from k = 1; the loaded arrays agree
    for name in _ARRAYS[: 5 if growth else 3]:
        assert getattr(ext, name)[:20].tobytes() == getattr(loaded, name).tobytes(), name
    assert loaded.count == 20


def test_extension_of_a_loaded_witness_derives_every_entry(weight2):
    # a value nudged by one ulp does not load; the untampered file loads and
    # its extension derives every entry as the scan does
    l1 = space("l1")
    pk = find_pk_witness(l1, weight2, 20, horizon_n=8, horizon_q=3, growth=True)
    for name in ("value_log", "vmin_log"):
        doc = pk.to_json()
        doc[name][19] = float(np.nextafter(doc[name][19], -np.inf))
        with pytest.raises(WitnessError):
            PkWitness.from_json(doc, l1, weight2)
    loaded = PkWitness.from_json(pk.to_json(), l1, weight2)
    assert loaded.next_tol_log == pk.next_tol_log
    ext = extend_pk_witness(l1, weight2, loaded, 40)
    assert ext.value_log[19] == pk.value_log[19]
    _assert_arrays_match(ext, _scan_arrays(l1, weight2, 40, 8, 3, True))
    PkWitness.from_json(ext.to_json(), l1, weight2)


def _runs_witness():
    # runs [1, 5], [10, 50], [100, 5000], [5002, 5002], [5004, 5010]
    lo, hi = [1, 10, 100, 5002, 5004], [5, 50, 5000, 5002, 5010]
    return PkWitness(space("l1"), WeightSpec.parse("const:2"), lo, hi, 8, 5, False, 0.0, -math.inf)


def test_after_matches_searchsorted_over_the_indices():
    pk = _runs_witness()
    p = np.concatenate([np.arange(a, b + 1) for a, b in zip(pk._lo, pk._hi)])
    assert np.array_equal(pk.p, p) and pk.count == len(p) and pk.last == 5010
    lowers = [-3, 0, 1, 4, 5, 6, 9, 10, 49, 50, 51, 99, 100, 2000, 4999, 5000, 5001, 5002, 5003, 5009, 5010, 6000]
    for lower in lowers:
        start = int(np.searchsorted(p, lower, "right"))
        assert pk.rank(lower) == start
        for size in (1, 2, 3, 7, 41, 45, 4900, 5000, 10**6):
            want = p[start:][:size]
            got = pk.after(lower, size)
            assert got.dtype == np.int64 and np.array_equal(got, want), (lower, size)
    assert [pk.index(k) for k in range(len(p))] == p.tolist()


def test_scanned_witness_is_held_as_runs():
    # tracemalloc of a 2^22-entry extension; the weight holds nothing per index
    import gc
    import tracemalloc

    l1, w = space("l1"), WeightSpec.parse("const:2")
    gc.collect()
    tracemalloc.start()
    try:
        pk = find_pk_witness(l1, w, 64, horizon_n=64, horizon_q=5, growth=True)
        pk = extend_pk_witness(l1, w, pk, 1 << 22)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pk.count == 1 << 22 and pk.last == 1 << 22 and len(pk._lo) == 1
    assert held < 1 << 20, held


# `criteria hc --out` bytes at the array-building scan: README l1/const:2,
# entire_hadamard/maclane with growth and at horizon 64, omega_coord, l_p:2
HC_OUTPUT_DIGESTS = [
    (["--space", "l1", "--weight", "const:2", "--count", "16"], "b273b32e3638d97b"),
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "3000", "--growth"], "e80461d46bb1c44e"),
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "70000", "--horizon-n", "64"],
     "a910525315ba6ef7"),
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "70000", "--horizon-n", "64",
      "--growth"], "bfa97884f93295ab"),
    (["--space", "omega_coord", "--weight", "maclane", "--count", "500", "--growth"], "c84c6e52698efc65"),
    (["--space", "l_p:2", "--weight", "const:1.5", "--count", "2000"], "cbd2818761986eab"),
]


@pytest.mark.parametrize("args,digest", HC_OUTPUT_DIGESTS,
                         ids=["l1", "eh-growth", "eh-70000", "eh-70000-growth", "omega", "lp2"])
def test_hc_output_bytes_are_pinned(args, digest, tmp_path):
    from hyperforge.cli import run_command

    out = tmp_path / "pk.json"
    code, _ = run_command(["criteria", "hc", *args, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


class TestWindowExtreme:
    """Window extremes from one read of log|v| against a naive sliding
    max/min over the whole array."""

    N = 9
    UPTO = 3000

    def _check(self, sp, w, q, full, logv, upto):
        rng = random.Random(11)
        spans = [(0, 1), (0, upto - self.N + 1), (upto - self.N, upto - self.N + 1)]
        for _ in range(40):
            lo = rng.randrange(0, upto - self.N)
            spans.append((lo, rng.randrange(lo + 1, upto - self.N + 2)))
        for lo, hi in spans:
            want_h = _naive_windows(full[lo : hi + self.N], self.N, np.max)
            want_g = _naive_windows(logv[lo : hi + self.N], self.N, np.min)
            hmax, gmin, read = _window_extremes(sp, w, q, self.N, lo, hi, True)
            assert np.array_equal(hmax, want_h) and np.array_equal(gmin, want_g), (lo, hi)
            assert np.array_equal(read, logv[lo : hi + self.N])
            hmax, gmin, _ = _window_extremes(sp, w, q, self.N, lo, hi, False)
            assert np.array_equal(hmax, want_h) and gmin is None
            one, low, _ = _window_extremes(sp, w, q, self.N, lo, lo + 1, True)
            assert (one[0], low[0]) == (want_h[0], want_g[0])

    @pytest.mark.parametrize(
        "sid,wspec",
        [("l1", "const:2"), ("entire_hadamard", "maclane"), ("omega_coord", "maclane"), ("l1", "table")],
    )
    def test_window_matches_naive(self, sid, wspec):
        sp = space(sid)
        w = _table_weight(self.UPTO) if wspec == "table" else WeightSpec.parse(wspec)
        idx = np.arange(self.UPTO + 1)
        logv = w.v_log_array(self.UPTO).copy()
        for q in (1, 2, 5):
            self._check(sp, w, q, basis_log_array(sp, q, idx) - logv, logv, self.UPTO)

    def test_non_monotone_table_needs_the_sliding_part(self):
        w = _table_weight(self.UPTO)
        hmax, gmin, _ = _window_extremes(space("l1"), w, 1, self.N, 0, self.UPTO - self.N, True)
        left_edge = w.v_log_array(self.UPTO)[: self.UPTO - self.N]
        assert not np.array_equal(hmax, -left_edge)
        assert not np.array_equal(gmin, left_edge)

    def test_table_weight_asked_past_its_end(self):
        w = _table_weight(200)
        for growth in (False, True):
            _window_extremes(space("l1"), w, 1, self.N, 200 - self.N, 200 - self.N + 1, growth)  # last window
            with pytest.raises(WeightError):
                _window_extremes(space("l1"), w, 1, self.N, 200 - self.N, 200 - self.N + 2, growth)
            with pytest.raises(WeightError):
                _window_extremes(space("l1"), w, 1, self.N, 200 - self.N + 1, 200 - self.N + 2, growth)


@pytest.mark.parametrize("sid,wspec", [("entire_hadamard", "maclane"), ("omega_coord", "maclane"),
                                       ("l1", "bumpy")])
def test_scan_reads_each_window_of_log_v_once(sid, wspec, monkeypatch):
    # the scan asks for log|v| once per chunk, for seminorm values and growth
    # minima alike, and the per-index path for k < horizon_q reads only the
    # rest of its chunk again, from the index where the seminorm changes, so
    # the reads start at strictly increasing indices
    sp = space(sid)
    w = _bumpy_table(4000) if wspec == "bumpy" else WeightSpec.parse(wspec)
    reads = []
    original = WeightSpec.v_log_array

    def counted(self, upto, lo=0):
        reads.append((lo, upto))
        return original(self, upto, lo)

    monkeypatch.setattr(WeightSpec, "v_log_array", counted)
    pk = find_pk_witness(sp, w, 300, horizon_n=8, horizon_q=5, growth=True)
    pk = extend_pk_witness(sp, w, pk, 9000 if wspec == "maclane" else 600)
    monkeypatch.setattr(WeightSpec, "v_log_array", original)
    los = [lo for lo, _ in reads]
    assert len(reads) > 1 and los == sorted(set(los)), reads[:8]


# -- the closed-form tail against the chunk scan ---------------------------------


def _grown(sp, w, counts, N, growth):
    pk = find_pk_witness(sp, w, counts[0], horizon_n=N, horizon_q=5, growth=growth)
    for count in counts[1:]:
        pk = extend_pk_witness(sp, w, pk, count)
    return pk


def _scan_state(pk):
    """Everything the scan leaves in a witness, as bytes."""
    return (pk._lo.tobytes(), pk._hi.tobytes(), pk.count,
            np.float64(pk.next_tol_log).tobytes(), np.float64(pk.next_growth_log).tobytes())


def _tail_off(monkeypatch):
    monkeypatch.setattr(criteria_mod, "_monotone_tail", lambda *args: False)


TAIL_CASES = [
    # (space, weight, horizon_n, growth, counts); counts up to 20000 also
    # meet the naive oracle
    ("l1", "const:2", 64, True, [64, 5000, 3_000_000]),
    ("l_p:2", "const:1.5", 500, False, [8, 20000, 3_000_000]),
    ("c0", "const:1+1i", 64, True, [64, 3_000_000]),
    ("entire_hadamard", "const:7", 500, True, [8, 20000, 1_000_000]),
    ("entire_hadamard", "maclane", 64, True, [64, 9000, 3_000_000]),
    ("l1", "maclane", 500, False, [8, 3_000_000]),
]


@pytest.mark.parametrize("sid,wspec,N,growth,counts", TAIL_CASES)
def test_tail_leaves_the_witness_the_chunk_scan_leaves(sid, wspec, N, growth, counts, monkeypatch):
    sp, w = space(sid), WeightSpec.parse(wspec)
    certified = []
    original = criteria_mod._monotone_tail

    def recorded(*args):
        certified.append(original(*args))
        return certified[-1]

    monkeypatch.setattr(criteria_mod, "_monotone_tail", recorded)
    got = [_grown(sp, w, counts[: i + 1], N, growth) for i in range(len(counts))]
    assert any(certified)
    _tail_off(monkeypatch)
    for i, pk in enumerate(got):
        assert _scan_state(pk) == _scan_state(_grown(sp, w, counts[: i + 1], N, growth)), counts[i]
        if counts[i] <= 20000:
            _assert_arrays_match(pk, _scan_arrays(sp, w, counts[i], N, 5, growth))


def test_near_cancelling_const_weight_takes_the_chunk_scan(monkeypatch):
    # log 5.000000000001 - log 5 is about 2e-13, below twice the rounding
    # bound at index 500, so from the first index the tail could take, with
    # the seminorm fixed at q = 5, the certificate declines
    sp, w = space("entire_hadamard"), WeightSpec.parse("const:5.000000000001")
    assert not criteria_mod._monotone_tail(sp, w, 5, 5, 5 + 8 + 500)
    assert criteria_mod._monotone_tail(sp, WeightSpec.parse("const:5.001"), 5, 5, 5 + 8 + 500)
    errors = []
    for tail in (True, False):
        if not tail:
            _tail_off(monkeypatch)
        with pytest.raises(SearchExhausted) as exc:
            find_pk_witness(sp, w, 8)
        errors.append(exc.value.to_json())
    assert errors[0] == errors[1]
    assert (errors[0]["details"]["scanned_to"], errors[0]["details"]["entries_found"]) == (36864, 4)


@pytest.mark.parametrize("growth", [False, True])
def test_tail_reads_the_window_at_its_start(growth, monkeypatch):
    # a witness whose next tolerance (or threshold) the scan did not make:
    # the bound holds, but the first index fails, so the chunk scan decides
    l1, w = space("l1"), WeightSpec.parse("const:2")
    tol, g = (0.0, 1000.0) if growth else (-1000.0, -math.inf)
    pk = PkWitness(l1, w, [1], [64], 64, 5, growth, tol, g)
    states = []
    for tail in (True, False):
        if not tail:
            _tail_off(monkeypatch)
        states.append(_scan_state(extend_pk_witness(l1, w, pk, 5000)))
    assert states[0] == states[1]
    assert np.frombuffer(states[0][0], dtype=np.int64).tolist() == [1, 1443]  # first j log 2 past 1000


@pytest.mark.parametrize("sid,wspec,found", [("l1", "const:2", 99936), ("entire_hadamard", "maclane", 99927)])
def test_tail_meets_the_budget_as_the_chunk_scan_does(sid, wspec, found, monkeypatch):
    # the tail's range ends at the budget, and the next step reports it
    monkeypatch.setenv("HYPERFORGE_BUDGET", "100000")
    sp, w = space(sid), WeightSpec.parse(wspec)
    errors = []
    for tail in (True, False):
        if not tail:
            _tail_off(monkeypatch)
        pk = find_pk_witness(sp, w, 64, horizon_n=64, growth=True)
        with pytest.raises(SearchExhausted) as exc:
            extend_pk_witness(sp, w, pk, 200000)
        errors.append(exc.value.to_json())
    assert errors[0] == errors[1]
    # no per-index margin was taken, so the margin is +inf, written as null
    assert exc.value.details["best_margin_log"] == math.inf
    assert errors[0]["details"] == {"scanned_to": 100000, "entries_found": found, "needed": 199936,
                                    "best_margin_log": None}


@pytest.mark.parametrize("sid,wspec", [("l1", "const:2"), ("entire_hadamard", "maclane")])
def test_tail_extension_reads_a_bounded_number_of_weight_values(sid, wspec, monkeypatch):
    # extending to 2^24 entries reads the windows at the two ends of the tail
    sp, w = space(sid), WeightSpec.parse(wspec)
    pk = find_pk_witness(sp, w, 64, horizon_n=64, horizon_q=5, growth=True)
    read = []
    original = WeightSpec.v_log_array

    def counted(self, upto, lo=0):
        read.append(upto - lo + 1)
        return original(self, upto, lo)

    monkeypatch.setattr(WeightSpec, "v_log_array", counted)
    pk = extend_pk_witness(sp, w, pk, 1 << 24)
    monkeypatch.setattr(WeightSpec, "v_log_array", original)
    assert pk.count == 1 << 24 and len(pk._lo) <= 5
    assert sum(read) < 10**4, read


class TestMixing:
    def test_factorial_beats_exponential(self, maclane):
        # oracle: q^n / n! at q = 2 first stays below 1e-3 from n = 10 onward
        cert = check_mixing(space("entire_cauchy"), maclane, horizon_n=60, horizon_q=2, tol=1e-3)
        assert cert.passed and cert.thresholds[2] == 10

    def test_geometric_thresholds(self, weight2):
        cert = check_mixing(space("l1"), weight2, horizon_n=60, tol=1e-3)
        assert cert.passed and cert.thresholds[1] == 10  # 2^-10 < 1e-3 <= 2^-9

    def test_unimodular_weight_fails_with_witness(self):
        cert = check_mixing(space("l1"), WeightSpec.parse("const:1"), horizon_n=40)
        assert not cert.passed
        n, q = cert.failure
        assert n == 40 and q == 1


class TestSquaredNormDomination:
    def test_closed_forms(self):
        assert property_a_witness(space("l_p:2")).entries[3] == (3, 1.0)
        assert property_a_witness(space("c0")).entries[2] == (2, 1.0)
        assert property_a_witness(space("entire_hadamard")).entries[2] == (4, 1.0)
        assert property_a_witness(space("omega_coord")).entries[3] == (3, 1.0)

    def test_witness_revalidates(self, any_space):
        wit = property_a_witness(any_space, r_max=3, n_max=150)
        for r, (q, C) in wit.entries.items():
            assert len(criteria_mod._property_a_breaks(any_space, r, q, C, wit.n_max)) == 0, r


class TestBasisNormCompatibility:
    def test_l1_all_ones(self):
        wit = property_b_witness(space("l1"), n_max=120)
        assert wit.cond_i_q == 1
        assert wit.cond_ii[4] == (1, 1.0)
        assert wit.cond_iii[(2, 3, 2, 5)] == (1, 1, 1.0)
        assert _checker_failure(space("l1"), wit) is None

    def test_power_series_certificate(self):
        wit = property_b_witness(space("entire_cauchy"), n_max=120)
        assert wit.cond_ii[3] == (3, 1.0)
        assert wit.cond_iii[(2, 3, 2, 5)] == (5, 2, 125.0)
        # the inequality itself: t^{mn} r^{n-k} <= C2 tau^{n} rho^{mn-k}
        m, M, r, t = 2, 3, 2, 5
        rho, tau, C2 = wit.cond_iii[(m, M, r, t)]
        for n in range(M, 40):
            for k in range(M + 1):
                lhs = float(t) ** (m * n) * float(r) ** (n - k)
                rhs = C2 * float(tau) ** n * float(rho) ** (m * n - k)
                assert lhs <= rhs * (1 + 1e-12)
        assert _checker_failure(space("entire_cauchy"), wit) is None

    def test_omega_rejected_on_condition_i(self):
        with pytest.raises(PropertyBUnavailable, match="does not satisfy condition \\(i\\)"):
            property_b_witness(space("omega_cauchy"))

    def test_coordinatewise_spaces_rejected(self):
        with pytest.raises(SpaceProductError):
            property_b_witness(space("c0"))


def _property_b_first_failure(sp, wit):
    """Conditions (ii) and (iii) by a plain loop over k and then n, one
    scalar comparison at a time; the details of the first failure, or None."""
    n_max, slack = wit.n_max, criteria_mod._SLACK
    idx = np.arange(n_max + 1)
    for r, (q, C1) in wit.cond_ii.items():
        br = basis_log_array(sp, r, idx)
        bq = basis_log_array(sp, q, np.arange(2 * n_max + 1))
        for k in range(n_max + 1):
            for n in range(n_max + 1):
                if br[n] + br[k] > math.log(C1) + bq[n + k] + slack:
                    return {"r": r, "n": n, "k": k}
    for (m, M, r, t), (rho, tau, C2) in wit.cond_iii.items():
        bt, btau = basis_log_array(sp, t, idx * m), basis_log_array(sp, tau, idx * m)
        br, brho = basis_log_array(sp, r, idx), basis_log_array(sp, rho, np.arange(m * n_max + 1))
        for k in range(M + 1):
            for n in range(M, n_max + 1):
                if bt[n] + br[n - k] > math.log(C2) + btau[n] / m + brho[m * n - k] + slack:
                    return {"m": m, "M": M, "r": r, "t": t, "k": k, "n": n}
    return None


def _checker_failure(sp, wit):
    try:
        _verify_property_b(sp, wit)
    except WitnessError as exc:
        return exc.details
    return None


class TestPropertyBAgainstTheDoubleLoop:
    @pytest.mark.parametrize("sid", ["l1", "entire_cauchy"])
    def test_passing_witnesses(self, sid):
        wit = property_b_witness(space(sid), m_max=3, M_max=4, r_max=3, n_max=60)
        assert _property_b_first_failure(space(sid), wit) is None
        assert _checker_failure(space(sid), wit) is None

    @pytest.mark.parametrize("sid,key,entry,n_max,want", [
        # a lowered constant fails at once
        ("l1", 2, (1, 0.5), 60, {"r": 2, "n": 0, "k": 0}),
        # ||e_n||_3 ||e_k||_3 against 1000 ||e_{n+k}||_2 fails once n + k > 17
        ("entire_cauchy", 3, (2, 1000.0), 60, {"r": 3, "n": 18, "k": 0}),
        # ... which a horizon of 15 first reaches at k = 3, past the first block
        ("entire_cauchy", 3, (2, 1000.0), 15, {"r": 3, "n": 15, "k": 3}),
    ])
    def test_condition_ii_failures(self, monkeypatch, sid, key, entry, n_max, want):
        # blocks of two k rows, so a failure can lie past the first block
        monkeypatch.setattr(criteria_mod, "_PROP_B_BLOCK", 2 * (n_max + 1))
        sp = space(sid)
        wit = property_b_witness(sp, m_max=3, M_max=4, r_max=3, n_max=n_max)
        wit.cond_ii[key] = entry
        assert _property_b_first_failure(sp, wit) == want
        assert _checker_failure(sp, wit) == want

    def test_condition_iii_failure(self):
        # t^{mn} r^{n-k} <= C2 tau^n rho^{mn-k} with rho = t, tau = r reads
        # k log(t / r) <= log C2, which C2 = e^2 breaks first at k = 3, n = M
        sp = space("entire_cauchy")
        wit = property_b_witness(sp, m_max=3, M_max=4, r_max=3, n_max=60, t_max=5)
        key = (3, 4, 2, 5)
        rho, tau, _ = wit.cond_iii[key]
        wit.cond_iii[key] = (rho, tau, math.exp(2.0))
        want = {"m": 3, "M": 4, "r": 2, "t": 5, "k": 3, "n": 4}
        assert _property_b_first_failure(sp, wit) == want
        assert _checker_failure(sp, wit) == want

    @pytest.mark.parametrize("sid,key,entry,want", [
        # as above, C2 = (t / r)^(M - 1/2) fails first in the last row, k = M
        ("entire_cauchy", (3, 4, 2, 5), "C2=2.5^3.5", {"m": 3, "M": 4, "r": 2, "t": 5, "k": 4, "n": 4}),
        # tau = 1 leaves (n - k) log r + (k - M) log t, positive once n > 4 log 5 / log 2
        ("entire_cauchy", (2, 4, 2, 5), "tau=1", {"m": 2, "M": 4, "r": 2, "t": 5, "k": 0, "n": 10}),
        # rho = 1 leaves (m n - M) log t - k log r, positive at k = 0 from n = 2
        ("entire_cauchy", (2, 2, 3, 2), "rho=1", {"m": 2, "M": 2, "r": 3, "t": 2, "k": 0, "n": 2}),
        # a lowered constant on l1, where every basis norm is 1, fails at once
        ("l1", (2, 3, 2, 1), "C2=0.5", {"m": 2, "M": 3, "r": 2, "t": 1, "k": 0, "n": 3}),
    ])
    def test_condition_iii_failures(self, sid, key, entry, want):
        sp = space(sid)
        wit = property_b_witness(sp, m_max=3, M_max=4, r_max=3, n_max=60, t_max=5)
        rho, tau, C2 = wit.cond_iii[key]
        name, value = entry.split("=")
        value = 2.5**3.5 if value == "2.5^3.5" else float(value)
        wit.cond_iii[key] = {"C2": (rho, tau, value), "tau": (rho, int(value), C2),
                             "rho": (int(value), tau, C2)}[name]
        assert _property_b_first_failure(sp, wit) == want
        assert _checker_failure(sp, wit) == want

    def test_pairs_past_the_budget_end_before_allocating(self, monkeypatch):
        monkeypatch.setenv("HYPERFORGE_BUDGET", "1024")
        assert property_b_witness(space("l1"), n_max=31).n_max == 31  # 32^2 = 1024 pairs
        with pytest.raises(SearchExhausted) as exc:
            property_b_witness(space("l1"), n_max=32)
        assert exc.value.details == {"horizon_n": 32, "budget": 1024}


class TestBudgetAndRevalidation:
    def test_env_budget_caps_the_scan(self, monkeypatch, weight2):
        monkeypatch.setenv("HYPERFORGE_BUDGET", "1024")
        with pytest.raises(SearchExhausted):
            find_pk_witness(space("l1"), weight2, 2000, horizon_n=3)
        monkeypatch.delenv("HYPERFORGE_BUDGET")
        big = find_pk_witness(space("l1"), weight2, 2000, horizon_n=3)
        assert big.count == 2000

    def test_bounded_basis_accepts_every_index(self):
        # with a bounded basis and |lambda| > 1 every index from 1 on qualifies
        w = WeightSpec.parse("const:1.5")
        for sid in ("l_p:2", "c0", "l1"):
            pk = find_pk_witness(space(sid), w, 6, horizon_n=3)
            assert list(pk.p) == [1, 2, 3, 4, 5, 6]

    def test_mixing_certificate_revalidates(self, weight2, maclane):
        cert = check_mixing(space("l1"), weight2, horizon_n=60)
        assert check_mixing(space("l1"), weight2, cert.horizon_n, cert.horizon_q, cert.tol) == cert
        bad = check_mixing(space("entire_cauchy"), maclane, horizon_n=60)
        assert check_mixing(space("l1"), weight2, bad.horizon_n, bad.horizon_q, bad.tol) != bad

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
    property_a_power,
    property_a_witness,
    property_b_witness,
    root_decay_check,
    seminorm_eval,
    space,
)
from hyperforge.criteria import PkWitness, _growth_provider, _h_provider
from hyperforge.spaces import basis_log_array
from hyperforge.errors import PropertyBUnavailable, SearchExhausted, SpaceProductError


class TestHypercyclicityWitness:
    def test_geometric_weight_accepts_every_index(self, weight2):
        # oracle: ||v_{p+n}^{-1} e_{p+n}||_1 = 2^-(p+n) on the l1 norm, so the
        # k-th tolerance 2^(1-k) admits p = k and nothing smaller
        pk = find_pk_witness(space("l1"), weight2, 5, horizon_n=3)
        assert list(pk.p) == [1, 2, 3, 4, 5]
        assert pk.validate(space("l1"), weight2)
        tols = [pk.tol(k) for k in range(1, pk.count + 1)]
        assert tols == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625], rel=1e-12)
        assert [pk.q_index(k) for k in range(1, pk.count + 1)] == [1, 2, 3, 4, 5]

    def test_schedules_monotone(self, maclane):
        pk = find_pk_witness(space("entire_hadamard"), maclane, 12, horizon_n=20)
        assert np.all(np.diff(pk.p) > 0)
        tols = [pk.tol(k) for k in range(1, pk.count + 1)]
        assert all(a > b > 0 for a, b in zip(tols, tols[1:]))
        qs = [pk.q_index(k) for k in range(1, pk.count + 1)]
        assert all(a <= b for a, b in zip(qs, qs[1:])) and max(qs) <= pk.horizon_q

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
            val = seminorm_eval(oc, pk.q_index(k), FiniteSeq.basis(p)).upper
            assert val * 2.0 ** (k - 1) < 2.0 or p > pk.q_index(k)
        assert pk.validate(oc, maclane)

    def test_growth_certificates(self, weight2):
        pk = find_pk_witness(space("l1"), weight2, 8, horizon_n=4, growth=True)
        assert pk.growth and pk.validate(space("l1"), weight2)
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
        back = PkWitness.from_json(pk.to_json())
        assert list(back.p) == list(pk.p) and back.horizon_q == pk.horizon_q

    def test_tampered_witness_fails_validation(self, weight2):
        l1 = space("l1")
        pk = find_pk_witness(l1, weight2, 6, horizon_n=4)
        bad = PkWitness.from_json(pk.to_json())
        bad.p[:] = bad.p - 1  # shift every index down; stored values no longer match
        assert not bad.validate(l1, weight2)

    @pytest.mark.parametrize("sid,wspec", [("l1", "const:2"), ("omega_coord", "maclane")])
    def test_tolerance_off_the_data_driven_rule_fails_validation(self, sid, wspec):
        # tol_{k+1} is the k-th value, or half of tol_k where omega_coord
        # values hit exact zero (log -inf); a one-ulp nudge keeps the
        # tolerances strictly decreasing and above the values
        sp, w = space(sid), WeightSpec.parse(wspec)
        pk = find_pk_witness(sp, w, 12, horizon_n=4)
        assert pk.validate(sp, w)
        for k in (1, pk.count - 1):
            bad = PkWitness.from_json(pk.to_json())
            bad.tol_log[k] = np.nextafter(bad.tol_log[k], -np.inf)
            assert not bad.validate(sp, w), k


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
    assert _witness_digest(pk) == "8f1ba06ac774e73a"


def _table_weight(length: int) -> WeightSpec:
    rng = random.Random(5)
    return WeightSpec("table", table=[rng.uniform(0.5, 3.0) for _ in range(length)])


# -- runs against the array-building scan -------------------------------------


def _scan_arrays(space, w, need, horizon_n, horizon_q, growth, k_start, p_start, tol0, g0):
    """The scan as it was when it filled five per-entry arrays; the oracle for
    the arrays a run-backed witness derives."""
    provs = {q: _h_provider(space, w, q, horizon_n) for q in range(1, horizon_q + 1)}
    gp = _growth_provider(w, horizon_n) if growth else None
    out_p, out_val, out_tol = np.empty(need, dtype=np.int64), np.empty(need), np.empty(need)
    out_vmin, out_g = np.empty(need), np.empty(need)
    limit = int(w.max_index) - horizon_n - 1 if w.kind == "table" else 1 << 40
    found, k, tol, g, p, chunk = 0, k_start, tol0, g0, p_start + 1, 4096
    while found < need:
        hi = min(p + chunk, limit + 1)
        q = min(k, horizon_q)
        wm = provs[q].window(p, hi)
        gmin = gp.window(p, hi) if gp is not None else None
        if k >= horizon_q:
            ok = wm[0] != -math.inf and wm[-1] != -math.inf and wm[0] < tol and bool(np.all(np.diff(wm) < 0))
            if ok and gmin is not None:
                ok = gmin[0] > g and bool(np.all(np.diff(gmin) > 0))
            if ok:
                take = min(hi - p, need - found)
                out_p[found : found + take] = np.arange(p, p + take)
                out_val[found : found + take] = wm[:take]
                out_tol[found] = tol
                out_tol[found + 1 : found + take] = wm[: take - 1]
                if growth:
                    out_vmin[found : found + take] = gmin[:take]
                    out_g[found] = g
                    out_g[found + 1 : found + take] = gmin[: take - 1]
                found += take
                k += take
                tol = wm[take - 1]
                if growth:
                    g = gmin[take - 1]
                p += take
                chunk = min(chunk * 2, 1 << 20)
                continue
        for i in range(hi - p):
            cand = p + i
            qk = min(k, horizon_q)
            val = wm[i] if qk == q else provs[qk].at(cand)
            if val < tol and (gmin is None or gmin[i] > g):
                out_p[found], out_val[found], out_tol[found] = cand, val, tol
                if growth:
                    out_vmin[found], out_g[found] = gmin[i], g
                found += 1
                k += 1
                tol = val if val != -math.inf else tol - math.log(2.0)
                if growth:
                    g = gmin[i]
                if found == need:
                    break
        p = hi
    return [out_p, out_val, out_tol] + ([out_vmin, out_g] if growth else [])


def _oracle(space, w, counts, horizon_n, horizon_q, growth):
    """Arrays of a witness scanned to counts[0] and extended to each later count."""
    arrays = _scan_arrays(space, w, counts[0], horizon_n, horizon_q, growth, 1, 0, 0.0, -math.inf)
    for count in counts[1:]:
        p, val, tol = arrays[0], arrays[1], arrays[2]
        tol0 = val[-1] if val[-1] != -math.inf else tol[-1] - math.log(2.0)
        g0 = arrays[3][-1] if growth else -math.inf
        more = _scan_arrays(space, w, count - len(p), horizon_n, horizon_q, growth,
                            len(p) + 1, int(p[-1]), tol0, g0)
        arrays = [np.concatenate([a, b]) for a, b in zip(arrays, more)]
    return arrays


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
    want = _oracle(sp, w, counts, N, Q, growth)
    _assert_arrays_match(pk, want)
    assert pk.validate(sp, w)
    last_val = want[1][-1]
    assert pk.next_tol_log == (last_val if last_val != -math.inf else want[2][-1] - math.log(2.0))
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
        _assert_arrays_match(pk, _oracle(sp, w, [counts[0], counts[-1]], N, Q, growth))


@pytest.mark.parametrize("sid,wspec,growth", [("l1", "const:2", True), ("omega_coord", "maclane", False),
                                              ("l1", "bumpy", True)])
def test_loaded_witness_extended_by_the_scan(sid, wspec, growth):
    sp = space(sid)
    w = _bumpy_table(4000) if wspec == "bumpy" else WeightSpec.parse(wspec)
    pk = find_pk_witness(sp, w, 20, horizon_n=8, horizon_q=3, growth=growth)
    loaded = PkWitness.from_json(pk.to_json())
    assert loaded.validate(sp, w)
    ext = extend_pk_witness(sp, w, extend_pk_witness(sp, w, loaded, 90), 400)
    _assert_arrays_match(ext, _oracle(sp, w, [20, 90, 400], 8, 3, growth))
    # the head keeps the loaded arrays, which the extension does not copy
    assert ext.p[:20].tobytes() == loaded.p.tobytes()
    assert loaded.count == 20


def _runs_witness():
    # runs [1, 5], [10, 50], [100, 5000], [5002, 5002], [5004, 5010]
    lo, hi = [1, 10, 100, 5002, 5004], [5, 50, 5000, 5002, 5010]
    return PkWitness(lo, hi, 8, 5, False, 0.0, -math.inf)


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
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "3000", "--growth"], "68d0c785e9b79fa1"),
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "70000", "--horizon-n", "64"],
     "012eeeebd6b97c4c"),
    (["--space", "entire_hadamard", "--weight", "maclane", "--count", "70000", "--horizon-n", "64",
      "--growth"], "e5108955b3f83de6"),
    (["--space", "omega_coord", "--weight", "maclane", "--count", "500", "--growth"], "f50f45f36de8bdea"),
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
    """Window extremes served from the scanned segment against a naive sliding
    max/min over the whole array."""

    N = 9
    UPTO = 3000

    @staticmethod
    def _naive(full, N, mode, lo, hi):
        win = np.lib.stride_tricks.sliding_window_view(full[lo : hi + N], N + 1)
        return win.max(axis=1) if mode == "max" else win.min(axis=1)

    def _check(self, prov, full, upto):
        rng = random.Random(11)
        spans = [(0, 1), (0, upto - self.N + 1), (upto - self.N, upto - self.N + 1)]
        for _ in range(40):
            lo = rng.randrange(0, upto - self.N)
            spans.append((lo, rng.randrange(lo + 1, upto - self.N + 2)))
        for lo, hi in spans:
            want = self._naive(full, self.N, prov.mode, lo, hi)
            assert np.array_equal(prov.window(lo, hi), want), (lo, hi)
            assert prov.at(lo) == want[0]

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
            full = basis_log_array(sp, q, idx) - logv
            self._check(_h_provider(sp, w, q, self.N), full, self.UPTO)
        self._check(_growth_provider(w, self.N), logv, self.UPTO)

    def test_non_monotone_table_needs_the_sliding_part(self):
        w = _table_weight(self.UPTO)
        prov = _h_provider(space("l1"), w, 1, self.N)
        left_edge = -w.v_log_array(self.UPTO)[: self.UPTO - self.N]
        assert not np.array_equal(prov.window(0, self.UPTO - self.N), left_edge)

    def test_table_weight_asked_past_its_end(self):
        w = _table_weight(200)
        for prov in (_h_provider(space("l1"), w, 1, self.N), _growth_provider(w, self.N)):
            prov.window(200 - self.N, 200 - self.N + 1)  # last window inside the table
            with pytest.raises(IndexError):
                prov.window(200 - self.N, 200 - self.N + 2)
            with pytest.raises(IndexError):
                prov.at(200 - self.N + 1)


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
        assert wit.validate(any_space)

    def test_power_composition(self):
        eh = space("entire_hadamard")
        pb = property_a_power(eh, 4, 2)
        assert (pb.q, pb.C) == (16, 1.0)
        pb1 = property_a_power(eh, 1, 3)
        assert (pb1.q, pb1.C) == (3, 1.0)

    def test_power_three_uses_bracketing_powers_of_two(self):
        # oracle: 2^{3n} <= max(2^{2n}, 2^{4n}) <= 16^n for every n
        pb = property_a_power(space("entire_hadamard"), 3, 2)
        assert (pb.q, pb.C) == (16, 1.0)
        for n in range(0, 30):
            assert 2.0 ** (3 * n) <= pb.C * float(pb.q) ** n

    def test_power_two_matches_base_witness(self, any_space):
        wit = property_a_witness(any_space, r_max=3)
        for r in (1, 2, 3):
            pb = property_a_power(any_space, 2, r)
            assert (pb.q, pb.C) == wit.entries[r]


class TestRootDecay:
    def test_geometric(self, weight2):
        pk = find_pk_witness(space("l1"), weight2, 12, horizon_n=10)
        rep = root_decay_check(space("l1"), weight2, pk, m_max=2, k_count=8)
        assert rep.passed

    def test_factorial(self, maclane):
        eh = space("entire_hadamard")
        pk = find_pk_witness(eh, maclane, 12, horizon_n=10)
        rep = root_decay_check(eh, maclane, pk, m_max=2, r_max=1, k_count=8)
        assert rep.passed

    def test_base_case_reduces_to_witness_tolerances(self, weight2):
        pk = find_pk_witness(space("l1"), weight2, 10, horizon_n=5)
        rep = root_decay_check(space("l1"), weight2, pk, m_max=1, k_count=8)
        assert rep.passed

    def test_broken_witness_is_caught(self, weight2):
        l1 = space("l1")
        pk = find_pk_witness(l1, weight2, 10, horizon_n=5)
        bad = PkWitness.from_json(pk.to_json())
        bad.p[5:] = bad.p[5]  # flat indices stop the decay
        rep = root_decay_check(l1, weight2, bad, m_max=1, k_count=8)
        assert not rep.passed


class TestBasisNormCompatibility:
    def test_l1_all_ones(self):
        wit = property_b_witness(space("l1"), n_max=120)
        assert wit.cond_i_q == 1
        assert wit.cond_ii[4] == (1, 1.0)
        assert wit.cond_iii_for(2, 3, 2, 5) == (1, 1, 1.0)
        assert wit.validate(space("l1"))

    def test_power_series_certificate(self):
        wit = property_b_witness(space("entire_cauchy"), n_max=120)
        assert wit.cond_ii[3] == (3, 1.0)
        assert wit.cond_iii_for(2, 3, 2, 5) == (5, 2, 125.0)
        # the inequality itself: t^{mn} r^{n-k} <= C2 tau^{n} rho^{mn-k}
        m, M, r, t = 2, 3, 2, 5
        rho, tau, C2 = wit.cond_iii_for(m, M, r, t)
        for n in range(M, 40):
            for k in range(M + 1):
                lhs = float(t) ** (m * n) * float(r) ** (n - k)
                rhs = C2 * float(tau) ** n * float(rho) ** (m * n - k)
                assert lhs <= rhs * (1 + 1e-12)
        assert wit.validate(space("entire_cauchy"))

    def test_omega_rejected_on_condition_i(self):
        with pytest.raises(PropertyBUnavailable, match="does not satisfy condition \\(i\\)"):
            property_b_witness(space("omega_cauchy"))

    def test_coordinatewise_spaces_rejected(self):
        with pytest.raises(SpaceProductError):
            property_b_witness(space("c0"))


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
        assert cert.validate(space("l1"), weight2)
        bad = check_mixing(space("entire_cauchy"), maclane, horizon_n=60)
        assert not bad.validate(space("l1"), weight2)

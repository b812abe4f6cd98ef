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
        assert pk.tol_schedule == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625], rel=1e-12)
        assert pk.q_schedule == [1, 2, 3, 4, 5]

    def test_schedules_monotone(self, maclane):
        pk = find_pk_witness(space("entire_hadamard"), maclane, 12, horizon_n=20)
        assert np.all(np.diff(pk.p) > 0)
        tols = pk.tol_schedule
        assert all(a > b > 0 for a, b in zip(tols, tols[1:]))
        qs = pk.q_schedule
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
        assert wit.cond_ii_for(4) == (1, 1.0)
        assert wit.cond_iii_for(2, 3, 2, 5) == (1, 1, 1.0)
        assert wit.validate(space("l1"))

    def test_power_series_certificate(self):
        wit = property_b_witness(space("entire_cauchy"), n_max=120)
        assert wit.cond_ii_for(3) == (3, 1.0)
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

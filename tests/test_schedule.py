import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperforge import FiniteSeq, LambdaMatrix, PairOrder, TargetSchedule, TripleOrder
from hyperforge.errors import ConfigError

from conftest import standard_targets


class TestPairOrder:
    def test_enumeration_prefix(self):
        po = PairOrder()
        assert [po.decode(r) for r in range(1, 11)] == [
            (1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3), (3, 2), (4, 1),
        ]

    @given(st.integers(1, 10**6))
    def test_bijective(self, r):
        po = PairOrder()
        m, l = po.decode(r)
        assert m >= 1 and l >= 1
        assert po.index(m, l) == r

    def test_max_degree_nondecreasing(self):
        po = PairOrder()
        vals = [po.max_degree_before(r) for r in range(1, 60)]
        assert vals[0] == 0
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert po.max_degree_before(7) == 3
        # the closed form is the max over every earlier round's degree
        best = 0
        for r in range(1, 3000):
            assert po.max_degree_before(r) == best, r
            best = max(best, po.decode(r)[0])


    def test_decode_inverts_index_without_correction(self):
        # decode takes x = (isqrt(8r - 7) - 1) // 2 as the diagonal before r
        po = PairOrder()
        for r in [*range(1, 100_000), *range(10**15 - 500, 10**15 + 500)]:
            m, l = po.decode(r)
            assert m >= 1 and l >= 1 and po.index(m, l) == r
        d = math.isqrt(2 * 10**15)  # the diagonals m + l = d hold r near 10^15
        for s in range(d - 2, d + 3):
            for m, l in ((1, s - 1), (2, s - 2), (s - 2, 2), (s - 1, 1)):
                assert po.decode(po.index(m, l)) == (m, l)


class TestTripleOrder:
    def test_enumeration_prefix(self):
        to = TripleOrder()
        assert [to.decode(r) for r in range(1, 11)] == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 3),
            (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1),
        ]

    @given(st.integers(1, 10**6))
    def test_bijective(self, r):
        to = TripleOrder()
        m, l, nu = to.decode(r)
        assert min(m, l, nu) >= 1
        assert to.index(m, l, nu) == r


class TestTargetSchedule:
    def test_plain_cycling_hits_every_target_infinitely_often(self):
        ts = TargetSchedule(standard_targets())
        seen = [ts.target(l) for l in range(1, 13)]
        for k, t in enumerate(standard_targets()):
            assert seen[k::4] == [t, t, t]

    def test_partition_classes_each_cycle_all_targets(self):
        base = standard_targets()
        ts = TargetSchedule(base, K=3)
        for k in range(1, 4):
            labels = [l for l in range(1, 25) if ts.class_of(l) == k]
            got = [ts.target(l) for l in labels]
            assert got[: len(base)] == base  # every class walks the full list in order

    def test_partition_classes_are_disjoint_and_exhaustive(self):
        ts = TargetSchedule(standard_targets(), K=4)
        for l in range(1, 100):
            assert 1 <= ts.class_of(l) <= 4
        for k in range(1, 5):
            assert any(ts.class_of(l) == k for l in range(1, 9))

    def test_support_bounds(self):
        ts = TargetSchedule(standard_targets())
        assert ts.s(1) == 0 and ts.s(2) == 1 and ts.s(4) == 2
        assert max(ts.s(l) for l in range(1, 5)) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            TargetSchedule([])
        with pytest.raises(ConfigError):
            TargetSchedule([FiniteSeq.zero()])
        with pytest.raises(ConfigError):
            TargetSchedule(standard_targets(), K=0)


def _enumerated_columns(l_max: int, denom_max: int) -> list[tuple[complex, ...]]:
    """The lambda matrix's columns as first enumerated: every grid point
    p/q + i p'/q (q ascending) as a Fraction complex, |z| <= 1 tested in
    floats and first occurrence by set membership, each denominator sorted
    by the float key; then every tuple by an odometer, longest first."""
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
        seen.update(cands)
        vals += cands
    cols = []
    for L in range(l_max, 0, -1):
        idx = [0] * L
        while True:
            cols.append(tuple(vals[i] for i in idx))
            for pos in range(L - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < len(vals):
                    break
                idx[pos] = 0
            else:
                break
    return cols


class TestLambdaMatrix:
    @pytest.mark.parametrize("l_max,denom_max", [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2), (1, 3), (2, 3),
                                                 (1, 8), (1, 20)])
    def test_columns_match_the_enumeration_over_a_cycle(self, l_max, denom_max):
        want = _enumerated_columns(l_max, denom_max)
        lam = LambdaMatrix(l_max, denom_max)
        assert lam.size == len(want)
        assert [lam.column(nu) for nu in range(1, 2 * len(want) + 1)] == want + want

    @pytest.mark.parametrize("l_max,denom_max", [(1, 60), (2, 8)])
    def test_sampled_columns_match_the_enumeration(self, l_max, denom_max):
        want = _enumerated_columns(l_max, denom_max)
        start = time.perf_counter()
        lam = LambdaMatrix(l_max, denom_max)
        assert time.perf_counter() - start < 1.0  # the enumeration takes 2 s at (1, 60)
        rng = random.Random(0)
        for nu in (1, len(want), len(want) + 1, *(rng.randrange(1, 3 * len(want)) for _ in range(1000))):
            assert lam.column(nu) == want[(nu - 1) % len(want)], nu

    def test_too_many_columns_are_refused_before_any_value_is_formed(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            LambdaMatrix(1, 100000)  # the limit falls at q = 105
        assert time.perf_counter() - start < 1.0

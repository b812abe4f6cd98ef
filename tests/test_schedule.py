import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperforge import FiniteSeq, PairOrder, TargetSchedule, TripleOrder
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

import math
from fractions import Fraction

import numpy as np
import pytest

from hyperforge import (
    AlgebraElement,
    CoordState,
    FiniteSeq,
    WeightSpec,
    backward_iterate,
    build_algebrable,
    build_generator,
    coordinatewise_power,
    orbit_element_report,
    parse_element,
    root_power_block,
    select_ar,
    seminorm_eval,
    space,
)
from hyperforge import coordwise
from hyperforge.bundle import Cert
from hyperforge.coordwise import certify_coord_round
from hyperforge.core import WideComplex, log_decode
from hyperforge.errors import ElementError, SearchExhausted, SpaceProductError

from conftest import from_dict, standard_targets

L1 = space("l1")
LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def coord_bundle():
    st = CoordState(L1, WeightSpec.parse("const:2"), standard_targets())
    return build_generator(st, 12)


@pytest.fixture(scope="module")
def algebrable_bundle():
    st = CoordState(L1, WeightSpec.parse("const:2"), standard_targets(), K=3)
    return build_algebrable(st, 12)


class TestIndexSelection:
    def test_first_round_minimal_index(self, weight2):
        # oracle: exhaustive scan over witness indices, first with 2^-p < 1/2
        st = CoordState(L1, weight2, [FiniteSeq.basis(0)])
        rd = select_ar(st, 1)
        assert rd.a == 2 and rd.m == 1 and rd.l == 1
        assert rd.checks["A1"].passed and rd.checks["A1"].value == pytest.approx(0.25)

    def test_matches_exhaustive_scan_oracle(self, weight2):
        st = CoordState(L1, weight2, standard_targets())
        for r in range(1, 5):
            rd = select_ar(st, r)
            prev = st.rounds[: r - 1]
            floor = 0 if r == 1 else prev[-1].a + st.schedule.s(prev[-1].l)
            for p in [int(v) for v in st.pk.p if floor < v < rd.a]:
                trial = certify_coord_round(L1, weight2, st.schedule, st.pairing, prev, r, p)
                assert not trial.passed  # nothing smaller was admissible

    def test_separation_floor_is_strict(self, weight2):
        st = CoordState(L1, weight2, standard_targets())
        build_generator(st, 6)
        for prev, cur in zip(st.rounds, st.rounds[1:]):
            assert cur.a - prev.a > st.schedule.s(prev.l)
            assert cur.checks["A3"].passed

    def test_indices_come_from_the_witness(self, weight2):
        st = CoordState(L1, weight2, standard_targets())
        build_generator(st, 8)
        pset = set(int(v) for v in st.pk.p)
        assert all(rd.a in pset for rd in st.rounds)

    def test_omega_blocks_are_invisible(self, maclane):
        oc = space("omega_coord")
        st = CoordState(oc, maclane, standard_targets())
        rd = select_ar(st, 1)
        assert log_decode(seminorm_eval(oc, 1, rd.block)) == 0.0

    def test_wrong_product_rejected(self, weight2):
        with pytest.raises(SpaceProductError):
            CoordState(space("entire_cauchy"), weight2, standard_targets())


class TestGeneratorAssembly:
    def test_single_round_value(self, weight2):
        st = CoordState(L1, weight2, [FiniteSeq.basis(0)])
        b = build_generator(st, 1)
        assert b.generator().approx_eq(from_dict({2: 0.25}), 1e-13)

    def test_blocks_have_disjoint_supports(self, coord_bundle):
        seen = set()
        for rd in coord_bundle.rounds:
            s = set(rd.block.support)
            assert not (seen & s)
            seen |= s

    def test_partial_sums_converge_at_certified_rate(self, coord_bundle):
        for rd in coord_bundle.rounds:
            val = log_decode(seminorm_eval(L1, rd.r, rd.block))
            assert val < 2.0 ** (-rd.r)

    def test_all_certificates_pass(self, coord_bundle):
        assert coord_bundle.passed
        for rd in coord_bundle.rounds:
            assert rd.checks["A1"].passed
            if rd.r >= 2:
                assert rd.checks["A2"].passed and rd.checks["A3"].passed

    def test_power_of_generator_splits_over_blocks(self, coord_bundle):
        x = coord_bundle.generator()
        for j in (2, 3):
            total = FiniteSeq.zero()
            for rd in coord_bundle.rounds:
                total = total + coordinatewise_power(rd.block, j)
            assert coordinatewise_power(x, j) == total  # disjoint supports: exact

    def test_orbit_bound_per_round(self, coord_bundle):
        # || T^{a_t} x^j - y ||_t < 2^-t at every round of degree j
        x = coord_bundle.generator()
        sched = coord_bundle.schedule()
        w = coord_bundle.weight
        for rd in coord_bundle.rounds:
            img = backward_iterate(w, coordinatewise_power(x, rd.m), rd.a)
            dist = log_decode(seminorm_eval(L1, rd.r, img - sched.target(rd.l)))
            assert dist < 2.0 ** (-rd.r)

    def test_higher_power_head_terms_decay_monotonically(self, coord_bundle):
        # leading coefficient magnitude of the shifted (nu/j)-power block,
        # along the rounds of degree j, for nu > j
        w = coord_bundle.weight
        for j, nu in [(1, 2), (1, 3), (2, 3)]:
            rounds_j = [rd for rd in coord_bundle.rounds if rd.m == j]
            mags = []
            for rd in rounds_j:
                ratio = (nu / j - 1.0) * (w.v_log(0) - w.v_log(rd.a))
                mags.append(ratio)
            assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_tail_sums_stay_below_round_bound(self, coord_bundle):
        w = coord_bundle.weight
        pairing = coord_bundle.pairing()
        for t_rd in coord_bundle.rounds[:-1]:
            d_t = pairing.max_degree_before(t_rd.r)
            for nu in range(1, d_t + 1):
                tail = FiniteSeq.zero()
                for rd in coord_bundle.rounds[t_rd.r:]:
                    tail = tail + backward_iterate(
                        w, coordinatewise_power(rd.block, nu), t_rd.a
                    )
                assert log_decode(seminorm_eval(L1, t_rd.r, tail)) < 2.0 ** (-t_rd.r)

    def test_blocks_match_their_schedule(self, coord_bundle):
        sched = coord_bundle.schedule()
        w = coord_bundle.weight
        for rd in coord_bundle.rounds:
            expected = root_power_block(w, sched.target(rd.l), rd.a, rd.m)
            assert rd.block.rel_distance(expected) <= 1e-12


class TestAlgebrable:
    def test_generators_partition_the_blocks(self, algebrable_bundle):
        sched = algebrable_bundle.schedule()
        union = set()
        for k in range(1, 4):
            sup = set(algebrable_bundle.generator(k).support)
            assert not (union & sup)
            union |= sup
        full = set()
        for rd in algebrable_bundle.rounds:
            assert 1 <= sched.class_of(rd.l) <= 3
            full |= set(rd.block.support)
        assert union == full

    def test_pairwise_products_vanish_exactly(self, algebrable_bundle):
        from hyperforge import coordinatewise_product

        gens = algebrable_bundle.generators()
        for i in range(3):
            for j in range(i + 1, 3):
                assert coordinatewise_product(gens[i], gens[j]).is_zero

    def test_single_class_reduces_to_plain_generator(self, weight2):
        st1 = CoordState(L1, weight2, standard_targets(), K=1)
        b1 = build_algebrable(st1, 6)
        st2 = CoordState(L1, weight2, standard_targets())
        b2 = build_generator(st2, 6)
        assert b1.generator(1) == b2.generator(1)
        assert [rd.a for rd in b1.rounds] == [rd.a for rd in b2.rounds]


class TestHomogeneousParts:
    """Element reports keep only the single-generator (diagonal) parts: terms
    mixing two generators vanish exactly by the disjoint supports."""

    def test_cross_terms_vanish(self, algebrable_bundle):
        rep = orbit_element_report(algebrable_bundle, parse_element("x1*x2", 3).element())
        assert rep.checked == []
        assert any("degenerate element" in n for n in rep.notes)

    def test_diagonal_passthrough(self, algebrable_bundle):
        rep = orbit_element_report(algebrable_bundle, parse_element("x1 + x1^2", 3).element())
        class_of = algebrable_bundle.schedule().class_of
        degree_one = [rd.r for rd in algebrable_bundle.rounds if rd.m == 1 and class_of(rd.l) == 1]
        assert degree_one and [rc.round for rc in rep.checked] == degree_one
        assert rep.passed

    def test_square_of_sum_drops_the_mixed_term(self, algebrable_bundle):
        full = orbit_element_report(algebrable_bundle, parse_element("x1^2 + 2*x1*x2 + x2^2", 3).element())
        diag = orbit_element_report(algebrable_bundle, parse_element("x1^2 + x2^2", 3).element())
        assert diag.checked
        assert full.to_json()["rounds"] == diag.to_json()["rounds"]

    def test_constant_terms_rejected_upstream(self):
        with pytest.raises(ElementError):
            AlgebraElement({(0, 0): 1.0, (1, 0): 1.0}, 2)


class TestMacLaneHadamard:
    def test_build_certifies(self, maclane):
        eh = space("entire_hadamard")
        st = CoordState(eh, maclane, standard_targets())
        b = build_generator(st, 6)
        assert b.passed
        w = b.weight
        sched = b.schedule()
        x = b.generator()
        for rd in b.rounds:
            img = backward_iterate(w, coordinatewise_power(x, rd.m), rd.a)
            dist = seminorm_eval(eh, rd.r, img - sched.target(rd.l))
            assert dist < -rd.r * LN2


class TestOmegaCoordinatewise:
    def test_growing_products_build_and_verify(self, maclane):
        from hyperforge import orbit_power_report, revalidate_bundle

        oc = space("omega_coord")
        st = CoordState(oc, maclane, standard_targets())
        b = build_generator(st, 8)
        assert b.passed
        assert orbit_power_report(b, 2).passed
        assert revalidate_bundle(b).passed


class TestScreenMatchesCertification:
    @pytest.mark.parametrize(
        "sid,wspec,K,R",
        [pytest.param(sid, wspec, 1, 5, id=f"{sid}-{wspec}")
         for sid, wspec in [("l_p:2", "const:2"), ("c0", "const:2"), ("l1", "const:2"),
                            ("entire_hadamard", "maclane"), ("omega_coord", "maclane")]]
        # round 12's a_r lies 4,686 witness entries past its floor, beyond the
        # first 4096-entry window of a walk from the floor
        + [pytest.param("l1", "const:2", 3, 12, id="l1-const:2-K3")],
    )
    def test_selected_index_is_minimal_across_spaces(self, sid, wspec, K, R):
        sp = space(sid)
        w = WeightSpec.parse(wspec)
        st = CoordState(sp, w, standard_targets(), K=K)
        for r in range(1, R + 1):
            rd = select_ar(st, r)
            prev = st.rounds[: r - 1]
            floor = 0 if r == 1 else prev[-1].a + st.schedule.s(prev[-1].l)
            for p in [int(v) for v in st.pk.p if floor < v < rd.a]:
                trial = certify_coord_round(sp, w, st.schedule, st.pairing, prev, r, p)
                assert not trial.passed, (sid, r, p, rd.a)

    def test_window_sizes_do_not_change_the_search(self, weight2, monkeypatch):
        ref = CoordState(L1, weight2, standard_targets(), K=3)
        build_algebrable(ref, 14)
        monkeypatch.setattr(coordwise, "_WINDOW_MIN", 1)
        monkeypatch.setattr(coordwise, "_WINDOW_MAX", 64)
        small = CoordState(L1, weight2, standard_targets(), K=3)
        build_algebrable(small, 14)
        assert [rd.a for rd in small.rounds] == [rd.a for rd in ref.rounds]
        assert small.pk.count == ref.pk.count

    def test_repeated_certification_failure_is_reported(self, weight2, monkeypatch):
        calls = []

        def failing(space, w, schedule, pairing, prev_rounds, r, a):
            calls.append(a)
            rd = certify_coord_round(space, w, schedule, pairing, prev_rounds, r, a)
            rd.checks["A1"] = Cert.less(0.0, -r)
            return rd

        monkeypatch.setattr(coordwise, "certify_coord_round", failing)
        st = CoordState(L1, weight2, standard_targets())
        with pytest.raises(SearchExhausted, match="repeatedly failed exact certification"):
            select_ar(st, 1)
        assert len(calls) == 16 and calls == sorted(calls)

    def test_constant_weights_rejected_on_entire_functions(self, weight2):
        # basis terms (q/lambda)^n do not decay for q >= lambda, and the
        # witness search reports that instead of looping
        from hyperforge.errors import SearchExhausted

        with pytest.raises(SearchExhausted):
            CoordState(space("entire_hadamard"), weight2, standard_targets())


# bundle ids of the benchmark's deep builds on the README targets
DEEP_BUNDLE_IDS = [
    ("entire_hadamard", "maclane", 1, 12, "2e1e16e8ab2a645f"),
    ("l1", "const:2", 3, 18, "611924f598a9c1cf"),
]


@pytest.mark.parametrize("sid,wspec,K,R,bundle_id", DEEP_BUNDLE_IDS, ids=["g", "g3"])
def test_deep_builds_keep_their_bundle_ids(sid, wspec, K, R, bundle_id):
    st = CoordState(space(sid), WeightSpec.parse(wspec), standard_targets(), K=K)
    assert build_algebrable(st, R).bundle_id == bundle_id


def test_deep_maclane_round_keeps_its_bundle_id(monkeypatch):
    # round 14 of entire_hadamard/maclane extends the witness past
    # a_14 = 150,372,923; its tail is certified in closed form, so the build
    # holds no array of that length
    import tracemalloc

    monkeypatch.setenv("HYPERFORGE_BUDGET", "300000000")
    st = CoordState(space("entire_hadamard"), WeightSpec.parse("maclane"), standard_targets())
    tracemalloc.start()
    try:
        bundle = build_generator(st, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.passed and bundle.rounds[-1].a == 150_372_923
    assert bundle.bundle_id == "f48372c874526be0"
    assert peak < 8 << 20, peak


def test_table_weight_end_to_end():
    from hyperforge import WeightSpec, find_pk_witness, orbit_power_report

    w = WeightSpec("table", table=[2.0] * 240)
    pk = find_pk_witness(space("l1"), w, 24, horizon_n=8)
    st = CoordState(space("l1"), w, standard_targets(), pk=pk)
    b = build_generator(st, 3)
    assert b.passed and orbit_power_report(b, 1).passed


def test_complex_weight_builds_and_verifies():
    from hyperforge import orbit_power_report, revalidate_bundle

    w = WeightSpec.parse("const:1+1i")  # modulus sqrt(2), phase pi/4
    st = CoordState(L1, w, standard_targets())
    b = build_generator(st, 8)
    assert b.passed
    for j in (1, 2):
        assert orbit_power_report(b, j).passed
    assert revalidate_bundle(b).passed


def test_build_reads_the_witness_only_through_its_runs(weight2, monkeypatch):
    # the per-entry arrays are for JSON, validation and reports; the build
    # walks the runs, so a deep build never materialises them
    from hyperforge.criteria import PkWitness

    def refuse(self, name):
        raise AssertionError(f"the build read PkWitness.{name}")

    ref = CoordState(L1, weight2, standard_targets(), K=3)
    build_algebrable(ref, 14)
    monkeypatch.setattr(PkWitness, "_array", refuse)
    st = CoordState(L1, weight2, standard_targets(), K=3)
    assert build_algebrable(st, 14).bundle_id == build_algebrable(ref, 14).bundle_id
    assert st.pk.count == ref.pk.count > 64  # the witness was extended


# -- the certified skip of select_ar -------------------------------------------


def _first_difference_rises(k, m, nu, a_t):
    """Exactly: does the first difference (1 - nu/m) log k - log(k - a_t) + log R
    of an A1/A2 log term (maclane weight, k = a + n + 1) grow from k to k + 1?
    Raised to the m-th power, R cancels."""
    step = Fraction(k + 1, k) ** (m - nu) * Fraction(k - a_t, k + 1 - a_t) ** m
    return step > 1


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_every_maclane_term_is_concave_in_the_shift(m):
    # the skip bounds a condition on (lower, J] by its terms' values at the two
    # ends, which holds because no first difference ever grows; const terms
    # change by the constant -nu log|lambda|/m + log R
    for nu in range(1, 7):
        for a_t in (0, 1, 2, 7, 40):
            for k in range(a_t + 1, a_t + 300):
                assert not _first_difference_rises(k, m, nu, a_t), (k, m, nu, a_t)
    # the oracle is not vacuous: a convex term, log k! + log k!, has first
    # difference 2 log k, which rises; in its form, nu = -m
    assert _first_difference_rises(5, m, -m, 0)


def _no_skip(state, r, m, y, lower):
    return lower


SKIP_BUILDS = [
    ("l1", "const:2", 14),
    ("l_p:2", "const:1.5", 14),
    ("c0", "const:1+1i", 14),
    ("entire_hadamard", "maclane", 12),
    ("omega_coord", "const:2", 14),
    ("l1", "table", 8),
]


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("sid,wspec,R", SKIP_BUILDS, ids=[f"{s}-{w}" for s, w, _ in SKIP_BUILDS])
def test_skip_leaves_every_bundle_as_the_walk_from_lower_builds_it(monkeypatch, sid, wspec, R, K):
    def build():
        w = WeightSpec("table", table=[2.0] * 2000) if wspec == "table" else WeightSpec.parse(wspec)
        return build_algebrable(CoordState(space(sid), w, standard_targets(), K=K), R).dumps()

    skipped = build()
    monkeypatch.setattr(coordwise, "_skip_target", _no_skip)
    assert skipped == build()


@pytest.mark.parametrize("sid,wspec,R", [
    ("l1", "const:2", 12), ("l_p:2", "const:1.5", 12), ("c0", "const:1+1i", 12),
    ("entire_hadamard", "maclane", 10),
])
def test_the_screen_rejects_every_witness_index_the_skip_passes(sid, wspec, R):
    # brute force: each round, screen exactly the witness indices in (lower, J]
    st = CoordState(space(sid), WeightSpec.parse(wspec), standard_targets(), K=3)
    skipped = 0
    for r in range(1, R + 1):
        m, l = st.pairing.decode(r)
        y = st.schedule.target(l)
        lower = coordwise._candidate_lower_bound(st, r)
        J = coordwise._skip_target(st, r, m, y, lower)
        rd = select_ar(st, r)
        assert lower <= J < rd.a
        inside = st.pk.rank(J) - st.pk.rank(lower)
        if inside:
            assert len(coordwise._screen(st, r, m, y, lower, inside)) == 0
        skipped += inside
    assert skipped > 0.9 * st.rounds[-1].a  # and the skip is not idle


def test_table_weights_and_omega_coord_skip_nothing(weight2):
    for st in (CoordState(space("omega_coord"), weight2, standard_targets()),
               CoordState(L1, WeightSpec("table", table=[2.0] * 2000), standard_targets())):
        build_generator(st, 4)
        m, l = st.pairing.decode(5)
        assert coordwise._skip_target(st, 5, m, st.schedule.target(l), 123) == 123


@pytest.mark.parametrize("scale,hit", [(0.0, False), (0.5, False), (2.0, True)])
def test_skip_predicate_around_bound_plus_delta(weight2, scale, hit):
    # round 1 on l1/const:2 with y = c e_0: A1 alone, its one term
    # log|c| - a log 2 falls, so G(J) is its value at J; J = 2 computes
    # log|c| - 2 log 2, which is bound + scale * delta for log|c| = log 2 + scale * delta
    # (delta is read at log|c| = log 2: it moves by a part in 1e10 from there)
    at = np.array([1, 2, 3])
    y0 = FiniteSeq.basis(0, WideComplex(LN2))
    delta = coordwise._skip_delta(CoordState(L1, weight2, [y0]), 1, 1, y0, at)[1]
    y = FiniteSeq.basis(0, WideComplex(LN2 + scale * delta))
    st = CoordState(L1, weight2, [y])
    assert 0.0 < delta < 1e-9
    assert list(coordwise._skip_hits(st, 1, 1, y, 0, at)) == [True, hit, False]
    assert coordwise._skip_target(st, 1, 1, y, 0) == (2 if hit else 1)
    assert select_ar(st, 1).a == 3


@pytest.mark.parametrize("scale,hit", [(0.5, False), (2.0, True)])
def test_skip_predicate_bounds_a_rising_term_by_its_left_end(weight2, scale, hit):
    # on l1/const:0.5 the A1 term log|c| + a log 2 rises with a, so over
    # (0, J] its least value is at a = 1 whatever J is; log|c| = -2 log 2 +
    # scale * delta puts that value at bound + scale * delta, for the least
    # delta of the probes when scale < 1 and the largest when scale > 1
    at = np.array([1, 2, 4, 8])
    half = WeightSpec.parse("const:0.5")
    pk = CoordState(L1, weight2, [FiniteSeq.basis(0)]).pk  # never read: no walk runs
    y0 = FiniteSeq.basis(0, WideComplex(-2 * LN2))
    deltas = coordwise._skip_delta(CoordState(L1, half, [y0], pk=pk), 1, 1, y0, at)
    delta = deltas.max() if scale > 1 else deltas.min()
    y = FiniteSeq.basis(0, WideComplex(-2 * LN2 + scale * delta))
    st = CoordState(L1, half, [y], pk=pk)
    assert list(coordwise._skip_hits(st, 1, 1, y, 0, at)) == [hit] * 4

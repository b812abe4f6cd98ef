import cmath
import json
import math
import random

import numpy as np
import pytest

from hyperforge import (
    Bundle,
    CauchyState,
    WideComplex,
    FiniteSeq,
    LambdaMatrix,
    WeightSpec,
    backward_iterate,
    build_algebrable_cauchy,
    build_generator_cauchy,
    cauchy_power,
    cauchy_product,
    check_mixing,
    enumerate_multi_indices,
    leading_form_column,
    multi_index_count,
    multinomial,
    property_b_witness,
    seminorm_eval,
    solve_building_block,
    space,
)
from hyperforge import cauchy as cauchy_mod
from hyperforge.cauchy import _scan_pairs
from hyperforge.core import cauchy_monomials, log_decode
from hyperforge.errors import (
    LeadingFormVanishing,
    SearchExhausted,
    SpaceProductError,
    WeightError,
    WitnessError,
    search_budget,
)
from hyperforge.spaces import basis_log_array

from conftest import PHASED_TARGETS_JSON, from_dict, rand_seq, standard_targets

L1 = space("l1")
EC = space("entire_cauchy")
LN2 = math.log(2.0)


class TestMultiIndices:
    def test_small_sets(self):
        assert set(enumerate_multi_indices(2, 2)) == {(1, 1), (0, 2)}
        assert enumerate_multi_indices(1, 3) == [(0, 0, 1)]
        assert len(enumerate_multi_indices(3, 3)) == 6 == math.comb(4, 2)

    def test_cardinality_formula(self):
        for mu in range(1, 9):
            for t in range(1, 9):
                got = enumerate_multi_indices(mu, t)
                assert len(got) == multi_index_count(mu, t)
                assert len(set(got)) == len(got)
                assert all(sum(a) == mu and a[-1] > 0 for a in got)
                assert multi_index_count(mu, t) <= math.comb(mu + t - 1, mu)

    def test_lexicographic_order(self):
        got = enumerate_multi_indices(2, 3)
        assert got == sorted(got)

    def test_multinomials(self):
        assert multinomial(2, (1, 1)) == 2
        assert multinomial(3, (0, 3)) == 1
        assert multinomial(4, (1, 1, 2)) == 12
        assert multinomial(20, (10, 10)) == math.comb(20, 10)
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))


class TestTailBound:
    def test_zero_constants(self):
        from hyperforge import tail_bound

        assert tail_bound(3, [0.0, 0.0, 0.0], 5) == 0.0

    def test_degree_one_geometric_identity(self):
        from hyperforge import tail_bound

        # oracle: sum_{t>r} t 2^-t = (r+2) 2^-r
        for r in (5, 10, 20):
            assert tail_bound(1, [1.0], r) == pytest.approx((r + 2) * 2.0 ** (-r), rel=1e-10)

    def test_strictly_decreasing_in_r(self):
        from hyperforge import tail_bound

        vals = [tail_bound(3, [1.0, 2.0, 0.5], r) for r in range(3, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def prereqs_l1():
    w = WeightSpec.parse("const:2")
    return w, check_mixing(L1, w), property_b_witness(L1, n_max=120)


@pytest.fixture(scope="module")
def prereqs_ec():
    w = WeightSpec.parse("maclane")
    return w, check_mixing(EC, w), property_b_witness(EC, n_max=120)


class TestBuildingBlockSolver:
    def test_degree_one_closed_form(self, prereqs_l1):
        w, mix, pb = prereqs_l1
        res = solve_building_block(L1, w, FiniteSeq.basis(0), 1, 1, 0, 0.5, mixing=mix, prop_b=pb)
        assert res.eta == 3 and res.gamma > res.eta
        assert res.b.is_zero
        # c_0 = v_0 y_0 / v_eta, exactly the stored closed form
        expected = (w.v(0) * FiniteSeq.basis(0).coef(0)) / w.v(res.eta)
        assert res.c[0] == expected
        assert res.checks["C1"].value == pytest.approx(0.125)
        assert res.passed

    def test_exact_identity_for_random_targets(self, prereqs_l1):
        w, mix, pb = prereqs_l1
        rng = random.Random(41)
        for m in (1, 2, 3):
            y = rand_seq(rng, 4, 3)
            res = solve_building_block(L1, w, y, m, 2, 5, 0.25, mixing=mix, prop_b=pb)
            assert res.passed
            assert res.checks["C2_residual"].value <= 1e-12
            assert res.gamma > res.eta + 2 * y.max_index

    def test_power_series_space_accepts_and_reverifies(self, prereqs_ec):
        w, mix, pb = prereqs_ec
        y = from_dict({0: 1, 1: 1})
        for m in (1, 2, 3):
            res = solve_building_block(EC, w, y, m, 1, 0, 0.5, mixing=mix, prop_b=pb)
            assert res.passed
            # independent re-evaluation of the two seminorm conditions
            assert log_decode(seminorm_eval(EC, 1, res.block)) < 0.5
            top = FiniteSeq.basis(m * res.gamma, res.b.powi(m))
            val = log_decode(seminorm_eval(EC, 1, backward_iterate(w, top, res.shift)))
            assert val < 0.5

    def test_shifted_power_reproduces_target(self, prereqs_l1):
        w, mix, pb = prereqs_l1
        y = from_dict({0: 2, 1: -1})
        for m in (1, 2, 3):
            res = solve_building_block(L1, w, y, m, 1, 0, 0.5, mixing=mix, prop_b=pb)
            img = backward_iterate(w, cauchy_power(res.block, m), res.shift)
            resid = backward_iterate(
                w, FiniteSeq.basis(m * res.gamma, res.b.powi(m)), res.shift
            )
            # only the shifted top coefficient survives, up to rounding on y's scale
            crumbs = log_decode(seminorm_eval(L1, 1, img - y - resid))
            assert crumbs <= 1e-12 * log_decode(seminorm_eval(L1, 1, y))

    def test_missing_prerequisites_rejected(self, prereqs_l1):
        w, mix, pb = prereqs_l1
        with pytest.raises(WitnessError):
            solve_building_block(L1, w, FiniteSeq.basis(0), 2, 1, 0, 0.5)
        bad_mix = check_mixing(L1, WeightSpec.parse("const:1"))
        with pytest.raises(WitnessError):
            solve_building_block(
                L1, WeightSpec.parse("const:1"), FiniteSeq.basis(0), 2, 1, 0, 0.5,
                mixing=bad_mix, prop_b=pb,
            )
        with pytest.raises(SpaceProductError):
            solve_building_block(space("c0"), w, FiniteSeq.basis(0), 1, 1, 0, 0.5,
                                 mixing=mix, prop_b=pb)

    def test_omega_bypass_pushes_windows_past_the_horizon(self):
        oc = space("omega_cauchy")
        w = WeightSpec.parse("const:2")
        for m in (1, 2):
            res = solve_building_block(oc, w, from_dict({0: 1, 1: 5}), m, 3, 2, 0.125)
            assert res.eta > 3 and res.gamma - res.eta > 3
            assert res.checks["C1"].value == 0.0
            assert res.checks["C3"].value == 0.0
            assert res.passed


def test_states_on_one_space_share_the_property_b_witness():
    a = CauchyState(L1, WeightSpec.parse("const:2"), standard_targets())
    b = CauchyState(L1, WeightSpec.parse("const:3"), standard_targets(), algebrable=True, K=2)
    c = CauchyState(EC, WeightSpec.parse("maclane"), standard_targets())
    assert a.prop_b is b.prop_b and a.prop_b is not c.prop_b
    fresh = property_b_witness(L1, m_max=4, M_max=8, r_max=5, n_max=200)
    assert a.prop_b.to_json() == fresh.to_json()


@pytest.fixture(scope="module")
def cauchy_bundle_l1():
    st = CauchyState(L1, WeightSpec.parse("const:2"), standard_targets())
    return build_generator_cauchy(st, 8)


@pytest.fixture(scope="module")
def cauchy_bundle_ec():
    st = CauchyState(EC, WeightSpec.parse("maclane"), standard_targets())
    return build_generator_cauchy(st, 8)


@pytest.fixture(scope="module")
def lambda_bundle():
    st = CauchyState(L1, WeightSpec.parse("const:2"), standard_targets(), algebrable=True, K=2)
    return build_algebrable_cauchy(st, 8)


class TestInductiveConstruction:
    @pytest.mark.parametrize("which", ["l1", "ec"])
    def test_all_round_certificates(self, which, cauchy_bundle_l1, cauchy_bundle_ec):
        b = cauchy_bundle_l1 if which == "l1" else cauchy_bundle_ec
        assert b.passed
        for rd in b.rounds:
            for key in ("C1", "C2_residual", "C3", "D1", "D2", "D3", "D4", "separation"):
                assert rd.checks[key].passed, (rd.r, key)

    def test_excluded_products_vanish_exactly(self, cauchy_bundle_l1):
        # the structural certificate asserts max support < a_r; evaluate for real
        b = cauchy_bundle_l1
        w = b.weight
        monomial = cauchy_monomials([rd.block for rd in b.rounds])
        for rd in b.rounds[2:6]:
            top = (0,) * (rd.r - 1) + (rd.m,)
            excluded = []
            for mu in range(1, rd.m):
                for t in range(1, rd.r + 1):
                    excluded.extend(enumerate_multi_indices(mu, t))
            for t in range(1, rd.r):
                excluded.extend(enumerate_multi_indices(rd.m, t))
            excluded.extend(a for a in enumerate_multi_indices(rd.m, rd.r) if a != top)
            for alpha in excluded:
                assert backward_iterate(w, monomial(alpha), rd.a).is_zero

    def test_first_round_is_an_exact_forward_image(self, cauchy_bundle_l1):
        rd = cauchy_bundle_l1.rounds[0]
        assert rd.m == 1
        w = cauchy_bundle_l1.weight
        y = cauchy_bundle_l1.schedule().target(rd.l)
        assert backward_iterate(w, rd.block, rd.a).rel_distance(y) <= 1e-12

    def test_binomial_split_matches_convolution(self, cauchy_bundle_l1):
        w = cauchy_bundle_l1.weight
        for rd in cauchy_bundle_l1.rounds:
            if rd.m < 2:
                continue
            q_part = FiniteSeq({rd.eta + j: c for j, c in enumerate(rd.c) if not c.is_zero})
            top = FiniteSeq.basis(rd.gamma, rd.b)
            total = FiniteSeq.zero()
            for k in range(rd.m + 1):
                piece = cauchy_power(q_part, rd.m - k)
                piece = cauchy_product(piece, cauchy_power(top, k))
                total = total + piece.scale(
                    WideComplex.from_complex(float(math.comb(rd.m, k)))
                )
            assert total.rel_distance(cauchy_power(rd.block, rd.m)) <= 1e-10

    def test_window_separation_chain(self, cauchy_bundle_l1, cauchy_bundle_ec):
        for b in (cauchy_bundle_l1, cauchy_bundle_ec):
            for prev, cur in zip(b.rounds, b.rounds[1:]):
                assert prev.a <= prev.m * prev.gamma < cur.eta
            for rd in b.rounds:
                assert rd.eta + (rd.m - 1) * rd.gamma == rd.a
                assert rd.gamma > rd.eta + 2 * b.schedule().target(rd.l).max_index

    def test_below_window_terms_bounded(self, cauchy_bundle_l1):
        for rd in cauchy_bundle_l1.rounds:
            if rd.m >= 2:
                s = cauchy_bundle_l1.schedule().target(rd.l).max_index
                assert 2 * (rd.eta + s) + (rd.m - 2) * rd.gamma < rd.a

    def test_power_orbit_bounds_on_truncation(self, cauchy_bundle_ec):
        b = cauchy_bundle_ec
        w = b.weight
        sched = b.schedule()
        x = b.generator()
        powers = {m: cauchy_power(x, m) for m in {rd.m for rd in b.rounds}}
        for rd in b.rounds:
            img = backward_iterate(w, powers[rd.m], rd.a)
            dist = seminorm_eval(EC, rd.r, img - sched.target(rd.l))
            assert dist < (-rd.r + 1) * LN2
        for rd in b.rounds:
            for mu in range(1, rd.m):
                img = backward_iterate(w, cauchy_power(x, mu), rd.a)
                assert seminorm_eval(EC, rd.r, img) < -rd.r * LN2


def _d4_per_t_and_alpha(space_, w, prefix, block_r, r, mode):
    """D4/F4 as it was computed before the products were shared across t:
    every P^alpha is rebuilt for each earlier round t; kept as an oracle."""
    monomial = cauchy_monomials([rd.block for rd in prefix[: r - 1]] + [block_r])
    worst = -math.inf
    for t in range(1, r):
        for mu in range(1, prefix[t - 1].m + 1):
            acc = -math.inf
            for alpha in enumerate_multi_indices(mu, r):
                img = backward_iterate(w, monomial(alpha), prefix[t - 1].a)
                val = seminorm_eval(space_, r, img)
                if mode == "max":
                    worst = max(worst, val)
                else:
                    acc = float(np.logaddexp(acc, math.log(multinomial(mu, alpha)) + val))
            if mode == "sum":
                worst = max(worst, acc)
    return worst


@pytest.mark.parametrize("which", ["c", "ca"])
def test_d4_builds_each_product_once(which, monkeypatch, cauchy_bundle_ec, lambda_bundle):
    # the README c.json and ca.json rounds: the same value as the per-(t, alpha)
    # form, with one cauchy_monomials product per distinct alpha
    b, mode = (cauchy_bundle_ec, "sum") if which == "c" else (lambda_bundle, "max")
    assert b.bundle_id == {"c": "83967ddd36a7f5bb", "ca": "1785e5e5716db747"}[which]
    real = cauchy_mod.cauchy_monomials
    maps, calls = [], []

    def counted(seqs):
        maps.append(seqs)
        monomial = real(seqs)

        def count(alpha):
            calls.append(alpha)
            return monomial(alpha)

        return count

    for rd in b.rounds[1:]:
        r, prefix = rd.r, b.rounds[: rd.r - 1]
        want = _d4_per_t_and_alpha(b.space, b.weight, prefix, rd.block, r, mode)
        maps.clear()
        calls.clear()
        monkeypatch.setattr(cauchy_mod, "cauchy_monomials", counted)
        got = cauchy_mod._d4_worst(b.space, b.weight, prefix, rd.block, r, mode)
        monkeypatch.setattr(cauchy_mod, "cauchy_monomials", real)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), r
        alphas = {a for mu in range(1, max(p.m for p in prefix) + 1) for a in enumerate_multi_indices(mu, r)}
        assert len(maps) == 1, r
        assert len(calls) == len(set(calls)) and set(calls) == alphas, r


class TestLambdaMatrix:
    def test_entries_bounded_and_recur(self):
        lam = LambdaMatrix(l_max=2)
        cols = [lam.column(nu) for nu in range(1, lam.size + 1)]
        assert all(abs(v) <= 1.0 + 1e-12 for col in cols for v in col)
        for nu in range(1, 10):
            assert lam.column(nu) == lam.column(nu + lam.size)
        # every tuple of length 1..l_max over the values appears exactly once
        # in each window of lam.size columns
        assert len(set(cols)) == lam.size == 5 + 5**2

    def test_full_support_elements_come_first(self):
        lam = LambdaMatrix(l_max=2)
        assert lam.column(1) == (1 + 0j, 1 + 0j)
        assert all(len(lam.column(nu)) == 2 for nu in range(1, 26))
        assert len(lam.column(26)) == 1

    def test_column_scaling_keeps_round_bounds(self, lambda_bundle):
        for rd in lambda_bundle.rounds:
            assert all(abs(v) <= 1.0 + 1e-12 for v in rd.lambda_column)
            for k, lam_k in enumerate(rd.lambda_column, start=1):
                scaled = rd.block.scale(
                    WideComplex.from_complex(lam_k)
                )
                assert seminorm_eval(L1, rd.r, scaled) < -rd.r * LN2

    def test_leading_form_examples(self):
        lam = LambdaMatrix(l_max=2)
        nu, rho = leading_form_column({(2,): 1.0}, lam)
        assert nu == 1 and abs(rho) == pytest.approx(1.0)
        nu, rho = leading_form_column({(1, 1): 1.0}, lam)
        assert (nu, rho) == (1, 1 + 0j)
        nu, rho = leading_form_column({(1, 0): 1.0, (0, 1): -1.0}, lam)
        assert nu == 2 and rho != 0  # skips the equal-entries column
        with pytest.raises(LeadingFormVanishing):
            leading_form_column({}, lam)

    def test_generators_share_windows(self, lambda_bundle):
        g1, g2 = lambda_bundle.generators()
        assert g1.support == g2.support  # same blocks, scaled by nonzero columns


class TestAlgebrableCauchy:
    def test_round_certificates(self, lambda_bundle):
        assert lambda_bundle.passed
        for rd in lambda_bundle.rounds:
            for key in ("F1", "F2", "F3", "F4", "separation"):
                assert rd.checks[key].passed

    def test_triple_pairing_recorded(self, lambda_bundle):
        to = lambda_bundle.pairing()
        for rd in lambda_bundle.rounds:
            assert to.decode(rd.r) == (rd.m, rd.l, rd.nu)

    def test_generator_coefficient_gap_at_power_windows(self, lambda_bundle):
        # the non-finite-generation obstruction at desk scale
        gens = lambda_bundle.generators()
        for rd in lambda_bundle.rounds:
            if rd.m < 2:
                continue
            idx = rd.m * rd.gamma
            assert all(g.coef(idx).is_zero for g in gens)
            assert not cauchy_power(rd.block, rd.m).coef(idx).is_zero


class TestOmegaBypass:
    def test_any_weight_builds_on_omega(self):
        # even the unimodular weight, which is not hypercyclic on the other
        # spaces, certifies here: both block windows sit past every seminorm
        oc = space("omega_cauchy")
        st = CauchyState(oc, WeightSpec.parse("const:1"), standard_targets())
        b = build_generator_cauchy(st, 8)
        assert b.passed
        from hyperforge import orbit_power_report, revalidate_bundle

        assert orbit_power_report(b, 1).passed
        assert revalidate_bundle(b).passed

    def test_omega_lambda_matrix_variant(self):
        oc = space("omega_cauchy")
        st = CauchyState(oc, WeightSpec.parse("maclane"), standard_targets(),
                         algebrable=True, K=2)
        b = build_algebrable_cauchy(st, 6)
        assert b.passed
        from hyperforge import AlgebraElement, orbit_element_report

        er = orbit_element_report(b, AlgebraElement({(1, 1): 1.0, (1, 0): 1.0}, 2))
        assert er.passed


def test_pair_budget_exhaustion_reports_margins(prereqs_l1, monkeypatch):
    w, mix, pb = prereqs_l1
    monkeypatch.setenv("HYPERFORGE_BUDGET", "1024")
    with pytest.raises(SearchExhausted) as exc:
        solve_building_block(L1, w, FiniteSeq.basis(0), 2, 1, 0, 1e-30, mixing=mix, prop_b=pb)
    assert "scanned" in exc.value.details


def test_pair_scan_jump_past_the_search_budget_raises_before_allocating(monkeypatch):
    # for a tolerance near e^-1e6 the extrapolation jump lands near weight
    # index 8.6e6; with a search budget of 1e6 the scan stops there instead
    # of tabulating log v_n up to it
    import tracemalloc

    monkeypatch.setenv("HYPERFORGE_BUDGET", "1000000")
    w = WeightSpec.parse("const:2")
    tracemalloc.start()
    try:
        with pytest.raises(SearchExhausted) as exc:
            _scan_pairs(L1, w, FiniteSeq.basis(0), 2, 1, 3, -1e6, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.details["index"] > 1_000_000
    assert peak < 1 << 20, peak


def test_complex_weight_convolution_build():
    from hyperforge import orbit_power_report, revalidate_bundle

    w = WeightSpec.parse("const:1+1i")
    st = CauchyState(L1, w, standard_targets())
    b = build_generator_cauchy(st, 6)
    assert b.passed
    assert orbit_power_report(b, 1).passed
    assert revalidate_bundle(b).passed


@pytest.fixture(scope="module")
def deep_ec():
    st = CauchyState(EC, WeightSpec.parse("maclane"), standard_targets())
    return build_generator_cauchy(st, 10)


def test_deep_rounds_reach_quartic_degree(deep_ec):
    # round 10 is the first degree-4 round; its tolerance sits near e^-2e5 and
    # the window scan has to jump far past the small-total region
    b = deep_ec
    assert b.passed and b.rounds[-1].m == 4
    from hyperforge import orbit_power_report

    for j in (3, 4):
        assert orbit_power_report(b, j).passed


def test_deep_builds_keep_their_bundle_ids(deep_ec):
    # the benchmark's deep Cauchy builds on the README targets
    assert deep_ec.bundle_id == "1ade706ced96c35d"
    st = CauchyState(EC, WeightSpec.parse("maclane"), standard_targets(), algebrable=True, K=2)
    assert build_algebrable_cauchy(st, 10).bundle_id == "47fc4840f404c3a5"


def test_flat_build_keeps_its_bundle_id(cauchy_bundle_l1):
    # l1/const:2: at m = 2 the block bound is constant along an
    # anti-diagonal, so the pair scan of this build keeps every block of the
    # anti-diagonals it keeps and screens them whole; the id pins the walk
    # through that path
    assert cauchy_bundle_l1.bundle_id == "4928a014eea7762e"


@pytest.mark.parametrize(
    "algebrable,bundle_id", [(False, "cb755b34396ca41b"), (True, "72c4d1de630f6ee7")],
    ids=["single", "K2"],
)
def test_loaded_deep_bundles_keep_their_bytes(algebrable, bundle_id):
    # the benchmark's seed-1 deep builds, which store some coefficients in
    # log form: a saved and loaded bundle is the built one, bit for bit
    from hyperforge import revalidate_bundle

    targets = [FiniteSeq.from_json(t) for t in PHASED_TARGETS_JSON]
    kw = {"algebrable": True, "K": 2} if algebrable else {}
    st = CauchyState(EC, WeightSpec.parse("maclane"), targets, **kw)
    built = (build_algebrable_cauchy if algebrable else build_generator_cauchy)(st, 10)
    assert built.bundle_id == bundle_id
    loaded = Bundle.from_json(json.loads(built.dumps()))
    assert loaded.dumps() == built.dumps()
    assert loaded.bundle_id == bundle_id and loaded.to_json() == built.to_json()
    assert revalidate_bundle(loaded).passed


# -- the pair scan against its concatenated-batch form ---------------------------


def _scan_pairs_batched(space_, w, y, m, r, N, eps_log, pair_budget, jumps=None):
    """The pair scan as it was before per-diagonal evaluation, kept as an
    oracle: each batch of 64 anti-diagonals is concatenated and evaluated in
    one pass with gathers.  ``jumps`` collects the extrapolation jumps."""
    s = y.max_index
    log_eps = eps_log
    yterms = {j: w.v_log(j) + c.log_mag - math.log(m) for j, c in y.items()}
    budget = pair_budget if pair_budget is not None else search_budget()
    scanned = 0
    best = math.inf
    d = N + (N + 2 * s + 1)
    batch_rows = 64
    prev_probe = None
    while scanned <= budget:
        gs_all = []
        es_all = []
        for dd in range(d, d + batch_rows):
            g_lo = max(N + 2 * s + 1, (dd + 2 * s + 2) // 2)
            g_hi = dd - N
            if g_hi >= g_lo:
                g = np.arange(g_lo, g_hi + 1)
                gs_all.append(g)
                es_all.append(dd - g)
        d_mid = d + batch_rows // 2
        d += batch_rows
        if not gs_all:
            continue
        gs = np.concatenate(gs_all)
        es = np.concatenate(es_all)
        scanned += len(gs)
        logv = w.v_log_array(int(m * gs.max()))
        top = es + (m - 1) * gs
        kept = {}
        maxA = None
        for j in range(s + 1):
            basis_j, logv_j = basis_log_array(space_, r, es + j), logv[top + j]
            A = (basis_j - logv_j) / (m - 1)
            maxA = A if maxA is None else np.maximum(maxA, A, out=maxA)
            if j in yterms:
                kept[j] = basis_j, logv_j
        v_gap = logv[gs - es] - logv[m * gs]
        basis_gap = basis_log_array(space_, r, gs - es)
        B1 = -basis_log_array(space_, r, gs)
        logb = maxA
        logb += np.minimum(B1, (v_gap - basis_gap) / m)
        logb *= 0.5
        logb_pow = (m - 1) * logb
        logq = None
        for j, base in yterms.items():
            basis_j, logv_j = kept.pop(j)
            t = np.subtract(base, logb_pow)
            t -= logv_j
            t += basis_j
            logq = t if logq is None else np.logaddexp(logq, t, out=logq)
        c1 = np.logaddexp(logq, np.subtract(logb, B1, out=B1), out=logq)
        c3 = np.multiply(m, logb, out=B1)
        c3 -= v_gap
        c3 += basis_gap
        worst = np.maximum(c1, c3, out=c1)
        hit = np.nonzero(worst < log_eps)[0]
        if len(hit):
            i = int(hit[0])
            return int(es[i]), int(gs[i]), float(logb[i]), scanned
        margin = float(worst.min(initial=math.inf)) - log_eps
        best = min(best, margin + log_eps)
        if prev_probe is not None and margin > 0:
            d_prev, m_prev = prev_probe
            if m_prev > margin and d_mid > d_prev:
                slope = (m_prev - margin) / (d_mid - d_prev)
                remaining = margin / slope
                if remaining > 8 * batch_rows:
                    d += int(0.75 * remaining)
                    if jumps is not None:
                        jumps.append(d)
        prev_probe = (d_mid, margin)
    raise SearchExhausted(
        "no (eta, gamma) pair admitted the block within budget",
        m=m, N=N, eps_log=eps_log, best_margin_log=best - log_eps, scanned=scanned,
    )


# moduli near n (so the weight is mixing on entire_cauchy too), with phases
_PHASED_TABLE = WeightSpec(
    "table", table=[k * (1.0 + 0.4 * math.sin(k)) * cmath.exp(0.7j * k) for k in range(1, 20001)]
)
_SCAN_WEIGHTS = {"const:2": WeightSpec.parse("const:2"), "maclane": WeightSpec.parse("maclane"),
                 "table": _PHASED_TABLE}
_SCAN_TARGETS = [FiniteSeq.basis(0), from_dict({0: 2, 1: -1}), from_dict({0: 1, 2: 1j})]
# log eps: a hit in the first batch, one past the first, one past a jump
_SCAN_EPS = {"const:2": (-1.0, -40.0, -300.0), "maclane": (-1.0, -40.0, -1000.0),
             "table": (-1.0, -40.0, -1000.0)}


def _scan_cases():
    for sid in ("l1", "l_p:2", "entire_cauchy"):
        for wname in _SCAN_WEIGHTS:
            # ||e_n||_2 = 2^n on entire_cauchy cancels const:2 exactly, so no
            # pair exists past r = 1 there
            r = 1 if (sid, wname) == ("entire_cauchy", "const:2") else 2
            yield pytest.param(sid, wname, r, id=f"{sid}-{wname}")


@pytest.mark.parametrize("sid,wname,r", list(_scan_cases()))
def test_pair_scan_matches_the_concatenated_batch_form(sid, wname, r):
    sp, w = space(sid), _SCAN_WEIGHTS[wname]
    seen = set()
    for m in (2, 3, 4):
        for y in _SCAN_TARGETS:
            s = y.max_index
            for eps_log in _SCAN_EPS[wname]:
                N = 3
                jumps = []
                want = _scan_pairs_batched(sp, w, y, m, r, N, eps_log, None, jumps)
                got = _scan_pairs(sp, w, y, m, r, N, eps_log, None)
                assert got == want, (m, s, eps_log)
                eta, gamma = want[:2]
                first_d = 2 * N + 2 * s + 1
                if eta + gamma < first_d + 64:
                    seen.add("first batch")
                if jumps and eta + gamma >= jumps[0]:
                    seen.add("past a jump")
                if eta + gamma > first_d and gamma > max(N + 2 * s + 1, (eta + gamma + 2 * s + 2) // 2):
                    seen.add("inside a diagonal")
    assert seen == {"first batch", "past a jump", "inside a diagonal"}, seen


def _outcome(scan, *args):
    try:
        return scan(*args)
    except SearchExhausted as exc:
        return exc.details


@pytest.mark.parametrize("sid,wname,r", list(_scan_cases()))
def test_pair_scan_exhaustion_matches_the_concatenated_batch_form(sid, wname, r):
    # a budget of 2000 pairs stops every case after two batches, with the
    # first extrapolation jump decided; 8000 lets some cases run past it
    sp, w = space(sid), _SCAN_WEIGHTS[wname]
    y = _SCAN_TARGETS[1]
    for m in (2, 4):
        for budget in (0, 2000, 8000):
            args = (sp, w, y, m, r, 3, -1500.0, budget)
            want = _outcome(_scan_pairs_batched, *args)
            assert _outcome(_scan_pairs, *args) == want, (m, budget)
            if budget < 8000:
                assert want["scanned"] > budget and "best_margin_log" in want


# -- the screened diagonal against the unscreened one ----------------------------


def _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi):
    """max(C1, C3) and log b on every pair of one anti-diagonal, as the pair
    scan computed them before the screen; kept as an oracle."""
    n = g_hi - g_lo + 1
    top = dd + (m - 2) * g_lo

    def basis_at(j):
        return basis[dd - g_hi + j : dd - g_lo + j + 1][::-1]

    def logv_at(j):
        return logv[top + j] if m == 2 else logv[top + j :: m - 2][:n]

    maxA = None
    for j in range(s + 1):
        A = (basis_at(j) - logv_at(j)) / (m - 1)
        maxA = A if maxA is None else np.maximum(maxA, A, out=maxA)
    lo = 2 * g_lo - dd
    v_gap = logv[lo::2][:n] - logv[m * g_lo :: m][:n]
    basis_gap = basis[lo::2][:n]
    B1 = -basis[g_lo : g_hi + 1]
    logb = maxA
    logb += np.minimum(B1, (v_gap - basis_gap) / m)
    logb *= 0.5
    logb_pow = (m - 1) * logb
    logq = None
    for j, base in yterms.items():
        t = np.subtract(base, logb_pow)
        t -= logv_at(j)
        t += basis_at(j)
        logq = t if logq is None else np.logaddexp(logq, t, out=logq)
    c1 = np.logaddexp(logq, np.subtract(logb, B1, out=B1), out=logq)
    c3 = np.multiply(m, logb, out=B1)
    c3 -= v_gap
    c3 += basis_gap
    return np.maximum(c1, c3, out=c1), logb


def _random_rows(rng, s, count):
    """``count`` distinct anti-diagonals (eta + gamma, first gamma, last gamma)
    of one random N, in ascending order."""
    N = int(rng.integers(0, 4))
    first = 2 * N + 2 * s + 1
    if count == 1:
        dds = [first + int(rng.integers(0, 300))]
    else:
        dds = sorted(first + int(dd) for dd in rng.choice(300, count, replace=False))
    return [(dd, max(N + 2 * s + 1, (dd + 2 * s + 2) // 2), dd - N) for dd in dds]


def _random_tables(rng, m, s, k, kind, rows):
    """Tables wide enough for ``rows``.  Values lie on a coarse grid, so ties
    abound, except for "close" tables, whose small steps keep the C1 terms
    within ln(k + 1) of each other, so the smallest bound need not sit at the
    diagonal minimum, and "large" ones, whose entries lie near +-1e7."""
    dd, g_hi = max(row[0] for row in rows), max(row[2] for row in rows)
    if kind == "close":
        logv = np.cumsum(rng.uniform(0.0, 0.3, m * g_hi + s + 1))
        basis = rng.uniform(-0.3, 0.3, dd + s + 1)
    elif kind == "large":  # magnitudes near 1e7, where rounding reaches 1e-9
        logv = 1e7 + np.cumsum(rng.uniform(0.0, 0.3, m * g_hi + s + 1))
        basis = rng.choice([-1e7, 1e7], dd + s + 1) + rng.uniform(-0.3, 0.3, dd + s + 1)
    else:
        logv = np.cumsum(rng.integers(0, 6, m * g_hi + s + 1) * 0.5)
        basis = rng.integers(-6, 6, dd + s + 1) * 0.25 * np.arange(dd + s + 1)
    if kind == "inf":
        for table in (logv, basis):
            at = rng.integers(0, len(table), 4)
            table[at] = rng.choice([-np.inf, np.inf], 4)
    elif kind == "nan":
        _, g_lo, g_hi = rows[int(rng.integers(len(rows)))] if len(rows) > 1 else rows[0]
        basis[int(rng.integers(g_lo, g_hi + 1))] = np.nan  # read by B1 on this diagonal
    support = sorted([s, *rng.choice(s, k - 1, replace=False).tolist()])  # s is the top index
    yterms = {j: float(rng.integers(-8, 8) * (0.05 if kind == "close" else 0.5)) for j in support}
    return logv, basis, yterms


def _random_diagonal(rng, m, s, k, kind):
    """Tables and one anti-diagonal."""
    rows = _random_rows(rng, s, 1)
    return (*_random_tables(rng, m, s, k, kind, rows), *rows[0])


def _first_hit(worst, log_eps):
    hit = np.nonzero(worst < log_eps)[0]
    return int(hit[0]) if len(hit) else None


def _check_screen(logv, basis, yterms, s, m, rows, log_eps, seen, label, counting):
    """The exact screen over the atoms of the rows, alone or packed, against
    ``_diagonal_unscreened`` on the rows laid end to end: the first hit with
    the log b bytes at it, else the minimum.  ``counting`` counts the pairs
    that reach the logaddexp chain."""
    unscreened = [_diagonal_unscreened(logv, basis, yterms, s, m, *row) for row in rows]
    worst, logb = (np.concatenate(x) for x in zip(*unscreened))
    lows = []
    counting.elements, counting.active = 0, True
    try:
        got = cauchy_mod._screen(*cauchy_mod._atoms(logv, basis, s, m, rows), yterms, m, log_eps, lows)
    finally:
        counting.active = False
    reached = counting.elements // len(yterms)  # the chain and C1 take k logaddexp steps
    if np.isnan(worst).any():  # a NaN bound keeps every pair
        assert reached == len(worst)
    hit = _first_hit(worst, log_eps)
    if hit is not None:
        assert got is not None and got[0] == hit, (m, s, label, log_eps)
        assert np.float64(got[1]).tobytes() == logb[hit].tobytes()
        seen.add(f"{label} hit")
    else:
        assert got is None and len(lows) == 1, (m, s, label, log_eps)
        want_min, got_min = worst.min(), lows[0]
        if np.isnan(want_min):
            assert np.isnan(got_min)
            seen.add(f"{label} nan minimum")
        else:
            assert got_min == want_min, (m, s, label, log_eps)
    if reached < len(worst):
        seen.add(f"{label} screened")


def _eps_picks(worst):
    finite = worst[np.isfinite(worst)]
    picks = [float(np.median(finite)), float(finite.min())] if len(finite) else []
    return [*picks, -1e300, 1e300]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the tables
@pytest.mark.parametrize("kind", ["grid", "close", "inf", "nan"])
def test_screened_diagonal_matches_the_unscreened_one(kind, monkeypatch):
    # each diagonal alone (strided reads), then packs of 2-8 diagonals on
    # shared tables (gathered reads, one cut per call)
    rng = np.random.default_rng(["grid", "close", "inf", "nan"].index(kind))
    counting = _CountingNumpy()
    monkeypatch.setattr(cauchy_mod, "np", counting)
    seen = set()
    for m in (2, 3, 4):
        for s in (0, 1, 2):
            for k in range(1, min(3, s + 1) + 1):
                for _ in range(12):
                    logv, basis, yterms, dd, g_lo, g_hi = _random_diagonal(rng, m, s, k, kind)
                    worst, _ = _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi)
                    for log_eps in _eps_picks(worst):
                        _check_screen(logv, basis, yterms, s, m, [(dd, g_lo, g_hi)], log_eps, seen, "row",
                                      counting)
                for size in range(2, 9):
                    rows = _random_rows(rng, s, size)
                    logv, basis, yterms = _random_tables(rng, m, s, k, kind, rows)
                    dd, g_lo, g_hi = rows[int(rng.integers(size))]
                    worst, _ = _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi)
                    for log_eps in _eps_picks(worst):
                        _check_screen(logv, basis, yterms, s, m, rows, log_eps, seen, "pack", counting)
    want = {"hit", "nan minimum"} if kind == "nan" else {"hit", "screened"}
    assert {f"{label} {w}" for label in ("row", "pack") for w in want} <= seen, seen


def test_packs_keep_to_their_pair_limit(monkeypatch):
    # the README entire_cauchy/maclane build, and a table-weight scan that
    # screens whole rows as the block bound does not apply: every pack of
    # short runs fits in _PACK_PAIRS, every long run is evaluated alone, and
    # the packs cover each batch in order
    packs = []
    real_packs = cauchy_mod._packs

    def recorded(rows):
        out = list(real_packs(rows))
        assert [row for pack in out for row in pack] == list(rows)
        packs.extend(out)
        return out

    monkeypatch.setattr(cauchy_mod, "_packs", recorded)
    b = build_generator_cauchy(CauchyState(EC, WeightSpec.parse("maclane"), standard_targets()), 8)
    assert b.bundle_id == "83967ddd36a7f5bb"
    _scan_pairs(L1, _PHASED_TABLE, FiniteSeq.basis(0), 2, 2, 3, -5000.0, None)
    sizes = [[g_hi - g_lo + 1 for _, g_lo, g_hi in pack] for pack in packs]
    for pack in sizes:
        if len(pack) > 1:
            assert sum(pack) <= cauchy_mod._PACK_PAIRS and max(pack) < cauchy_mod._PACK_ROW
    assert any(len(p) > 1 for p in sizes) and any(p[0] >= cauchy_mod._PACK_ROW for p in sizes)
    # a long limit of short rows still splits
    rows = [(2 * n, n, 2 * n - 1) for n in range(1, 200)] * 3
    got = list(real_packs(rows))
    assert [row for pack in got for row in pack] == rows
    for pack in got:
        n = [g_hi - g_lo + 1 for _, g_lo, g_hi in pack]
        assert len(n) == 1 or (sum(n) <= cauchy_mod._PACK_PAIRS and max(n) < cauchy_mod._PACK_ROW)


class _CountingNumpy:
    """Stands in for numpy inside the cauchy module and counts the elements
    that reach np.logaddexp while ``active``."""

    def __init__(self):
        self.active = False
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def logaddexp(self, *args, **kwargs):
        if self.active:
            self.elements += np.size(args[0])
        return np.logaddexp(*args, **kwargs)


def test_screen_sends_few_pairs_to_logaddexp(monkeypatch):
    # the README entire_cauchy/maclane build: the exact chain runs only on the
    # pairs the lower bound cannot reject (2.1% of the scanned pairs)
    counting = _CountingNumpy()
    scanned = 0

    def counted_scan(*args):
        nonlocal scanned
        counting.active = True
        try:
            out = _scan_pairs(*args)
        except SearchExhausted as exc:
            scanned += exc.details["scanned"]
            raise
        finally:
            counting.active = False
        scanned += out[3]
        return out

    monkeypatch.setattr(cauchy_mod, "np", counting)
    monkeypatch.setattr(cauchy_mod, "_scan_pairs", counted_scan)
    b = build_generator_cauchy(CauchyState(EC, WeightSpec.parse("maclane"), standard_targets()), 8)
    assert b.bundle_id == "83967ddd36a7f5bb"
    assert scanned > 1_000_000
    assert 0 < counting.elements < 0.03 * scanned, (counting.elements, scanned)


def test_first_stage_sends_few_pairs_to_the_exact_screen(monkeypatch):
    # the README entire_cauchy/maclane build: the exact lower expressions run
    # only on the blocks the block bound cannot clear (4.5% of the scanned
    # pairs; the early rounds' short rows fit in one block each)
    scanned = reached = 0
    real_scan, real_screen = cauchy_mod._scan_pairs, cauchy_mod._screen

    def counted_scan(*args):
        nonlocal scanned
        out = real_scan(*args)
        scanned += out[3]
        return out

    def counted_screen(*args):
        nonlocal reached
        reached += np.size(args[5])  # log ||e_gamma||_r, one entry per pair
        return real_screen(*args)

    monkeypatch.setattr(cauchy_mod, "_scan_pairs", counted_scan)
    monkeypatch.setattr(cauchy_mod, "_screen", counted_screen)
    b = build_generator_cauchy(CauchyState(EC, WeightSpec.parse("maclane"), standard_targets()), 8)
    assert b.bundle_id == "83967ddd36a7f5bb"
    assert scanned > 1_000_000
    assert 0 < reached < 0.05 * scanned, (reached, scanned)


def test_deep_build_peak_memory():
    # the benchmark's deep Cauchy build: the block bound holds one group of
    # _PACK_PAIRS blocks at a time, and the exact screen one pack or one long
    # segment
    import tracemalloc

    state = CauchyState(EC, WeightSpec.parse("maclane"), standard_targets())
    tracemalloc.start()
    try:
        b = build_generator_cauchy(state, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.bundle_id == "1ade706ced96c35d"
    assert peak <= 7 << 20, peak / 2**20


def test_table_weight_scan_reads_to_the_end_of_the_table():
    # a table weight grows its log table a quarter past what a batch reads,
    # but never past the table's end: at N = 8435 the first batch reads up to
    # about 17,000 of the 20,000 entries and finds a pair; a batch that reads
    # past the end still fails as weight_invalid
    args = (L1, _PHASED_TABLE, FiniteSeq.basis(0), 2, 1)
    got = _scan_pairs(*args, 8435, 50.0, None)
    assert got == _scan_pairs_batched(*args, 8435, 50.0, None)
    with pytest.raises(WeightError) as exc:
        _scan_pairs(*args, 10_000, 50.0, None)
    assert exc.value.code == "weight_invalid" and exc.value.details["index"] > len(_PHASED_TABLE.table)


# -- the block bound, and the batch against the unscreened rows -----------------


def _table_delta(logv, basis, yterms, m):
    """``_block_bound``'s margin for pairs read from these tables, with S
    grown piece by piece as the pair scan grows its tables; inf when an entry
    is inf or NaN."""
    S = np.max([1.0, *map(abs, yterms.values())])
    for table in (logv, basis):
        grown = np.empty(0)
        for piece in (table[: len(table) // 2], table[len(table) // 2 :]):
            grown, S = cauchy_mod._extend(grown, S, piece)
        assert grown.tobytes() == table.tobytes()
    return cauchy_mod._delta(S, m)


def test_first_stage_bound_never_exceeds_lower():
    # the block bound on one-pair blocks (g1 = g2, which needs no convexity:
    # beta is P there) against lower as _screen computes it, on random
    # tables, at every pair of lone rows and packs
    rng = np.random.default_rng(0)
    seen = set()
    for kind in ("grid", "close", "large"):
        for m in (2, 3, 4):
            for s in (0, 1, 2):
                for k in range(1, s + 2):
                    for size in (1, 1, 1, 4):
                        rows = _random_rows(rng, s, size)
                        logv, basis, yterms = _random_tables(rng, m, s, k, kind, rows)
                        eta, gamma = cauchy_mod._all_pairs(*np.array(rows).T)
                        beta = cauchy_mod._block_bound(logv, basis, yterms, s, m, eta + gamma, gamma, gamma,
                                                       _table_delta(logv, basis, yterms, m))
                        atoms = cauchy_mod._atoms(logv, basis, s, m, rows)
                        lower = cauchy_mod._lower(*atoms, yterms, m)[4]
                        assert np.all(beta <= lower), (kind, m, s, k, float(np.max(beta - lower)))
                        _, _, logv_gap, logv_mg, basis_gap, basis_g = atoms
                        b2 = (logv_gap - logv_mg - basis_gap) / m < -basis_g
                        seen.update({f"{kind} B2" if b else f"{kind} B1" for b in b2.tolist()})
                        if np.any(lower - beta <= 1e-6 * np.abs(lower)):
                            seen.update({f"{kind} tight", f"tight m={m}", f"tight s={s}"})
    want = {f"{kind} {w}" for kind in ("grid", "large") for w in ("B1", "B2", "tight")}
    want |= {"close B2", "close tight"}  # close tables make B2 the smaller branch
    want |= {f"tight m={m}" for m in (2, 3, 4)} | {f"tight s={s}" for s in (0, 1, 2)}
    assert want <= seen, want - seen


def _batch_unscreened(logv, basis, yterms, s, m, rows, log_eps):
    """``_batch`` by ``_diagonal_unscreened``, row by row."""
    minima = []
    for dd, g_lo, g_hi in rows:
        worst, logb = _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi)
        hit = _first_hit(worst, log_eps)
        if hit is not None:
            return (dd - g_lo - hit, g_lo + hit, float(logb[hit])), None
        minima.append(worst.min())
    return None, float(np.min(minima))


def _assert_batch(got, want, where):
    """``_batch``'s result against ``_batch_unscreened``'s: the first hit with
    its log b bits, or the minimum; returns which of the two it was."""
    if want[0] is None:
        assert got[0] is None and (got[1] == want[1] or math.isnan(want[1]) and math.isnan(got[1])), where
        return "minimum"
    assert got[0][:2] == want[0][:2], where
    assert np.float64(got[0][2]).tobytes() == np.float64(want[0][2]).tobytes(), where
    return "hit"


def _record_calls(monkeypatch, calls, names):
    """Record the name of each call to the cauchy functions ``names``."""
    for name in names:
        real = getattr(cauchy_mod, name)

        def call(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cauchy_mod, name, call)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the tables
@pytest.mark.parametrize("kind", ["grid", "close", "large", "inf", "nan"])
def test_two_stage_batch_matches_the_unscreened_rows(kind, monkeypatch):
    # _batch without a finite block bound (random tables meet no premise, and
    # inf or NaN entries make the margin inf) is the exact screen on whole
    # rows, pack by pack: the first passing pair with its log b bits, or the
    # batch minimum, against the unscreened rows; small pack limits also make
    # more rows long and pack fewer short ones.  Blocks of one pair need no
    # premise, so on finite tables _batch also runs with them and the tables'
    # margin, where "close" tables keep the C1 terms near each other and the
    # cut decides the minimum
    rng = np.random.default_rng(["grid", "close", "large", "inf", "nan"].index(kind))
    monkeypatch.setattr(cauchy_mod, "_BLOCK", 1)
    calls = []
    _record_calls(monkeypatch, calls, ("_block_bound", "_screen"))
    seen = set()
    for pack_row, pack_pairs in ((1024, 8192), (16, 48)):
        monkeypatch.setattr(cauchy_mod, "_PACK_ROW", pack_row)
        monkeypatch.setattr(cauchy_mod, "_PACK_PAIRS", pack_pairs)
        for m in (2, 3, 4):
            for s in (0, 1, 2):
                for k in range(1, s + 2):
                    for size in (1, 1, 2, 5, 8):
                        rows = _random_rows(rng, s, size)
                        logv, basis, yterms = _random_tables(rng, m, s, k, kind, rows)
                        dd, g_lo, g_hi = rows[int(rng.integers(size))]
                        worst, _ = _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi)
                        delta = _table_delta(logv, basis, yterms, m)
                        assert (delta == math.inf) == (kind in ("inf", "nan"))
                        for log_eps in _eps_picks(worst):
                            calls.clear()
                            want = _batch_unscreened(logv, basis, yterms, s, m, rows, log_eps)
                            got = cauchy_mod._batch(logv, basis, yterms, s, m, rows, log_eps, math.inf)
                            seen.add(_assert_batch(got, want, (m, s, k, log_eps)))
                            assert set(calls) == {"_screen"}  # no finite bound: the exact screen alone
                            if len(calls) > 1:
                                seen.add("several packs")
                            if delta < math.inf:
                                got = cauchy_mod._batch(logv, basis, yterms, s, m, rows, log_eps, delta)
                                seen.add("one-pair blocks " + _assert_batch(got, want, (m, s, k, log_eps)))
    want = {"hit", "minimum", "several packs"}
    if kind not in ("inf", "nan"):
        want |= {"one-pair blocks hit", "one-pair blocks minimum"}
    assert want <= seen, seen


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the tables
def test_delta_is_inf_without_finite_tables(monkeypatch):
    # S inf, NaN or 2^1000 and more leaves no finite margin, and a batch
    # with that margin reaches only the exact screen, on whole rows
    assert all(cauchy_mod._delta(S, 2) == math.inf for S in (math.inf, math.nan, 2.0**1000, 1e308))
    assert cauchy_mod._delta(np.nextafter(2.0**1000, 0), 2) < math.inf
    calls = []
    _record_calls(monkeypatch, calls, ("_blocks", "_block_bound", "_screen"))
    rng = np.random.default_rng(7)
    for kind in ("inf", "nan"):
        for m in (2, 3):
            rows = _random_rows(rng, 1, 5)
            logv, basis, yterms = _random_tables(rng, m, 1, 2, kind, rows)
            delta = _table_delta(logv, basis, yterms, m)
            assert delta == math.inf
            for log_eps in (-1e300, 1e300):
                calls.clear()
                want = _batch_unscreened(logv, basis, yterms, 1, m, rows, log_eps)
                got = cauchy_mod._batch(logv, basis, yterms, 1, m, rows, log_eps, delta)
                _assert_batch(got, want, (kind, m, log_eps))
                assert calls and set(calls) == {"_screen"}


# -- the block bound: real tables, where its premises hold -----------------------


class _Lazy:
    """A table read only through ``take``, computed at the indices asked for,
    so that real tables can be read far past what fits in memory."""

    def __init__(self, at):
        self.at = at

    def take(self, idx):
        return self.at(np.asarray(idx))


_BLOCK_CASES = [(sid, wname) for sid in ("l1", "entire_cauchy") for wname in ("maclane", "const:2", "const:0.5")]


def _real_tables(sid, wname, r, lazy, top=None, hi=None):
    """log v_n and log ||e_n||_r as the pair scan reads them: whole arrays up
    to ``top`` and ``hi``, or lazy tables."""
    w, sp = WeightSpec.parse(wname), space(sid)
    if lazy:
        return _Lazy(w.v_log), _Lazy(lambda n: basis_log_array(sp, r, n))
    return w.v_log_array(top), basis_log_array(sp, r, np.arange(hi + 1))


def _real_S(logv, basis, yterms, top, hi):
    """S for these monotone tables: the largest modulus sits at an end."""
    ends = [*logv.take([0, top]), *basis.take([0, hi])]
    return max(1.0, *map(abs, yterms.values()), *map(abs, ends))


def _real_rows(rng, s, count, d_max):
    """``count`` distinct anti-diagonals among the 200 below ``d_max``, of at
    most 1,500 pairs each: N lies close to d_max / 2, as in deep rounds."""
    N = max(1, d_max // 2 - int(rng.integers(s + 110, 1500)))
    dds = sorted(int(dd) for dd in rng.choice(np.arange(d_max - 200, d_max), count, replace=False))
    return [(dd, max(N + 2 * s + 1, (dd + 2 * s + 2) // 2), dd - N) for dd in dds]


def _real_yterms(rng, s, k, m):
    support = sorted([s, *rng.choice(s, k - 1, replace=False).tolist()])
    return {j: float(rng.uniform(-8.0, 8.0)) - math.log(m) for j in support}


def test_block_bound_never_exceeds_lower():
    # beta - delta against the computed lower at every pair of its block, on
    # real maclane and const tables, l1 and entire_cauchy bases, indices from
    # a few hundred up to 2^26, blocks of _BLOCK pairs, shorter ends and one
    # pair
    rng = np.random.default_rng(26)
    seen = set()
    for sid, wname in _BLOCK_CASES:
        r = int(rng.integers(1, 4))
        logv, basis = _real_tables(sid, wname, r, lazy=True)
        for m in (2, 3, 4):
            for s in (0, 1, 2):
                for k in range(1, s + 2):
                    for d_max in (600, 5000, 2**26 // m):
                        rows = _real_rows(rng, s, 2, d_max)
                        yterms = _real_yterms(rng, s, k, m)
                        dd, g1, g2 = cauchy_mod._blocks(rows)
                        ones = rng.integers(g1, g2 + 1)  # a one-pair block inside each
                        dd, g1, g2 = np.concatenate([dd, dd]), np.concatenate([g1, ones]), np.concatenate([g2, ones])
                        top, hi = m * int(g2.max()), int(dd.max()) + s
                        S = _real_S(logv, basis, yterms, top, hi)
                        beta = cauchy_mod._block_bound(logv, basis, yterms, s, m, dd, g1, g2, cauchy_mod._delta(S, m))
                        eta, gamma = cauchy_mod._all_pairs(dd, g1, g2)
                        lower = cauchy_mod._lower(*cauchy_mod._gather(logv, basis, s, m, eta, gamma), yterms, m)[4]
                        low_min = np.minimum.reduceat(lower, np.cumsum(g2 - g1 + 1) - (g2 - g1 + 1))
                        assert np.all(beta <= low_min), (sid, wname, m, s, d_max, float(np.max(beta - low_min)))
                        slack = low_min - beta
                        if np.any(slack[: len(slack) // 2] < 1.0):
                            seen.add(f"tight block m={m}")
                        if np.any(slack[len(slack) // 2 :] < 1e-6 * np.abs(low_min[len(slack) // 2 :]) + 1e-9):
                            seen.add(f"tight pair {'deep' if d_max > 5000 else 'shallow'}")
                        if np.any(slack > 50.0):
                            seen.add("clears")
    want = {f"tight block m={m}" for m in (2, 3, 4)} | {"tight pair deep", "tight pair shallow", "clears"}
    assert want <= seen, want - seen


@pytest.mark.parametrize("block", [1, 4, 16, 256])
def test_block_batch_matches_the_unscreened_rows(block, monkeypatch):
    # _batch with the block bound on real tables against the unscreened rows:
    # the first passing pair with its log b bits, or the batch minimum; one
    # log eps is the smallest max(C1, C3) on the block with the smallest
    # bound, so that no pair of that block passes, while one of an earlier
    # block may
    monkeypatch.setattr(cauchy_mod, "_BLOCK", block)
    screened = []
    real_screen = cauchy_mod._screen

    def screen(*args):
        screened.append(np.size(args[5]))  # log ||e_gamma||_r, one entry per pair
        return real_screen(*args)

    monkeypatch.setattr(cauchy_mod, "_screen", screen)
    rng = np.random.default_rng(block)
    seen = set()
    for sid, wname in _BLOCK_CASES:
        r = int(rng.integers(1, 4))
        for m in (2, 3, 4):
            for s in (0, 1, 2):
                for k in range(1, s + 2):
                    for size in (1, 3, 8):
                        rows = _real_rows(rng, s, size, int(rng.integers(300, 3000)))
                        top, hi = m * rows[-1][2], rows[-1][0] + s
                        logv, basis = _real_tables(sid, wname, r, False, top, hi)
                        yterms = _real_yterms(rng, s, k, m)
                        delta = cauchy_mod._delta(_real_S(logv, basis, yterms, top, hi), m)
                        dd, g_lo, g_hi = rows[int(rng.integers(size))]
                        worst, _ = _diagonal_unscreened(logv, basis, yterms, s, m, dd, g_lo, g_hi)
                        blocks = cauchy_mod._blocks(rows)
                        i = int(cauchy_mod._block_bound(logv, basis, yterms, s, m, *blocks, delta).argmin())
                        tightest = [int(x[i]) for x in blocks]
                        in_tightest = float(_diagonal_unscreened(logv, basis, yterms, s, m, *tightest)[0].min())
                        for log_eps in [*_eps_picks(worst), in_tightest]:
                            screened.clear()
                            want = _batch_unscreened(logv, basis, yterms, s, m, rows, log_eps)
                            got = cauchy_mod._batch(logv, basis, yterms, s, m, rows, log_eps, delta)
                            seen.add(_assert_batch(got, want, (sid, wname, m, s, k, log_eps)))
                            if sum(screened) < cauchy_mod._size(rows) // 2:
                                seen.add("blocks cleared")
                            if log_eps == in_tightest and want[0] is not None:
                                eta, gamma, _ = want[0]
                                if (eta + gamma, gamma) < (tightest[0], tightest[1]):
                                    seen.add("hit before the tightest block")
    assert seen == {"hit", "minimum", "blocks cleared", "hit before the tightest block"}, seen


def test_zero_tables_stay_unwritten():
    # the l1 basis table grows as a view of one zero; any other table, or a
    # NaN, is written out
    table, S = np.empty(0), 1.0
    for n in (5, 7):
        table, S = cauchy_mod._extend(table, S, basis_log_array(L1, 2, np.arange(len(table), len(table) + n)))
        assert table.strides == (0,) and len(table) == 12 - 7 * (n == 5) and S == 1.0
    grown, S = cauchy_mod._extend(table, S, np.array([0.0, -3.0]))
    assert grown.strides == (8,) and grown.tolist() == [0.0] * 12 + [0.0, -3.0] and S == 3.0
    grown, S = cauchy_mod._extend(table, 1.0, np.array([np.nan]))
    assert np.isnan(S) and len(grown) == 13

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every bound is asserted at its stated tolerance.
"""
import random
import time
from contextlib import contextmanager

import pytest

from hyperforge import (
    AlgebraElement,
    Bundle,
    CauchyState,
    CoordState,
    LambdaMatrix,
    PkWitness,
    WeightSpec,
    WideComplex,
    backward_iterate,
    build_algebrable,
    build_algebrable_cauchy,
    build_generator,
    build_generator_cauchy,
    cauchy_power,
    cauchy_product,
    check_mixing,
    coordinatewise_product,
    expansion_oracle,
    find_pk_witness,
    leading_form_column,
    nonfinite_generation_witness,
    orbit_element_report,
    orbit_power_report,
    property_a_witness,
    property_b_witness,
    revalidate_bundle,
    root_power_block,
    seminorm_eval,
    solve_building_block,
    space,
    zero_product_report,
)
from hyperforge.core import log_decode
from hyperforge.errors import PropertyBUnavailable, SearchExhausted

from conftest import (
    dicts_close,
    from_dict,
    naive_power,
    rand_seq,
    standard_targets,
    to_dict,
)

_shared: dict = {}


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def _exercised_degrees(bundle) -> set[int]:
    return {rd.m for rd in bundle.rounds}


def test_criterion_1_geometric_weight_single_generator():
    with criterion(1, "l1 / const:2 single generator, R=12"):
        t0 = time.perf_counter()
        st = CoordState(space("l1"), WeightSpec.parse("const:2"), standard_targets())
        bundle = build_generator(st, 12)
        assert bundle.passed
        for rd in bundle.rounds:
            assert rd.checks["A1"].passed
            if rd.r >= 2:
                assert rd.checks["A2"].passed and rd.checks["A3"].passed
        for j in sorted(_exercised_degrees(bundle)):
            rep = orbit_power_report(bundle, j)
            assert rep.rounds and rep.passed
            assert rep.max_ratio <= 1.0
            for rc in rep.rounds:
                assert rc.bound == 2.0 ** (-rc.round)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        _shared["bundle1"] = bundle


def test_criterion_2_factorial_weight_single_generator():
    with criterion(2, "entire_hadamard / maclane single generator, R=10"):
        t0 = time.perf_counter()
        st = CoordState(space("entire_hadamard"), WeightSpec.parse("maclane"), standard_targets())
        bundle = build_generator(st, 10)
        assert bundle.passed
        for rd in bundle.rounds:
            assert rd.checks["A1"].passed
            if rd.r >= 2:
                assert rd.checks["A2"].passed and rd.checks["A3"].passed
        for j in sorted(_exercised_degrees(bundle)):
            rep = orbit_power_report(bundle, j)
            assert rep.rounds and rep.passed and rep.max_ratio <= 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_three_disjoint_generators():
    with criterion(3, "l1 / const:2 three generators, zero products and element orbit"):
        st = CoordState(space("l1"), WeightSpec.parse("const:2"), standard_targets(), K=3)
        bundle = build_algebrable(st, 12)
        assert bundle.passed
        zp = zero_product_report(bundle)
        assert zp.passed and len(zp.pairs) == 3
        z = AlgebraElement({(2, 0, 0): 1.0, (3, 0, 0): 0.3}, 3)
        rep = orbit_element_report(bundle, z)
        assert rep.rounds and rep.passed
        for rc in rep.rounds:
            assert rc.bound == pytest.approx((0.3 + 2.0) * 2.0 ** (-rc.round))
        _shared["bundle3"] = bundle


def test_criterion_4_building_block_solver():
    with criterion(4, "building blocks on entire_cauchy / maclane, m in {1,2,3}"):
        ec = space("entire_cauchy")
        mac = WeightSpec.parse("maclane")
        mix = check_mixing(ec, mac)
        pb = property_b_witness(ec, n_max=200)
        y = from_dict({0: 1, 1: 1})
        for m in (1, 2, 3):
            t0 = time.perf_counter()
            res = solve_building_block(ec, mac, y, m, 1, 0, 0.5, mixing=mix, prop_b=pb)
            assert res.passed
            assert res.checks["C2_residual"].value <= 1e-12
            assert res.checks["C1"].passed and res.checks["C3"].passed
            if m == 1:
                expected = (mac.v(0) * y.coef(0)) / (
                    WideComplex.from_complex(1.0) * mac.v(res.eta)
                )
                assert res.c[0] == expected
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"m={m} took {elapsed:.1f}s"


def test_criterion_5_convolution_generators():
    with criterion(5, "convolution generators, R=8, l1/const:2 and entire_cauchy/maclane"):
        for sid, wspec in (("l1", "const:2"), ("entire_cauchy", "maclane")):
            sp = space(sid)
            st = CauchyState(sp, WeightSpec.parse(wspec), standard_targets())
            bundle = build_generator_cauchy(st, 8)
            assert bundle.passed
            for rd in bundle.rounds:
                for key in ("D1", "D2", "D3", "D4", "separation"):
                    assert rd.checks[key].passed, (sid, rd.r, key)
            for prev, cur in zip(bundle.rounds, bundle.rounds[1:]):
                assert prev.a <= prev.m * prev.gamma < cur.eta
            for j in sorted(_exercised_degrees(bundle)):
                rep = orbit_power_report(bundle, j)
                assert rep.passed
                for rc in rep.rounds:
                    if rc.kind == "target":
                        assert rc.bound == 2.0 ** (-rc.round + 1)
                    else:
                        assert rc.bound == 2.0 ** (-rc.round)
            if sid == "l1":
                _shared["bundle5"] = bundle


def test_criterion_6_lambda_matrix_generators():
    with criterion(6, "lambda-matrix generators K=2, R=8 on l1/const:2"):
        st = CauchyState(
            space("l1"), WeightSpec.parse("const:2"), standard_targets(),
            algebrable=True, K=2,
        )
        bundle = build_algebrable_cauchy(st, 8)
        assert bundle.passed
        z = AlgebraElement({(1, 1): 1.0, (1, 0): 1.0}, 2)
        lam = LambdaMatrix.from_json(bundle.lambda_params)
        nu, rho = leading_form_column(z.top_form(), lam)
        assert abs(rho) > 1e-6
        rep = orbit_element_report(bundle, z)
        live = [rc for rc in rep.rounds if not rc.skipped]
        assert live and rep.passed
        wit = nonfinite_generation_witness(bundle)
        assert wit["summary"]["pass"] and wit["summary"]["rounds_checked"] >= 1
        _shared["bundle6"] = bundle


def test_criterion_7_oracle_suites():
    with criterion(7, "randomized algebra/oracle suites, 1000 cases per law"):
        t0 = time.perf_counter()
        rng = random.Random(2026)
        space_ids = ["l_p:1", "l_p:2", "c0", "l1", "entire_hadamard", "entire_cauchy",
                     "omega_coord", "omega_cauchy"]
        # submultiplicativity of every declared product, 1000 pairs per space
        for sid in space_ids:
            sp = space(sid)
            prod = cauchy_product if sp.product == "cauchy" else coordinatewise_product
            for _ in range(1000):
                x, y = rand_seq(rng), rand_seq(rng)
                q = rng.randint(1, 5)
                nxy = log_decode(seminorm_eval(sp, q, prod(x, y)))
                nx = log_decode(seminorm_eval(sp, q, x))
                ny = log_decode(seminorm_eval(sp, q, y))
                assert nxy <= nx * ny * (1 + 1e-10)
        # convolution algebra laws on 1000 random pairs/triples
        for _ in range(1000):
            x, y = rand_seq(rng), rand_seq(rng)
            assert cauchy_product(x, y).rel_distance(cauchy_product(y, x)) <= 1e-10
        for _ in range(1000):
            x, y, z = rand_seq(rng, 5, 12), rand_seq(rng, 5, 12), rand_seq(rng, 5, 12)
            left = cauchy_product(cauchy_product(x, y), z)
            right = cauchy_product(x, cauchy_product(y, z))
            assert left.rel_distance(right) <= 1e-10
        # powers against the plain-complex convolution oracle
        for _ in range(200):
            x = rand_seq(rng, 8, 10)
            m = rng.randint(0, 6)
            assert dicts_close(to_dict(cauchy_power(x, m)), naive_power(to_dict(x), m))
        # expansion oracle agreement on the lambda bundle
        bundle = _shared["bundle6"]
        for _ in range(5):
            coeffs = {}
            while not coeffs:
                for _ in range(3):
                    beta = (rng.randint(0, 2), rng.randint(0, 1))
                    if 1 <= sum(beta) <= 3:
                        coeffs[beta] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            rep = expansion_oracle(bundle, AlgebraElement(coeffs, 2))
            assert rep.agree
        # inverse shift round trips
        for wspec in ("const:2", "maclane", "const:0.5+0.5i"):
            w = WeightSpec.parse(wspec)
            for _ in range(1000):
                x = rand_seq(rng)
                a = rng.randint(0, 25)
                back = backward_iterate(w, root_power_block(w, x, a, 1), a)
                assert back.rel_distance(x) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_8_criteria_suite():
    with criterion(8, "hypothesis witnesses across the built-in spaces"):
        assert property_a_witness(space("l_p:2")).entries[3] == (3, 1.0)
        assert property_a_witness(space("l_p:1")).entries[2] == (2, 1.0)
        assert property_a_witness(space("c0")).entries[4] == (4, 1.0)
        assert property_a_witness(space("entire_hadamard")).entries[2] == (4, 1.0)
        assert property_a_witness(space("omega_coord")).entries[3] == (3, 1.0)

        wb1 = property_b_witness(space("l1"))
        assert wb1.cond_i_q == 1 and wb1.cond_ii[3] == (1, 1.0)
        assert wb1.cond_iii[(4, 16, 5, 5)] == (1, 1, 1.0)
        wb2 = property_b_witness(space("entire_cauchy"))
        assert wb2.cond_ii[3] == (3, 1.0)
        assert wb2.cond_iii[(2, 3, 2, 5)] == (5, 2, 125.0)
        with pytest.raises(PropertyBUnavailable, match="does not satisfy condition \\(i\\)"):
            property_b_witness(space("omega_cauchy"))

        w2, mac = WeightSpec.parse("const:2"), WeightSpec.parse("maclane")
        for sp, w in ((space("l1"), w2), (space("entire_hadamard"), mac)):
            pk = find_pk_witness(sp, w, 16, horizon_n=500, growth=True)
            assert PkWitness.from_json(pk.to_json(), sp, w).count == 16
        for sp, w in ((space("l1"), w2), (space("entire_cauchy"), mac)):
            cert = check_mixing(sp, w, horizon_n=500)
            assert cert.passed


def test_criterion_9_negative_controls():
    with criterion(9, "contracting weight rejected; perturbed blocks caught"):
        with pytest.raises(SearchExhausted):
            find_pk_witness(space("l1"), WeightSpec.parse("const:0.5"), 3, horizon_n=5)

        bundle = _shared["bundle1"]
        for idx in range(bundle.R):
            corrupt = Bundle.from_json(bundle.to_json())
            rd = corrupt.rounds[idx]
            rd.block = rd.block.scale(WideComplex.from_complex(2.0))
            reval = revalidate_bundle(corrupt)
            rep = orbit_power_report(corrupt, rd.m)
            assert (not reval.passed) or (not rep.passed), f"round {idx + 1} undetected"

        cb = _shared["bundle5"]
        for idx in range(cb.R):
            corrupt = Bundle.from_json(cb.to_json())
            rd = corrupt.rounds[idx]
            rd.block = rd.block.scale(WideComplex.from_complex(2.0))
            assert not revalidate_bundle(corrupt).passed, f"round {idx + 1} undetected"

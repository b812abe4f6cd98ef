import hashlib
import json
import random

import pytest

from hyperforge import (
    AlgebraElement,
    Bundle,
    CauchyState,
    CoordState,
    FiniteSeq,
    WeightSpec,
    WideComplex,
    build_algebrable,
    build_algebrable_cauchy,
    build_generator,
    build_generator_cauchy,
    expansion_oracle,
    nonfinite_generation_witness,
    orbit_element_report,
    orbit_power_report,
    revalidate_bundle,
    space,
    zero_product_report,
)
from hyperforge.bundle import _digest, canonical_json
from hyperforge.cauchy import block_checks, enumerate_multi_indices, multinomial, round_checks
from hyperforge.coordwise import coord_checks
from hyperforge.errors import BundleError, ElementError
from hyperforge.parser import parse_element
from hyperforge.schedule import LambdaMatrix
from hyperforge.verify import _block_coefficients

from conftest import PHASED_TARGETS_JSON, standard_targets

L1 = space("l1")
W2 = WeightSpec.parse("const:2")


@pytest.fixture(scope="module")
def coord_bundle():
    return build_generator(CoordState(L1, W2, standard_targets()), 12)


@pytest.fixture(scope="module")
def coord_k3():
    return build_algebrable(CoordState(L1, W2, standard_targets(), K=3), 12)


@pytest.fixture(scope="module")
def cauchy_bundle():
    return build_generator_cauchy(CauchyState(L1, W2, standard_targets()), 8)


@pytest.fixture(scope="module")
def lambda_bundle():
    st = CauchyState(L1, W2, standard_targets(), algebrable=True, K=2)
    return build_algebrable_cauchy(st, 8)


class TestPowerReports:
    def test_coordinatewise_rounds_meet_their_bounds(self, coord_bundle):
        for j in (1, 2, 3, 4):
            rep = orbit_power_report(coord_bundle, j)
            assert rep.passed and rep.rounds
            assert rep.max_ratio <= 1.0
            for rc in rep.rounds:
                assert rc.bound == 2.0 ** (-rc.round) and rc.kind == "target"

    def test_unexercised_degree_gives_empty_report(self, coord_bundle):
        rep = orbit_power_report(coord_bundle, 9)
        assert not rep.rounds and rep.passed and rep.notes

    def test_cauchy_rounds_include_zero_targets(self, cauchy_bundle):
        rep = orbit_power_report(cauchy_bundle, 1)
        kinds = {rc.kind for rc in rep.rounds}
        assert kinds == {"target", "zero"}
        assert rep.passed
        for rc in rep.rounds:
            expect = 2.0 ** (-rc.round + 1) if rc.kind == "target" else 2.0 ** (-rc.round)
            assert rc.bound == expect

    def test_report_is_reproducible(self, coord_bundle):
        a = orbit_power_report(coord_bundle, 2).to_json()
        b = orbit_power_report(Bundle.from_json(coord_bundle.to_json()), 2).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestElementReports:
    def test_single_generator_power_equivalence(self, coord_bundle):
        z = AlgebraElement({(1,): 1.0}, 1)
        a = orbit_element_report(coord_bundle, z)
        b = orbit_power_report(coord_bundle, 1)
        assert [rc.round for rc in a.rounds] == [rc.round for rc in b.rounds]
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.distance == pytest.approx(rb.distance, rel=1e-12, abs=1e-300)

    def test_coordinatewise_bound_factor(self, coord_bundle):
        z = AlgebraElement({(2,): 1.0, (3,): 0.3}, 1)
        rep = orbit_element_report(coord_bundle, z)
        assert rep.passed and rep.rounds
        for rc in rep.rounds:
            assert rc.bound == pytest.approx((0.3 + 2.0) * 2.0 ** (-rc.round))

    def test_lowest_degree_is_normalized(self, coord_bundle):
        z = AlgebraElement({(2,): 4.0, (3,): 1.2}, 1)  # same element scaled by 4
        rep = orbit_element_report(coord_bundle, z)
        base = orbit_element_report(coord_bundle, AlgebraElement({(2,): 1.0, (3,): 0.3}, 1))
        for ra, rb in zip(rep.rounds, base.rounds):
            assert ra.distance == pytest.approx(rb.distance, rel=1e-12)

    def test_cross_terms_short_circuit(self, coord_k3):
        z = AlgebraElement({(1, 1, 0): 1.0}, 3)
        rep = orbit_element_report(coord_k3, z)
        assert not rep.rounds
        assert any("degenerate" in n for n in rep.notes)

    def test_partitioned_element_tracks_its_class(self, coord_k3):
        z = AlgebraElement({(2, 0, 0): 1.0, (3, 0, 0): 0.3}, 3)
        rep = orbit_element_report(coord_k3, z)
        assert rep.passed and rep.rounds
        sched = coord_k3.schedule()
        for rc in rep.rounds:
            assert sched.class_of(rc.target) == 1

    def test_cauchy_single_top_degree_bound(self, cauchy_bundle):
        z = AlgebraElement({(2,): 1.0, (1,): 0.5}, 1)
        rep = orbit_element_report(cauchy_bundle, z)
        assert rep.passed and rep.rounds
        for rc in rep.rounds:
            assert rc.bound == pytest.approx((0.5 + 2.0) * 2.0 ** (-rc.round))

    def test_lambda_element_bound_includes_tail(self, lambda_bundle):
        from hyperforge import tail_bound

        z = AlgebraElement({(1, 1): 1.0, (1, 0): 1.0}, 2)
        rep = orbit_element_report(lambda_bundle, z)
        live = [rc for rc in rep.rounds if not rc.skipped]
        assert rep.passed and live
        for rc in live:
            c = [2.0 ** 2 * 1.0, 3.0 ** 2 * 1.0]
            rd = lambda_bundle.round(rc.round)
            rho = rd.lambda_column[0] * rd.lambda_column[1]
            expect = abs(rho) * 2.0 ** (-rc.round) + tail_bound(2, c, rc.round)
            assert rc.bound == pytest.approx(expect, rel=1e-12)

    def test_too_many_generators_rejected(self, coord_bundle):
        with pytest.raises(ElementError):
            orbit_element_report(coord_bundle, AlgebraElement({(0, 1): 1.0}, 2))


class TestExpansionOracle:
    def test_square_of_two_round_truncation(self, cauchy_bundle):
        rep = expansion_oracle(cauchy_bundle, AlgebraElement({(2,): 1.0}, 1))
        assert rep.agree and rep.max_rel_err <= 1e-10

    def test_random_elements_agree(self, lambda_bundle):
        rng = random.Random(59)
        for _ in range(5):
            coeffs = {}
            for _ in range(rng.randint(1, 4)):
                beta = (rng.randint(0, 2), rng.randint(0, 2))
                if sum(beta) == 0 or sum(beta) > 3:
                    continue
                coeffs[beta] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if not coeffs:
                continue
            rep = expansion_oracle(lambda_bundle, AlgebraElement(coeffs, 2))
            assert rep.agree, rep.max_rel_err

    def test_top_block_coefficient_equals_leading_form(self, lambda_bundle):
        z = AlgebraElement({(1, 1): 1.0, (1, 0): 1.0}, 2)
        rep = expansion_oracle(lambda_bundle, z)
        for rd in lambda_bundle.rounds:
            if rd.m != 2:
                continue
            rho = rd.lambda_column[0] * rd.lambda_column[1]
            top = (0,) * (rd.r - 1) + (2,)
            assert rep.d_alpha.get(top, 0j) == pytest.approx(rho)

    def test_degree_cap_flags_partial(self, lambda_bundle):
        z = AlgebraElement({(1, 1): 1.0, (1, 0): 1.0}, 2)
        rep = expansion_oracle(lambda_bundle, z, degree_cap=1)
        assert rep.partial and rep.agree

    def test_coordinatewise_rejected(self, coord_bundle):
        with pytest.raises(BundleError):
            expansion_oracle(coord_bundle, AlgebraElement({(1,): 1.0}, 1))

    def test_each_power_and_product_is_built_once(self, monkeypatch, lambda_bundle):
        # the generators and the blocks each get one monomial batch, which
        # forms every power of a sequence and every partial product once:
        # the convolutions make exactly one item per distinct chain of
        # factors (i, e) of two or more factors, or of one with e >= 2
        import hyperforge.core as core_mod
        import hyperforge.verify as verify_mod

        real_monomials, real_convolve = core_mod.cauchy_monomials, core_mod.convolve
        batches, formed = [], []

        def counted_monomials(seqs, alphas):
            batches.append((seqs, list(alphas)))
            return real_monomials(seqs, alphas)

        def counted_convolve(xs, ys):
            formed.append(len(xs.count))
            return real_convolve(xs, ys)

        monkeypatch.setattr(core_mod, "convolve", counted_convolve)
        monkeypatch.setattr(verify_mod, "cauchy_monomials", counted_monomials)
        z = AlgebraElement({(1, 1): 1.0, (1, 0): 1.0, (0, 3): 0.5, (2, 1): -0.25}, 2)
        rep = expansion_oracle(lambda_bundle, z)
        assert rep.agree
        (gens, gen_alphas), (blocks, block_alphas) = batches
        assert gen_alphas == list(z.coeffs) and block_alphas == list(rep.d_alpha)
        assert blocks == [rd.block for rd in lambda_bundle.rounds]
        chains = set()
        for alphas in (gen_alphas, block_alphas):
            for alpha in alphas:
                factors = tuple((i, e) for i, e in enumerate(alpha) if e)
                chains |= {(id(alphas), ((i, k),)) for i, e in factors for k in range(2, e + 1)}
                chains |= {(id(alphas), factors[:j]) for j in range(2, len(factors) + 1)}
        assert sum(formed) == len(chains)


# the composition recursion the expansion oracle used before it multiplied out
# linear forms, kept as the reference for its block coefficients


def _d_coefficient(form: dict, alpha: tuple[int, ...], lamcols: list[tuple]) -> complex:
    """Coefficient of prod_r p_r^{alpha_r} in sum_beta c_beta prod_k (sum_r
    lambda_{k,nu_r} p_r)^{beta_k}."""
    slots = [i for i, e in enumerate(alpha, start=1) if e > 0]
    need = {i: alpha[i - 1] for i in slots}
    total = 0j
    for beta, c in form.items():
        ks = [k for k, e in enumerate(beta, start=1) if e > 0]

        def rec(ki: int, remaining: dict) -> complex:
            if ki == len(ks):
                return 1.0 + 0j if all(v == 0 for v in remaining.values()) else 0j
            k = ks[ki]
            bk = beta[k - 1]
            out = 0j
            for comp in _compositions(bk, slots):
                if any(comp[i] > remaining[i] for i in slots):
                    continue
                coef = multinomial(bk, tuple(comp[i] for i in slots))
                lam_term = 1.0 + 0j
                ok = True
                for i in slots:
                    if comp[i]:
                        lam_k = lamcols[i - 1][k - 1] if k - 1 < len(lamcols[i - 1]) else 0j
                        if lam_k == 0:
                            ok = False
                            break
                        lam_term *= lam_k ** comp[i]
                if not ok:
                    continue
                rest = {i: remaining[i] - comp[i] for i in slots}
                out += coef * lam_term * rec(ki + 1, rest)
            return out

        total += c * rec(0, dict(need))
    return total


def _compositions(total: int, slots: list[int]) -> list[dict[int, int]]:
    out: list[dict[int, int]] = []

    def rec(idx: int, left: int, acc: dict[int, int]):
        if idx == len(slots) - 1:
            acc2 = dict(acc)
            acc2[slots[idx]] = left
            out.append(acc2)
            return
        for v in range(left + 1):
            acc[slots[idx]] = v
            rec(idx + 1, left - v, acc)
        del acc[slots[idx]]

    if not slots:
        return [{}] if total == 0 else []
    rec(0, total, {})
    return out


def _reference_block_coefficients(z: AlgebraElement, lamcols: list[tuple]) -> dict:
    d_alpha = {}
    for mu in range(1, z.degree_max + 1):
        form = {b: c for b, c in z.coeffs.items() if sum(b) == mu}
        if not form:
            continue
        for t in range(1, len(lamcols) + 1):
            for alpha in enumerate_multi_indices(mu, t):
                d = _d_coefficient(form, alpha, lamcols)
                if d != 0:
                    d_alpha[alpha] = d
    return d_alpha


def _random_case(rng, entries):
    """A random element of K <= 3 generators and degree <= 4, and R <= 8
    lambda columns over ``entries``, some shorter than K."""
    K = rng.randint(1, 3)
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        beta = [0] * K
        for _ in range(rng.randint(1, 4)):
            beta[rng.randrange(K)] += 1
        coeffs[tuple(beta)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    lamcols = [tuple(rng.choice(entries) for _ in range(rng.randint(max(0, K - 1), K)))
               for _ in range(rng.randint(1, 8))]
    return AlgebraElement(coeffs, K), lamcols


def _bits(d_alpha: dict) -> list:
    return [(alpha, d.real.hex(), d.imag.hex()) for alpha, d in d_alpha.items()]


class TestBlockCoefficients:
    # every value of the denominator <= 2 grid, 0 included
    DYADIC = LambdaMatrix(1, 2).values

    def test_dyadic_lambdas_match_the_reference_bit_for_bit(self):
        assert 0j in self.DYADIC and 0.5j in self.DYADIC
        rng = random.Random(25)
        zeros = short = 0
        for _ in range(150):
            z, lamcols = _random_case(rng, self.DYADIC)
            zeros += any(0j in col for col in lamcols)
            short += any(len(col) < z.num_generators for col in lamcols)
            assert _bits(_block_coefficients(z, lamcols)) == _bits(_reference_block_coefficients(z, lamcols))
        assert zeros and short

    def test_single_generator_bundles_match_the_reference_bit_for_bit(self, cauchy_bundle):
        lamcols = [(1.0 + 0j,)] * cauchy_bundle.R
        z = AlgebraElement({(4,): 0.3 - 1.1j, (3,): 1.0, (1,): -2.5}, 1)
        got = _block_coefficients(z, lamcols)
        assert _bits(got) == _bits(_reference_block_coefficients(z, lamcols))
        assert got == expansion_oracle(cauchy_bundle, z).d_alpha

    def test_arbitrary_lambdas_match_the_reference_within_rounding(self):
        # entries such as 1/3 or 0.1 + 0.7i make inexact products, which the
        # two orders group differently: each d_alpha agrees to 1e-14 of the
        # sum of the absolute values of its terms
        entries = [1 / 3, -2 / 3j, 0.1 + 0.7j, -0.45 + 0.2j, 0.9, 0j]
        rng = random.Random(26)
        for _ in range(100):
            z, lamcols = _random_case(rng, entries)
            got = _block_coefficients(z, lamcols)
            want = _reference_block_coefficients(z, lamcols)
            scale = _block_coefficients(AlgebraElement({b: abs(c) for b, c in z.coeffs.items()}, z.num_generators),
                                        [tuple(abs(lam) for lam in col) for col in lamcols])
            assert list(got) == [alpha for alpha in want if alpha in got]
            for alpha in set(got) | set(want):
                assert abs(got.get(alpha, 0j) - want.get(alpha, 0j)) <= 1e-14 * scale[alpha].real


class TestZeroProducts:
    def test_three_generators_three_exact_zero_pairs(self, coord_k3):
        rep = zero_product_report(coord_k3)
        assert rep.passed and len(rep.pairs) == 3

    def test_single_generator_vacuous(self, coord_bundle):
        rep = zero_product_report(coord_bundle)
        assert rep.passed and rep.pairs == []

    def test_overlap_injection_is_caught(self, coord_k3):
        data = coord_k3.to_json()
        corrupt = Bundle.from_json(data)
        # move one block of generator 2 onto a window of generator 1
        sched = corrupt.schedule()
        r1 = next(rd for rd in corrupt.rounds if sched.class_of(rd.l) == 1)
        r2 = next(rd for rd in corrupt.rounds if sched.class_of(rd.l) == 2)
        r2.block = FiniteSeq({r1.block.min_index: WideComplex.one()})
        rep = zero_product_report(corrupt)
        assert not rep.passed
        bad = next(p for p in rep.pairs if not p["pass"])
        assert bad["witness_index"] == r1.block.min_index

    def test_cauchy_rejected(self, cauchy_bundle):
        with pytest.raises(BundleError):
            zero_product_report(cauchy_bundle)


class TestRevalidation:
    def test_clean_bundles_revalidate(self, coord_bundle, coord_k3, cauchy_bundle, lambda_bundle):
        for b in (coord_bundle, coord_k3, cauchy_bundle, lambda_bundle):
            rep = revalidate_bundle(Bundle.from_json(b.to_json()))
            assert rep.passed

    @pytest.mark.parametrize("round_index", [0, 3, 7, 11])
    def test_doubling_any_coordinatewise_block_fails(self, coord_bundle, round_index):
        corrupt = Bundle.from_json(coord_bundle.to_json())
        rd = corrupt.rounds[round_index]
        rd.block = rd.block.scale(WideComplex.from_complex(2.0))
        rep = revalidate_bundle(corrupt)
        power_rep = orbit_power_report(corrupt, rd.m)
        assert (not rep.passed) or (not power_rep.passed)
        assert not rep.passed  # block consistency alone must flag it

    @pytest.mark.parametrize("round_index", [0, 2, 5])
    def test_doubling_any_cauchy_block_fails(self, cauchy_bundle, round_index):
        corrupt = Bundle.from_json(cauchy_bundle.to_json())
        rd = corrupt.rounds[round_index]
        rd.block = rd.block.scale(WideComplex.from_complex(2.0))
        rep = revalidate_bundle(corrupt)
        assert not rep.passed

    def test_failing_a2_is_named_by_its_check(self, coord_bundle):
        corrupt = Bundle.from_json(coord_bundle.to_json())
        rd = corrupt.rounds[4]
        rd.block = rd.block.scale(WideComplex.from_complex(2.0 ** 20))
        rows = revalidate_bundle(corrupt).rounds
        assert [row["failed"] for row in rows] == [
            ["block_consistency", "A1_value", "A2", "A2_value"] if row["round"] == 5 else []
            for row in rows
        ]

    def test_edited_loaded_bundle_serializes_as_edited(self, coord_bundle):
        loaded = Bundle.from_json(json.loads(coord_bundle.dumps()))
        assert loaded.bundle_id == "74a7bfe76f7316e2"
        rd = loaded.rounds[4]
        rd.block = rd.block.scale(WideComplex.from_complex(2.0 ** 20))
        assert loaded.bundle_id != "74a7bfe76f7316e2" and loaded.dumps() != coord_bundle.dumps()
        assert "block_consistency" in revalidate_bundle(loaded).rounds[4]["failed"]

    @pytest.mark.parametrize("name", ["coord_bundle", "coord_k3", "cauchy_bundle", "lambda_bundle"])
    def test_shared_checks_cover_every_stored_certificate(self, name, request):
        # the builders' check functions, run on each loaded round, give back
        # exactly the stored certificate names and pass flags
        bundle = Bundle.from_json(json.loads(request.getfixturevalue(name).dumps()))
        sp, w, sched = bundle.space, bundle.weight, bundle.schedule()
        for rd in bundle.rounds:
            prefix = bundle.rounds[: rd.r - 1]
            if bundle.is_cauchy:
                y = sched.target(rd.l)
                q_part = FiniteSeq({rd.eta + j: cj for j, cj in enumerate(rd.c) if not cj.is_zero})
                fresh = block_checks(sp, w, y, rd.m, rd.eta, rd.gamma, rd.b, q_part, rd.block,
                                     rd.rho_index, rd.checks["C1"].bound_log2)
                fresh.update(round_checks(sp, w, y, prefix, rd, bundle.kind == "cauchy-algebrable"))
            else:
                fresh = coord_checks(sp, w, sched, bundle.pairing(), prefix, rd.r, rd.a, rd.block)
            assert {k: c.passed for k, c in fresh.items()} == {k: c.passed for k, c in rd.checks.items()}

    def test_perturbed_orbit_report_also_fails(self, coord_bundle):
        corrupt = Bundle.from_json(coord_bundle.to_json())
        rd = corrupt.rounds[4]
        rd.block = rd.block.scale(WideComplex.from_complex(2.0))
        rep = orbit_power_report(corrupt, rd.m)
        assert not rep.passed


class TestNonFiniteGeneration:
    def test_witness_holds(self, lambda_bundle):
        out = nonfinite_generation_witness(lambda_bundle)
        assert out["summary"]["pass"] and out["summary"]["rounds_checked"] >= 1

    def test_only_lambda_bundles(self, cauchy_bundle):
        with pytest.raises(BundleError):
            nonfinite_generation_witness(cauchy_bundle)


# -- report bytes ----------------------------------------------------------------

EC = space("entire_cauchy")
MACLANE = WeightSpec.parse("maclane")


# the four README-session builds, a Cauchy build on phased targets, some
# of whose coefficients are stored in log form because their [re, im] pair
# would not decode back to them, and the benchmark's two deep Cauchy builds,
# whose x^4 and D4/F4 revalidation are the largest the tests form
REPORT_BUNDLES = {
    "g": lambda: build_generator(CoordState(L1, W2, standard_targets()), 12),
    "g3": lambda: build_algebrable(CoordState(L1, W2, standard_targets(), K=3), 12),
    "c": lambda: build_generator_cauchy(CauchyState(EC, MACLANE, standard_targets()), 8),
    "ca": lambda: build_algebrable_cauchy(
        CauchyState(L1, W2, standard_targets(), algebrable=True, K=2), 8
    ),
    "phased": lambda: build_generator_cauchy(CauchyState(
        EC, MACLANE, [FiniteSeq.from_json(t) for t in PHASED_TARGETS_JSON]), 6),
    "deep_c": lambda: build_generator_cauchy(CauchyState(EC, MACLANE, standard_targets()), 10),
    "deep_c2": lambda: build_algebrable_cauchy(
        CauchyState(EC, MACLANE, standard_targets(), algebrable=True, K=2), 10
    ),
}

# the reports each bundle admits, besides the power reports j = 1..4 and
# the certificate revalidation
REPORT_KINDS = {
    "g": ["element:x1^2 + 0.3*x1^3", "zero-products"],
    "g3": ["element:x1^2 + 0.3*x1^3", "element:x1*x2", "zero-products"],
    "c": ["element:x1^2 + x1", "expansion:x1^2 + x1"],
    "ca": ["element:x1*x2 + x1", "expansion:x1*x2 + x1", "witness"],
    "phased": ["element:x1^2 + x1", "expansion:x1^2 + x1"],
    "deep_c": ["element:x1^3 + 0.5*x1", "expansion:x1^2 + x1"],
    "deep_c2": ["element:x1*x2 + x1"],
}


def _report_json(bundle, kind):
    name, _, arg = kind.partition(":")
    if name == "power":
        return orbit_power_report(bundle, int(arg)).to_json()
    if name == "zero-products":
        return zero_product_report(bundle).to_json()
    if name == "witness":
        return nonfinite_generation_witness(bundle)
    if name == "certificates":
        return revalidate_bundle(bundle).to_json()
    z = parse_element(arg, num_generators=bundle.K).element()
    if name == "element":
        return orbit_element_report(bundle, z).to_json()
    return expansion_oracle(bundle, z).to_json()


def _report_digests(bundle, which):
    """sha256 prefix of the canonical JSON of every report kind on ``bundle``."""
    kinds = [f"power:{j}" for j in range(1, 5)] + REPORT_KINDS[which] + ["certificates"]
    return {
        kind: hashlib.sha256(canonical_json(_report_json(bundle, kind)).encode()).hexdigest()[:16]
        for kind in kinds
    }


# any change to the numbers or the layout of a report shows here
REPORT_DIGESTS = {
    "g": {
        "power:1": "c90a199a3da50690",
        "power:2": "023142c2098501f7",
        "power:3": "f2f9436af338141b",
        "power:4": "dddcef1d6f05b0f6",
        "element:x1^2 + 0.3*x1^3": "3685202ffc5cb04c",
        "zero-products": "366f24eaff56605d",
        "certificates": "34f7050880f55e4c",
    },
    "g3": {
        "power:1": "d885a4cbe47f4b88",
        "power:2": "1e99bd78af36d83e",
        "power:3": "c83033c01cc7519e",
        "power:4": "c405d934130c4c73",
        "element:x1^2 + 0.3*x1^3": "796315ce436193dc",
        "element:x1*x2": "bcb1f0a118a87cd3",
        "zero-products": "6bfc06bef20c9c68",
        "certificates": "b7f5153fe4a36022",
    },
    "c": {
        "power:1": "4be9e2a4be28bebe",
        "power:2": "3852104951ceb6b1",
        "power:3": "3ec40a2c19272683",
        "power:4": "55d1465fb0eeebed",
        "element:x1^2 + x1": "e1a05fe5bde46d65",
        "expansion:x1^2 + x1": "1c1d3093c4d5dcd3",
        "certificates": "45d10c057bc5eecd",
    },
    "ca": {
        "power:1": "7158eaf15935a552",
        "power:2": "71e3ed11794edaab",
        "power:3": "fd819aa6de00064e",
        "power:4": "6594cd81cd9d3bf4",
        "element:x1*x2 + x1": "5995928b64c8abe5",
        "expansion:x1*x2 + x1": "b1f6637e943a04e6",
        "witness": "c36589ea8fe0b3f9",
        "certificates": "2bd58160c9852369",
    },
    "phased": {
        "power:1": "d2e018ec8ad640d8",
        "power:2": "957c3944666e034f",
        "power:3": "6c4e875e8f75c1e2",
        "power:4": "b7e4e2ab89ce9ba8",
        "element:x1^2 + x1": "ed7ecad415945b91",
        "expansion:x1^2 + x1": "fb1dfe314648b8b4",
        "certificates": "7b63556adb50d8bf",
    },
    "deep_c": {
        "power:1": "77f7f3f58c1d937d",
        "power:2": "a257b3766b24d885",
        "power:3": "9bcfa9db88bbb7b4",
        "power:4": "4351e264f3d894d6",
        "element:x1^3 + 0.5*x1": "63db0cc37b8ce421",
        "expansion:x1^2 + x1": "3d358f55326b46f1",
        "certificates": "68929d79d909814d",
    },
    "deep_c2": {
        "power:1": "c4fa816b671ee78e",
        "power:2": "a2abad2a2b154aaf",
        "power:3": "aca6db5b34347bd1",
        "power:4": "cbdc41717b4daf58",
        "element:x1*x2 + x1": "37b06975b6ea7abb",
        "certificates": "b9f4bcd10c504666",
    },
}


def _decode_a_log_form_coefficient(doc):
    """Rewrite the first block coefficient stored in log form at human scale
    as the [re, im] pair it decodes to, which does not decode back to it."""
    for rd in doc["rounds"]:
        for entry in rd["block"]["coeffs"]:
            if len(entry) == 2 and abs(entry[1]["log_mag"]) <= 300:
                z = WideComplex.from_json(entry[1]).to_complex()
                entry[1:] = [z.real, z.imag]
                return
    raise AssertionError("no block coefficient is stored in log form")


@pytest.mark.parametrize("edit", [
    _decode_a_log_form_coefficient,
    lambda doc: doc["rounds"][0]["checks"]["C1"].pop("op"),
], ids=["decoded_pair", "op_removed"])
def test_non_canonical_document_is_bundle_invalid(edit):
    # each edited document loads as a bundle whose encoding is not the document
    doc = json.loads(REPORT_BUNDLES["phased"]().dumps())
    edit(doc)
    doc.pop("bundle_id")
    doc["bundle_id"] = _digest(doc)
    with pytest.raises(BundleError, match="canonical"):
        Bundle.from_json(doc)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("which", list(REPORT_BUNDLES))
def test_report_bytes_are_pinned(which, loaded, tmp_path):
    bundle = REPORT_BUNDLES[which]()
    if loaded:
        bundle.save(str(tmp_path / "b.json"))
        bundle = Bundle.load(str(tmp_path / "b.json"))
    assert _report_digests(bundle, which) == REPORT_DIGESTS[which]

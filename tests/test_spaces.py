import math
import random

import numpy as np
import pytest

from hyperforge import FiniteSeq, seminorm_eval, space
from hyperforge.core import WideComplex, cauchy_product, coordinatewise_product, log_decode
from hyperforge.errors import SpaceProductError, SpaceUnknownError
from hyperforge.spaces import SpaceSpec, basis_log_array, list_spaces

from conftest import from_dict, rand_seq

CIRCLE_SAMPLES = 256


def circle_max_log(x, q):
    """log max |p(z)| over CIRCLE_SAMPLES equispaced points of |z| = q, for
    p(z) = sum x_n z^n: attained values, so a lower bound of the sup-circle
    norm."""
    lq = math.log(q)
    lower = -math.inf
    if not x.is_zero:
        terms = list(x.items())
        for k in range(CIRCLE_SAMPLES):
            theta = 2.0 * math.pi * k / CIRCLE_SAMPLES
            val = WideComplex.sum_of(
                WideComplex(c.log_mag + n * lq, c.phase + n * theta) for n, c in terms
            )
            lower = max(lower, val.log_mag)
    return lower


def reference_seminorm(space_, q, x):
    """||x||_q written out per family in plain floats (entire_cauchy: the
    bound sum |x_n| q^n)."""
    mags = {n: math.exp(c.log_mag) for n, c in x.items()}
    sid = space_.space_id
    if sid == "l_p":
        return sum(v**space_.p for v in mags.values()) ** (1.0 / space_.p)
    if sid == "c0":
        return max(mags.values())
    if sid == "l1":
        return sum(mags.values())
    if sid in ("entire_hadamard", "entire_cauchy"):
        return sum(v * float(q) ** n for n, v in mags.items())
    if sid == "omega_coord":
        return max((v for n, v in mags.items() if n <= q), default=0.0)
    return sum(v for n, v in mags.items() if n <= q)


def test_space_parsing_and_canonical_products():
    assert space("l_p:2").product == "coordinatewise"
    assert space("l1").product == "cauchy"
    assert space("c0").product == "coordinatewise"
    assert space("entire_cauchy").product == "cauchy"
    assert space("omega_coord").product == "coordinatewise"
    with pytest.raises(SpaceUnknownError):
        space("l_p:0.5")
    with pytest.raises(SpaceUnknownError):
        space("weird")


def test_product_mismatch_rejected():
    with pytest.raises(SpaceProductError):
        SpaceSpec("c0", product="cauchy")
    with pytest.raises(SpaceProductError):
        SpaceSpec("entire_cauchy", product="coordinatewise")
    # l1's seminorm also works for coordinatewise constructions, via the
    # compatibility flag rather than a re-tagged spec
    assert space("l1").supports_coordinatewise
    assert not space("c0").supports_cauchy


def test_spaces_list_covers_all_ids():
    assert len(list_spaces()) == 7


class TestSeminormValues:
    def test_point_values(self):
        eh = space("entire_hadamard")
        assert log_decode(seminorm_eval(eh, 2, FiniteSeq.basis(3))) == pytest.approx(8.0)
        l1 = space("l1")
        assert log_decode(seminorm_eval(l1, 1, from_dict({0: 1, 1: -2}))) == pytest.approx(3.0)
        oc = space("omega_coord")
        assert log_decode(seminorm_eval(oc, 3, FiniteSeq.basis(5))) == 0.0
        lp = space("l_p:2")
        assert log_decode(seminorm_eval(lp, 1, from_dict({0: 3, 1: 4}))) == pytest.approx(5.0)
        c0 = space("c0")
        assert log_decode(seminorm_eval(c0, 1, from_dict({0: 3, 5: -4}))) == pytest.approx(4.0)
        ocau = space("omega_cauchy")
        assert log_decode(seminorm_eval(ocau, 2, from_dict({0: 1, 2: 1, 7: 9}))) == pytest.approx(2.0)

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            seminorm_eval(space("l1"), 0, FiniteSeq.basis(0))

    def test_basis_norms(self):
        def basis_log(sid, q, n):
            return float(basis_log_array(space(sid), q, np.array([n]))[0])

        assert log_decode(basis_log("l_p:2", 4, 100)) == 1.0
        assert log_decode(basis_log("entire_cauchy", 3, 2)) == pytest.approx(9.0)
        assert log_decode(basis_log("omega_cauchy", 4, 7)) == 0.0
        assert log_decode(basis_log("omega_cauchy", 4, 4)) == 1.0
        # log form keeps huge values representable
        assert basis_log("entire_hadamard", 10, 10**6) == pytest.approx(10**6 * math.log(10))
        assert log_decode(basis_log("entire_hadamard", 10, 10**6)) == math.inf

    def test_interval_exact_except_sup_norm(self, any_space):
        # every family is evaluated exactly; the sup-circle norm is bounded
        # above by sum |x_n| q^n, which lies at or above every sampled |p(z)|
        rng = random.Random(5)
        for _ in range(20):
            x = rand_seq(rng)
            val = log_decode(seminorm_eval(any_space, 3, x))
            assert val == pytest.approx(reference_seminorm(any_space, 3, x), rel=1e-12)
            if any_space.space_id == "entire_cauchy":
                assert log_decode(circle_max_log(x, 3)) <= val * (1 + 1e-12)

    def test_sup_norm_enclosure_tight_on_monomials(self):
        ec = space("entire_cauchy")
        for q in (1, 2, 5):
            for n in (0, 1, 7):
                val = seminorm_eval(ec, q, FiniteSeq.basis(n))
                # the bound is attained on the circle
                assert circle_max_log(FiniteSeq.basis(n), q) == pytest.approx(val, rel=1e-12)
                assert log_decode(val) == pytest.approx(float(q) ** n, rel=1e-12)

    def test_overflow_saturates_to_inf(self):
        ec = space("entire_hadamard")
        val = seminorm_eval(ec, 5, FiniteSeq.basis(10**4))
        assert log_decode(val) == math.inf and val < math.inf


class TestSeminormFamilyLaws:
    def test_monotone_in_q(self, any_space):
        rng = random.Random(17)
        for _ in range(50):
            x = rand_seq(rng)
            vals = [log_decode(seminorm_eval(any_space, q, x)) for q in range(1, 6)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_submultiplicative_for_declared_product(self, any_space):
        rng = random.Random(29)
        prod = cauchy_product if any_space.product == "cauchy" else coordinatewise_product
        for _ in range(100):
            x, y = rand_seq(rng), rand_seq(rng)
            for q in (1, 3):
                nx = log_decode(seminorm_eval(any_space, q, x))
                ny = log_decode(seminorm_eval(any_space, q, y))
                nxy = log_decode(seminorm_eval(any_space, q, prod(x, y)))
                assert nxy <= nx * ny * (1 + 1e-10)

    def test_triangle_inequality(self, any_space):
        rng = random.Random(31)
        for _ in range(100):
            x, y = rand_seq(rng), rand_seq(rng)
            for q in (1, 4):
                lhs = log_decode(seminorm_eval(any_space, q, x + y))
                rhs = log_decode(seminorm_eval(any_space, q, x)) + log_decode(seminorm_eval(any_space, q, y))
                assert lhs <= rhs * (1 + 1e-10)

    def test_sup_norm_lower_bound_below_upper(self):
        ec = space("entire_cauchy")
        rng = random.Random(37)
        for _ in range(50):
            x = rand_seq(rng, 6, 9)
            val = log_decode(seminorm_eval(ec, 2, x))
            sampled = log_decode(circle_max_log(x, 2))
            assert sampled <= val * (1 + 1e-12)
            # the sampled value is an attained |p(z)|, hence a true lower bound
            assert sampled >= 0.0


class TestLazyCircleScan:
    """The entire_cauchy seminorm is the closed-form bound; it samples no circle."""

    def test_upper_end_makes_no_circle_sums(self, monkeypatch):
        x = from_dict({0: 1, 2: -1j, 5: 0.5})
        calls = []
        real = WideComplex.sum_of.__func__

        def counting(cls, terms):
            calls.append(1)
            return real(cls, terms)

        monkeypatch.setattr(WideComplex, "sum_of", classmethod(counting))
        val = seminorm_eval(space("entire_cauchy"), 3, x)
        assert val == pytest.approx(math.log(1 + 9 + 0.5 * 3**5))
        assert calls == []

import functools
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperforge import (
    FiniteSeq,
    WeightSpec,
    WideComplex,
    backward_iterate,
    cauchy_power,
    cauchy_product,
    coordinatewise_power,
    coordinatewise_product,
    root_power_block,
)
from hyperforge.bundle import canonical_json
from hyperforge.errors import SearchExhausted, WeightError

from conftest import (
    dicts_close,
    from_dict,
    naive_convolution,
    naive_power,
    rand_seq,
    to_dict,
)


class TestWideComplex:
    def test_roundtrip_human_scale(self):
        for z in (3 + 4j, -1.5, 2j, -0.25 - 7j):
            assert abs(WideComplex.from_complex(z).to_complex() - z) <= 1e-14 * abs(z)

    def test_roundtrip_extreme_log_magnitudes(self):
        # mul/div against a second wide value cancels to 1e-14 relative
        for L in (1e6, -1e6, 3.7e5):
            h = WideComplex(L, 2.0)
            g = WideComplex(-0.97 * L, -1.3)
            assert ((h * g) / g).approx_eq(h, 1e-14)

    def test_json_roundtrip_uses_log_form_for_extremes(self):
        big = WideComplex(5e5, 1.0)
        enc = big.to_json()
        assert isinstance(enc, dict) and enc["log_mag"] == 5e5
        assert WideComplex.from_json(enc) == big
        small = WideComplex.from_complex(0.5 - 2j)
        assert isinstance(small.to_json(), list)
        assert WideComplex.from_json(small.to_json()) == small

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.just(WideComplex.zero()),
        st.builds(WideComplex, st.floats(-800.0, 800.0), st.floats(allow_nan=False, allow_infinity=False)),
    ))
    def test_json_encoding_is_lossless(self, c):
        # [re, im] where that pair decodes back bit for bit, log form otherwise
        assert WideComplex.from_json(json.loads(canonical_json(c.to_json()))) == c

    def test_zero_flag_is_canonical(self):
        z = WideComplex.zero()
        assert z.is_zero and z.phase == 0.0
        assert (WideComplex.from_complex(5.0) - WideComplex.from_complex(5.0)).is_zero

    def test_principal_root_branch(self):
        minus_one = WideComplex.from_complex(-1.0)
        assert minus_one.root(2).approx_eq(WideComplex.from_complex(1j), 1e-15)
        i = WideComplex.from_complex(1j)
        assert i.root(2).phase == pytest.approx(math.pi / 4)
        # phase of an m-th root always lands in (-pi/m, pi/m]
        assert abs(WideComplex(0.0, 3.0).root(5).phase) <= math.pi / 5 + 1e-15

    def test_max_rescaled_sum(self):
        terms = [WideComplex.from_complex(1e-18), WideComplex.from_complex(1.0)]
        s = WideComplex.sum_of(terms)
        assert abs(s.to_complex() - (1.0 + 1e-18)) < 1e-15


SMALL_COMPLEX = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def seqs(max_terms=8, max_index=12):
    return st.dictionaries(st.integers(0, max_index), SMALL_COMPLEX, min_size=1, max_size=max_terms)


class TestProducts:
    def test_coordinatewise_examples(self):
        e3 = FiniteSeq.basis(3)
        assert coordinatewise_product(e3, e3) == e3
        assert coordinatewise_product(FiniteSeq.basis(2), FiniteSeq.basis(3)).is_zero
        got = coordinatewise_product(from_dict({0: 1, 1: 2}), from_dict({0: 3, 2: 5}))
        assert got.support == (0,)
        assert got.approx_eq(from_dict({0: 3}), 1e-14)

    def test_disjoint_supports_give_exact_zero(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rand_seq(rng, 5, 10)
            y = from_dict({n + 11: 1.0 for n in rand_seq(rng, 5, 10).support})
            assert coordinatewise_product(x, y).is_zero

    def test_cauchy_examples(self):
        assert cauchy_product(FiniteSeq.basis(1), FiniteSeq.basis(1)) == FiniteSeq.basis(2)
        two = from_dict({0: 1, 1: 1})
        assert cauchy_product(two, two).approx_eq(from_dict({0: 1, 1: 2, 2: 1}), 1e-14)
        got = cauchy_product(from_dict({0: 1, 1: 2}), from_dict({0: 3, 1: 4}))
        assert got.approx_eq(from_dict({0: 3, 1: 10, 2: 8}), 1e-14)

    def test_cauchy_max_index_adds(self):
        rng = random.Random(3)
        for _ in range(25):
            x, y = rand_seq(rng), rand_seq(rng)
            assert cauchy_product(x, y).max_index == x.max_index + y.max_index

    def test_cauchy_product_is_the_object_form_bit_for_bit(self):
        # the float-pair product against products and sums of WideComplex
        # objects: random log-polar sequences whose coefficients cancel to
        # zero, whose phases sum to +-pi and past it, and whose logs pass 700
        def object_form(x, y):
            buckets = {}
            for n, c in x.items():
                for k, d in y.items():
                    buckets.setdefault(n + k, []).append(c * d)
            return FiniteSeq({n: WideComplex.sum_of(terms) for n, terms in buckets.items()})

        def bits(seq):
            return [(n, c.log_mag.hex(), c.phase.hex()) for n, c in seq.items()]

        rng = random.Random(29)
        phases = [0.0, math.pi, -math.pi / 2, math.pi / 2, 3.0, -3.0, 2.5]
        logs = [0.0, 0.5, 700.0, 705.5, -700.0, 1e308, -1e308]  # +-1e308 overflow when added
        seen = set()
        for _ in range(400):
            x, y = (FiniteSeq({n: WideComplex(rng.choice(logs) + rng.choice([0.0, rng.uniform(-2, 2)]),
                                              rng.choice(phases + [rng.uniform(-4, 4)]))
                               for n in rng.sample(range(8), rng.randint(1, 5))}) for _ in range(2))
            got, want = cauchy_product(x, y), object_form(x, y)
            assert bits(got) == bits(want)
            if len(got) < len(want.support) or set(got.support) != {
                    n + k for n in x.support for k in y.support}:
                seen.add("cancelled or underflowed")
            if any(abs(c.phase) == math.pi for _, c in got.items()):
                seen.add("pi")
            if any(c.log_mag > 700 for _, c in got.items()):
                seen.add("past 700")
        # e_0 + e_1 times e_0 - e_1 cancels at index 1
        z = cauchy_product(from_dict({0: 1, 1: 1}), from_dict({0: 1, 1: -1}))
        assert z.support == (0, 2) and bits(z) == bits(object_form(from_dict({0: 1, 1: 1}),
                                                                  from_dict({0: 1, 1: -1})))
        assert seen == {"cancelled or underflowed", "pi", "past 700"}, seen

    def test_cauchy_power_examples(self):
        cube = cauchy_power(from_dict({0: 1, 1: 1}), 3)
        assert cube.approx_eq(from_dict({0: 1, 1: 3, 2: 3, 3: 1}), 1e-14)
        x = from_dict({0: 0.3, 2: -1j})
        assert cauchy_power(x, 1) == x
        assert cauchy_power(FiniteSeq.basis(2), 4).support == (8,)

    @settings(max_examples=60, deadline=None)
    @given(seqs(), seqs())
    def test_cauchy_commutative(self, da, db):
        x, y = from_dict(da), from_dict(db)
        assert dicts_close(to_dict(cauchy_product(x, y)), naive_convolution(da, db))
        assert cauchy_product(x, y).rel_distance(cauchy_product(y, x)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seqs(5, 8), seqs(5, 8), seqs(5, 8))
    def test_cauchy_associative_and_distributive(self, da, db, dc):
        x, y, z = from_dict(da), from_dict(db), from_dict(dc)
        left = cauchy_product(cauchy_product(x, y), z)
        right = cauchy_product(x, cauchy_product(y, z))
        assert left.rel_distance(right) <= 1e-10
        dist_l = cauchy_product(x, y + z)
        dist_r = cauchy_product(x, y) + cauchy_product(x, z)
        assert dist_l.rel_distance(dist_r) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seqs(6, 8), st.integers(0, 6))
    def test_cauchy_power_matches_repeated_convolution_oracle(self, d, m):
        got = to_dict(cauchy_power(from_dict(d), m))
        assert dicts_close(got, naive_power(d, m))

    def test_coordinatewise_power_equals_repeated_product(self):
        rng = random.Random(11)
        for _ in range(20):
            x = rand_seq(rng)
            prod = x
            for j in range(2, 5):
                prod = coordinatewise_product(prod, x)
                assert coordinatewise_power(x, j).rel_distance(prod) <= 1e-12


class TestWeightsAndShifts:
    def test_weight_parsing(self):
        assert WeightSpec.parse("const:2").value == 2
        assert WeightSpec.parse("const:1+2i").value == 1 + 2j
        assert WeightSpec.parse("maclane").kind == "maclane"
        with pytest.raises(WeightError):
            WeightSpec.parse("const:0")
        with pytest.raises(WeightError):
            WeightSpec.parse("gauss")

    def test_table_rejects_zero_and_exhausts(self, tmp_path):
        with pytest.raises(WeightError):
            WeightSpec("table", table=[1, 0, 2])
        t = WeightSpec("table", table=[2, 3, 4])
        assert t.v(3).approx_eq(WideComplex.from_complex(24.0), 1e-14)
        with pytest.raises(WeightError):
            t.v(4)
        path = tmp_path / "w.json"
        path.write_text("[[2,0],[0,1]]")
        loaded = WeightSpec.parse(f"table:{path}")
        assert loaded.ratio(1, 1).approx_eq(WideComplex.from_complex(1j), 1e-15)  # w_2 = v_2 / v_1

    def test_weight_products(self, weight2, maclane):
        assert weight2.v(0) == WideComplex.one()  # w_0 = 1
        assert weight2.v(10).approx_eq(WideComplex.from_complex(1024.0), 1e-13)
        assert maclane.v(5).approx_eq(WideComplex.from_complex(120.0), 1e-13)

    def test_backward_shift_definition(self, weight2, maclane):
        assert backward_iterate(maclane, FiniteSeq.basis(3), 1).approx_eq(
            from_dict({2: 3}), 1e-14
        )
        assert backward_iterate(weight2, FiniteSeq.basis(5), 2).approx_eq(
            from_dict({3: 4}), 1e-14
        )
        assert backward_iterate(weight2, FiniteSeq.basis(0), 1).is_zero

    def test_forward_shift_definition(self, weight2):
        # the forward shift F^a is the m = 1 root-power block
        assert root_power_block(weight2, FiniteSeq.basis(0), 3, 1).approx_eq(
            from_dict({3: 0.125}), 1e-14
        )
        x = from_dict({0: 1j, 4: -2})
        assert root_power_block(weight2, x, 0, 1) == x

    @settings(max_examples=40, deadline=None)
    @given(seqs(), st.integers(0, 20), st.sampled_from(["const:2", "maclane", "const:0.5+0.5i"]))
    def test_backward_undoes_forward(self, d, a, wspec):
        w = WeightSpec.parse(wspec)
        x = from_dict(d)
        assert backward_iterate(w, root_power_block(w, x, a, 1), a).rel_distance(x) <= 1e-12


class TestRootPowerBlocks:
    def test_block_values(self, weight2):
        blk = root_power_block(weight2, FiniteSeq.basis(0), 3, 1)
        assert blk.approx_eq(from_dict({3: 0.125}), 1e-14)
        w4 = WeightSpec.parse("const:4")
        blk2 = root_power_block(w4, FiniteSeq.basis(0), 2, 2)
        assert blk2.approx_eq(from_dict({2: 0.25}), 1e-14)

    def test_full_power_block_inverts_the_shift(self, maclane, weight2):
        rng = random.Random(23)
        for w in (maclane, weight2):
            y = rand_seq(rng, 5, 6)
            blk = root_power_block(w, y, 9, 1)
            assert backward_iterate(w, blk, 9).rel_distance(y) <= 1e-12

    @pytest.mark.parametrize("wspec", ["maclane", "const:2", "const:1+1i"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_mth_power_of_root_block_inverts_the_shift(self, wspec, m):
        # (S^a y)^{1/m} raised to the m-th power and shifted back by a is y
        w = WeightSpec.parse(wspec)
        y = rand_seq(random.Random(29 + m), 5, 6)
        blk = root_power_block(w, y, 9, m)
        assert backward_iterate(w, coordinatewise_power(blk, m), 9).rel_distance(y) <= 1e-12

    def test_zero_coordinates_pass_through(self, weight2):
        y = from_dict({0: 1.0, 3: 2.0})  # indices 1, 2 are zero inside [0, s]
        blk = root_power_block(weight2, y, 4, 2)
        assert blk.support == (4, 7)

    def test_fractional_block_matches_scalar_path(self, maclane):
        # product of per-factor roots == root of the full ratio for positive weights
        y = from_dict({1: 0.7})
        blk = root_power_block(maclane, y, 6, 3)
        ratio = maclane.v(7).log_mag - maclane.v(1).log_mag
        expected = y.coef(1).root(3).log_mag - ratio / 3
        assert blk.coef(7).log_mag == pytest.approx(expected, rel=1e-14)


class TestFiniteSeqJson:
    def test_roundtrip_plain_and_extreme(self):
        x = FiniteSeq(
            {2: WideComplex.from_complex(0.5), 1000: WideComplex(5e5, 1.0), 7: WideComplex(-4e5, -2.0)}
        )
        data = x.to_json()
        assert FiniteSeq.from_json(data) == x

    @pytest.mark.parametrize("entry", [
        [1.5, 1.0, 0.0], [True, 1.0, 0.0], [-1, 0.0, 0.0], [0, math.nan, 0.0], [0, 1.0, math.inf],
        [0, {"log_mag": math.inf, "phase": 0.0}], [0, {"log_mag": 1.0, "phase": math.nan}],
        [0, {"log_mag": -math.inf, "phase": 0.0}],
    ])
    def test_entries_that_would_load_as_another_value_are_rejected(self, entry):
        with pytest.raises(ValueError):
            FiniteSeq.from_json({"coeffs": [entry, [1, 1.0, 0.0]]})

    def test_no_stored_zeros(self):
        x = FiniteSeq({0: WideComplex.zero(), 1: WideComplex.one()})
        assert x.support == (1,)


def test_concurrent_use_is_safe():
    # pure operations over immutable values; a weight keeps nothing per index
    from concurrent.futures import ThreadPoolExecutor

    from hyperforge import seminorm_eval, space

    w = WeightSpec.parse("maclane")
    sp = space("entire_hadamard")
    rng = random.Random(97)
    seqs = [rand_seq(rng) for _ in range(64)]

    def work(i):
        x = seqs[i % len(seqs)]
        val = seminorm_eval(sp, 1 + i % 5, x)
        shifted = backward_iterate(w, root_power_block(w, x, 500 + i, 1), 500 + i)
        return val, shifted.rel_distance(x) <= 1e-11

    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(work, range(256)))
    assert all(ok for _, ok in results)
    serial = [work(i) for i in range(256)]
    assert [v for v, _ in results] == [v for v, _ in serial]


def test_table_weight_grows_only_to_its_length():
    table = [2.0] * 200
    w = WeightSpec("table", table=table)
    assert w.v(200).log_mag == pytest.approx(200 * math.log(2))
    with pytest.raises(WeightError):
        w.v(201)


@pytest.mark.parametrize("wspec", ["maclane", "const:2"])
def test_index_at_2_53_is_search_exhausted(wspec):
    # float64 stops holding every integer at 2^53; an index there ends the
    # search with a typed error before anything is allocated
    import tracemalloc

    import numpy as np

    w = WeightSpec.parse(wspec)
    big = np.array([3, 2**53 + 1])
    calls = [
        (lambda: w.v_log(2**53), 2**53),
        (lambda: w.v(2**53 + 5), 2**53 + 5),
        (lambda: w.v_log_array(2**53), 2**53),
        (lambda: w.v_log_array(2**53 + 10, 2**53), 2**53 + 10),
        (lambda: w.v_log(big), 2**53 + 1),
        (lambda: w.ratio(2**53 - 3, 10), 2**53 + 7),
    ]
    tracemalloc.start()
    try:
        for call, index in calls:
            with pytest.raises(SearchExhausted) as exc:
                call()
            assert exc.value.details["index"] == index
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert math.isfinite(w.v_log(2**53 - 1))


@pytest.mark.parametrize("wspec", ["maclane", "const:2"])
def test_index_past_2_27_is_finite(wspec):
    # 2^27 was the end of the old weight table; the closed forms go on
    w = WeightSpec.parse(wspec)
    assert math.isfinite(w.v_log(2**27 + 5))
    assert math.isfinite(w.ratio(2**27 - 3, 10).log_mag)
    assert w.v_log_array(2**27 + 5, 2**27 + 5)[0] == w.v_log(2**27 + 5)


def test_table_weight_past_its_end_stays_a_weight_error():
    w = WeightSpec("table", table=[2.0] * 10)
    for call in (lambda: w.v_log(2**27 + 5), lambda: w.v_log_array(2**27), lambda: w.ratio(5, 6)):
        with pytest.raises(WeightError):
            call()


# moduli and phases that vary with k, so the table's cumulative sums are not linear
_PHASED = [k * (1.0 + 0.4 * math.sin(k)) * complex(math.cos(0.7 * k), math.sin(0.7 * k))
           for k in range(1, 5001)]

# log n! is checked exactly for every n up to here, and at sampled n past it
_EXACT_TOP = 20_000
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863")
# B_2k for k = 1..8
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
              Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)]


@functools.lru_cache(maxsize=None)
def _exact_log_factorials() -> tuple[Decimal, ...]:
    """ln n! for n = 0.._EXACT_TOP at 50 digits, summed from ln k; ln k is a
    decimal ln for a prime k and the sum of two earlier ln for a composite."""
    with localcontext() as ctx:
        ctx.prec = 50
        factor = list(range(_EXACT_TOP + 1))  # smallest prime factor
        for i in range(2, math.isqrt(_EXACT_TOP) + 1):
            if factor[i] == i:
                for j in range(i * i, _EXACT_TOP + 1, i):
                    factor[j] = min(factor[j], i)
        ln_k = [Decimal(0)] * (_EXACT_TOP + 1)
        out = [Decimal(0)] * (_EXACT_TOP + 1)
        for k in range(2, _EXACT_TOP + 1):
            f = factor[k]
            ln_k[k] = Decimal(k).ln() if f == k else ln_k[f] + ln_k[k // f]
            out[k] = out[k - 1] + ln_k[k]
        # the sums against the decimal ln of math.factorial itself
        for n in (255, 256, _EXACT_TOP):
            assert abs(Decimal(math.factorial(n)).ln() - out[n]) < Decimal("1e-40"), n
    return tuple(out)


def _stirling_log_factorial(n: int) -> Decimal:
    """ln n! for n >= 256 at 60 digits: the Stirling series for ln Gamma(n + 1)
    through the B_16 term, whose truncation error is below 1e-45 there."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(n + 1)
        out = (x - Decimal("0.5")) * x.ln() - x + (2 * _PI).ln() / 2
        for k, b in enumerate(_BERNOULLI, start=1):
            out += Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1) * x ** (2 * k - 1))
    return out


def _assert_log_factorial_bound(values, indices):
    """Each value lies within the stated error bound of ln n!:
    5 * 2^-53 * (n + 1) * ln(n + 1)."""
    exact = _exact_log_factorials()
    for v, n in zip(values, indices):
        want = exact[n] if n <= _EXACT_TOP else _stirling_log_factorial(n)
        bound = 5 * 2.0**-53 * (n + 1) * math.log(n + 1)
        assert abs(Decimal(v) - want) <= Decimal(bound), (n, v, want)


def test_maclane_log_factorial_at_sampled_indices_to_2_53():
    # log-uniform indices from 256 to 2^53 - 1 and both sides of 2^52, where
    # x - 1/2 stops being exact: within the bound, and the scalar, array and
    # one-entry range paths agree bit for bit
    import numpy as np

    exact = _exact_log_factorials()
    for n in (256, 300, 4097, _EXACT_TOP):  # the two references meet where both reach
        assert abs(_stirling_log_factorial(n) - exact[n]) < Decimal("1e-40"), n
    w = WeightSpec.parse("maclane")
    rng = np.random.default_rng(11)
    idx = np.exp(rng.uniform(math.log(256), math.log(2**53 - 1), 400)).astype(np.int64)
    idx = np.concatenate((idx, [256, 257, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]))
    got = w.v_log(idx)
    _assert_log_factorial_bound(got.tolist(), idx.tolist())
    for n, v in zip(idx.tolist(), got.tolist()):
        assert w.v_log(n) == v and w.v_log_array(n, n)[0] == v, n


@pytest.mark.parametrize("wspec", ["const:2", "const:1.5+0.5i", "const:0.5-0.5i", "maclane", "table"])
def test_closed_forms_match_the_one_go_expressions(wspec):
    # the whole-table expressions the weight cache held before log v_n was
    # evaluated per index; every value is bit for bit the same, including the
    # +0.0 at n = 0 where log|lambda| or arg(lambda) is negative.  maclane has
    # no one-go expression: its whole table is checked against exact log n!
    # (every n up to 20,000 and the sampled ones), and each other path must
    # give its values bit for bit
    import numpy as np

    from hyperforge.core import wrap_phase

    if wspec == "table":
        w, size = WeightSpec("table", table=_PHASED), len(_PHASED) + 1
        arr = np.array(_PHASED, dtype=np.complex128)
        want = np.cumsum(np.concatenate(([0.0], np.log(np.abs(arr)))))
        want_ph = np.cumsum(np.concatenate(([0.0], np.angle(arr))))
    else:
        w, size = WeightSpec.parse(wspec), 3_000_001
        idx = np.arange(size, dtype=np.float64)
        if wspec == "maclane":
            want, want_ph = WeightSpec.parse(wspec).v_log_array(size - 1), None
        else:
            lam = w.value
            want = idx * math.log(abs(lam))
            want[0] = 0.0
            ph = math.atan2(lam.imag, lam.real)
            want_ph = None if ph == 0.0 else np.concatenate(([0.0], idx[1:] * ph))
    assert w.v_log_array(size - 1).tobytes() == want.tobytes()
    for lo, hi in ((0, 0), (1, 1), (0, 1500), (7, 4000), (1023, 4999), (size - 9, size - 1)):
        assert w.v_log_array(hi, lo).tobytes() == want[lo : hi + 1].tobytes(), (lo, hi)
    picks = np.random.default_rng(5).integers(0, size, 4000)
    picks[:2] = 0, size - 1
    assert w.v_log(picks).tobytes() == want[picks].tobytes()
    if wspec == "maclane":
        _assert_log_factorial_bound(want[: _EXACT_TOP + 1].tolist(), range(_EXACT_TOP + 1))
        _assert_log_factorial_bound(want[picks[:300]].tolist(), picks[:300].tolist())
    ph_at = (lambda n: 0.0) if want_ph is None else (lambda n: float(want_ph[n]))
    for n in picks[:300].tolist():
        assert np.float64(w.v_log(n)).tobytes() == want[n].tobytes(), n
        got = w.v(n)
        assert (got.log_mag, got.phase) == (float(want[n]), wrap_phase(ph_at(n))), n
        a = min(37, size - 1 - n)
        dlog, dph = float(want[n + a] - want[n]), ph_at(n + a) - ph_at(n)
        assert a == 0 or w.ratio(n, a) == WideComplex(dlog, wrap_phase(dph))
        want_root = WideComplex(dlog / 3, wrap_phase(dph / 3))
        assert a == 0 or w.ratio_root(n, a, 3) == want_root
    # a returned array cannot be written to
    got = w.v_log_array(3)
    with pytest.raises(ValueError):
        got[3] = 99.0
    assert w.v_log(3) == want[3]


@pytest.mark.parametrize("wspec", ["const:2", "const:1.5+0.5i", "maclane", "table"])
def test_weight_table_is_read_only(wspec):
    w = WeightSpec("table", table=[2.0, 1.5j, 3.0]) if wspec == "table" else WeightSpec.parse(wspec)
    before = w.v_log(3)
    for a in (w.v_log_array(3), w.v_log_array(3, 1)):
        with pytest.raises(ValueError):
            a[-1] = 99.0
    assert w.v_log(3) == before
    if w._table_ph is not None:
        with pytest.raises(ValueError):
            w._table_ph[1] = 99.0


@pytest.mark.parametrize("wspec", ["const:2", "maclane", "table"])
def test_negative_weight_index_is_rejected(wspec):
    # a table used to be read from its end, const and maclane evaluated log v_{-3}
    import numpy as np

    w = WeightSpec("table", table=[2.0] * 10) if wspec == "table" else WeightSpec.parse(wspec)
    for call in (lambda: w.v_log_array(5, -3), lambda: w.v_log(-3), lambda: w.v_log(np.array([4, -3])),
                 lambda: w.v(-3), lambda: w.ratio(-3, 2), lambda: w.ratio_root(-3, 0, 2)):
        with pytest.raises(ValueError, match="negative"):
            call()
    assert len(w.v_log_array(5, 0)) == 6


@pytest.mark.parametrize("wspec", ["const:2", "const:1.5+0.5i", "maclane"])
def test_weight_table_grown_in_place_matches_one_go(wspec):
    # ranges asked for in growing pieces, the way a scan reads them, give the
    # whole-table expressions the weight cache used before it grew in place
    import numpy as np

    from hyperforge.core import wrap_phase

    w = WeightSpec.parse(wspec)
    pieces, lo = [], 0
    for upto in (1500, 5000, 9000, 70000, 3_000_000):
        pieces.append(w.v_log_array(upto, lo))
        lo = upto + 1
    got = np.concatenate(pieces)
    idx = np.arange(len(got), dtype=np.float64)
    if wspec == "maclane":
        # no one-go expression: the one-go read is checked against exact log n!
        # up to 20,000 and at each piece's ends, where the scalar path must agree
        want, want_ph = WeightSpec.parse(wspec).v_log_array(len(got) - 1), None
        ends = [n for upto in (1500, 5000, 9000, 70000, len(got) - 1) for n in (upto, upto + 1)][:-1]
        _assert_log_factorial_bound(want[: _EXACT_TOP + 1].tolist(), range(_EXACT_TOP + 1))
        _assert_log_factorial_bound(want[ends].tolist(), ends)
        assert [w.v_log(n) for n in ends] == want[ends].tolist()
    else:
        lam = WeightSpec.parse(wspec).value
        want = idx * math.log(abs(lam))
        want[0] = 0.0
        ph = math.atan2(lam.imag, lam.real)
        want_ph = None if ph == 0.0 else np.concatenate(([0.0], idx[1:] * ph))
    assert got.tobytes() == want.tobytes()
    assert WeightSpec.parse(wspec).v_log_array(len(got) - 1).tobytes() == want.tobytes()
    for n in (0, 1, 1500, 1501, 70001, len(got) - 1):
        assert w.v(n).phase == (0.0 if want_ph is None else wrap_phase(float(want_ph[n]))), n

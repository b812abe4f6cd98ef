"""The array kernels against the scalar oracles of tests/scalar_ops.py, bit
for bit: ``core.convolve`` (and ``cauchy_product``, its one-pair call)
against the scalar Cauchy product, and ``spaces.shift_norms`` against
``seminorm_eval(backward_iterate(w, x, a) - y)`` one sequence at a time."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_ops
from conftest import ALL_SPACE_IDS
from hyperforge import FiniteSeq, WeightSpec, WideComplex, backward_iterate, cauchy_product
from hyperforge.core import SeqBatch, convolve
from hyperforge.errors import SearchExhausted, WeightError
from hyperforge.spaces import shift_norms, space

AXES = [0.0, math.pi / 2, -math.pi / 2, math.pi]
# moduli past double range either way, an overflow of their sum to -inf (a
# zero term) and +inf, whose rescaling gives NaN (a zero sum)
EXTREME_LOGS = [800.0, -800.0, 1e308, -1e308, math.inf, 0.0, -0.0]

logs = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(EXTREME_LOGS))
phases = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(AXES))
coefficients = st.builds(WideComplex, logs, phases)
# dense enough that a coefficient of a product collects more than 8 terms
sequences = st.dictionaries(st.integers(0, 14), coefficients, max_size=12).map(FiniteSeq)


def _bits(x: FiniteSeq):
    """Every index with the bits of its log-modulus and phase."""
    return [(n, np.float64(c.log_mag).tobytes(), np.float64(c.phase).tobytes()) for n, c in x.items()]


def _table(k):
    return k * (1.0 + 0.4 * math.sin(k)) * complex(math.cos(0.7 * k), math.sin(0.7 * k))


WEIGHTS = [
    WeightSpec.parse("maclane"),
    WeightSpec.parse("const:2"),
    WeightSpec.parse("const:-0.5"),
    WeightSpec.parse("const:1+1i"),
    WeightSpec("table", table=[_table(k) for k in range(1, 41)]),
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sequences, sequences), min_size=1, max_size=4))
def test_convolve_is_the_scalar_product(pairs):
    got = convolve(SeqBatch.of([x for x, _ in pairs]), SeqBatch.of([y for _, y in pairs])).seqs()
    for (x, y), z in zip(pairs, got):
        want = scalar_ops.cauchy_product(x, y)
        assert _bits(z) == _bits(want)
        assert _bits(cauchy_product(x, y)) == _bits(want)


def _seq(pairs):
    return FiniteSeq({n: WideComplex(*c) for n, c in pairs.items()})


@pytest.mark.parametrize("x,y", [
    # (1 + z)(1 - z): the z coefficient cancels to the exact zero
    ({0: (0.0, 0.0), 1: (0.0, 0.0)}, {0: (0.0, 0.0), 1: (0.0, math.pi)}),
    # axis phases only, with i * i + 1 = 0 at z^2
    ({0: (0.0, math.pi / 2), 1: (0.0, -math.pi / 2)}, {0: (0.0, 0.0), 1: (0.0, math.pi), 2: (0.0, math.pi / 2)}),
    # a sum on the negative real axis: the accumulator's imaginary part starts
    # at +0.0 and stays there, so atan2 reads pi; a -pi would be read as pi too
    ({0: (0.0, math.pi), 1: (0.0, math.pi)}, {0: (0.0, 0.0), 1: (0.0, 0.0)}),
    # sixteen terms at z^15, past numpy's pairwise summation block of 8
    ({n: (0.1 * n, 0.3 * n) for n in range(16)}, {n: (-0.2 * n, 1.0 - 0.1 * n) for n in range(16)}),
    # moduli past double range, +inf (a NaN sum) and a sum of logs that overflows to -inf
    ({0: (800.0, 1.0), 1: (math.inf, 0.5)}, {0: (-1e308, 0.2), 1: (-800.0, -2.0), 3: (-1e308, 0.0)}),
    # NaN sums after terms whose rescaling underflows: abs() of a NaN complex
    # raises OverflowError when a libm underflow has left errno set
    ({0: (0.0, 0.0), 1: (math.inf, 0.0), 2: (0.0, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.0), 5: (0.0, 0.0)},
     {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (800.0, 0.0)}),
])
def test_convolve_edge_cases(x, y):
    x, y = _seq(x), _seq(y)
    assert _bits(cauchy_product(x, y)) == _bits(scalar_ops.cauchy_product(x, y))


def _scalar_shift_norm(sp, q, w, x, a, y):
    img = scalar_ops.backward_iterate(w, x, a)
    return scalar_ops.seminorm_eval(sp, q, img if y is None else img - y)


targets = st.dictionaries(st.integers(0, 2), coefficients, min_size=1, max_size=3).map(FiniteSeq)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_SPACE_IDS),
    st.integers(1, 12),
    st.sampled_from(range(len(WEIGHTS))),
    st.lists(st.tuples(sequences, st.integers(0, 6), st.none() | targets), min_size=1, max_size=5),
)
def test_shift_norms_are_the_scalar_norms(sid, q, wi, items):
    sp, w = space(sid), WEIGHTS[wi]
    got = shift_norms(sp, q, w, SeqBatch.of([x for x, _, _ in items]), [a for _, a, _ in items],
                      [y for _, _, y in items])
    want = [_scalar_shift_norm(sp, q, w, x, a, y) for x, a, y in items]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("sid", ALL_SPACE_IDS)
def test_shift_norm_edge_cases(sid):
    # a = 0 with x = y (the exact zero), a shift that lands on y, and one
    # that moves every coefficient past y's support
    sp, w = space(sid), WEIGHTS[3]
    y = _seq({0: (0.0, 0.0), 2: (0.5, math.pi / 2)})
    x = _seq({3: (0.0, 1.0), 5: (-1.0, math.pi), 9: (2.0, -math.pi / 2)})
    cases = [(y, 0, y), (x, 3, y), (x, 9, y), (x, 0, None), (FiniteSeq.zero(), 2, y)]
    got = shift_norms(sp, 4, w, SeqBatch.of([c[0] for c in cases]), [c[1] for c in cases], [c[2] for c in cases])
    want = [_scalar_shift_norm(sp, 4, w, *c) for c in cases]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[0] == -math.inf
    # targets for the first items only: the later items are not subtracted from
    got = shift_norms(sp, 4, w, SeqBatch.of([c[0] for c in cases]), [c[1] for c in cases], [y, None, y])
    want = [_scalar_shift_norm(sp, 4, w, c[0], c[1], t) for c, t in zip(cases, [y, None, y, None, None])]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("x,w,a,error", [
    (FiniteSeq.basis(9), WeightSpec("table", table=[2.0] * 5), 2, WeightError),  # read past the table's end
    (FiniteSeq.basis(2**53), WeightSpec.parse("maclane"), 1, SearchExhausted),  # an index at 2^53
    (FiniteSeq.basis(3), WeightSpec.parse("const:2"), -1, ValueError),  # a negative shift
])
def test_shift_errors_match_the_scalar_shift(x, w, a, error):
    calls = [
        lambda: scalar_ops.backward_iterate(w, x, a),
        lambda: backward_iterate(w, x, a),
        lambda: shift_norms(space("l1"), 1, w, SeqBatch.of([x]), a),
    ]
    for call in calls:
        with pytest.raises(error) as exc:
            call()
        assert getattr(exc.value, "code", None) == getattr(error, "code", None)


def test_import_and_state_construction_form_no_product():
    # importing the package and constructing Cauchy states form no Cauchy
    # product and no D4 context: the convolution's stable sort raises from
    # before the import on, and the context and product calls after it
    script = """
import sys
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("a Cauchy product or D4 context was formed")

lexsort = np.lexsort

def sort_outside_convolve(*args, **kwargs):
    if sys._getframe(1).f_code.co_name == "convolve":
        refuse()
    return lexsort(*args, **kwargs)

np.lexsort = sort_outside_convolve
import hyperforge as hf
from hyperforge import cauchy, core

for mod in (core, cauchy):
    mod.convolve = refuse
cauchy.D4Context.__init__ = refuse
hf.cauchy_product = core.cauchy_product = refuse
targets = [hf.FiniteSeq.basis(0), hf.FiniteSeq.from_pairs([(0, 1), (1, 1)])]
ec, mac = hf.space("entire_cauchy"), hf.WeightSpec.parse("maclane")
hf.CauchyState(ec, mac, targets)
hf.CauchyState(ec, mac, targets, algebrable=True, K=2)
hf.CauchyState(hf.space("l1"), hf.WeightSpec.parse("const:2"), targets)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]

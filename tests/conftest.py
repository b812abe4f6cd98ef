"""Shared fixtures and the independent brute-force oracles used by the tests.

The oracles work on plain dicts of Python complex numbers, far from the
log-polar implementation path, so agreement is meaningful.
"""
from __future__ import annotations

import cmath
import random

import pytest
from hypothesis import settings

from hyperforge import FiniteSeq, WeightSpec
from hyperforge.spaces import space

# the library is seed-free; keep the property tests reproducible as well
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# -- oracles -------------------------------------------------------------------


def naive_convolution(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for n, ca in a.items():
        for k, cb in b.items():
            out[n + k] = out.get(n + k, 0j) + ca * cb
    return {n: c for n, c in out.items() if c != 0}


def naive_coordinatewise(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    return {n: a[n] * b[n] for n in set(a) & set(b) if a[n] * b[n] != 0}


def naive_power(a: dict[int, complex], m: int) -> dict[int, complex]:
    out = {0: 1 + 0j}
    for _ in range(m):
        out = naive_convolution(out, a)
    return out


# ways to move a growth witness's thresholds off g_1 = -inf, g_{k+1} = vmin_k
GROWTH_TAMPERS = ["all_neg_inf", "lowered_by_5", "raised_halfway"]


def tamper_growth(wit: dict, how: str) -> None:
    """Rewrite ``growth_log`` of a witness document in place."""
    g, vmin = wit["growth_log"], wit["vmin_log"]
    if how == "all_neg_inf":
        wit["growth_log"] = [float("-inf")] * len(g)
    elif how == "lowered_by_5":
        wit["growth_log"] = [x - 5.0 for x in g]
    else:
        wit["growth_log"] = [(x + v) / 2.0 for x, v in zip(g, vmin)]


def to_dict(x: FiniteSeq) -> dict[int, complex]:
    return {n: c.to_complex() for n, c in x.items()}


def from_dict(d: dict[int, complex]) -> FiniteSeq:
    return FiniteSeq.from_pairs(d.items())


def dicts_close(a: dict[int, complex], b: dict[int, complex], rel: float = 1e-10) -> bool:
    scale = max([abs(c) for c in a.values()] + [abs(c) for c in b.values()] + [0.0])
    if scale == 0.0:
        return True
    for n in set(a) | set(b):
        if abs(a.get(n, 0j) - b.get(n, 0j)) > rel * scale:
            return False
    return True


def rand_seq(rng: random.Random, max_terms: int = 8, max_index: int = 30) -> FiniteSeq:
    """Random finite sequence with coefficients in the unit disk."""
    terms = rng.randint(1, max_terms)
    d: dict[int, complex] = {}
    for _ in range(terms):
        n = rng.randint(0, max_index)
        d[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return from_dict(d)


# -- fixtures ------------------------------------------------------------------

TARGETS_JSON = [
    {"coeffs": [[0, 1.0, 0.0]]},
    {"coeffs": [[0, 1.0, 0.0], [1, 1.0, 0.0]]},
    {"coeffs": [[0, 2.0, 0.0], [1, -1.0, 0.0]]},
    {"coeffs": [[2, 0.0, 1.0]]},
]


# the README targets turned by the seeded unit phases of the benchmark's seed 1;
# bundles built on them hold coefficients whose [re, im] pair would not decode
# back to them, so they test that such coefficients are stored in log form and
# a loaded bundle keeps its bytes
PHASED_TARGETS_JSON = [
    {"coeffs": [[0, 0.6643029539301958, 0.7474634341555553]]},
    {"coeffs": [[0, 0.5746645712253898, -0.8183890459789518],
                [1, 0.5746645712253898, -0.8183890459789518]]},
    {"coeffs": [[0, 0.17288094687622507, -1.9925140346324237],
                [1, -0.08644047343811254, 0.9962570173162119]]},
    {"coeffs": [[2, -0.9994928434703693, -0.03184424361664005]]},
]


def seeded_targets_json(seed: int) -> list[dict]:
    """The README targets as the benchmark's seed turns them: each by its own
    unit phase, drawn in turn from random.Random(seed); seed 0 leaves them."""
    if seed == 0:
        return [dict(t) for t in TARGETS_JSON]
    rng = random.Random(seed)
    out = []
    for target in TARGETS_JSON:
        turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))
        coeffs = []
        for n, re, im in target["coeffs"]:
            z = complex(re, im) * turn
            coeffs.append([n, z.real, z.imag])
        out.append({"coeffs": coeffs})
    return out


def standard_targets() -> list[FiniteSeq]:
    """e0, e0+e1, 2e0-e1, i*e2 — the target set the acceptance runs cycle."""
    return [FiniteSeq.from_json(t) for t in TARGETS_JSON]


@pytest.fixture
def targets():
    return standard_targets()


@pytest.fixture(scope="session")
def weight2():
    return WeightSpec.parse("const:2")


@pytest.fixture(scope="session")
def maclane():
    return WeightSpec.parse("maclane")


ALL_SPACE_IDS = [
    "l_p:1",
    "l_p:2",
    "c0",
    "l1",
    "entire_hadamard",
    "entire_cauchy",
    "omega_coord",
    "omega_cauchy",
]


@pytest.fixture(params=ALL_SPACE_IDS)
def any_space(request):
    return space(request.param)

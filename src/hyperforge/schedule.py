"""Round bookkeeping: pairings of round numbers with tuples, target cycling,
and the lambda matrix whose columns the rounds cycle."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import FiniteSeq
from .errors import ConfigError


class PairOrder:
    """Bijection between round numbers r >= 1 and pairs (m, l) in N x N.

    Pairs are ordered by m + l, then by m ascending (diagonal enumeration), so
    r = 1 -> (1, 1), r = 2 -> (1, 2), r = 3 -> (2, 1), r = 4 -> (1, 3), ...
    """

    def index(self, m: int, l: int) -> int:
        if m < 1 or l < 1:
            raise ValueError("pair entries must be >= 1")
        d = m + l
        return (d - 2) * (d - 1) // 2 + m

    def decode(self, r: int) -> tuple[int, int]:
        if r < 1:
            raise ValueError("round numbers start at 1")
        x = (math.isqrt(8 * r - 7) - 1) // 2
        while x * (x + 1) // 2 >= r:
            x -= 1
        while (x + 1) * (x + 2) // 2 < r:
            x += 1
        m = r - x * (x + 1) // 2
        l = (x + 2) - m
        return m, l

    def max_degree_before(self, r: int) -> int:
        """max m' over all rounds r' < r (0 when r == 1)."""
        best = 0
        for rp in range(1, r):
            best = max(best, self.decode(rp)[0])
        return best


class TripleOrder:
    """Bijection between r >= 1 and triples (m, l, nu), ordered by total sum,
    then m ascending, then l ascending."""

    def index(self, m: int, l: int, nu: int) -> int:
        if min(m, l, nu) < 1:
            raise ValueError("triple entries must be >= 1")
        s = m + l + nu
        r = math.comb(s - 1, 3)
        for mp in range(1, m):
            r += s - mp - 1
        return r + l

    def decode(self, r: int) -> tuple[int, int, int]:
        if r < 1:
            raise ValueError("round numbers start at 1")
        s = 3
        while math.comb(s, 3) < r:
            s += 1
        rem = r - math.comb(s - 1, 3)
        for m in range(1, s - 1):
            block = s - m - 1
            if rem <= block:
                return m, rem, s - m - rem
            rem -= block
        raise AssertionError("triple decode fell through")


@dataclass
class TargetSchedule:
    """Assignment l -> y^(l) cycling a finite base list of nonzero targets.

    With a partition into K residue classes, l belongs to class ((l-1) mod K)+1
    and the base index advances once per full sweep of classes, so every class
    cycles through all base targets in order.
    """

    targets: list[FiniteSeq]
    K: int = 1

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("target schedule needs at least one target")
        if any(t.is_zero or any(not c.log_mag < math.inf for _, c in t.items()) for t in self.targets):
            raise ConfigError("targets must be nonzero finite sequences")
        if self.K < 1:
            raise ConfigError("partition size K must be >= 1")

    def target(self, l: int) -> FiniteSeq:
        if l < 1:
            raise ValueError("target labels start at 1")
        return self.targets[((l - 1) // self.K) % len(self.targets)]

    def class_of(self, l: int) -> int:
        return (l - 1) % self.K + 1

    def s(self, l: int) -> int:
        """Largest index of the nonzero coordinates of y^(l)."""
        return self.target(l).max_index


# most columns a lambda matrix may enumerate
_LAMBDA_ENTRIES_MAX = 1_000_000


def _entry_values(denom_max: int, l_max: int) -> list[complex]:
    """Rational-complex values of modulus <= 1; nonzero values first, then 0.
    Raises ValueError as soon as the l_max-tuples over the values found so far
    outnumber _LAMBDA_ENTRIES_MAX, before the grids of larger denominators are
    walked."""
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
        for z in cands:
            seen.add(z)
            vals.append(z)
        if len(vals) ** l_max > _LAMBDA_ENTRIES_MAX:
            raise ValueError("lambda matrix enumeration too large; lower l_max/denom_max")
    return vals


@dataclass
class LambdaMatrix:
    """Columns cycle an enumerated set A of finite sequences with entries of
    modulus <= 1, so every element of A appears infinitely often as a column.

    A holds all tuples over the rational-complex entry grid, longest length
    first so low column indices carry full-support elements.
    """

    l_max: int
    denom_max: int = 1
    entries: list[tuple[complex, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.l_max < 1 or self.denom_max < 1:
            raise ValueError("lambda matrix needs l_max >= 1 and denom_max >= 1")
        vals = _entry_values(self.denom_max, self.l_max)
        self.entries = []
        for L in range(self.l_max, 0, -1):
            idx = [0] * L
            while True:
                self.entries.append(tuple(vals[i] for i in idx))
                for pos in range(L - 1, -1, -1):
                    idx[pos] += 1
                    if idx[pos] < len(vals):
                        break
                    idx[pos] = 0
                else:
                    break

    @property
    def size(self) -> int:
        return len(self.entries)

    def column(self, nu: int) -> tuple[complex, ...]:
        if nu < 1:
            raise ValueError("column indices start at 1")
        return self.entries[(nu - 1) % len(self.entries)]

    def lam(self, k: int, nu: int) -> complex:
        col = self.column(nu)
        return col[k - 1] if k <= len(col) else 0j

    def to_json(self) -> dict:
        return {"l_max": self.l_max, "denom_max": self.denom_max}

    @classmethod
    def from_json(cls, data: dict) -> "LambdaMatrix":
        return cls(l_max=data["l_max"], denom_max=data["denom_max"])

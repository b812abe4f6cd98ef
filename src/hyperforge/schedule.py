"""Round bookkeeping: pairings of round numbers with tuples, target cycling,
and the lambda matrix whose columns the rounds cycle."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        # the largest x with x(x+1)/2 < r: (2x+1)^2 <= 8r - 7 iff x(x+1) <= 2r - 2
        x = (math.isqrt(8 * r - 7) - 1) // 2
        m = r - x * (x + 1) // 2
        l = (x + 2) - m
        return m, l

    def max_degree_before(self, r: int) -> int:
        """max m' over all rounds r' < r (0 when r == 1).  With (m, l) the
        pair of r and d = m + l, every pair of smaller sum comes before r,
        (d - 2, 1) the one of largest degree, and a pair of sum d before r
        has degree below m <= d - 1."""
        return sum(self.decode(r)) - 2


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

    The values of denominator q are the points (p_re + i p_im)/q with
    gcd(p_re, p_im, q) = 1 and p_re^2 + p_im^2 <= q^2, decided on integers,
    so each value is listed once, at its least denominator.  The values of
    every denominator are counted before any is formed, and ValueError is
    raised as soon as the l_max-tuples over them outnumber
    _LAMBDA_ENTRIES_MAX.
    """
    masks, count = [], 0
    for q in range(1, denom_max + 1):
        grid = np.arange(-q, q + 1)
        p_re, p_im = grid[:, None], grid[None, :]
        masks.append((np.gcd(np.gcd(p_re, p_im), q) == 1) & (p_re * p_re + p_im * p_im <= q * q))
        count += int(masks[-1].sum())
        if count**l_max > _LAMBDA_ENTRIES_MAX:
            raise ValueError("lambda matrix enumeration too large; lower l_max/denom_max")
    vals: list[complex] = []
    for q, mask in enumerate(masks, start=1):
        re, im = (np.stack(np.nonzero(mask)) - q) / q
        # the modulus key is summed in Python floats, as ties between equal
        # exact moduli have always been broken
        mod2 = np.array([x**2 + y**2 for x, y in zip(re.tolist(), im.tolist())])
        order = np.lexsort((-im, -re, -mod2, (re == 0) & (im == 0)))
        vals += map(complex, re[order].tolist(), im[order].tolist())
    return vals


@dataclass
class LambdaMatrix:
    """Columns cycle an enumerated set A of finite sequences with entries of
    modulus <= 1, so every element of A appears infinitely often as a column.

    A holds all tuples over the rational-complex entry grid, longest length
    first so low column indices carry full-support elements; the tuples of
    one length follow in odometer order (last entry fastest), so column nu
    is unranked from its base-N digits, N the number of entry values.
    """

    l_max: int
    denom_max: int = 1
    values: list[complex] = field(init=False, repr=False)

    def __post_init__(self):
        if self.l_max < 1 or self.denom_max < 1:
            raise ValueError("lambda matrix needs l_max >= 1 and denom_max >= 1")
        self.values = _entry_values(self.denom_max, self.l_max)

    @property
    def size(self) -> int:
        return sum(len(self.values) ** L for L in range(1, self.l_max + 1))

    def column(self, nu: int) -> tuple[complex, ...]:
        if nu < 1:
            raise ValueError("column indices start at 1")
        j, n = (nu - 1) % self.size, len(self.values)
        for L in range(self.l_max, 0, -1):
            if j < n**L:
                break
            j -= n**L
        digits = []
        for _ in range(L):
            j, d = divmod(j, n)
            digits.append(self.values[d])
        return tuple(reversed(digits))

    def lam(self, k: int, nu: int) -> complex:
        col = self.column(nu)
        return col[k - 1] if k <= len(col) else 0j

    def to_json(self) -> dict:
        return {"l_max": self.l_max, "denom_max": self.denom_max}

    @classmethod
    def from_json(cls, data: dict) -> "LambdaMatrix":
        return cls(l_max=data["l_max"], denom_max=data["denom_max"])

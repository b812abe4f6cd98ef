"""Built-in Fréchet sequence algebras: seminorm families and basis norms.

Space ids follow the CLI grammar: ``l_p:<p>``, ``c0``, ``l1``,
``entire_hadamard``, ``entire_cauchy``, ``omega_coord``, ``omega_cauchy``.
Each id carries a canonical product; constructing a SpaceSpec with the wrong
product is rejected.  Some seminorm families are submultiplicative for both
products (the l1 norm in particular), which is what the construction modules
query via ``supports_coordinatewise`` / ``supports_cauchy``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, FiniteSeq, SeqBatch, WeightSpec, WideComplex, _quiet, shift_back
from .errors import SpaceProductError, SpaceUnknownError

CANONICAL_PRODUCT = {
    "l_p": "coordinatewise",
    "c0": "coordinatewise",
    "l1": "cauchy",
    "entire_hadamard": "coordinatewise",
    "entire_cauchy": "cauchy",
    "omega_coord": "coordinatewise",
    "omega_cauchy": "cauchy",
}

# seminorm families that are submultiplicative for the given product
_COORDINATEWISE_ALGEBRAS = {"l_p", "c0", "l1", "entire_hadamard", "omega_coord"}
_CAUCHY_ALGEBRAS = {"l1", "entire_cauchy", "omega_cauchy"}


@dataclass(frozen=True)
class SpaceSpec:
    """A concrete sequence algebra: seminorm family plus product tag."""

    space_id: str
    p: float = 0.0
    product: str = ""

    def __post_init__(self):
        if self.space_id not in CANONICAL_PRODUCT:
            raise SpaceUnknownError(f"unknown space id {self.space_id!r}")
        canonical = CANONICAL_PRODUCT[self.space_id]
        if self.product == "":
            object.__setattr__(self, "product", canonical)
        elif self.product != canonical:
            raise SpaceProductError(
                f"space {self.space_id!r} carries the {canonical} product, not {self.product!r}"
            )
        if self.space_id == "l_p":
            if not (self.p >= 1.0 and math.isfinite(self.p)):
                raise SpaceUnknownError("l_p requires p >= 1")
        elif self.p not in (0.0, 1.0):
            raise SpaceUnknownError(f"space {self.space_id!r} takes no exponent parameter")

    @property
    def cli_id(self) -> str:
        if self.space_id == "l_p":
            return f"l_p:{self.p:g}"
        return self.space_id

    @property
    def supports_coordinatewise(self) -> bool:
        return self.space_id in _COORDINATEWISE_ALGEBRAS

    @property
    def supports_cauchy(self) -> bool:
        return self.space_id in _CAUCHY_ALGEBRAS


def space(spec: str) -> SpaceSpec:
    """Parse a CLI space id into a SpaceSpec."""
    spec = spec.strip()
    if spec.startswith("l_p:"):
        try:
            p = float(spec[4:])
        except ValueError as exc:
            raise SpaceUnknownError(f"bad l_p exponent in {spec!r}") from exc
        return SpaceSpec("l_p", p=p)
    if spec == "l_p":
        raise SpaceUnknownError("l_p needs an exponent, e.g. l_p:2")
    return SpaceSpec(spec)


def list_spaces() -> list[dict]:
    rows = []
    for sid, product in CANONICAL_PRODUCT.items():
        rows.append(
            {
                "id": "l_p:<p>" if sid == "l_p" else sid,
                "product": product,
                "seminorms": _FAMILY_DOC[sid],
            }
        )
    return rows


_FAMILY_DOC = {
    "l_p": "(sum |x_n|^p)^(1/p), constant in q",
    "c0": "sup_n |x_n|, constant in q",
    "l1": "sum |x_n|, constant in q",
    "entire_hadamard": "sum |x_n| q^n",
    "entire_cauchy": "sup_{|z|<=q} |sum x_n z^n|, bounded above by sum |x_n| q^n",
    "omega_coord": "sup_{n<=q} |x_n|",
    "omega_cauchy": "sum_{n<=q} |x_n|",
}


def _check_q(q: int) -> int:
    q = int(q)
    if q < 1:
        raise ValueError("seminorm index q must be >= 1")
    return q


@_quiet
def _seminorms(space: SpaceSpec, q: int, count: np.ndarray, n: np.ndarray, log: np.ndarray) -> list[float]:
    """log ||x_i||_q of every item x_i of a batch (``count`` coefficients per
    item, their indices ``n`` and log-moduli ``log``, item by item, by
    ascending index): the omega horizon keeps n <= q, entire weights add
    n log q and l_p multiplies by p; then c0 and omega_coord take the max of
    each item, the rest the log of the sum of its exp(t), and l_p its p-th
    root.  Each max runs over the item in index order, and each log-sum is
    max + log fsum exp(t - max), with ``math``'s exp, fsum and log."""
    sid, k = space.space_id, len(count)
    if sid in ("omega_coord", "omega_cauchy"):
        cut = n <= q
        count, log = np.bincount(np.arange(k).repeat(count)[cut], minlength=k), log[cut]
    elif sid in ("entire_hadamard", "entire_cauchy"):
        log = log + n * math.log(q)
    elif sid == "l_p":
        log = log * space.p
    if sid in ("c0", "omega_coord"):
        ends = count.cumsum().tolist()
        logs = log.tolist()
        return [max(logs[i:j], default=NEG_INF) for i, j in zip([0, *ends], ends)]
    live = log != NEG_INF
    if not live.all():
        count, log = np.bincount(np.arange(k).repeat(count)[live], minlength=k), log[live]
    # the log-sum of each item: its max, plus log fsum exp(t - max)
    ends = count.cumsum()
    some = count.nonzero()[0]
    start = (ends - count)[some]
    top = np.maximum.reduceat(log, start) if len(some) else log[:0]
    scaled = list(map(math.exp, (log - top.repeat(count[some])).tolist()))
    sums = map(math.fsum, map(scaled.__getitem__, map(slice, start.tolist(), ends[some].tolist())))
    out = [NEG_INF] * k
    for i, t, total in zip(some.tolist(), top.tolist(), sums):
        out[i] = t if t == math.inf else t + math.log(total)
    if sid == "l_p":
        out = [t / space.p if t not in (NEG_INF, math.inf) else t for t in out]
    return out


def seminorm_eval(space: SpaceSpec, q: int, x: FiniteSeq) -> float:
    """log ||x||_q (-inf encodes the exact zero): exact, except that the
    sup-circle norm of entire_cauchy is bounded above by sum |x_n| q^n."""
    batch = SeqBatch.of([x])
    return _seminorms(space, _check_q(q), batch.count, batch.n, batch.log)[0]


def shift_norms(space: SpaceSpec, q: int, w: WeightSpec, xs: SeqBatch, a, ys: list | None = None) -> list[float]:
    """``seminorm_eval(space, q, backward_iterate(w, x, a) - y)`` for every item
    x of ``xs``: ``a`` is one shift count or one per item, and ``ys`` one
    FiniteSeq or None for each of the first len(ys) items, None (or no ys)
    for no subtraction.  Bit for bit, since the shift is ``shift_back``'s,
    which reads the weights once for all items, the subtraction is
    WideComplex arithmetic at the indices of y alone, and the seminorm is
    ``_seminorms``'."""
    shifted = shift_back(w, xs, a)
    q = _check_q(q)
    if ys is not None:
        shifted = _subtract(shifted, ys)
    return _seminorms(space, q, shifted.count, shifted.n, shifted.log)


def _subtract(xs: SeqBatch, ys: list) -> SeqBatch:
    """x - y for each of the first len(ys) items x of xs and its y in ``ys``
    (None: x), as ``FiniteSeq.__sub__`` forms it; the other items as they are."""
    start = (xs.count.cumsum() - xs.count).tolist()
    count = xs.count.copy()
    parts, done = [], 0
    for i, y in enumerate(ys):
        if y is None:
            continue
        lo, hi = start[i], start[i] + int(count[i])
        n_i, log_i, ph_i = xs.n[lo:hi].tolist(), xs.log[lo:hi].tolist(), xs.ph[lo:hi].tolist()
        for k, c in y.items():
            at = bisect_left(n_i, k)
            if at < len(n_i) and n_i[at] == k:
                d = WideComplex(log_i[at], ph_i[at]) - c
                if d.is_zero:
                    del n_i[at], log_i[at], ph_i[at]
                    continue
            else:
                d = -c
                n_i.insert(at, k)
                log_i.insert(at, 0.0)
                ph_i.insert(at, 0.0)
            log_i[at], ph_i[at] = d.log_mag, d.phase
        count[i] = len(n_i)
        parts += [(xs.n[done:lo], xs.log[done:lo], xs.ph[done:lo]),
                  (np.array(n_i, dtype=np.int64), np.array(log_i, dtype=np.float64), np.array(ph_i, dtype=np.float64))]
        done = hi
    parts.append((xs.n[done:], xs.log[done:], xs.ph[done:]))
    return SeqBatch(count, *map(np.concatenate, zip(*parts)))


def basis_log_array(space: SpaceSpec, q: int, idx: np.ndarray) -> np.ndarray:
    """log ||e_n||_q in closed form over an index array."""
    q = _check_q(q)
    sid = space.space_id
    if sid in ("l_p", "c0", "l1"):
        return np.zeros(len(idx))
    if sid in ("entire_hadamard", "entire_cauchy"):
        return idx * math.log(q)
    return np.where(idx <= q, 0.0, NEG_INF)

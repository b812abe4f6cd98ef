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
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, FiniteSeq, log_sum
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


def seminorm_eval(space: SpaceSpec, q: int, x: FiniteSeq) -> float:
    """log ||x||_q (-inf encodes the exact zero): exact, except that the
    sup-circle norm of entire_cauchy is bounded above by sum |x_n| q^n."""
    q = _check_q(q)
    sid = space.space_id
    if sid == "l_p":
        p = space.p
        total = log_sum(c.log_mag * p for _, c in x.items())
        return total / p if total not in (NEG_INF, math.inf) else total
    if sid == "c0":
        return max((c.log_mag for _, c in x.items()), default=NEG_INF)
    if sid == "l1":
        return log_sum(c.log_mag for _, c in x.items())
    if sid in ("entire_hadamard", "entire_cauchy"):
        lq = math.log(q)
        return log_sum(c.log_mag + n * lq for n, c in x.items())
    if sid == "omega_coord":
        return max((c.log_mag for n, c in x.items() if n <= q), default=NEG_INF)
    return log_sum(c.log_mag for n, c in x.items() if n <= q)  # omega_cauchy


def basis_log_array(space: SpaceSpec, q: int, idx: np.ndarray) -> np.ndarray:
    """log ||e_n||_q in closed form over an index array."""
    q = _check_q(q)
    sid = space.space_id
    if sid in ("l_p", "c0", "l1"):
        return np.zeros(len(idx))
    if sid in ("entire_hadamard", "entire_cauchy"):
        return idx * math.log(q)
    return np.where(idx <= q, 0.0, NEG_INF)

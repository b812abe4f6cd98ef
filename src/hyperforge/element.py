"""Polynomial elements of the algebra generated by the construction outputs."""
from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

from .core import format_complex_literal
from .errors import ElementError


def _exponent(b) -> int:
    """``b`` as an int; a bool, a float or any other non-integer exponent is
    an ElementError, never truncated."""
    if not isinstance(b, bool):
        try:
            return operator.index(b)
        except TypeError:
            pass
    raise ElementError(f"exponent {b!r} is not an integer")


@dataclass(frozen=True)
class AlgebraElement:
    """A polynomial sum c_beta * (x1^beta_1) ... (xK^beta_K) with no constant term.

    ``coeffs`` maps exponent multi-indices (tuples of ints, numpy integers
    included, over the K generators) to complex coefficients.  The all-zero
    multi-index is rejected: the algebra statements concern non-constant
    polynomials only.
    """

    coeffs: dict[tuple[int, ...], complex]
    num_generators: int

    def __post_init__(self):
        if self.num_generators < 1:
            raise ElementError("element needs at least one generator slot")
        clean = {}
        for beta, c in self.coeffs.items():
            beta = tuple(_exponent(b) for b in beta)
            if len(beta) != self.num_generators:
                raise ElementError(
                    f"exponent tuple {beta} does not match {self.num_generators} generators"
                )
            if any(b < 0 for b in beta):
                raise ElementError("exponents must be nonnegative")
            c = complex(c)
            if c == 0:
                continue
            if sum(beta) == 0:
                raise ElementError("constant term present; algebra elements must vanish at 0")
            clean[beta] = clean.get(beta, 0) + c
        clean = {b: c for b, c in clean.items() if c != 0}
        if not all(cmath.isfinite(c) for c in clean.values()):
            raise ElementError("element coefficients must be finite")
        if not clean:
            raise ElementError("element has no nonzero term")
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree_max(self) -> int:
        return max(sum(b) for b in self.coeffs)

    def top_form(self) -> dict[tuple[int, ...], complex]:
        """Coefficients of the highest total degree."""
        m = self.degree_max
        return {b: c for b, c in self.coeffs.items() if sum(b) == m}

    def describe(self) -> str:
        parts = []
        for beta, c in sorted(self.coeffs.items()):
            mono = "*".join(
                f"x{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(beta) if e > 0
            )
            parts.append(mono if c == 1 else f"({format_complex_literal(c)})*{mono}")
        return " + ".join(parts)

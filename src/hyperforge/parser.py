"""Tiny expression grammar for algebra elements.

    expr   := term (('+'|'-') term)*
    term   := complex ('*' factor)+ | factor (('*')? factor)*
    factor := 'x' int ('^' int)?

Complex literals are written a+bi without spaces ('2', '0.5i', '1+2i', 'i')
and must be finite; a coefficient must be glued to its factors with '*'.
Terms with no factor (or total degree zero) are constant terms and rejected
semantically.
"""
from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

from .element import AlgebraElement
from .errors import ParseError, SemanticError

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<xvar>x\d+)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[+-]\d*(?:\.\d+)?(?:[eE][+-]?\d+)?i
               |\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?
               |i)
      | (?P<op>[*^+\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append(_Token(kind, m.group(), m.start()))
    return out


def _parse_complex(tok: _Token) -> complex:
    raw = tok.text
    if raw == "i":
        return 1j
    try:
        z = complex(raw.replace("i", "j"))
    except ValueError as exc:
        raise ParseError(f"bad complex literal {raw!r}", tok.pos) from exc
    if not cmath.isfinite(z):
        raise SemanticError(f"complex literal {raw!r} at position {tok.pos} is not finite")
    return z


@dataclass(frozen=True)
class ElementExpr:
    """Parsed element: a sum of (coefficient, exponent-map) terms."""

    source: str
    terms: tuple[tuple[complex, tuple[tuple[int, int], ...]], ...]
    num_generators: int

    def element(self) -> AlgebraElement:
        merged: dict[tuple[int, ...], complex] = {}
        for coef, expmap in self.terms:
            beta = [0] * self.num_generators
            for k, e in expmap:
                beta[k - 1] += e
            key = tuple(beta)
            merged[key] = merged.get(key, 0) + complex(coef)
        return AlgebraElement(merged, self.num_generators)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> ElementExpr:
        if not self.toks:
            raise ParseError("empty expression", 0)
        terms = [self.term()]
        while (tok := self.peek()) is not None:
            if tok.kind != "op" or tok.text not in "+-":
                raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.pos)
            self.i += 1
            coef, expmap = self.term()
            terms.append((-coef if tok.text == "-" else coef, expmap))
        width = max((k for _, em in terms for k, _ in em), default=0)
        return ElementExpr(self.text, tuple(terms), width)

    def term(self) -> tuple[complex, tuple[tuple[int, int], ...]]:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        coef = 1 + 0j
        factors: dict[int, int] = {}
        if tok.kind == "num":
            coef = _parse_complex(self.take())
            nxt = self.peek()
            if nxt is None or nxt.kind != "op" or nxt.text != "*":
                raise SemanticError(
                    f"constant term {tok.text!r} at position {tok.pos}; "
                    "elements must have no constant part"
                )
            while (nxt := self.peek()) is not None and nxt.kind == "op" and nxt.text == "*":
                self.i += 1
                self.factor(factors)
        else:
            self.factor(factors)
            while (nxt := self.peek()) is not None:
                if nxt.kind == "xvar":
                    self.factor(factors)
                elif nxt.kind == "op" and nxt.text == "*":
                    self.i += 1
                    self.factor(factors)
                else:
                    break
        if sum(factors.values()) == 0:
            raise SemanticError(f"term at position {tok.pos} has total degree zero")
        return coef, tuple(sorted(factors.items()))

    def factor(self, factors: dict[int, int]) -> None:
        tok = self.take()
        if tok.kind != "xvar":
            raise ParseError(f"expected a generator like x1, found {tok.text!r}", tok.pos)
        k = int(tok.text[1:])
        if k < 1:
            raise ParseError("generator indices start at x1", tok.pos)
        e = 1
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "^":
            self.i += 1
            etok = self.take()
            m = re.match(r"\d+", etok.text) if etok.kind == "num" else None
            if m is None:
                raise ParseError("exponent must be a plain integer", etok.pos)
            e = int(m.group())
            rest = etok.text[m.end():]
            if rest:
                # the greedy complex-literal lexer ate past the exponent; re-lex the tail
                for off, tok2 in enumerate(_tokenize(rest)):
                    self.toks.insert(
                        self.i + off, _Token(tok2.kind, tok2.text, etok.pos + m.end() + tok2.pos)
                    )
        factors[k] = factors.get(k, 0) + e


def parse_element(text: str, num_generators: int | None = None) -> ElementExpr:
    """Parse an element expression; the generator count defaults to the largest
    index mentioned but can be widened explicitly."""
    expr = _Parser(text).parse()
    if num_generators is not None:
        if num_generators < expr.num_generators:
            raise SemanticError(
                f"expression mentions x{expr.num_generators} but only "
                f"{num_generators} generators are available"
            )
        expr = ElementExpr(expr.source, expr.terms, num_generators)
    return expr

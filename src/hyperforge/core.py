"""Wide-range complex scalars, finite sequences, weights, and shift operators.

The constructions routinely produce magnitudes like ``lambda**a`` or ``a!`` with
``a`` in the millions, far beyond double range.  Scalars are therefore stored in
log-polar form ``(log|z|, arg z)`` and every sum is evaluated with max-rescaled
accumulation: subtract the largest log-magnitude, sum in ordinary doubles,
re-encode.
"""
from __future__ import annotations

import cmath
import math
import operator
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import SearchExhausted, WeightError

NEG_INF = float("-inf")
_U = 2.0**-53  # unit roundoff of float64
_TWO_PI = 2.0 * math.pi
# JSON writes a coefficient as [re, im] only below this; beyond it, log form
_LOG_JSON_LIMIT = 300.0
# decoded seminorm values overflow double past this
_LOG_OVERFLOW = 709.0


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    if -math.pi < phi <= math.pi:
        return phi
    phi = math.fmod(phi, _TWO_PI)
    if phi <= -math.pi:
        phi += _TWO_PI
    elif phi > math.pi:
        phi -= _TWO_PI
    return phi


def log_decode(log_val: float) -> float:
    """exp() that saturates to 0.0 / inf instead of raising or wrapping."""
    if log_val == NEG_INF:
        return 0.0
    if log_val > _LOG_OVERFLOW:
        return math.inf
    try:
        return math.exp(log_val)
    except OverflowError:  # pragma: no cover - guarded above
        return math.inf


_HALF_PI = math.pi / 2.0
# e^{i phase} on the four half-axes, exact so that axis-aligned sums cancel cleanly
_AXIS_UNITS = {0.0: 1.0 + 0j, math.pi: -1.0 + 0j, _HALF_PI: 1j, -_HALF_PI: -1j}


def _unit(phase: float) -> complex:
    """e^{i phase}, exact on the four half-axes."""
    unit = _AXIS_UNITS.get(phase)
    return cmath.exp(1j * phase) if unit is None else unit


def _sum_polar(terms: list[float]) -> tuple[float, float]:
    """(log|s|, arg s) of the sum s of two or more nonzero terms, given as
    log|z| and arg z of each in turn, by max-rescaled accumulation;
    (-inf, 0.0) when they cancel exactly."""
    m = max(terms[::2])
    acc = 0j
    for log_mag, phase in zip(terms[::2], terms[1::2]):
        acc += math.exp(log_mag - m) * _unit(phase)
    if acc == 0:
        return NEG_INF, 0.0
    return m + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


class WideComplex:
    """Complex scalar as (log|z|, arg z); the exact zero has log_mag == -inf.

    Instances are immutable.  Integer powers and the fixed principal m-th root
    (phase divided by m) are exact in the log domain.
    """

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag: float, phase: float = 0.0):
        if log_mag == NEG_INF or log_mag != log_mag:  # NaN log -> zero guard
            object.__setattr__(self, "log_mag", NEG_INF)
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "log_mag", float(log_mag))
            object.__setattr__(self, "phase", wrap_phase(float(phase)))

    def __setattr__(self, *_):
        raise AttributeError("WideComplex is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "WideComplex":
        return cls(NEG_INF, 0.0)

    @classmethod
    def one(cls) -> "WideComplex":
        return cls(0.0, 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "WideComplex":
        z = complex(z)
        if z == 0:
            return cls.zero()
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    # -- predicates / accessors ---------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.log_mag == NEG_INF

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return log_decode(self.log_mag) * _unit(self.phase)

    # -- arithmetic ----------------------------------------------------------
    def __mul__(self, other: "WideComplex") -> "WideComplex":
        if self.is_zero or other.is_zero:
            return WideComplex.zero()
        return WideComplex(self.log_mag + other.log_mag, self.phase + other.phase)

    def __truediv__(self, other: "WideComplex") -> "WideComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by exact zero WideComplex")
        if self.is_zero:
            return WideComplex.zero()
        return WideComplex(self.log_mag - other.log_mag, self.phase - other.phase)

    def __neg__(self) -> "WideComplex":
        if self.is_zero:
            return self
        return WideComplex(self.log_mag, self.phase + math.pi)

    def powi(self, j: int) -> "WideComplex":
        """Exact integer power (j-fold log/phase scaling)."""
        j = int(j)
        if self.is_zero:
            if j > 0:
                return self
            if j == 0:
                return WideComplex.one()
            raise ZeroDivisionError("negative power of zero")
        if j == 1:
            return self
        return WideComplex(self.log_mag * j, self.phase * j)

    def root(self, m: int) -> "WideComplex":
        """Fixed principal m-th root: phase divided into (-pi/m, pi/m]."""
        m = int(m)
        if m < 1:
            raise ValueError("root order must be >= 1")
        if self.is_zero or m == 1:
            return self
        return WideComplex(self.log_mag / m, self.phase / m)

    def __add__(self, other: "WideComplex") -> "WideComplex":
        return WideComplex.sum_of((self, other))

    def __sub__(self, other: "WideComplex") -> "WideComplex":
        return WideComplex.sum_of((self, -other))

    @classmethod
    def sum_of(cls, terms: Iterable["WideComplex"]) -> "WideComplex":
        """Max-rescaled accumulation; exact cancellation yields the exact zero."""
        live = [t for t in terms if not t.is_zero]
        if not live:
            return cls.zero()
        if len(live) == 1:
            return live[0]
        return cls(*_sum_polar([x for t in live for x in (t.log_mag, t.phase)]))

    # -- comparison / io ------------------------------------------------------
    def approx_eq(self, other: "WideComplex", rel: float = 1e-12) -> bool:
        if self.is_zero and other.is_zero:
            return True
        diff = self - other
        if diff.is_zero:
            return True
        scale = max(self.log_mag, other.log_mag)
        if scale == NEG_INF:
            return False
        return diff.log_mag - scale <= math.log(rel)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WideComplex)
            and self.log_mag == other.log_mag
            and self.phase == other.phase
        )

    def __hash__(self):
        return hash((self.log_mag, self.phase))

    def __repr__(self) -> str:
        if self.is_zero:
            return "WideComplex(0)"
        if abs(self.log_mag) <= _LOG_JSON_LIMIT:
            return f"WideComplex({self.to_complex():.6g})"
        return f"WideComplex(log_mag={self.log_mag:.6g}, phase={self.phase:.6g})"

    def to_json(self):
        """Decoded [re, im] at human scale where that pair decodes back to this
        value bit for bit, {"log_mag","phase"} otherwise, so that
        ``from_json(to_json(c)) == c`` for every c."""
        if abs(self.log_mag) <= _LOG_JSON_LIMIT or self.is_zero:
            z = self.to_complex()
            if WideComplex.from_complex(z) == self:
                return [z.real, z.imag]
        return {"log_mag": self.log_mag, "phase": self.phase}

    @classmethod
    def from_json(cls, data) -> "WideComplex":
        if isinstance(data, dict):
            return cls(float(data["log_mag"]), float(data["phase"]))
        re, im = data
        return cls.from_complex(complex(re, im))


ZERO = WideComplex.zero()
ONE = WideComplex.one()


class FiniteSeq:
    """Finitely supported complex sequence; stored coefficients are nonzero."""

    __slots__ = ("_coef", "_indices")

    def __init__(self, coef: Mapping[int, WideComplex] | None = None):
        clean = {}
        for n, c in (coef or {}).items():
            n = int(n)
            if n < 0:
                raise ValueError("sequence indices start at 0")
            if not c.is_zero:
                clean[n] = c
        object.__setattr__(self, "_coef", clean)
        object.__setattr__(self, "_indices", tuple(sorted(clean)))

    def __setattr__(self, *_):
        raise AttributeError("FiniteSeq is immutable")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls) -> "FiniteSeq":
        return cls({})

    @classmethod
    def basis(cls, n: int, scale: WideComplex = ONE) -> "FiniteSeq":
        return cls({n: scale})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, complex]]) -> "FiniteSeq":
        out: dict[int, list[WideComplex]] = {}
        for n, z in pairs:
            out.setdefault(int(n), []).append(WideComplex.from_complex(z))
        return cls({n: WideComplex.sum_of(terms) for n, terms in out.items()})

    # -- accessors ------------------------------------------------------------
    @property
    def support(self) -> tuple[int, ...]:
        return self._indices

    def coef(self, n: int) -> WideComplex:
        return self._coef.get(n, ZERO)

    def items(self) -> Iterator[tuple[int, WideComplex]]:
        for n in self._indices:
            yield n, self._coef[n]

    @property
    def is_zero(self) -> bool:
        return not self._indices

    @property
    def max_index(self) -> int:
        if not self._indices:
            raise ValueError("empty sequence has no max_index")
        return self._indices[-1]

    @property
    def min_index(self) -> int:
        if not self._indices:
            raise ValueError("empty sequence has no min_index")
        return self._indices[0]

    def __len__(self) -> int:
        return len(self._indices)

    # -- linear structure -------------------------------------------------------
    def __add__(self, other: "FiniteSeq") -> "FiniteSeq":
        out = dict(self._coef)
        for n, c in other.items():
            if n in out:
                out[n] = out[n] + c
            else:
                out[n] = c
        return FiniteSeq(out)

    def __sub__(self, other: "FiniteSeq") -> "FiniteSeq":
        out = dict(self._coef)
        for n, c in other.items():
            if n in out:
                out[n] = out[n] - c
            else:
                out[n] = -c
        return FiniteSeq(out)

    def scale(self, factor: WideComplex) -> "FiniteSeq":
        if factor.is_zero:
            return FiniteSeq.zero()
        return FiniteSeq({n: c * factor for n, c in self.items()})

    # -- comparison -------------------------------------------------------------
    def rel_distance(self, other: "FiniteSeq") -> float:
        """sup-norm distance divided by the larger sup-norm (0.0 when both zero)."""
        scale = NEG_INF
        for seq in (self, other):
            for _, c in seq.items():
                scale = max(scale, c.log_mag)
        if scale == NEG_INF:
            return 0.0
        worst = NEG_INF
        for n in set(self._indices) | set(other._indices):
            d = self.coef(n) - other.coef(n)
            if not d.is_zero:
                worst = max(worst, d.log_mag)
        return log_decode(worst - scale) if worst != NEG_INF else 0.0

    def approx_eq(self, other: "FiniteSeq", rel: float = 1e-10) -> bool:
        return self.rel_distance(other) <= rel

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSeq) and self._coef == other._coef

    def __hash__(self):
        return hash(self._indices)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {c!r}" for n, c in list(self.items())[:6])
        more = " ..." if len(self) > 6 else ""
        return f"FiniteSeq({{{inner}{more}}})"

    # -- io ----------------------------------------------------------------------
    def to_json(self) -> dict:
        coeffs = []
        for n, c in self.items():
            enc = c.to_json()
            if isinstance(enc, list):
                coeffs.append([n, enc[0], enc[1]])
            else:
                coeffs.append([n, enc])
        return {"coeffs": coeffs}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteSeq":
        """Entries are [n, re, im] or [n, {"log_mag", "phase"}]; an index that
        is not an int n >= 0, or a part that is not finite, raises ValueError."""
        out = {}
        for entry in data["coeffs"]:
            if len(entry) == 3:
                n, *payload = entry
            else:
                n, payload = entry
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"sequence index {n!r} is not an integer n >= 0")
            parts = (payload["log_mag"], payload["phase"]) if isinstance(payload, dict) else payload
            if not all(math.isfinite(v) for v in parts):
                raise ValueError(f"coefficient {n} has a part that is not finite")
            c = WideComplex.from_json(payload)
            if not c.is_zero:
                out[n] = c
        return cls(out)


def parse_complex_literal(text: str) -> complex:
    """Parse 'a+bi' style literals ('2', '1+2i', '-0.5i', 'i')."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise WeightError(f"bad complex literal {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise WeightError(f"non-finite complex literal {text!r}")
    return z


def format_complex_literal(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


# float64 holds every integer below 2^53 exactly; at or past it a closed form
# would be evaluated at a rounded index
_INDEX_LIMIT = 1 << 53

# log n! is read from this table below the cutoff and from the Stirling series
# at or past it
_LOG_FACTORIAL_CUT = 256
_LOG_FACTORIAL_TABLE = [math.log(f) for f in accumulate(range(1, _LOG_FACTORIAL_CUT), operator.mul, initial=1)]
_LOG_FACTORIAL_ARRAY = np.array(_LOG_FACTORIAL_TABLE)
# Stirling coefficients B_2k / (2k (2k - 1)) and log(2 pi)/2 - 1/2, each rounded once
_S1, _S3, _S5 = 1 / 12, 1 / 360, 1 / 1260
_HALF_LOG_2PI_LESS_HALF = 0.41893853320467274178032973640561763986
# entries per pass of the array path, so its temporaries stay small
_LOG_FACTORIAL_CHUNK = 1 << 14
_np_log = np.log  # the scalar path's logarithm, looked up once


def log_factorial(n: int) -> float:
    """log n! for an integer 0 <= n < 2^53, within

        |log_factorial(n) - log n!| <= 5 * 2^-53 * (n + 1) * log(n + 1).

    Below 256 it is math.log(n!), from a table whose every entry meets the
    bound.  From 256 on it is the Stirling series for log Gamma(x) at x = n + 1,

        (x - 1/2)(log x - 1) + log(2 pi)/2 - 1/2 + 1/(12 x) - 1/(360 x^3) + 1/(1260 x^5),

    whose truncation error for real x > 0 is below the first omitted term,
    1/(1680 x^7) < 1e-20 (NIST DLMF 5.11(ii)).  In doubles x, log x - 1 and,
    up to x = 2^52, x - 1/2 are exact.  With a logarithm within 1 ulp the
    rounding errors (Higham, ch. 3) are at most 2u x log x from log x, u x log x
    each from the product, the final sum and x - 1/2 past 2^52, and under
    1e-15 from the series, where u = 2^-53; the bound holds with room for
    the truncation.  It is at most 6.2 ulp of log n! at n = 256, falling
    towards 5 ulp as n grows.

    The logarithm is numpy's and the rest is the same operations in the same
    order as ``_log_factorial_array``, so both give the same values bit for bit.
    """
    if n < _LOG_FACTORIAL_CUT:
        return _LOG_FACTORIAL_TABLE[n]
    x = n + 1.0
    s = 1.0 / x
    p = s * s
    return (x - 0.5) * (float(_np_log(x)) - 1.0) + ((_S1 - (_S3 - p * _S5) * p) * s + _HALF_LOG_2PI_LESS_HALF)


def _log_factorial_array(x: np.ndarray) -> np.ndarray:
    """log n! at the integers n held in the float array x, computed in place,
    chunk by chunk; the values of ``log_factorial``, bit for bit."""
    size = min(len(x), _LOG_FACTORIAL_CHUNK)
    s_buf, p_buf, q_buf = np.empty(size), np.empty(size), np.empty(size)
    for start in range(0, len(x), _LOG_FACTORIAL_CHUNK):
        xc = x[start : start + _LOG_FACTORIAL_CHUNK]
        s, p, q = s_buf[: len(xc)], p_buf[: len(xc)], q_buf[: len(xc)]
        small = xc < _LOG_FACTORIAL_CUT
        table_at = xc[small].astype(np.intp)
        xc += 1.0
        np.divide(1.0, xc, out=s)
        np.multiply(s, s, out=p)
        np.multiply(p, _S5, out=q)
        np.subtract(_S3, q, out=q)
        q *= p
        np.subtract(_S1, q, out=q)
        q *= s
        q += _HALF_LOG_2PI_LESS_HALF
        np.log(xc, out=s)
        s -= 1.0
        xc -= 0.5
        xc *= s
        xc += q
        xc[small] = _LOG_FACTORIAL_ARRAY[table_at]
    return x


class WeightSpec:
    """Weight sequence w with w_0 = 1 and products v_n = prod_{k<=n} w_k.

    Kinds: ``const`` (w_n = lambda), ``maclane`` (w_n = n for n >= 1), and
    ``table`` (finite explicit list for w_1, w_2, ...).  log|v_n| and arg v_n
    are evaluated at the indices asked for, from per-entry closed forms
    (n*log|lambda| and n*arg(lambda) for const, log n! for maclane),
    so there is no cumulative rounding and nothing is kept per index.  A table
    weight reads the cumulative sums of its entries, built once.  An index at
    or past 2^53 raises SearchExhausted; an index past the end of a table,
    WeightError.
    """

    def __init__(self, kind: str, *, value: complex | None = None, table: list[complex] | None = None):
        if kind not in ("const", "maclane", "table"):
            raise WeightError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.value = None
        self.table = None
        self._table_ph = None  # table: arg v_n for n = 0..len, unless every w_n is real
        if kind == "const":
            if value is None or value == 0:
                raise WeightError("constant weight must be nonzero")
            self.value = complex(value)
            self._log_abs = math.log(abs(self.value))
            self._arg = math.atan2(self.value.imag, self.value.real)
        elif kind == "table":
            if not table:
                raise WeightError("weight table is empty")
            for i, wv in enumerate(table):
                z = complex(wv)
                if z == 0:
                    raise WeightError(f"weight table has zero entry w_{i + 1}", index=i + 1)
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise WeightError(f"weight table has non-finite entry w_{i + 1}", index=i + 1)
            self.table = [complex(wv) for wv in table]
            arr = np.array(self.table, dtype=np.complex128)
            self._table_log = np.cumsum(np.concatenate(([0.0], np.log(np.abs(arr)))))
            self._table_log.flags.writeable = False  # v_log_array hands out views of it
            phases = np.angle(arr)
            if np.any(phases != 0.0):
                self._table_ph = np.cumsum(np.concatenate(([0.0], phases)))
                self._table_ph.flags.writeable = False

    # -- parsing / serialization ------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "WeightSpec":
        spec = spec.strip()
        if spec == "maclane":
            return cls("maclane")
        if spec.startswith("const:"):
            return cls("const", value=parse_complex_literal(spec[len("const:"):]))
        if spec.startswith("table:"):
            import json as _json

            path = spec[len("table:"):]
            try:
                with open(path) as fh:
                    raw = _json.load(fh)
            except (OSError, ValueError) as exc:
                raise WeightError(f"cannot read weight table {path!r}: {exc}") from exc
            if not isinstance(raw, list):
                raise WeightError("weight table file must hold a JSON list of [re, im] pairs")
            try:
                table = [complex(entry[0], entry[1]) for entry in raw]
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise WeightError(f"weight table entries must be [re, im] pairs: {exc!r}") from exc
            return cls("table", table=table)
        raise WeightError(f"bad weight spec {spec!r}; use const:<a+bi>, maclane, or table:<path>")

    def to_json(self) -> dict:
        if self.kind == "const":
            return {"kind": "const", "value": [self.value.real, self.value.imag]}
        if self.kind == "maclane":
            return {"kind": "maclane"}
        return {"kind": "table", "w": [[z.real, z.imag] for z in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "WeightSpec":
        kind = data["kind"]
        if kind == "const":
            re, im = data["value"]
            return cls("const", value=complex(re, im))
        if kind == "maclane":
            return cls("maclane")
        return cls("table", table=[complex(re, im) for re, im in data["w"]])

    def describe(self) -> str:
        if self.kind == "const":
            return f"const:{format_complex_literal(self.value)}"
        if self.kind == "maclane":
            return "maclane"
        return f"table[{len(self.table)}]"

    # -- log|v_n| and arg v_n ----------------------------------------------------------
    @property
    def max_index(self) -> float:
        return len(self.table) if self.kind == "table" else math.inf

    def _check(self, lo: int, top: int) -> None:
        """Raise unless v_n can be evaluated at every index lo <= n <= top."""
        if lo < 0:
            raise ValueError(f"weight index {lo} is negative")
        if top > self.max_index:
            raise WeightError(f"weight table of length {len(self.table)} exhausted at index {top}", index=top)
        if top >= _INDEX_LIMIT:
            raise SearchExhausted(
                f"weight index {top} lies at or past 2^53, where float64 stops holding every integer", index=top
            )

    def _log1(self, n: int) -> float:
        """log|v_n| at one checked index."""
        if self.kind == "const":
            return n * self._log_abs + 0.0  # + 0.0 turns the -0.0 at n = 0 into log v_0 = +0.0
        if self.kind == "maclane":
            return log_factorial(n)
        return float(self._table_log[n])

    def _phase1(self, n: int) -> float:
        """arg v_n, unwrapped, at one checked index."""
        if self.kind == "const":
            return n * self._arg + 0.0
        return 0.0 if self._table_ph is None else float(self._table_ph[n])

    def _log_of(self, x: np.ndarray) -> np.ndarray:
        """log|v_n| at the indices n held in the float array x (const and
        maclane), computed in place."""
        if self.kind == "const":
            x *= self._log_abs
            if self._log_abs < 0.0:
                x += 0.0  # the -0.0 at n = 0 becomes log v_0 = +0.0
            return x
        return _log_factorial_array(x)

    def _arg_ratio(self, top: np.ndarray, low: np.ndarray) -> np.ndarray | None:
        """wrap_phase(arg v_top - arg v_low) at the checked indices of two
        integer arrays, as ``ratio_root`` gives it for m = 1; None where
        every w_n is real and positive, so every such phase is 0.0."""
        if self.kind == "const" and self._arg != 0.0:
            return _wrap((top * self._arg + 0.0) - (low * self._arg + 0.0))
        if self._table_ph is None:
            return None
        return _wrap(self._table_ph[top] - self._table_ph[low])

    # -- access ---------------------------------------------------------------------------
    def v_log(self, n):
        """log|v_n| at an index n, or at every index of an integer array n."""
        if not isinstance(n, np.ndarray):
            self._check(n, n)
            return self._log1(n)
        self._check(int(n.min(initial=0)), int(n.max(initial=0)))
        if self.kind == "table":
            return self._table_log[n]
        return self._log_of(n.astype(np.float64))

    def v(self, n: int) -> WideComplex:
        """v_n = prod_{k=0}^{n} w_k."""
        self._check(n, n)
        return WideComplex(self._log1(n), wrap_phase(self._phase1(n)))

    def v_log_array(self, upto: int, lo: int = 0) -> np.ndarray:
        """log|v_n| for n = lo..upto, as a read-only array; weight indices start at 0."""
        self._check(lo, upto)
        if self.kind == "table":
            return self._table_log[lo : upto + 1]
        out = self._log_of(np.arange(lo, upto + 1, dtype=np.float64))
        out.flags.writeable = False
        return out

    def ratio(self, n: int, a: int) -> WideComplex:
        """v_{n+a} / v_n."""
        return self.ratio_root(n, a, 1)

    def ratio_root(self, n: int, a: int, m: int) -> WideComplex:
        """w_{n+1}^{1/m} ... w_{n+a}^{1/m} with fixed principal roots per factor:
        the log difference and phase difference of v_{n+a} / v_n divided by m
        (exactly ``ratio`` for m = 1)."""
        if a < 0:
            raise ValueError("shift count must be >= 0")
        if n < 0:
            raise ValueError(f"weight index {n} is negative")
        if m < 1:
            raise ValueError("root order must be >= 1")
        if a == 0:
            return ONE
        top = n + a
        if self.kind == "maclane" and top < _INDEX_LIMIT:  # _log1 inline: this runs once per coefficient
            dlog, dph = log_factorial(top) - log_factorial(n), 0.0
        else:
            self._check(n, top)
            dlog, dph = self._log1(top) - self._log1(n), self._phase1(top) - self._phase1(n)
        return WideComplex(dlog / m, wrap_phase(dph / m))


# -- sequence operations ------------------------------------------------------------


def coordinatewise_product(x: FiniteSeq, y: FiniteSeq) -> FiniteSeq:
    """(xy)_n = x_n * y_n; disjoint supports give the exact zero sequence."""
    out = {}
    small, big = (x, y) if len(x) <= len(y) else (y, x)
    for n, c in small.items():
        d = big.coef(n)
        if not d.is_zero:
            out[n] = c * d
    return FiniteSeq(out)


def coordinatewise_power(x: FiniteSeq, j: int) -> FiniteSeq:
    """Coordinatewise j-th power; equals j-fold coordinatewise_product exactly."""
    if j < 1:
        raise ValueError("coordinatewise power needs j >= 1")
    return FiniteSeq({n: c.powi(j) for n, c in x.items()})


class SeqBatch(NamedTuple):
    """Finite sequences laid end to end, as the array kernels read them:
    item i holds ``count[i]`` stored coefficients, by ascending index, as the
    index ``n``, ``log|c|`` and ``arg c`` of each."""

    count: np.ndarray
    n: np.ndarray
    log: np.ndarray
    ph: np.ndarray

    @classmethod
    def of(cls, seqs: list[FiniteSeq]) -> "SeqBatch":
        """The batch of ``seqs``; an index at or past 2^53 raises SearchExhausted,
        as a weight read there would."""
        top = max((x._indices[-1] for x in seqs if x._indices), default=0)
        if top >= _INDEX_LIMIT:
            raise SearchExhausted(
                f"sequence index {top} lies at or past 2^53, where float64 stops holding every integer", index=top
            )
        coefs = [c for x in seqs for c in map(x._coef.__getitem__, x._indices)]
        return cls(np.array([len(x._indices) for x in seqs], dtype=np.int64),
                   np.array([n for x in seqs for n in x._indices], dtype=np.int64),
                   np.array([c.log_mag for c in coefs], dtype=np.float64),
                   np.array([c.phase for c in coefs], dtype=np.float64))

    def seqs(self) -> list[FiniteSeq]:
        """The items as sequences."""
        ends = self.count.cumsum().tolist()
        n = self.n.tolist()
        coefs = list(map(WideComplex, self.log.tolist(), self.ph.tolist()))
        return [FiniteSeq(dict(zip(n[i:j], coefs[i:j]))) for i, j in zip([0, *ends], ends)]

    def take(self, items) -> "SeqBatch":
        """The items ``items`` of this batch (repeats allowed), in that order."""
        count = self.count[items]
        ends = count.cumsum()
        at = np.arange(ends[-1] if len(ends) else 0) + (self.count.cumsum() - self.count)[items].repeat(count)
        at -= (ends - count).repeat(count)
        return SeqBatch(count, self.n[at], self.log[at], self.ph[at])


def _cat(batches: list[SeqBatch]) -> SeqBatch:
    """The items of ``batches``, one batch after the other."""
    return SeqBatch(*map(np.concatenate, zip(*batches)))


def _wrap(phi: np.ndarray) -> np.ndarray:
    """``wrap_phase`` at every entry of phi (fmod is exact, so it matches bit for bit)."""
    phi = np.fmod(phi, _TWO_PI)
    np.add(phi, _TWO_PI, out=phi, where=phi <= -math.pi)
    np.subtract(phi, _TWO_PI, out=phi, where=phi > math.pi)
    return phi


def _floats(f, *args: np.ndarray) -> np.ndarray:
    """``math`` function f at every entry of its argument arrays: numpy's
    exp, log and atan2 are not those of ``math`` bit for bit."""
    return np.fromiter(map(f, *(x.tolist() for x in args)), dtype=np.float64, count=len(args[0]))


# past double range a log sum overflows to inf or inf - inf gives NaN, silently
# in the scalar path; the kernels read both as that path does
_quiet = np.errstate(over="ignore", invalid="ignore")
# the axis units of ``_unit`` by k, at phase k pi/2 for k = -1, 0, 1, 2
_AXIS = np.array([_AXIS_UNITS[k * _HALF_PI] for k in (-1, 0, 1, 2)])


@_quiet
def convolve(xs: SeqBatch, ys: SeqBatch) -> SeqBatch:
    """The Cauchy products z = x * y of item i of xs with item i of ys, for
    every i: z_n = sum_{k<=n} x_k y_{n-k}.

    Every output coefficient is formed by the float operations of the scalar
    convolution, in its order, so the sums keep their rounding (N. J.
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 4).  A term x_k y_{n-k} is (log|x_k| + log|y_{n-k}|, wrap_phase of
    the arg sum), as ``WideComplex.__mul__`` forms it, and a term whose log
    is -inf or NaN is the zero, which the sum drops.  A z_n of one term is
    that term; one of several is ``_sum_polar`` of them (``_sum_runs``),
    taken x-major then y-minor, which a stable sort keeps.
    """
    k = len(xs.count)
    per_x = ys.count.repeat(xs.count)  # the terms of each x coefficient
    ends = per_x.cumsum()
    xi = np.arange(len(per_x)).repeat(per_x)
    yi = np.arange(ends[-1] if len(ends) else 0)
    yi += ((ys.count.cumsum() - ys.count).repeat(xs.count) + per_x - ends).repeat(per_x)
    log = xs.log[xi] + ys.log[yi]
    live = (log > NEG_INF).nonzero()[0]  # not -inf, not NaN
    xi, yi = xi[live], yi[live]
    n = xs.n[xi] + ys.n[yi]
    item = np.arange(k).repeat(xs.count)[xi]
    order = np.lexsort((n, item))
    n, item, log = n[order], item[order], log[live[order]]
    ph = _wrap(xs.ph[xi[order]] + ys.ph[yi[order]])
    # the output coefficients, one run of terms each
    cut = np.empty(len(n), dtype=bool)
    cut[:1] = True
    np.not_equal(n[1:], n[:-1], out=cut[1:])
    cut[1:] |= item[1:] != item[:-1]
    edges = np.concatenate((cut.nonzero()[0], [len(n)]))
    start, size = edges[:-1], edges[1:] - edges[:-1]
    log_z, ph_z, n, item = log[start], ph[start], n[start], item[start]
    many = (size > 1).nonzero()[0]
    if len(many):
        log_z[many], ph_z[many] = _sum_runs(log, ph, start[many], size[many])
        keep = (log_z > NEG_INF).nonzero()[0]
        log_z, ph_z, n, item = log_z[keep], ph_z[keep], n[keep], item[keep]
    return SeqBatch(np.bincount(item, minlength=k), n, log_z, ph_z)


def _sum_runs(log: np.ndarray, ph: np.ndarray, start: np.ndarray, size: np.ndarray):
    """``_sum_polar`` of each run of ``size`` terms from ``start``, by its
    float operations in its order: (log|s|, arg s), and (-inf, 0.0) where
    the terms cancel exactly.  A term is e = math.exp(log - max) times its
    ``_unit``, a float times a complex as CPython multiplies them: (e cos,
    e sin) up to the sign of a zero part, which is what cmath.exp(log - max
    + i phase) gives, and on the four axes e times the exact unit.  Each sum
    runs from 0j, adding the k-th term of every run in step k, so none of
    its parts is ever -0.0 and the sign of a zero term's part cannot show."""
    offset = size.cumsum() - size
    at = np.arange(offset[-1] + size[-1]) + (start - offset).repeat(size)
    lg, p = log[at], ph[at]
    top = np.maximum.reduceat(lg, offset)
    z = np.empty(len(at), dtype=np.complex128)
    z.real, z.imag = lg - top.repeat(size), p
    z = np.fromiter(map(cmath.exp, z.tolist()), dtype=np.complex128, count=len(z))
    axis = (np.fmod(p, _HALF_PI) == 0.0).nonzero()[0]  # 0, pi and -+pi/2, and no other phase
    e, unit = _floats(math.exp, lg[axis] - top.repeat(size)[axis]), _AXIS[(p[axis] / _HALF_PI).astype(np.intp) + 1]
    z.real[axis], z.imag[axis] = e * unit.real - 0.0 * unit.imag, e * unit.imag + 0.0 * unit.real
    acc = z[offset] + 0j
    for step in range(1, size.max()):
        runs = (size > step).nonzero()[0]
        acc[runs] += z[offset[runs] + step]
    # |s| by libm's hypot, as abs(complex) takes it, without abs's errno check
    log_s = [math.log(v) if v else NEG_INF for v in np.hypot(acc.real, acc.imag).tolist()]
    ph_s = _floats(math.atan2, acc.imag, acc.real)  # 0.0 at a zero sum
    return top + log_s, np.where(ph_s == -math.pi, math.pi, ph_s)


def cauchy_product(x: FiniteSeq, y: FiniteSeq) -> FiniteSeq:
    """Discrete convolution z_n = sum_{k<=n} x_k y_{n-k}: ``convolve`` on one
    pair, so every coefficient is the scalar convolution's bit for bit."""
    return convolve(SeqBatch.of([x]), SeqBatch.of([y])).seqs()[0]


def cauchy_power(x: FiniteSeq, m: int) -> FiniteSeq:
    """m-fold Cauchy product, x^e = x^{e-1} * x; x^0 is the convolution identity e_0."""
    if m < 0:
        raise ValueError("cauchy power needs m >= 0")
    return cauchy_monomials([x], [(m,)]).seqs()[0]


def cauchy_monomials(seqs: list[FiniteSeq], alphas: list[tuple[int, ...]]) -> SeqBatch:
    """prod_i seqs[i]^{alpha_i} under the Cauchy product for each alpha, as a
    batch in the order of ``alphas``; the empty product is e_0.

    Each monomial multiplies its factors seqs[i]^e left to right over the
    nonzero exponents, and each power seqs[i]^e is seqs[i]^{e-1} * seqs[i],
    as folds of ``cauchy_product`` would, bit for bit.  Every distinct power
    and partial product is formed once, and each step of them by one
    ``convolve`` call.
    """
    # a power or partial product is the chain of its factors (i, e); its step
    # is one more than the later of its two operands'
    step: dict[tuple, int] = {}

    def plan(chain):
        if chain not in step:
            (i, e), = chain[-1:]
            if len(chain) > 1:
                step[chain] = max(plan(chain[:-1]), plan(chain[-1:])) + 1
            else:
                step[chain] = 0 if e == 1 else plan(((i, e - 1),)) + 1
        return step[chain]

    chains = [tuple((i, e) for i, e in enumerate(alpha) if e) for alpha in alphas]
    for chain in chains:
        if chain:
            plan(chain)
    pool = _cat([SeqBatch.of(seqs), SeqBatch.of([FiniteSeq.basis(0)])])
    at = {((i, 1),): i for i in range(len(seqs))}
    at[()] = len(seqs)
    for k in range(1, max(step.values(), default=0) + 1):
        made = [c for c, s in step.items() if s == k]
        left = [at[c[:-1] if len(c) > 1 else ((c[0][0], c[0][1] - 1),)] for c in made]
        right = [at[c[-1:] if len(c) > 1 else ((c[0][0], 1),)] for c in made]
        at.update(zip(made, range(len(pool.count), len(pool.count) + len(made))))
        pool = _cat([pool, convolve(pool.take(left), pool.take(right))])
    return pool.take([at[c] for c in chains])


@_quiet
def shift_back(w: WeightSpec, xs: SeqBatch, a) -> SeqBatch:
    """T^a of every item of xs, ``a`` one shift count or one per item: result_n
    = (v_{n+a}/v_n) x_{n+a}, formed as ``backward_iterate`` forms it.

    Each coefficient at n >= a > 0 becomes x_n times the ratio (log v_n - log
    v_{n-a}, wrap_phase(arg v_n - arg v_{n-a})), as ``WeightSpec.ratio`` and
    ``WideComplex.__mul__`` give them, and a -inf or NaN log drops it.  The
    weights are read by one ``w.v_log`` gather, so an index past a table's
    end raises WeightError as the ratio would; a shift by 0 leaves an item as
    it is.
    """
    a = np.asarray(a, dtype=np.int64)
    if (a < 0).any():
        raise ValueError("shift count must be >= 0")
    a = a.repeat(xs.count) if a.ndim else np.full(len(xs.n), a)
    keep = (xs.n >= a).nonzero()[0]
    top, log, ph, a = xs.n[keep], xs.log[keep], xs.ph[keep], a[keep]
    low = top - a
    moved = slice(None) if a.all() else a.nonzero()[0]
    v = w.v_log(np.concatenate((top[moved], low[moved])))
    log[moved] += v[: len(v) // 2] - v[len(v) // 2:]
    turn = w._arg_ratio(top[moved], low[moved])
    ph[moved] = ph[moved] + 0.0 if turn is None else _wrap(ph[moved] + turn)
    item = np.arange(len(xs.count)).repeat(xs.count)[keep]
    live = log > NEG_INF
    if not live.all():
        item, low, log, ph = item[live], low[live], log[live], ph[live]
    return SeqBatch(np.bincount(item, minlength=len(xs.count)), low, log, ph)


def backward_iterate(w: WeightSpec, x: FiniteSeq, a: int) -> FiniteSeq:
    """a-th power of the weighted backward shift: result_n = (v_{n+a}/v_n) x_{n+a}
    (``shift_back`` on one sequence)."""
    if a < 0:
        raise ValueError("shift count must be >= 0")
    if a == 0:
        return x
    return shift_back(w, SeqBatch.of([x]), a).seqs()[0]


def root_power_block(w: WeightSpec, y: FiniteSeq, a: int, m: int) -> FiniteSeq:
    """m-th root block (S^a y)^{1/m} = sum_n (w_{n+1}^{1/m}...w_{n+a}^{1/m})^{-1} y_n^{1/m} e_{n+a}.

    Roots are the fixed principal branches.  Zero coordinates of y contribute
    0 (0^{1/m} := 0).  For m = 1 the block is exactly the a-fold inverse-weight
    forward shift of y; for every m, backward_iterate(w, coordinatewise_power(block, m), a)
    reproduces y up to the rounding of the log ratios.
    """
    if m < 1:
        raise ValueError("root order must be >= 1")
    out = {}
    for n, c in y.items():
        out[n + a] = c.root(m) / w.ratio_root(n, a, m)
    return FiniteSeq(out)

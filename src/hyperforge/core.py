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
from typing import Iterable, Iterator, Mapping

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


def _unit(phase: float) -> complex:
    """e^{i phase}, exact on the four half-axes so axis-aligned sums cancel cleanly."""
    if phase == 0.0:
        return 1.0 + 0j
    if phase == math.pi:
        return -1.0 + 0j
    if phase == _HALF_PI:
        return 1j
    if phase == -_HALF_PI:
        return -1j
    return cmath.exp(1j * phase)


def log_sum(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) for nonnegative summands given by their logs."""
    ts = [t for t in terms if t != NEG_INF]
    if not ts:
        return NEG_INF
    m = max(ts)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in ts))


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


def cauchy_product(x: FiniteSeq, y: FiniteSeq) -> FiniteSeq:
    """Discrete convolution z_n = sum_{k<=n} x_k y_{n-k}.

    Each product x_k y_{n-k} is a (log|.|, arg) pair, formed and wrapped as
    ``WideComplex.__mul__`` forms it, and each z_n is summed by the helper of
    ``WideComplex.sum_of``: the same operations in the same order, with no
    WideComplex per term.
    """
    ys = [(k, d.log_mag, d.phase) for k, d in y.items()]
    buckets: dict[int, list[float]] = {}  # log|.| and arg of each term, in turn
    for n, c in x.items():
        log_c, phase_c = c.log_mag, c.phase
        for k, log_d, phase_d in ys:
            log_mag = log_c + log_d
            if log_mag != NEG_INF and log_mag == log_mag:  # else the product is the zero, which sum_of drops
                buckets.setdefault(n + k, []).extend((log_mag, wrap_phase(phase_c + phase_d)))
    return FiniteSeq({n: WideComplex(*(terms if len(terms) == 2 else _sum_polar(terms)))
                      for n, terms in buckets.items()})


def cauchy_power(x: FiniteSeq, m: int) -> FiniteSeq:
    """m-fold Cauchy product; x^0 is the convolution identity e_0."""
    if m < 0:
        raise ValueError("cauchy power needs m >= 0")
    if m == 0:
        return FiniteSeq.basis(0)
    out = x
    for _ in range(m - 1):
        out = cauchy_product(out, x)
    return out


def cauchy_monomials(seqs: list[FiniteSeq]):
    """The map alpha -> prod_i seqs[i]^{alpha_i} under the Cauchy product.

    Factors are multiplied left to right over the nonzero exponents, and each
    power seqs[i]^e is built once per map; the empty product is e_0.
    """
    powers: dict[tuple[int, int], FiniteSeq] = {}

    def monomial(alpha: tuple[int, ...]) -> FiniteSeq:
        out = None
        for i, e in enumerate(alpha):
            if e == 0:
                continue
            piece = powers.get((i, e))
            if piece is None:
                piece = powers[(i, e)] = cauchy_power(seqs[i], e)
            out = piece if out is None else cauchy_product(out, piece)
        return out if out is not None else FiniteSeq.basis(0)

    return monomial


def backward_iterate(w: WeightSpec, x: FiniteSeq, a: int) -> FiniteSeq:
    """a-th power of the weighted backward shift: result_n = (v_{n+a}/v_n) x_{n+a}."""
    if a < 0:
        raise ValueError("shift count must be >= 0")
    if a == 0:
        return x
    out = {}
    for n, c in x.items():
        if n >= a:
            out[n - a] = c * w.ratio(n - a, a)
    return FiniteSeq(out)


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

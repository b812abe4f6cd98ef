"""Generator bundles: the serialized product of a construction run.

A bundle holds everything needed to re-validate its certificates and re-run
orbit reports offline: space id, weight, targets, pairing rule, and per-round
records (blocks plus checks).  Serialization is canonical (sorted keys, fixed
separators) so identical runs produce byte-identical files.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .core import FiniteSeq, WeightSpec, WideComplex, log_decode
from .errors import BundleError
from .schedule import PairOrder, TargetSchedule, TripleOrder
from .spaces import SpaceSpec, space as parse_space

FORMAT = "hyperforge-bundle/1"


@dataclass(frozen=True)
class Cert:
    """One checked inequality: value op bound, with log2 fields for tiny values."""

    value: float
    bound: float
    passed: bool
    op: str = "lt"  # "lt": value < bound; "gt": value > bound
    value_log2: float | None = None
    bound_log2: float | None = None

    @classmethod
    def less(cls, value_log: float, bound_log2: float) -> "Cert":
        """value < 2^bound_log2 decided in the log domain."""
        ln2 = math.log(2.0)
        return cls(
            value=log_decode(value_log),
            bound=2.0 ** bound_log2 if bound_log2 > -1074 else 0.0,
            passed=value_log < bound_log2 * ln2,
            op="lt",
            value_log2=value_log / ln2 if value_log != -math.inf else None,
            bound_log2=bound_log2,
        )

    @classmethod
    def greater(cls, value: float, bound: float) -> "Cert":
        return cls(value=value, bound=bound, passed=value > bound, op="gt")

    @property
    def ratio(self) -> float:
        if self.op != "lt":
            return math.inf if self.bound == 0 else self.value / self.bound
        if self.value_log2 is None:
            return 0.0
        if self.bound_log2 is None:
            return math.inf
        return 2.0 ** min(self.value_log2 - self.bound_log2, 1024.0)

    def to_json(self) -> dict:
        out = {"value": self.value, "bound": self.bound, "pass": self.passed, "op": self.op}
        if self.value_log2 is not None:
            out["value_log2"] = self.value_log2
        if self.bound_log2 is not None:
            out["bound_log2"] = self.bound_log2
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Cert":
        return cls(
            value=data["value"],
            bound=data["bound"],
            passed=data["pass"],
            op=data.get("op", "lt"),
            value_log2=data.get("value_log2"),
            bound_log2=data.get("bound_log2"),
        )


@dataclass
class CoordRound:
    r: int
    m: int
    l: int
    a: int
    block: FiniteSeq
    checks: dict[str, Cert]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "l": self.l,
            "a_r": self.a,
            "block": self.block.to_json(),
            "checks": {k: c.to_json() for k, c in sorted(self.checks.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoordRound":
        return cls(
            r=data["r"],
            m=data["m"],
            l=data["l"],
            a=data["a_r"],
            block=FiniteSeq.from_json(data["block"]),
            checks={k: Cert.from_json(v) for k, v in data["checks"].items()},
        )


@dataclass
class CauchyRound:
    r: int
    m: int
    l: int
    a: int
    eta: int
    gamma: int
    b: WideComplex
    c: list[WideComplex]
    block: FiniteSeq
    rho_index: int
    checks: dict[str, Cert]
    nu: int | None = None
    lambda_column: list[complex] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        out = {
            "r": self.r,
            "m": self.m,
            "l": self.l,
            "a_r": self.a,
            "eta": self.eta,
            "gamma": self.gamma,
            "b": self.b.to_json(),
            "c": [cj.to_json() for cj in self.c],
            "block": self.block.to_json(),
            "rho": self.rho_index,
            "checks": {k: c.to_json() for k, c in sorted(self.checks.items())},
        }
        if self.nu is not None:
            out["nu"] = self.nu
            out["lambda_column"] = [[z.real, z.imag] for z in self.lambda_column]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CauchyRound":
        return cls(
            r=data["r"],
            m=data["m"],
            l=data["l"],
            a=data["a_r"],
            eta=data["eta"],
            gamma=data["gamma"],
            b=WideComplex.from_json(data["b"]),
            c=[WideComplex.from_json(cj) for cj in data["c"]],
            block=FiniteSeq.from_json(data["block"]),
            rho_index=data["rho"],
            checks={k: Cert.from_json(v) for k, v in data["checks"].items()},
            nu=data.get("nu"),
            lambda_column=[complex(re, im) for re, im in data["lambda_column"]]
            if data.get("lambda_column") is not None
            else None,
        )


@dataclass
class Bundle:
    """Common shape of coordinatewise and Cauchy bundles."""

    kind: str  # coord | coord-algebrable | cauchy | cauchy-algebrable
    space: SpaceSpec
    weight: WeightSpec
    targets: list[FiniteSeq]
    K: int
    rounds: list
    lambda_params: dict | None = None
    # canonical text of the document a loaded bundle was read from; such a
    # bundle serializes as that text, because [re, im] coefficients do not
    # always decode and re-encode to the same last digit
    source: str | None = field(default=None, repr=False, compare=False)

    @property
    def R(self) -> int:
        return len(self.rounds)

    @property
    def is_cauchy(self) -> bool:
        return self.kind.startswith("cauchy")

    @property
    def product(self) -> str:
        return "cauchy" if self.is_cauchy else "coordinatewise"

    @property
    def passed(self) -> bool:
        return all(rd.passed for rd in self.rounds)

    def schedule(self) -> TargetSchedule:
        return TargetSchedule(self.targets, self.K if not self.is_cauchy else 1)

    def pairing(self):
        return TripleOrder() if self.kind == "cauchy-algebrable" else PairOrder()

    def round(self, r: int):
        if not 1 <= r <= self.R:
            raise BundleError(f"round {r} outside the built range 1..{self.R}")
        return self.rounds[r - 1]

    def generator(self, k: int = 1) -> FiniteSeq:
        """Truncated generator x^(k): the sum of this bundle's blocks for class k,
        scaled by the lambda column in the cauchy-algebrable case."""
        if not 1 <= k <= self.K:
            raise BundleError(f"generator index {k} outside 1..{self.K}")
        total = FiniteSeq.zero()
        if self.kind == "cauchy-algebrable":
            for rd in self.rounds:
                lam = WideComplex.from_complex(rd.lambda_column[k - 1])
                total = total + rd.block.scale(lam)
        elif self.kind == "coord-algebrable":
            sched = self.schedule()
            for rd in self.rounds:
                if sched.class_of(rd.l) == k:
                    total = total + rd.block
        else:
            for rd in self.rounds:
                total = total + rd.block
        return total.with_horizon(self.R)

    def generators(self) -> list[FiniteSeq]:
        return [self.generator(k) for k in range(1, self.K + 1)]

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        if self.source is not None:
            return json.loads(self.source)
        body = {
            "format": FORMAT,
            "kind": self.kind,
            "space": self.space.cli_id,
            "weight": self.weight.to_json(),
            "pairing": "cantor",
            "partition_K": self.K,
            "targets": [t.to_json() for t in self.targets],
            "rounds": [rd.to_json() for rd in self.rounds],
        }
        if self.lambda_params is not None:
            body["lambda"] = self.lambda_params
        body["bundle_id"] = _digest(body)
        return body

    @classmethod
    def from_json(cls, data: dict) -> "Bundle":
        """Rebuild a bundle that serializes as ``data`` and keeps its id; a
        document of the wrong shape, or one whose stored bundle_id is missing
        or is not the digest of the rest of the document, raises BundleError."""
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            raise BundleError(f"not a {FORMAT} document")
        try:
            # the digest is taken over the stored body, not over a re-encoding:
            # [re, im] coefficients do not always decode and re-encode to the
            # same last digit
            stored = data.get("bundle_id")
            if stored != _digest({k: v for k, v in data.items() if k != "bundle_id"}):
                raise BundleError(f"bundle_id {stored!r} does not match the bundle contents")
            kind = data["kind"]
            round_cls = CauchyRound if kind.startswith("cauchy") else CoordRound
            return cls(
                kind=kind,
                space=parse_space(data["space"]),
                weight=WeightSpec.from_json(data["weight"]),
                targets=[FiniteSeq.from_json(t) for t in data["targets"]],
                K=data["partition_K"],
                rounds=[round_cls.from_json(rd) for rd in data["rounds"]],
                lambda_params=data.get("lambda"),
                source=canonical_json(data),
            )
        except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
            raise BundleError(f"malformed bundle: {type(exc).__name__}: {exc}") from exc

    @property
    def bundle_id(self) -> str:
        return self.to_json()["bundle_id"]

    def dumps(self) -> str:
        return self.source if self.source is not None else canonical_json(self.to_json())

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Bundle":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BundleError(f"cannot load bundle from {path!r}: {exc}") from exc
        return cls.from_json(data)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _digest(body: dict) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]

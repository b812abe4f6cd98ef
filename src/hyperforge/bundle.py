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
from dataclasses import dataclass

from .core import FiniteSeq, WeightSpec, WideComplex, log_decode
from .errors import BundleError
from .schedule import LambdaMatrix, PairOrder, TargetSchedule, TripleOrder
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
            bound=math.inf if bound_log2 >= 1024  # 2.0 ** 1024 overflows
            else 2.0 ** bound_log2 if bound_log2 > -1074 else 0.0,
            passed=value_log < bound_log2 * ln2,
            op="lt",
            value_log2=value_log / ln2 if value_log != -math.inf else None,
            bound_log2=bound_log2,
        )

    @classmethod
    def greater(cls, value: float, bound: float) -> "Cert":
        return cls(value=value, bound=bound, passed=value > bound, op="gt")

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

    @property
    def R(self) -> int:
        return len(self.rounds)

    @property
    def is_cauchy(self) -> bool:
        return self.kind.startswith("cauchy")

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
        return total

    def generators(self) -> list[FiniteSeq]:
        return [self.generator(k) for k in range(1, self.K + 1)]

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
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
        """Rebuild the bundle that ``data`` encodes.  Raises BundleError for a
        document whose stored bundle_id is missing or is not the digest of the
        rest of it, one of the wrong shape, one whose rounds are not numbered
        1..R in order or carry labels (and, with a lambda matrix, a column)
        other than the pairing rule and the matrix give, and one that is not
        the canonical encoding of the bundle it holds."""
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            raise BundleError(f"not a {FORMAT} document")
        try:
            stored = data.get("bundle_id")
            if stored != _digest({k: v for k, v in data.items() if k != "bundle_id"}):
                raise BundleError(f"bundle_id {stored!r} does not match the bundle contents")
            kind = data["kind"]
            round_cls = CauchyRound if kind.startswith("cauchy") else CoordRound
            bundle = cls(
                kind=kind,
                space=parse_space(data["space"]),
                weight=WeightSpec.from_json(data["weight"]),
                targets=[FiniteSeq.from_json(t) for t in data["targets"]],
                K=data["partition_K"],
                rounds=[round_cls.from_json(rd) for rd in data["rounds"]],
                lambda_params=data.get("lambda"),
            )
            bundle._check_labels()
            if canonical_json(bundle.to_json()) != canonical_json(data):
                raise BundleError("the document is not the canonical encoding of its bundle")
            return bundle
        except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
            raise BundleError(f"malformed bundle: {type(exc).__name__}: {exc}") from exc

    def _check_labels(self) -> None:
        """Integer fields that are ints (not floats or bools), partition_K >= 1,
        rounds numbered 1..R in order, each labelled (m, l[, nu]) as the
        pairing rule decodes its number, with the lambda matrix's column nu."""
        if not _is_int(self.K) or self.K < 1:
            raise BundleError(f"partition_K {self.K!r} is not an integer >= 1")
        for rd in self.rounds:
            fields = [rd.r, rd.m, rd.l, rd.a]
            if self.is_cauchy:
                fields += [rd.eta, rd.gamma, rd.rho_index] + ([] if rd.nu is None else [rd.nu])
            if not all(map(_is_int, fields)):
                raise BundleError(f"round {rd.r!r} holds an integer field that is not an integer")
        if [rd.r for rd in self.rounds] != list(range(1, self.R + 1)):
            raise BundleError("rounds are not numbered 1, 2, ... in order")
        algebrable = self.kind == "cauchy-algebrable"
        if algebrable and not all(_is_int(self.lambda_params.get(k)) for k in ("l_max", "denom_max")):
            raise BundleError("the lambda matrix's l_max and denom_max must be integers")
        lam = LambdaMatrix.from_json(self.lambda_params) if algebrable else None
        pairing = self.pairing()
        for rd in self.rounds:
            labels = (rd.m, rd.l, rd.nu) if algebrable else (rd.m, rd.l)
            if labels != pairing.decode(rd.r):
                raise BundleError(f"round {rd.r} is labelled {labels}, not as the pairing rule gives")
            if algebrable and rd.lambda_column != [lam.lam(k, rd.nu) for k in range(1, self.K + 1)]:
                raise BundleError(f"round {rd.r} does not hold column {rd.nu} of the lambda matrix")

    @property
    def bundle_id(self) -> str:
        return self.to_json()["bundle_id"]

    def dumps(self) -> str:
        return canonical_json(self.to_json())

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _digest(body: dict) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()[:16]

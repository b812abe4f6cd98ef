"""Batch command-line front end: criteria checks, construction runs, and
verification, all emitting canonical JSON on stdout.

Exit codes: 0 all certificates/reports pass; 1 a check failed or a domain
error occurred (stdout carries {"error": code, ...}), or the reader closed
stdout before the output was written (nothing more is printed, no
traceback); 2 bad usage.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from . import cauchy as _cauchy
from . import coordwise as _coord
from . import criteria as _criteria
from . import verify as _verify
from .bundle import Bundle, canonical_json
from .core import FiniteSeq, WeightSpec
from .errors import ConfigError, HyperforgeError, SearchExhausted, WeightError, WitnessError
from .parser import parse_element
from .spaces import SpaceSpec, list_spaces, space as parse_space

# most entries `criteria hc` lists: its output holds up to five numbers per
# entry, printed and written whole
_HC_COUNT_MAX = 1_000_000


@dataclass
class RunConfig:
    """Validated inputs of a construction run; runs are seed-free and
    deterministic, so identical configs give byte-identical artifacts."""

    space: SpaceSpec
    weight: WeightSpec
    targets: list[FiniteSeq]
    rounds: int
    K: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("--rounds must be >= 1")
        if self.K < 1:
            raise ConfigError("--K must be >= 1")
        if not self.targets:
            raise ConfigError("targets file holds no sequences")


def _load_targets(path: str) -> list[FiniteSeq]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read targets file {path!r}: {exc}") from exc
    if not isinstance(raw, list):
        raise ConfigError("targets file must hold a JSON list of sequences")
    try:
        return [FiniteSeq.from_json(entry) for entry in raw]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed sequence in targets file {path!r}: {exc!r}") from exc


def export_report(report: dict, path: str | None, csv_path: str | None = None) -> None:
    """Write a report as JSON to path, and its (round, distance, bound, ratio)
    rows as CSV to csv_path; either may be None."""
    _write_json(report, path)
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "distance", "bound", "ratio"])
            for row in report.get("rounds", []):
                if isinstance(row, dict) and not row.get("skipped"):
                    writer.writerow([row["round"], row["distance"], row["bound"], row["ratio"]])


def _write_json(payload: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(canonical_json(payload))
            fh.write("\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_spaces(args) -> tuple[int, dict]:
    return 0, {"spaces": list_spaces()}


def _cmd_criteria(args) -> tuple[int, dict]:
    sp = parse_space(args.space)
    if args.check == "prop-a":
        wit = _criteria.property_a_witness(sp, r_max=args.r_max, n_max=args.horizon_n)
        code, payload = 0, {"property_a": wit.to_json()}
    elif args.check == "prop-b":
        wit = _criteria.property_b_witness(
            sp, m_max=args.m_max, M_max=args.M_max, r_max=args.r_max, n_max=args.horizon_n
        )
        code, payload = 0, {"property_b": wit.to_json()}
    elif args.check == "mixing":
        cert = _criteria.check_mixing(
            sp,
            WeightSpec.parse(args.weight),
            horizon_n=args.horizon_n,
            horizon_q=args.horizon_q,
            tol=args.tol,
        )
        code, payload = (0 if cert.passed else 1), {"mixing": cert.to_json()}
    else:
        if args.count > _HC_COUNT_MAX:
            raise ConfigError(f"--count {args.count} is past the limit of {_HC_COUNT_MAX} entries",
                              count=args.count, max=_HC_COUNT_MAX)
        wit = _criteria.find_pk_witness(
            sp,
            WeightSpec.parse(args.weight),
            args.count,
            horizon_n=args.horizon_n,
            horizon_q=args.horizon_q,
            growth=args.growth,
        )
        code, payload = 0, {"hypercyclicity": wit.to_json()}
    _write_json(payload, args.out)
    return code, payload


def _load_pk_witness(path: str, space: SpaceSpec, weight: WeightSpec) -> _criteria.PkWitness:
    """The witness of a `criteria hc --out` file, which must equal the
    scan's own witness for the space and weight of the build."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read witness file {path!r}: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise TypeError("the document is not a JSON object")
        return _criteria.PkWitness.from_json(raw.get("hypercyclicity", raw), space, weight)
    except WitnessError as exc:
        raise ConfigError(
            f"witness file {path!r} does not validate for {space.cli_id} with weight {weight.describe()}",
            reason=str(exc),
        ) from exc
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError, SearchExhausted,
            WeightError) as exc:
        raise ConfigError(f"malformed witness file {path!r}: {exc!r}") from exc


def _cmd_build(args) -> tuple[int, dict]:
    cfg = RunConfig(
        space=parse_space(args.space),
        weight=WeightSpec.parse(args.weight),
        targets=_load_targets(args.targets),
        rounds=args.rounds,
        K=args.K,
        out=args.out,
    )
    pk = _load_pk_witness(args.pk_witness, cfg.space, cfg.weight) if args.pk_witness else None
    if args.construction == "coord":
        state = _coord.CoordState(cfg.space, cfg.weight, cfg.targets, K=1, pk=pk)
        bundle_ = _coord.build_generator(state, cfg.rounds)
    elif args.construction == "algebrable-coord":
        state = _coord.CoordState(cfg.space, cfg.weight, cfg.targets, K=cfg.K, pk=pk)
        bundle_ = _coord.build_algebrable(state, cfg.rounds)
    elif args.construction == "cauchy":
        state = _cauchy.CauchyState(cfg.space, cfg.weight, cfg.targets)
        bundle_ = _cauchy.build_generator_cauchy(state, cfg.rounds)
    else:
        lam = _cauchy.LambdaMatrix(l_max=cfg.K, denom_max=args.lambda_denom)
        state = _cauchy.CauchyState(
            cfg.space, cfg.weight, cfg.targets, algebrable=True, K=cfg.K, lam=lam
        )
        bundle_ = _cauchy.build_algebrable_cauchy(state, cfg.rounds)
    payload = bundle_.to_json()
    if cfg.out:
        bundle_.save(cfg.out)
    return (0 if bundle_.passed else 1), payload


def _cmd_verify(args) -> tuple[int, dict]:
    bundle_ = Bundle.load(args.bundle)
    if args.report == "power":
        rep = _verify.orbit_power_report(bundle_, args.power)
        payload = rep.to_json()
        ok = rep.passed
    elif args.report == "element":
        expr = parse_element(args.element, num_generators=bundle_.K)
        rep = _verify.orbit_element_report(bundle_, expr.element())
        payload = rep.to_json()
        ok = rep.passed
    elif args.report == "zero-products":
        rep = _verify.zero_product_report(bundle_)
        payload = rep.to_json()
        ok = rep.passed
    elif args.report == "expansion":
        expr = parse_element(args.element, num_generators=bundle_.K)
        rep = _verify.expansion_oracle(bundle_, expr.element(), degree_cap=args.degree_cap)
        payload = rep.to_json()
        ok = rep.agree
    else:
        rep = _verify.revalidate_bundle(bundle_)
        payload = rep.to_json()
        ok = rep.passed
    if args.out or args.csv:
        export_report(payload, args.out, csv_path=args.csv)
    return (0 if ok else 1), payload


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperforge",
        description="build and verify certified truncated hypercyclic-algebra generators",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp_spaces = sub.add_parser("spaces", help="built-in sequence algebras")
    sp_spaces.add_subparsers(dest="action", required=True).add_parser("list")
    sp_spaces.set_defaults(handler=_cmd_spaces)

    sp_cr = sub.add_parser("criteria", help="finite-horizon hypothesis witnesses")
    sp_cr.add_argument("check", choices=["hc", "mixing", "prop-a", "prop-b"])
    sp_cr.add_argument("--space", required=True)
    sp_cr.add_argument("--weight", default="const:2")
    sp_cr.add_argument("--horizon-n", type=int, default=500)
    sp_cr.add_argument("--horizon-q", type=int, default=5)
    sp_cr.add_argument("--tol", type=float, default=1e-3)
    sp_cr.add_argument("--count", type=int, default=8)
    sp_cr.add_argument("--growth", action="store_true")
    sp_cr.add_argument("--r-max", type=int, default=5)
    sp_cr.add_argument("--m-max", type=int, default=4)
    sp_cr.add_argument("--M-max", dest="M_max", type=int, default=16)
    sp_cr.add_argument("--out")
    sp_cr.set_defaults(handler=_cmd_criteria)

    sp_b = sub.add_parser("build", help="run a construction")
    sp_b.add_argument(
        "construction", choices=["coord", "cauchy", "algebrable-coord", "algebrable-cauchy"]
    )
    sp_b.add_argument("--space", required=True)
    sp_b.add_argument("--weight", required=True)
    sp_b.add_argument("--targets", required=True)
    sp_b.add_argument("--rounds", type=int, required=True)
    sp_b.add_argument("--K", type=int, default=1)
    sp_b.add_argument("--pk-witness", help="reuse a witness JSON from `criteria hc --out`")
    sp_b.add_argument("--lambda-denom", type=int, default=1)
    sp_b.add_argument("--out")
    sp_b.set_defaults(handler=_cmd_build)

    sp_v = sub.add_parser("verify", help="verify a bundle")
    sp_v.add_argument(
        "report", choices=["power", "element", "zero-products", "expansion", "certificates"]
    )
    sp_v.add_argument("--bundle", required=True)
    sp_v.add_argument("--power", type=int, default=1)
    sp_v.add_argument("--element", default="x1")
    sp_v.add_argument("--degree-cap", type=int, default=None)
    sp_v.add_argument("--out")
    sp_v.add_argument("--csv")
    sp_v.set_defaults(handler=_cmd_verify)
    return top


def run_command(argv: list[str]) -> tuple[int, dict]:
    """Parse argv, execute, and return (exit code, JSON payload)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HyperforgeError as exc:
        return 1, exc.to_json()
    except ValueError as exc:
        return 1, {"error": "config_invalid", "message": str(exc), "details": {}}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        code, payload = run_command(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    try:
        print(canonical_json(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; stdout is pointed at devnull so that
        # the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

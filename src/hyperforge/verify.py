"""Verification: orbit reports, expansion oracles, zero products, and full
bundle re-validation.

Everything here recomputes from the serialized bundle alone, so a report is
reproducible bit-for-bit from the file.

Every orbit report measures ||T^{a_r} P(x) - rho y^(l)||_r through one round
check, at the rounds it applies to only, and forms P(x) only when some round
is checked.  The reports and the expansion oracle build their Cauchy products
through ``core.cauchy_monomials``, as the D4/F4 certificate does.  The oracle
finds the coefficients d_alpha of z over the block products P^alpha by
multiplying out each term of z over the linear forms x_k = sum_r
lambda_{k,nu_r} p_r of the round blocks p_r.

Re-validation walks the rounds once.  It rebuilds each round's block (the
root-power block of a coordinatewise round, the two-part block of a Cauchy
one), certifies the stored round through the same functions the builders use
(``coordwise.coord_checks``, or ``cauchy.block_checks`` and
``cauchy.round_checks``), fed with the stored round and the stored rounds
before it, and compares the result with the stored certificates; it keeps only
the block-consistency check of its own.  All seminorm comparisons use upper
bounds (the sound direction).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .bundle import Bundle, Cert
from .cauchy import (
    RHO_THRESHOLD,
    block_checks,
    form_at_column,
    leading_form_column,
    round_checks,
    tail_bound,
    two_part_block,
)
from .coordwise import coord_checks
from .core import (
    NEG_INF,
    FiniteSeq,
    WideComplex,
    backward_iterate,
    cauchy_monomials,
    cauchy_power,
    coordinatewise_power,
    coordinatewise_product,
    log_decode,
    root_power_block,
)
from .element import AlgebraElement
from .errors import BundleError, ElementError
from .schedule import LambdaMatrix
from .spaces import seminorm_eval


@dataclass
class RoundCheck:
    round: int
    a: int
    target: int
    q: int
    distance: float
    bound: float
    ratio: float
    passed: bool
    kind: str = "target"  # target | zero
    skipped: bool = False
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "round": self.round,
            "a": self.a,
            "target": self.target,
            "q": self.q,
            "distance": self.distance,
            "bound": self.bound,
            "ratio": self.ratio,
            "pass": self.passed,
            "kind": self.kind,
        }
        if self.skipped:
            out["skipped"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class OrbitReport:
    bundle_id: str
    element: str
    rounds: list[RoundCheck]
    notes: list[str] = field(default_factory=list)

    @property
    def checked(self) -> list[RoundCheck]:
        return [rc for rc in self.rounds if not rc.skipped]

    @property
    def passed(self) -> bool:
        return all(rc.passed for rc in self.checked)

    @property
    def max_ratio(self) -> float:
        return max((rc.ratio for rc in self.checked), default=0.0)

    def to_json(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "element": self.element,
            "rounds": [rc.to_json() for rc in self.rounds],
            "summary": {
                "pass": self.passed,
                "max_ratio": self.max_ratio,
                "rounds_checked": len(self.checked),
                "rounds_skipped": len(self.rounds) - len(self.checked),
                "notes": self.notes,
            },
        }


def _round_check(bundle: Bundle, rd, value: FiniteSeq, bound: float, kind: str = "target",
                 rho: complex | None = None) -> RoundCheck:
    """||T^{a_r} value - rho y^(l)||_r of round ``rd`` against ``bound``; rho
    defaults to 1, and a "zero" check drops the target term."""
    diff = backward_iterate(bundle.weight, value, rd.a)
    if kind == "target":
        y = bundle.schedule().target(rd.l)
        diff = diff - (y if rho is None else y.scale(WideComplex.from_complex(rho)))
    dist_log = seminorm_eval(bundle.space, rd.r, diff)
    bound_log = math.log(bound) if bound > 0.0 else NEG_INF
    ratio = 0.0 if dist_log == NEG_INF else log_decode(dist_log - bound_log)
    return RoundCheck(
        round=rd.r, a=rd.a, target=rd.l, q=rd.r,
        distance=log_decode(dist_log), bound=bound, ratio=ratio,
        passed=dist_log < bound_log, kind=kind,
    )


def _report(bundle: Bundle, element: str, checks: list[RoundCheck], notes: tuple[str, ...] = (),
            empty: str = "no applicable round within the built range") -> OrbitReport:
    """The report of ``checks``, noting ``empty`` when no round was checked."""
    rep = OrbitReport(bundle.bundle_id, element, checks, list(notes))
    if not rep.checked:
        rep.notes.append(empty)
    return rep


def orbit_power_report(bundle: Bundle, j: int) -> OrbitReport:
    """Distances of shifted j-th powers of the truncated generator against the
    scheduled targets, compared with the per-round bounds.

    Coordinatewise bundles check the rounds of degree j against 2^-r.  Cauchy
    bundles check the rounds of degree j against 2^(1-r), and the rounds of
    higher degree, where the shifted j-th power must itself be small, against
    2^-r.  Only the checked rounds are shifted back, and the power is formed
    only when some round is checked; otherwise the report is empty.
    """
    if j < 1:
        raise ValueError("power must be >= 1")
    if bundle.kind == "cauchy-algebrable":
        beta = (j,) + (0,) * (bundle.K - 1)
        return orbit_element_report(bundle, AlgebraElement({beta: 1.0}, bundle.K))
    if bundle.is_cauchy:
        rounds = [rd for rd in bundle.rounds if rd.m >= j]
        xj = cauchy_power(bundle.generator(1), j) if rounds else None
        checks = [
            _round_check(bundle, rd, xj, 2.0 ** (-rd.r + 1)) if rd.m == j
            else _round_check(bundle, rd, xj, 2.0 ** (-rd.r), kind="zero")
            for rd in rounds
        ]
    else:
        class_of = bundle.schedule().class_of
        rounds = [rd for rd in bundle.rounds if rd.m == j]
        powers = {k: coordinatewise_power(bundle.generator(k), j)
                  for k in {class_of(rd.l) for rd in rounds}}
        checks = [_round_check(bundle, rd, powers[class_of(rd.l)], 2.0 ** (-rd.r)) for rd in rounds]
    return _report(bundle, f"x^{j}", checks,
                   empty=f"no round of degree {j} within the built range 1..{bundle.R}")


def orbit_element_report(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    if z.num_generators > bundle.K:
        raise ElementError(
            f"element uses {z.num_generators} generators but the bundle provides {bundle.K}"
        )
    if bundle.is_cauchy:
        if bundle.kind == "cauchy-algebrable":
            return _element_report_cauchy_algebrable(bundle, z)
        return _element_report_cauchy_single(bundle, z)
    return _element_report_coord(bundle, z)


def _normalized(coeffs: dict, pivot_key) -> tuple[dict, float]:
    """``coeffs`` divided by the pivot coefficient, and the bound factor 2 +
    the sum of the other normalized |c|; raises ElementError when either
    overflows (a subnormal pivot), since the report would then pass vacuously."""
    pivot = coeffs[pivot_key]
    scaled = {key: c / pivot for key, c in coeffs.items()}
    bound_factor = 2.0 + sum(abs(c) for key, c in scaled.items() if key != pivot_key)
    if not (math.isfinite(bound_factor) and all(cmath.isfinite(c) for c in scaled.values())):
        raise ElementError(f"normalizing by the coefficient {pivot!r} leaves a coefficient or the bound not finite")
    return scaled, bound_factor


def _element_report_coord(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    """Coordinatewise bundles: normalize the lowest surviving diagonal
    coefficient to 1 and compare against (sum of remaining |c| + 2) * 2^-r."""
    diag = {
        (sum(beta), next(k for k, e in enumerate(beta) if e > 0) + 1): c
        for beta, c in z.coeffs.items()
        if sum(1 for e in beta if e > 0) == 1
    }
    if not diag:
        return _report(bundle, z.describe(), [], empty=(
            "degenerate element: all terms mix distinct generators, so the "
            "element is exactly zero by the disjoint supports"
        ))
    j = min(nu for nu, _ in diag)
    k_star = min(k for nu, k in diag if nu == j)
    scaled, bound_factor = _normalized(diag, (j, k_star))

    class_of = bundle.schedule().class_of
    rounds = [rd for rd in bundle.rounds if rd.m == j and class_of(rd.l) == k_star]
    value = sum((coordinatewise_power(bundle.generator(k), nu).scale(WideComplex.from_complex(c))
                 for (nu, k), c in scaled.items()), FiniteSeq.zero()) if rounds else None
    checks = [_round_check(bundle, rd, value, bound_factor * 2.0 ** (-rd.r)) for rd in rounds]
    return _report(bundle, z.describe(), checks)


def _element_report_cauchy_single(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    """Single-generator Cauchy bundles: normalize the top coefficient to 1 and
    compare against (sum of lower |c| + 2) * 2^-r at rounds of the top degree."""
    m = z.degree_max
    scaled, bound_factor = _normalized(z.coeffs, (m,))
    rounds = [rd for rd in bundle.rounds if rd.m == m]
    value = _substitute_cauchy(scaled, bundle.generators()) if rounds else None
    return _report(bundle, z.describe(),
                   [_round_check(bundle, rd, value, bound_factor * 2.0 ** (-rd.r)) for rd in rounds])


def _element_report_cauchy_algebrable(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    """Lambda-matrix bundles: at rounds of the top degree whose column pushes
    the top form to rho != 0, compare against |rho| 2^-r + the explicit tail."""
    lam = LambdaMatrix.from_json(bundle.lambda_params)
    m = z.degree_max
    top = z.top_form()
    # existence of a usable column (recurrence provides arbitrarily large ones)
    nu0, rho0 = leading_form_column(top, lam)
    c_per_degree = [
        (1.0 + mu) ** z.num_generators
        * max((abs(c) for b, c in z.coeffs.items() if sum(b) == mu), default=0.0)
        for mu in range(1, m + 1)
    ]
    pairs = [(rd, form_at_column(top, rd.lambda_column)) for rd in bundle.rounds if rd.m == m]
    live = any(abs(rho) > RHO_THRESHOLD for _, rho in pairs)
    value = _substitute_cauchy(z.coeffs, bundle.generators()) if live else None
    checks = [
        _round_check(bundle, rd, value, abs(rho) * 2.0 ** (-rd.r) + tail_bound(m, c_per_degree, rd.r),
                     rho=rho)
        if abs(rho) > RHO_THRESHOLD else RoundCheck(
            round=rd.r, a=rd.a, target=rd.l, q=rd.r,
            distance=0.0, bound=0.0, ratio=0.0, passed=True,
            kind="target", skipped=True,
            note="column leaves the top form below the threshold",
        )
        for rd, rho in pairs
    ]
    return _report(bundle, z.describe(), checks,
                   (f"leading form first certified at column {nu0} with rho={rho0!r}",))


def _substitute_cauchy(coeffs: dict[tuple[int, ...], complex], seqs: list[FiniteSeq]) -> FiniteSeq:
    """sum_alpha c_alpha prod_i seqs[i]^{alpha_i} under the Cauchy product,
    added in the order of ``coeffs``."""
    monomial = cauchy_monomials(seqs)
    return sum((monomial(alpha).scale(WideComplex.from_complex(c)) for alpha, c in coeffs.items()),
               FiniteSeq.zero())


# ---------------------------------------------------------------------------
# expansion oracle
# ---------------------------------------------------------------------------


@dataclass
class ExpansionReport:
    result: FiniteSeq
    decomposition: FiniteSeq
    d_alpha: dict[tuple[int, ...], complex]
    max_rel_err: float
    agree: bool
    partial: bool = False

    def to_json(self) -> dict:
        return {
            "result": self.result.to_json(),
            "max_rel_err": self.max_rel_err,
            "agree": self.agree,
            "partial": self.partial,
        }


def expansion_oracle(bundle: Bundle, z: AlgebraElement, degree_cap: int | None = None) -> ExpansionReport:
    """Substitute the truncated generators into z by repeated convolution and,
    independently, expand over block products P^alpha with explicitly computed
    coefficients d_alpha; the two must agree to 1e-10 relative."""
    if not bundle.is_cauchy:
        raise BundleError("the expansion oracle applies to Cauchy bundles only")
    cap = degree_cap if degree_cap is not None else z.degree_max
    partial = cap < z.degree_max
    kept = {b: c for b, c in z.coeffs.items() if sum(b) <= cap}
    if not kept:
        raise ElementError(f"degree cap {cap} removes every term of the element")
    zc = AlgebraElement(kept, z.num_generators)

    brute = _substitute_cauchy(zc.coeffs, bundle.generators())
    if bundle.kind == "cauchy-algebrable":
        lamcols = [tuple(rd.lambda_column) for rd in bundle.rounds]
    else:
        lamcols = [(1.0 + 0j,) for _ in bundle.rounds]
    d_alpha = _block_coefficients(zc, lamcols)
    decomp = _substitute_cauchy(d_alpha, [rd.block for rd in bundle.rounds])
    err = brute.rel_distance(decomp)
    return ExpansionReport(brute, decomp, d_alpha, err, err <= 1e-10, partial)


def _block_coefficients(z: AlgebraElement, lamcols: list[tuple]) -> dict[tuple[int, ...], complex]:
    """The nonzero d_alpha of z(L_1, ..., L_K) = sum_alpha d_alpha prod_r
    p_r^{alpha_r}, for the linear forms L_k = sum_r lambda_{k,r} p_r with
    lambda_{k,r} = lamcols[r-1][k-1] (zero past the end of the column).

    Each term c_beta x^beta is multiplied out one factor L_k at a time from 1,
    and c_beta times the product is added to d_alpha, term by term in the
    order of ``z.coeffs``; c_beta comes last so that, where the lambda products
    are exact, each term adds c_beta times an exact number.  alpha drops its
    trailing zeros, and the result is ordered by (|alpha|, len alpha, alpha)."""
    R = len(lamcols)
    forms = [[(r, col[k]) for r, col in enumerate(lamcols) if k < len(col) and col[k] != 0]
             for k in range(z.num_generators)]
    d: dict[tuple[int, ...], complex] = {}
    for beta, c in z.coeffs.items():
        u = {(0,) * R: 1.0 + 0j}
        for k, e in enumerate(beta):
            for _ in range(e):
                nxt: dict[tuple[int, ...], complex] = {}
                for mono, v in u.items():
                    for r, lam in forms[k]:
                        key = mono[:r] + (mono[r] + 1,) + mono[r + 1:]
                        nxt[key] = nxt.get(key, 0j) + v * lam
                u = nxt
        for mono, v in u.items():
            d[mono] = d.get(mono, 0j) + c * v
    trimmed = {}
    for mono, v in d.items():
        if v != 0:
            t = max(r for r, e in enumerate(mono, start=1) if e)
            trimmed[mono[:t]] = v
    return {a: trimmed[a] for a in sorted(trimmed, key=lambda a: (sum(a), len(a), a))}


# ---------------------------------------------------------------------------
# zero products and re-validation
# ---------------------------------------------------------------------------


@dataclass
class ZeroProductReport:
    bundle_id: str
    pairs: list[dict]

    @property
    def passed(self) -> bool:
        return all(p["pass"] for p in self.pairs)

    def to_json(self) -> dict:
        return {"bundle_id": self.bundle_id, "pairs": self.pairs, "summary": {"pass": self.passed}}


def zero_product_report(bundle: Bundle) -> ZeroProductReport:
    """All pairwise coordinatewise products of the generators must have empty
    support, exactly; any overlap is reported with a witnessing index.
    K = 1 passes vacuously."""
    if bundle.is_cauchy:
        raise BundleError("zero products apply to coordinatewise bundles")
    gens = bundle.generators()
    pairs = []
    for k1 in range(len(gens)):
        for k2 in range(k1 + 1, len(gens)):
            prod = coordinatewise_product(gens[k1], gens[k2])
            entry = {"k1": k1 + 1, "k2": k2 + 1, "pass": prod.is_zero}
            if not prod.is_zero:
                entry["witness_index"] = prod.min_index
            pairs.append(entry)
    return ZeroProductReport(bundle.bundle_id, pairs)


@dataclass
class RevalidationReport:
    bundle_id: str
    rounds: list[dict]

    @property
    def passed(self) -> bool:
        return all(not rd["failed"] for rd in self.rounds)

    def to_json(self) -> dict:
        return {"bundle_id": self.bundle_id, "rounds": self.rounds, "summary": {"pass": self.passed}}


def revalidate_bundle(bundle: Bundle) -> RevalidationReport:
    """Recompute every stored certificate from the bundle contents alone.

    Each round's certificates are recomputed by the builders' own functions
    (``coord_checks``; ``block_checks`` with eps read from the stored C1 bound,
    and ``round_checks``) on the stored round after the stored rounds before
    it, and compared with the stored ones name by name: a failing recomputed
    certificate flags ``<name>``, and a name missing on either side, or a
    stored certificate that does not equal its recomputation, flags
    ``<name>_value``.  One check is revalidation's own: ``block_consistency``,
    the stored block against the one rebuilt, bit for bit, from the schedule's
    target for coordinatewise bundles, or from the stored closed-form
    coefficients for Cauchy ones, so coefficient tampering is caught even where
    the inequalities would still pass.  Loading the bundle has already checked
    each round's integer fields, and its labels against the pairing rule.
    """
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    pairing = bundle.pairing()
    algebrable = bundle.kind == "cauchy-algebrable"
    rows = []
    for rd in bundle.rounds:
        before = bundle.rounds[: rd.r - 1]
        y = sched.target(rd.l)
        if bundle.is_cauchy:
            q_part, block = two_part_block(rd.eta, rd.c, rd.gamma, rd.b)
            # the stored C1 bound is the round's only record of eps; without a
            # float there, NaN makes C1 and C3 fail
            eps_log2 = getattr(rd.checks.get("C1"), "bound_log2", None)
            if not isinstance(eps_log2, float):
                eps_log2 = math.nan
            fresh = block_checks(space, w, y, rd.m, rd.eta, rd.gamma, rd.b, q_part, rd.block,
                                 rd.rho_index, eps_log2)
            fresh.update(round_checks(space, w, y, before, rd, algebrable))
        else:
            block = root_power_block(w, y, rd.a, rd.m)
            fresh = coord_checks(space, w, sched, pairing, before, rd.r, rd.a, rd.block)
        failed = ["block_consistency"] if rd.block != block else []
        rows.append({"round": rd.r, "failed": failed + _compare(fresh, rd.checks)})
    return RevalidationReport(bundle.bundle_id, rows)


def _compare(fresh: dict[str, Cert], stored: dict[str, Cert]) -> list[str]:
    """Failure names of one round: recomputed certificates in order, then
    stored names that were not recomputed."""
    failed = []
    for name, cert in fresh.items():
        if not cert.passed:
            failed.append(name)
        if stored.get(name) != cert:
            failed.append(f"{name}_value")
    return failed + [f"{name}_value" for name in stored if name not in fresh]


def nonfinite_generation_witness(bundle: Bundle) -> dict:
    """For every degree >= 2 round, the generator coefficient at index m*gamma_r
    vanishes while the round's own m-th block power is nonzero there."""
    if bundle.kind != "cauchy-algebrable":
        raise BundleError("the witness applies to lambda-matrix bundles")
    gens = bundle.generators()
    rows = []
    for rd in bundle.rounds:
        if rd.m < 2:
            continue
        idx = rd.m * rd.gamma
        coeff_zero = all(g.coef(idx).is_zero for g in gens)
        power_nonzero = not cauchy_power(rd.block, rd.m).coef(idx).is_zero
        rows.append({
            "round": rd.r,
            "index": idx,
            "generator_coeff_zero": coeff_zero,
            "block_power_nonzero": power_nonzero,
            "pass": coeff_zero and power_nonzero,
        })
    return {
        "bundle_id": bundle.bundle_id,
        "rounds": rows,
        "summary": {"pass": all(r["pass"] for r in rows), "rounds_checked": len(rows)},
    }

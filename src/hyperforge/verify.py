"""Verification: orbit reports, expansion oracles, zero products, and full
bundle re-validation.

Everything here recomputes from the serialized bundle alone, so a report is
reproducible bit-for-bit from the file.

Every orbit report measures ||T^{a_r} P(x) - rho y^(l)||_r through one round
check, at the rounds it applies to only, and forms P(x) only when some round
is checked.  The reports and the expansion oracle build their Cauchy products
through ``core.cauchy_monomials``, as the D4/F4 certificate does.

Re-validation certifies each stored round through the same functions the
builders use (``coordwise.coord_checks``, ``cauchy.block_checks`` and
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
    enumerate_multi_indices,
    form_at_column,
    leading_form_column,
    multinomial,
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
    d_alpha: dict[tuple[int, ...], complex] = {}
    for mu in range(1, zc.degree_max + 1):
        form = zc.homogeneous_coeffs(mu)
        if not form:
            continue
        for t in range(1, bundle.R + 1):
            for alpha in enumerate_multi_indices(mu, t):
                d = _d_coefficient(form, alpha, lamcols)
                if d != 0:
                    d_alpha[alpha] = d
    decomp = _substitute_cauchy(d_alpha, [rd.block for rd in bundle.rounds])
    err = brute.rel_distance(decomp)
    return ExpansionReport(brute, decomp, d_alpha, err, err <= 1e-10, partial)


def _d_coefficient(form: dict, alpha: tuple[int, ...], lamcols: list[tuple]) -> complex:
    """Coefficient of prod_r p_r^{alpha_r} in sum_beta c_beta prod_k (sum_r
    lambda_{k,nu_r} p_r)^{beta_k}."""
    slots = [i for i, e in enumerate(alpha, start=1) if e > 0]
    need = {i: alpha[i - 1] for i in slots}
    total = 0j
    for beta, c in form.items():
        ks = [k for k, e in enumerate(beta, start=1) if e > 0]

        def rec(ki: int, remaining: dict) -> complex:
            if ki == len(ks):
                return 1.0 + 0j if all(v == 0 for v in remaining.values()) else 0j
            k = ks[ki]
            bk = beta[k - 1]
            out = 0j
            for comp in _compositions(bk, slots):
                if any(comp[i] > remaining[i] for i in slots):
                    continue
                coef = multinomial(bk, tuple(comp[i] for i in slots))
                lam_term = 1.0 + 0j
                ok = True
                for i in slots:
                    if comp[i]:
                        lam_k = lamcols[i - 1][k - 1] if k - 1 < len(lamcols[i - 1]) else 0j
                        if lam_k == 0:
                            ok = False
                            break
                        lam_term *= lam_k ** comp[i]
                if not ok:
                    continue
                rest = {i: remaining[i] - comp[i] for i in slots}
                out += coef * lam_term * rec(ki + 1, rest)
            return out

        total += c * rec(0, dict(need))
    return total


def _compositions(total: int, slots: list[int]) -> list[dict[int, int]]:
    out: list[dict[int, int]] = []

    def rec(idx: int, left: int, acc: dict[int, int]):
        if idx == len(slots) - 1:
            acc2 = dict(acc)
            acc2[slots[idx]] = left
            out.append(acc2)
            return
        for v in range(left + 1):
            acc[slots[idx]] = v
            rec(idx + 1, left - v, acc)
        del acc[slots[idx]]

    if not slots:
        return [{}] if total == 0 else []
    rec(0, total, {})
    return out


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
    each round's labels against the pairing rule.
    """
    return (
        _revalidate_cauchy(bundle) if bundle.is_cauchy else _revalidate_coord(bundle)
    )


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


def _revalidate_coord(bundle: Bundle) -> RevalidationReport:
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    pairing = bundle.pairing()
    rows = []
    for rd in bundle.rounds:
        failed = []
        if rd.block != root_power_block(w, sched.target(rd.l), rd.a, rd.m):
            failed.append("block_consistency")
        fresh = coord_checks(space, w, sched, pairing, bundle.rounds[: rd.r - 1], rd.r, rd.a,
                             rd.block)
        failed += _compare(fresh, rd.checks)
        rows.append({"round": rd.r, "failed": failed})
    return RevalidationReport(bundle.bundle_id, rows)


def _revalidate_cauchy(bundle: Bundle) -> RevalidationReport:
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    algebrable = bundle.kind == "cauchy-algebrable"
    rows = []
    for rd in bundle.rounds:
        failed = []
        y = sched.target(rd.l)
        q_part, block = two_part_block(rd.eta, rd.c, rd.gamma, rd.b)
        if rd.block != block:
            failed.append("block_consistency")
        # the stored C1 bound is the round's only record of eps; without a
        # float there, NaN makes C1 and C3 fail
        eps_log2 = getattr(rd.checks.get("C1"), "bound_log2", None)
        if not isinstance(eps_log2, float):
            eps_log2 = math.nan
        fresh = block_checks(space, w, y, rd.m, rd.eta, rd.gamma, rd.b, q_part, rd.block,
                             rd.rho_index, eps_log2)
        fresh.update(round_checks(space, w, y, bundle.rounds[: rd.r - 1], rd, algebrable))
        failed += _compare(fresh, rd.checks)
        rows.append({"round": rd.r, "failed": failed})
    return RevalidationReport(bundle.bundle_id, rows)


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

"""Independent verification: orbit reports, expansion oracles, zero products,
and full bundle re-validation.

Everything here recomputes from the serialized bundle alone; no construction
state is consulted, so a report is reproducible bit-for-bit from the file.
All seminorm comparisons use upper bounds (the sound direction).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bundle import Bundle, Cert
from .cauchy import (
    LambdaMatrix,
    _d4_worst,
    _structural_d2,
    c2_residual_cert,
    c3_image,
    cauchy_power,
    enumerate_multi_indices,
    leading_form_column,
    multinomial,
    tail_bound,
)
from .core import (
    NEG_INF,
    FiniteSeq,
    WideComplex,
    backward_iterate,
    cauchy_product,
    coordinatewise_power,
    coordinatewise_product,
    log_decode,
    root_power_block,
)
from .element import AlgebraElement
from .errors import BundleError, ElementError
from .spaces import seminorm_eval

_LN2 = math.log(2.0)
_VALUE_RTOL = 1e-9


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


def _round_check(space, q, diff, bound: float, *, round_, a, target, kind) -> RoundCheck:
    dist_log = seminorm_eval(space, q, diff).upper_log
    dist = log_decode(dist_log)
    bound_log = math.log(bound) if bound > 0.0 else NEG_INF
    ratio = 0.0 if dist_log == NEG_INF else log_decode(dist_log - bound_log)
    return RoundCheck(
        round=round_, a=a, target=target, q=q,
        distance=dist, bound=bound, ratio=ratio,
        passed=dist_log < bound_log, kind=kind,
    )


def orbit_power_report(bundle: Bundle, j: int) -> OrbitReport:
    """Distances of shifted j-th powers of the truncated generator against the
    scheduled targets, compared with the per-round bounds.

    Coordinatewise bundles check rounds with degree j (bound 2^-t); Cauchy
    bundles additionally check rounds of higher degree, where the shifted j-th
    power must itself be small (bound 2^-r).  Rounds whose degree never
    appears up to the built horizon yield an empty report.
    """
    if j < 1:
        raise ValueError("power must be >= 1")
    if bundle.kind == "cauchy-algebrable":
        beta = (j,) + (0,) * (bundle.K - 1)
        return orbit_element_report(bundle, AlgebraElement({beta: 1.0}, bundle.K))
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    checks: list[RoundCheck] = []
    if bundle.is_cauchy:
        x = bundle.generator(1)
        xj = cauchy_power(x, j)
        for rd in bundle.rounds:
            img = backward_iterate(w, xj, rd.a)
            if rd.m == j:
                checks.append(_round_check(
                    space, rd.r, img - sched.target(rd.l), 2.0 ** (-rd.r + 1),
                    round_=rd.r, a=rd.a, target=rd.l, kind="target",
                ))
            elif rd.m > j:
                checks.append(_round_check(
                    space, rd.r, img, 2.0 ** (-rd.r),
                    round_=rd.r, a=rd.a, target=rd.l, kind="zero",
                ))
    else:
        gens = {k: bundle.generator(k) for k in range(1, bundle.K + 1)}
        powers = {k: coordinatewise_power(g, j) for k, g in gens.items()}
        for rd in bundle.rounds:
            if rd.m != j:
                continue
            k = sched.class_of(rd.l)
            img = backward_iterate(w, powers[k], rd.a)
            checks.append(_round_check(
                space, rd.r, img - sched.target(rd.l), 2.0 ** (-rd.r),
                round_=rd.r, a=rd.a, target=rd.l, kind="target",
            ))
    rep = OrbitReport(bundle.bundle_id, f"x^{j}", checks)
    if not checks:
        rep.notes.append(f"no round of degree {j} within the built range 1..{bundle.R}")
    return rep


def orbit_element_report(bundle: Bundle, z: AlgebraElement, rho_threshold: float = 1e-6) -> OrbitReport:
    if z.num_generators > bundle.K:
        raise ElementError(
            f"element uses {z.num_generators} generators but the bundle provides {bundle.K}"
        )
    if bundle.is_cauchy:
        if bundle.kind == "cauchy-algebrable":
            return _element_report_cauchy_algebrable(bundle, z, rho_threshold)
        return _element_report_cauchy_single(bundle, z)
    return _element_report_coord(bundle, z)


def _element_report_coord(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    """Coordinatewise bundles: normalize the lowest surviving diagonal
    coefficient to 1 and compare against (sum of remaining |c| + 2) * 2^-t."""
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    diag = {
        (sum(beta), next(k for k, e in enumerate(beta) if e > 0) + 1): c
        for beta, c in z.coeffs.items()
        if sum(1 for e in beta if e > 0) == 1
    }
    if not diag:
        rep = OrbitReport(bundle.bundle_id, z.describe(), [])
        rep.notes.append(
            "degenerate element: all terms mix distinct generators, so the "
            "element is exactly zero by the disjoint supports"
        )
        return rep
    j = min(nu for nu, _ in diag)
    k_star = min(k for nu, k in diag if nu == j)
    pivot = diag[(j, k_star)]
    scaled = {key: c / pivot for key, c in diag.items()}
    bound_factor = 2.0 + sum(abs(c) for key, c in scaled.items() if key != (j, k_star))

    gens = {k: bundle.generator(k) for k in range(1, bundle.K + 1)}
    value = FiniteSeq.zero()
    for (nu, k), c in scaled.items():
        value = value + coordinatewise_power(gens[k], nu).scale(WideComplex.from_complex(c))

    checks = []
    for rd in bundle.rounds:
        if rd.m != j or sched.class_of(rd.l) != k_star:
            continue
        img = backward_iterate(w, value, rd.a)
        checks.append(_round_check(
            space, rd.r, img - sched.target(rd.l), bound_factor * 2.0 ** (-rd.r),
            round_=rd.r, a=rd.a, target=rd.l, kind="target",
        ))
    rep = OrbitReport(bundle.bundle_id, z.describe(), checks)
    if not checks:
        rep.notes.append("no applicable round within the built range")
    return rep


def _element_report_cauchy_single(bundle: Bundle, z: AlgebraElement) -> OrbitReport:
    """Single-generator Cauchy bundles: normalize the top coefficient to 1 and
    compare against (sum of lower |c| + 2) * 2^-r at rounds of the top degree."""
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    coeffs = {beta[0]: c for beta, c in z.coeffs.items()}
    m = max(coeffs)
    top = coeffs[m]
    scaled = {mu: c / top for mu, c in coeffs.items()}
    bound_factor = 2.0 + sum(abs(c) for mu, c in scaled.items() if mu != m)

    x = bundle.generator(1)
    value = FiniteSeq.zero()
    for mu, c in scaled.items():
        value = value + cauchy_power(x, mu).scale(WideComplex.from_complex(c))
    checks = []
    for rd in bundle.rounds:
        if rd.m != m:
            continue
        img = backward_iterate(w, value, rd.a)
        checks.append(_round_check(
            space, rd.r, img - sched.target(rd.l), bound_factor * 2.0 ** (-rd.r),
            round_=rd.r, a=rd.a, target=rd.l, kind="target",
        ))
    rep = OrbitReport(bundle.bundle_id, z.describe(), checks)
    if not checks:
        rep.notes.append("no applicable round within the built range")
    return rep


def _element_report_cauchy_algebrable(bundle: Bundle, z: AlgebraElement, rho_threshold: float) -> OrbitReport:
    """Lambda-matrix bundles: at rounds of the top degree whose column pushes
    the top form to rho != 0, compare against |rho| 2^-r + the explicit tail."""
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    lam = LambdaMatrix.from_json(bundle.lambda_params)
    m = z.degree_max
    top = z.top_form()
    s = z.num_generators
    # existence of a usable column (recurrence provides arbitrarily large ones)
    nu0, rho0 = leading_form_column(top, lam, s, threshold=rho_threshold)
    c_per_degree = [
        (1.0 + mu) ** s * max((abs(c) for b, c in z.coeffs.items() if sum(b) == mu), default=0.0)
        for mu in range(1, m + 1)
    ]
    gens = bundle.generators()
    value = _substitute_cauchy(z, gens)
    checks = []
    for rd in bundle.rounds:
        if rd.m != m:
            continue
        rho = _form_at_column(top, rd.lambda_column)
        if abs(rho) <= rho_threshold:
            checks.append(RoundCheck(
                round=rd.r, a=rd.a, target=rd.l, q=rd.r,
                distance=0.0, bound=0.0, ratio=0.0, passed=True,
                kind="target", skipped=True,
                note="column leaves the top form below the threshold",
            ))
            continue
        bound = abs(rho) * 2.0 ** (-rd.r) + tail_bound(m, c_per_degree, rd.r)
        img = backward_iterate(w, value, rd.a)
        target = sched.target(rd.l).scale(WideComplex.from_complex(rho))
        checks.append(_round_check(
            space, rd.r, img - target, bound,
            round_=rd.r, a=rd.a, target=rd.l, kind="target",
        ))
    rep = OrbitReport(bundle.bundle_id, z.describe(), checks)
    rep.notes.append(f"leading form first certified at column {nu0} with rho={rho0!r}")
    if not [rc for rc in checks if not rc.skipped]:
        rep.notes.append("no applicable round within the built range")
    return rep


def _form_at_column(top: dict, column: list[complex]) -> complex:
    rho = 0j
    for beta, c in top.items():
        term = complex(c)
        for k, e in enumerate(beta):
            if e:
                lam_k = column[k] if k < len(column) else 0j
                term *= lam_k ** e
        rho += term
    return rho


def _substitute_cauchy(z: AlgebraElement, gens: list[FiniteSeq]) -> FiniteSeq:
    powers: dict[tuple[int, int], FiniteSeq] = {}

    def gp(k: int, e: int) -> FiniteSeq:
        if (k, e) not in powers:
            powers[(k, e)] = cauchy_power(gens[k - 1], e)
        return powers[(k, e)]

    total = FiniteSeq.zero()
    for beta, c in z.coeffs.items():
        term = None
        for k, e in enumerate(beta, start=1):
            if e == 0:
                continue
            piece = gp(k, e)
            term = piece if term is None else cauchy_product(term, piece)
        total = total + term.scale(WideComplex.from_complex(c))
    return total


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

    gens = bundle.generators()
    brute = _substitute_cauchy(zc, gens)

    R = bundle.R
    if bundle.kind == "cauchy-algebrable":
        lamcols = [tuple(rd.lambda_column) for rd in bundle.rounds]
    else:
        lamcols = [(1.0 + 0j,) for _ in bundle.rounds]
    blocks = [rd.block for rd in bundle.rounds]
    powers: dict[tuple[int, int], FiniteSeq] = {}

    def bp(i: int, e: int) -> FiniteSeq:
        if (i, e) not in powers:
            powers[(i, e)] = cauchy_power(blocks[i - 1], e)
        return powers[(i, e)]

    d_alpha: dict[tuple[int, ...], complex] = {}
    decomp = FiniteSeq.zero()
    for mu in range(1, zc.degree_max + 1):
        form = zc.homogeneous_coeffs(mu)
        if not form:
            continue
        for t in range(1, R + 1):
            for alpha in enumerate_multi_indices(mu, t):
                d = _d_coefficient(form, alpha, lamcols)
                if d == 0:
                    continue
                d_alpha[tuple(alpha)] = d
                piece = None
                for i, e in enumerate(alpha, start=1):
                    if e == 0:
                        continue
                    q = bp(i, e)
                    piece = q if piece is None else cauchy_product(piece, q)
                decomp = decomp + piece.scale(WideComplex.from_complex(d))
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

    Includes a block-consistency check against the schedule (coordinatewise)
    or the stored closed-form coefficients (Cauchy), so coefficient tampering
    is caught even where the seminorm inequalities would still pass.  Each
    stored certificate value (A1 and the worst A2; C1 and C3 at the round's
    rho, C2_residual, D/F1, D/F3 and D/F4) is compared with its recomputation,
    and a difference flags ``<name>_value``.
    """
    return (
        _revalidate_cauchy(bundle) if bundle.is_cauchy else _revalidate_coord(bundle)
    )


def _log2(value_log: float) -> float | None:
    """A log value as ``Cert.less`` stores it: in log2, None for -inf."""
    return value_log / _LN2 if value_log != NEG_INF else None


def _value_differs(cert: Cert | None, fresh: float | None, scale_log: float | None = None) -> bool:
    """Whether a stored certificate value (value_log2 of an "lt" check, value
    otherwise) is missing or differs from its recomputation ``fresh`` by more
    than 1e-9 x max(1, |stored|); None matches only None.

    With ``scale_log`` the value is a residual against a quantity of natural
    log size ``scale_log``.  A residual is mostly cancellation, and decoding
    the bundle's [re, im] coefficients moves it by far more than 1e-9 of
    itself, so stored and fresh values are compared as fractions of
    max(1, that size), to within 1e-9.
    """
    if cert is None:
        return True
    stored = cert.value_log2 if cert.op == "lt" else cert.value
    if stored is not None and not isinstance(stored, (int, float)):
        return True
    if scale_log is not None:
        def share(v):
            return 0.0 if v is None else log_decode(v * _LN2 - max(0.0, scale_log))

        return not abs(share(stored) - share(fresh)) <= _VALUE_RTOL
    if stored is None or fresh is None:
        return stored is not fresh
    return not (stored == fresh or abs(stored - fresh) <= _VALUE_RTOL * max(1.0, abs(stored)))


def _check_value(failed: list[str], checks: dict, name: str, fresh: float | None,
                 scale_log: float | None = None) -> None:
    if _value_differs(checks.get(name), fresh, scale_log):
        failed.append(f"{name}_value")


def _revalidate_coord(bundle: Bundle) -> RevalidationReport:
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    pairing = bundle.pairing()
    rows = []
    prev = None
    for rd in bundle.rounds:
        failed = []
        m, l = pairing.decode(rd.r)
        if (m, l) != (rd.m, rd.l):
            failed.append("pairing")
        y = sched.target(rd.l)
        expected = root_power_block(w, y, rd.a, 1, rd.m)
        if rd.block.rel_distance(expected) > 1e-10:
            failed.append("block_consistency")
        a1 = seminorm_eval(space, rd.r, rd.block).upper_log
        if a1 >= -rd.r * _LN2:
            failed.append("A1")
        _check_value(failed, rd.checks, "A1", _log2(a1))
        d_r = pairing.max_degree_before(rd.r)
        worst = NEG_INF
        for t_round in bundle.rounds[: rd.r - 1]:
            for nu in range(1, d_r + 1):
                img = backward_iterate(w, coordinatewise_power(rd.block, nu), t_round.a)
                a2 = seminorm_eval(space, rd.r, img).upper_log
                if a2 >= -rd.r * _LN2:
                    failed.append(f"A2(t={t_round.r},nu={nu})")
                worst = max(worst, a2)
        if rd.r >= 2:
            _check_value(failed, rd.checks, "A2", _log2(worst))
        if prev is not None and not rd.a - prev.a > sched.s(prev.l):
            failed.append("A3")
        rows.append({"round": rd.r, "failed": failed})
        prev = rd
    return RevalidationReport(bundle.bundle_id, rows)


def _revalidate_cauchy(bundle: Bundle) -> RevalidationReport:
    space, w = bundle.space, bundle.weight
    sched = bundle.schedule()
    pairing = bundle.pairing()
    algebrable = bundle.kind == "cauchy-algebrable"
    rows = []
    prefix = []
    for rd in bundle.rounds:
        failed = []
        decoded = pairing.decode(rd.r)
        expect = (rd.m, rd.l, rd.nu) if algebrable else (rd.m, rd.l)
        if decoded != expect:
            failed.append("pairing")
        y = sched.target(rd.l)
        rebuilt = {rd.eta + j: cj for j, cj in enumerate(rd.c) if not cj.is_zero}
        q_part = FiniteSeq(rebuilt)
        block = q_part + FiniteSeq.basis(rd.gamma, rd.b) if not rd.b.is_zero else q_part
        if rd.block.rel_distance(block) > 1e-12:
            failed.append("block_consistency")
        rho = rd.rho_index
        _check_value(failed, rd.checks, "C1", _log2(seminorm_eval(space, rho, rd.block).upper_log))
        c3 = seminorm_eval(space, rho, c3_image(w, rd.m, rd.eta, rd.gamma, rd.b)).upper_log
        _check_value(failed, rd.checks, "C3", _log2(c3))
        c2 = c2_residual_cert(w, y, rd.m, rd.eta, rd.gamma, rd.b, q_part)
        if not c2.passed:
            failed.append("C2_residual")
        _check_value(failed, rd.checks, "C2_residual", c2.value)
        label = "F" if algebrable else "D"
        d1 = seminorm_eval(space, rd.r, rd.block).upper_log
        if d1 >= -rd.r * _LN2:
            failed.append(f"{label}1")
        _check_value(failed, rd.checks, f"{label}1", _log2(d1))
        if not _structural_d2(prefix, rd.r, rd.m, rd.gamma, rd.a).passed:
            failed.append(f"{label}2")
        diff = backward_iterate(w, cauchy_power(rd.block, rd.m), rd.a) - y
        d3 = seminorm_eval(space, rd.r, diff).upper_log
        if d3 >= -rd.r * _LN2:
            failed.append(f"{label}3")
        y_log = seminorm_eval(space, rd.r, y).upper_log
        _check_value(failed, rd.checks, f"{label}3", _log2(d3), scale_log=y_log)
        mode = "max" if algebrable else "sum"
        d4 = _d4_worst(space, w, prefix, rd.block, rd.r, mode)
        if d4 >= -rd.r * _LN2:
            failed.append(f"{label}4")
        _check_value(failed, rd.checks, f"{label}4", _log2(d4))
        if not rd.a <= rd.m * rd.gamma:
            failed.append("separation")
        if prefix and not rd.eta > prefix[-1].m * prefix[-1].gamma:
            failed.append("separation")
        rows.append({"round": rd.r, "failed": failed})
        prefix.append(rd)
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

"""Acceptance suite and machine-readable run reports.

Each criterion function returns a dict with passed and details; _wrap adds
it to the report through RunReport.add, the one builder of a check entry
(id, name, passed, details, seconds), which the CLI uses too.
run_acceptance executes them in order (every criterion owns a pre-split
seed) and assembles a RunReport whose JSON is byte-identical across runs
with the same seed once timings are stripped.
Claims that `polyrel check` also makes come from the same check functions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from . import __version__
from .catalog import XI7_BLOCKS, _block_sum, a_k_sets, get_equation, theta
from .checks import (
    ORBIT_SIZES,
    check_22_to_34_substitution,
    check_34_from_wojtkowiak,
    check_gamma21_identity,
    check_Gprime_correspondence,
    check_group_orders,
    check_q_equations,
    check_xi7_explicit_vs_symmetric,
    check_xi7_term_count,
    check_xi7_weights,
    group_generators,
    orbit_sizes,
)
from .criterion import DualFunctional, beta_pairing, kernel_test, log_vector
from .exact import SplitMix64, random_rational
from .formal import FormalSum, inversion_class_key, orbit
from .numeric import PrecisionPolicy, cl_m
from .proofalgebra import verify_claim_and_theorem, verify_identities
from .ratfunc import INFINITY, RatFunc
from .verify import (
    random_phi,
    sample_complex,
    verify_dilog_general,
    verify_fourlog_numeric,
    verify_numeric,
    verify_numeric_sum,
    verify_trilog_theorem,
    verify_wojtkowiak,
)

REPORT_SCHEMA = "polyrel/report/1"


@dataclass
class RunReport:
    command: str
    seed: int
    checks: List[dict] = field(default_factory=list)
    policy: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add(
        self, id_: str, name: str, passed, details: dict, start: float, expected_failure=False
    ) -> None:
        """Append a check entry; ``start`` is the time.time() its work began."""
        entry = {
            "id": id_,
            "name": name,
            "passed": bool(passed),
            "details": details,
            "seconds": round(time.time() - start, 3),
        }
        if expected_failure:
            entry["expected_failure"] = True
        self.checks.append(entry)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "policy": self.policy,
            "checks": [dict(c) for c in self.checks],
            "all_passed": self.all_passed(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            extra = " (expected failure, see notes)" if c.get("expected_failure") else ""
            lines.append(f"[{status}] {c['name']} ({c.get('seconds', 0):.1f}s){extra}")
        summary = "all checks passed" if self.all_passed() else "some checks FAILED"
        lines.append(f"-- {summary} --")
        return "\n".join(lines)


def _wrap(report: RunReport, id_: str, name: str, fn: Callable[[], dict]) -> None:
    """Run one criterion into ``report``; an exception fails it with the error."""
    start = time.time()
    try:
        out = fn()
    except Exception as exc:  # pragma: no cover - surfaced to the report
        out = {"passed": False, "details": {"error": f"{type(exc).__name__}: {exc}"}}
    report.add(
        id_, name, out["passed"], out.get("details", {}), start, out.get("expected_failure")
    )


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------

def criterion_1_five_term(seed: int) -> dict:
    policy = PrecisionPolicy(50)
    verdict = verify_numeric_sum(
        get_equation("five_term").sum, 2, points=100, policy=policy, seed=seed
    )
    return {"passed": verdict.passed, "details": verdict.to_json()}


def criterion_2_goncharov22(seed: int) -> dict:
    eq = get_equation("goncharov22")
    kv = kernel_test(eq.sum, 3, trials=10, functionals=5, seed=seed)
    nv = verify_numeric_sum(eq.sum, 3, points=50, policy=PrecisionPolicy(50), seed=seed)
    return {
        "passed": kv.passed and nv.passed,
        "details": {"kernel": kv.to_json(), "numeric": nv.to_json()},
    }


def _partition_16_6(s: FormalSum, generators, x16: RatFunc, x6: RatFunc) -> bool:
    """The orbits of x16 and x6 up to inversion are 16 and 6 disjoint classes
    that cover the non-constant classes of s, with coefficients +1 and -1."""
    classes = {inversion_class_key(a) for _, a in s if not a.is_constant()}
    k16 = {inversion_class_key(g) for g in orbit(x16, generators)}
    k6 = {inversion_class_key(g) for g in orbit(x6, generators)}
    v = s.inversion_class_vector()
    return (
        len(k16) == 16
        and len(k6) == 6
        and (k16 | k6) == classes
        and not (k16 & k6)
        and all(v[k] == 1 for k in k16)
        and all(v[k] == -1 for k in k6)
    )


def criterion_3_symmetric_equivalences(seed: int) -> dict:
    gens = group_generators()
    orders = check_group_orders()
    gp = check_Gprime_correspondence()
    sizes = orbit_sizes(gp)
    details: Dict[str, object] = {
        "alpha_group_order": orders.details["alpha"],
        "t_group_order": orders.details["t"],
        "yz_group_order": orders.details["yz"],
        "orbit_y1_plain": sizes["y1_plain"],
        "orbit_product_plain": sizes["product_plain"],
        "orbit_y1_up_to_inversion_yz": sizes["y1_up_to_inversion_yz"],
    }
    # the order-192 action partitions both presentations into 16 + 6 classes
    a1, a3 = RatFunc.var("a1"), RatFunc.var("a3")
    t1, t2 = RatFunc.var("t1"), RatFunc.var("t2")
    details["alpha_partition"] = _partition_16_6(
        get_equation("goncharov22").sum,
        gens["alpha"],
        1 / a1,
        (1 - a1 + a1 * a3) / a3,
    )
    details["t_partition"] = _partition_16_6(
        get_equation("goncharov22_sym").sum, gens["t"], t1, t1 * t2
    )
    details["gprime"] = gp.details
    passed = (
        orders.passed
        and sizes == ORBIT_SIZES
        and details["alpha_partition"]
        and details["t_partition"]
        and gp.passed
    )
    return {"passed": passed, "details": details}


def criterion_4_q_equations(seed: int) -> dict:
    rep = check_q_equations()
    return {"passed": rep.passed, "details": rep.details}


def criterion_5_relation34(seed: int) -> dict:
    eq = get_equation("relation34")
    kv = kernel_test(eq.sum, 3, trials=8, functionals=4, seed=seed)
    nv = verify_numeric_sum(eq.sum, 3, points=30, policy=PrecisionPolicy(50), seed=seed)
    wojt = check_34_from_wojtkowiak()
    sub = check_22_to_34_substitution()
    return {
        "passed": kv.passed and nv.passed and wojt.passed and sub.passed,
        "details": {
            "kernel": kv.to_json(),
            "numeric": nv.to_json(),
            "wojt_34_match": wojt.details,
            "sub_22_to_34": sub.details,
        },
    }


def criterion_6_gamma21(seed: int) -> dict:
    rep = check_gamma21_identity(seed=seed)
    clause_classes = (
        rep.details["rhs_nonconstant_classes"] == 21
        and rep.details["rhs_coefficients_in_pm1_pm2"]
    )
    out = {
        "passed": rep.passed and clause_classes,
        "details": dict(rep.details, class_clause=clause_classes),
    }
    if clause_classes and not rep.passed:
        out["expected_failure"] = True
    return out


def criterion_7_preimage_families(seed: int) -> dict:
    # tolerance 1e-30; each verdict is one fixed-point sum over certified
    # roots, whose error sits near the kernel's floor (below 1e-65)
    policy = PrecisionPolicy(50, t_slack=20)
    ctx = policy.context
    rng = SplitMix64(seed).split("crit7")
    z = RatFunc.var("z")
    phis = {
        "z(1-z)": z * (1 - z),
        "z^2": z * z,
        "random_cubic": random_phi(rng.split("cubic")),
    }
    details = {}
    passed = True
    for name, phi in phis.items():
        prng = rng.split(name)
        pts = [sample_complex(prng, ctx) for _ in range(10)]
        d1 = verify_dilog_general(phi, pts[0], pts[1], pts[2], pts[3], policy)
        d2 = verify_trilog_theorem(phi, pts[0:2], pts[2:4], pts[4:6], pts[6:8], policy)
        d3 = verify_wojtkowiak(phi, pts[0], pts[1], pts[2], pts[8], pts[9], policy)
        details[name] = {
            "dilog_general": d1.to_json(),
            "trilog_theorem": d2.to_json(),
            "wojtkowiak": d3.to_json(),
        }
        passed = passed and d1.passed and d2.passed and d3.passed
    special = verify_dilog_general(z * (1 - z), complex(0.4, 0.7), 1, 0, INFINITY, policy)
    details["five_term_special_case"] = special.to_json()
    passed = passed and special.passed
    return {"passed": passed, "details": details}


def criterion_8_fourlog(seed: int) -> dict:
    policy = PrecisionPolicy(60, t_slack=20)  # tolerance 1e-40
    details = {}
    passed = True
    for n in range(2, 6):
        v = verify_fourlog_numeric(n, points=20, policy=policy, seed=seed)
        details[f"numeric_n{n}"] = v.to_json()
        passed = passed and v.passed
    for n in range(2, 7):
        ids = verify_identities(n)
        claim = verify_claim_and_theorem(n)
        ok = all(ids.values()) and all(claim.values())
        details[f"exact_n{n}"] = {"identities": ids, "claim": claim}
        passed = passed and ok
    return {"passed": passed, "details": details}


def shared_multiplicity(block: FormalSum, multiplicity: int) -> bool:
    """True iff every inversion class of the block has total coefficient
    exactly ``multiplicity`` (an exact comparison: 5/2 is not 2).  A class
    whose coefficients cancel is absent from the vector and is not compared."""
    return set(block.inversion_class_vector().values()) == {multiplicity}


def criterion_9_xi7(seed: int) -> dict:
    details: Dict[str, object] = {}
    explicit = get_equation("xi7_explicit")
    symmetric = get_equation("xi7_symmetric")

    term_count = check_xi7_term_count()
    details["term_count"] = term_count.details["count"]
    weights = check_xi7_weights()
    details["weight_balance"] = weights.passed

    # every argument class inside a block occurs with one shared
    # multiplicity, equal to the denominator of the first coefficient factor
    details["multiplicity_rule"] = all(
        shared_multiplicity(FormalSum(_block_sum(a, b, c, d)), first.denominator)
        for first, _, (a, b, c, d) in XI7_BLOCKS
    )
    sixty = check_xi7_explicit_vs_symmetric()
    details["sixty_identity"] = sixty.passed

    kv = kernel_test(
        explicit.sum, 7, trials=8, functionals=3, seed=seed, specialization_height=7
    )
    details["kernel"] = kv.to_json()
    kv_sym = kernel_test(
        symmetric.sum, 7, trials=3, functionals=2, seed=seed + 1, specialization_height=7
    )
    details["kernel_symmetric"] = kv_sym.to_json()

    nv = verify_numeric(explicit, points=10, policy=PrecisionPolicy(60), seed=seed)
    details["numeric"] = nv.to_json()

    theta_ok = True
    for a in range(-4, 5):
        for b in range(-4, 5):
            image = theta((a, b, -a - b))
            theta_ok = theta_ok and image[0] == image[1]
    details["theta_maps_sum_zero_to_repeated"] = theta_ok
    sets = a_k_sets()
    details["a_k_sets_match"] = (
        sorted(sets["A1"])
        == sorted(
            {(1, 1, -2), (-1, -1, 2), (-1, -1, 1), (1, 1, -1), (0, 0, 1), (0, 0, -1)}
        )
        and sorted(sets["A2"]) == sorted({(2, 2, -3), (-1, -1, 3), (-1, -1, 0)})
        and sorted(sets["A3"])
        == sorted(
            {(-1, -1, -1), (-1, -1, 4), (-2, -2, 5), (-2, -2, 1), (3, 3, -4), (3, 3, -5)}
        )
    )

    passed = (
        term_count.passed
        and weights.passed
        and details["multiplicity_rule"]
        and sixty.passed
        and kv.passed
        and kv_sym.passed
        and nv.passed
        and theta_ok
        and details["a_k_sets_match"]
    )
    return {"passed": passed, "details": details}


def criterion_10_invariants(seed: int) -> dict:
    policy = PrecisionPolicy(50)
    ctx = policy.context
    root = SplitMix64(seed)
    tol = policy.tolerance
    details = {}
    passed = True
    for m in range(2, 8):
        worst = ctx.mpf(0)
        rng = root.split("inv", m)
        for _ in range(50):
            zv = sample_complex(rng, ctx)
            sign = (-1) ** (m - 1)
            worst = max(worst, abs(cl_m(m, zv, policy) - sign * cl_m(m, 1 / zv, policy)))
            worst = max(
                worst, abs(cl_m(m, ctx.conj(zv), policy) - sign * cl_m(m, zv, policy))
            )
            worst = max(
                worst,
                abs(
                    cl_m(m, zv * zv, policy)
                    - 2 ** (m - 1) * (cl_m(m, zv, policy) + cl_m(m, -zv, policy))
                ),
            )
        details[f"m{m}_worst"] = float(worst)
        passed = passed and worst < tol

    # beta-pairing antisymmetry and linearity, exact
    rng = root.split("beta")
    exact_ok = True
    for _ in range(20):
        x = random_rational(25, rng, {Fraction(-1)})
        y = random_rational(25, rng, {Fraction(-1), x})
        support = set()
        for v in (x, 1 - x, y, 1 - y):
            support.update(log_vector(v))
        support = tuple(sorted(support))
        fplit = rng.split("f", int(x.numerator))
        draw = lambda: DualFunctional(
            {p: Fraction(fplit.next_int(-20, 20)) for p in support}
        )
        th, ph, ps = draw(), draw(), draw()
        a = beta_pairing([(Fraction(1), x)], 4, th, ph, ps)
        b = beta_pairing([(Fraction(1), y)], 4, th, ph, ps)
        combo = beta_pairing([(Fraction(5), x), (Fraction(-3), y)], 4, th, ph, ps)
        exact_ok = exact_ok and combo == 5 * a - 3 * b
        exact_ok = exact_ok and beta_pairing([(Fraction(1), x)], 4, th, ps, ph) == -a
    details["beta_pairing_exact_properties"] = exact_ok
    return {"passed": passed and exact_ok, "details": details}


def criterion_11_negative_controls(seed: int) -> dict:
    details = {}
    policy = PrecisionPolicy(40)

    def perturb_and_test(name: str, weight: int, spec_height: int):
        eq = get_equation(name)
        first_arg = eq.sum.terms[0][1]
        perturbed = eq.sum + FormalSum.single(first_arg, 1)
        kv = kernel_test(
            perturbed,
            weight,
            trials=4,
            functionals=3,
            seed=seed,
            specialization_height=spec_height,
        )
        nv = verify_numeric_sum(perturbed, weight, points=4, policy=policy, seed=seed)
        worst = 0.0
        if nv.witness:
            worst = nv.witness.get("value", 0.0)
        return {
            "kernel_fails": not kv.passed,
            "kernel_witness": kv.witness is not None,
            "numeric_fails": not nv.passed,
            "numeric_value": worst,
            "numeric_above_1e-10": (not nv.passed) and worst > 1e-10,
        }

    details["xi7_perturbed"] = perturb_and_test("xi7_explicit", 7, 7)
    details["goncharov22_perturbed"] = perturb_and_test("goncharov22", 3, 40)
    passed = all(
        d["kernel_fails"] and d["kernel_witness"] and d["numeric_above_1e-10"]
        for d in details.values()
    )
    return {"passed": passed, "details": details}


CRITERIA: List = [
    ("1", "five-term relation numeric (100 points, P=50)", criterion_1_five_term),
    ("2", "22-term relation kernel + numeric", criterion_2_goncharov22),
    ("3", "symmetric-form equivalences and group orbits", criterion_3_symmetric_equivalences),
    ("4", "q-equations and squares-level description", criterion_4_q_equations),
    ("5", "34-term relation and its two structural checks", criterion_5_relation34),
    ("6", "21-term symmetrization (three-level)", criterion_6_gamma21),
    ("7", "dilog/trilog preimage families", criterion_7_preimage_families),
    ("8", "weight-4 family: numeric n=2..5 and exact n=2..6", criterion_8_fourlog),
    ("9", "weight-7 equation: counts, identities, kernel, numeric", criterion_9_xi7),
    ("10", "CL_m invariant suites and pairing properties", criterion_10_invariants),
    ("11", "negative controls (perturbed coefficients)", criterion_11_negative_controls),
]


def run_acceptance(seed: int = 0, only: List[str] | None = None) -> RunReport:
    """Run the full acceptance suite (or a subset of criterion ids)."""
    known = [cid for cid, _, _ in CRITERIA]
    unknown = [cid for cid in only or () if cid not in known]
    if unknown:
        raise ValueError(
            f"unknown criterion ids {', '.join(unknown)}; known: {', '.join(known)}"
        )
    report = RunReport(command="report --all", seed=seed)
    for cid, name, fn in CRITERIA:
        if only is None or cid in only:
            _wrap(report, cid, name, lambda: fn(SplitMix64(seed).split("criterion", cid).seed))
    return report

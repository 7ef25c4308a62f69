"""Structural checks: the exact combinatorial claims tying the catalog together.

Each check returns a CheckReport with a pass flag and enough detail to see
what was compared.  All comparisons here are exact (rational function
identities, inversion-class vectors, orbit partitions); the numeric and
kernel fallbacks for the 21-term identity live near the end.  CHECKS, at
the end, names every check that `polyrel check --name` runs; the acceptance
criteria in report.py call the same functions for the claims they share.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .catalog import XI7_BLOCKS, f17_sum, get_equation, weight_wt
from .criterion import kernel_test
from .formal import Automorphism, FormalSum, group_order, inversion_class_key, orbit
from .numeric import PrecisionPolicy
from .proofalgebra import report_json as proofalgebra_report
from .ratfunc import INFINITY, RatFunc, cross_ratio
from .tensor import bump
from .verify import WOJTKOWIAK_TERMS, verify_numeric_sum

__all__ = [
    "CHECKS",
    "CheckReport",
    "GROUP_ORDERS",
    "ORBIT_SIZES",
    "check_names",
    "find_check",
    "check_xi7_term_count",
    "check_xi7_weights",
    "check_xi7_explicit_vs_symmetric",
    "check_group_orders",
    "check_orbit_sizes",
    "check_proof_algebra",
    "orbit_sizes",
    "check_34_from_wojtkowiak",
    "check_22_to_34_substitution",
    "check_Gprime_correspondence",
    "check_q_equations",
    "check_gamma21_identity",
    "group_generators",
    "gprime_orbits",
    "ab_parametrization",
    "class_vector_with_reps",
]


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def class_vector_with_reps(s: FormalSum) -> Tuple[Dict[str, Fraction], Dict[str, RatFunc]]:
    """The inversion-class vector of s (class key -> nonzero coefficient) and
    the first argument of s seen in each class, cancelled classes included."""
    reps: Dict[str, RatFunc] = {}
    for _, a in s:
        reps.setdefault(inversion_class_key(a), a)
    return s.inversion_class_vector(), reps


# ---------------------------------------------------------------------------
# Symmetry groups
# ---------------------------------------------------------------------------

def iota(x: RatFunc, y: RatFunc) -> RatFunc:
    """(1 - x) / (1 - 1/y), the map behind the t-space involutions."""
    return (1 - x) / (1 - 1 / y)


@functools.cache
def group_generators() -> Mapping[str, Tuple[Automorphism, ...]]:
    """Generators of the three symmetry groups used by the catalog, built
    once per process and shared read-only (a mapping proxy of tuples):

    * alpha-space: the two involutions and the index shift acting on the
      original 22-term variables (closure order 192);
    * t-space: the coordinate 4-group action plus the iota-involution on the
      symmetric presentation (same group, order 192);
    * yz-space: the order-96 group acting on six variables.
    """
    a1, a2, a3 = (RatFunc.var(n) for n in ("a1", "a2", "a3"))
    beta1 = 1 - a1 + a1 * a3
    beta3 = 1 - a3 + a3 * a2
    pi1 = Automorphism({"a1": a1, "a2": a2, "a3": -beta1 / (a1 * beta3)})
    pi2 = Automorphism({"a1": 1 / a1, "a2": 1 / a3, "a3": 1 / a2})
    shift = Automorphism({"a1": a2, "a2": a3, "a3": a1})

    t1, t2, t3 = (RatFunc.var(n) for n in ("t1", "t2", "t3"))
    t4 = 1 / (t1 * t2 * t3)
    swap12 = Automorphism({"t1": t2, "t2": t1, "t3": t3})
    cycle4 = Automorphism({"t1": t2, "t2": t3, "t3": t4})

    # involution t_i -> iota(t_i, t_{i+2}), indices mod 4
    invol = Automorphism({"t1": iota(t1, t3), "t2": iota(t2, t4), "t3": iota(t3, t1)})

    ys = {i: RatFunc.var(f"y{i}") for i in (1, 2, 3)}
    zs = {i: RatFunc.var(f"z{i}") for i in (1, 2, 3)}
    g = Automorphism(
        {
            "y1": 1 / ys[1],
            "y2": zs[2],
            "y3": zs[3],
            "z1": zs[1],
            "z2": ys[2],
            "z3": ys[3],
        }
    )
    h = Automorphism(
        {
            "y1": ys[2],
            "y2": ys[3],
            "y3": ys[1],
            "z1": zs[2],
            "z2": zs[3],
            "z3": zs[1],
        }
    )
    return MappingProxyType(
        {
            "alpha": (pi1, pi2, shift),
            "t": (swap12, cycle4, invol),
            "yz": (g, h),
        }
    )


def ab_parametrization() -> Tuple[Dict[int, RatFunc], Dict[int, RatFunc]]:
    """The A_i = t_i t_4 and B_i arguments on the constraint t1 t2 t3 t4 = 1,
    gcd-cancelled."""
    t = {i: RatFunc.var(f"t{i}") for i in (1, 2, 3)}
    t[4] = 1 / (t[1] * t[2] * t[3])
    A = {i: (t[i] * t[4]).cancelled() for i in (1, 2, 3)}
    B = {}
    for i in (1, 2, 3):
        j, k = [x for x in (1, 2, 3) if x != i]
        B[i] = (((1 - 1 / t[j]) * (1 - 1 / t[k])) / ((1 - t[i]) * (1 - t[4]))).cancelled()
    return A, B


def _triple_product() -> RatFunc:
    y = {i: RatFunc.var(f"y{i}") for i in (1, 2, 3)}
    z = {i: RatFunc.var(f"z{i}") for i in (1, 2, 3)}
    return (
        (y[1] - z[3])
        / (1 - y[1] * z[2])
        * (y[2] - z[1])
        / (1 - y[2] * z[3])
        * (y[3] - z[2])
        / (1 - y[3] * z[1])
    )


# ---------------------------------------------------------------------------
# Wojtkowiak specialization: the 17-term block
# ---------------------------------------------------------------------------

def _wojtkowiak_x_part() -> Tuple[FormalSum, dict]:
    """x-dependent part of the degree-2 specialization of the trilogarithm
    family at phi(x) = (x-a)(x-b)/((x-1/c)(x-abc)), (A, B, C) = (inf, 0, 1)."""
    a, b, c, x = (RatFunc.var(n) for n in ("a", "b", "c", "x"))
    phi = (x - a) * (x - b) / ((x - 1 / c) * (x - a * b * c))
    families = {
        "A": [1 / c, a * b * c],  # preimages of infinity (poles)
        "B": [a, b],  # preimages of 0 (zeros)
        "C": [RatFunc.from_value(0), INFINITY],  # preimages of 1
    }

    terms: List[Tuple[Fraction, RatFunc]] = [(Fraction(1), phi)]  # cr(phi(x), 1, 0, inf) = phi(x)
    skipped = 0
    for sign, fams in WOJTKOWIAK_TERMS:
        for pts in itertools.product(*(families[f] for f in fams)):
            arg = cross_ratio(x, *pts)
            if arg is INFINITY:  # two coincident preimages of one point
                skipped += 1
            else:
                terms.append((Fraction(sign), arg))

    s = FormalSum(terms)
    x_part = FormalSum([(co, arg) for co, arg in s if arg.depends_on("x")])
    info = {
        "raw_terms": len(terms),
        "degenerate_skipped": skipped,
        "x_dependent_terms": len(x_part),
    }
    return x_part, info


def check_34_from_wojtkowiak() -> CheckReport:
    """Match the generic x-part of the specialization against the 17-term
    block, up to inversion of arguments and the 3-term relation.

    Each block class must either appear directly in the x-part (with one
    consistent overall orientation) or be realized through its two 3-term
    partners 1/(1-g) and 1-1/g carrying the same coefficient; the bookkeeping
    is exact, and the residue (a signed sum of 3-term instances) is
    additionally certified by the weight-3 kernel test.
    """
    x_part, info = _wojtkowiak_x_part()
    a, b, c, x = (RatFunc.var(n) for n in ("a", "b", "c", "x"))
    block = f17_sum(a, b, c, x)
    v_block = block.inversion_class_vector()
    v_part = x_part.inversion_class_vector()
    inter = set(v_part) & set(v_block)

    # one overall orientation on the directly shared classes
    if inter and all(v_part[k] == -v_block[k] for k in inter):
        orientation = -1
    elif inter and all(v_part[k] == v_block[k] for k in inter):
        orientation = 1
    else:
        info.update({"orientation": "inconsistent"})
        return CheckReport("wojt-34-match", False, info)

    # residue = x_part - orientation*block; its non-constant classes must
    # decompose into full 3-term triples {g, 1/(1-g), 1-1/g} with one shared
    # coefficient per triple
    diff = x_part - (block if orientation == 1 else block.scale(-1))
    coeffs, reps = class_vector_with_reps(diff)
    residue = {k: c for k, c in coeffs.items() if not reps[k].is_constant()}
    matched_direct = len(inter)
    triples = 0
    broken = []
    while residue:
        key = min(residue)
        coeff, g = residue[key], reps[key]
        pkeys = {inversion_class_key(1 / (1 - g)), inversion_class_key(1 - 1 / g)}
        if key in pkeys or len(pkeys) != 2:
            broken.append(key)
            break
        if any(residue.get(pk) != coeff for pk in pkeys):
            broken.append(key)
            break
        for k in pkeys | {key}:
            del residue[k]
        triples += 1
    via_three_term = sum(1 for k in v_block if k not in inter)
    kernel = kernel_test(diff, 3, trials=4, functionals=3, seed=40)

    passed = (
        not broken
        and not residue
        and matched_direct + via_three_term == len(v_block)
        and kernel.passed
    )
    matched_via_three_term = via_three_term if passed else triples
    info.update(
        {
            "block_classes": len(v_block),
            "x_part_classes": len(v_part),
            "orientation": orientation,
            "matched_direct": matched_direct,
            "matched_via_three_term": matched_via_three_term,
            "three_term_triples_removed": triples,
            "residue_nonconstant_leftover": len(residue),
            "difference_kernel": kernel.status,
            "preimages_of_infinity": ["1/c", "a*b*c"],
            "preimages_of_zero": ["a", "b"],
            "preimages_of_one": ["0", "infinity"],
        }
    )
    if broken:
        info["unmatched"] = broken[:8]
    return CheckReport("wojt-34-match", passed, info)


# ---------------------------------------------------------------------------
# 22-term -> 34-term substitution
# ---------------------------------------------------------------------------

def check_22_to_34_substitution(perturb: bool = False) -> CheckReport:
    """The cross-ratio substitution maps the symmetric 22-term presentation
    onto the 17-term block plus t-free terms (five classes plus constants).

    ``perturb`` swaps one substitution entry: the documented negative
    control, which must fail with t-dependent remainder classes.
    """
    a, b, c, t = (RatFunc.var(n) for n in ("a", "b", "c", "t"))
    images = {
        "t1": cross_ratio(t, 0, 1 / c, a),
        "t2": cross_ratio(t, 0, b, 1 / c),
        "t3": cross_ratio(t, 0, a, a * b * c),
    }
    if perturb:
        images["t2"] = cross_ratio(t, 0, b, 1 / a)
    product = images["t1"] * images["t2"] * images["t3"]
    t4 = product.inv()
    constraint_holds = (images["t1"] * images["t2"] * images["t3"] * t4).equivalent(1)

    mapped = get_equation("goncharov22_sym").sum.substitute_arguments(images)
    block = f17_sum(a, b, c, t)
    remainder, reps = class_vector_with_reps(mapped)
    v_block, block_reps = class_vector_with_reps(block)
    bump(remainder, v_block, -1)
    # a class of both keeps mapped's representative; either one serves, since
    # depending on t and being constant hold for a class or for none of it
    reps = {**block_reps, **reps}

    t_dependent = [k for k in remainder if reps[k].depends_on("t")]
    nonconstant_free = [
        k for k in remainder if not reps[k].depends_on("t") and not reps[k].is_constant()
    ]
    constants = [str(c) for k, c in remainder.items() if reps[k].is_constant()]
    passed = constraint_holds and not t_dependent and len(nonconstant_free) == 5
    details = {
        "constraint_product_is_one": constraint_holds,
        "t_dependent_remainder_classes": len(t_dependent),
        "t_free_nonconstant_classes": len(nonconstant_free),
        "constant_remainder_coefficients": constants,
    }
    if t_dependent:
        details["t_dependent_examples"] = t_dependent[:5]
    return CheckReport("sub-22-to-34", passed, details)


# ---------------------------------------------------------------------------
# G' correspondence
# ---------------------------------------------------------------------------

@functools.cache
def gprime_orbits() -> Tuple[tuple, ...]:
    """(the G' orbits of y1 and of the triple product, and those orbits'
    gcd-cancelled images under y_i -> A_i, z_i -> B_i), computed once per
    process.

    Criteria 3 and 4 both read these orbits; substituting A and B into the
    44 orbit elements is the expensive step they share.  The images are kept
    reduced: the checks read only their inversion classes and those of their
    squares, and a reduced image's square cancels far faster than a raw one's.
    """
    gens = group_generators()["yz"]
    orbits = [tuple(orbit(x, gens)) for x in (RatFunc.var("y1"), _triple_product())]
    A, B = ab_parametrization()
    binding = {f"y{i}": A[i] for i in (1, 2, 3)}
    binding.update({f"z{i}": B[i] for i in (1, 2, 3)})
    images = [
        tuple(
            g.substitute({v: binding[v] for v in g.vars if v in binding}).cancelled()
            for g in elements
        )
        for elements in orbits
    ]
    return (*orbits, *images)


def check_Gprime_correspondence() -> CheckReport:
    orbit_y1, orbit_prod, images_y1, images_prod = gprime_orbits()
    details: dict = {
        "gprime_order": group_order(group_generators()["yz"]),
        "orbit_y1": len(orbit_y1),
        "orbit_product": len(orbit_prod),
    }
    A, B = ab_parametrization()
    short_classes = {inversion_class_key(image) for image in images_y1}
    long_classes = {inversion_class_key(image) for image in images_prod}
    details["classes_up_to_inversion_short"] = len(short_classes)
    details["classes_up_to_inversion_long"] = len(long_classes)

    sym_classes = {
        inversion_class_key(arg)
        for _, arg in get_equation("goncharov22_sym").sum
        if not arg.is_constant()
    }
    union = short_classes | long_classes
    details["union_matches_22"] = union == sym_classes
    details["orbits_disjoint"] = not (short_classes & long_classes)

    # iota-induced involution acts like g on (B1, B2, B3, A1, A2, A3)
    t = {i: RatFunc.var(f"t{i}") for i in (1, 2, 3)}
    t4 = 1 / (t[1] * t[2] * t[3])

    tau = Automorphism(
        {"t1": iota(t4, t[1]), "t2": iota(t[3], t[2]), "t3": iota(t[2], t[3])}
    )
    acts_like_g = (
        tau.apply(B[1]).equivalent(1 / B[1])
        and tau.apply(B[2]).equivalent(A[2])
        and tau.apply(B[3]).equivalent(A[3])
        and tau.apply(A[1]).equivalent(A[1])
        and tau.apply(A[2]).equivalent(B[2])
        and tau.apply(A[3]).equivalent(B[3])
    )
    details["iota_acts_like_g"] = acts_like_g

    cyc = Automorphism({"t1": t[2], "t2": t[3], "t3": t[1]})
    acts_like_h = all(
        cyc.apply(B[i]).equivalent(B[i % 3 + 1]) and cyc.apply(A[i]).equivalent(A[i % 3 + 1])
        for i in (1, 2, 3)
    )
    details["cycle_acts_like_h"] = acts_like_h

    passed = (
        details["gprime_order"] == 96
        and len(orbit_y1) == 12
        and len(orbit_prod) == 32
        and len(short_classes) == 6
        and len(long_classes) == 16
        and details["union_matches_22"]
        and details["orbits_disjoint"]
        and acts_like_g
        and acts_like_h
    )
    return CheckReport("gprime-correspondence", passed, details)


# ---------------------------------------------------------------------------
# q-equations and the square-root description
# ---------------------------------------------------------------------------

def check_q_equations() -> CheckReport:
    A, B = ab_parametrization()

    def q(x: RatFunc, y: RatFunc) -> RatFunc:
        return (x - y) / (1 - x * y)

    def idx(i: int) -> int:
        return (i - 1) % 3 + 1

    identities_ok = True
    failures = []
    third_orientation = set()
    for i in (1, 2, 3):
        im, ip = idx(i - 1), idx(i + 1)
        eq1 = B[i].inv().equivalent(q(B[im], B[ip]) / q(A[ip], A[im]))
        eq2 = A[i].inv().equivalent(q(A[ip], 1 / B[im]) * q(A[im], 1 / B[ip]))
        lhs3 = A[ip] * (1 - A[i]) ** 2 / (A[i] * (1 - A[ip]) ** 2)
        rhs3 = B[ip] * (1 - B[i]) ** 2 / (B[i] * (1 - B[ip]) ** 2)
        # the third family holds with one consistent orientation of the
        # B-side (as displayed, or inverted: the B-indexing is cyclic only
        # up to orientation); record which
        if lhs3.equivalent(rhs3):
            eq3 = True
            third_orientation.add("as-displayed")
        elif lhs3.equivalent(rhs3.inv()):
            eq3 = True
            third_orientation.add("inverted")
        else:
            eq3 = False
        identities_ok = identities_ok and eq1 and eq2 and eq3
        if not (eq1 and eq2 and eq3):
            failures.append((i, eq1, eq2, eq3))
    identities_ok = identities_ok and len(third_orientation) == 1

    # square-root description, verified at the level of squares:
    # squares of the 16 described products == squares of the 16 long-orbit
    # arguments, as inversion-class sets
    *_, images_y1, images_prod = gprime_orbits()
    long_squares = {inversion_class_key(image.pow_int(2)) for image in images_prod}

    described_squares = set()
    signs = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]
    for (e1, e2, e3) in signs:
        if e1 * e2 * e3 == -1:  # alpha_1^e1 alpha_2^e2 alpha_3^e3
            arg = A[1].pow_int(e1) * A[2].pow_int(e2) * A[3].pow_int(e3)
            described_squares.add(inversion_class_key(arg))
    for i in (1, 2, 3):
        ip, ipp = idx(i + 1), idx(i + 2)
        for (e1, e2, e3) in signs:
            if e1 * e2 * e3 == 1:  # alpha_i^e1 beta_{i+1}^e2 beta_{i+2}^e3
                arg = A[i].pow_int(e1) * B[ip].pow_int(e2) * B[ipp].pow_int(e3)
                described_squares.add(inversion_class_key(arg))

    squares_match = described_squares == long_squares
    short_match = {inversion_class_key(A[i]) for i in (1, 2, 3)} | {
        inversion_class_key(B[i]) for i in (1, 2, 3)
    }
    short_ok = short_match == {inversion_class_key(image) for image in images_y1}

    passed = identities_ok and squares_match and short_ok
    details = {
        "nine_identities_exact": identities_ok,
        "third_family_orientation": sorted(third_orientation),
        "described_square_classes": len(described_squares),
        "orbit_square_classes": len(long_squares),
        "squares_match": squares_match,
        "short_orbit_is_A_B": short_ok,
    }
    if failures:
        details["failures"] = failures
    return CheckReport("q-equations", passed, details)


# ---------------------------------------------------------------------------
# 21-term symmetrization identity (three-level)
# ---------------------------------------------------------------------------

def check_gamma21_identity(seed: int = 20) -> CheckReport:
    """Compare the symmetrization of the two-instance combination with its
    displayed 21-argument form at three levels of equality.

    Level a: syntactic inversion-class equality.  Level b: the difference
    passes the weight-3 kernel test.  Level c: the difference vanishes
    numerically under CL_3.  The report records the strongest level holding.
    """
    from .catalog import gamma_core

    x1, x2, z1 = (RatFunc.var(n) for n in ("x1", "x2", "z1"))

    def big_gamma(u: RatFunc, v: RatFunc, w: RatFunc) -> FormalSum:
        return gamma_core(1 / (1 - u), (1 - u) / (1 - u * v), 1 - w) + gamma_core(
            1 - 1 / u, (1 - u * v) / (v * (1 - u)), w / (w - 1)
        )

    lhs = big_gamma(x1, x2, z1) + big_gamma(x2, x1, z1)
    rhs_spec = get_equation("gamma21_symmetrized")
    rhs = rhs_spec.sum

    rhs_classes = rhs.count_distinct_up_to_inversion()
    coeffs_ok = all(c in (1, -1, 2, -2) for c, _ in rhs)

    lhs_kernel = kernel_test(lhs, 3, trials=6, functionals=4, seed=seed)

    diff = lhs - rhs
    level_a = not diff.inversion_class_vector()

    verdict_b = kernel_test(diff, 3, trials=6, functionals=4, seed=seed)
    level_b = verdict_b.passed

    verdict_c = verify_numeric_sum(diff, 3, points=3, policy=PrecisionPolicy(40), seed=seed)
    level_c = verdict_c.passed

    if level_a:
        level = "syntactic"
    elif level_b and level_c:
        level = "kernel+numeric"
    elif level_c:
        level = "numeric-only"
    else:
        level = "none"

    passed = rhs_classes == 21 and coeffs_ok and (level_b and level_c)
    details = {
        "rhs_nonconstant_classes": rhs_classes,
        "rhs_coefficients_in_pm1_pm2": coeffs_ok,
        "lhs_is_equation_kernel": lhs_kernel.status,
        "syntactic_class_equality": level_a,
        "kernel_difference": verdict_b.status,
        "numeric_difference": verdict_c.status,
        "equality_level": level,
        "note": (
            "the published 21-term display is not itself annihilated by CL_3: "
            "the difference from the (verified) two-instance combination fails "
            "the exact kernel test with a witness, misses numerically, and is "
            "provably outside the span of inversion/3-term rewrites of the "
            "left-hand side"
        )
        if level == "none"
        else "",
    }
    return CheckReport("gamma21", passed, details)


# ---------------------------------------------------------------------------
# Counts and orders
# ---------------------------------------------------------------------------

GROUP_ORDERS = {"alpha": 192, "t": 192, "yz": 96}

#: Orbits of y1 and of the triple product under G'.  Up to inversion in yz
#: space y1 has 6 classes but the product still 32; both collapse to the 6
#: and 16 classes of the 22-term relation only once y, z are bound to A, B.
ORBIT_SIZES = {
    "y1_plain": 12,
    "product_plain": 32,
    "y1_up_to_inversion_yz": 6,
    "y1_substituted_up_to_inversion": 6,
    "product_substituted_up_to_inversion": 16,
}


def check_xi7_term_count() -> CheckReport:
    count = get_equation("xi7_explicit").sum.count_distinct_up_to_inversion()
    return CheckReport("xi7-term-count", count == 274, {"count": count})


def check_xi7_weights() -> CheckReport:
    ok = all(weight_wt(a, b) == weight_wt(c, d) for _, _, (a, b, c, d) in XI7_BLOCKS)
    return CheckReport("xi7-weights", ok, {"blocks": len(XI7_BLOCKS)})


def check_xi7_explicit_vs_symmetric() -> CheckReport:
    lhs = get_equation("xi7_explicit").sum.scale(60).inversion_class_vector()
    rhs = get_equation("xi7_symmetric").sum.inversion_class_vector()
    return CheckReport("xi7-explicit-vs-symmetric", lhs == rhs, {"classes": len(lhs)})


def check_group_orders() -> CheckReport:
    orders = {k: group_order(v) for k, v in group_generators().items()}
    return CheckReport("group-orders", orders == GROUP_ORDERS, orders)


def orbit_sizes(gprime_report: CheckReport) -> Dict[str, int]:
    """The ORBIT_SIZES quantities, reusing the orbits that
    check_Gprime_correspondence measured."""
    d = gprime_report.details
    orbit_y1 = gprime_orbits()[0]
    return {
        "y1_plain": d["orbit_y1"],
        "product_plain": d["orbit_product"],
        "y1_up_to_inversion_yz": len({inversion_class_key(f) for f in orbit_y1}),
        "y1_substituted_up_to_inversion": d["classes_up_to_inversion_short"],
        "product_substituted_up_to_inversion": d["classes_up_to_inversion_long"],
    }


def check_orbit_sizes() -> CheckReport:
    sizes = orbit_sizes(check_Gprime_correspondence())
    return CheckReport("orbit-sizes", sizes == ORBIT_SIZES, sizes)


def check_proof_algebra(n: int) -> CheckReport:
    """The exact weight-4 proof for one n (identities, claim, theorem)."""
    rep = proofalgebra_report(n)
    ok = all(rep["identities"].values()) and all(rep["claim_parts"].values()) and rep["theorem_zero"]
    return CheckReport(f"proof-algebra-n{n}", ok, rep)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: every check `polyrel check --name` runs, besides the proof-algebra-n<k> family
CHECKS: Dict[str, Callable[[], CheckReport]] = {
    "xi7-term-count": check_xi7_term_count,
    "xi7-weights": check_xi7_weights,
    "xi7-explicit-vs-symmetric": check_xi7_explicit_vs_symmetric,
    "group-orders": check_group_orders,
    "orbit-sizes": check_orbit_sizes,
    "gprime-correspondence": check_Gprime_correspondence,
    "q-equations": check_q_equations,
    "sub-22-to-34": check_22_to_34_substitution,
    "wojt-34-match": check_34_from_wojtkowiak,
    "gamma21": check_gamma21_identity,
}

_PROOF_ALGEBRA = re.compile(r"proof-algebra-n([2-9]|[1-9]\d+)")


def check_names() -> List[str]:
    """The names `polyrel check` accepts, the family written with <k>."""
    return [*CHECKS, "proof-algebra-n<k>"]


def find_check(name: str) -> Optional[Callable[[], CheckReport]]:
    """The check called ``name``, or None.

    The proof-algebra family takes any k >= 2 in its canonical spelling, so
    proof-algebra-n02 is unknown rather than an alias reporting as n2.
    """
    if name in CHECKS:
        return CHECKS[name]
    m = _PROOF_ALGEBRA.fullmatch(name)
    if m:
        return lambda: check_proof_algebra(int(m.group(1)))
    return None

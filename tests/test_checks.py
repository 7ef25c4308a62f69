from fractions import Fraction

import pytest

from polyrel.catalog import get_equation
from polyrel.checks import (
    ab_parametrization,
    check_22_to_34_substitution,
    check_34_from_wojtkowiak,
    check_gamma21_identity,
    check_Gprime_correspondence,
    check_q_equations,
    find_check,
    gprime_orbits,
    group_generators,
)
from polyrel.criterion import kernel_test
from polyrel.formal import group_closure
from polyrel.numeric import PrecisionPolicy
from polyrel.verify import verify_numeric_sum


def test_group_orders():
    gens = group_generators()
    assert len(group_closure(gens["yz"], bound=256)) == 96
    assert len(group_closure(gens["alpha"], bound=512)) == 192


def test_group_generators_are_built_once_and_shared_read_only():
    gens = group_generators()
    assert group_generators() is gens
    assert {k: len(v) for k, v in gens.items()} == {"alpha": 3, "t": 3, "yz": 2}
    assert all(isinstance(v, tuple) for v in gens.values())
    with pytest.raises(TypeError):
        gens["yz"] = ()


def test_wojtkowiak_34_match():
    rep = check_34_from_wojtkowiak()
    assert rep.passed
    # 1 + 5 * 8 cross ratios, 16 of them with two coincident preimages
    assert (rep.details["raw_terms"], rep.details["degenerate_skipped"]) == (25, 16)
    assert rep.details["block_classes"] == 17
    assert rep.details["matched_direct"] + rep.details["matched_via_three_term"] == 17
    assert rep.details["difference_kernel"] == "pass"


def test_22_to_34_substitution():
    rep = check_22_to_34_substitution()
    assert rep.passed
    assert rep.details["t_free_nonconstant_classes"] == 5
    assert rep.details["t_dependent_remainder_classes"] == 0
    assert rep.details["constraint_product_is_one"]


def test_22_to_34_negative_control():
    rep = check_22_to_34_substitution(perturb=True)
    assert not rep.passed
    assert rep.details["t_dependent_remainder_classes"] > 0


def test_gprime_correspondence():
    rep = check_Gprime_correspondence()
    assert rep.passed
    d = rep.details
    assert d["gprime_order"] == 96
    assert (d["orbit_y1"], d["orbit_product"]) == (12, 32)
    assert (d["classes_up_to_inversion_short"], d["classes_up_to_inversion_long"]) == (6, 16)
    assert d["union_matches_22"] and d["iota_acts_like_g"] and d["cycle_acts_like_h"]


def test_gprime_orbits_computed_once():
    orbit_y1, orbit_prod, images_y1, images_prod = gprime_orbits()
    assert gprime_orbits() is gprime_orbits()
    assert [len(x) for x in (orbit_y1, orbit_prod, images_y1, images_prod)] == [12, 32, 12, 32]
    # the images are reduced A, B rational functions in t1..t3 only
    for image in images_y1 + images_prod:
        assert image.cancelled() is image and set(image.vars) <= {"t1", "t2", "t3"}


def test_find_check_takes_canonical_names_only():
    assert find_check("proof-algebra-n2") is not None
    assert find_check("proof-algebra-n12") is not None
    for name in ("proof-algebra-n02", "proof-algebra-n002", "proof-algebra-n1", "proof-algebra-n0", "bogus"):
        assert find_check(name) is None


def test_ab_parametrization_is_reduced():
    A, B = ab_parametrization()
    for f in list(A.values()) + list(B.values()):
        assert f._cancelled is f


def test_q_equations():
    rep = check_q_equations()
    assert rep.passed
    assert rep.details["nine_identities_exact"]
    assert rep.details["squares_match"]
    assert rep.details["short_orbit_is_A_B"]
    assert rep.details["described_square_classes"] == 16


def test_ab_parametrization_constraint():
    from polyrel.ratfunc import RatFunc

    A, B = ab_parametrization()
    prod = A[1] * A[2] * A[3]
    # A1 A2 A3 = (t1 t2 t3) t4^3 = t4^2
    t = {i: RatFunc.var(f"t{i}") for i in (1, 2, 3)}
    t4 = 1 / (t[1] * t[2] * t[3])
    assert prod.equivalent(t4 * t4)


def test_gamma21_report_structure():
    rep = check_gamma21_identity()
    d = rep.details
    assert d["rhs_nonconstant_classes"] == 21
    assert d["rhs_coefficients_in_pm1_pm2"]
    # the left-hand side is a genuine functional equation
    assert d["lhs_is_equation_kernel"] == "pass"
    # the published display fails all three equality levels (documented)
    assert d["equality_level"] == "none"
    assert not rep.passed


def test_f17_specialization_difference_is_equation():
    # difference of the t=1 and t=0 specializations; at t=0 seven terms
    # degenerate to [1], so their net coefficient re-enters as a constant
    from polyrel.formal import FormalSum
    from polyrel.ratfunc import RatFunc

    f17 = get_equation("f17").sum
    at1 = f17.specialize({"t": Fraction(1)}, allow_degenerate=True)
    at0 = f17.specialize({"t": Fraction(0)}, allow_degenerate=True)
    assert not at1.degenerate and not at0.degenerate
    assert len(at0.dropped) == 7
    assert all(reason == "one" for _, reason, _ in at0.dropped)
    net = at0.dropped_ones_coefficient()
    assert net == 1
    diff = at1.sum - at0.sum - FormalSum.single(RatFunc.from_value(1), net)
    assert kernel_test(diff, 3, trials=4, functionals=3, seed=9).passed
    assert verify_numeric_sum(diff, 3, points=3, policy=PrecisionPolicy(40), seed=9).passed


def test_shared_multiplicity_compares_exact_fractions():
    from polyrel.formal import FormalSum
    from polyrel.ratfunc import RatFunc
    from polyrel.report import shared_multiplicity

    x, y = RatFunc.var("x"), RatFunc.var("y")
    assert shared_multiplicity(FormalSum([(1, x), (1, 1 / x), (2, y)]), 2)
    # the class {x, 1/x} has multiplicity 2 + 1/2, which truncates to 2
    assert not shared_multiplicity(FormalSum([(2, x), (Fraction(1, 2), 1 / x), (2, y)]), 2)
    assert not shared_multiplicity(FormalSum([(1, x), (2, y)]), 2)

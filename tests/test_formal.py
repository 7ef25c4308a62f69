import random
from fractions import Fraction

import pytest

from polyrel.checks import _triple_product, group_generators

from polyrel.formal import (
    Automorphism,
    ClosureBoundExceeded,
    FormalSum,
    group_closure,
    orbit,
)
from polyrel.ratfunc import RatFunc

x = RatFunc.var("x")
y = RatFunc.var("y")
one = RatFunc.from_value(1)


def test_cancelling_terms_vanish():
    s = FormalSum([(1, x), (-1, x)])
    assert s.is_zero()


def test_scale():
    s = FormalSum([(1, x), (1, y)]).scale(2)
    assert s.coefficient_of(x) == 2 and s.coefficient_of(y) == 2


def test_merge_requires_function_equality_not_representation():
    unreduced = (x * y) / y  # same function as x, different representation
    s = FormalSum([(1, x), (1, unreduced)])
    assert len(s) == 1
    assert s.coefficient_of(x) == 2


def test_map_arguments_shift():
    sigma = Automorphism({"t1": RatFunc.var("t2"), "t2": RatFunc.var("t3"), "t3": RatFunc.var("t1")})
    s = FormalSum.single(RatFunc.var("t1"))
    mapped = s.map_arguments(sigma)
    assert mapped.coefficient_of(RatFunc.var("t2")) == 1


def test_map_arguments_composition_order():
    a = Automorphism({"x": RatFunc.var("x") + 1})
    b = Automorphism({"x": 2 * RatFunc.var("x")})
    s = FormalSum.single(x)
    via_compose = s.map_arguments(a.compose(b))
    stepwise = s.map_arguments(b).map_arguments(a)
    assert via_compose == stepwise


def test_specialize_five_point_sum():
    args = [x, y, x * y, (1 - x) / (1 - 1 / y), (1 - y) / (1 - 1 / x)]
    s = FormalSum([(1, a) for a in args])
    res = s.specialize({"x": Fraction(1, 2), "y": Fraction(1, 3)})
    assert not res.degenerate
    assert len(res.sum) == 5
    assert all(a.is_constant() for _, a in res.sum)


def test_specialize_pole_is_degenerate():
    s = FormalSum.single(1 / (1 - x))
    res = s.specialize({"x": Fraction(1)})
    assert res.degenerate
    assert res.dropped[0][1] == "pole"


def test_specialize_keeps_constant_terms():
    s = FormalSum([(Fraction(-3), one), (1, x)])
    res = s.specialize({"x": Fraction(2, 5)})
    assert not res.degenerate
    assert res.sum.coefficient_of(one) == -3


def test_specialize_allow_degenerate_drops_and_reports():
    s = FormalSum([(1, x), (1, x * x)])
    res = s.specialize({"x": Fraction(1)}, allow_degenerate=True)
    assert not res.degenerate
    assert res.sum.is_zero()
    assert len(res.dropped) == 2


def test_count_distinct_up_to_inversion():
    s = FormalSum([(1, x), (1, one / x)])
    assert s.count_distinct_up_to_inversion() == 1
    t = FormalSum([(1, x), (1, y), (Fraction(2), one)])
    assert t.count_distinct_up_to_inversion() == 2  # constants ignored


def test_closure_identity_only():
    ident = Automorphism.identity(["x"])
    assert len(group_closure([ident])) == 1


def test_closure_of_involution_and_shift():
    # <z -> 1/z, z -> 1-z> generates S3 on P^1
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    group = group_closure([inv, flip])
    assert len(group) == 6


def test_closure_bound_enforced():
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    with pytest.raises(ClosureBoundExceeded):
        group_closure([inv, flip], bound=3)


def test_closure_is_composition_closed():
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    group = group_closure([inv, flip])
    keys = {g._key for g in group}
    for a in group:
        for b in group:
            assert a.compose(b)._key in keys


def test_orbit_of_constant():
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    group = group_closure([inv])
    assert len(orbit(RatFunc.from_value(1), group)) == 1


def test_orbit_s3_on_f_factors():
    # the S3 action permutes the f_i and fixes f
    z = RatFunc.var("z")
    inv = Automorphism({"z": 1 / z})
    flip = Automorphism({"z": 1 - z})
    group = group_closure([inv, flip])
    f1 = -z / (1 - z + z * z)
    f = z * z * (1 - z) ** 2 / (1 - z + z * z) ** 3
    orb_f1 = orbit(f1, group)
    orb_f = orbit(f, group)
    assert len(orb_f) == 1
    assert len(orb_f1) == 3
    up_to_inv = orbit(f1, group, up_to_inversion=True)
    assert len(up_to_inv) == 3


def test_closure_cache_hands_out_fresh_lists():
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    first = group_closure([inv, flip])
    keys = [g._key for g in first]
    first.clear()
    second = group_closure([inv, flip])
    assert [g._key for g in second] == keys
    second.append(inv)
    assert [g._key for g in group_closure([inv, flip])] == keys


def test_closure_cache_hit_rechecks_bound():
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    assert len(group_closure([inv, flip], bound=6)) == 6
    with pytest.raises(ClosureBoundExceeded):
        group_closure([inv, flip], bound=5)
    assert len(group_closure([inv, flip], bound=6)) == 6


def test_closure_is_shared_between_equal_generators():
    first = group_closure(group_generators()["yz"], bound=256)
    second = group_closure(group_generators()["yz"], bound=256)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))


def _random_ratfunc(rng: random.Random, names) -> RatFunc:
    def poly() -> RatFunc:
        total = RatFunc.from_value(rng.randint(-3, 3))
        for _ in range(3):
            term = RatFunc.from_value(rng.choice([-2, -1, 1, 2, Fraction(1, 2)]))
            for v in names:
                term = term * RatFunc.var(v).pow_int(rng.randint(0, 2))
            total = total + term
        return total

    den = poly()
    while den.is_zero():
        den = poly()
    common = 1 + RatFunc.var(names[0]) * RatFunc.var(names[-1])
    return (poly() * common) / (den * common)


@pytest.mark.parametrize("name", ["alpha", "t", "yz"])
def test_monomial_apply_matches_sympy_cancel(name):
    group = [
        s for s in group_closure(group_generators()[name], bound=512) if s._monomial is not None
    ]
    assert len(group) == {"alpha": 6, "t": 48, "yz": 96}[name]
    rng = random.Random(f"monomial-{name}")
    fs = [_random_ratfunc(rng, group[0].variables).cancelled() for _ in range(2)]
    if name == "yz":
        fs = fs[:1] + [_triple_product().cancelled()]
    for sigma in group:
        for f in fs:
            fast = sigma.apply(f)
            slow = f.substitute({v: sigma.images[v] for v in f.vars}).cancelled()
            assert fast._cancelled is fast
            assert fast.serialize() == slow.serialize()
            assert fast.vars == slow.vars


def test_non_unimodular_monomial_maps_are_not_flagged():
    assert Automorphism({"x": x * x})._monomial is None
    assert Automorphism({"x": x * y, "y": x * y})._monomial is None
    assert Automorphism({"x": x * y, "y": x / y})._monomial is None  # det -2
    assert Automorphism({"x": 1 - x})._monomial is None
    assert Automorphism({"x": 2 / x})._monomial is not None
    assert Automorphism({"x": x * y, "y": y})._monomial is not None
    assert Automorphism({"x": y, "y": x})._monomial is not None
    # (x+1)/(y+1) is reduced, its image (xy+1)/(xy+1) is not: the gcd must run
    collapse = Automorphism({"x": x * y, "y": x * y})
    f = ((x + 1) / (y + 1)).cancelled()
    assert collapse.apply(f).cancelled().serialize() == "(1)"

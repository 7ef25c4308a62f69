import random
from fractions import Fraction

import pytest

from polyrel import formal
from polyrel.catalog import equation_names, get_equation
from polyrel.checks import _triple_product, group_generators

from polyrel.formal import (
    Automorphism,
    ClosureBoundExceeded,
    FormalSum,
    group_closure,
    group_order,
    inversion_class_key,
    orbit,
)
from polyrel.ratfunc import POLE, RatFunc

x = RatFunc.var("x")
y = RatFunc.var("y")
one = RatFunc.from_value(1)


def test_cancelling_terms_vanish():
    s = FormalSum([(1, x), (-1, x)])
    assert s.is_zero()


def test_scale():
    s = FormalSum([(1, x), (1, y)]).scale(2)
    assert s.coefficient_of(x) == 2 and s.coefficient_of(y) == 2


def reference_terms(terms):
    """The constructor's canonical terms by the definition: each argument is
    compared with every representative so far by cross-multiplication, and
    the first object seen for a function represents it.

    Values at one rational point rule out most pairs first; equal functions
    agree wherever both are defined, so this never separates them.
    """
    values = {}

    def value(f):
        if id(f) not in values:
            v = f.evaluate({name: Fraction(sum(map(ord, name)) % 89 + 2, 97) for name in f.vars})
            values[id(f)] = v if isinstance(v, Fraction) else None
        return values[id(f)]

    def same(f, g):
        a, b = value(f), value(g)
        return (a is None or b is None or a == b) and f.equivalent(g)

    entries = []  # [representative, accumulated coefficient]
    for coeff, arg in terms:
        c = Fraction(coeff)
        if c == 0:
            continue
        entry = next((e for e in entries if same(e[0], arg)), None)
        if entry is None:
            entries.append([arg, c])
        else:
            entry[1] += c
    collected = [(acc, rep) for rep, acc in entries if acc != 0]
    collected.sort(key=lambda t: t[1].serialize())
    return tuple(collected)


def _assert_same_terms(s, expected):
    assert len(s.terms) == len(expected)
    for (c, arg), (ec, earg) in zip(s.terms, expected):
        assert c == ec and type(c) is Fraction
        assert arg is earg


_x_again = (x * y) / y  # another object for the function x


@pytest.mark.parametrize(
    "terms",
    [
        [(1, x), (2, y), (3, x)],
        [(1, x), (-1, x), (2, y)],  # the repeated object cancels
        [(1, x), (-1, x), (5, x)],  # cancels, then comes back
        [(1, x), (1, _x_again), (1, _x_again), (1, x)],
        [(1, _x_again), (1, x), (1, _x_again), (-2, x)],
        [(Fraction(1, 2), one), (0, x), (Fraction(-1, 2), one), (3, x)],
    ],
    ids=["merge", "cancel", "cancel-reappear", "rep-first", "equivalent-first", "const"],
)
def test_repeated_object_merges_like_reference(terms):
    _assert_same_terms(FormalSum(terms), reference_terms(terms))


def _random_terms(seed):
    """Terms over a small pool of functions of x, y and constants, with
    unreduced copies (f*g)/g of pool members and zero coefficients mixed in."""
    rng = random.Random(seed)

    def poly():
        p = RatFunc.from_value(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            p = p + rng.choice([-1, 1, 2]) * rng.choice([x, y, x * y, x * x])
        return p

    pool = [poly() / poly() for _ in range(6)]
    pool += [RatFunc.from_value(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(3)]
    terms = []
    for _ in range(40):
        f = rng.choice(pool)
        if rng.random() < 0.4:
            g = poly()
            f = (f * g) / g
        terms.append((rng.choice([-2, -1, 0, 1, Fraction(1, 2), 3]), f))
    return terms


@pytest.mark.parametrize("seed", range(8))
def test_random_sums_merge_like_reference(seed):
    terms = _random_terms(seed)
    args = [a for _, a in terms]
    assert any(a.is_constant() for a in args)
    assert any(a != b and a.equivalent(b) for a in args for b in args)  # unreduced copies
    _assert_same_terms(FormalSum(terms), reference_terms(terms))


def test_xi7_block_table_merges_like_reference():
    from polyrel.catalog import XI7_BLOCKS, _block_sum

    terms = [
        (first * second * k, arg)
        for first, second, block in XI7_BLOCKS
        for k, arg in _block_sum(*block)
    ]
    assert (len(terms), len({id(arg) for _, arg in terms})) == (432, 301)
    _assert_same_terms(FormalSum(terms), reference_terms(terms))


@pytest.mark.parametrize("c", [60, -1, Fraction(1, 7), 0])
def test_scale_matches_constructor_on_catalog(c):
    for name in equation_names():
        s = get_equation(name).sum
        _assert_same_terms(s.scale(c), FormalSum([(k * c, a) for k, a in s.terms]).terms)


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
    assert len(group_closure([inv, flip], bound=6)) == 6
    for bound in (3, 5):
        with pytest.raises(ClosureBoundExceeded):
            group_closure([inv, flip], bound=bound)


def test_closure_cache_hit_rechecks_bound():
    # Each call honours its own bound, whatever earlier calls with the same
    # generators returned.
    inv = Automorphism({"z": 1 / RatFunc.var("z")})
    flip = Automorphism({"z": 1 - RatFunc.var("z")})
    assert len(group_closure([inv, flip], bound=6)) == 6
    with pytest.raises(ClosureBoundExceeded):
        group_closure([inv, flip], bound=5)
    assert len(group_closure([inv, flip], bound=6)) == 6


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
    classes = {inversion_class_key(g) for g in orb_f1}
    assert classes == {inversion_class_key(g) for g in reference_orbit(f1, group, True)}
    assert len(classes) == 3


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


def test_monomial_apply_with_rational_coefficients():
    # x -> (2/3)·y/x, y -> (-5/7)·y: exponent rows (-1, 1), (0, 1), det -1
    sigma = Automorphism({"x": Fraction(2, 3) * y / x, "y": Fraction(-5, 7) * y})
    assert sigma._monomial is not None
    rng = random.Random("monomial-rational")
    for _ in range(4):
        f = _random_ratfunc(rng, ("x", "y")).cancelled()
        fast = sigma.apply(f)
        slow = f.substitute({v: sigma.images[v] for v in f.vars}).cancelled()
        assert fast._cancelled is fast
        assert fast.serialize() == slow.serialize()
        assert fast.vars == slow.vars


@pytest.mark.parametrize(
    "images",
    # x -> (2/3)·y^-1: a rational scalar on a negative exponent
    [{"x": y, "y": 3 ** 40 * x}, {"x": 2 / (3 * y), "y": x}],
    ids=["large-integral-scalar", "rational-scalar"],
)
def test_monomial_apply_keeps_scalars_exact(images):
    # q = nc/dc on the int coefficients 3^40 and 1 would be a float, which
    # loses 3^40; the scalar must stay an exact Fraction
    sigma = Automorphism(images)
    assert sigma._monomial is not None
    assert all(type(q) is Fraction for q, _ in sigma._monomial.values())
    rng = random.Random("monomial-scalar")
    for _ in range(4):
        f = _random_ratfunc(rng, ("x", "y")).cancelled()
        fast = sigma.apply(f)
        slow = f.substitute(sigma.images).cancelled()
        assert fast == slow
        assert fast.serialize() == slow.serialize()


def test_det_matches_sympy():
    import sympy

    rng = random.Random("det")
    for n in range(1, 7):
        for _ in range(30):
            # mostly zeros, so that pivots vanish and rows swap
            entries = [0, 0, 0, 1, -1, rng.randint(-9, 9)]
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = list(m[0])  # singular
            det = formal._det(m)
            assert type(det) is int
            assert det == sympy.Matrix(m).det()
    assert formal._det([]) == 1


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


# -- against the cancel-everything references ------------------------------------


def reference_closure(generators):
    """Closure that cancels every composition and looks it up by key."""
    variables = generators[0].variables
    ident = Automorphism.identity(variables)
    seen = {ident._key: ident}
    frontier = []
    for g in generators:
        if g._key not in seen:
            seen[g._key] = g
            frontier.append(g)
    while frontier:
        new_frontier = []
        for g in generators:
            for h in frontier:
                composed = g.compose(h)
                if composed._key not in seen:
                    seen[composed._key] = composed
                    new_frontier.append(composed)
        frontier = new_frontier
    return sorted(seen.values(), key=lambda a: a._key)


def reference_orbit(f, group, up_to_inversion=False):
    """Orbit that cancels every image and keys it by its serialization."""
    f = f.cancelled()
    reps = {}
    for sigma in group:
        image = sigma.apply(f).cancelled()
        key = inversion_class_key(image) if up_to_inversion else image.serialize()
        reps.setdefault(key, image)
    return [reps[k] for k in sorted(reps)]


def assert_same_orbit(got, ref, up_to_inversion):
    """``got`` is a plain orbit, ``ref`` a reference_orbit with the flag: up to
    inversion they have the same classes, else they serialize alike."""
    if up_to_inversion:
        assert {inversion_class_key(g) for g in got} == {inversion_class_key(g) for g in ref}
    else:
        assert [g.serialize() for g in got] == [g.serialize() for g in ref]


def _s3_generators():
    z = RatFunc.var("z")
    return [Automorphism({"z": 1 / z}), Automorphism({"z": 1 - z})]


def _generators(name):
    return _s3_generators() if name == "s3" else group_generators()[name]


def _orbit_cases():
    a1, a3 = RatFunc.var("a1"), RatFunc.var("a3")
    t1, t2 = RatFunc.var("t1"), RatFunc.var("t2")
    z = RatFunc.var("z")
    return {
        "alpha": [1 / a1, (1 - a1 + a1 * a3) / a3],
        "t": [t1, t1 * t2],
        "yz": [RatFunc.var("y1"), _triple_product()],
        "s3": [-z / (1 - z + z * z), z * z * (1 - z) ** 2 / (1 - z + z * z) ** 3, z * z - 3],
    }


@pytest.mark.parametrize("name", ["alpha", "t", "yz", "s3"])
def test_closure_matches_reference(name):
    gens = _generators(name)
    expected = [g._key for g in reference_closure(gens)]
    assert len(expected) == {"alpha": 192, "t": 192, "yz": 96, "s3": 6}[name]
    assert [g._key for g in group_closure(gens, bound=512)] == expected
    assert group_order(gens) == len(expected)


@pytest.mark.parametrize("up_to_inversion", [False, True])
@pytest.mark.parametrize("name", ["alpha", "t", "yz", "s3"])
def test_orbit_matches_reference(name, up_to_inversion):
    gens = _generators(name)
    group = group_closure(gens, bound=512)
    for f in _orbit_cases()[name]:
        ref = reference_orbit(f, group, up_to_inversion=up_to_inversion)
        assert_same_orbit(orbit(f, gens), ref, up_to_inversion)


def _klein_group_at_probe():
    """w -> ±w^±1 conjugated to w = z - r, for r = 3/19: two of the four maps
    have a pole at z = r, and the identity and the reflection 2r - z both
    take the value r there."""
    z = RatFunc.var("z")
    r = Fraction(3, 19)
    return r, [Automorphism({"z": r + 1 / (z - r)}), Automorphism({"z": 2 * r - z})]


def test_closure_and_orbit_fall_back_at_poles():
    r, gens = _klein_group_at_probe()
    z = RatFunc.var("z")
    assert gens[0].images["z"].evaluate({"z": r}) is POLE
    group = group_closure(gens, bound=16)
    assert [g._key for g in group] == [g._key for g in reference_closure(gens)]
    assert len(group) == 4
    # f has a pole at z = r itself
    for f in (z, 1 / (z - r), (z * z + 1) / (z - r + 1)):
        for inv in (False, True):
            assert_same_orbit(orbit(f, group), reference_orbit(f, group, inv), inv)
    assert len(orbit(z, group)) == 4
    # w -> 1/(1 - w), order 3: rho has a value at z = r but rho^2 a pole
    rho = Automorphism({"z": r + 1 / (1 - (z - r))})
    assert rho.images["z"].evaluate({"z": r}) == r + 1
    cyclic = group_closure([rho], bound=16)
    assert len(cyclic) == 3
    assert [g._key for g in cyclic] == [g._key for g in reference_closure([rho])]


def test_equal_values_at_the_probe_point_stay_distinct():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    r, s = Fraction(58, 15), Fraction(68, 111)
    p = {"x": r, "y": s}
    flip_x = Automorphism({"x": 2 * r - x, "y": y})
    flip_y = Automorphism({"x": x, "y": 2 * s - y})
    # every element of this Klein group fixes the point p
    group = group_closure([flip_x, flip_y], bound=16)
    assert len(group) == 4
    assert {tuple(g.images[v].evaluate(p) for v in ("x", "y")) for g in group} == {(r, s)}
    assert [g._key for g in group] == [g._key for g in reference_closure([flip_x, flip_y])]
    # x and 2r - x both take the value r there, as do y and 2s - y
    orb = orbit(x * y, group)
    assert len(orb) == 4
    assert [g.serialize() for g in orb] == [
        g.serialize() for g in reference_orbit(x * y, group)
    ]
    assert len(orbit(x, group)) == 2


# -- closure through the permutation action on the variables' orbit --------------


def _count_applies(monkeypatch):
    """A list that records every argument Automorphism.apply is called with."""
    applied = []
    apply = Automorphism.apply

    def counted(sigma, f):
        applied.append(f)
        return apply(sigma, f)

    monkeypatch.setattr(Automorphism, "apply", counted)
    return applied


@pytest.mark.parametrize("image", [RatFunc.var("z") + 1, 2 * RatFunc.var("z")])
def test_infinite_order_generator_exceeds_the_orbit_bound(image, monkeypatch):
    applied = _count_applies(monkeypatch)
    with pytest.raises(ClosureBoundExceeded):
        group_closure([Automorphism({"z": image})], bound=8)
    assert len(applied) == 8  # z, g(z), ..., g^7(z): the ninth orbit element stops it


def test_generators_on_different_variable_sets_are_rejected():
    with pytest.raises(formal.DomainError):
        group_closure([Automorphism({"x": y, "y": x}), Automorphism({"x": 1 - x})], bound=16)


def test_image_outside_the_domain_is_rejected():
    with pytest.raises(formal.DomainError):
        group_closure([Automorphism({"x": x * y})], bound=16)


def test_mixed_monomial_and_gcd_generators_match_reference():
    swap = Automorphism({"x": y, "y": x})
    flip = Automorphism({"x": 1 - x, "y": y})
    assert swap._monomial is not None and flip._monomial is None
    group = group_closure([swap, flip], bound=16)
    assert len(group) == 8
    assert [g._key for g in group] == [g._key for g in reference_closure([swap, flip])]


@pytest.mark.parametrize("name, orbit_size", [("alpha", 32), ("t", 32), ("yz", 12)])
def test_closure_applies_each_generator_once_per_orbit_element(name, orbit_size, monkeypatch):
    gens = _generators(name)
    applied = _count_applies(monkeypatch)

    def no_compose(*args):
        raise AssertionError("closure composed two automorphisms")

    monkeypatch.setattr(Automorphism, "compose", no_compose)
    group_closure(gens, bound=512)
    assert len(applied) == orbit_size * len(gens)
    assert len({f.serialize() for f in applied}) == orbit_size


@pytest.mark.parametrize("name, applies", [("alpha", [96, 36]), ("t", [96, 36]), ("yz", [24, 64])])
def test_orbit_applies_each_generator_once_per_orbit_element(name, applies, monkeypatch):
    gens = _generators(name)
    applied = _count_applies(monkeypatch)

    def no_compose(*args):
        raise AssertionError("orbit composed two automorphisms")

    monkeypatch.setattr(Automorphism, "compose", no_compose)
    counts = []
    for f in _orbit_cases()[name]:
        size = len(orbit(f, gens))
        counts.append(len(applied))
        assert counts[-1] == size * len(gens)
        applied.clear()
    assert counts == applies


@pytest.mark.parametrize("name", ["alpha", "t", "yz", "s3"])
def test_orbit_of_generators_matches_orbit_of_group(name):
    gens = _generators(name)
    group = group_closure(gens, bound=512)
    for f in _orbit_cases()[name] + [RatFunc.from_value(Fraction(2, 3))]:
        assert [g.serialize() for g in orbit(f, gens)] == [
            g.serialize() for g in orbit(f, group)
        ]


def test_orbit_of_infinite_order_generator_exceeds_the_limit():
    z = RatFunc.var("z")
    with pytest.raises(ClosureBoundExceeded):
        orbit(z, [Automorphism({"z": z + 1})])


@pytest.mark.parametrize("up_to_inversion", [False, True])
@pytest.mark.parametrize("name", ["alpha", "t"])
def test_criterion_3_orbits_serialize_as_over_the_reference_closure(name, up_to_inversion):
    gens = _generators(name)
    ref_group = reference_closure(gens)
    for f in _orbit_cases()[name]:
        ref = reference_orbit(f, ref_group, up_to_inversion=up_to_inversion)
        assert_same_orbit(orbit(f, gens), ref, up_to_inversion)


def test_gprime_orbits_serialize_as_over_the_reference_closure():
    from polyrel.checks import ab_parametrization, gprime_orbits

    *orbits, images_y1, images_prod = gprime_orbits()
    ref_group = reference_closure(_generators("yz"))
    A, B = ab_parametrization()
    binding = {f"y{i}": A[i] for i in (1, 2, 3)}
    binding.update({f"z{i}": B[i] for i in (1, 2, 3)})
    for got, images, f in zip(orbits, (images_y1, images_prod), _orbit_cases()["yz"]):
        ref = reference_orbit(f, ref_group)
        assert [g.serialize() for g in got] == [g.serialize() for g in ref]
        ref_images = [
            g.substitute({v: binding[v] for v in g.vars if v in binding}).cancelled()
            for g in ref
        ]
        assert [g.serialize() for g in images] == [g.serialize() for g in ref_images]


# -- ArgumentPlan: arguments in every variable skip the exponent scatter ---------------

_PLAN_FIELDS = ("variables", "degrees", "monomials", "polys", "args", "constants")


def _assert_fast_path_matches_scatter(monkeypatch, terms):
    """The plan built as it is equals the plan with every argument
    scattered into full-width exponents; returns how many num/den
    polynomials took the fast path."""
    taken = []
    in_order = formal._in_plan_order

    def spy(names, variables):
        taken.append(in_order(names, variables))
        return taken[-1]

    with monkeypatch.context() as m:
        m.setattr(formal, "_in_plan_order", spy)
        fast = formal.ArgumentPlan(terms)
    with monkeypatch.context() as m:
        m.setattr(formal, "_in_plan_order", lambda names, variables: False)
        slow = formal.ArgumentPlan(terms)
    for name in _PLAN_FIELDS:
        assert getattr(fast, name) == getattr(slow, name), name
    return sum(taken)


@pytest.mark.parametrize("name", equation_names())
def test_plan_fast_path_matches_the_scatter_on_the_catalog(monkeypatch, name):
    _assert_fast_path_matches_scatter(monkeypatch, get_equation(name).sum.terms)


def test_plan_fast_path_with_an_argument_missing_a_variable(monkeypatch):
    z = RatFunc.var("z")
    s = FormalSum(
        [
            (1, x * y * z),
            (Fraction(-1, 2), (1 - x * z) / (1 - y)),
            (2, (x + 1) / (y * y + 3)),  # lacks z
            (-1, x * x - 5),  # only x
            (3, RatFunc.from_value(Fraction(7, 3))),
        ]
    )
    taken = _assert_fast_path_matches_scatter(monkeypatch, s.terms)
    assert taken == 4  # the num and den of x*y*z and of (1 - xz)/(1 - y)
    plan = s.plan()
    assert plan.variables == ("x", "y", "z") and plan.degrees == (2, 2, 1)
    assert plan.constants == ((3, Fraction(7, 3)),)
    assert all(len(exp) == 3 for exp in plan.monomials)

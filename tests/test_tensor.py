import random
from fractions import Fraction

from polyrel.tensor import add_product, bump, lin, sym, sym_power, unpack, vsum, wedge


def test_bump_drops_cancelled_keys():
    acc = {1: 2, 2: Fraction(1, 2), 3: 7}
    assert bump(acc, {1: 1, 2: Fraction(1, 4), 4: 5}, -2) is acc
    assert acc == {3: 7, 4: -10}
    assert bump(acc, {3: 1}, 0) == {3: 7, 4: -10}
    assert lin((1, {1: 1}), (-1, {1: 1})) == {}
    assert vsum([{1: 1, 2: 1}, {1: -1}]) == {2: 1}


# -- tuple-key reference: every ordering of every product, keys left unpacked ----------

def _accumulate(out, key, c):
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def ref_sym_power(v, k):
    out = {(): 1}
    for _ in range(k):
        step = {}
        for key, c in out.items():
            for a, ca in v.items():
                _accumulate(step, tuple(sorted((*key, a))), c * ca)
        out = step
    return out


def ref_sym(u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            _accumulate(out, tuple(sorted((a, b))), ca * cb)
    return out


def ref_wedge(u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a < b:
                _accumulate(out, (a, b), ca * cb)
            elif b < a:
                _accumulate(out, (b, a), -ca * cb)
    return out


def ref_add_product(acc, left, right, c):
    for lk, lc in left.items():
        for rk, rc in right.items():
            _accumulate(acc, lk + rk, c * lc * rc)
    return acc


def pack(fields, width):
    """A tuple of indices as one int, the first index in the highest field."""
    key = 0
    for i in fields:
        key = key << width | i
    return key


def packed(tensor, width):
    return {pack(k, width): c for k, c in tensor.items()}


def test_packed_pieces_match_tuple_keys():
    rng = random.Random(20260808)
    for width in range(1, 8):
        for as_fraction in (False, True):
            for _ in range(6):
                def draw():
                    # keys inserted in random order: every key must come out sorted
                    keys = rng.sample(range(1 << width), rng.randint(0, min(4, 1 << width)))
                    if as_fraction:
                        return {a: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for a in keys}
                    return {a: rng.choice([-3, -1, 1, 2]) for a in keys}

                u, v = draw(), draw()
                assert sym(u, v, width) == packed(ref_sym(u, v), width)
                assert wedge(u, v, width) == packed(ref_wedge(u, v), width)
                assert wedge(v, v, width) == {}
                assert sym_power(v, 2, width) == sym(v, v, width)
                for k in range(6):
                    power = sym_power(v, k, width)
                    assert power == packed(ref_sym_power(v, k), width)
                    c = rng.choice([-2, 1, 3])
                    acc = add_product({}, power, wedge(u, v, width), c, 2 * width)
                    expected = ref_add_product({}, ref_sym_power(v, k), ref_wedge(u, v), c)
                    assert acc == packed(expected, width)
                    assert add_product(acc, power, wedge(u, v, width), -c, 2 * width) == {}
                for a, b in zip(u, v):
                    assert unpack(pack((a, b), width), width) == (a, b)


def test_sym_power_two_is_sym():
    width = 3
    for v in ({3: 2, 2: -1, 5: Fraction(1, 3)}, {1: 1, 6: -4}, {7: 5}):
        assert sym_power(v, 2, width) == sym(v, v, width)


def test_sym_power_carries_multinomial_coefficients():
    width, a, b = 3, 5, 2  # keys inserted out of order: every key must come out sorted
    assert sym_power({a: 1, b: 1}, 3, width) == {
        pack((b, b, b), width): 1, pack((b, b, a), width): 3,
        pack((b, a, a), width): 3, pack((a, a, a), width): 1,
    }
    assert sym_power({a: 2, b: -1}, 1, width) == {a: 2, b: -1}
    assert sym_power({a: 2}, 0, width) == {0: 1}
    assert sym_power({}, 2, width) == {}


def test_wedge_and_products_keep_no_zero_coordinates():
    width = 3
    u, v = {2: 1, 3: 1}, {2: 1, 3: 1}
    assert wedge(u, v, width) == {}
    assert wedge({3: 1}, {2: 1}, width) == {pack((2, 3), width): -1}
    # (a + b).(a - b) = a.a - b.b: the cross terms cancel
    assert sym({5: 1, 2: 1}, {5: 1, 2: -1}, width) == {pack((5, 5), width): 1, pack((2, 2), width): -1}
    acc = add_product({}, {2: 1}, {pack((2, 3), width): 4}, 3, 2 * width)
    assert acc == {pack((2, 2, 3), width): 12}
    assert add_product(acc, {2: 2}, {pack((2, 3), width): 3}, -2, 2 * width) == {}

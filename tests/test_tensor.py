from fractions import Fraction

from polyrel.tensor import add_product, bump, lin, sym, sym_power, unpack, vsum, wedge


def test_sym_power_two_is_sym():
    for v in ({3: 2, 2: -1, 5: Fraction(1, 3)}, {("xi", 1): 1, ("eta", 2): -4}, {7: 5}):
        assert sym_power(v, 2) == sym(v, v)


def test_sym_power_carries_multinomial_coefficients():
    a, b = 5, 2  # keys inserted out of order: every key must come out sorted
    assert sym_power({a: 1, b: 1}, 3) == {(b, b, b): 1, (b, b, a): 3, (b, a, a): 3, (a, a, a): 1}
    assert sym_power({a: 2, b: -1}, 1) == {(a,): 2, (b,): -1}
    assert sym_power({a: 2}, 0) == {(): 1}
    assert sym_power({}, 2) == {}


def test_bump_drops_cancelled_keys():
    acc = {1: 2, 2: Fraction(1, 2), 3: 7}
    assert bump(acc, {1: 1, 2: Fraction(1, 4), 4: 5}, -2) is acc
    assert acc == {3: 7, 4: -10}
    assert bump(acc, {3: 1}, 0) == {3: 7, 4: -10}
    assert lin((1, {1: 1}), (-1, {1: 1})) == {}
    assert vsum([{1: 1, 2: 1}, {1: -1}]) == {2: 1}


def test_wedge_and_products_keep_no_zero_coordinates():
    u, v = {2: 1, 3: 1}, {2: 1, 3: 1}
    assert wedge(u, v) == {}
    assert wedge({3: 1}, {2: 1}) == {(2, 3): -1}
    acc = add_product({}, {(2,): 1}, {(2, 3): 4}, 3)
    assert acc == {((2,), (2, 3)): 12}
    assert add_product(acc, {(2,): 2}, {(2, 3): 3}, -2) == {}


def test_packed_pieces_match_tuple_keys():
    width = 3
    u, v = {5: 2, 1: -1, 7: 1}, {1: 3, 7: -2, 0: 1}

    def pack(a, b, w=width):
        return a << w | b

    assert sym(u, v, width) == {pack(*k): c for k, c in sym(u, v).items()}
    assert wedge(u, v, width) == {pack(*k): c for k, c in wedge(u, v).items()}
    assert unpack(pack(7, 6), width) == (7, 6)
    acc = add_product({}, sym(u, v, width), wedge(u, v, width), 3, 2 * width)
    expected = add_product({}, sym(u, v), wedge(u, v), 3)
    assert acc == {pack(pack(*a), pack(*b), 2 * width): c for (a, b), c in expected.items()}
    assert add_product(acc, sym(u, v, width), wedge(u, v, width), -3, 2 * width) == {}

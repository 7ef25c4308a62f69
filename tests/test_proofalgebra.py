from fractions import Fraction

import pytest

from polyrel.exact import DomainError
from polyrel.proofalgebra import (
    ARG_KINDS,
    FormalTensor,
    LogSpace,
    _expand,
    _lhs_triple,
    _ratio_piece,
    _t_terms,
    _triple,
    beta4_formal,
    report_json,
    verify_claim_and_theorem,
    verify_identities,
)
from polyrel.tensor import unpack, vsum


def named(space, v):
    """A vector of the space keyed by its basis names."""
    return {space.names[k]: c for k, c in v.items()}


def test_derived_symbols_n2():
    space = LogSpace(2)
    S = space.S()
    assert named(space, S) == {("xi", 1): 1, ("xi", 2): 1, ("eta", 1): -1, ("eta", 2): -1}
    # (1/n) sum s_ij = S
    total = {}
    for l in (1, 2):
        for m in (1, 2):
            for k, c in space.s(l, m).items():
                total[k] = total.get(k, Fraction(0)) + c
    total = {k: c / 2 for k, c in total.items() if c != 0}
    assert total == S


def test_zeta_reduction_is_projection():
    space = LogSpace(3)
    # reducing an already-reduced vector changes nothing, and row/column sums
    # agree with Z for every row and column
    z = space.Z()
    for m in range(1, 4):
        acc = {}
        for i in range(1, 4):
            for k, c in space.zeta(i, m).items():
                acc[k] = acc.get(k, Fraction(0)) + c
        acc = {k: c for k, c in acc.items() if c != 0}
        assert acc == z


def test_zeta_column_difference_vanishes():
    space = LogSpace(4)
    acc = {}
    for i in range(1, 5):
        for k, c in space.zeta(i, 1).items():
            acc[k] = acc.get(k, Fraction(0)) + c
        for k, c in space.zeta(i, 2).items():
            acc[k] = acc.get(k, Fraction(0)) - c
    assert not {k: c for k, c in acc.items() if c != 0}


def test_beta4_formal_x_over_y_shape():
    # x_l/y_m image: s^3 ^ zeta - s^2 . (xi_l ^ eta_m)
    n, l, m = 3, 1, 2
    space = LogSpace(n)
    got = beta4_formal("x_l/y_m", l, m, n)
    s = space.s(l, m)
    expected = FormalTensor(space).add_sym2_wedge(s, s, s, space.zeta(l, m))
    expected.add_product(space.sym(s, s), space.wedge(space.xi(l), space.eta(m)), -1)
    assert got == expected


def test_beta4_formal_one_minus_inv_x_is_pure_xi():
    got = beta4_formal("1-1/x_l", 2, 1, 3)
    assert got.is_pure_xi_eta()
    assert all(kinds == ("xi",) for kinds in got.kinds_per_coord())


def test_beta4_formal_unknown_kind():
    with pytest.raises(DomainError):
        beta4_formal("bogus", 1, 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identities_pass(n):
    assert all(verify_identities(n).values())


def test_identities_negative_control():
    for n in (2, 4, 5):
        out = verify_identities(n, altered_eq15=True)
        assert [k for k, ok in out.items() if not ok] == ["eq15_distribution_scalars"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_claim_and_theorem_pass(n):
    assert all(verify_claim_and_theorem(n).values())


def test_theorem_negative_control():
    for n in (2, 4, 5, 6):
        out = verify_claim_and_theorem(n, perturb_coefficient=True)
        assert [k for k, ok in out.items() if not ok] == ["theorem_zero"]


def test_claim_and_theorem_key_order():
    # callers list the failing keys in this order; the JSON renderings sort them
    assert list(verify_claim_and_theorem(3)) == [
        "t_decomposition",
        "claim_first_lines",
        "t1_first_two_aggregate",
        "s_wedge_zeta_aggregates",
        "t4_matches_beta4",
        "t4_pure",
        "theorem_zero",
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_log_space_vectors_hold_no_zero(n):
    space = LogSpace(n)
    idx = range(1, n + 1)
    vectors = [space.Z(), space.S(), space.xi_sum(), space.eta_sum()]
    vectors += [space.xi(i) for i in idx] + [space.eta(j) for j in idx]
    vectors += [f(l, m) for f in (space.zeta, space.s) for l in idx for m in idx]
    for v in vectors:
        assert v and 0 not in v.values(), v


def rank(rows):
    """The rank of a list of dicts over Q, by elimination."""
    pivots = []  # (key, row) with row[key] == 1
    for row in rows:
        row = {k: Fraction(c) for k, c in row.items()}
        for key, p in pivots:
            c = row.get(key, 0)
            if c:
                row = {k: row.get(k, 0) - c * p.get(k, 0) for k in {*row, *p}}
                row = {k: x for k, x in row.items() if x}
        if row:
            key = min(row)
            pivots.append((key, {k: x / row[key] for k, x in row.items()}))
    return len(pivots)


@pytest.mark.parametrize("n", range(2, 9))
def test_S_and_s_are_independent(n):
    # so S.S, S.s and s.s are independent in Sym^2, and a cell's triple
    # determines its tensor
    space = LogSpace(n)
    S = space.S()
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            s = space.s(l, m)
            assert rank([S, s]) == 2 and space.wedge(S, s)
            assert rank([space.SS, space.sym(S, s), space.sym(s, s)]) == 3



def per_cell_expand(space, cells, triples):
    """The sum over cells of S.S (x) W_A + S.s_lm (x) W_B + s_lm.s_lm (x) W_C
    with one S.s_lm product per cell: the loop that _expand folds."""
    S = space.S()
    out = FormalTensor(space)
    for (l, m), (w_a, w_b, w_c) in zip(cells, triples):
        s = space.s(l, m)
        out.add_product(space.SS, w_a)
        out.add_product(space.sym(S, s), w_b)
        out.add_product(space.sym(s, s), w_c)
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_folded_expand_equals_the_per_cell_loop(n):
    # every kind of triple the proof expands: the T-terms, their partial
    # sums, each cell's lhs and the theorem's per-cell combination
    space = LogSpace(n)
    cells = [(l, m) for l in range(1, n + 1) for m in range(1, n + 1)]
    t_terms = [_t_terms(space, l, m) for l, m in cells]
    families = [[t[k] for t in t_terms] for k in range(4)]
    families.append([tuple(map(vsum, zip(*t[:3]))) for t in t_terms])
    families.append([(t[0][0], t[0][1], {}) for t in t_terms])
    lhs = [_lhs_triple(space, l, m) for l, m in cells]
    families.append(lhs)
    x_over_y = [_ratio_piece(space, "x_l/y_m", l, m, -n * n * (n - 1) ** 2) for l, m in cells]
    families.append([_triple(piece, into=_lhs_triple(space, *cell)) for piece, cell in zip(x_over_y, cells)])
    for triples in families:
        assert _expand(space, cells, triples) == per_cell_expand(space, cells, triples)
    assert not _expand(space, cells, lhs).is_zero()
    # a single cell, and cells in another order, fold the same way
    assert _expand(space, cells[:1], lhs[:1]) == per_cell_expand(space, cells[:1], lhs[:1])
    assert _expand(space, cells[::-1], lhs[::-1]) == per_cell_expand(space, cells, lhs)


@pytest.mark.parametrize("n", [7, 8])
def test_theorem_negative_control_fails_on_theorem_zero_only(n):
    out = verify_claim_and_theorem(n, perturb_coefficient=True)
    assert [k for k, ok in out.items() if not ok] == ["theorem_zero"]


def test_report_json_shape():
    rep = report_json(2)
    assert rep["n"] == 2
    assert rep["theorem_zero"] is True
    assert set(rep["identities"]) >= {
        "eq11_kronecker_wedge",
        "eq12_row_column_sums",
        "eq15_distribution_scalars",
    }


def test_add_is_in_place_and_drops_cancelled_coordinates():
    t = beta4_formal("x_l/y_m", 1, 2, 3)
    before = dict(t.coords)
    u = t.scale(2)
    assert t.coords == before and u.coords == {k: 2 * c for k, c in before.items()}
    assert u.add(t, -2) is u and u.is_zero() and u.coords == {}
    with pytest.raises(TypeError):
        hash(t)


# -- differential test against the rational tensor algebra ----------------------
# The reference below is the tensor algebra in Fraction coordinates, at the
# tensors' true values (the Sym^3 conversion divides by 3), keyed by basis
# names so that it does not depend on the index packing.  FormalTensor stores
# 3x each value, so every coordinate must be exactly 3x the reference's.

def reference_vadd(*vs):
    out = {}
    for v in vs:
        for k, c in v.items():
            acc = out.get(k, Fraction(0)) + c
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc
    return out


def reference_vscale(v, c):
    c = Fraction(c)
    return {k: x * c for k, x in v.items()} if c else {}


def reference_basis(space):
    """Fraction copies of the basis vectors and the derived symbols, keyed by
    the basis names."""
    n = space.n
    frac = lambda v: {k: Fraction(c) for k, c in named(space, v).items()}  # noqa: E731
    xi = {i: frac(space.xi(i)) for i in range(1, n + 1)}
    eta = {j: frac(space.eta(j)) for j in range(1, n + 1)}
    xi_sum = reference_vadd(*xi.values())
    eta_sum = reference_vadd(*eta.values())
    return {
        "xi": xi,
        "eta": eta,
        "zeta": lambda l, m: frac(space.zeta(l, m)),
        "Z": frac(space.Z()),
        "xi_sum": xi_sum,
        "eta_sum": eta_sum,
        "S": reference_vadd(xi_sum, reference_vscale(eta_sum, -1)),
        "s": lambda l, m: reference_vadd(xi[l], reference_vscale(eta[m], -1)),
    }


def reference_wedge(u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a == b:
                continue
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            acc = out.get(key, Fraction(0)) + sign * ca * cb
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def reference_sym(u, v):
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            key = (a, b) if a <= b else (b, a)
            acc = out.get(key, Fraction(0)) + ca * cb
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def reference_product(sym_part, wedge_part):
    out = {}
    for sk, sc in sym_part.items():
        for wk, wc in wedge_part.items():
            acc = out.get((sk, wk), Fraction(0)) + sc * wc
            if acc == 0:
                out.pop((sk, wk), None)
            else:
                out[(sk, wk)] = acc
    return out


def reference_sym2_wedge(a, b, c, d):
    return reference_product(reference_sym(a, b), reference_wedge(c, d))


def reference_cube_wedge(a, b):
    return reference_sym2_wedge(a, a, a, b)


def reference_sym3_wedge(a, b, c, d):
    total = reference_vadd(
        reference_sym2_wedge(a, b, c, d),
        reference_sym2_wedge(a, c, b, d),
        reference_sym2_wedge(b, c, a, d),
    )
    return reference_vscale(total, Fraction(1, 3))


def reference_beta4_formal(kind, l, m, n):
    r = reference_basis(LogSpace(n))
    neg = lambda v: reference_vscale(v, -1)  # noqa: E731
    if kind == "X/Y-ratio":
        v, w = r["S"], reference_vadd(r["Z"], neg(r["eta_sum"]))
    elif kind == "(1-x)/(1-y)":
        v = reference_vadd(r["S"], reference_vscale(r["s"](l, m), -(n - 1)))
        w = reference_vadd(r["zeta"](l, m), neg(r["eta_sum"]), reference_vscale(r["eta"][m], n - 1))
    elif kind == "(1-x^-1)/(1-y^-1)":
        v = reference_vadd(r["S"], reference_vscale(r["s"](l, m), -n))
        w = reference_vadd(
            r["zeta"](l, m),
            neg(r["xi"][l]),
            neg(r["eta_sum"]),
            reference_vscale(r["eta"][m], n - 1),
        )
    elif kind == "x_l/y_m":
        v, w = r["s"](l, m), reference_vadd(r["zeta"](l, m), neg(r["eta"][m]))
    elif kind == "1-1/x_l":
        v, w = reference_vadd(r["xi_sum"], reference_vscale(r["xi"][l], -n)), neg(r["xi"][l])
    else:
        assert kind == "1-1/y_m"
        v, w = reference_vadd(r["eta_sum"], reference_vscale(r["eta"][m], -n)), neg(r["eta"][m])
    return reference_sym2_wedge(v, v, v, w)


def reference_t_terms(n, l, m):
    r = reference_basis(LogSpace(n))
    S, s, z = r["S"], r["s"](l, m), r["zeta"](l, m)
    a1 = reference_vadd(S, reference_vscale(s, -(n - 1)))
    a2 = reference_vadd(S, reference_vscale(s, -n))
    t1 = reference_vadd(
        reference_vscale(reference_sym3_wedge(S, S, S, z), 2 * n - 1),
        reference_vscale(reference_sym3_wedge(S, S, s, z), -3 * n * (n - 1)),
        reference_vscale(reference_sym3_wedge(s, s, s, z), n * n * (n - 1) ** 2),
    )
    kron = reference_vadd(*(
        reference_vscale(
            reference_wedge(r["xi"][i], r["eta"][j]), Fraction(2 - n) ** ((i == l) + (j == m))
        )
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ))
    a2a2 = reference_sym(a2, a2)
    sym_mix = reference_vadd(
        reference_vscale(reference_sym(a1, a1), n * n),
        reference_vscale(a2a2, -(n - 1) ** 2),
    )
    t2 = reference_vscale(reference_product(sym_mix, kron), -1)
    t3 = reference_vscale(
        reference_product(a2a2, reference_wedge(r["eta"][m], r["xi"][l])), (n - 1) ** 2
    )
    t4_wedge = reference_vadd(
        reference_wedge(r["xi_sum"], r["xi"][l]), reference_wedge(r["eta"][m], r["eta_sum"])
    )
    t4 = reference_vscale(reference_product(a2a2, t4_wedge), (n - 1) ** 2)
    return t1, t2, t3, t4


def assert_three_times(tensor, ref):
    assert set(tensor.coords) == set(ref)
    for k, c in tensor.coords.items():
        assert type(c) is int and c == 3 * ref[k], k


def probe_cells(n):
    return sorted({(1, 1), (1, n), (n, 1), (n, n), (min(2, n), 1)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tensors_are_three_times_the_rational_reference(n):
    space = LogSpace(n)
    r = reference_basis(space)
    for l, m in probe_cells(n):
        for kind in ARG_KINDS:
            assert_three_times(beta4_formal(kind, l, m, n), reference_beta4_formal(kind, l, m, n))
        S, s, z = space.S(), space.s(l, m), space.zeta(l, m)
        rS, rs, rz = r["S"], r["s"](l, m), r["zeta"](l, m)
        shifted = {k: S.get(k, 0) - 3 * s.get(k, 0) for k in {*S, *s}}
        r_shifted = reference_vadd(rS, reference_vscale(rs, -3))
        for a, ra in ((s, rs), (shifted, r_shifted)):
            assert_three_times(
                FormalTensor(space).add_sym2_wedge(a, a, a, z), reference_cube_wedge(ra, rz)
            )
        # most reference coordinates here are thirds; the last has three distinct factors
        xi_l = space.xi(l)
        for (a, b, c), (ra, rb, rc) in (
            ((S, S, s), (rS, rS, rs)),
            ((S, s, s), (rS, rs, rs)),
            ((S, s, xi_l), (rS, rs, r["xi"][l])),
        ):
            assert_three_times(
                FormalTensor(space).add_sym3_wedge(a, b, c, z),
                reference_sym3_wedge(ra, rb, rc, rz),
            )
        for got, ref in zip(_t_terms(space, l, m), reference_t_terms(n, l, m)):
            assert_three_times(_expand(space, [(l, m)], [got]), ref)
        for kind in ARG_KINDS[:4]:
            got = _expand(space, [(l, m)], [_triple(_ratio_piece(space, kind, l, m, 1))])
            assert_three_times(got, reference_beta4_formal(kind, l, m, n))
        lhs = _lhs_triple(space, l, m)
        ref = reference_vadd(
            reference_vscale(reference_beta4_formal("(1-x)/(1-y)", l, m, n), n * n),
            reference_vscale(reference_beta4_formal("(1-x^-1)/(1-y^-1)", l, m, n), -(n - 1) ** 2),
        )
        assert_three_times(_expand(space, [(l, m)], [lhs]), ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lhs_triple_is_the_beta4_combination_in_every_cell(n):
    space = LogSpace(n)
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            lhs = _lhs_triple(space, l, m)
            expected = beta4_formal("(1-x)/(1-y)", l, m, n, c=n * n)
            beta4_formal("(1-x^-1)/(1-y^-1)", l, m, n, into=expected, c=-(n - 1) ** 2)
            assert _expand(space, [(l, m)], [lhs]) == expected
            # the T-decomposition holds on the triples themselves
            assert lhs == tuple(vsum(parts) for parts in zip(*_t_terms(space, l, m)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_equal_sym3_wedge_matches_the_rational_reference(n):
    # the conversion merges the three equal products of S.S.S and s.s.s into one
    space = LogSpace(n)
    r = reference_basis(space)
    for l, m in probe_cells(n):
        S, s, z = space.S(), space.s(l, m), space.zeta(l, m)
        rS, rs, rz = r["S"], r["s"](l, m), r["zeta"](l, m)
        for (a, b, c), (ra, rb, rc) in (
            ((S, S, S), (rS, rS, rS)),
            ((s, s, s), (rs, rs, rs)),
            ((S, s, S), (rS, rs, rS)),
        ):
            assert_three_times(
                FormalTensor(space).add_sym3_wedge(a, b, c, z),
                reference_sym3_wedge(ra, rb, rc, rz),
            )


@pytest.mark.parametrize("n", range(2, 9))
def test_packed_keys_round_trip_the_largest_index(n):
    space = LogSpace(n)
    names = space.names
    assert len(names) == 2 * n + (n - 1) ** 2 + 1
    assert list(names) == sorted(names) and names[-1] == ("zeta", n - 1, n - 1)
    top = len(names) - 1
    assert 2 ** (space.width - 1) <= top < 2 ** space.width
    assert all(space.index[name] == k for k, name in enumerate(names))
    last, below = {top: 1}, {top - 1: 1}
    t = FormalTensor(space).add_product(space.sym(last, last), space.wedge(last, below))
    (key,) = t.terms
    assert key < 2 ** (4 * space.width)
    sk, wk = unpack(key, 2 * space.width)
    assert unpack(sk, space.width) == (top, top) and unpack(wk, space.width) == (top - 1, top)
    # the wedge's sign follows the name order
    assert t.coords == {((names[-1], names[-1]), (names[-2], names[-1])): -3}


def test_tensors_over_different_spaces_do_not_add():
    t = beta4_formal("x_l/y_m", 1, 2, 3)
    assert t == beta4_formal("x_l/y_m", 1, 2, 3)
    assert t != beta4_formal("x_l/y_m", 1, 2, 4)
    with pytest.raises(DomainError):
        t.add(beta4_formal("x_l/y_m", 1, 2, 4))

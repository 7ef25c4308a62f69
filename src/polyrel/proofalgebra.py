"""Formal log-symbol model for the 4-logarithm family, verified exactly per n.

The model has basis symbols xi_1..xi_n, eta_1..eta_n ("log x_i", "log y_j"),
zeta_{lm} ("log(x_l - y_m)") and one shared symbol Z, subject to the lattice
of relations  sum_i zeta_{im} = sum_j zeta_{lj} = Z  for every row l and
column m.  The quotient is realized by eliminating the last zeta row and
column (a fixed echelon basis), so reduction to canonical coordinates is a
projection with integer coefficients.

Tensors live in Sym^2(L) (x) Lambda^2(L), built from polyrel.tensor's sparse
dicts and its product helpers on packed int keys (the same loops expand the
weight-m symbol in criterion.expand_tensor).  The mixed notation "A^3 ^ B" of the weight-4 calculus
means A (sym) A (x) (A ^ B); it is built both directly (add_sym2_wedge) and
through the symmetric-power expansion (add_sym3_wedge), whose agreement is
itself a verified identity.

All arithmetic is on Python ints.  Vectors in L and the degree-2 pieces
(sym, wedge) hold their exact integer coordinates; a FormalTensor holds 3x
its value.  The only non-integral step of the calculus is the Sym^3
conversion's 1/3, so add_sym3_wedge stores the plain sum of its three
products and every other product carries a factor of 3.  Every verdict here
is an equality or a zero test, which a uniform factor leaves unchanged.

Basis indices.  LogSpace(n) numbers its 2n + (n-1)^2 + 1 basis names in
sorted order, and every key inside this module is such an index: a vector
is a dict {index: coefficient}, a degree-2 piece keys the index pair packed
into one int (see polyrel.tensor), and a FormalTensor keys each coordinate
(sym pair, wedge pair) by one int of four fields.  The field width is taken
from the number of names: 3 bits at n = 2, 6 at n = 6 and 7, 7 at n = 8.
Index order is name order, so a wedge's sign is the one the names give.
Names appear only where a tensor is read out: ``LogSpace.named``,
``FormalTensor.coords`` and ``kinds_per_coord``.

Building each product once.  Every image and T-term is accumulated in place
with its coefficient; add_sym3_wedge builds one product per distinct factor,
so S.S.S (x) z is 3 SS (x) S^z.  Cell (l, m) of the claim and the theorem
keeps its tensors as triples (W_A, W_B, W_C) of wedge dicts, standing for
A (x) W_A + B (x) W_B + C (x) W_C with A = S.S, B = S.s, C = s.s and
s = s_lm; a log v = aS + bs has the image (a^2, 2ab, b^2) times v^w.  The
decomposition compares triples, exactly: S ^ s != 0 for n >= 2 (S has an
xi_i with i != l, s = xi_l - eta_m has not), so S and s are independent,
A, B, C are distinct monomials of a basis of Sym^2, and a tensor vanishes
only with its triple.  A sum over the cells is expanded once: S.S times the
summed W_A; S.e_i, for each of the 2n basis indices i of the xi_l and
eta_m, times the W_B summed with s_lm's coefficient at i (S.s is linear in
s, so this is one product per index, not one per cell); and per cell one
product on s.s.

Everything the per-n verification needs is assembled here: the formal
beta_4 images of the six argument families, the T_1..T_4 decomposition, the
bookkeeping identities, and the exact vanishing of the full combination.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

from .exact import DomainError
from .tensor import add_product, bump, lin, sym, unpack, vsum, wedge

__all__ = [
    "LogSpace",
    "FormalTensor",
    "beta4_formal",
    "verify_identities",
    "verify_claim_and_theorem",
    "ARG_KINDS",
]

Name = Tuple
Vec = Dict[int, int]


@lru_cache(maxsize=None)
def _basis(n: int) -> Tuple[Tuple[Name, ...], Dict[Name, int]]:
    """The 2n + (n-1)^2 + 1 basis names of LogSpace(n) in sorted order, and
    their indices."""
    names = sorted(
        [("Z",)]
        + [(kind, i) for kind in ("xi", "eta") for i in range(1, n + 1)]
        + [("zeta", l, m) for l in range(1, n) for m in range(1, n)]
    )
    return tuple(names), {name: k for k, name in enumerate(names)}


class LogSpace:
    """Quotient space of formal log symbols for fixed n >= 2.

    Vectors are dicts keyed by basis indices, the positions of the sorted
    basis names in ``names``.  ``sym`` and ``wedge`` build the degree-2
    pieces a tensor over this space multiplies, keyed by the index pair
    packed into one int ``width`` bits a side.
    """

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("LogSpace needs n >= 2")
        self.n = n
        self.names, self.index = _basis(n)
        self.width = (len(self.names) - 1).bit_length()

    def __eq__(self, other) -> bool:
        return isinstance(other, LogSpace) and other.n == self.n

    def __hash__(self) -> int:
        return hash(self.n)

    # basis constructors ----------------------------------------------------

    def xi(self, i: int) -> Vec:
        self._check(i)
        return {self.index["xi", i]: 1}

    def eta(self, j: int) -> Vec:
        self._check(j)
        return {self.index["eta", j]: 1}

    def Z(self) -> Vec:
        return {self.index[("Z",)]: 1}

    def zeta(self, l: int, m: int) -> Vec:
        """Reduced coordinates of zeta_{lm}; the last row/column eliminate via
        the row/column relations, and the corner via both (consistently)."""
        self._check(l)
        self._check(m)
        n, index = self.n, self.index
        if l < n and m < n:
            return {index["zeta", l, m]: 1}
        if l < n:  # m == n: row relation sum_j zeta_{lj} = Z
            out = {index[("Z",)]: 1}
            for j in range(1, n):
                out[index["zeta", l, j]] = -1
            return out
        if m < n:  # l == n: column relation sum_i zeta_{im} = Z
            out = {index[("Z",)]: 1}
            for i in range(1, n):
                out[index["zeta", i, m]] = -1
            return out
        out = {index[("Z",)]: 2 - n} if n > 2 else {}
        for i in range(1, n):
            for j in range(1, n):
                out[index["zeta", i, j]] = 1
        return out

    # derived symbols ----------------------------------------------------------

    def xi_sum(self) -> Vec:
        return {self.index["xi", i]: 1 for i in range(1, self.n + 1)}

    def eta_sum(self) -> Vec:
        return {self.index["eta", j]: 1 for j in range(1, self.n + 1)}

    def S(self) -> Vec:
        return lin((1, self.xi_sum()), (-1, self.eta_sum()))

    def s(self, l: int, m: int) -> Vec:
        return lin((1, self.xi(l)), (-1, self.eta(m)))

    def _check(self, i: int):
        if not 1 <= i <= self.n:
            raise DomainError(f"index {i} out of range 1..{self.n}")

    # packed degree-2 pieces ---------------------------------------------------

    def sym(self, u: Vec, v: Vec) -> Dict[int, int]:
        """u (sym) v, packed."""
        return sym(u, v, self.width)

    def wedge(self, u: Vec, v: Vec) -> Dict[int, int]:
        """u ^ v, packed."""
        return wedge(u, v, self.width)

    @cached_property
    def SS(self) -> Dict[int, int]:
        """S (sym) S, packed; the S.S of every cell's triple."""
        return self.sym(self.S(), self.S())

    def named(self, terms: Dict[int, int]) -> Dict[Tuple, int]:
        """A packed tensor's coordinates keyed by ((a, b), (c, d)) name pairs."""
        w, names = self.width, self.names
        out = {}
        for key, c in terms.items():
            sk, wk = unpack(key, 2 * w)
            (a, b), (p, q) = unpack(sk, w), unpack(wk, w)
            out[((names[a], names[b]), (names[p], names[q]))] = c
        return out


# ---------------------------------------------------------------------------
# The tensor space Sym^2 (x) Lambda^2
# ---------------------------------------------------------------------------

class FormalTensor:
    """Sparse element of Sym^2(L) (x) Lambda^2(L) over a LogSpace, with
    integer coordinates.

    ``terms`` keys each coordinate by one packed int (the sym pair's and the
    wedge pair's basis indices); ``coords`` reads them with the name keys.
    The coordinates hold 3x the tensor's value (see the module docstring).
    The tensor is mutable through its ``add`` methods and therefore
    unhashable.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: LogSpace):
        self.space = space
        self.terms: Dict[int, int] = {}

    @property
    def coords(self) -> Dict[Tuple, int]:
        return self.space.named(self.terms)

    # in-place builders ---------------------------------------------------------

    def add_product(self, sym_part: Dict, wedge_part: Dict, c: int = 1) -> "FormalTensor":
        """self += c * sym_part (x) wedge_part in place; returns self.  The
        pieces are the space's packed sym and wedge."""
        add_product(self.terms, sym_part, wedge_part, 3 * c, 2 * self.space.width)
        return self

    def add_sym2_wedge(self, a: Vec, b: Vec, c: Vec, d: Vec, k: int = 1) -> "FormalTensor":
        """self += k * a (sym) b (x) (c ^ d) in place; returns self."""
        return self.add_product(self.space.sym(a, b), self.space.wedge(c, d), k)

    def add_sym3_wedge(self, a: Vec, b: Vec, c: Vec, d: Vec, k: int = 1) -> "FormalTensor":
        """self += k * (the Sym^3 monomial a.b.c (x) d, converted) in place.

        The conversion x.y.z (x) w -> (xy (x) z^w + xz (x) y^w + yz (x) x^w)/3
        is stored as the plain sum of the three products (the 3x scale).
        The products of equal factors coincide, so each distinct factor z
        builds one product, the other two (sym) z ^ d, times its multiplicity.
        """
        space = self.space
        factors = (a, b, c)
        for i, z in enumerate(factors):
            if z in factors[:i]:
                continue
            x, y = factors[:i] + factors[i + 1 :]
            sym_part, wedge_part = space.sym(x, y), space.wedge(z, d)
            add_product(self.terms, sym_part, wedge_part, k * factors.count(z), 2 * space.width)
        return self

    def add(self, other: "FormalTensor", c: int = 1) -> "FormalTensor":
        """self += c * other in place; returns self."""
        if other.space != self.space:
            raise DomainError("cannot add tensors over different spaces")
        bump(self.terms, other.terms, c)
        return self

    def scale(self, c) -> "FormalTensor":
        return FormalTensor(self.space).add(self, c)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalTensor):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def kinds_per_coord(self) -> List[Tuple[str, ...]]:
        out = []
        for (sk, wk) in self.coords:
            names = (*sk, *wk)
            out.append(tuple(sorted({name[0] for name in names})))
        return out

    def is_pure_xi_eta(self) -> bool:
        """Every coordinate touches only xi-symbols or only eta-symbols."""
        return all(kinds in (("xi",), ("eta",)) for kinds in self.kinds_per_coord())

    def __repr__(self):
        return f"FormalTensor({len(self.terms)} coords)"


# ---------------------------------------------------------------------------
# beta_4 images of the argument families
# ---------------------------------------------------------------------------

ARG_KINDS = (
    "X/Y-ratio",
    "(1-x^-1)/(1-y^-1)",
    "(1-x)/(1-y)",
    "x_l/y_m",
    "1-1/x_l",
    "1-1/y_m",
)


def _beta4_pair(space: LogSpace, kind: str, l: int, m: int) -> Tuple[Tuple | None, Vec, Vec]:
    """(ab, v, w): the log v of the argument and the log w of 1 - argument,
    modulo torsion.  For the four ratio kinds v = a S + b s_lm with
    ab = (a, b); for the two one-variable kinds ab is None."""
    n = space.n
    if kind == "1-1/x_l":
        return None, lin((1, space.xi_sum()), (-n, space.xi(l))), lin((-1, space.xi(l)))
    if kind == "1-1/y_m":
        return None, lin((1, space.eta_sum()), (-n, space.eta(m))), lin((-1, space.eta(m)))
    if kind == "X/Y-ratio":
        ab, w = (1, 0), lin((1, space.Z()), (-1, space.eta_sum()))
    elif kind == "(1-x)/(1-y)":
        ab = (1, 1 - n)
        w = lin((1, space.zeta(l, m)), (-1, space.eta_sum()), (n - 1, space.eta(m)))
    elif kind == "(1-x^-1)/(1-y^-1)":
        ab = (1, -n)
        w = lin(
            (1, space.zeta(l, m)),
            (-1, space.xi(l)),
            (-1, space.eta_sum()),
            (n - 1, space.eta(m)),
        )
    elif kind == "x_l/y_m":
        ab, w = (0, 1), lin((1, space.zeta(l, m)), (-1, space.eta(m)))
    else:
        raise DomainError(f"unknown argument kind {kind!r}")
    return ab, lin((ab[0], space.S()), (ab[1], space.s(l, m))), w


def beta4_formal(
    kind: str, l: int, m: int, n: int, into: FormalTensor | None = None, c: int = 1
) -> FormalTensor:
    """Exact formal beta_4 image of one argument of the weight-4 family.

    Uses the log assignments log(1-x_l) = xi - (n-1) xi_l,
    log(1-1/x_l) = xi - n xi_l, log(x_l - y_m) = zeta_{lm} (mod torsion).
    With ``into`` (a tensor over LogSpace(n)) adds c times the image to it
    in place and returns it.
    """
    space = LogSpace(n)
    _, v, w = _beta4_pair(space, kind, l, m)
    out = FormalTensor(space) if into is None else into
    return out.add_sym2_wedge(v, v, v, w, c)


# ---------------------------------------------------------------------------
# Cell triples (wedge coefficients on S.S, S.s_lm, s_lm.s_lm) and T-terms
# ---------------------------------------------------------------------------

Triple = Tuple[Dict[int, int], Dict[int, int], Dict[int, int]]
Piece = Tuple[Tuple[int, int, int], Dict[int, int]]


def _square(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """c (aS + bs).(aS + bs) on (S.S, S.s, s.s)."""
    return c * a * a, 2 * c * a * b, c * b * b


def _triple(*pieces: Piece, into: Triple | None = None) -> Triple:
    """The sum of (k_A S.S + k_B S.s + k_C s.s) (x) w over the pieces
    ((k_A, k_B, k_C), w), as a triple; with ``into``, added to it in place."""
    out = ({}, {}, {}) if into is None else into
    for ks, w in pieces:
        for part, k in zip(out, ks):
            bump(part, w, k)
    return out


def _ratio_piece(space: LogSpace, kind: str, l: int, m: int, c: int) -> Piece:
    """c times the beta_4 image v.v (x) v^w of a ratio-family argument of
    cell (l, m)."""
    ab, v, w = _beta4_pair(space, kind, l, m)
    return _square(*ab, c), space.wedge(v, w)


def _lhs_triple(space: LogSpace, l: int, m: int) -> Triple:
    """n^2 beta_4((1-x)/(1-y)) - (n-1)^2 beta_4((1-x^-1)/(1-y^-1)) of cell (l, m)."""
    n = space.n
    return _triple(
        _ratio_piece(space, "(1-x)/(1-y)", l, m, n * n),
        _ratio_piece(space, "(1-x^-1)/(1-y^-1)", l, m, -(n - 1) ** 2),
    )


def _expand(space: LogSpace, cells: List[Tuple[int, int]], triples: List[Triple]) -> FormalTensor:
    """The sum over cells of S.S (x) W_A + S.s_lm (x) W_B + s_lm.s_lm (x) W_C.

    S.S multiplies the summed W_A once.  S.s_lm is linear in s_lm, so the
    S.s sum is sum_i S.e_i (x) (sum over cells of s_lm[i] W_B): one product
    per basis index i that some s_lm holds, 2n in all, not one per cell.
    """
    S = space.S()
    out = FormalTensor(space)
    folded: Dict[int, Dict[int, int]] = {}  # i -> sum over cells of s_lm[i] W_B
    for (l, m), (_, w_b, w_c) in zip(cells, triples):
        s = space.s(l, m)
        for i, c in s.items():
            bump(folded.setdefault(i, {}), w_b, c)
        out.add_product(space.sym(s, s), w_c)
    for i, w in folded.items():
        out.add_product(space.sym(S, {i: 1}), w)
    return out.add_product(space.SS, vsum(t[0] for t in triples))


def _kronecker_wedge(space: LogSpace, l: int, m: int) -> Dict:
    """sum_{i,j} (2-n)^(delta_il + delta_jm) xi_i ^ eta_j, packed."""
    n = space.n
    out: Dict = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bump(out, space.wedge(space.xi(i), space.eta(j)), (2 - n) ** ((i == l) + (j == m)))
    return out


def _t_terms(space: LogSpace, l: int, m: int) -> Tuple[Triple, ...]:
    """(T_1, T_2, T_3, T_4) of cell (l, m), each a triple."""
    n = space.n
    S = space.S()
    s = space.s(l, m)
    z = space.zeta(l, m)
    # T_1 = (2n-1) S^3.z - 3n(n-1) S^2 s.z + n^2(n-1)^2 s^3.z, converted:
    # S^3.z = SS (x) S^z, 3 S^2 s.z = SS (x) s^z + 2 Ss (x) S^z, s^3.z = ss (x) s^z
    t1 = _triple(
        ((2 * n - 1, -2 * n * (n - 1), 0), space.wedge(S, z)),
        ((-n * (n - 1), 0, n * n * (n - 1) ** 2), space.wedge(s, z)),
    )
    # a1 = S + (1-n) s, a2 = S - n s; T_2 = -(n^2 a1.a1 - (n-1)^2 a2.a2) (x) kron,
    # and T_3, T_4 are (n-1)^2 a2.a2 (x) their wedges
    a2a2 = _square(1, -n, (n - 1) ** 2)
    kron = _kronecker_wedge(space, l, m)
    t2 = _triple(([x + y for x, y in zip(_square(1, 1 - n, -n * n), a2a2)], kron))
    t3 = _triple((a2a2, space.wedge(space.eta(m), space.xi(l))))
    t4_wedge = lin(
        (1, space.wedge(space.xi_sum(), space.xi(l))),
        (1, space.wedge(space.eta(m), space.eta_sum())),
    )
    return t1, t2, t3, _triple((a2a2, t4_wedge))


# ---------------------------------------------------------------------------
# Verification drivers
# ---------------------------------------------------------------------------

def verify_identities(n: int, altered_eq15: bool = False) -> Dict[str, bool]:
    """Exact expansion of the bookkeeping identities in the quotient space.

    ``altered_eq15`` switches the distribution identity's base from (2-n) to
    (3-n): the documented negative control, which must fail.
    """
    space = LogSpace(n)
    idx = range(1, n + 1)
    report: Dict[str, bool] = {}

    ok = True
    for l in idx:
        for m in idx:
            lhs = space.wedge(
                lin((1, space.xi_sum()), (1 - n, space.xi(l))),
                lin((1, space.eta_sum()), (1 - n, space.eta(m))),
            )
            rhs = _kronecker_wedge(space, l, m)
            ok = ok and lhs == rhs
    report["eq11_kronecker_wedge"] = ok

    z_vec = space.Z()
    ok = True
    for m in idx:
        ok = ok and vsum(space.zeta(i, m) for i in idx) == z_vec
    for l in idx:
        ok = ok and vsum(space.zeta(l, j) for j in idx) == z_vec
    total = vsum(space.zeta(i, j) for i in idx for j in idx)
    ok = ok and total == lin((n, z_vec))
    report["eq12_row_column_sums"] = ok

    # (1/n) sum s_ij = S, cleared of its denominator
    s_total = vsum(space.s(i, j) for i in idx for j in idx)
    report["eq13_S_as_average"] = s_total == lin((n, space.S()))

    left = vsum(lin((1, space.xi_sum()), (-n, space.xi(m))) for m in idx)
    right = vsum(lin((1, space.eta_sum()), (-n, space.eta(l))) for l in idx)
    report["eq14_centered_sums_vanish"] = not left and not right

    base = 3 - n if altered_eq15 else 2 - n
    ok = True
    for l in idx:
        for m in idx:
            double = sum(base ** ((i == l) + (j == m)) for i in idx for j in idx)
            single = sum(base ** (i == l) for i in idx)
            ok = ok and double == 1 and single == 1
    report["eq15_distribution_scalars"] = ok

    ok = True
    for i in idx:
        for j in idx:
            acc: Vec = {}
            for l in idx:
                for m in idx:
                    bump(acc, space.s(l, m), (2 - n) ** ((i == l) + (j == m)))
            expected = lin((1, space.S()), (1 - n, space.s(i, j)))
            ok = ok and acc == expected
    report["eq16_weighted_s_sum"] = ok

    # conversion check between the two views of the mixed cube notation
    S, sv = space.S(), space.s(1, min(2, n))
    z = space.zeta(1, 1)
    shifted = lin((1, S), (-3, sv))
    direct = FormalTensor(space).add_sym2_wedge(shifted, shifted, shifted, z)
    expanded = FormalTensor(space).add_sym3_wedge(S, S, S, z)
    expanded.add_sym3_wedge(S, S, sv, z, -9)
    expanded.add_sym3_wedge(S, sv, sv, z, 27)
    expanded.add_sym3_wedge(sv, sv, sv, z, -27)
    report["cube_views_agree"] = direct == expanded

    return report


def verify_claim_and_theorem(n: int, perturb_coefficient: bool = False) -> Dict[str, bool]:
    """The per-(l,m) T-decomposition, the claim's aggregation, and the exact
    vanishing of the full weight-4 combination.

    The decomposition compares each cell's triples; every other verdict
    compares full tensors (module docstring).

    ``perturb_coefficient`` replaces n(n-2) by n(n-3) in the full
    combination: the documented negative control, which must fail.
    """
    space = LogSpace(n)
    cells = [(l, m) for l in range(1, n + 1) for m in range(1, n + 1)]
    report: Dict[str, bool] = {}

    S = space.S()
    t123, t4s, first_two, combo = [], [], [], []  # one triple per cell
    decomposition_ok = True
    for l, m in cells:
        # a triple determines its tensor and back (module docstring)
        assert space.wedge(S, space.s(l, m)), "S and s_lm are dependent"
        t1, t2, t3, t4 = _t_terms(space, l, m)
        lhs = _lhs_triple(space, l, m)
        t123.append(tuple(map(vsum, zip(t1, t2, t3))))
        decomposition_ok = decomposition_ok and lhs == tuple(map(vsum, zip(t123[-1], t4)))
        t4s.append(t4)
        first_two.append((t1[0], t1[1], {}))  # T_1's first two pieces
        # the theorem's combination, cell by cell
        x_over_y = _ratio_piece(space, "x_l/y_m", l, m, -n * n * (n - 1) ** 2)
        combo.append(_triple(x_over_y, into=lhs))
    report["t_decomposition"] = decomposition_ok

    Z = space.Z()
    nn2 = n * (n - 2)
    xi_eta = vsum(space.wedge(space.xi(l), space.eta(m)) for l, m in cells)
    # -n(n-2) S^3^Z + n(n-2) S^2 . sum xi_l^eta_m
    claim = FormalTensor(space).add_sym2_wedge(S, S, S, Z, -nn2)
    claim.add_product(space.SS, xi_eta, nn2)
    # n^2(n-1)^2 sum (s^3^zeta - s^2 . xi_l^eta_m), one product per cell
    for l, m in cells:
        s = space.s(l, m)
        second = lin(
            (1, space.wedge(s, space.zeta(l, m))), (-1, space.wedge(space.xi(l), space.eta(m)))
        )
        claim.add_product(space.sym(s, s), second, n * n * (n - 1) ** 2)
    report["claim_first_lines"] = _expand(space, cells, t123) == claim

    # aggregation noted in the proof: the first two pieces of sum T_1 combine
    report["t1_first_two_aggregate"] = _expand(space, cells, first_two) == FormalTensor(
        space
    ).add_sym2_wedge(S, S, S, Z, -nn2)

    s_zeta = vsum(space.wedge(space.s(l, m), space.zeta(l, m)) for l, m in cells)
    report["s_wedge_zeta_aggregates"] = s_zeta == space.wedge(S, Z)

    one_var = FormalTensor(space)
    for i in range(1, n + 1):
        beta4_formal("1-1/x_l", i, i, n, into=one_var)
        beta4_formal("1-1/y_m", i, i, n, into=one_var, c=-1)
    sum_t4 = _expand(space, cells, t4s)
    report["t4_matches_beta4"] = sum_t4 == one_var.scale(-n * (n - 1) ** 2)
    report["t4_pure"] = sum_t4.is_pure_xi_eta()

    lead = n * (n - 3) if perturb_coefficient else nn2
    # the X/Y-ratio image lies on S.S, which every cell shares
    _triple(_ratio_piece(space, "X/Y-ratio", 1, 1, lead), into=combo[0])
    report["theorem_zero"] = _expand(space, cells, combo).add(one_var, n * (n - 1) ** 2).is_zero()
    return report


def report_json(n: int) -> dict:
    """JSON report per the external interface: identity and claim verdicts."""
    identities = verify_identities(n)
    claim = verify_claim_and_theorem(n)
    return {
        "n": n,
        "identities": identities,
        "claim_parts": {k: v for k, v in claim.items() if k != "theorem_zero"},
        "theorem_zero": claim["theorem_zero"],
    }

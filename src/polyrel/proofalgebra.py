"""Formal log-symbol model for the 4-logarithm family, verified exactly per n.

The model has basis symbols xi_1..xi_n, eta_1..eta_n ("log x_i", "log y_j"),
zeta_{lm} ("log(x_l - y_m)") and one shared symbol Z, subject to the lattice
of relations  sum_i zeta_{im} = sum_j zeta_{lj} = Z  for every row l and
column m.  The quotient is realized by eliminating the last zeta row and
column (a fixed echelon basis), so reduction to canonical coordinates is a
projection with integer coefficients.

Tensors live in Sym^2(L) (x) Lambda^2(L), built from polyrel.tensor's sparse
dicts and helpers; the mixed notation "A^3 ^ B" of the
weight-4 calculus means A (sym) A (x) (A ^ B) and is provided both directly
(cube_wedge) and through the symmetric-power expansion (sym3_wedge), whose
agreement is itself a verified identity.

All arithmetic is on Python ints.  Vectors in L and the degree-2 pieces
(sym, wedge) hold their exact integer coordinates; a FormalTensor holds 3x
its value.  The only non-integral step of the calculus is sym3_wedge's 1/3,
so sym3_wedge stores the plain sum of its three products and every other
product carries a factor of 3.  Every verdict here is an equality or a zero
test, which a uniform factor leaves unchanged.

Everything the per-n verification needs is assembled here: the formal
beta_4 images of the six argument families, the T_1..T_4 decomposition, the
bookkeeping identities, and the exact vanishing of the full combination.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .exact import DomainError
from .tensor import add_product, bump, lin, sym, vsum, wedge

__all__ = [
    "LogSpace",
    "FormalTensor",
    "beta4_formal",
    "derived_symbols",
    "verify_identities",
    "verify_claim_and_theorem",
    "ARG_KINDS",
]

Name = Tuple
Vec = Dict[Name, int]


class LogSpace:
    """Quotient space of formal log symbols for fixed n >= 2."""

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("LogSpace needs n >= 2")
        self.n = n

    # basis constructors ----------------------------------------------------

    def xi(self, i: int) -> Vec:
        self._check(i)
        return {("xi", i): 1}

    def eta(self, j: int) -> Vec:
        self._check(j)
        return {("eta", j): 1}

    def Z(self) -> Vec:
        return {("Z",): 1}

    def zeta(self, l: int, m: int) -> Vec:
        """Reduced coordinates of zeta_{lm}; the last row/column eliminate via
        the row/column relations, and the corner via both (consistently)."""
        self._check(l)
        self._check(m)
        n = self.n
        if l < n and m < n:
            return {("zeta", l, m): 1}
        if l < n:  # m == n: row relation sum_j zeta_{lj} = Z
            out = {("Z",): 1}
            for j in range(1, n):
                out[("zeta", l, j)] = -1
            return out
        if m < n:  # l == n: column relation sum_i zeta_{im} = Z
            out = {("Z",): 1}
            for i in range(1, n):
                out[("zeta", i, m)] = -1
            return out
        out = {("Z",): 2 - n}
        for i in range(1, n):
            for j in range(1, n):
                out[("zeta", i, j)] = 1
        return out

    # derived symbols ----------------------------------------------------------

    def xi_sum(self) -> Vec:
        return {("xi", i): 1 for i in range(1, self.n + 1)}

    def eta_sum(self) -> Vec:
        return {("eta", j): 1 for j in range(1, self.n + 1)}

    def S(self) -> Vec:
        return lin((1, self.xi_sum()), (-1, self.eta_sum()))

    def s(self, l: int, m: int) -> Vec:
        return lin((1, self.xi(l)), (-1, self.eta(m)))

    def _check(self, i: int):
        if not 1 <= i <= self.n:
            raise DomainError(f"index {i} out of range 1..{self.n}")


# ---------------------------------------------------------------------------
# The tensor space Sym^2 (x) Lambda^2
# ---------------------------------------------------------------------------

class FormalTensor:
    """Sparse element of Sym^2(L) (x) Lambda^2(L) with integer coordinates.

    ``coords`` holds 3x the tensor's value (see the module docstring).  The
    tensor is mutable through ``add`` and therefore unhashable.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Dict[Tuple, int] | None = None):
        self.coords = {k: c for k, c in (coords or {}).items() if c != 0}

    @staticmethod
    def product(sym_part: Dict, wedge_part: Dict, c: int = 1) -> "FormalTensor":
        """c * sym_part (x) wedge_part."""
        out = FormalTensor()
        add_product(out.coords, sym_part, wedge_part, 3 * c)
        return out

    @staticmethod
    def sym2_wedge(a: Vec, b: Vec, c: Vec, d: Vec) -> "FormalTensor":
        """a (sym) b (x) (c ^ d)."""
        return FormalTensor.product(sym(a, b), wedge(c, d))

    @staticmethod
    def cube_wedge(a: Vec, b: Vec) -> "FormalTensor":
        """The mixed notation a^3 ^ b  :=  a (sym) a (x) (a ^ b)."""
        return FormalTensor.sym2_wedge(a, a, a, b)

    @staticmethod
    def sym3_wedge(a: Vec, b: Vec, c: Vec, d: Vec) -> "FormalTensor":
        """Image of the Sym^3 monomial a.b.c (x) d under the conversion map
        x.y.z (x) w  ->  (xy (x) z^w + xz (x) y^w + yz (x) x^w)/3, stored as
        the plain sum of the three products (the tensor's 3x scale)."""
        out = FormalTensor()
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            add_product(out.coords, sym(x, y), wedge(z, d), 1)
        return out

    def add(self, other: "FormalTensor", c: int = 1) -> "FormalTensor":
        """self += c * other in place; returns self."""
        bump(self.coords, other.coords, c)
        return self

    def __add__(self, other: "FormalTensor") -> "FormalTensor":
        return FormalTensor().add(self).add(other)

    def __sub__(self, other: "FormalTensor") -> "FormalTensor":
        return FormalTensor().add(self).add(other, -1)

    def scale(self, c) -> "FormalTensor":
        return FormalTensor().add(self, c)

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalTensor):
            return NotImplemented
        return self.coords == other.coords

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
        return f"FormalTensor({len(self.coords)} coords)"


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


def _beta4_pair(space: LogSpace, kind: str, l: int, m: int) -> Tuple[Vec, Vec]:
    """(log of the argument, log of 1 - argument), modulo torsion."""
    n = space.n
    if kind == "X/Y-ratio":
        return space.S(), lin((1, space.Z()), (-1, space.eta_sum()))
    if kind == "(1-x)/(1-y)":
        v = lin((1, space.S()), (1 - n, space.s(l, m)))
        w = lin((1, space.zeta(l, m)), (-1, space.eta_sum()), (n - 1, space.eta(m)))
        return v, w
    if kind == "(1-x^-1)/(1-y^-1)":
        v = lin((1, space.S()), (-n, space.s(l, m)))
        w = lin(
            (1, space.zeta(l, m)),
            (-1, space.xi(l)),
            (-1, space.eta_sum()),
            (n - 1, space.eta(m)),
        )
        return v, w
    if kind == "x_l/y_m":
        return space.s(l, m), lin((1, space.zeta(l, m)), (-1, space.eta(m)))
    if kind == "1-1/x_l":
        v = lin((1, space.xi_sum()), (-n, space.xi(l)))
        return v, lin((-1, space.xi(l)))
    if kind == "1-1/y_m":
        v = lin((1, space.eta_sum()), (-n, space.eta(m)))
        return v, lin((-1, space.eta(m)))
    raise DomainError(f"unknown argument kind {kind!r}")


def beta4_formal(kind: str, l: int, m: int, n: int) -> FormalTensor:
    """Exact formal beta_4 image of one argument of the weight-4 family.

    Uses the log assignments log(1-x_l) = xi - (n-1) xi_l,
    log(1-1/x_l) = xi - n xi_l, log(x_l - y_m) = zeta_{lm} (mod torsion).
    """
    space = LogSpace(n)
    v, w = _beta4_pair(space, kind, l, m)
    return FormalTensor.sym2_wedge(v, v, v, w)


def derived_symbols(n: int) -> dict:
    """The shorthand vectors: xi, eta, S, s_{lm} and Z, in quotient coordinates."""
    space = LogSpace(n)
    return {
        "xi": space.xi_sum(),
        "eta": space.eta_sum(),
        "S": space.S(),
        "s": {(l, m): space.s(l, m) for l in range(1, n + 1) for m in range(1, n + 1)},
        "Z": space.Z(),
    }


# ---------------------------------------------------------------------------
# T-terms
# ---------------------------------------------------------------------------

def _kronecker_wedge(space: LogSpace, l: int, m: int) -> Dict:
    """sum_{i,j} (2-n)^(delta_il + delta_jm) xi_i ^ eta_j."""
    n = space.n
    out: Dict = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bump(out, wedge(space.xi(i), space.eta(j)), (2 - n) ** ((i == l) + (j == m)))
    return out


def _t_terms(space: LogSpace, l: int, m: int) -> Tuple[FormalTensor, ...]:
    n = space.n
    S = space.S()
    s = space.s(l, m)
    z = space.zeta(l, m)
    a1 = lin((1, S), (1 - n, s))
    a2 = lin((1, S), (-n, s))
    t1 = FormalTensor()
    t1.add(FormalTensor.sym3_wedge(S, S, S, z), 2 * n - 1)
    t1.add(FormalTensor.sym3_wedge(S, S, s, z), -3 * n * (n - 1))
    t1.add(FormalTensor.sym3_wedge(s, s, s, z), n * n * (n - 1) ** 2)
    a2a2 = sym(a2, a2)
    # T_2 = -(n^2 a1.a1 - (n-1)^2 a2.a2) (x) kron, the sign moved into the sym part
    sym_mix = lin((-n * n, sym(a1, a1)), ((n - 1) ** 2, a2a2))
    t2 = FormalTensor.product(sym_mix, _kronecker_wedge(space, l, m))
    t3 = FormalTensor.product(a2a2, wedge(space.eta(m), space.xi(l)), (n - 1) ** 2)
    t4_wedge = lin(
        (1, wedge(space.xi_sum(), space.xi(l))), (1, wedge(space.eta(m), space.eta_sum()))
    )
    t4 = FormalTensor.product(a2a2, t4_wedge, (n - 1) ** 2)
    return t1, t2, t3, t4


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
            lhs = wedge(
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
    direct = FormalTensor.cube_wedge(lin((1, S), (-3, sv)), z)
    expanded = FormalTensor.sym3_wedge(S, S, S, z)
    expanded.add(FormalTensor.sym3_wedge(S, S, sv, z), -9)
    expanded.add(FormalTensor.sym3_wedge(S, sv, sv, z), 27)
    expanded.add(FormalTensor.sym3_wedge(sv, sv, sv, z), -27)
    report["cube_views_agree"] = direct == expanded

    return report


def verify_claim_and_theorem(n: int, perturb_coefficient: bool = False) -> Dict[str, bool]:
    """The per-(l,m) T-decomposition, the claim's aggregation, and the exact
    vanishing of the full weight-4 combination.

    ``perturb_coefficient`` replaces n(n-2) by n(n-3) in the full
    combination: the documented negative control, which must fail.
    """
    space = LogSpace(n)
    cells = [(l, m) for l in range(1, n + 1) for m in range(1, n + 1)]
    report: Dict[str, bool] = {}

    # the theorem's combination: each cell's two ratio-family images are
    # built once, here, and enter it through the decomposition's lhs
    combo = FormalTensor()
    sum_t = [FormalTensor() for _ in range(4)]
    decomposition_ok = True
    for l, m in cells:
        ts = _t_terms(space, l, m)
        lhs = beta4_formal("(1-x)/(1-y)", l, m, n).scale(n * n)
        lhs.add(beta4_formal("(1-x^-1)/(1-y^-1)", l, m, n), -(n - 1) ** 2)
        total = FormalTensor()
        for t, acc in zip(ts, sum_t):
            total.add(t)
            acc.add(t)
        decomposition_ok = decomposition_ok and lhs == total
        combo.add(lhs)
    report["t_decomposition"] = decomposition_ok

    S = space.S()
    Z = space.Z()
    xi_eta = vsum(wedge(space.xi(l), space.eta(m)) for l, m in cells)
    first_line = FormalTensor.cube_wedge(S, Z).scale(-n * (n - 2))
    first_line.add(FormalTensor.product(sym(S, S), xi_eta), n * (n - 2))
    second_line = FormalTensor()
    for l, m in cells:
        s = space.s(l, m)
        second_line.add(FormalTensor.cube_wedge(s, space.zeta(l, m)))
        second_line.add(FormalTensor.product(sym(s, s), wedge(space.xi(l), space.eta(m))), -1)
    claim = first_line.add(second_line, n * n * (n - 1) ** 2)
    report["claim_first_lines"] = (sum_t[0] + sum_t[1] + sum_t[2]) == claim

    # aggregation noted in the proof: the first two pieces of sum T_1 combine
    first_two = FormalTensor()
    for l, m in cells:
        z = space.zeta(l, m)
        first_two.add(FormalTensor.sym3_wedge(S, S, S, z), 2 * n - 1)
        first_two.add(FormalTensor.sym3_wedge(S, S, space.s(l, m), z), -3 * n * (n - 1))
    report["t1_first_two_aggregate"] = first_two == FormalTensor.cube_wedge(S, Z).scale(
        -n * (n - 2)
    )

    s_zeta = vsum(wedge(space.s(l, m), space.zeta(l, m)) for l, m in cells)
    report["s_wedge_zeta_aggregates"] = s_zeta == wedge(S, Z)

    one_var = FormalTensor()
    for i in range(1, n + 1):
        one_var.add(beta4_formal("1-1/x_l", i, i, n))
        one_var.add(beta4_formal("1-1/y_m", i, i, n), -1)
    report["t4_matches_beta4"] = sum_t[3] == one_var.scale(-n * (n - 1) ** 2)
    report["t4_pure"] = sum_t[3].is_pure_xi_eta()

    lead = n * (n - 3) if perturb_coefficient else n * (n - 2)
    combo.add(beta4_formal("X/Y-ratio", 1, 1, n), lead)
    for l, m in cells:
        combo.add(beta4_formal("x_l/y_m", l, m, n), -n * n * (n - 1) ** 2)
    combo.add(one_var, n * (n - 1) ** 2)
    report["theorem_zero"] = combo.is_zero()
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

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrel.catalog import equation_names, get_equation
from polyrel.criterion import (
    DualFunctional,
    FactoredSum,
    Verdict,
    _integer_specializer,
    beta_pairing,
    expand_tensor,
    kernel_test,
    log_vector,
)
from polyrel.exact import DomainError, SplitMix64, random_rational
from polyrel.formal import FormalSum
from polyrel.poly import MultiPoly
from polyrel.ratfunc import RatFunc


def five_term_sum() -> FormalSum:
    x, y = RatFunc.var("x"), RatFunc.var("y")
    return FormalSum(
        [
            (1, x * y),
            (-1, x),
            (-1, y),
            (-1, (1 - x) / (1 - 1 / y)),
            (-1, (1 - y) / (1 - 1 / x)),
        ]
    )


def random_functionals(support, seed, height=20):
    rng = SplitMix64(seed)
    def draw():
        return DualFunctional({p: Fraction(rng.next_int(-height, height)) for p in support})
    return draw(), draw(), draw()


# -- log_vector ----------------------------------------------------------------

def test_log_vector_basic():
    assert log_vector(12) == {2: 2, 3: 1}
    assert log_vector(Fraction(-3, 2)) == {3: 1, 2: -1}
    assert log_vector(1) == {}


def test_log_vector_zero_rejected():
    with pytest.raises(DomainError):
        log_vector(0)


# -- beta_pairing algebra ---------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_inversion_combination_in_kernel(m):
    rng = SplitMix64(500 + m)
    for _ in range(5):
        x = random_rational(30, rng, {Fraction(-1)})
        support = tuple(sorted(set(log_vector(x)) | set(log_vector(1 - x))))
        theta, phi, psi = random_functionals(support, 77 + m)
        s = [(Fraction(1), x), (Fraction((-1) ** m), 1 / x)]
        assert beta_pairing(s, m, theta, phi, psi) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_distribution_combination_in_kernel(m):
    rng = SplitMix64(900 + m)
    for _ in range(5):
        x = random_rational(20, rng, {Fraction(-1)})
        sq = x * x
        if sq == 1 or 1 - sq == 0:
            continue
        vals = [x, -x, sq, 1 - x, 1 + x, 1 - sq]
        support = set()
        for v in vals:
            support.update(log_vector(v))
        theta, phi, psi = random_functionals(tuple(sorted(support)), 31 * m)
        s = [
            (Fraction(1), sq),
            (Fraction(-(2 ** (m - 1))), x),
            (Fraction(-(2 ** (m - 1))), -x),
        ]
        assert beta_pairing(s, m, theta, phi, psi) == 0


def test_two_fifths_alone_is_nonzero():
    theta = DualFunctional({2: 1})
    phi = DualFunctional({2: 1})
    psi = DualFunctional({3: 1})
    value = beta_pairing([(Fraction(1), Fraction(2, 5))], 4, theta, phi, psi)
    assert value != 0


def test_pairing_antisymmetric_in_phi_psi():
    x = Fraction(3, 7)
    support = tuple(sorted(set(log_vector(x)) | set(log_vector(1 - x))))
    theta, phi, psi = random_functionals(support, 4242)
    s = [(Fraction(2), x)]
    assert beta_pairing(s, 3, theta, phi, psi) == -beta_pairing(s, 3, theta, psi, phi)


def test_pairing_linear_in_sum_and_theta_power():
    x, y = Fraction(2, 3), Fraction(5, 7)
    support = set()
    for v in (x, 1 - x, y, 1 - y):
        support.update(log_vector(v))
    theta, phi, psi = random_functionals(tuple(sorted(support)), 99)
    a = beta_pairing([(Fraction(1), x)], 4, theta, phi, psi)
    b = beta_pairing([(Fraction(1), y)], 4, theta, phi, psi)
    both = beta_pairing([(Fraction(3), x), (Fraction(-2), y)], 4, theta, phi, psi)
    assert both == 3 * a - 2 * b
    scaled = DualFunctional({p: 5 * c for p, c in theta.values.items()})
    assert beta_pairing([(Fraction(1), x)], 4, scaled, phi, psi) == 25 * a


def test_ones_skipped_zero_rejected():
    theta = phi = psi = DualFunctional({2: 1})
    assert beta_pairing([(Fraction(7), Fraction(1))], 3, theta, phi, psi) == 0
    with pytest.raises(DomainError):
        beta_pairing([(Fraction(1), Fraction(0))], 3, theta, phi, psi)


def reference_pairing(s, m, theta, phi, psi) -> Fraction:
    """The Fraction loop the integer pairing replaces: each term refactored."""

    def apply(f, v):
        total = Fraction(0)
        for p, e in v.items():
            w = f.values.get(p)
            if w is not None:
                total += w * e
        return total

    if isinstance(s, FormalSum):
        terms = [(c, a.constant_value()) for c, a in s]
    else:
        terms = [(Fraction(c), Fraction(v)) for c, v in s]
    total = Fraction(0)
    for coeff, x in terms:
        if x == 1:
            continue
        v, w = log_vector(x), log_vector(1 - x)
        tv = apply(theta, v)
        if m > 2 and tv == 0:
            continue
        total += coeff * tv ** (m - 2) * (apply(phi, v) * apply(psi, w) - apply(phi, w) * apply(psi, v))
    return total


# coefficients with unlike denominators; arguments include 1 and negatives
pairing_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
pairing_args = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=-9, max_value=9, max_denominator=8).filter(bool),
)
# plain ints, integer Fractions, thirds and other non-integer values
functional_values = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.integers(-9, 9).map(lambda k: Fraction(k, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def pairing_cases(draw):
    terms = draw(st.lists(st.tuples(pairing_coeffs, pairing_args), min_size=1, max_size=6))
    support = {97}  # a prime no term has: its functional values must not matter
    for _, x in terms:
        if x != 1:
            support.update(log_vector(x))
            support.update(log_vector(1 - x))
    funs = [DualFunctional({p: draw(functional_values) for p in sorted(support)}) for _ in range(3)]
    return terms, draw(st.integers(2, 7)), funs


@given(pairing_cases())
@settings(max_examples=200, deadline=None)
def test_pairing_matches_reference_loop(case):
    terms, m, (theta, phi, psi) = case
    as_sum = FormalSum([(c, RatFunc.from_value(x)) for c, x in terms])
    triples = [(c, x.numerator, x.denominator) for c, x in terms]
    assert beta_pairing(triples, m, theta, phi, psi) == reference_pairing(terms, m, theta, phi, psi)
    for s in (terms, as_sum):
        ref = reference_pairing(s, m, theta, phi, psi)
        for given_s in (s, FactoredSum(s)):
            got = beta_pairing(given_s, m, theta, phi, psi)
            assert type(got) is Fraction and got == ref
    # merging equal arguments in the FormalSum does not move the value
    assert reference_pairing(as_sum, m, theta, phi, psi) == reference_pairing(terms, m, theta, phi, psi)


@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_pairing_skips_theta_zero_terms_above_weight_two(m):
    # theta(log(2/3)) = theta(2) - theta(3) = 0, while the wedge part is not
    # zero; only m = 2 keeps the term
    theta = DualFunctional({2: Fraction(5, 3), 3: Fraction(5, 3)})
    phi = DualFunctional({2: 1, 3: Fraction(-1, 2)})
    psi = DualFunctional({3: Fraction(7, 3)})
    terms = [(Fraction(3, 4), Fraction(2, 3)), (Fraction(-1, 6), Fraction(-4, 5)), (Fraction(2), Fraction(1))]
    ref = reference_pairing(terms, m, theta, phi, psi)
    assert beta_pairing(terms, m, theta, phi, psi) == ref
    alone = beta_pairing(terms[:1], m, theta, phi, psi)
    assert (alone != 0) == (m == 2)


def test_factored_sum_structure():
    pairs = [(Fraction(1, 2), Fraction(-3, 4)), (Fraction(2, 3), Fraction(1)), (Fraction(-5, 6), 9)]
    fs = FactoredSum(pairs)
    assert fs.support == (2, 3, 7)
    assert fs.scale == 6
    # x = -3/4 files |a| = 3, b = 4, |b - a| = 7; x = 9 files 9, 1, 8
    assert fs.vectors == (((1, 1),), ((0, 2),), ((2, 1),), ((1, 2),), (), ((0, 3),))
    assert fs.terms == ((3, 0, 1, 2), (-5, 3, 4, 5))

    def log(i, j):
        out = dict(fs.vectors[i])
        for p, e in fs.vectors[j]:
            out[p] = out.get(p, 0) - e
        return out

    # x = -3/4: 3 / 2^2 and 1 - x = 7 / 2^2; x = 9: 3^2 and 1 - x = -8 = -2^3
    assert [(c, log(ia, ib), log(iw, ib)) for c, ia, ib, iw in fs.terms] == [
        (3, {1: 1, 0: -2}, {2: 1, 0: -2}),
        (-5, {1: 2}, {0: 3}),
    ]
    # the same sum as (coefficient, numerator, denominator) triples
    triples = FactoredSum([(c, Fraction(x).numerator, Fraction(x).denominator) for c, x in pairs])
    assert (triples.terms, triples.vectors, triples.scale, triples.support) == (
        fs.terms, fs.vectors, fs.scale, fs.support
    )
    with pytest.raises(DomainError, match="^argument 0 is outside the domain$"):
        FactoredSum([(Fraction(1), Fraction(0))])
    theta = phi = psi = DualFunctional({2: 1})
    with pytest.raises(DomainError, match="^argument 0 is outside the domain$"):
        beta_pairing([(Fraction(1), Fraction(1, 2)), (Fraction(1), 0)], 3, theta, phi, psi)
    with pytest.raises(DomainError, match="^the sum is not specialized: an argument is not constant$"):
        FactoredSum(FormalSum.single(RatFunc.var("t")))


# -- full tensor expansion (the reference for the pairing) ---------------------------

def test_expansion_five_term_vanishes():
    res = five_term_sum().specialize({"x": Fraction(2, 7), "y": Fraction(3, 5)})
    assert not res.degenerate
    assert expand_tensor(res.sum, 2) == {}


def test_expansion_detects_nonmember():
    out = expand_tensor([(Fraction(1), Fraction(2, 5))], 3)
    assert out


def test_expansion_m_bounds():
    for m in (1, 0, -1):
        with pytest.raises(DomainError):
            expand_tensor([(Fraction(1), Fraction(2, 5))], m)


def test_expansion_consistent_with_pairing():
    # the pairing is the contraction of the full expansion; if the expansion
    # vanishes, so does every pairing
    s = [(Fraction(1), Fraction(4, 9)), (Fraction(-8), Fraction(2, 3)), (Fraction(-8), Fraction(-2, 3))]
    assert expand_tensor(s, 4) == {}
    support = set()
    for _, v in s:
        support.update(log_vector(v))
        support.update(log_vector(1 - v))
    theta, phi, psi = random_functionals(tuple(sorted(support)), 11)
    assert beta_pairing(s, 4, theta, phi, psi) == 0


def test_expansion_domain_errors_and_factored_input():
    with pytest.raises(DomainError, match="^argument 0 is outside the domain$"):
        expand_tensor([(Fraction(1), Fraction(2, 5)), (Fraction(1), 0)], 3)
    with pytest.raises(DomainError, match="^the sum is not specialized: an argument is not constant$"):
        expand_tensor(FormalSum.single(RatFunc.var("t")), 3)
    with pytest.raises(DomainError, match="^tensor expansion needs m >= 2$"):
        expand_tensor(FactoredSum([(Fraction(1), Fraction(2, 5))]), 1)
    pairs = [(Fraction(3, 4), Fraction(-2, 9)), (Fraction(-1, 6), Fraction(10, 3)), (Fraction(2), 1)]
    for m in (2, 3, 7):
        expansion = expand_tensor(pairs, m)
        assert expansion and expand_tensor(FactoredSum(pairs), m) == expansion


def _seeded_specialization(s, height, seed):
    """The first non-degenerate draw of the sum's variables, and its triples."""
    variables, specialize = _integer_specializer(s)
    rng = SplitMix64(seed)
    while True:
        binding = {v: random_rational(height, rng) for v in variables}
        triples = specialize(binding)
        if triples is not None:
            return binding, triples


@pytest.mark.parametrize("name", ["xi7_explicit", "xi7_symmetric"])
def test_weight_seven_relations_expand_to_zero(name):
    eq = get_equation(name)
    assert eq.weight == 7
    _, triples = _seeded_specialization(eq.sum, 7, 7)
    assert len(triples) > 100
    assert expand_tensor(triples, 7) == {}


def _contract_expansion(expansion, m, theta, phi, psi):
    """Independent contraction of the full tensor with theta^(m-2) (phi^psi)."""
    total = Fraction(0)
    for (sym_part, (p, q)), coeff in expansion.items():
        weight = Fraction(1)
        for r in sym_part:
            weight *= theta.values.get(r, Fraction(0))
        wedge = phi.values.get(p, Fraction(0)) * psi.values.get(q, Fraction(0))
        wedge -= phi.values.get(q, Fraction(0)) * psi.values.get(p, Fraction(0))
        total += coeff * weight * wedge
    return total


@given(
    st.lists(
        st.tuples(
            st.integers(-5, 5).filter(bool),
            st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7).filter(
                lambda q: q not in (0, 1)
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 2 ** 31),
)
@settings(max_examples=40, deadline=None)
def test_pairing_equals_contracted_expansion(raw_terms, fseed):
    # dual-route check: the functional pairing must equal the explicit
    # contraction of the fully expanded tensor, at every weight the catalog
    # uses
    from hypothesis import assume

    terms = [(Fraction(c), q) for c, q in raw_terms]
    support = set()
    for _, q in terms:
        support.update(log_vector(q))
        support.update(log_vector(1 - q))
    assume(support)
    theta, phi, psi = random_functionals(tuple(sorted(support)), fseed)
    for m in range(2, 8):
        expansion = expand_tensor(terms, m)
        for (sym_part, _), _ in expansion.items():
            assert len(sym_part) == m - 2
        direct = beta_pairing(terms, m, theta, phi, psi)
        assert direct == _contract_expansion(expansion, m, theta, phi, psi)


# -- kernel_test ---------------------------------------------------------------------

def test_kernel_five_term_passes():
    verdict = kernel_test(five_term_sum(), 2, trials=6, functionals=4, seed=7)
    assert verdict.passed
    assert verdict.trials["seed"] == 7


def test_kernel_single_argument_fails_with_witness():
    s = FormalSum.single(RatFunc.var("t"))
    verdict = kernel_test(s, 3, trials=4, functionals=4, seed=1)
    assert not verdict.passed
    assert verdict.witness is not None
    assert "specialization" in verdict.witness


def test_kernel_verdicts_reproducible():
    s = FormalSum.single(RatFunc.var("t"))
    v1 = kernel_test(s, 3, trials=4, functionals=4, seed=123)
    v2 = kernel_test(s, 3, trials=4, functionals=4, seed=123)
    assert v1.witness == v2.witness


def test_kernel_inversion_pair_passes_odd_weight():
    t = RatFunc.var("t")
    s = FormalSum([(1, t), (-1, 1 / t)])  # (-1)^m = -1 for m=3
    assert kernel_test(s, 3, trials=5, functionals=3, seed=3).passed


def test_kernel_constant_sum():
    s = FormalSum([(Fraction(3), RatFunc.from_value(1))])
    assert kernel_test(s, 3, seed=5).passed


@pytest.mark.parametrize("trials, functionals", [(0, 5), (10, 0), (-1, 5), (10, -3)])
def test_kernel_without_evidence_rejected(trials, functionals):
    # no specialization or no pairing would pass the sum unexamined
    for s in (five_term_sum(), FormalSum([(Fraction(3), RatFunc.from_value(2))])):
        with pytest.raises(DomainError, match="trials >= 1 and functionals >= 1"):
            kernel_test(s, 2, trials=trials, functionals=functionals)


# -- golden witnesses ------------------------------------------------------------------
# Full verdicts of the perturbed negative controls (a relation plus one extra
# copy of its first argument), 4 trials x 3 functionals at seed 0; witnesses
# must stay byte-identical.

GOLDEN_XI7_PERTURBED = {
    "status": "fail",
    "witness": {
        "specialization": {"t": "1/7", "u": "4/5"},
        "theta": {
            2: "-24", 3: "-24", 5: "-4", 7: "-13", 11: "-34", 13: "32", 17: "-1",
            19: "-13", 23: "-18", 29: "28", 31: "-13", 37: "-36", 41: "32", 43: "-14",
            47: "-11", 61: "36", 97: "4", 101: "10", 109: "32", 113: "1", 157: "-23",
            193: "26", 241: "26", 293: "-14", 311: "26", 349: "-19", 439: "-7",
            449: "21", 541: "18", 839: "-29", 883: "-38", 887: "31", 907: "-1",
            1201: "-37",
        },
        "phi": {
            2: "-4", 3: "22", 5: "10", 7: "17", 11: "21", 13: "-9", 17: "-12",
            19: "-1", 23: "12", 29: "17", 31: "9", 37: "32", 41: "11", 43: "-13",
            47: "-19", 61: "4", 97: "-34", 101: "-2", 109: "-32", 113: "-2",
            157: "-14", 193: "2", 241: "4", 293: "10", 311: "22", 349: "-8",
            439: "-14", 449: "-34", 541: "-29", 839: "-37", 883: "37", 887: "-5",
            907: "18", 1201: "-12",
        },
        "psi": {
            2: "24", 3: "-29", 5: "17", 7: "14", 11: "4", 13: "17", 17: "30", 19: "34",
            23: "26", 31: "36", 37: "16", 41: "-28", 43: "-19", 47: "14", 61: "30",
            97: "-11", 101: "-35", 109: "-13", 113: "37", 157: "25", 193: "37",
            241: "-39", 293: "-27", 311: "21", 349: "-18", 439: "31", 449: "-4",
            541: "8", 839: "-19", 883: "-8", 887: "18", 907: "4", 1201: "10",
        },
        "value": "-222013747200",
        "trial": 0,
        "functional_index": 0,
    },
    "trials": {
        "trials": 4, "functionals": 3, "height": 40, "specialization_height": 7, "seed": 0, "weight": 7,
    },
}

GOLDEN_GONCHAROV22_PERTURBED = {
    "status": "fail",
    "witness": {
        "specialization": {"a1": "-1", "a2": "-35/4", "a3": "24/19"},
        "theta": {
            2: "-24", 3: "-24", 5: "-4", 7: "-13", 13: "-34", 19: "32", 37: "-1",
            43: "-13", 229: "-18",
        },
        "phi": {
            2: "28", 3: "-13", 5: "-36", 7: "32", 13: "-14", 19: "-11", 37: "36",
            43: "4", 229: "10",
        },
        "psi": {
            2: "32", 3: "1", 5: "-23", 7: "26", 13: "26", 19: "-14", 37: "26",
            43: "-19", 229: "-7",
        },
        "value": "86912",
        "trial": 0,
        "functional_index": 0,
    },
    "trials": {
        "trials": 4, "functionals": 3, "height": 40, "specialization_height": 40, "seed": 0, "weight": 3,
    },
}


def _perturbed(name):
    from polyrel.catalog import get_equation

    eq = get_equation(name)
    return eq.sum + FormalSum.single(eq.sum.terms[0][1], 1), eq.weight


@pytest.mark.parametrize(
    "name, spec_height, expected",
    [
        ("xi7_explicit", 7, GOLDEN_XI7_PERTURBED),
        ("goncharov22", None, GOLDEN_GONCHAROV22_PERTURBED),
    ],
)
def test_kernel_golden_witness(name, spec_height, expected):
    s, m = _perturbed(name)
    verdict = kernel_test(s, m, trials=4, functionals=3, seed=0, specialization_height=spec_height)
    # key order too: the JSON report serializes dicts in insertion order
    assert json.dumps(verdict.to_json()) == json.dumps(expected)


# -- one pairing core: int functionals, DualFunctional only for a witness ---------------

def _count_dual_functionals(monkeypatch):
    import polyrel.criterion as criterion

    built = []

    class Counting(DualFunctional):
        __slots__ = ()

        def __init__(self, values):
            built.append(1)
            super().__init__(values)

    monkeypatch.setattr(criterion, "DualFunctional", Counting)
    return built


def test_kernel_builds_no_dual_functional_on_a_passing_sum(monkeypatch):
    built = _count_dual_functionals(monkeypatch)
    assert kernel_test(five_term_sum(), 2, trials=3, functionals=4, seed=5).passed
    eq = get_equation("goncharov22")
    assert kernel_test(eq.sum, eq.weight, trials=2, functionals=3, seed=5).passed
    assert built == []
    s, m = _perturbed("goncharov22")
    assert not kernel_test(s, m, trials=4, functionals=3, seed=0).passed
    assert len(built) == 3  # theta, phi and psi of the witness


@pytest.mark.parametrize("name, spec_height", [("xi7_explicit", 7), ("goncharov22", None)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_value_is_beta_pairing_of_its_own_functionals(name, spec_height, seed):
    s, m = _perturbed(name)
    witness = kernel_test(
        s, m, trials=4, functionals=3, seed=seed, specialization_height=spec_height
    ).witness
    variables, specialize = _integer_specializer(s)
    triples = specialize({v: Fraction(witness["specialization"][v]) for v in variables})
    theta, phi, psi = (
        DualFunctional({p: Fraction(v) for p, v in witness[key].items()})
        for key in ("theta", "phi", "psi")
    )
    value = beta_pairing(triples, m, theta, phi, psi)
    assert value != 0 and str(value) == witness["value"]


def test_perturbed_xi7_witness_is_its_contracted_expansion():
    # criterion 11's control: the full weight-7 expansion at the witness's
    # specialization, contracted with the witness's functionals, is the
    # witness's value
    s, m = _perturbed("xi7_explicit")
    witness = kernel_test(s, m, trials=4, functionals=3, seed=0, specialization_height=7).witness
    res = s.specialize({v: Fraction(q) for v, q in witness["specialization"].items()})
    assert not res.degenerate
    expansion = expand_tensor(res.sum, m)
    theta, phi, psi = (
        DualFunctional({p: Fraction(v) for p, v in witness[key].items()})
        for key in ("theta", "phi", "psi")
    )
    value = _contract_expansion(expansion, m, theta, phi, psi)
    assert value != 0 and value == Fraction(witness["value"])


# -- the integer specialization against FormalSum.specialize ---------------------------

def reference_functional(support, rng, height):
    """_random_functional's draw as Fractions: the same stream, the same
    retries, zero values left out."""
    for _ in range(64):
        values = {p: Fraction(rng.next_int(-height, height)) for p in support}
        if any(values.values()):
            return SimpleNamespace(values={p: v for p, v in values.items() if v})
    return SimpleNamespace(values={support[0]: Fraction(1)} if support else {})


def reference_kernel_test(
    s, m, trials=10, functionals=5, height=40, seed=0, specialization_height=None, log=None
):
    """kernel_test on Fractions, sharing none of its specialization, factoring
    or pairing code: each draw goes through FormalSum.specialize and the
    FormalSum constructor's merge, the support comes from log_vector of x and
    of 1 - x, the functionals hold Fractions and the pairing is
    reference_pairing's loop.  ``log`` collects (binding, degenerate reason
    or None) for every draw."""
    root = SplitMix64(seed)
    variables = s.variables()
    spec_height = specialization_height or height
    n_trials = trials if variables else 1
    meta = {
        "trials": n_trials,
        "functionals": functionals,
        "height": height,
        "specialization_height": spec_height,
        "seed": seed,
        "weight": m,
    }
    for r in range(n_trials):
        spec_rng = root.split("spec", r)
        binding = {}
        spec_sum = s
        if variables:
            for _ in range(300):
                binding = {v: random_rational(spec_height, spec_rng) for v in variables}
                specialized = s.specialize(binding)
                if log is not None:
                    reason = specialized.dropped[0][1] if specialized.degenerate else None
                    log.append((binding, reason))
                if not specialized.degenerate:
                    break
            else:
                raise DomainError("no non-degenerate specialization")
            spec_sum = specialized.sum
        support = set()
        for _, a in spec_sum:
            x = a.constant_value()
            if x != 1:
                support.update(log_vector(x))
                support.update(log_vector(1 - x))
        support = tuple(sorted(support))
        for k in range(functionals):
            fun_rng = root.split("fun", r, k)
            theta = reference_functional(support, fun_rng, height)
            phi = reference_functional(support, fun_rng, height)
            psi = reference_functional(support, fun_rng, height)
            value = reference_pairing(spec_sum, m, theta, phi, psi)
            if value != 0:
                witness = {
                    "specialization": {v: str(q) for v, q in binding.items()},
                    "theta": {p: str(c) for p, c in theta.values.items()},
                    "phi": {p: str(c) for p, c in phi.values.items()},
                    "psi": {p: str(c) for p, c in psi.values.items()},
                    "value": str(value),
                    "trial": r,
                    "functional_index": k,
                }
                return Verdict("fail", witness, meta)
    return Verdict("pass", None, meta)


def reference_triples(s, binding):
    """The (coefficient, numerator, denominator) triples FormalSum.specialize
    gives, sorted, or None."""
    res = s.specialize(binding)
    if res.degenerate:
        return None
    return sorted((c, q.numerator, q.denominator) for c, q in ((c, a.constant_value()) for c, a in res.sum))


def _symbolic_relations():
    return [
        n for n in equation_names()
        if get_equation(n).is_equation and not get_equation(n).numeric_only
    ]


def test_symbolic_relations_listed():
    names = _symbolic_relations()
    assert {"five_term", "goncharov22", "relation34", "xi7_explicit", "xi7_symmetric"} <= set(names)
    assert not any(n.startswith("fourlog") for n in names)


@pytest.mark.parametrize("name", _symbolic_relations())
@pytest.mark.parametrize("seed", [0, 3, 20260808])
def test_kernel_matches_reference_on_catalog(name, seed):
    eq = get_equation(name)
    kwargs = dict(
        trials=3, functionals=2, seed=seed,
        specialization_height=7 if eq.weight >= 7 else None,
    )
    got = kernel_test(eq.sum, eq.weight, **kwargs).to_json()
    assert json.dumps(got) == json.dumps(reference_kernel_test(eq.sum, eq.weight, **kwargs).to_json())


@pytest.mark.parametrize("name, spec_height", [("xi7_explicit", 7), ("goncharov22", None)])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_kernel_matches_reference_on_perturbed_controls(name, spec_height, seed):
    s, m = _perturbed(name)
    kwargs = dict(trials=4, functionals=3, seed=seed, specialization_height=spec_height)
    got = kernel_test(s, m, **kwargs)
    assert got.status == "fail"
    assert json.dumps(got.to_json()) == json.dumps(reference_kernel_test(s, m, **kwargs).to_json())


def test_coinciding_values_merge_and_cancel():
    # x and y are distinct functions with equal values at x = y = 7/11; their
    # coefficients cancel there, so 7 and 11 must leave the support
    x, y = RatFunc.var("x"), RatFunc.var("y")
    s = FormalSum([(1, x), (-1, y), (2, x * y), (3, RatFunc.from_value(2))])
    variables, specialize = _integer_specializer(s)
    assert variables == ("x", "y")
    binding = {"x": Fraction(7, 11), "y": Fraction(7, 11)}
    triples = specialize(binding)
    assert sorted(triples) == reference_triples(s, binding) == [(2, 49, 121), (3, 2, 1)]
    assert FactoredSum(triples).support == (2, 3, 7, 11)
    # a coefficient that cancels takes its primes with it
    s = FormalSum([(1, x), (-1, y), (3, RatFunc.from_value(2))])
    triples = _integer_specializer(s)[1](binding)
    assert triples == [(3, 2, 1)]
    assert FactoredSum(triples).support == (2,)
    # partial merges add up
    s = FormalSum([(1, x), (Fraction(1, 2), y)])
    assert _integer_specializer(s)[1](binding) == [(Fraction(3, 2), 7, 11)]


def test_table_variable_of_degree_zero_is_skipped():
    # s sits in a's variable table with degree 0: it is not a variable of the
    # sum, the binding does not bind it, and the value is that of t
    t = MultiPoly.var("t", ["s", "t"])
    a = RatFunc(t * t, t + MultiPoly.const(1, ["s", "t"]))
    assert a.vars == ("s", "t") and a.num.degree_in("s") == a.den.degree_in("s") == 0
    f = FormalSum([(1, a), (2, RatFunc.var("t"))])
    variables, specialize = _integer_specializer(f)
    assert variables == f.variables() == ("t",)
    binding = {"t": Fraction(-3, 5)}
    assert sorted(specialize(binding)) == reference_triples(f, binding)
    for seed in (0, 1):
        assert kernel_test(f, 3, trials=3, functionals=2, seed=seed).to_json() == (
            reference_kernel_test(f, 3, trials=3, functionals=2, seed=seed).to_json()
        )


def _degenerate_argument(reason):
    """An argument of t that degenerates by ``reason`` at one of the values a
    height-2 draw takes (-2, -1, -1/2, 1/2 and 2)."""
    t = RatFunc.var("t")
    if reason == "pole":
        return 1 / (t - 2)
    if reason == "indeterminate":
        return RatFunc((t * (t - 2)).num, (t - 2).num)  # t, uncancelled
    return t + 1 if reason == "zero" else t + 2


@pytest.mark.parametrize("reason", ["pole", "indeterminate", "zero", "one"])
def test_degenerate_draws_match_reference(reason):
    arg = _degenerate_argument(reason)
    assert not arg.is_constant()
    s = FormalSum([(1, arg), (Fraction(2, 3), RatFunc.var("u"))])
    kwargs = dict(trials=3, functionals=2, specialization_height=2)
    for seed in range(200):
        log = []
        ref = reference_kernel_test(s, 3, seed=seed, log=log, **kwargs)
        if any(r == reason for _, r in log):
            break
    else:
        pytest.fail(f"no draw degenerates by {reason}")
    # the same draws are rejected, the same binding is kept
    _, specialize = _integer_specializer(s)
    assert [specialize(b) is None for b, _ in log] == [r is not None for _, r in log]
    for b, r in log:
        if r is None:
            assert sorted(specialize(b)) == reference_triples(s, b)
    got = kernel_test(s, 3, seed=seed, **kwargs)
    assert json.dumps(got.to_json()) == json.dumps(ref.to_json())


# small sums whose values coincide at height-2 draws (x and y take -2, -1,
# -1/2, 1/2 or 2): x = y, x*y = x^2, 1/x = y, and constants that a draw of
# x, 1 - x, x*y or x + 5 hits.  Twins enter with opposite coefficients, so
# they cancel whenever their values meet; x + 5 and y + 5 bring primes (7,
# 11) no other argument has, so a cancelled term that kept its primes would
# move the functionals.
_X, _Y = RatFunc.var("x"), RatFunc.var("y")
_KERNEL_POOL = [
    _X, _Y, _X * _Y, _X * _X, 1 / _X, 1 - _X, _X / _Y, _X + 1, _X + 5, _Y + 5,
    (1 - _Y) / (1 - _X),
] + [RatFunc.from_value(v) for v in (2, -1, Fraction(1, 2), -2, 3, 7, Fraction(11, 2), 1)]
_KERNEL_TWINS = [
    (_X, _Y),
    (_X + 5, _Y + 5),
    (_X * _X, _X * _Y),
    (_X + 5, RatFunc.from_value(7)),
    (1 - _X, RatFunc.from_value(3)),
]


@st.composite
def small_kernel_sums(draw):
    coeffs = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2)])
    terms = draw(st.lists(st.tuples(coeffs, st.sampled_from(_KERNEL_POOL)), max_size=5))
    for a, b in draw(st.lists(st.sampled_from(_KERNEL_TWINS), max_size=2)):
        c = draw(coeffs)
        terms += [(c, a), (-c, b)]
    return FormalSum(terms)


def _kernel_json(run):
    try:
        return json.dumps(run().to_json())
    except DomainError:
        return "DomainError"


@given(small_kernel_sums(), st.sampled_from([2, 3, 4]), st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_on_small_sums(s, m, seed):
    kwargs = dict(trials=3, functionals=2, seed=seed, specialization_height=2)
    got = _kernel_json(lambda: kernel_test(s, m, **kwargs))
    assert got == _kernel_json(lambda: reference_kernel_test(s, m, **kwargs))


def test_dual_functional_keeps_int_values():
    f = DualFunctional({2: 3, 3: Fraction(4), 5: 0, 7: Fraction(-1, 2)})
    assert f.values == {2: 3, 3: 4, 7: Fraction(-1, 2)}
    assert [type(v) for v in f.values.values()] == [int, Fraction, Fraction]
    assert f.cleared((2, 3, 5, 7, 11)) == (2, [6, 8, 0, -1, 0])
    ints = DualFunctional({2: 3, 5: -4})
    d, values = ints.cleared((2, 3, 5))
    assert (d, values) == (1, [3, 0, -4]) and all(type(v) is int for v in values)
    assert {p: str(c) for p, c in f.values.items()} == {2: "3", 3: "4", 7: "-1/2"}

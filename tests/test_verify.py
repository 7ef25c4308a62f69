from fractions import Fraction

import pytest

from polyrel.catalog import get_equation
from polyrel.exact import DomainError, SplitMix64
from polyrel.numeric import PrecisionPolicy
from polyrel.ratfunc import INFINITY, RatFunc
from polyrel.verify import (
    cr_num,
    preimages,
    random_phi,
    sample_complex,
    verify_dilog_general,
    verify_fourlog_numeric,
    verify_numeric,
    verify_numeric_sum,
    verify_trilog_theorem,
    verify_wojtkowiak,
)

POLICY = PrecisionPolicy(40)
CTX = POLICY.context

z = RatFunc.var("z")


def test_sampler_respects_annulus():
    rng = SplitMix64(3)
    for _ in range(50):
        pt = sample_complex(rng, CTX)
        assert 0.2 <= abs(pt) <= 5.0
        assert abs(pt - 1) >= 0.1


def test_sampling_deterministic():
    a = [complex(sample_complex(SplitMix64(5), CTX)) for _ in range(1)]
    b = [complex(sample_complex(SplitMix64(5), CTX)) for _ in range(1)]
    assert a == b


def test_preimages_of_polynomial():
    phi = z * (1 - z)
    pts = preimages(phi, POLICY.complex(Fraction(3, 16)), POLICY)
    assert len(pts) == 2
    vals = sorted(complex(p).real for p in pts)
    assert abs(vals[0] - 0.25) < 1e-20 and abs(vals[1] - 0.75) < 1e-20


def test_preimages_at_infinity_for_polynomials():
    phi = z * z
    pts = preimages(phi, INFINITY, POLICY)
    assert pts == [INFINITY, INFINITY]


def test_preimages_of_rational_map():
    phi = (z * z + 1) / z
    pts = preimages(phi, INFINITY, POLICY)  # pole at 0 plus one at infinity
    assert len(pts) == 2
    assert sum(1 for p in pts if p is INFINITY) == 1


def test_cr_num_conventions():
    a, b, c = CTX.mpc(2), CTX.mpc(3), CTX.mpc(5)
    assert cr_num(CTX, INFINITY, a, b, c) == (a - c) / (a - b)
    assert cr_num(CTX, a, b, a, c) == 0
    assert cr_num(CTX, a, b, c, a) is INFINITY
    assert cr_num(CTX, a, a, b, c) == 1


def test_verify_numeric_five_term():
    verdict = verify_numeric(get_equation("five_term"), points=10, policy=POLICY, seed=4)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] < 1e-20


def test_verify_numeric_deterministic():
    a = verify_numeric_sum(get_equation("three_term").sum, 3, points=4, policy=POLICY, seed=11)
    b = verify_numeric_sum(get_equation("three_term").sum, 3, points=4, policy=POLICY, seed=11)
    assert a.to_json() == b.to_json()


def test_verify_numeric_catches_non_equation():
    from polyrel.formal import FormalSum

    base = get_equation("five_term").sum
    first_arg = base.terms[0][1]
    s = base + FormalSum.single(first_arg, Fraction(1, 7))
    verdict = verify_numeric_sum(s, 2, points=3, policy=POLICY, seed=2)
    assert not verdict.passed
    assert verdict.witness is not None


def test_dilog_general_five_term_special_case():
    phi = z * (1 - z)
    verdict = verify_dilog_general(
        phi, POLICY.complex(complex(0.37, 0.61)), 1, 0, INFINITY, POLICY
    )
    assert verdict.passed


def test_dilog_general_random_points():
    rng = SplitMix64(21)
    phi = z * z
    pts = [sample_complex(rng, CTX) for _ in range(4)]
    verdict = verify_dilog_general(phi, pts[0], pts[1], pts[2], pts[3], POLICY)
    assert verdict.passed


def test_trilog_theorem_quadratic():
    rng = SplitMix64(22)
    phi = z * (1 - z)
    pts = [sample_complex(rng, CTX) for _ in range(8)]
    verdict = verify_trilog_theorem(phi, pts[0:2], pts[2:4], pts[4:6], pts[6:8], POLICY)
    assert verdict.passed


def test_wojtkowiak_independence_of_x():
    rng = SplitMix64(23)
    phi = z * (1 - z)
    pts = [sample_complex(rng, CTX) for _ in range(5)]
    verdict = verify_wojtkowiak(phi, pts[0], pts[1], pts[2], pts[3], pts[4], POLICY)
    assert verdict.passed


def test_fourlog_numeric_smallest_family():
    verdict = verify_fourlog_numeric(2, points=3, policy=PrecisionPolicy(50), seed=6)
    assert verdict.passed
    assert verdict.trials["max_abs_value"] < 1e-25


@pytest.mark.parametrize("points", [0, -1])
def test_numeric_verifiers_need_points(points):
    # zero samples would report vanishing with no evaluation behind it
    eq = get_equation("five_term")
    with pytest.raises(DomainError, match="points >= 1"):
        verify_numeric_sum(eq.sum, 2, points=points)
    with pytest.raises(DomainError, match="points >= 1"):
        verify_numeric(eq, points=points)
    with pytest.raises(DomainError, match="points >= 1"):
        verify_fourlog_numeric(2, points=points)


def test_random_phi_is_cubic_and_squarefree():
    phi = random_phi(SplitMix64(9))
    assert phi.num.degree_in("z") == 3

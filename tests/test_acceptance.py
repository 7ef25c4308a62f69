"""Acceptance suite: every criterion at its stated parameters and tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (run with `pytest -s`
to watch them stream; `polyrel report --all` gives the same content as a
report).  Criterion 6's difference clauses are a documented expected
failure: the published 21-term display is not annihilated by CL_3 — the
difference from the verified two-instance combination fails the exact
kernel test with a reproducible witness and misses numerically by ~0.87.
Whether some other rewrite of the display reconciles the two sides is not
computed here.  The class-count/coefficient clause is asserted for real.

Each test also compares its criterion's details with
``data/acceptance_golden.json``, recorded at seed ``SEED`` with every float
replaced by a marker: floats depend on the platform's libm, and ``passed``
already bounds them.  Everything else (counts, verdicts, witnesses, seeds)
must stay exactly as recorded.
"""

import json
from pathlib import Path

import pytest

from polyrel.report import (
    criterion_1_five_term,
    criterion_2_goncharov22,
    criterion_3_symmetric_equivalences,
    criterion_4_q_equations,
    criterion_5_relation34,
    criterion_6_gamma21,
    criterion_7_preimage_families,
    criterion_8_fourlog,
    criterion_9_xi7,
    criterion_10_invariants,
    criterion_11_negative_controls,
)

SEED = 20260808
GOLDEN = json.loads((Path(__file__).parent / "data" / "acceptance_golden.json").read_text())
FLOAT = "<float>"


def _masked(x):
    if isinstance(x, float):
        return FLOAT
    if isinstance(x, dict):
        return {k: _masked(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_masked(v) for v in x]
    return x


def assert_golden(num, out):
    """The criterion's details, as the JSON report writes them, floats masked."""
    assert _masked(json.loads(json.dumps(out["details"]))) == GOLDEN[str(num)]


def announce(num, label, outcome):
    status = "PASS" if outcome else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    return outcome


def test_criterion_01_five_term_numeric():
    out = criterion_1_five_term(SEED)
    assert_golden(1, out)
    assert announce(1, "five-term: 100 points, P=50, |CL_2| < 1e-35", out["passed"]), out["details"]


def test_criterion_02_goncharov22():
    out = criterion_2_goncharov22(SEED)
    assert_golden(2, out)
    assert announce(2, "22-term: kernel 10x5 exact zeros + 50 numeric triples", out["passed"]), out["details"]


def test_criterion_03_symmetric_equivalences():
    out = criterion_3_symmetric_equivalences(SEED)
    assert_golden(3, out)
    assert announce(
        3, "groups 192/192/96, orbits 12/32 and 6/16, class partitions, G' match", out["passed"]
    ), out["details"]


def test_criterion_04_q_equations():
    out = criterion_4_q_equations(SEED)
    assert_golden(4, out)
    assert announce(4, "nine q-identities exact + squares-level description", out["passed"]), out["details"]


def test_criterion_05_relation34():
    out = criterion_5_relation34(SEED)
    assert_golden(5, out)
    assert announce(
        5, "34-term: kernel + 30 numeric points + both structural checks", out["passed"]
    ), out["details"]


def test_criterion_06_gamma21_class_clause():
    out = criterion_6_gamma21(SEED)
    assert_golden(6, out)
    ok = out["details"]["class_clause"] and out["details"]["lhs_is_equation_kernel"] == "pass"
    assert announce(
        6, "21-term: RHS has 21 classes with coefficients in {+-1,+-2}; LHS is an equation", ok
    ), out["details"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published 21-term display is not annihilated by CL_3: the difference "
        "LHS-RHS fails the kernel test with a witness and CL_3(RHS) != 0 "
        "numerically (see this module's docstring for the full obstruction)"
    ),
)
def test_criterion_06_gamma21_difference_clauses():
    out = criterion_6_gamma21(SEED)
    assert_golden(6, out)
    announce(6, "21-term: difference LHS-RHS kernel + numeric (expected failure)", out["passed"])
    assert out["passed"], out["details"]


def test_criterion_07_preimage_families():
    out = criterion_7_preimage_families(SEED)
    assert_golden(7, out)
    assert announce(
        7, "dilog/trilog families for z(1-z), z^2, random cubic at 1e-30", out["passed"]
    ), out["details"]
    # each verdict is one fixed-point sum over certified roots: its error sits
    # near the kernel's floor, far below the 1e-30 tolerance
    families = dict(out["details"])
    verdicts = [families.pop("five_term_special_case")]
    verdicts += [v for family in families.values() for v in family.values()]
    assert len(verdicts) == 10
    assert all(v["trials"]["error"] < 1e-65 for v in verdicts), out["details"]


def test_criterion_08_fourlog():
    out = criterion_8_fourlog(SEED)
    assert_golden(8, out)
    assert announce(
        8, "weight-4: 20 points x n=2..5 at 1e-40 + exact model n=2..6", out["passed"]
    ), out["details"]


def test_criterion_09_xi7():
    out = criterion_9_xi7(SEED)
    assert_golden(9, out)
    assert announce(
        9, "weight-7: 274 classes, weights, 60-identity, kernel 8x3, 10 numeric points", out["passed"]
    ), out["details"]


def test_criterion_10_invariant_suites():
    out = criterion_10_invariants(SEED)
    assert_golden(10, out)
    assert announce(
        10, "inversion/conjugation/distribution m=2..7 at 50 points + exact pairing laws", out["passed"]
    ), out["details"]


def test_criterion_11_negative_controls():
    out = criterion_11_negative_controls(SEED)
    assert_golden(11, out)
    assert announce(
        11, "perturbed coefficients: kernel witnesses + numeric blowup > 1e-10", out["passed"]
    ), out["details"]

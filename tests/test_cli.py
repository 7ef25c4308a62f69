import json
import pathlib
import subprocess
import sys

import pytest

from polyrel.checks import check_names
from polyrel.cli import main, parse_complex_literal
from polyrel.report import CRITERIA

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "check_golden.json").read_text())


def run_cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_complex_literals():
    assert parse_complex_literal("0+1i") == complex(0, 1)
    assert parse_complex_literal("2i") == complex(0, 2)
    assert parse_complex_literal("-1.5-0.25i") == complex(-1.5, -0.25)
    assert parse_complex_literal("3") == complex(3, 0)
    assert parse_complex_literal("1.5e-2+2e1i") == complex(0.015, 20.0)
    assert parse_complex_literal("1e-5i") == complex(0, 1e-5)
    assert parse_complex_literal("2e-3i") == complex(0, 2e-3)
    assert parse_complex_literal("-1.5e-2i") == complex(0, -1.5e-2)
    assert parse_complex_literal("2.5e-3-1e-2i") == complex(2.5e-3, -1e-2)
    assert parse_complex_literal("1-i") == complex(1, -1)
    assert parse_complex_literal("i") == complex(0, 1)
    assert parse_complex_literal(" 0.5 + .25i ") == complex(0.5, 0.25)
    for bad in ("nope", "3-2", "", "1i2", "1+2ii", "e5i"):
        with pytest.raises(ValueError):
            parse_complex_literal(bad)
    # a zero literal may take any exponent; a nonzero one must not round to 0.0
    assert parse_complex_literal("0e-400+0.000e-999i") == 0
    assert parse_complex_literal("1e-310") == complex(1e-310, 0)  # subnormal, not 0
    with pytest.raises(ValueError, match="rounds to 0.0"):
        parse_complex_literal("2-1e-400i")


def test_list_and_show():
    code, out, _ = run_cli("list")
    assert code == 0
    assert "xi7_explicit" in out
    code, out, _ = run_cli("show", "five_term", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == 2
    assert len(data["sum"]) == 5


def test_eval_cl_catalan():
    code, out, _ = run_cli("eval-cl", "--m", "2", "--z", "0+1i", "--precision", "50")
    assert code == 0
    assert out.strip().startswith("0.91596559417721901505")


@pytest.mark.parametrize("m", ["2", "4"])
def test_eval_cl_at_minus_one_is_exactly_zero_for_even_m(m):
    code, out, _ = run_cli("eval-cl", "--m", m, "--z=-1")
    assert code == 0
    assert out.strip() == "0.0"


def test_eval_li_branch_error_is_usage():
    code, _, err = run_cli("eval-li", "--m", "2", "--z", "1.5")
    assert code == 2
    assert "branch" in err.lower() or "error" in err.lower()


@pytest.mark.parametrize(
    "command, m, z",
    [
        ("eval-cl", "3", "1e400"),
        ("eval-li", "2", "-1e400"),
        # nonzero, but 0.0 as a double: Li_2 there is about 1e-400, not 0
        ("eval-li", "2", "1e-400"),
        ("eval-li", "2", "1e-400i"),
    ],
)
def test_non_finite_argument_is_usage_error(command, m, z):
    code, _, err = run_cli(command, "--m", m, f"--z={z}")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("coefficients, message", [("1/0,1", "zero denominator"), ("1e400i,1", "finite")])
def test_roots_bad_coefficients_are_usage_errors(coefficients, message):
    code, out, err = run_cli("roots", f"--coefficients={coefficients}")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("precision", ["15", "30", "60"])
@pytest.mark.parametrize("coefficients, k", [("-1,3,-3,1", 3), ("1,-4,6,-4,1", 4)])
def test_roots_multiple_root_exits_zero_with_one_cluster(coefficients, k, precision):
    """(x-1)^3 and (x-1)^4 print one certified cluster k times."""
    code, out, _ = run_cli("roots", f"--coefficients={coefficients}", "--precision", precision)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == k and len(set(lines)) == 1


def test_roots_beyond_float_range_exit_zero():
    """x^2 + 10^400 (1e400 reads as an exact Fraction) prints its two roots."""
    code, out, _ = run_cli("roots", "--coefficients=1e400,0,1", "--precision", "60")
    assert code == 0
    assert out.splitlines() == ["(0.0 - 1.0e+200j)", "(0.0 + 1.0e+200j)"]


def test_leading_minus_values_take_the_equals_form():
    """A value that starts with a minus is passed as --z=... or
    --coefficients=..., as the README and the help text write it; with a
    space argparse reads it as an option and exits with usage error 2."""
    code, out, _ = run_cli("eval-li", "--m", "3", "--z=-0.25+0.5i")
    assert code == 0
    assert out.strip().startswith("(-0.2677022065122821962498")
    code, out, _ = run_cli("roots", "--coefficients=-1,0,1")
    assert code == 0
    assert out.split() == ["(-1.0", "+", "0.0j)", "(1.0", "+", "0.0j)"]
    code, _, err = run_cli("eval-li", "--m", "3", "--z", "-0.25+0.5i")
    assert code == 2 and "expected one argument" in err


def test_verify_five_term_exit_zero():
    code, out, _ = run_cli(
        "verify", "--equation", "five_term", "--mode", "both", "--seed", "7",
        "--points", "4", "--trials", "3", "--functionals", "3",
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "extra",
    [
        ("--mode", "symbolic", "--trials", "0"),
        ("--mode", "symbolic", "--functionals", "0"),
        ("--mode", "symbolic", "--functionals", "-2"),
        ("--mode", "numeric", "--points", "0"),
        ("--mode", "numeric", "--points", "-1"),
    ],
)
def test_verify_without_evidence_is_usage_error(extra):
    code, out, err = run_cli("verify", "--equation", "five_term", "--seed", "1", "--json", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ">= 1" in err


def test_verify_building_block_is_usage_error():
    code, _, err = run_cli("verify", "--equation", "f17", "--seed", "1")
    assert code == 2
    assert "building block" in err


def test_verify_unknown_equation_usage_error():
    code, _, err = run_cli("verify", "--equation", "zzz", "--seed", "1")
    assert code == 2


def test_check_xi7_term_count_prints_274():
    code, out, _ = run_cli("check", "--name", "xi7-term-count")
    assert code == 0
    assert out.splitlines()[0].strip() == "274"


def test_check_unknown_name():
    code, _, err = run_cli("check", "--name", "bogus")
    assert code == 2
    known = err.strip().split("; known: ", 1)[1].split(", ")
    assert known == check_names()
    for name in ("proof-algebra-n1", "proof-algebra-nx", "proof-algebra-n", "proof-algebra-n02"):
        code, out, err = run_cli("check", "--name", name)
        assert code == 2 and out == ""
        assert err.strip().split("; known: ", 1)[1].split(", ") == check_names()


def strip_seconds(text):
    data = json.loads(text)
    for c in data["checks"]:
        c.pop("seconds", None)
    return data


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_json_golden(name):
    # exact checks produce no floats, so their JSON is platform-independent
    code, out, _ = run_cli("check", "--name", name, "--seed", "0", "--json")
    assert code == 0
    assert strip_seconds(out[out.index("{"):]) == GOLDEN[name]


def test_check_orbit_sizes():
    code, out, _ = run_cli("check", "--name", "orbit-sizes", "--json")
    assert code == 0
    assert strip_seconds(out)["checks"][0]["details"] == {
        "y1_plain": 12,
        "product_plain": 32,
        "y1_up_to_inversion_yz": 6,
        "y1_substituted_up_to_inversion": 6,
        "product_substituted_up_to_inversion": 16,
    }


def test_check_proof_algebra():
    code, out, _ = run_cli("check", "--name", "proof-algebra-n2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True


def test_json_reports_byte_identical_for_same_seed():
    args = [
        "verify", "--equation", "three_term", "--mode", "both", "--seed", "11",
        "--points", "3", "--trials", "3", "--functionals", "2", "--json",
    ]
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0

    def strip_timings(text):
        data = json.loads(text)
        for c in data["checks"]:
            c.pop("seconds", None)
        return json.dumps(data, sort_keys=True)

    assert strip_timings(out1) == strip_timings(out2)


def test_report_subset():
    code, out, _ = run_cli("report", "--only", "4", "--seed", "3")
    assert code == 0
    assert "q-equations" in out


def test_report_subset_serial_runs_match():
    code1, out1, _ = run_cli("report", "--only", "4", "--seed", "3", "--json")
    code2, out2, _ = run_cli("report", "--only", "4", "--seed", "3", "--json")
    assert code1 == code2 == 0
    assert strip_seconds(out1) == strip_seconds(out2)


def test_report_only_rejects_unknown_ids():
    known = ", ".join(cid for cid, _, _ in CRITERIA)
    for only, bad in (("99", "99"), ("4,zz", "zz")):
        code, out, err = run_cli("report", "--only", only)
        assert code == 2
        assert out == ""
        assert f"unknown criterion ids {bad}; known: {known}" in err


def test_report_only_strips_whitespace():
    code, out, _ = run_cli("report", "--only", " 4 , 4", "--seed", "3", "--json")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["checks"]] == ["4"]


def test_verify_fourlog_numeric_only():
    code, _, err = run_cli(
        "verify", "--equation", "fourlog_n2", "--mode", "both", "--seed", "1"
    )
    assert code == 2
    assert "numeric-only" in err
    code, out, _ = run_cli(
        "verify", "--equation", "fourlog_n2", "--mode", "numeric",
        "--points", "2", "--precision", "40", "--seed", "1",
    )
    assert code == 0
    assert "PASS" in out


def test_export_roundtrip(tmp_path):
    code, out, _ = run_cli("export", "--out", str(tmp_path))
    assert code == 0
    from polyrel.catalog import equation_from_json, get_equation

    data = json.loads((tmp_path / "goncharov22.json").read_text())
    eq = equation_from_json(data)
    assert eq.sum == get_equation("goncharov22").sum


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrel.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "polyrel" in proc.stdout

"""The committed catalog JSON artifacts match the builders exactly."""

import json
from pathlib import Path

import pytest

from polyrel.catalog import equation_names, get_equation

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "catalog"


def test_artifact_directory_is_complete():
    names = set(equation_names())
    files = {p.stem for p in DATA_DIR.glob("*.json")}
    assert files == names


@pytest.mark.parametrize("name", equation_names())
def test_artifact_matches_builder(name):
    data = json.loads((DATA_DIR / f"{name}.json").read_text())
    assert data == get_equation(name).to_json()


def test_export_is_byte_identical_to_the_committed_artifacts(tmp_path):
    # the bytes depend on FormalSum's term order, and so on the term order
    # of every product and sum that builds an equation; a fresh process
    # builds them as `polyrel export` does
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "catalog"
    proc = subprocess.run(
        [sys.executable, "-m", "polyrel.cli", "export", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in DATA_DIR.iterdir())
    for path in DATA_DIR.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_env_seed_is_honored(monkeypatch):
    import contextlib
    import io

    from polyrel.cli import main

    monkeypatch.setenv("POLYLOG_SEED", "99")

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["verify", "--equation", "three_term", "--mode", "symbolic",
                 "--trials", "2", "--functionals", "2", "--json"]
            )
        return code, json.loads(out.getvalue())

    code, data = run()
    assert code == 0
    assert data["seed"] == 99

"""The run report: a list of check entries with their evidence, rendered as
JSON (byte-identical across runs with the same seed once ``seconds`` is
stripped) or as text.  It imports no numeric code, so the symbolic commands
can report without loading the kernel.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List

from . import __version__

REPORT_SCHEMA = "polyrel/report/1"


@dataclass
class RunReport:
    command: str
    seed: int
    checks: List[dict] = field(default_factory=list)
    policy: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add(
        self, id_: str, name: str, passed, details: dict, start: float, expected_failure=False
    ) -> None:
        """Append a check entry; ``start`` is the time.time() its work began."""
        entry = {
            "id": id_,
            "name": name,
            "passed": bool(passed),
            "details": details,
            "seconds": round(time.time() - start, 3),
        }
        if expected_failure:
            entry["expected_failure"] = True
        self.checks.append(entry)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "policy": self.policy,
            "checks": [dict(c) for c in self.checks],
            "all_passed": self.all_passed(),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            extra = " (expected failure, see notes)" if c.get("expected_failure") else ""
            lines.append(f"[{status}] {c['name']} ({c.get('seconds', 0):.1f}s){extra}")
        summary = "all checks passed" if self.all_passed() else "some checks FAILED"
        lines.append(f"-- {summary} --")
        return "\n".join(lines)

"""The benchmark's workloads: what one fresh process builds, and what it times.

``build(workload, task_seed, tiny)`` is the set-up phase.  It imports the
polyrel modules the workload needs, builds every input (catalog equations,
group generators, precision policies) and returns the list of tasks for the
timed phase.  Each task calls the same functions a user's command reaches and
turns the result into an ``Outcome`` that the worker checks against the
task's expected status.

``tiny`` selects a cut-down task list for the self-test; the benchmark runs
always use the full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

# catalog relations that carry a symbolic (kernel) verdict
SYMBOLIC_RELATIONS = (
    "five_term",
    "three_term",
    "goncharov22",
    "goncharov22_sym",
    "gamma21",
    "relation34",
    "xi7_explicit",
    "xi7_symmetric",
)

# weight-4 caps: criterion 8 runs numeric n = 2..5 at 20 points and the exact
# proof for n = 2..6; the n = 6 claim alone takes about 26 s, so one process
# checks one point per n and proves n = 2..4, with the controls at n = 4
FOURLOG_NUMERIC_N = (2, 3, 4, 5)
FOURLOG_PROOF_N = (2, 3, 4)
FOURLOG_CONTROL_N = 4


@dataclass
class Outcome:
    """A verdict reduced to what the gate checks.

    ``witness`` lists what a failing verdict points at (empty when it passed).
    ``residual`` and ``tolerance`` are set for numeric verdicts only.
    """

    status: str
    witness: tuple = ()
    residual: Optional[float] = None
    tolerance: Optional[float] = None


@dataclass
class Task:
    name: str
    expect: str  # "pass" | "fail"
    run: Callable[[], Outcome]
    # for an expected failure: the witness entry that must be present
    # (None accepts any non-empty witness)
    fails_on: Optional[str] = None


def kernel_outcome(verdict) -> Outcome:
    witness = tuple(sorted(verdict.witness)) if verdict.witness else ()
    return Outcome(verdict.status, witness)


def numeric_outcome(verdict, tolerance: float) -> Outcome:
    if verdict.passed:
        residual = verdict.trials["max_abs_value"]
    else:
        residual = verdict.witness["value"]
    witness = tuple(sorted(verdict.witness)) if verdict.witness else ()
    return Outcome(verdict.status, witness, float(residual), tolerance)


def proof_outcome(report: dict) -> Outcome:
    failing = tuple(sorted(k for k, ok in report.items() if not ok))
    return Outcome("fail" if failing else "pass", failing)


def _xi7(task_seed: int, tiny: bool) -> List[Task]:
    # verify --equation xi7_explicit --mode both, one numeric point
    from polyrel.catalog import get_equation
    from polyrel.criterion import kernel_test
    from polyrel.numeric import PrecisionPolicy
    from polyrel.verify import verify_numeric

    eq = get_equation("xi7_explicit")
    policy = PrecisionPolicy.for_digits(30 if tiny else 60)
    tol = float(policy.tolerance)
    trials, functionals = (1, 1) if tiny else (8, 3)
    return [
        Task(
            "kernel_test xi7_explicit",
            "pass",
            lambda: kernel_outcome(
                kernel_test(
                    eq.sum,
                    eq.weight,
                    trials=trials,
                    functionals=functionals,
                    height=40,
                    seed=task_seed,
                    specialization_height=7,
                )
            ),
        ),
        Task(
            "verify_numeric xi7_explicit",
            "pass",
            lambda: numeric_outcome(
                verify_numeric(eq, points=1, policy=policy, seed=task_seed), tol
            ),
        ),
    ]


def _kernel(task_seed: int, tiny: bool) -> List[Task]:
    # verify --mode symbolic on every symbolic relation (defaults 10 x 5,
    # height 40, specialization height 7 at weight 7), then the kernel half
    # of the perturbed negative controls
    from polyrel.catalog import get_equation
    from polyrel.criterion import kernel_test
    from polyrel.formal import FormalSum

    eqs = {name: get_equation(name) for name in SYMBOLIC_RELATIONS}
    perturbed = {
        name: eqs[name].sum + FormalSum.single(eqs[name].sum.terms[0][1], 1)
        for name in ("xi7_explicit", "goncharov22")
    }
    trials, functionals = (1, 1) if tiny else (10, 5)

    def relation(name):
        eq = eqs[name]
        return lambda: kernel_outcome(
            kernel_test(
                eq.sum,
                eq.weight,
                trials=trials,
                functionals=functionals,
                height=40,
                seed=task_seed,
                specialization_height=7 if eq.weight >= 7 else None,
            )
        )

    def control(name, spec_height):
        return lambda: kernel_outcome(
            kernel_test(
                perturbed[name],
                eqs[name].weight,
                trials=4,
                functionals=3,
                seed=task_seed,
                specialization_height=spec_height,
            )
        )

    tasks = [Task(f"kernel_test {n}", "pass", relation(n)) for n in SYMBOLIC_RELATIONS]
    tasks.append(Task("kernel_test xi7_explicit perturbed", "fail", control("xi7_explicit", 7)))
    tasks.append(Task("kernel_test goncharov22 perturbed", "fail", control("goncharov22", 40)))
    return tasks


def _symmetry(task_seed: int, tiny: bool) -> List[Task]:
    # criteria 3 and 4 are exact and take no random input: the seed only
    # reaches them as the argument the acceptance suite passes
    from polyrel import report
    from polyrel.catalog import get_equation
    from polyrel.checks import group_generators
    from polyrel.formal import group_closure, orbit
    from polyrel.ratfunc import RatFunc

    get_equation("goncharov22")
    get_equation("goncharov22_sym")
    gens = group_generators()

    def criterion(fn):
        def run():
            out = fn(task_seed)
            return Outcome("pass" if out["passed"] else "fail")

        return run

    def yz_orbit():
        group = group_closure(gens["yz"], bound=256)
        ok = len(group) == 96 and len(orbit(RatFunc.var("y1"), group)) == 12
        return Outcome("pass" if ok else "fail")

    if tiny:
        return [Task("group_closure yz + orbit y1", "pass", yz_orbit)]
    return [
        Task("criterion_3_symmetric_equivalences", "pass", criterion(report.criterion_3_symmetric_equivalences)),
        Task("criterion_4_q_equations", "pass", criterion(report.criterion_4_q_equations)),
    ]


def _weight4(task_seed: int, tiny: bool) -> List[Task]:
    # the shape of criterion 8: CL_4 on root-bound preimages, the exact
    # proof, and its two documented negative controls
    from polyrel.catalog import get_equation
    from polyrel.numeric import PrecisionPolicy
    from polyrel.proofalgebra import verify_claim_and_theorem, verify_identities
    from polyrel.verify import verify_fourlog_numeric

    numeric_n = (2,) if tiny else FOURLOG_NUMERIC_N
    proof_n = (2, 3) if tiny else FOURLOG_PROOF_N
    control_n = 3 if tiny else FOURLOG_CONTROL_N
    for n in numeric_n:
        get_equation(f"fourlog_n{n}")
    policy = PrecisionPolicy(30, t_slack=10) if tiny else PrecisionPolicy(60, t_slack=20)
    tol = float(policy.tolerance)

    def numeric(n):
        return lambda: numeric_outcome(
            verify_fourlog_numeric(n, points=1, policy=policy, seed=task_seed), tol
        )

    tasks = [Task(f"verify_fourlog_numeric n{n}", "pass", numeric(n)) for n in numeric_n]
    for n in proof_n:
        tasks.append(Task(f"verify_identities n{n}", "pass", lambda n=n: proof_outcome(verify_identities(n))))
        tasks.append(
            Task(f"verify_claim_and_theorem n{n}", "pass", lambda n=n: proof_outcome(verify_claim_and_theorem(n)))
        )
    tasks.append(
        Task(
            f"verify_identities n{control_n} altered_eq15",
            "fail",
            lambda: proof_outcome(verify_identities(control_n, altered_eq15=True)),
            fails_on="eq15_distribution_scalars",
        )
    )
    tasks.append(
        Task(
            f"verify_claim_and_theorem n{control_n} perturb_coefficient",
            "fail",
            lambda: proof_outcome(verify_claim_and_theorem(control_n, perturb_coefficient=True)),
            fails_on="theorem_zero",
        )
    )
    return tasks


_BUILDERS = {"xi7": _xi7, "kernel": _kernel, "symmetry": _symmetry, "weight4": _weight4}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, task_seed: int, tiny: bool = False) -> List[Task]:
    """Set-up phase: import, build every input, return the timed tasks."""
    return _BUILDERS[workload](task_seed, tiny)

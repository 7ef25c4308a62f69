"""polyrel: exact verification engine for polylogarithm functional equations.

The exact layers (``exact``, ``formal``, ``poly``, ``ratfunc``) are imported
with the package.  Every other public name is in ``_LAZY_API`` and imports
its module on first use (PEP 562 ``__getattr__``): the expression parser of
``expr`` (``parse_expression``, ``ParseError``), which only the JSON catalog
reader needs, the polylog kernel and root finder of ``numeric`` (``cl_m``,
``li_m``, ``cl_apply``, ``poly_roots``, ``PrecisionPolicy``, ...) and the
high-level API of ``catalog``, ``criterion``, ``verify``, ``report``,
``proofalgebra`` and ``checks``.  The symbolic path (building a catalog
equation and running its kernel test) never calls ``numeric``, the largest
module, so through this API it does not compile or run it; nor does
``polyrel verify --mode symbolic``, since each command imports the modules
it runs.  The structural checks and acceptance criteria 3 and 4 are exact
algebra too: ``checks`` and ``report`` import ``criterion``, ``numeric``,
``verify``, ``proofalgebra`` and ``runreport`` inside the functions that
call them, so those checks load none of the five.
"""

from .exact import (
    DomainError,
    RationalFactorization,
    SampleSpaceExhausted,
    SplitMix64,
    factor_rational,
    random_rational,
)
from .formal import Automorphism, FormalSum, group_closure, inversion_class_key, orbit
from .poly import MultiPoly
from .ratfunc import INDETERMINATE, INFINITY, POLE, RatFunc, ZeroDenominator, cross_ratio

__version__ = "0.1.0"


# names imported on first use (PEP 562), so that `import polyrel` stays light
_LAZY_API = {
    "BranchAmbiguityError": ("polyrel.numeric", "BranchAmbiguityError"),
    "PoleError": ("polyrel.numeric", "PoleError"),
    "PrecisionPolicy": ("polyrel.numeric", "PrecisionPolicy"),
    "bernoulli": ("polyrel.numeric", "bernoulli"),
    "cl_apply": ("polyrel.numeric", "cl_apply"),
    "cl_m": ("polyrel.numeric", "cl_m"),
    "li_m": ("polyrel.numeric", "li_m"),
    "poly_roots": ("polyrel.numeric", "poly_roots"),
    "zeta_int": ("polyrel.numeric", "zeta_int"),
    "ParseError": ("polyrel.expr", "ParseError"),
    "parse_expression": ("polyrel.expr", "parse_expression"),
    "get_equation": ("polyrel.catalog", "get_equation"),
    "equation_names": ("polyrel.catalog", "equation_names"),
    "EquationSpec": ("polyrel.catalog", "EquationSpec"),
    "kernel_test": ("polyrel.criterion", "kernel_test"),
    "beta_pairing": ("polyrel.criterion", "beta_pairing"),
    "verify_numeric": ("polyrel.verify", "verify_numeric"),
    "run_acceptance": ("polyrel.report", "run_acceptance"),
    "verify_identities": ("polyrel.proofalgebra", "verify_identities"),
    "verify_claim_and_theorem": ("polyrel.proofalgebra", "verify_claim_and_theorem"),
    "group_generators": ("polyrel.checks", "group_generators"),
}


def __getattr__(name):
    if name in _LAZY_API:
        import importlib

        module, attr = _LAZY_API[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'polyrel' has no attribute {name!r}")

__all__ = [
    "DomainError",
    "RationalFactorization",
    "SampleSpaceExhausted",
    "SplitMix64",
    "factor_rational",
    "random_rational",
    "ParseError",
    "parse_expression",
    "Automorphism",
    "FormalSum",
    "group_closure",
    "inversion_class_key",
    "orbit",
    "BranchAmbiguityError",
    "PoleError",
    "PrecisionPolicy",
    "bernoulli",
    "cl_apply",
    "cl_m",
    "li_m",
    "poly_roots",
    "zeta_int",
    "MultiPoly",
    "RatFunc",
    "INDETERMINATE",
    "INFINITY",
    "POLE",
    "ZeroDenominator",
    "cross_ratio",
    "__version__",
]

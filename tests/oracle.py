"""mpmath as the tests' independent oracle.

The program runs on the standard library alone and hands out exact dyadics:
a Fraction for a real value, a Gaussian-rational pair (re, im) for a complex
one.  ``to_mp`` turns them into mpmath numbers for comparison with
``mpmath.polylog`` and friends; ``context`` gives an mpmath context at a
policy's precision for building reference values.
"""

from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp


def _raw(value, ctx):
    q = Fraction(value)
    den = q.denominator
    if den & (den - 1):  # not dyadic: rounded to the context
        return (ctx.mpf(q.numerator) / den)._mpf_
    return from_man_exp(q.numerator, 1 - den.bit_length())


def to_mp(value, ctx=mpmath.mp):
    """A Fraction, or a Gaussian-rational (re, im) pair, as an mpf or mpc of
    ``ctx``: exact for a dyadic value, as every value the numeric module
    returns is, else rounded to the context's precision."""
    if isinstance(value, tuple):
        return ctx.make_mpc((_raw(value[0], ctx), _raw(value[1], ctx)))
    return ctx.make_mpf(_raw(value, ctx))


def context(policy):
    """A private mpmath context at the policy's ``prec`` bits."""
    ctx = mpmath.MPContext()
    ctx.prec = policy.prec
    return ctx

"""Sparse tensors with exact coefficients.

A tensor is a plain dict from basis keys to nonzero exact coefficients (int
or Fraction); a missing key has coefficient zero, so the empty dict is the
zero tensor and equality is dict equality.  Basis keys only need to be
mutually comparable.  Every helper keeps the invariant that no stored
coefficient is zero.  The loops run on plain dicts, without per-coordinate
calls, because the weight-4 proof runs them about a million times.

Two key forms.  Without a width, a pair of keys (a, b) is stored as the
tuple (a, b); only the symbol criterion (criterion.expand_tensor) uses this
form, on primes.  With ``width`` the keys are small ints (basis indices
below 2**width, as in proofalgebra), and ``wedge``, ``sym`` and
``add_product`` store the pair as the single int a << width | b;
``unpack`` inverts it.  A product of two packed pieces is packed again at
twice the width, so a Sym^2 (x) Lambda^2 coordinate is one int of
4 * width bits, which hashes and compares faster than a nested tuple.  The
width must cover every index: 2**width > largest index.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

__all__ = ["bump", "lin", "vsum", "wedge", "sym", "sym_power", "add_product", "unpack"]


def unpack(key: int, width: int) -> Tuple[int, int]:
    """The key pair (a, b) packed as a << width | b."""
    return key >> width, key & ((1 << width) - 1)


def bump(acc: Dict, other: Dict, c=1) -> Dict:
    """acc += c * other in place, dropping coordinates that cancel; returns acc."""
    if c:
        for k, x in other.items():
            x = acc.get(k, 0) + c * x
            if x:
                acc[k] = x
            else:
                acc.pop(k, None)
    return acc


def lin(*terms: Tuple[int, Dict]) -> Dict:
    """The linear combination sum c * v over (c, v) pairs."""
    out: Dict = {}
    for c, v in terms:
        bump(out, v, c)
    return out


def vsum(vs: Iterable[Dict]) -> Dict:
    return lin(*((1, v) for v in vs))


def wedge(u: Dict, v: Dict, width: int | None = None) -> Dict:
    """u ^ v: the coordinate of a ^ b sits on (a, b) when a < b, negated otherwise.

    With ``width`` the pair is packed (see the module docstring).
    """
    out: Dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a == b:
                continue
            lo, hi, c = (a, b, ca * cb) if a < b else (b, a, -ca * cb)
            key = (lo, hi) if width is None else lo << width | hi
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def sym(u: Dict, v: Dict, width: int | None = None) -> Dict:
    """u.v in Sym^2, keyed by sorted pairs, packed with ``width``."""
    out: Dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            lo, hi = (a, b) if a <= b else (b, a)
            key = (lo, hi) if width is None else lo << width | hi
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def sym_power(v: Dict, k: int) -> Dict:
    """v^k in Sym^k, keyed by sorted k-tuples; sym_power(v, 2) == sym(v, v).

    A monomial's coefficient is the product of its factors' coefficients
    times its multinomial count, summed here one ordering at a time.  All
    orderings of a monomial contribute the same nonzero product, so nothing
    cancels.
    """
    out: Dict = {(): 1}
    for _ in range(k):
        step: Dict = {}
        for key, c in out.items():
            for a, ca in v.items():
                grown = tuple(sorted((*key, a)))
                step[grown] = step.get(grown, 0) + c * ca
        out = step
    return out


def add_product(acc: Dict, left: Dict, right: Dict, c=1, width: int | None = None) -> Dict:
    """acc += c * left (x) right in place, keyed by (left key, right key); returns acc.

    With ``width`` the right keys are ints below 2**width and the key is
    packed; the loop is written out twice so neither pays for the other.
    """
    if width is not None:
        for lk, lc in left.items():
            f = c * lc
            base = lk << width
            for rk, rc in right.items():
                key = base | rk
                x = acc.get(key, 0) + f * rc
                if x:
                    acc[key] = x
                else:
                    acc.pop(key, None)
        return acc
    for lk, lc in left.items():
        f = c * lc
        for rk, rc in right.items():
            key = (lk, rk)
            x = acc.get(key, 0) + f * rc
            if x:
                acc[key] = x
            else:
                acc.pop(key, None)
    return acc

"""Kernel selection: compiled extension when available, pure Python otherwise.

Set NILPAL_PURE=1 in the environment to force the pure-Python kernel.
"""

import os

from nilpal import _kernel_py

if os.environ.get("NILPAL_PURE"):
    poly_mul = _kernel_py.poly_mul
    BACKEND = "pure"
else:
    try:
        from nilpal._speedups import poly_mul

        BACKEND = "compiled"
    except ImportError:
        poly_mul = _kernel_py.poly_mul
        BACKEND = "pure"


def poly_inv(a, table, m, k):
    """Inverse of a unit polynomial 1 + r with r of positive degree.

    Geometric series truncated at degree k; requires constant term 1.
    """
    if a.get(0) != 1:
        raise ValueError("not a unit with constant term 1")
    r = {i: c for i, c in a.items() if i != 0}
    out = {0: 1}
    for _ in range(k):
        # out <- 1 - r*out; r*out never has a constant term.  The j-th
        # iterate is sum_{i<=j} (-r)^i, fixed once (-r)^(j+1) truncates to 0.
        nxt = {i: -c for i, c in poly_mul(r, out, table, m).items()}
        nxt[0] = 1
        if nxt == out:
            break
        out = nxt
    return out


def poly_pow(a, e, table, m, k):
    if e < 0:
        return poly_pow(poly_inv(a, table, m, k), -e, table, m, k)
    out = {0: 1}
    sq = a
    while e:
        if e & 1:
            out = poly_mul(out, sq, table, m)
        e >>= 1
        if e:
            sq = poly_mul(sq, sq, table, m)
    return out

"""Float sums in numpy's order, for code that must match numpy bit for bit.

numpy adds the n values of a float64 reduction over one contiguous run,
such as `a.sum()` of a 1-D array or `x.sum(axis=-1)` of a C-ordered
array, by pairwise summation: below 8 values left to right; from 8 to
128 values in 8 running sums, r[j] taking values j, j + 8, j + 16, ...
of the first n - n % 8, combined as ((r0 + r1) + (r2 + r3)) +
((r4 + r5) + (r6 + r7)), and the last n % 8 values added left to right;
above 128 values, the sum of the first h and of the other n - h values,
h being n // 2 rounded down to a multiple of 8.
"""

from __future__ import annotations

_UNROLL = 8
_BLOCK = 128


def numpy_sum(terms):
    """Sum of a non-empty sequence of Python floats or equal-shape
    float64 arrays, added in numpy's order for a sum over one contiguous
    run of them, so float for float the same as numpy's sum. Arrays are
    added in place: the result is one of them and the others may be
    overwritten. numpy starts a short sum from 0.0, which turns a lone
    -0.0 into 0.0; the terms this is used for are squares, never -0.0."""
    n = len(terms)
    if n > _BLOCK:
        half = n // 2
        half -= half % _UNROLL
        total = numpy_sum(terms[:half])
        total += numpy_sum(terms[half:])
        return total
    if n < _UNROLL:
        end = 1
        total = terms[0]
    else:
        end = n - n % _UNROLL
        r = list(terms[:_UNROLL])
        for i in range(_UNROLL, end, _UNROLL):
            for j in range(_UNROLL):
                r[j] += terms[i + j]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for step in (1, 2, 4):
            for j in range(0, _UNROLL, 2 * step):
                r[j] += r[j + step]
        total = r[0]
    for term in terms[end:]:
        total += term
    return total

"""Shared helpers: a dense elimination oracle and randomized small chain
complexes with known homology.

:func:`rref` is plain dense Fraction Gauss-Jordan, written for the tests
only; it shares no code with the sparse incremental elimination in
``operadlab.linalg``.

A complex is assembled from elementary pieces — an identity two-term
complex contributes nothing to homology, a lone generator contributes
one dimension — and then conjugated by random invertible change-of-basis
matrices in every degree.  The expected homology is therefore known
independently of the package's own linear algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from operadlab.complexes import ChainComplexWindow, GradedSpace
from operadlab.linalg import RationalMatrix, Subquotient, kernel_basis


def rref(rows: list, ncols: int) -> tuple[list, list]:
    """Reduced row-echelon form of dense rows: (pivot rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots: list = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


# mostly-zero entries make dependent and repeated vectors common
sparse_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


def dense_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a small invertible dense matrix: the right half of the
    reduced echelon form of [A | I]."""
    n = len(rows)
    augmented = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    return [r[n:] for r in rref(augmented, n)[0]]


def random_invertible(n: int, rng: random.Random):
    """(P, P^-1) as dense Fraction rows."""
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    return P, dense_inverse(P)


def _dense_to_matrix(rows: list[list[Fraction]]) -> RationalMatrix:
    n = len(rows)
    m = len(rows[0]) if rows else 0
    entries = {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v != 0
    }
    return RationalMatrix(n, m, entries)


def _dense_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_complex(rng: random.Random, max_deg: int = 4):
    """(ChainComplexWindow, expected homology dims per degree).

    Dimensions stay small (<= 5 per degree) so exhaustive downstream
    checks remain fast.
    """
    free = {q: rng.randint(0, 2) for q in range(max_deg + 1)}
    killed = {q: rng.randint(0, 2) for q in range(1, max_deg + 1)}
    dims = {
        q: free.get(q, 0) + killed.get(q, 0) + killed.get(q + 1, 0)
        for q in range(max_deg + 1)
    }
    # block differential: the killed part of degree q maps identically
    # onto the corresponding part of degree q-1
    diff_dense = {}
    for q in range(1, max_deg + 1):
        rows = [[Fraction(0)] * dims[q] for _ in range(dims[q - 1])]
        # layout in degree q: [free_q | killed_q | image-of-(q+1)]
        # d maps the killed_q block onto the image block of degree q-1
        for k in range(killed.get(q, 0)):
            src = free.get(q, 0) + k
            dst = free.get(q - 1, 0) + killed.get(q - 1, 0) + k
            rows[dst][src] = Fraction(1)
        diff_dense[q] = rows
    # conjugate by random change of basis per degree
    P = {}
    Pinv = {}
    for q in range(max_deg + 1):
        if dims[q]:
            P[q], Pinv[q] = random_invertible(dims[q], rng)
    differential = {}
    for q in range(1, max_deg + 1):
        if not (dims[q] and dims[q - 1]):
            differential[q] = RationalMatrix.zero(dims[q - 1], dims[q])
            continue
        rows = _dense_mul(_dense_mul(Pinv[q - 1], diff_dense[q]), P[q])
        entries = {
            (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v != 0
        }
        differential[q] = RationalMatrix(dims[q - 1], dims[q], entries)
    space = GradedSpace({q: tuple(f"e{q}_{i}" for i in range(dims[q])) for q in dims})
    C = ChainComplexWindow(space, differential, (0, max_deg))
    expected = {q: free.get(q, 0) for q in range(max_deg + 1)}
    return C, expected


def reference_homology(C: ChainComplexWindow) -> dict:
    """degree -> Subquotient of cycles modulo boundaries, computed the
    plain way: the kernel basis of d_q at every degree (the dense identity
    at a complete lower edge, nothing at an open one) modulo the raw
    columns of d_{q+1}.  An oracle for ``homology``, which reduces each
    differential only once."""
    lo, hi = C.window
    out = {}
    for q in range(lo, hi + 1):
        n = C.dim(q)
        if q > lo:
            cycles = kernel_basis(C.d(q))
        elif C.complete_below:
            cycles = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        else:
            cycles = []
        boundaries = C.d(q + 1).columns() if q < hi else []
        out[q] = Subquotient(n, cycles, boundaries)
    return out


@pytest.fixture
def rng():
    return random.Random(20260823)

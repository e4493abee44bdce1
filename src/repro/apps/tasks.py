"""Task declarations shared by the paper's applications.

The Python counterparts of Figure 2 ("Declarations of some of the tasks
that will be used in this paper") and Figure 10 (the on-demand blocking
tasks).  Each ``@css_task`` string is the clause list of the paper's
``#pragma css task`` line.

Note the paper overloads the name ``sgemm_t``: in the multiplication
codes (Figures 1, 3) it accumulates ``c += a @ b``, while in Cholesky
(Figure 4) it is the rank-update ``c -= a @ b.T``.  We keep both under
distinct names and alias ``sgemm_t`` to the multiplication flavour.
"""

from __future__ import annotations

import numpy as np

from ..blas import kernels
from ..core.api import css_task

__all__ = [
    "sgemm_t",
    "sgemm_nt_t",
    "spotrf_t",
    "strsm_t",
    "ssyrk_t",
    "get_block_t",
    "put_block_t",
    "seqquick_t",
    "seqmerge_t",
    "place_t",
    "nqueens_task",
]


# ---------------------------------------------------------------------------
# Linear-algebra tile tasks (Figure 2)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def sgemm_t(a, b, c):
    """Figure 1/3 multiplication task: ``c += a @ b``."""

    kernels.gemm(a, b, c)


@css_task("input(a, b) inout(c)")
def sgemm_nt_t(a, b, c):
    """Figure 4 Cholesky trailing update: ``c -= a @ b.T``."""

    kernels.gemm_nt(a, b, c)


@css_task("inout(a)")
def spotrf_t(a):
    """Figure 2: in-place lower Cholesky factorisation of a tile."""

    kernels.potrf(a)


@css_task("input(a) inout(b)")
def strsm_t(a, b):
    """Figure 2: triangular solve of a panel tile against the diagonal."""

    kernels.trsm(a, b)


@css_task("input(a) inout(b)")
def ssyrk_t(a, b):
    """Figure 2: symmetric rank-k update of the diagonal tile."""

    kernels.syrk(a, b)


# ---------------------------------------------------------------------------
# Flat-matrix blocking tasks (Figure 10)
# ---------------------------------------------------------------------------
# The flat matrix is passed as an *opaque* parameter — the paper passes
# it as ``void *`` so it "passes through the runtime unaltered" and only
# the hyper-matrix blocks carry dependencies.

@css_task("opaque(A) input(i, j) output(a)")
def get_block_t(i, j, A, a):
    """Copy block (i, j) of the opaque flat matrix into tile *a*."""

    m = a.shape[0]
    a[...] = A[i * m : (i + 1) * m, j * m : (j + 1) * m]


@css_task("opaque(A) input(a, i, j)")
def put_block_t(i, j, a, A):
    """Copy tile *a* back into block (i, j) of the opaque flat matrix."""

    m = a.shape[0]
    A[i * m : (i + 1) * m, j * m : (j + 1) * m] = a


# ---------------------------------------------------------------------------
# Multisort tasks (Figure 7)
# ---------------------------------------------------------------------------

@css_task("inout(data{i..j}) input(i, j)")
def seqquick_t(data, i, j):
    """Sort ``data[i..j]`` inclusively in place (the recursion base)."""

    data[i : j + 1] = np.sort(data[i : j + 1], kind="quicksort")


@css_task(
    "input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) output(dest{i1..j2})"
)
def seqmerge_t(data, i1, j1, i2, j2, dest):
    """Merge sorted ``data[i1..j1]`` and ``data[i2..j2]`` into ``dest[i1..j2]``.

    Matches Figure 7's declaration: two *input* regions over the same
    parameter and one *output* region on the destination.
    """

    left = data[i1 : j1 + 1]
    right = data[i2 : j2 + 1]
    merged = np.empty(len(left) + len(right), dtype=data.dtype)
    li = ri = wi = 0
    # numpy-assisted merge: bulk-copy runs selected by searchsorted.
    positions = np.searchsorted(left, right, side="right")
    prev = 0
    for ri, pos in enumerate(positions):
        if pos > prev:
            merged[wi : wi + (pos - prev)] = left[prev:pos]
            wi += pos - prev
            prev = pos
        merged[wi] = right[ri]
        wi += 1
    if prev < len(left):
        merged[wi:] = left[prev:]
    dest[i1 : j2 + 1] = merged


# ---------------------------------------------------------------------------
# N Queens tasks (section VI.E)
# ---------------------------------------------------------------------------

@css_task("inout(a) input(j, col)")
def place_t(a, j, col):
    """Place a queen: write ``a[j] = col``.

    Successive sibling placements on the same array are WAR hazards
    against still-pending solver tasks; the runtime renames the array
    "as needed", which is exactly the hand-duplication OpenMP 3.0 and
    Cilk require (section VI.E).
    """

    a[j] = col


@css_task("input(n, j, a) inout(result)")
def nqueens_task(n, j, a, result):
    """Count completions of partial solution ``a[0..j-1]``.

    Explores the remaining ``n - j`` levels sequentially (the paper's
    "last 4 levels ... handled by tasks").  ``result[0]`` accumulates
    solutions, ``result[1]`` the number of nodes visited (used by the
    simulator's cost model).
    """

    solutions, nodes = count_completions_cached(
        int(n), int(j), tuple(int(x) for x in a[:j])
    )
    result[0] += solutions
    result[1] += nodes


#: Memo for sub-search results: repeated simulations of the same board
#: (benchmark thread sweeps) pay the search once.
_completions_cache: dict[tuple, tuple[int, int]] = {}


def count_completions_cached(n: int, j: int, placed: tuple[int, ...]) -> tuple[int, int]:
    key = (n, j, placed)
    hit = _completions_cache.get(key)
    if hit is None:
        hit = _count_completions(n, j, list(placed))
        _completions_cache[key] = hit
    return hit


def _legal(placed: list[int], col: int) -> bool:
    row = len(placed)
    for r, c in enumerate(placed):
        if c == col or abs(col - c) == row - r:
            return False
    return True


def _count_completions(n: int, j: int, placed: list[int]) -> tuple[int, int]:
    if j == n:
        return 1, 1
    solutions = 0
    nodes = 1
    for col in range(n):
        if _legal(placed, col):
            placed.append(col)
            sub_solutions, sub_nodes = _count_completions(n, j + 1, placed)
            solutions += sub_solutions
            nodes += sub_nodes
            placed.pop()
    return solutions, nodes

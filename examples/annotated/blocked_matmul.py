"""A plain sequential program annotated only with #pragma css comments.

This file contains NO imports from repro and runs unmodified as
ordinary Python (the pragmas are comments).  Passed through the
source-to-source translator it becomes a parallel SMPSs program —
the paper's dual-compilation property, at the source level.

    python examples/annotated/blocked_matmul.py          # sequential
    python examples/compiled_program.py                  # translated + parallel
    python -m repro compile examples/annotated/blocked_matmul.py  # view output
"""

import numpy as np


#pragma css task input(a, b) inout(c)
def sgemm_t(a, b, c):
    c += a @ b


#pragma css task output(block) input(value)
def fill_t(block, value):
    block[...] = value


def build(n, m, value):
    grid = [[np.empty((m, m)) for _ in range(n)] for _ in range(n)]
    for row in grid:
        for block in row:
            fill_t(block, value)
    return grid


def multiply(a, b, c, n):
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sgemm_t(a[i][k], b[k][j], c[i][j])
    #pragma css barrier


def main(n=4, m=16):
    a = build(n, m, 1.0)
    b = build(n, m, 2.0)
    c = build(n, m, 0.0)
    multiply(a, b, c, n)
    total = sum(block.sum() for row in c for block in row)
    expected = n * m * 2.0 * (n * m) * (n * m)
    print(f"checksum {total:.0f} (expected {expected:.0f})")
    assert total == expected


if __name__ == "__main__":
    main()

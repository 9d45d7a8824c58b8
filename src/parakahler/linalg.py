"""Linear algebra: exact for small semispray solves, on floats for the rest.

Exact algebra over Expression matrices is Laplace expansion only,
intended for matrices up to 4x4 (charts with 2n <= 4).  Every float
solve is elimination_function(dim), one generated partial-pivot
elimination per dimension: the semispray's per-point solve for 2n > 4
and the symplectic Euler step's Newton solve at every n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .expr import Expression, Product, Quotient, Sum, as_expression, generated_function, simplify

MAX_SYMBOLIC_DIM = 4


def _check_square(m) -> int:
    size = len(m)
    if size == 0 or any(len(row) != size for row in m):
        raise ValueError("matrix must be square and non-empty")
    if size > MAX_SYMBOLIC_DIM:
        raise ValueError(f"symbolic expansion limited to {MAX_SYMBOLIC_DIM}x{MAX_SYMBOLIC_DIM}")
    return size


def _minor(m, row: int, col: int):
    return tuple(tuple(e for c, e in enumerate(r) if c != col)
                 for i, r in enumerate(m) if i != row)


def _det(m, memo: dict) -> Expression:
    """Laplace expansion along the first row.

    memo, keyed by the ids of a minor's entries, gives a minor met again as
    the same object, so simplify's per-node memo serves it once.
    """
    size = len(m)
    if size == 1:
        return m[0][0]
    key = tuple(id(e) for row in m for e in row)
    if key not in memo:
        terms = []
        for col in range(size):
            term = Product((m[0][col], _det(_minor(m, 0, col), memo)))
            terms.append(term if col % 2 == 0 else -term)
        memo[key] = Sum(tuple(terms))
    return memo[key]


def determinant(m) -> Expression:
    """Determinant by Laplace expansion, simplified."""
    _check_square(m)
    return simplify(_det(m, {}))


def cramer_solve(m, rhs):
    """Solve m @ z = rhs symbolically via Cramer's rule.

    Returns simplified Quotient components; the caller is responsible for
    checking that the determinant does not vanish identically.
    """
    size = _check_square(m)
    if len(rhs) != size:
        raise ValueError("right-hand side length must match matrix size")
    rhs = tuple(as_expression(b) for b in rhs)
    memo = {}   # the 1 + size expansions share their minors
    det = simplify(_det(m, memo))
    solution = []
    for col in range(size):
        replaced = tuple(tuple(rhs[i] if c == col else m[i][c] for c in range(size))
                         for i in range(size))
        solution.append(simplify(Quotient(simplify(_det(replaced, memo)), det)))
    return tuple(solution)


@lru_cache(maxsize=16)   # one per dimension
def elimination_function(dim: int) -> Callable:
    """solve(a0_0, a0_1, .., a<dim-1>_<dim-1>, b0, .., b<dim-1>): x with a x = b.

    Generated for dim: the matrix entries, row by row, and then the
    right-hand side are scalar locals.  Gaussian elimination with partial
    pivoting and LAPACK's tie rule (the first row with the largest
    |entry| swaps with the pivot row), multipliers entry * (1/pivot), a
    row update skipped when its multiplier is 0, and back substitution
    dividing by each pivot.  Partial-pivot elimination is backward stable
    whatever its operation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 9.3), so this agrees with
    numpy.linalg.solve to rounding, not to the bit.  An exact zero pivot
    means a singular matrix and raises ZeroDivisionError.  A non-finite
    entry gives a non-finite component: nan and inf spread through the
    updates and the back substitution, and a pivot of inf, whose
    reciprocal 0 would hide it, makes every component nan.
    """
    a = [[f"a{i}_{j}" for j in range(dim)] for i in range(dim)]
    b = [f"b{i}" for i in range(dim)]
    lines = [f"def solve({', '.join([e for row in a for e in row] + b)}):"]
    for k in range(dim):
        if k < dim - 1:   # a pivot row p > k swaps with row k, the columns from k on
            lines += [f"    m = abs({a[k][k]})", "    p = 0"]
            for i in range(k + 1, dim):
                lines += [f"    t = abs({a[i][k]})", "    if t > m:", f"        m, p = t, {i}"]
            for i in range(k + 1, dim):
                rows = ([*a[k][k:], b[k], *a[i][k:], b[i]], [*a[i][k:], b[i], *a[k][k:], b[k]])
                lines += [f"    {'if' if i == k + 1 else 'elif'} p == {i}:",
                          f"        {', '.join(rows[0])} = {', '.join(rows[1])}"]
        lines.append(f"    v{k} = 1.0 / {a[k][k]}")
        for i in range(k + 1, dim):
            lines += [f"    f = {a[i][k]} * v{k}", "    if f:",
                      *(f"        {a[i][j]} = {a[i][j]} - f * {a[k][j]}" for j in range(k + 1, dim)),
                      f"        {b[i]} = {b[i]} - f * {b[k]}"]
    for k in range(dim - 1, -1, -1):
        terms = "".join(f" - {a[k][j]} * x{j}" for j in range(k + 1, dim))
        lines.append(f"    x{k} = ({b[k]}{terms}) / {a[k][k]}")
    lines += [f"    if {' and '.join(f'v{k}' for k in range(dim))}:",   # no pivot was inf
              f"        return [{', '.join(f'x{k}' for k in range(dim))}]",
              f"    return [{', '.join(['nan'] * dim)}]\n"]
    return generated_function("\n".join(lines), "<elimination>", {"nan": float("nan")})

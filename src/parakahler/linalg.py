"""Exact linear algebra over Expression matrices, sized for small charts.

Laplace expansion only; intended for matrices up to 4x4 (charts with
2n <= 4).  Larger systems are solved numerically per point elsewhere.
"""

from __future__ import annotations

from .expr import Expression, Product, Quotient, Sum, as_expression, simplify

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


def _det(m) -> Expression:
    size = len(m)
    if size == 1:
        return m[0][0]
    terms = []
    for col in range(size):
        cofactor = _det(_minor(m, 0, col))
        term = Product((m[0][col], cofactor))
        terms.append(term if col % 2 == 0 else -term)
    return Sum(tuple(terms))


def determinant(m) -> Expression:
    """Determinant by Laplace expansion, simplified."""
    _check_square(m)
    return simplify(_det(m))


def adjugate(m):
    """Adjugate matrix: adj(m)[i][j] is the (j,i) cofactor."""
    size = _check_square(m)
    if size == 1:
        from .expr import ONE
        return ((ONE,),)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            cof = simplify(_det(_minor(m, j, i)))
            row.append(cof if (i + j) % 2 == 0 else simplify(-cof))
        rows.append(tuple(row))
    return tuple(rows)


def cramer_solve(m, rhs):
    """Solve m @ z = rhs symbolically via Cramer's rule.

    Returns simplified Quotient components; the caller is responsible for
    checking that the determinant does not vanish identically.
    """
    size = _check_square(m)
    if len(rhs) != size:
        raise ValueError("right-hand side length must match matrix size")
    rhs = tuple(as_expression(b) for b in rhs)
    det = determinant(m)
    solution = []
    for col in range(size):
        replaced = tuple(tuple(rhs[i] if c == col else m[i][c] for c in range(size))
                         for i in range(size))
        solution.append(simplify(Quotient(determinant(replaced), det)))
    return tuple(solution)

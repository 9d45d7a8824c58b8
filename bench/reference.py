"""Independent references for the benchmark's output checks.

Nothing here calls into parakahler.  Expressions arrive as strings in the
package's input grammar (the generated sources, or the strings the CLI
reports) and are compiled to plain Python functions, so derivatives come
from central finite differences and trajectories from closed forms, not
from the symbolic kernel under test.
"""

from __future__ import annotations

import math

import numpy as np

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "ln": math.log, "sinh": math.sinh, "cosh": math.cosh}

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def chart_names(n: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


def compile_source(source: str, n: int):
    """Python function of the 2n chart coordinates, from grammar source.

    The grammar's `^` binds like Python's `**` (tighter than unary minus,
    right-associative), so the translation is a token rename.
    """
    args = ",".join(chart_names(n))
    return eval(f"lambda {args}: {source.replace('^', '**')}", dict(_NAMESPACE))


def gradient(f, p) -> np.ndarray:
    p = np.asarray(p, float)
    out = np.empty(p.size)
    for a in range(p.size):
        e = np.zeros(p.size)
        e[a] = FD_GRAD_STEP
        out[a] = (f(*(p + e)) - f(*(p - e))) / (2.0 * FD_GRAD_STEP)
    return out


def hessian(f, p) -> np.ndarray:
    p = np.asarray(p, float)
    dim = p.size
    h = FD_HESS_STEP
    out = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            ea = np.zeros(dim)
            eb = np.zeros(dim)
            ea[a] = h
            eb[b] = h
            v = (f(*(p + ea + eb)) - f(*(p + ea - eb))
                 - f(*(p - ea + eb)) + f(*(p - ea - eb))) / (4.0 * h * h)
            out[a, b] = out[b, a] = v
    return out


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, rtol: float, what: str):
    """|actual - expected| <= rtol * (1 + |expected|), elementwise."""
    actual = np.asarray(actual, float)
    expected = np.asarray(expected, float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected) / (1.0 + np.abs(expected))
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= rtol:
        raise CheckFailed(f"{what}: relative error {worst:.3e} exceeds {rtol:.1e}")


def semispray_residual(lagrangian, n: int, p, flow) -> float:
    """Scaled residual of Hess(L) (X, Y) = (dL/dx, -dL/dy) at p.

    flow is the derived right-hand side (X, Y) at p; the Hessian and the
    gradient come from finite differences of the Lagrangian.
    """
    hess = hessian(lagrangian, p)
    grad = gradient(lagrangian, p)
    rhs = np.concatenate([grad[:n], -grad[n:]])
    lhs = hess @ np.asarray(flow, float)
    scale = 1.0 + float(np.max(np.abs(hess) @ np.abs(flow))) + float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))) / scale


def christoffel(metric_at, p, h: float = 1e-4) -> np.ndarray:
    """Gamma[a, b, c] = Gamma^a_bc from central differences of the metric.

    Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_bd - d_d g_bc).
    """
    p = np.asarray(p, float)
    dim = p.size
    dg = np.empty((dim, dim, dim))          # dg[a, i, j] = d_a g_ij
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        dg[a] = (metric_at(p + e) - metric_at(p - e)) / (2.0 * h)
    T = dg.transpose(1, 0, 2) + dg.transpose(2, 1, 0) - dg      # T[d, b, c]
    return 0.5 * np.einsum("ad,dbc->abc", np.linalg.inv(metric_at(p)), T)


def riemann(metric_at, p, h: float = 1e-3) -> np.ndarray:
    """R[a, b, c, d] = R^e_abc g_ed by central differences of Christoffel symbols.

    R^e_abc = d_a Gamma^e_bc - d_b Gamma^e_ac + Gamma^e_ad Gamma^d_bc
    - Gamma^e_bd Gamma^d_ac.
    """
    p = np.asarray(p, float)
    dim = p.size
    G = christoffel(metric_at, p)
    dG = np.empty((dim,) * 4)               # dG[a, e, b, c] = d_a Gamma^e_bc
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        dG[a] = (christoffel(metric_at, p + e) - christoffel(metric_at, p - e)) / (2.0 * h)
    upper = (dG.transpose(1, 0, 2, 3) - dG.transpose(1, 2, 0, 3)
             + np.einsum("ead,dbc->eabc", G, G) - np.einsum("ebd,dac->eabc", G, G))
    return np.einsum("eabc,ed->abcd", upper, metric_at(p))


def hamiltonian_flow(hamiltonian, n: int, p) -> np.ndarray:
    """(dH/dy, -dH/dx) at p by finite differences."""
    grad = gradient(hamiltonian, p)
    return np.concatenate([grad[n:], -grad[:n]])


def bilinear_flow(state0, times) -> np.ndarray:
    """Closed-form Euler-Lagrange flow of c*x1*y1: (x0 e^-t, y0 e^t)."""
    t = np.asarray(times, float) - float(times[0])
    return np.column_stack([state0[0] * np.exp(-t), state0[1] * np.exp(t)])


def oscillator_symplectic_euler(w: float, state0, h: float, steps: int) -> np.ndarray:
    """Symplectic Euler on H = (y^2 + w x^2)/2, as the explicit linear map.

    H_x = w x does not depend on y, so the implicit substep is explicit:
    y' = y - h w x, x' = x + h y'.
    """
    x, y = float(state0[0]), float(state0[1])
    out = np.empty((steps + 1, 2))
    out[0] = x, y
    for k in range(steps):
        y = y - h * w * x
        x = x + h * y
        out[k + 1] = x, y
    return out


def read_csv(path: str):
    """Header names and the float rows of a trajectory CSV."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, rows

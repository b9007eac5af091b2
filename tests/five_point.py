"""Physical-space references for the sine-coordinate solvers: the five-point
operator as a scipy sparse matrix, the Dirichlet lift by scatter and
neighbour sum, and Newton with Poisson-preconditioned CG on the stencil.
Also exact references for the in-place kernels: CG with a new array at
every update, the stencil by 2-D slices, the rank-4 lift from edge strips
cut by 2-D slices, the linear solve that always transforms its lift, and
Newton with a new array at every step."""

import numpy as np
import scipy.sparse as sp

from semidtn import forward_solver
from semidtn.forward_solver import (LINEAR_TOL, SolveReport, harmonic_extension,
                                    semilinear_residual)
from semidtn.geometry import check_field, check_trace, trace_to_field
from semidtn.sparse_linalg import SolverError, _Fold, _kernel, _sine_modes, from_sine, to_sine


def sine_basis(g):
    """Orthonormal sine matrix of the interior nodes and the eigenvalues of
    -Lap_h in it, (n-1, n-1), built here from their closed forms."""
    k = np.arange(1, g.n)
    sine = np.sqrt(2.0 / g.n) * np.sin(np.pi * np.outer(k, k) / g.n)
    eig = (2.0 * np.sin(0.5 * np.pi * k / g.n) / g.h) ** 2
    return sine, eig[:, None] + eig[None, :]


def five_point_operator(c_int, g):
    """-Lap_h + diag(c) on interior nodes as a Kronecker sum, in compressed-row
    storage with sorted column indices; ``c_int`` holds interior values."""
    m = g.n - 1
    second = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    laplacian = (sp.kron(sp.identity(m), second) + sp.kron(second, sp.identity(m))) / g.h ** 2
    return sp.csr_matrix(laplacian + sp.diags(np.ravel(c_int))).sorted_indices()


def poisson_solve(b, g):
    """(-Lap_h)^-1 b for flat interior values b, by four dense sine products."""
    sine, eig = sine_basis(g)
    m = g.n - 1
    return (sine @ ((sine @ b.reshape(m, m) @ sine) / eig) @ sine).ravel()


def lift_rhs(f, g):
    """The interior right-hand side that boundary data f gives -Lap_h: the
    trace scattered onto the nodes, summed over each interior node's four
    neighbours, over h^2; (n-1, n-1)."""
    a = trace_to_field(f, g).reshape(g.n + 1, g.n + 1)
    return (a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]) / g.h ** 2


def harmonic_reference(f, g):
    """Discrete harmonic field with trace f, through the dense lift."""
    u = trace_to_field(f, g)
    u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1] = \
        poisson_solve(lift_rhs(f, g).ravel(), g).reshape(g.n - 1, g.n - 1)
    return u


def pcg_newton(P, f, g, newton_tol=1e-11, max_newton=25):
    """Newton for -Lap u + V(x,u) = 0, u = f on the boundary, from the
    harmonic extension, each step by CG on the five-point Jacobian
    preconditioned by the Poisson solve; returns u and the step count."""
    u = harmonic_reference(f, g)
    inner = u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]
    for it in range(max_newton + 1):
        res = semilinear_residual(P, u, g)
        if g.h * np.linalg.norm(res) <= newton_tol:
            return u, it
        jacobian = five_point_operator(P.interior_slope(inner), g)
        inner += allocating_cg(lambda x: jacobian @ x, -res, lambda r: poisson_solve(r, g),
                               tol=LINEAR_TOL).reshape(inner.shape)
    raise AssertionError("reference Newton did not converge")


def allocating_cg(A, b, precondition=None, tol=1e-10, callback=None):
    """``solve_spd``'s conjugate gradient with every update making a new
    array and the stop test taking norm(r): without ``precondition``, the
    same operations in the same order as the in-place loop, which must match
    it bit for bit. ``precondition(r)`` applies M^-1 for a symmetric positive
    definite M, as the physical-space Newton reference needs."""
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(b.size)
    x = np.zeros(b.size)
    r = b
    z = r if precondition is None else precondition(r)
    p = z
    rz = r @ z
    max_iter = 10 * b.size
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator not positive definite")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = r if precondition is None else precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        if callback is not None:
            callback(x)
    if np.linalg.norm(A(x) - b) <= tol * norm_b:
        return x
    raise SolverError("CG did not converge")


def slice_stencil(u, g):
    """(-Lap_h u) on interior nodes by 2-D slices of the nodal array,
    neighbours subtracted below, above, left, right; flat."""
    u2 = u.reshape(g.n + 1, g.n + 1)
    lap = 4.0 * u2[1:-1, 1:-1]
    lap -= u2[:-2, 1:-1]
    lap -= u2[2:, 1:-1]
    lap -= u2[1:-1, :-2]
    lap -= u2[1:-1, 2:]
    lap /= g.h * g.h
    return lap.ravel()


def slice_lift(u2, g):
    """S B S for the right-hand side B that the boundary values of the
    (n+1, n+1) field u2 give the interior equations, as a rank-4 product:
    the bottom, top, left and right edge strips cut by 2-D slices, over h^2,
    transformed by S, and spread by the first and last columns of S."""
    sine, _ = sine_basis(g)
    strips = np.stack([u2[0, 1:-1], u2[-1, 1:-1], u2[1:-1, 0], u2[1:-1, -1]], axis=1)
    strips /= g.h * g.h
    hat = sine @ strips
    edges = sine[:, [0, -1]]
    return edges @ hat[:, :2].T + hat[:, 2:] @ edges.T


def lifted_solve(src, f, g):
    """-Lap_h v = src with v = f on the boundary, always transforming the
    lift of f by ``slice_lift``, then adding the source's transform."""
    sine, eig = sine_basis(g)
    v = trace_to_field(f, g)
    v2 = v.reshape(g.n + 1, g.n + 1)
    hat = slice_lift(v2, g)
    hat += sine @ check_field(src, g).reshape(v2.shape)[1:-1, 1:-1] @ sine
    hat *= 1.0 / eig
    v2[1:-1, 1:-1] = sine @ hat @ sine
    return v


def allocating_newton(P, f, g):
    """``solve_semilinear``'s Newton loop with a new array at every update:
    the residual from the 2-D-slice stencil, the sine-coordinate Jacobian
    applied by transforms that each make a new array (dense products of its
    own below FOLD_MIN_N, the grid's folded kernel from there up, as
    ``to_sine`` hands it folded coordinates), and ``allocating_cg``. The
    same operations in the same order as the loop with work arrays, which
    must match it bit for bit; returns u and its SolveReport. Only for data
    that converge: it has no divergence test."""
    f = check_trace(f, g)
    kernel = _kernel(g)
    fold = kernel if isinstance(kernel, _Fold) else None
    sine, _, scale = _sine_modes(g.n)
    if fold is not None:
        scale = fold.scale
    m = g.n - 1

    def residual(u):
        interior = u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]
        return slice_stencil(u, g) + P.interior_value(interior).ravel()

    def jacobian(c):
        c = c.reshape(m, m)

        def apply(y):
            y = y.reshape(m, m)
            if fold is None:
                w = sine @ (scale * y) @ sine
                w *= c
                w = sine @ w @ sine
            else:
                w = fold.inverse(scale * y, np.empty((m, m)))
                w *= c
                w = fold.forward(w, np.empty((m, m)))
            w *= scale
            w += y
            return w.ravel()

        return apply

    u = harmonic_extension(f, g)
    inner = u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]
    res = residual(u)
    history = [float(g.h * np.linalg.norm(res))]
    for it in range(forward_solver.DEFAULT_MAX_NEWTON + 1):
        if history[-1] <= forward_solver.DEFAULT_NEWTON_TOL:
            return u, SolveReport(it, history[-1], float(np.max(np.abs(f))),
                                  float(np.max(np.abs(u))), True, tuple(history))
        A = jacobian(P.interior_slope(inner))
        inner -= from_sine(allocating_cg(A, to_sine(res, g), tol=LINEAR_TOL), g)
        res = residual(u)
        history.append(float(g.h * np.linalg.norm(res)))
    raise AssertionError("reference Newton did not converge")

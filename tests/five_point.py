"""Physical-space references for the sine-coordinate solvers: the five-point
operator as a scipy sparse matrix, the Dirichlet lift by scatter and
neighbour sum, and Newton with Poisson-preconditioned CG on the stencil.
Also exact references for the in-place kernels: CG with a new array at
every update, the stencil and the semilinear residual by 2-D slices, the
rank-4 lift from edge strips cut by 2-D slices, the linear solve that always
transforms its lift, Newton with a new array at every step, and the node
values of scaled sine coordinates (``from_sine``). And the
Jacobian certificate: the analytic Jacobian against finite differences of
that residual. And the L-curve by one Tikhonov solve per weight, against
which the closed form of ``lcurve_weight`` is checked."""

import numpy as np
import scipy.sparse as sp

from semidtn import forward_solver
from semidtn.forward_solver import LINEAR_TOL, SolveReport, harmonic_extension
from semidtn.geometry import check_field, check_trace, trace_to_field
from semidtn.reconstruction import LCURVE_WEIGHTS, _tikhonov
from semidtn.sparse_linalg import SolverError, _Fold, _kernel


def sine_basis(g):
    """Orthonormal sine matrix of the interior nodes and the eigenvalues of
    -Lap_h in it, (n-1, n-1), built here from their closed forms."""
    k = np.arange(1, g.n)
    sine = np.sqrt(2.0 / g.n) * np.sin(np.pi * np.outer(k, k) / g.n)
    eig = (2.0 * np.sin(0.5 * np.pi * k / g.n) / g.h) ** 2
    return sine, eig[:, None] + eig[None, :]


def from_sine(y, g):
    """S (Lam^(-1/2) o y) S: the interior values, (n-1, n-1), of flat scaled
    sine coordinates y in the grid's kernel's mode order, by the kernel's
    own inverse transform; from_sine(to_sine(r)) = (-Lap_h)^-1 r."""
    kernel, m = _kernel(g.n), g.n - 1
    return kernel.inverse(kernel.scale * y.reshape(m, m), np.empty((m, m)))


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
        res = residual(P, u, g)
        if g.h * np.linalg.norm(res) <= newton_tol:
            return u, it
        jacobian = five_point_operator(P.interior_slope(inner), g)
        inner += allocating_cg(lambda x: jacobian @ x, -res, lambda r: poisson_solve(r, g),
                               tol=LINEAR_TOL).reshape(inner.shape)
    raise AssertionError("reference Newton did not converge")


def allocating_cg(A, b, precondition=None, tol=1e-10, callback=None, bound=None):
    """``solve_spd``'s conjugate gradient with every update making a new
    array and the stop test taking norm(r): without ``precondition``, the
    same operations in the same order as the in-place loop, which must match
    it bit for bit, with or without ``bound``: given beta >= ||A - I||, it
    also stops once beta norm(r) <= tol norm(b) and returns x + r.
    ``precondition(r)`` applies M^-1 for a symmetric positive definite M,
    as the physical-space Newton reference needs."""
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    x = np.zeros(b.size)
    if norm_b <= tol * norm_b:
        return x
    r = b
    z = r if precondition is None else precondition(r)
    p = z
    rz = r @ z
    for _ in range(10 * b.size):
        Ap = A(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator not positive definite")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if callback is not None:
            callback(x)
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        if bound is not None and bound * np.linalg.norm(r) <= tol * norm_b:
            return x + r
        z = r if precondition is None else precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
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


def residual(P, u, g):
    """-Lap_h u + V(x,u) on interior nodes, flat, by ``slice_stencil``."""
    interior = u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]
    return slice_stencil(u, g) + P.interior_value(interior).ravel()


def jacobian_check(P, u, g, relative=False, n_directions=10, tau=1e-4, seed=0):
    """Certify the analytic Jacobian -Lap_h + dV/dz at u against finite
    differences of ``residual``.

    Default mode returns the worst Taylor-remainder curvature
    max ||R(u + tau d) - R(u) - tau J d||_inf / tau^2 over unit max-norm
    interior directions d (bounded by half the second z-derivative of V).
    ``relative`` instead returns the worst relative gap between the
    divided difference (R(u + tau d) - R(u)) / tau and J d."""
    u = check_field(u, g)
    rng = np.random.default_rng(seed)
    res0 = residual(P, u, g)
    slope = P.interior_slope(u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]).ravel()
    worst = 0.0
    for _ in range(n_directions):
        d_int = rng.uniform(-1.0, 1.0, (g.n - 1) ** 2)
        d_int /= np.max(np.abs(d_int))
        d = np.zeros((g.n + 1, g.n + 1))
        d[1:-1, 1:-1] = d_int.reshape(g.n - 1, g.n - 1)
        d = d.ravel()
        jd = slice_stencil(d, g) + slope * d_int
        res1 = residual(P, u + tau * d, g)
        if relative:
            gap = np.max(np.abs((res1 - res0) / tau - jd)) / max(np.max(np.abs(jd)), 1e-300)
        else:
            gap = np.max(np.abs(res1 - res0 - tau * jd)) / (tau * tau)
        worst = max(worst, float(gap))
    return worst


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


def allocating_newton(P, f, g, kernel=None):
    """``solve_semilinear``'s Newton loop with a new array at every update:
    the residual from the 2-D-slice stencil, the sine-coordinate right-hand
    side, step and Jacobian by transforms that each make a new array (dense
    products of its own with a dense kernel's S, a folded kernel's own
    methods, as they read folded coordinates), and ``allocating_cg`` told
    the Jacobian's bound max|c| max(scale)^2, whose step in sine
    coordinates one closing inverse transform takes to node values: six
    transforms per step with two CG iterations. ``kernel`` is the grid's
    (``_kernel``) unless given. With the grid's kernel, the same operations
    in the same order as the loop with work arrays, which must match it bit
    for bit; returns u and its SolveReport.
    Only for data that converge: it has no divergence test."""
    f = check_trace(f, g)
    kernel = _kernel(g.n) if kernel is None else kernel
    scale, m = kernel.scale, g.n - 1

    if isinstance(kernel, _Fold):
        def forward(x):
            return kernel.forward(x, np.empty((m, m)))

        def inverse(y):
            return kernel.inverse(y, np.empty((m, m)))
    else:
        def forward(x):
            return kernel.sine @ x @ kernel.sine

        inverse = forward

    def to_sine(r):
        w = forward(r.reshape(m, m))
        w *= scale
        return w.ravel()

    def jacobian(c):
        c = c.reshape(m, m)

        def apply(y):
            return to_sine(inverse(scale * y.reshape(m, m)) * c) + y

        return apply, max(abs(c.min()), abs(c.max())) * np.max(scale) ** 2

    u = harmonic_extension(f, g)
    inner = u.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1]
    res = residual(P, u, g)
    history = [float(g.h * np.linalg.norm(res))]
    for it in range(forward_solver.DEFAULT_MAX_NEWTON + 1):
        if history[-1] <= forward_solver.DEFAULT_NEWTON_TOL:
            return u, SolveReport(it, history[-1], float(np.max(np.abs(f))), True,
                                  tuple(history))
        A, bound = jacobian(P.interior_slope(inner))
        step = allocating_cg(A, to_sine(res), tol=LINEAR_TOL, bound=bound)
        inner -= inverse(scale * step.reshape(m, m))
        res = residual(P, u, g)
        history.append(float(g.h * np.linalg.norm(res)))
    raise AssertionError("reference Newton did not converge")


def lcurve_reference(matrix, rhs, penalty):
    """``lcurve_weight`` with the curve traced by one stacked-QR Tikhonov
    solve (``_tikhonov``) per grid weight, each point's residual and penalty
    norms taken from its solution: the same grid, cut and curvature."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if not rhs.any():
        return float(sigma[0] ** 2)
    smallest = sigma[-1] if sigma.size == matrix.shape[1] else 0.0
    weights = sigma[0] ** 2 * LCURVE_WEIGHTS
    weights = weights[min(np.searchsorted(weights, smallest ** 2), weights.size - 3):]
    res, pen = [], []
    for lam in weights:
        c = _tikhonov(matrix, rhs, lam, penalty)
        res.append(np.linalg.norm(matrix @ c - rhs))
        pen.append(np.linalg.norm(penalty @ c))
    x, y = (np.log(np.maximum(v, np.finfo(float).tiny)) for v in (res, pen))
    t = np.log(weights)
    dx, dy = np.gradient(x, t), np.gradient(y, t)
    ddx, ddy = np.gradient(dx, t), np.gradient(dy, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = (dx * ddy - ddx * dy) / (dx * dx + dy * dy) ** 1.5
    return float(weights[1 + int(np.argmax(np.nan_to_num(curvature[1:-1], nan=-np.inf)))])

import inspect
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from five_point import lcurve_reference
from semidtn.dtn import dtn_apply, measurement, normal_derivative
from semidtn.forward_solver import harmonic_extension, solve_linear
from semidtn import linearization, reconstruction
from semidtn.geometry import arc_mask, full_mask, interior_integral, make_grid
from semidtn.harmonic import HarmonicMember, arc_supported_family
from semidtn.linearization import DirectionStore, measured_linearized_flux
from semidtn.potential import PotentialSeries, sample_expression
from semidtn.reconstruction import (ZERO_ROW, MomentSystem, _arc_readout, assemble_system,
                                    gradient_penalty, lcurve_weight, make_basis,
                                    measured_moment, reconstruct_all, rel_l2_error,
                                    solve_coefficients, solution_operator_norm)


def poisson_readout(source, g):
    """The normal derivative of the zero-boundary solution of -Lap_h w = source."""
    return normal_derivative(solve_linear(source, np.zeros(g.num_boundary), g), g)


def stage_errors(result, truth, g):
    """Each stage's relative L2 error against the truth, scored from the series."""
    return [rel_l2_error(result.series.coefficient(stage.m), truth.coefficient(stage.m), g)
            for stage in result.stages]


@pytest.fixture(scope="module")
def setup32():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 8, g)
    basis = make_basis(4, g)
    return g, mask, fam, basis


# ---------- basis ----------

def test_basis_partition_of_unity():
    g = make_grid(32)
    for nb in (4, 6):
        basis = make_basis(nb, g)
        total = basis.fields.sum(axis=1)
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_basis_size_and_synthesis():
    g = make_grid(16)
    basis = make_basis(3, g)
    assert basis.size == 9
    c = np.zeros(9)
    c[4] = 2.0  # center hat
    field = basis.synthesize(c)
    x, y = g.node_coords()
    center = np.argmin((x - 0.5) ** 2 + (y - 0.5) ** 2)
    assert field[center] == pytest.approx(2.0)


def test_gradient_penalty_shape_and_nullspace():
    L = gradient_penalty(4)
    assert L.shape == (2 * 4 * 3, 16)
    assert np.allclose(L @ np.ones(16), 0.0)  # constants are penalty-free
    # the Kronecker form against an explicit loop: the x difference of each
    # row of nodes (node (i, j) is column j * nb + i), then the y ones
    for nb in range(2, 13):
        rows = []
        for j in range(nb):
            for i in range(nb - 1):
                rows.append(np.zeros(nb * nb))
                rows[-1][[j * nb + i, j * nb + i + 1]] = (-1.0, 1.0)
        for j in range(nb - 1):
            for i in range(nb):
                rows.append(np.zeros(nb * nb))
                rows[-1][[j * nb + i, (j + 1) * nb + i]] = (-1.0, 1.0)
        assert np.array_equal(gradient_penalty(nb), np.array(rows))


# ---------- measured moments ----------

def test_moment_zero_coefficient(setup32):
    g, mask, fam, _ = setup32
    P = PotentialSeries.zero(g)
    val = measured_moment(measurement(P, mask, g), [fam[0], fam[1], fam[2]],
                          1e-2, mask, g)
    assert abs(val) <= 1e-7


def test_moment_matches_direct_quadrature(setup32):
    # the module's core identity: the measured moment equals the interior
    # integral of (coefficient * product of members) up to O(h^2 + eps^2)
    g, mask, fam, _ = setup32
    x, y = g.node_coords()
    q = 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
    P = PotentialSeries.from_coefficients(g, {2: q})
    members = [fam[0], fam[3], fam[5]]
    eps = 1e-2
    val = measured_moment(measurement(P, mask, g), members, eps, mask, g)
    prod = q.copy()
    for mem in members:
        prod = prod * mem.field
    expected = interior_integral(prod, g)
    tol = 5.0 * (g.h ** 2 + eps ** 2) * np.max(np.abs(q)) \
        * np.prod([np.max(np.abs(m.field)) for m in members])
    assert abs(val - expected) <= tol


def test_moment_lower_order_correction_matters(setup32):
    # at order 3 the known quadratic coefficient feeds a source correction;
    # omitting it (no known series) shifts the moment by exactly the interior
    # integral of that source against the last member
    g, mask, fam, _ = setup32
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(
        g, {2: 2.0 + x, 3: sample_expression("sin(pi*x)*sin(pi*y)", g)})
    members = [fam[0], fam[2], fam[4], fam[6]]
    with_corr = measured_moment(measurement(P, mask, g), members, 1e-2, mask, g, known=P)
    without = measured_moment(measurement(P, mask, g), members, 1e-2, mask, g, known=None)
    prod = P.coefficient(3).copy()
    for mem in members:
        prod = prod * mem.field
    expected = interior_integral(prod, g)
    assert abs(with_corr - expected) < abs(without - expected)
    # the correction itself is the documented cascade integral
    from semidtn.linearization import nonlinearity_derivative, run_cascade
    low = PotentialSeries.from_coefficients(g, {2: P.coefficient(2)})
    state = run_cascade(low, [m.trace for m in members[:3]], g)
    source = nonlinearity_derivative(low, range(3), state.derivs)
    assert without - with_corr == pytest.approx(
        interior_integral(source * members[3].field, g), rel=1e-10)


def test_moment_rejects_unsupported_tuple(setup32):
    g, mask, fam, _ = setup32
    from semidtn.dtn import SupportError, bump_trace
    from semidtn.harmonic import HarmonicMember
    bad_trace = bump_trace(g, 3.0, 0.3, 1.0)  # lives outside the arc
    bad = HarmonicMember(np.ones(g.num_nodes), bad_trace, "outsider")
    P = PotentialSeries.zero(g)
    with pytest.raises(SupportError):
        measured_moment(measurement(P, mask, g), [fam[0], fam[1], bad], 1e-2, mask, g)


def test_moment_needs_three_members(setup32):
    g, mask, fam, _ = setup32
    with pytest.raises(ValueError):
        measured_moment(measurement(PotentialSeries.zero(g), mask, g),
                        [fam[0], fam[1]], 1e-2, mask, g)


# ---------- system assembly ----------

def test_assemble_dimensions():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 6, g)
    basis = make_basis(2, g)
    P = PotentialSeries.zero(g)
    directions = DirectionStore(measurement(P, mask, g), fam, 1e-2, mask, g)
    system = assemble_system(2, basis, directions, None, heads=3, seed=0, lam=None)
    assert len(system.heads) == 3
    assert len(set(system.heads)) == 3  # deduplicated
    assert system.rows == 3 * (mask.flags.sum() - 2)  # the two corners are not read out
    assert system.matrix.shape == (5, 4)  # the folded factor
    assert system.rhs.shape == (5,)


def test_assemble_collapses_when_only_one_tuple_exists():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam_all = arc_supported_family(mask, 1, g)
    basis = make_basis(2, g)
    P = PotentialSeries.zero(g)
    directions = DirectionStore(measurement(P, mask, g), fam_all, 1e-2, mask, g)
    system = assemble_system(2, basis, directions, None, heads=12, seed=0, lam=None)
    assert system.heads == ((0, 0),)
    assert system.rows == mask.flags.sum() - 2


@pytest.mark.parametrize("size, m", [(12, 4), (13, 3)])
def test_heads_are_a_seeded_permutation_of_the_multiset_pool(size, m):
    # a stage's heads are the first `heads` entries of one seeded
    # permutation of all sorted m-multisets (1365 and 455 here), so each is
    # equally likely
    g = make_grid(16)
    mask = full_mask(g)
    fam = arc_supported_family(mask, size, g)
    directions = DirectionStore(lambda trace: np.zeros(g.num_boundary), fam, 1e-2, mask, g)
    system = assemble_system(m, make_basis(2, g), directions, None, heads=108, seed=m,
                             lam=None)
    pool = list(combinations_with_replacement(range(size), m))
    order = np.random.default_rng(m).permutation(len(pool))[:108]
    assert system.heads == tuple(pool[k] for k in order)


def test_assemble_drops_zero_product_rows():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 4, g)
    from semidtn.harmonic import HarmonicMember
    zero = HarmonicMember(np.zeros(g.num_nodes), np.zeros(g.num_boundary), "zero")
    fam_degenerate = fam + (zero,)
    basis = make_basis(2, g)
    P = PotentialSeries.zero(g)
    directions = DirectionStore(measurement(P, mask, g), fam_degenerate, 1e-2, mask, g)
    system = assemble_system(2, basis, directions, None, heads=15, seed=0,
                             lam=None)  # all 15 heads are drawn
    for head in system.heads:
        assert len(fam) not in head  # heads containing the zero member were dropped
    assert len(system.heads) == 10  # and only those


def test_stage_model_matches_measured_pairing():
    # a coefficient in the basis span: the stage's model pairing equals the
    # measured pairing on every arc node to divided-difference accuracy, while
    # the trapezoid rule for the continuum moment misses by ~1e-1 here
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 8, g)
    basis = make_basis(4, g)
    c = np.random.default_rng(0).uniform(0.5, 1.5, basis.size)
    truth = PotentialSeries.from_coefficients(g, {2: basis.synthesize(c)})
    measure = measurement(truth, mask, g)
    directions = DirectionStore(measure, fam, 1e-2, mask, g)
    system = assemble_system(2, basis, directions, None, heads=1, seed=0, lam=1.0)
    assert len(system.heads) == 1
    assert system.rows == mask.flags.sum() - 2  # the two corners are not read out
    gap = np.linalg.norm(system.matrix @ c - system.rhs) / np.linalg.norm(system.rhs)
    assert gap <= 1e-5

    head = system.heads[0]
    tests = np.eye(g.num_boundary)[mask.flags]  # unit trace of every arc node
    flux = measured_linearized_flux(measure, [fam[i].trace for i in head], 1e-2, mask, g)
    measured = g.h * tests @ flux
    prod = truth.coefficient(2) * fam[head[0]].field * fam[head[1]].field
    trapezoid = np.array([interior_integral(prod * harmonic_extension(t, g), g)
                          for t in tests])
    assert np.linalg.norm(trapezoid - measured) / np.linalg.norm(measured) > 1e-3


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("s0, s1", [(0.0, 2.0), (0.0, 4.0), (1.0, 2.0), (3.5, 4.5),
                                    (2.0, 3.0), (3.0, 4.0), (2.5, 3.5)])
def test_arc_readout_matches_poisson_solves(n, s0, s1):
    # the stage's read-out operator against one Poisson solve and read-out
    # per basis function, on two sides, the whole boundary, the right side,
    # an arc through s = 0 and the corner (0, 0), the top side and the left
    # side alone, which the walk runs against the axes, and an arc through
    # the corner (0, 1) between them: every row agrees to rounding,
    # the corners' rows are exactly zero in both, and the stage keeps the
    # rows the reference model would keep
    g = make_grid(n)
    mask = arc_mask(g, s0, s1)
    arc = np.flatnonzero(mask.flags)
    fam = arc_supported_family(mask, 6, g)

    def reference(prod, fields):
        return np.column_stack([poisson_readout(prod * b, g)[arc] for b in fields.T])

    def assert_agrees(model, ref):
        norms = np.linalg.norm(ref, axis=1)
        assert np.array_equal(model.any(axis=1), norms > 0.0)
        seen = norms > 0.0
        gap = np.linalg.norm(model - ref, axis=1)[seen] / norms[seen]
        assert gap.max() <= 1e-12

    corners = np.isin(g.boundary_nodes[arc], [0, g.n, g.num_nodes - 1, g.num_nodes - 1 - g.n])
    for head in ((0, 3), (1, 2, 5)):
        prod = np.prod([fam[i].field for i in head], axis=0)
        for nb in (3, 6):
            basis = make_basis(nb, g)
            ref = reference(prod, basis.fields)
            assert not ref[corners].any()
            readout = _arc_readout(g, basis.axis, arc)
            model = readout(prod)
            assert_agrees(model, ref)
            # each call returns a new array: the next call, which reuses the
            # stage's work array, leaves the first one as it was
            kept = model.copy()
            readout(2.0 * prod)
            assert np.array_equal(model, kept)
        # unit axis factors: the read-out of the field itself
        assert_agrees(_arc_readout(g, np.ones((n + 1, 1)), arc)(prod),
                      reference(prod, np.ones((g.num_nodes, 1))))

    basis = make_basis(3, g)
    P = PotentialSeries.zero(g)
    for m in (2, 3):
        directions = DirectionStore(measurement(P, mask, g), fam, 1e-2, mask, g)
        system = assemble_system(m, basis, directions, None, heads=2, seed=m, lam=1.0)
        expected = 0
        for head in system.heads:
            norms = np.linalg.norm(reference(np.prod([fam[i].field for i in head], axis=0),
                                             basis.fields), axis=1)
            expected += int(np.sum(norms > ZERO_ROW * norms.max()))
        assert system.rows == expected


@pytest.mark.parametrize("m, s1", [(4, 4.0), (3, 2.0)])
def test_stage_solves_each_lower_order_field_once(monkeypatch, m, s1):
    # the order-m stage's memo solves one cascade field per distinct member
    # sub-multiset of sizes 2..m-1 over its kept heads, fewer than the heads
    # would solve each on its own, and every head's lower-order source is
    # bit-identical to the one from a fresh memo keyed by slot positions
    g = make_grid(16)
    mask = arc_mask(g, 0.0, s1)
    known = PotentialSeries.from_coefficients(g, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", g)})
    low = reconstruction._truncated(known, m, g)
    fam = arc_supported_family(mask, 6, g)
    basis = make_basis(3, g)
    directions = DirectionStore(lambda trace: np.zeros(g.num_boundary), fam, 1e-2, mask, g)
    solve, source = linearization.solve_linear, reconstruction._lower_order_source
    solves, sources = [], []

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    def recording_source(low, S, fields, grid):
        sources.append((S, source(low, S, fields, grid)))
        return sources[-1][1]

    monkeypatch.setattr(linearization, "solve_linear", counting_solve)
    monkeypatch.setattr(reconstruction, "_lower_order_source", recording_source)
    system = assemble_system(m, basis, directions, known, heads=2 * basis.size, seed=m,
                             lam=None)
    assert any(len(set(head)) < m for head in system.heads)  # a repeated member
    keys = [{tuple(head[i] for i in positions) for size in range(2, m)
             for positions in combinations(range(m), size)} for head in system.heads]
    assert len(solves) == len(set().union(*keys)) < sum(map(len, keys))
    assert [S for S, _ in sources] == list(system.heads)
    for head, data in sources:
        fresh = {(i,): fam[label].field for i, label in enumerate(head)}
        assert np.array_equal(data, source(low, tuple(range(m)), fresh, g))


def test_assemble_system_leaves_the_family_untouched():
    # a stage forms each head's product in place, and the fields of the
    # family are read-only: after an order-4 stage with a lower-order
    # correction and repeated members, every field and trace is bit-identical
    g = make_grid(16)
    mask = full_mask(g)
    fam = arc_supported_family(mask, 6, g)
    before = [(m.field.copy(), m.trace.copy()) for m in fam]
    truth = PotentialSeries.from_coefficients(g, {2: sample_expression("1 + x", g),
                                                  4: sample_expression("1 + x*y", g)})
    known = PotentialSeries.from_coefficients(g, {2: truth.coefficient(2)})
    directions = DirectionStore(measurement(truth, mask, g), fam, 1e-2, mask, g)
    system = assemble_system(4, make_basis(3, g), directions, known, heads=12, seed=4,
                             lam=1.0)
    assert any(len(set(head)) < 4 for head in system.heads)
    for member, (field, trace) in zip(fam, before):
        assert np.array_equal(member.field, field)
        assert np.array_equal(member.trace, trace)


def test_folding_is_exact():
    # the folded factor has the Gram matrix of the equilibrated rows it
    # replaces, built here one by one from the polarized flux the stage
    # reads and the discrete Poisson solve and read-out, so the minimizer,
    # residual and solution operator are those of the stacked rows
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 6, g)
    basis = make_basis(3, g)
    truth = PotentialSeries.from_coefficients(g, {2: sample_expression("1 + x*y", g)})
    directions = DirectionStore(measurement(truth, mask, g), fam, 1e-2, mask, g)
    system = assemble_system(2, basis, directions, None, heads=3, seed=0, lam=1.0)
    assert len(system.heads) == 3
    arc = np.flatnonzero(mask.flags)
    blocks = []
    for head in system.heads:
        prod = fam[head[0]].field * fam[head[1]].field
        model = np.array([-g.h * poisson_readout(prod * b, g)[arc]
                          for b in basis.fields.T]).T
        norms = np.linalg.norm(model, axis=1)
        seen = norms > 0.0  # the corners are not read out
        blocks.append(np.column_stack([model, g.h * directions.flux(head)])[seen]
                      / norms[seen, None])
    stacked = np.vstack(blocks)
    assert stacked.shape[0] == system.rows
    folded = np.column_stack([system.matrix, system.rhs])
    gram = stacked.T @ stacked
    assert np.linalg.norm(folded.T @ folded - gram) <= 1e-12 * np.linalg.norm(gram)


# ---------- least-squares solve ----------

def synthetic_system(rows=30, nb=3, seed=0, lam=1e-12):
    rng = np.random.default_rng(seed)
    g = make_grid(16)
    basis = make_basis(nb, g)
    A = rng.normal(size=(rows, basis.size))
    c_star = rng.normal(size=basis.size)
    return MomentSystem(2, basis, (), A, A @ c_star, lam, rows=A.shape[0]), c_star


def test_solve_recovers_consistent_system():
    system, c_star = synthetic_system()
    c = solve_coefficients(system)
    assert np.linalg.norm(c - c_star) / np.linalg.norm(c_star) <= 1e-6


def test_solve_zero_rhs_gives_zero():
    system, _ = synthetic_system()
    zeroed = MomentSystem(2, system.basis, (), system.matrix,
                          np.zeros(system.rows), system.lam, rows=system.rows)
    assert not zeroed.basis.synthesize(solve_coefficients(zeroed)).any()


def test_lcurve_weight_on_zero_data_is_the_grid_top():
    # with all-zero data the L-curve is a point and has no corner, so the
    # weight is the grid's top, which a rounding-level change of the matrix
    # moves by no more than rounding (a point picked from the flat curve
    # moved a whole grid step)
    system, _ = synthetic_system()
    L = gradient_penalty(system.basis.nodes_per_side)
    zero = np.zeros(system.rows)
    top = np.linalg.norm(system.matrix, 2) ** 2
    for matrix in (system.matrix, system.matrix * (1.0 + 1e-12)):
        assert lcurve_weight(matrix, zero, L) == pytest.approx(top, rel=1e-10)


def test_lcurve_weight_is_the_per_weight_qr_corner():
    # the closed-form curve picks the weight that one stacked-QR solve per
    # grid weight picks (``lcurve_reference``) on every stage of n=16
    # half-arc K=3 and full-arc K=4 runs at seeds 0-2, noise-free and at
    # noise 1e-9, on a one-member stage, and on seeded random systems of at
    # least as many rows as unknowns. Dropping ||y - U beta|| from the
    # residual moves the pick on stages and random systems alike; computing
    # s as sqrt(1 - c^2) takes the square root of a negative number where a
    # rounded c exceeds 1. A system of fewer rows than unknowns fits its data
    # at every weight, so its residual falls with the weight until it meets
    # rounding, and both curves put the corner there (at most 1e-14
    # sigma_max^2), where the two roundings may pick different grid weights
    g = make_grid(16)
    truth = PotentialSeries.from_coefficients(g, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", g),
        4: sample_expression("1 + x*y", g)})
    systems = []
    for s1, K, size, sigmas in ((2.0, 3, 8, (0.0, 1e-9)), (4.0, 4, 8, (0.0, 1e-9)),
                                (2.0, 2, 1, (0.0,))):
        mask = arc_mask(g, 0.0, s1)
        family = arc_supported_family(mask, size, g)
        for seed in range(3 if size > 1 else 1):
            for sigma in sigmas:
                systems += reconstruct_all(
                    measurement(truth, mask, g, sigma, seed + 10_000), K, family, mask, g,
                    eps=1e-2, basis_per_side=4, rows_factor=2, lam=None, seed=seed).systems
    assert len(systems) == 31
    for system in systems:
        assert lcurve_weight(system.matrix, system.rhs, system.basis.penalty) \
            == lcurve_reference(system.matrix, system.rhs, system.basis.penalty)
    L = gradient_penalty(3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=((2, 5, 9, 10, 30)[seed % 5], L.shape[1]))
        y = rng.normal(size=len(A))
        weight, reference = lcurve_weight(A, y, L), lcurve_reference(A, y, L)
        if len(A) < L.shape[1]:
            assert max(weight, reference) <= 1e-14 * np.linalg.norm(A, 2) ** 2, seed
        else:
            assert weight == reference, seed


def test_lcurve_weight_raises_no_floating_point_error_on_a_rank_deficient_stage():
    # one member's 30 rows against 36 unknowns: sigma_min(A) is zero to
    # rounding, so the grid is not cut and reaches 1e-16 sigma_max^2, yet
    # c^2 + lam s^2 >= min(1, lam) keeps every denominator of the closed form
    # away from zero
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    truth = PotentialSeries.from_coefficients(
        g, {2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g)})
    directions = DirectionStore(measurement(truth, mask, g), arc_supported_family(mask, 1, g),
                                1e-2, mask, g)
    system = assemble_system(2, make_basis(6, g), directions, None, heads=1, seed=0, lam=1.0)
    assert system.rows < system.basis.size
    sigma = np.linalg.svd(system.matrix, compute_uv=False)
    assert sigma[-1] ** 2 < 1e-16 * sigma[0] ** 2
    with np.errstate(all="raise"):
        weight = lcurve_weight(system.matrix, system.rhs, system.basis.penalty)
    assert 0.0 < weight < np.inf


def test_solve_scales_linearly():
    system, _ = synthetic_system()
    doubled = MomentSystem(2, system.basis, (), system.matrix,
                           2.0 * system.rhs, system.lam, rows=system.rows)
    assert np.allclose(doubled.basis.synthesize(solve_coefficients(doubled)),
                       2.0 * system.basis.synthesize(solve_coefficients(system)), atol=1e-12)


def test_regularizer_vanishing_limit():
    # on a well-conditioned system the solution converges monotonically to the
    # plain least-squares solution as the penalty weight drops
    system, _ = synthetic_system(rows=40, nb=3, seed=3, lam=0.0)
    A, y = system.matrix, system.rhs
    c_ls = np.linalg.lstsq(A, y, rcond=None)[0]
    gaps = []
    for lam in (1e-2, 1e-4, 1e-6):
        c = solve_coefficients(MomentSystem(2, system.basis, (), A, y, lam, rows=A.shape[0]))
        gaps.append(np.linalg.norm(c - c_ls))
    assert gaps[0] > gaps[1] > gaps[2]


def test_solution_operator_norm_bounds_noise_response():
    system, _ = synthetic_system(rows=40, nb=3, seed=4, lam=1e-6)
    g = make_grid(16)
    norm = solution_operator_norm(system, g)
    rng = np.random.default_rng(9)
    for _ in range(5):
        noise = rng.normal(size=system.rows)
        sys_n = MomentSystem(2, system.basis, (), system.matrix, noise, system.lam,
                             rows=system.rows)
        rec = sys_n.basis.synthesize(solve_coefficients(sys_n))
        assert np.sqrt(interior_integral(rec ** 2, g)) <= norm * np.linalg.norm(noise) * (1 + 1e-8)


# ---------- end-to-end ----------

def test_reconstruct_quadratic_only_truth_keeps_cubic_small():
    g = make_grid(32)
    mask = full_mask(g)
    truth = PotentialSeries.from_coefficients(
        g, {2: sample_expression("exp(-4*((x-0.5)**2 + (y-0.5)**2))", g)})
    result = reconstruct_all(measurement(truth, mask, g), 3, arc_supported_family(mask, 8, g),
                             mask, g, eps=1e-2, basis_per_side=4, rows_factor=2, lam=None,
                             seed=1)
    err2 = stage_errors(result, truth, g)[0]
    norm3 = np.sqrt(interior_integral(result.series.coefficient(3) ** 2, g))
    assert err2 <= 0.5
    assert norm3 <= 0.2 * np.sqrt(interior_integral(truth.coefficient(2) ** 2, g))


def test_reconstruct_identical_measures_identical_outputs():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    base = {2: 1.0 + 0.2 * x}
    truth_a = PotentialSeries.from_coefficients(g, base)
    truth_b = PotentialSeries.from_coefficients(g, {2: base[2].copy(),
                                                    3: np.zeros(g.num_nodes)})
    fam = arc_supported_family(mask, 6, g)
    conf = dict(eps=1e-2, basis_per_side=3, rows_factor=2, lam=None, seed=2)
    res_a = reconstruct_all(measurement(truth_a, mask, g), 2, fam, mask, g, **conf)
    res_b = reconstruct_all(measurement(truth_b, mask, g), 2, fam, mask, g, **conf)
    gap = np.max(np.abs(res_a.series.coefficient(2) - res_b.series.coefficient(2)))
    assert gap <= 1e-8


def test_induction_uses_reconstructed_lower_orders():
    # corrupting the known quadratic coefficient before the cubic stage
    # degrades the cubic reconstruction monotonically
    g = make_grid(32)
    mask = full_mask(g)
    x, _ = g.node_coords()
    truth = PotentialSeries.from_coefficients(
        g, {2: 2.0 + x, 3: sample_expression("sin(pi*x)*sin(pi*y)", g)})
    fam = arc_supported_family(mask, 8, g)
    basis = make_basis(4, g)
    errors = []
    for delta in (0.0, 0.05, 0.2):
        known = PotentialSeries.from_coefficients(g, {2: truth.coefficient(2) + delta})
        directions = DirectionStore(measurement(truth, mask, g), fam, 1e-2, mask, g)
        system = assemble_system(3, basis, directions, known, heads=3 * basis.size, seed=5,
                                 lam=None)
        rec = system.basis.synthesize(solve_coefficients(system))
        errors.append(rel_l2_error(rec, truth.coefficient(3), g))
    assert errors[0] < errors[1] < errors[2]


def test_partial_data_ordering_cheap_scenario():
    g = make_grid(32)
    x, _ = g.node_coords()
    truth = PotentialSeries.from_coefficients(
        g, {2: sample_expression("exp(-4*((x-0.5)**2 + (y-0.5)**2))", g)})
    errs = {}
    for label, mask in (("full", full_mask(g)), ("quarter", arc_mask(g, 0.0, 1.0))):
        res = reconstruct_all(measurement(truth, mask, g), 2, arc_supported_family(mask, 8, g),
                              mask, g, eps=1e-2, basis_per_side=4, rows_factor=2, lam=None,
                              seed=3)
        errs[label] = stage_errors(res, truth, g)[0]
    assert errs["full"] <= errs["quarter"]


def test_reconstruct_quartic_bump_induction():
    # quadratic and cubic stages see nothing; the quartic stage finds the bump
    g = make_grid(32)
    mask = full_mask(g)
    truth = PotentialSeries.from_coefficients(
        g, {4: sample_expression("exp(-4*((x-0.5)**2 + (y-0.5)**2))", g)})
    result = reconstruct_all(measurement(truth, mask, g), 4, arc_supported_family(mask, 8, g),
                             mask, g, eps=2e-2, basis_per_side=4, rows_factor=2, lam=None,
                             seed=4)
    truth_norm = np.sqrt(interior_integral(truth.coefficient(4) ** 2, g))
    for stage in result.stages[:2]:
        rec = result.series.coefficient(stage.m)
        assert np.sqrt(interior_integral(rec ** 2, g)) <= 0.1 * truth_norm
    assert stage_errors(result, truth, g)[2] <= 0.5


def test_reconstruct_measures_each_direction_once():
    # the stages share one store of directions: no trace is measured twice,
    # every sub-multiset of every head used is measured along its mean at
    # t = +-s and +-2s (s = 3 eps / 2), nothing else is measured, and the
    # stages' counts add up to the calls
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    truth = PotentialSeries.from_coefficients(
        g, {2: 1.0 + x, 3: sample_expression("sin(pi*x)*sin(pi*y)", g)})
    fam = arc_supported_family(mask, 6, g)
    traces = []
    device = measurement(truth, mask, g)

    def measure(trace):
        traces.append(trace.copy())
        return device(trace)

    result = reconstruct_all(measure, 3, fam, mask, g, eps=1e-2, basis_per_side=3,
                             rows_factor=2, lam=None, seed=0)
    measured = np.array(traces)
    assert len(np.unique(measured, axis=0)) == len(measured)
    needed = {tuple(head[i] for i in positions)
              for system in result.systems for head in system.heads
              for size in range(1, system.m + 1)
              for positions in combinations(range(system.m), size)}
    assert any(len(set(S)) < len(S) for S in needed)  # repeated members occur
    matched = set()
    for S in needed:
        mean = sum(fam[i].trace for i in S) / len(S)
        for t in (1.0, -1.0, 2.0, -2.0):
            hits = np.flatnonzero(np.all(np.abs(measured - t * 1.5e-2 * mean) <= 1e-15,
                                         axis=1))
            assert hits.size == 1, (S, t)
            matched.add(int(hits[0]))
    assert matched == set(range(len(measured)))
    assert all(stage.measurements > 0 for stage in result.stages)
    assert sum(stage.measurements for stage in result.stages) == len(measured)


def test_noisy_reconstruction_is_pinned():
    # output noise of 1e-9 leaves V2 near its noise-free error but sends V3
    # from ~0.17 to ~450, growing tenfold per decade of noise while the
    # L-curve weight stays put (ROADMAP item "Make every stage honest under
    # noise"); a change to the noise handling is measured against these bands
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    truth = PotentialSeries.from_coefficients(g, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", g)})
    fam = arc_supported_family(mask, 12, g)
    errors = {}
    for sigma in (0.0, 1e-9):
        rng = np.random.default_rng(10_000)

        def measure(trace):
            out = dtn_apply(truth, trace, mask, g).output
            return np.where(mask.flags, out + sigma * rng.normal(size=out.size), 0.0)

        errors[sigma] = stage_errors(reconstruct_all(
            measure, 3, fam, mask, g, eps=1e-2, basis_per_side=3, rows_factor=3, lam=None,
            seed=0), truth, g)
    assert max(errors[0.0]) <= 0.2
    assert 0.1 <= errors[1e-9][0] <= 0.2
    assert 200.0 <= errors[1e-9][1] <= 1000.0


def test_stage_failure_propagates_measurement_error():
    # a stage failure reaches the caller as the measurement raised it
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    truth = PotentialSeries.zero(g)

    calls = {"n": 0}
    device = measurement(truth, mask, g)

    def flaky_measure(trace):
        calls["n"] += 1
        if calls["n"] > 40:
            raise RuntimeError("measurement device unplugged")
        return device(trace)

    fam = arc_supported_family(mask, 6, g)
    with pytest.raises(RuntimeError, match="measurement device unplugged"):
        reconstruct_all(flaky_measure, 3, fam, mask, g, eps=1e-2, basis_per_side=3,
                        rows_factor=2, lam=None, seed=0)
    assert calls["n"] == 41


def test_reconstruct_requires_k_at_least_two():
    g = make_grid(32)
    mask = full_mask(g)
    with pytest.raises(ValueError):
        reconstruct_all(measurement(PotentialSeries.zero(g), mask, g), 1,
                        arc_supported_family(mask, 12, g), mask, g, eps=1e-2,
                        basis_per_side=6, rows_factor=3, lam=None, seed=0)


def test_reconstruct_rejects_eps_below_the_newton_floor():
    # below (1.5 eps)^K >= 1e3 * Newton tolerance the order-K response drowns
    # in Newton's stopping error: at eps 1e-6 and K = 2 the stage returned
    # V2 = 0 (error 1.0) without an error; now it raises before measuring,
    # while eps 1e-4 at K = 2 and eps 1e-2 at K = 4 recover every order
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    truth = PotentialSeries.from_coefficients(g, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", g),
        4: sample_expression("1 + x*y", g)})
    fam = arc_supported_family(mask, 6, g)
    calls = []
    device = measurement(truth, mask, g)
    measure = lambda trace: calls.append(trace) or device(trace)
    conf = dict(basis_per_side=3, rows_factor=2, lam=None, seed=0)
    with pytest.raises(ValueError, match=r"eps = 1e-06 at K = 2 is below the floor 6\.7e-05"):
        reconstruct_all(measure, 2, fam, mask, g, eps=1e-6, **conf)
    assert not calls
    for K, eps in ((2, 1e-4), (4, 1e-2)):
        result = reconstruct_all(measure, K, fam, mask, g, eps=eps, **conf)
        assert max(stage_errors(result, truth, g)) <= 0.2
    assert calls


def test_reconstruction_commutes_with_the_squares_rotations():
    # R(x, y) = (1 - y, x) maps the square, its grid and the basis onto
    # themselves and the walk parameter s to s + 1. The half-arc run of a
    # truth with no symmetry of the square, under each rotation R^r with the
    # arc moved on by r sides, recovers R^r of the first run's fields: V2
    # within 1e-6 and V3 within 1e-2 of their largest value (3.3e-8 / 5.3e-8
    # and 6.2e-4 / 1.3e-3 measured at r = 1 / 2), the rest a rounding-level
    # data difference that the m=3 stage amplifies, and each stage picks the
    # same L-curve weight
    n = 32
    g = make_grid(n)

    def rotated(field, r):
        """The nodal field V o R^-r: node (x, y) takes V's value at R^-r(x, y)."""
        return np.rot90(field.reshape(n + 1, n + 1), -r).ravel()

    assert np.max(np.abs(rotated(sample_expression("x*y**2", g), 1)
                         - sample_expression("y*(1-x)**2", g))) <= 1e-15
    truth = {2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
             3: sample_expression("0.5*sin(pi*x)*sin(pi*y) + x*y**2", g)}
    runs = []
    for r in range(4):
        series = PotentialSeries.from_coefficients(
            g, {m: rotated(k, r) for m, k in truth.items()})
        mask = arc_mask(g, float(r), 2.0 + r)
        runs.append(reconstruct_all(measurement(series, mask, g), 3,
                                    arc_supported_family(mask, 12, g), mask, g, eps=1e-2,
                                    basis_per_side=6, rows_factor=3, lam=None, seed=0))
    first = runs[0]
    for r, result in enumerate(runs[1:], start=1):
        for m, bound in ((2, 1e-6), (3, 1e-2)):
            expected = rotated(first.series.coefficient(m), r)
            gap = np.max(np.abs(result.series.coefficient(m) - expected))
            assert gap <= bound * np.max(np.abs(expected)), (r, m, gap)
        for stage, first_stage in zip(result.stages, first.stages, strict=True):
            assert stage.lam == pytest.approx(first_stage.lam, rel=1e-6)


# ---------- one source per input ----------

def test_assemble_system_takes_each_input_once():
    # the family, the arc and the grid come from the run's DirectionStore,
    # and cli.KEYS holds every default, so no parameter has one
    params = inspect.signature(assemble_system).parameters
    assert list(params) == ["m", "basis", "directions", "known", "heads", "seed", "lam"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_basis_carries_its_gradient_penalty():
    # built once with the basis, read-only, and the L of every solve on it
    g = make_grid(16)
    for nb in (2, 3, 6):
        basis = make_basis(nb, g)
        assert np.array_equal(basis.penalty, gradient_penalty(nb))
        assert not basis.penalty.flags.writeable
    system, _ = synthetic_system(rows=40, nb=3, seed=4, lam=1e-3)
    A, y, L = system.matrix, system.rhs, system.basis.penalty
    normal = np.linalg.solve(A.T @ A + system.lam * L.T @ L, A.T @ y)
    assert np.allclose(solve_coefficients(system), normal, rtol=1e-8, atol=1e-10)


def test_a_family_of_one_zero_member_has_no_usable_heads():
    # the zero member's only head has a vanishing model on every arc node, so
    # its rows are dropped and nothing is left or measured
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    zero = HarmonicMember(np.zeros(g.num_nodes), np.zeros(g.num_boundary), "zero")
    calls = []
    directions = DirectionStore(lambda trace: calls.append(trace) or np.zeros(g.num_boundary),
                                (zero,), 1e-2, mask, g)
    with pytest.raises(ValueError, match="no usable heads"):
        assemble_system(2, make_basis(2, g), directions, None, heads=3, seed=0, lam=None)
    assert not calls


def test_solve_rejects_an_empty_system():
    basis = make_basis(2, make_grid(16))
    empty = MomentSystem(2, basis, (), np.zeros((0, basis.size)), np.zeros(0), 1.0, rows=0)
    with pytest.raises(ValueError, match="moment system is empty"):
        solve_coefficients(empty)

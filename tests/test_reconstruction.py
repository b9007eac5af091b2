from itertools import combinations

import numpy as np
import pytest

from semidtn.dtn import dtn_apply, normal_derivative
from semidtn.forward_solver import harmonic_extension, solve_linear
from semidtn import linearization, reconstruction
from semidtn.geometry import arc_mask, full_mask, interior_integral, make_grid
from semidtn.harmonic import arc_supported_family
from semidtn.linearization import DirectionStore, measured_linearized_flux
from semidtn.potential import PotentialSeries, sample_expression
from semidtn.reconstruction import (ZERO_ROW, MomentSystem, ReconstructionConfig,
                                    _arc_readout, assemble_system, gradient_penalty,
                                    make_basis, measured_moment, reconstruct_all,
                                    rel_l2_error, solve_coefficients,
                                    solution_operator_norm)


def measure_for(P, mask, grid):
    return lambda trace: dtn_apply(P, trace, mask, grid)


def poisson_readout(source, g):
    """The normal derivative of the zero-boundary solution of -Lap_h w = source."""
    return normal_derivative(solve_linear(source, np.zeros(g.num_boundary), g), g)


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


# ---------- measured moments ----------

def test_moment_zero_coefficient(setup32):
    g, mask, fam, _ = setup32
    P = PotentialSeries.zero(g)
    val = measured_moment(measure_for(P, mask, g), [fam[0], fam[1], fam[2]],
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
    val = measured_moment(measure_for(P, mask, g), members, eps, mask, g)
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
    with_corr = measured_moment(measure_for(P, mask, g), members, 1e-2, mask, g, known=P)
    without = measured_moment(measure_for(P, mask, g), members, 1e-2, mask, g, known=None)
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
        measured_moment(measure_for(P, mask, g), [fam[0], fam[1], bad], 1e-2, mask, g)


def test_moment_needs_three_members(setup32):
    g, mask, fam, _ = setup32
    with pytest.raises(ValueError):
        measured_moment(measure_for(PotentialSeries.zero(g), mask, g),
                        [fam[0], fam[1]], 1e-2, mask, g)


# ---------- system assembly ----------

def test_assemble_dimensions():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 6, g)
    basis = make_basis(2, g)
    P = PotentialSeries.zero(g)
    directions = DirectionStore(measure_for(P, mask, g), [m.trace for m in fam], 1e-2, mask, g)
    system = assemble_system(fam, 2, basis, directions, mask, g, heads=3)
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
    directions = DirectionStore(measure_for(P, mask, g), [m.trace for m in fam_all], 1e-2,
                                mask, g)
    with pytest.warns(UserWarning):
        system = assemble_system(fam_all, 2, basis, directions, mask, g, heads=12)
    assert system.heads == ((0, 0),)
    assert system.rows == mask.flags.sum() - 2


def test_assemble_drops_zero_product_rows():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 4, g)
    from semidtn.harmonic import HarmonicMember
    zero = HarmonicMember(np.zeros(g.num_nodes), np.zeros(g.num_boundary), "zero")
    fam_degenerate = fam + (zero,)
    basis = make_basis(2, g)
    P = PotentialSeries.zero(g)
    directions = DirectionStore(measure_for(P, mask, g),
                                [m.trace for m in fam_degenerate], 1e-2, mask, g)
    system = assemble_system(fam_degenerate, 2, basis, directions, mask, g,
                             heads=15)  # all 15 heads are drawn
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
    measure = measure_for(truth, mask, g)
    directions = DirectionStore(measure, [m.trace for m in fam], 1e-2, mask, g)
    system = assemble_system(fam, 2, basis, directions, mask, g, heads=1, lam=1.0)
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
@pytest.mark.parametrize("s0, s1", [(0.0, 2.0), (0.0, 4.0), (1.0, 2.0), (3.5, 4.5)])
def test_arc_readout_matches_poisson_solves(n, s0, s1):
    # the stage's read-out operator against one Poisson solve and read-out
    # per basis function, on two sides, the whole boundary, one side, and an
    # arc through s = 0 and the corner (0, 0): every row agrees to rounding,
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
            assert_agrees(_arc_readout(g, basis.axis, arc)(prod), ref)
        # unit axis factors: the read-out of the field itself
        assert_agrees(_arc_readout(g, np.ones((n + 1, 1)), arc)(prod),
                      reference(prod, np.ones((g.num_nodes, 1))))

    basis = make_basis(3, g)
    P = PotentialSeries.zero(g)
    for m in (2, 3):
        directions = DirectionStore(measure_for(P, mask, g), [m.trace for m in fam], 1e-2,
                                    mask, g)
        system = assemble_system(fam, m, basis, directions, mask, g, heads=2, seed=m,
                                 lam=1.0)
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
    directions = DirectionStore(lambda trace: np.zeros(g.num_boundary), [m.trace for m in fam],
                                1e-2, mask, g)
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
    system = assemble_system(fam, m, basis, directions, mask, g, known=known,
                             heads=2 * basis.size, seed=m)
    assert any(len(set(head)) < m for head in system.heads)  # a repeated member
    keys = [{tuple(head[i] for i in positions) for size in range(2, m)
             for positions in combinations(range(m), size)} for head in system.heads]
    assert len(solves) == len(set().union(*keys)) < sum(map(len, keys))
    assert [S for S, _ in sources] == list(system.heads)
    for head, data in sources:
        fresh = {(i,): fam[label].field for i, label in enumerate(head)}
        assert np.array_equal(data, source(low, tuple(range(m)), fresh, g))


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
    directions = DirectionStore(measure_for(truth, mask, g), [m.trace for m in fam], 1e-2,
                                mask, g)
    system = assemble_system(fam, 2, basis, directions, mask, g, heads=3, lam=1.0)
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
    conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=8, basis_per_side=4,
                                rows_factor=2, seed=1)
    result = reconstruct_all(measure_for(truth, mask, g), 3, conf, truth=truth)
    err2 = result.stages[0].rel_error_vs_truth
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
    conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=6, basis_per_side=3,
                                rows_factor=2, seed=2)
    res_a = reconstruct_all(measure_for(truth_a, mask, g), 2, conf)
    res_b = reconstruct_all(measure_for(truth_b, mask, g), 2, conf)
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
        directions = DirectionStore(measure_for(truth, mask, g), [m.trace for m in fam],
                                    1e-2, mask, g)
        system = assemble_system(fam, 3, basis, directions, mask, g, known=known,
                                 heads=3 * basis.size, seed=5)
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
        conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=8,
                                    basis_per_side=4, rows_factor=2, seed=3)
        res = reconstruct_all(measure_for(truth, mask, g), 2, conf, truth=truth)
        errs[label] = res.stages[0].rel_error_vs_truth
    assert errs["full"] <= errs["quarter"]


def test_reconstruct_quartic_bump_induction():
    # quadratic and cubic stages see nothing; the quartic stage finds the bump
    g = make_grid(32)
    mask = full_mask(g)
    truth = PotentialSeries.from_coefficients(
        g, {4: sample_expression("exp(-4*((x-0.5)**2 + (y-0.5)**2))", g)})
    conf = ReconstructionConfig(g, mask, eps=2e-2, family_size=8, basis_per_side=4,
                                rows_factor=2, seed=4)
    result = reconstruct_all(measure_for(truth, mask, g), 4, conf, truth=truth)
    truth_norm = np.sqrt(interior_integral(truth.coefficient(4) ** 2, g))
    for stage in result.stages[:2]:
        rec = result.series.coefficient(stage.m)
        assert np.sqrt(interior_integral(rec ** 2, g)) <= 0.1 * truth_norm
    assert result.stages[2].rel_error_vs_truth <= 0.5


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

    def measure(trace):
        traces.append(trace.copy())
        return dtn_apply(truth, trace, mask, g)

    conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=6, basis_per_side=3,
                                rows_factor=2, seed=0)
    result = reconstruct_all(measure, 3, conf, family=fam)
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
    conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=12, basis_per_side=3,
                                rows_factor=3, seed=0)
    errors = {}
    for sigma in (0.0, 1e-9):
        rng = np.random.default_rng(10_000)

        def measure(trace):
            out = dtn_apply(truth, trace, mask, g).output
            return np.where(mask.flags, out + sigma * rng.normal(size=out.size), 0.0)

        result = reconstruct_all(measure, 3, conf, truth=truth)
        errors[sigma] = [stage.rel_error_vs_truth for stage in result.stages]
    assert max(errors[0.0]) <= 0.2
    assert 0.1 <= errors[1e-9][0] <= 0.2
    assert 200.0 <= errors[1e-9][1] <= 1000.0


def test_stage_failure_propagates_measurement_error():
    # a stage failure reaches the caller as the measurement raised it
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    truth = PotentialSeries.zero(g)

    calls = {"n": 0}

    def flaky_measure(trace):
        calls["n"] += 1
        if calls["n"] > 40:
            raise RuntimeError("measurement device unplugged")
        return dtn_apply(truth, trace, mask, g)

    conf = ReconstructionConfig(g, mask, eps=1e-2, family_size=6, basis_per_side=3,
                                rows_factor=2, seed=0)
    with pytest.raises(RuntimeError, match="measurement device unplugged"):
        reconstruct_all(flaky_measure, 3, conf)
    assert calls["n"] == 41


def test_reconstruct_requires_k_at_least_two():
    g = make_grid(32)
    mask = full_mask(g)
    conf = ReconstructionConfig(g, mask)
    with pytest.raises(ValueError):
        reconstruct_all(measure_for(PotentialSeries.zero(g), mask, g), 1, conf)

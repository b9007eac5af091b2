import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from semidtn.dtn import bump_trace, dtn_apply, measurement, normal_derivative
from five_point import slice_stencil
from semidtn.forward_solver import harmonic_extension, solve_linear
from semidtn.geometry import arc_mask, full_mask, make_grid
from semidtn.harmonic import arc_supported_family
from semidtn.linearization import (DirectionStore, _position_partitions, check_difference_gate,
                                   measured_linearized_flux, nonlinearity_derivative,
                                   run_cascade)
from semidtn.potential import PotentialSeries, sample_expression
from semidtn.reconstruction import assemble_system, make_basis, reconstruct_all


# the number of set partitions of an n-element set, n = 0..8
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def const_series(grid, **fields):
    return PotentialSeries.from_coefficients(
        grid, {int(k[1:]): np.full(grid.num_nodes, v) for k, v in fields.items()})


def brute_force_partitions(elems):
    """Independent oracle: grow partitions by inserting one element at a time."""
    elems = list(elems)
    parts = [[]]
    for e in elems:
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([b + [e] if i == j else list(b) for j, b in enumerate(p)])
            grown.append([list(b) for b in p] + [[e]])
        parts = grown
    return {frozenset(frozenset(b) for b in p) for p in parts}


# ---------- partitions ----------

def test_partitions_singleton():
    assert _position_partitions(1) == (((0,),),)


def test_partitions_pair():
    got = _position_partitions(2)
    assert len(got) == 2
    assert ((0, 1),) in got
    assert ((0,), (1,)) in got


def test_partition_counts_match_bell_numbers():
    for size in range(1, 6):
        assert len(_position_partitions(size)) == BELL[size]


def test_partitions_match_brute_force_oracle():
    got = {frozenset(frozenset(b) for b in p) for p in _position_partitions(4)}
    assert got == brute_force_partitions(range(4))
    assert len(got) == 15


def growth_string_partitions(size):
    """Partitions of 0..size-1 from their restricted-growth strings, in
    lexicographic order of the strings: position i is labelled with a block
    number at most one above every label before it, and block b holds the
    positions labelled b."""
    def grow(labels, top):
        if len(labels) == size:
            yield labels
            return
        for label in range(top + 2):
            yield from grow(labels + (label,), max(top, label))

    return [tuple(tuple(i for i, label in enumerate(labels) if label == b)
                  for b in range(max(labels) + 1))
            for labels in grow((0,), 0)]


def test_partitions_come_in_growth_string_order():
    # the cascade sums its partition terms in this order, so its fields are
    # bit for bit those of this order only
    for size in range(1, 9):
        assert list(_position_partitions(size)) == growth_string_partitions(size)


# ---------- nonlinearity derivative ----------

def test_nonlinearity_derivative_guard():
    # the partition sum runs over 2..MAX_ORDER labels only, the orders the
    # program differentiates
    P = const_series(make_grid(8), k2=1.0)
    for labels in ((), (0,), tuple(range(5))):
        with pytest.raises(ValueError, match="needs 2..4 slots"):
            nonlinearity_derivative(P, labels, {})


def test_pair_derivative_is_quadratic_coefficient_times_product():
    g = make_grid(8)
    rng = np.random.default_rng(0)
    P = PotentialSeries.from_coefficients(g, {2: rng.normal(size=g.num_nodes)})
    v1, v2 = rng.normal(size=g.num_nodes), rng.normal(size=g.num_nodes)
    derivs = {(0,): v1, (1,): v2}
    got = nonlinearity_derivative(P, (0, 1), derivs)
    assert np.allclose(got, P.coefficient(2) * v1 * v2, atol=1e-14)


def test_triple_derivative_shape_with_quadratic_only():
    # with only the quadratic coefficient, the 3-slot derivative is the sum of
    # the three (singleton, pair) splittings
    g = make_grid(8)
    rng = np.random.default_rng(1)
    c2 = rng.normal(size=g.num_nodes)
    P = PotentialSeries.from_coefficients(g, {2: c2})
    v = [rng.normal(size=g.num_nodes) for _ in range(3)]
    w = {(0, 1): rng.normal(size=g.num_nodes),
         (0, 2): rng.normal(size=g.num_nodes),
         (1, 2): rng.normal(size=g.num_nodes)}
    derivs = {(0,): v[0], (1,): v[1], (2,): v[2], **w}
    got = nonlinearity_derivative(P, (0, 1, 2), derivs)
    expected = c2 * (v[0] * w[(1, 2)] + v[1] * w[(0, 2)] + v[2] * w[(0, 1)])
    assert np.allclose(got, expected, atol=1e-13)


def test_derivative_zero_potential():
    g = make_grid(8)
    rng = np.random.default_rng(2)
    derivs = {(0,): rng.normal(size=g.num_nodes), (1,): rng.normal(size=g.num_nodes)}
    got = nonlinearity_derivative(PotentialSeries.zero(g), (0, 1), derivs)
    assert not got.any()


def test_derivative_requires_lower_orders():
    g = make_grid(8)
    P = const_series(g, k2=1.0)
    with pytest.raises(KeyError):
        nonlinearity_derivative(P, (0, 1), {(0,): np.ones(g.num_nodes)})


# ---------- cascade ----------

def test_cascade_pair_solves_stated_equation():
    # the pair field w satisfies -Lap w + V2 v1 v2 = 0 with w = 0 on the boundary
    g = make_grid(16)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x})
    f1 = bump_trace(g, 0.4, 0.25, 1.0)
    f2 = bump_trace(g, 1.4, 0.25, 1.0)
    state = run_cascade(P, [f1, f2], g)
    w = state.field((0, 1))
    assert not w[g.boundary_nodes].any()
    v1v2 = state.field([0]) * state.field([1])
    res = slice_stencil(w, g) + (P.coefficient(2) * v1v2).reshape(17, 17)[1:-1, 1:-1].ravel()
    assert g.h * np.linalg.norm(res) <= 1e-9


def test_cascade_zero_potential_pair_is_zero():
    g = make_grid(8)
    f = bump_trace(g, 0.5, 0.3, 1.0)
    state = run_cascade(PotentialSeries.zero(g), [f, f], g)
    assert not state.field((0, 1)).any()


def test_cascade_cubic_only_bookkeeping():
    # with the quadratic coefficient zero, pair fields vanish and the triple
    # field solves -Lap w = -c v1 v2 v3
    g = make_grid(16)
    P = const_series(g, k3=2.0)
    fs = [bump_trace(g, 0.3 + 0.5 * i, 0.2, 1.0) for i in range(3)]
    state = run_cascade(P, fs, g)
    assert not state.field((0, 1)).any()
    assert not state.field((0, 2)).any()
    v123 = state.field([0]) * state.field([1]) * state.field([2])
    direct = solve_linear(-(2.0 * v123), np.zeros(g.num_boundary), g)
    assert np.max(np.abs(state.field((0, 1, 2)) - direct)) <= 1e-12


def test_cascade_singletons_are_harmonic_with_given_trace():
    g = make_grid(16)
    f = bump_trace(g, 0.7, 0.3, 1.0)
    state = run_cascade(const_series(g, k2=1.0), [f], g)
    v = state.field([0])
    assert np.allclose(v[g.boundary_nodes], f, atol=1e-14)
    assert g.h * np.linalg.norm(slice_stencil(v, g)) <= 1e-9


def test_cascade_multi_slot_fields_vanish_on_boundary():
    g = make_grid(16)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x, 3: np.full(g.num_nodes, 0.5)})
    fs = [bump_trace(g, 0.3 + 0.45 * i, 0.2, 1.0) for i in range(3)]
    state = run_cascade(P, fs, g)
    for subset, field in state.derivs.items():
        if len(subset) >= 2:
            assert not field[g.boundary_nodes].any()


def test_cascade_permutation_symmetry():
    g = make_grid(16)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x, 3: np.full(g.num_nodes, 0.5)})
    fs = [bump_trace(g, 0.3 + 0.45 * i, 0.2, 1.0) for i in range(3)]
    state = run_cascade(P, fs, g)
    perm = [2, 0, 1]
    state_p = run_cascade(P, [fs[i] for i in perm], g)
    # derivs of the permuted state at relabeled subsets match the original
    inv = {new: old for new, old in enumerate(perm)}
    for subset, field in state.derivs.items():
        relabeled = tuple(sorted(k for k, v in inv.items() if v in subset))
        assert np.allclose(state_p.derivs[relabeled], field, atol=1e-12)


def test_cascade_slot_cap():
    g = make_grid(8)
    f = bump_trace(g, 0.5, 0.2, 1.0)
    with pytest.raises(ValueError):
        run_cascade(PotentialSeries.zero(g), [f] * 7, g)


# ---------- divided differences ----------

def divided_difference(P, fs, eps, mask, g):
    """The tensor difference of the noise-free measurement map of P."""
    return measured_linearized_flux(measurement(P, mask, g), fs, eps, mask, g)


def test_divided_difference_zero_potential_pair():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    f1 = bump_trace(g, 0.5, 0.3, 1.0)
    f2 = bump_trace(g, 1.5, 0.3, 1.0)
    dd = divided_difference(PotentialSeries.zero(g), [f1, f2], 1e-2, mask, g)
    assert np.max(np.abs(dd)) <= 1e-6  # solver noise / eps^2


def test_single_slot_matches_cascade():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x})
    f = bump_trace(g, 0.8, 0.3, 1.0)
    dd = divided_difference(P, [f], 1e-2, mask, g)
    flux = normal_derivative(harmonic_extension(f, g), g)
    flux[~mask.flags] = 0.0
    gap = np.max(np.abs(dd - flux)) / np.max(np.abs(flux))
    assert gap <= 1e-3


def test_pair_cross_validates_cascade():
    # the module's core check: numerical mixed divided differences against
    # the analytic cascade flux
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x})
    f1 = bump_trace(g, 0.5, 0.3, 1.0)
    f2 = bump_trace(g, 1.5, 0.3, 1.0)
    dd = divided_difference(P, [f1, f2], 1e-2, mask, g)
    state = run_cascade(P, [f1, f2], g)
    flux = normal_derivative(state.field((0, 1)), g)
    flux[~mask.flags] = 0.0
    gap = np.max(np.abs(dd - flux)[mask.flags]) / np.max(np.abs(flux[mask.flags]))
    assert gap <= 1e-3


def test_divided_difference_eps_order():
    # gap to the cascade flux shrinks at observed order ~2 in eps
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    P = const_series(g, k2=1.0, k3=1.0)
    f1 = bump_trace(g, 0.6, 0.3, 1.0)
    f2 = bump_trace(g, 1.4, 0.3, 1.0)
    state = run_cascade(P, [f1, f2], g)
    flux = normal_derivative(state.field((0, 1)), g)
    flux[~mask.flags] = 0.0
    gaps = []
    for eps in (4e-2, 2e-2, 1e-2):
        dd = divided_difference(P, [f1, f2], eps, mask, g)
        gaps.append(np.max(np.abs(dd - flux)[mask.flags]))
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert all(1.5 <= o <= 2.6 for o in orders)


def test_multilinearity_in_each_slot():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    P = const_series(g, k2=1.0)
    f1 = bump_trace(g, 0.6, 0.3, 0.7)
    f2 = bump_trace(g, 1.4, 0.3, 0.7)
    a = 2.0
    d1 = divided_difference(P, [f1, f2], 1e-2, mask, g)
    d2 = divided_difference(P, [a * f1, f2], 1e-2, mask, g)
    assert np.max(np.abs(d2 - a * d1)) <= 1e-6 * a


def test_divided_difference_gate():
    g = make_grid(8)
    mask = arc_mask(g, 0.0, 2.0)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 1.0, 0.4, 1.0)
    check_difference_gate([f, f], 5e-2)
    with pytest.raises(ValueError, match="smallness gate"):
        check_difference_gate([f, f], 6e-2)  # 2 * 0.06 > 0.1
    with pytest.raises(ValueError, match="smallness gate"):
        check_difference_gate([f, f], float("nan"))
    for eps in (float("nan"), 0.0, -0.1, -1e-2):
        with pytest.raises(ValueError, match="eps must be positive"):
            divided_difference(P, [f], eps, mask, g)


def test_measured_flux_equals_simulator_composition():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + x})
    fs = [bump_trace(g, 0.6, 0.3, 1.0), bump_trace(g, 1.4, 0.3, 1.0)]
    direct = divided_difference(P, fs, 1e-2, mask, g)
    via_measure = measured_linearized_flux(
        lambda tr: dtn_apply(P, tr, mask, g).output, fs, 1e-2, mask, g)
    assert np.array_equal(direct, via_measure)


def test_measured_flux_with_degenerate_noise_is_identical():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    P = const_series(g, k2=1.0)
    fs = [bump_trace(g, 0.6, 0.3, 1.0), bump_trace(g, 1.4, 0.3, 1.0)]
    clean = measured_linearized_flux(lambda tr: dtn_apply(P, tr, mask, g).output,
                                     fs, 1e-2, mask, g)
    for seed in (0, 7):
        wrapped = measured_linearized_flux(measurement(P, mask, g, 0.0, seed),
                                           fs, 1e-2, mask, g)
        assert np.array_equal(clean, wrapped)


def test_measured_flux_identical_for_matching_series():
    # two ground-truth series with the same coefficient fields produce the
    # same linearized flux (the uniqueness hypothesis, discretized)
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    x, _ = g.node_coords()
    P1 = PotentialSeries.from_coefficients(g, {2: 1.0 + x})
    P2 = PotentialSeries.from_coefficients(g, {2: (1.0 + x).copy(), 3: np.zeros(g.num_nodes)})
    fs = [bump_trace(g, 0.6, 0.3, 1.0), bump_trace(g, 1.4, 0.3, 1.0)]
    out1 = divided_difference(P1, fs, 1e-2, mask, g)
    out2 = divided_difference(P2, fs, 1e-2, mask, g)
    assert np.max(np.abs(out1 - out2)) <= 1e-10


def test_cascade_state_accessor():
    g = make_grid(8)
    f = bump_trace(g, 0.5, 0.3, 1.0)
    state = run_cascade(PotentialSeries.zero(g), [f, f], g)
    assert sorted(state.derivs) == [(0,), (0, 1), (1,)]
    assert np.array_equal(state.field([1, 0]), state.field((0, 1)))


# ---------- polarized flux ----------

# relative sup gaps at n = 32, eps = 1e-2, measured before the store was
# used by the stage: polarized vs cascade 4.5e-11 (m=2), 2.8e-5 - 4.0e-5
# (m=3), 7.3e-5 - 2.3e-3 (m=4); polarized vs tensor difference 8.6e-5,
# 5.3e-5 and 2.0e-4 at most
POLARIZED_GAP = {2: 1e-9, 3: 1e-4, 4: 5e-3}
POLARIZED_VS_TENSOR = {2: 2e-4, 3: 1.5e-4, 4: 5e-4}


def test_polarized_flux_matches_cascade_and_tensor_difference():
    # the full arc, n = 32, and the V2/V3/V4 of the benchmark's K = 4 run:
    # each head's polarized flux against the cascade's exact flux and the
    # tensor-product difference, on heads with distinct and repeated members
    g = make_grid(32)
    mask = full_mask(g)
    arc = np.flatnonzero(mask.flags)
    P = PotentialSeries.from_coefficients(g, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", g),
        4: sample_expression("1 + x*y", g)})
    fam = arc_supported_family(mask, 12, g)
    measure = measurement(P, mask, g)
    directions = DirectionStore(measure, fam, 1e-2, mask, g)
    for head in ((0, 3), (2, 2), (0, 3, 7), (1, 1, 5), (0, 3, 7, 9), (1, 1, 5, 8),
                 (0, 0, 0, 1)):
        m = len(head)
        traces = [fam[i].trace for i in head]
        exact = normal_derivative(run_cascade(P, traces, g).field(range(m)), g)[arc]
        tensor = measured_linearized_flux(measure, traces, 1e-2, mask, g)[arc]
        polarized = directions.flux(head)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(polarized - exact)) <= POLARIZED_GAP[m] * scale, head
        assert np.max(np.abs(polarized - tensor)) <= POLARIZED_VS_TENSOR[m] * scale, head


def direction(S):
    """The direction a DirectionStore measures for the multiset S: its
    multiplicities divided by their greatest common divisor."""
    counts = Counter(S)
    common = math.gcd(*counts.values())
    return tuple(i for i, c in sorted(counts.items()) for _ in range(c // common))


def test_polarized_flux_noise_gain():
    # pins how output noise reaches the stage fluxes: on a map that returns
    # only unit Gaussian noise, each head's polarized flux has the RMS its
    # weights predict, sum over directions of (sum of (-1)^(m-|P|) |P|^m over
    # the position subsets P on that direction)^2 times the squared weights
    # of F_m on the four measurements, and the tensor difference has
    # sqrt(2^m) / (2 eps)^m; polarization carries about 3.5x, 7x and 60x
    # the tensor difference's noise at orders 2, 3 and 4 (heads of distinct
    # members). A change to the noise handling must move these figures.
    g = make_grid(32)
    mask = full_mask(g)
    arc = np.flatnonzero(mask.flags)
    fam = arc_supported_family(mask, 12, g)
    rng = np.random.default_rng(0)
    noise = lambda trace: np.where(mask.flags, rng.normal(size=g.num_boundary), 0.0)
    eps = 1e-2
    s = 1.5 * eps
    weights = {2: np.sqrt(2 * 8.0 ** 2 + 2 * 0.5 ** 2) / (12 * s ** 2),
               3: np.sqrt(2 * 1.0 ** 2 + 2 * 0.5 ** 2) / (6 * s ** 3),
               4: np.sqrt(2 * 2.0 ** 2 + 2 * 0.5 ** 2) / (12 * s ** 4)}

    directions = DirectionStore(noise, fam, eps, mask, g)
    heads = {2: ((0, 3), (5, 9), (2, 2)), 3: ((0, 3, 7), (2, 6, 10), (1, 1, 5)),
             4: ((0, 3, 7, 9), (2, 4, 6, 11), (1, 1, 5, 8), (0, 0, 0, 1))}
    for m, order_heads in heads.items():
        pol, ten, predicted = [], [], []
        for head in order_heads:
            coef = Counter()
            for size in range(1, m + 1):
                for positions in combinations(range(m), size):
                    coef[direction([head[i] for i in positions])] += (-1) ** (m - size) \
                        * size ** m
            predicted.append(weights[m] * np.sqrt(sum(c * c for c in coef.values())))
            pol.append(directions.flux(head))
            ten.append(measured_linearized_flux(noise, [fam[i].trace for i in head], eps,
                                                mask, g)[arc])
        rms = lambda v: np.sqrt(np.mean(np.square(v)))
        predicted_rms = np.sqrt(np.mean(np.square(predicted)))
        tensor_rms = np.sqrt(2.0 ** m) / (2 * eps) ** m
        assert 0.9 <= rms(pol) / predicted_rms <= 1.1, m
        assert 0.9 <= rms(ten) / tensor_rms <= 1.1, m
        distinct = predicted[0] / tensor_rms
        assert {2: 3.4, 3: 6.5, 4: 55.0}[m] <= distinct <= {2: 3.7, 3: 7.0, 4: 62.0}[m], m


def test_direction_store_guards():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 3, g)
    calls = []
    device = measurement(PotentialSeries.zero(g), mask, g)
    measure = lambda trace: calls.append(trace) or device(trace)
    for eps in (float("nan"), 0.0, -0.1):
        with pytest.raises(ValueError, match="eps must be positive"):
            DirectionStore(measure, fam, eps, mask, g)
    directions = DirectionStore(measure, fam, 1e-2, mask, g)
    for m in (1, 5):
        with pytest.raises(ValueError):
            directions.taylor((0,), m)
    assert not calls
    # (0, 1) and (0, 0, 1, 1) share their mean, so one direction serves both,
    # at every order
    assert not np.any(directions.flux((0, 1)))  # the zero series has no order-2 term
    assert directions.calls == len(calls) == 12
    for m in (2, 3, 4):
        directions.taylor((0, 0, 1, 1), m)
    assert directions.calls == 12
    # a reconstruction outside orders 2..4 fails before it measures anything
    for K in (1, 5):
        with pytest.raises(ValueError, match="K = 2..4"):
            reconstruct_all(measure, K, fam, mask, g, eps=1e-2, basis_per_side=2,
                            rows_factor=3, lam=None, seed=0)
    assert len(calls) == 12


def test_flux_polarizes_the_stored_coefficients_exactly():
    # flux adds and subtracts the store's F_m(f_P), formed once per sorted
    # multiset and order; on heads of orders 2-4 with repeated members it is
    # bit-identical to the explicit sum of (-1)^(m-|P|) F_m(f_P) over a
    # second store's coefficients, each direction is still measured four
    # times, and a repeated flux measures nothing and returns an equal array
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 8, g)
    measure = measurement(const_series(g, k2=1.0, k3=-0.5, k4=0.25), mask, g)
    directions = DirectionStore(measure, fam, 1e-2, mask, g)
    seen = set()
    for head in ((0, 0), (3, 6), (0, 0, 1), (1, 4, 4), (2, 2, 5, 7), (0, 0, 0, 1)):
        m = len(head)
        fresh = DirectionStore(measure, fam, 1e-2, mask, g)
        expected = np.zeros(np.count_nonzero(mask.flags))
        for size in range(1, m + 1):
            for positions in combinations(range(m), size):
                S = [head[i] for i in positions]
                expected += (-1) ** (m - size) * fresh.taylor(S, m)
                seen.add(direction(S))
        flux = directions.flux(head)
        assert np.array_equal(flux, expected), head
        assert directions.calls == 4 * len(seen), head
        assert np.array_equal(directions.flux(head), flux), head
        assert directions.calls == 4 * len(seen), head
    coeff = directions.taylor((5, 2, 2, 7), 4)
    assert coeff is directions.taylor((2, 2, 5, 7), 4)
    with pytest.raises(ValueError, match="read-only"):
        coeff[0] = 1.0


def test_direction_store_forms_no_order_below_the_newton_floor():
    # at eps 1e-6 the order-2 response (1.5 eps)^2 drowns in Newton's
    # stopping error: a stage on such a store read V2 = 0 (error 1.0) with no
    # error raised. The store now checks each order before it measures for
    # it: eps 1e-6 fails at order 2, 1e-3 forms order 2 but not 3, and 1e-2
    # forms orders 2-4
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 6, g)
    calls = []
    device = measurement(PotentialSeries.from_coefficients(
        g, {2: sample_expression("2 + x", g)}), mask, g)
    measure = lambda trace: calls.append(trace) or device(trace)
    directions = DirectionStore(measure, fam, 1e-6, mask, g)
    with pytest.raises(ValueError, match=r"eps = 1e-06 at K = 2 is below the floor 6\.7e-05"):
        directions.flux((0, 1))
    with pytest.raises(ValueError, match="below the floor"):
        assemble_system(2, make_basis(3, g), directions, None, heads=18, seed=0, lam=None)
    assert not calls and directions.calls == 0
    directions = DirectionStore(measure, fam, 1e-3, mask, g)
    directions.taylor((0, 1), 2)
    with pytest.raises(ValueError, match=r"eps = 0\.001 at K = 3 is below the floor"):
        directions.taylor((0, 1), 3)
    assert len(calls) == directions.calls == 4
    directions = DirectionStore(measure, fam, 1e-2, mask, g)
    for m in (2, 3, 4):
        assert np.all(np.isfinite(directions.taylor((0, 1), m)))
    assert directions.calls == 4


def test_direction_store_owns_its_family_arc_and_grid():
    # the store is the stages' one source of the family, the arc nodes and
    # the grid, and none of them can be replaced or written through it; an
    # empty family has no direction to measure
    g = make_grid(16)
    mask = arc_mask(g, 0.5, 2.5)
    fam = arc_supported_family(mask, 3, g)
    measure = measurement(PotentialSeries.zero(g), mask, g)
    directions = DirectionStore(measure, iter(fam), 1e-2, mask, g)
    assert directions.family == fam and directions.grid is g
    assert np.array_equal(directions.arc, np.flatnonzero(mask.flags))
    with pytest.raises(ValueError, match="read-only"):
        directions.arc[0] = 0
    for name in ("family", "arc", "grid"):
        with pytest.raises(AttributeError):
            setattr(directions, name, None)
    with pytest.raises(ValueError, match="family is empty"):
        DirectionStore(measure, (), 1e-2, mask, g)

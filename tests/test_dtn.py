import numpy as np
import pytest

from five_point import pcg_newton
from semidtn.dtn import (SupportError, bump_profile, bump_trace, check_support,
                         dtn_apply, measurement, normal_derivative)
from semidtn import dtn, forward_solver
from semidtn.geometry import arc_mask, boundary_integral, full_mask, make_grid
from semidtn.potential import PotentialSeries, sample_expression


def test_normal_derivative_constant_field():
    g = make_grid(8)
    assert np.max(np.abs(normal_derivative(np.ones(g.num_nodes), g))) == 0.0


def test_normal_derivative_linear_field():
    g = make_grid(8)
    x, _ = g.node_coords()
    dn = normal_derivative(x, g)
    expected = g.boundary_normals[:, 0].astype(float)  # grad x . normal
    assert np.allclose(dn, expected, atol=1e-12)


def test_normal_derivative_quadratic_exact():
    # grad(x^2 - y^2) . normal computed per side; the 3-point one-sided
    # stencil reproduces quadratics exactly
    g = make_grid(8)
    x, y = g.node_coords()
    dn = normal_derivative(x * x - y * y, g)
    bx, by = x[g.boundary_nodes], y[g.boundary_nodes]
    expected = 2.0 * bx * g.boundary_normals[:, 0] - 2.0 * by * g.boundary_normals[:, 1]
    assert np.allclose(dn, expected, atol=1e-10)


def test_dtn_zero_data():
    g = make_grid(8)
    sample = dtn_apply(PotentialSeries.zero(g), np.zeros(g.num_boundary), full_mask(g), g)
    assert not sample.output.any()


def test_dtn_linear_harmonic_oracle(monkeypatch):
    # harmonic extension of x is x itself; normal derivative is +-1 on the
    # vertical sides and 0 on the horizontal ones, with the corner convention
    g = make_grid(16)
    x, _ = g.node_coords()
    f = x[g.boundary_nodes]
    # x exceeds the smallness radius; relax the gate for this linear case
    monkeypatch.setattr(forward_solver, "DEFAULT_SMALLNESS_RADIUS", 2.0)
    sample = dtn_apply(PotentialSeries.zero(g), f, full_mask(g), g)
    expected = g.boundary_normals[:, 0].astype(float)
    assert np.allclose(sample.output, expected, atol=1e-8)


def test_dtn_masked_output_composition():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 1.0)
    f = bump_trace(g, 0.5, 0.2, 0.05)
    sample = dtn_apply(PotentialSeries.zero(g), f, mask, g)
    assert not sample.output[~mask.flags].any()
    from semidtn.forward_solver import harmonic_extension
    inside = normal_derivative(harmonic_extension(f, g), g)[mask.flags]
    assert np.allclose(sample.output[mask.flags], inside, atol=1e-12)


def test_dtn_rejects_unsupported_data():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 1.0)
    f = bump_trace(g, 1.5, 0.2, 0.05)  # supported on the right side instead
    with pytest.raises(SupportError):
        dtn_apply(PotentialSeries.zero(g), f, mask, g)


def test_linearity_at_zero_potential():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    P = PotentialSeries.zero(g)
    f = bump_trace(g, 0.6, 0.3, 0.04)
    h = bump_trace(g, 1.3, 0.3, 0.04)
    a, b = 0.7, -0.5
    lhs = dtn_apply(P, a * f + b * h, mask, g).output
    rhs = a * dtn_apply(P, f, mask, g).output + b * dtn_apply(P, h, mask, g).output
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_bilinear_form_symmetry_second_order():
    # Green identity shadow: integral of (L0 f) q is symmetric up to O(h^2).
    # The bumps overlap on one side, so the gap is the read-out's truncation
    # error (3.2e-5, 8.7e-6, 2.1e-6 at n = 16, 32, 64), not rounding; a
    # disjoint pair on different sides is symmetric to rounding.
    gaps = []
    for n in (16, 32):
        g = make_grid(n)
        mask = full_mask(g)
        P = PotentialSeries.zero(g)
        f = bump_trace(g, 0.5, 0.4, 0.05)
        q = bump_trace(g, 0.8, 0.4, 0.05)
        lf = dtn_apply(P, f, mask, g).output
        lq = dtn_apply(P, q, mask, g).output
        gaps.append(abs(boundary_integral(lf * q, mask, g)
                        - boundary_integral(lq * f, mask, g)))
        far = bump_trace(g, 1.5, 0.4, 0.05)
        lfar = dtn_apply(P, far, mask, g).output
        pair = boundary_integral(lf * far, mask, g), boundary_integral(lfar * f, mask, g)
        assert abs(pair[0] - pair[1]) <= 1e-12 * max(abs(pair[0]), abs(pair[1]))
    assert gaps[0] <= 0.5 * make_grid(16).h ** 2
    assert gaps[1] <= 1.05 * gaps[0] / 3.0  # at least ~order 1.6 decay


@pytest.mark.parametrize("n", [16, 32, 64])
def test_dtn_apply_matches_physical_newton(n):
    # the Newton steps run in scaled sine coordinates; a Newton on the
    # five-point stencil with Poisson-preconditioned CG gives the same
    # measurement to rounding, in the same number of steps
    g = make_grid(n)
    mask = arc_mask(g, 0.0, 2.0)
    P = PotentialSeries.from_coefficients(g, {
        2: sample_expression("1 + x*y", g),
        3: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", g)})
    for f in (bump_trace(g, 0.6, 0.3, 0.1), bump_trace(g, 1.2, 0.5, -0.1),
              bump_trace(g, 0.5, 0.4, 0.01)):
        sample = dtn_apply(P, f, mask, g)
        u, iterations = pcg_newton(P, f, g)
        ref = normal_derivative(u, g)
        ref[~mask.flags] = 0.0
        assert sample.report.iterations == iterations
        assert np.max(np.abs(sample.output - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_masking_commutes_with_solving():
    g = make_grid(16)
    mask = arc_mask(g, 0.25, 1.75)
    f = bump_trace(g, 1.0, 0.3, 0.05)
    full = dtn_apply(PotentialSeries.zero(g), f, full_mask(g), g).output
    masked = dtn_apply(PotentialSeries.zero(g), f, mask, g).output
    full[~mask.flags] = 0.0
    assert np.array_equal(full, masked)


def test_bump_profile_shape():
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(1.0)
    assert bump_profile(np.array([1.0]))[0] == 0.0
    assert bump_profile(np.array([-2.0]))[0] == 0.0
    t = np.linspace(-0.99, 0.99, 101)
    vals = bump_profile(t)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_bump_trace_support_and_wrap():
    g = make_grid(16)
    f = bump_trace(g, 0.5, 0.25, 1.0)
    s = g.boundary_s
    assert not f[np.abs(s - 0.5) >= 0.25].any()
    assert f[s == 0.5][0] == pytest.approx(1.0)
    wrapped = bump_trace(g, 0.0, 0.3, 1.0)  # support crosses the walk origin
    assert wrapped[0] == pytest.approx(1.0)
    assert wrapped[-1] > 0.0
    for width in (float("nan"), 0.0, -0.1):
        with pytest.raises(ValueError, match="width"):
            bump_trace(g, 0.5, width, 1.0)


def test_measurement_noise_contract(monkeypatch):
    # sigma 0 is the simulator's output; sigma > 0 adds seeded noise in call
    # order, fresh at each call, and keeps the nodes off the arc at zero
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    P = PotentialSeries.from_coefficients(g, {2: np.ones(g.num_nodes)})
    f = bump_trace(g, 1.0, 0.4, 0.05)
    clean = dtn_apply(P, f, mask, g).output
    assert np.array_equal(measurement(P, mask, g, 0.0, 5)(f), clean)
    noisy = measurement(P, mask, g, 1e-3, 7)
    a, a_next = noisy(f), noisy(f)
    assert np.array_equal(a, measurement(P, mask, g, 1e-3, 7)(f))
    assert not np.array_equal(a, clean)
    assert not np.array_equal(a, a_next)
    assert not a[~mask.flags].any() and not a_next[~mask.flags].any()
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            measurement(P, mask, g, sigma)
    # a device built earlier sees a wrapper installed at dtn.dtn_apply later,
    # which is how a tracer counts measurements
    device, calls = measurement(P, mask, g), []
    monkeypatch.setattr(dtn, "dtn_apply", lambda *args: calls.append(args) or dtn_apply(*args))
    assert np.array_equal(device(f), clean) and len(calls) == 1


def test_check_support_exact_zero_required():
    g = make_grid(8)
    mask = arc_mask(g, 0.0, 1.0)
    f = np.zeros(g.num_boundary)
    f[-1] = 1e-300
    with pytest.raises(SupportError):
        check_support(f, mask, g)

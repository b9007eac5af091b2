import numpy as np
import pytest

from five_point import slice_stencil
from semidtn.geometry import arc_mask, boundary_integral, full_mask, make_grid
from semidtn.harmonic import arc_supported_family


def test_single_member_centered_in_arc():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 1.0)
    fam = arc_supported_family(mask, 1, g)
    assert len(fam) == 1
    trace = fam[0].trace
    s = g.boundary_s
    peak = s[np.argmax(trace)]
    assert peak == pytest.approx(0.5, abs=g.h)
    assert not trace[(s >= 1.0)].any()


def test_members_are_discrete_harmonic():
    g = make_grid(16)
    mask = arc_mask(g, 0.5, 2.5)
    fam = arc_supported_family(mask, 6, g)
    for member in fam:
        res = slice_stencil(member.field, g)
        assert g.h * np.linalg.norm(res) <= 1e-9


def test_traces_vanish_off_arc_exactly():
    g = make_grid(32)
    mask = arc_mask(g, 1.0, 3.0)
    fam = arc_supported_family(mask, 8, g)
    for member in fam:
        assert not member.trace[~mask.flags].any()


def test_requested_count_and_deterministic_order():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam1 = arc_supported_family(mask, 5, g)
    fam2 = arc_supported_family(mask, 5, g)
    assert len(fam1) == 5
    for a, b in zip(fam1, fam2):
        assert a.provenance == b.provenance
        assert np.array_equal(a.field, b.field)


def test_disjoint_bump_traces_are_orthogonal():
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 8, g)
    s = g.boundary_s
    supports = [set(np.nonzero(m.trace)[0]) for m in fam]
    found = False
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            if not supports[i] & supports[j]:
                found = True
                prod = fam[i].trace * fam[j].trace
                assert boundary_integral(prod, full_mask(g), g) == 0.0
    assert found, "family should contain at least one disjoint pair"


def test_arc_too_small_rejected():
    g = make_grid(8)
    tiny = arc_mask(g, 0.0, 0.3)
    with pytest.raises(ValueError):
        arc_supported_family(tiny, 2, g)


def test_low_degree_polynomials_stencil_exact():
    # real and imaginary parts of (x + iy)^d for d <= 2
    g = make_grid(8)
    x, y = g.node_coords()
    for field in (np.ones(g.num_nodes), x, y, x * x - y * y, 2 * x * y):
        assert np.max(np.abs(slice_stencil(field, g))) <= 1e-9


def test_mean_value_identity_from_harmonicity():
    # the stencil identity: each interior value equals the average of its four
    # neighbors, a restatement of discrete harmonicity
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 2.0)
    fam = arc_supported_family(mask, 2, g)
    u = fam[0].field.reshape(17, 17)
    avg = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]) / 4.0
    assert np.max(np.abs(u[1:-1, 1:-1] - avg)) <= 1e-10


def test_member_arrays_are_read_only():
    # an in-place product that aliases a member raises instead of changing
    # the family under a run
    g = make_grid(16)
    member = arc_supported_family(arc_mask(g, 0.0, 2.0), 2, g)[0]
    for a in (member.field, member.trace):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0

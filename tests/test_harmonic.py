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


# (s0, s1, count) -> provenance of each member at n = 32: wide (arc/4) at
# even index, narrow (arc/8) at odd, centers increasing within each scale
PLACEMENT = {
    (0.0, 2.0, 1): ["bump(center=1,width=0.5)"],
    (0.0, 2.0, 2): ["bump(center=1,width=0.5)", "bump(center=1,width=0.25)"],
    (0.0, 2.0, 5): ["bump(center=0.666667,width=0.5)", "bump(center=0.625,width=0.25)",
                    "bump(center=1,width=0.5)", "bump(center=1.375,width=0.25)",
                    "bump(center=1.33333,width=0.5)"],
    (0.0, 2.0, 12): ["bump(center=0.583333,width=0.5)", "bump(center=0.375,width=0.25)",
                     "bump(center=0.75,width=0.5)", "bump(center=0.625,width=0.25)",
                     "bump(center=0.916667,width=0.5)", "bump(center=0.875,width=0.25)",
                     "bump(center=1.08333,width=0.5)", "bump(center=1.125,width=0.25)",
                     "bump(center=1.25,width=0.5)", "bump(center=1.375,width=0.25)",
                     "bump(center=1.41667,width=0.5)", "bump(center=1.625,width=0.25)"],
    (0.0, 4.0, 1): ["bump(center=2,width=1)"],
    (0.0, 4.0, 2): ["bump(center=2,width=1)", "bump(center=2,width=0.5)"],
    (0.0, 4.0, 5): ["bump(center=1.33333,width=1)", "bump(center=1.25,width=0.5)",
                    "bump(center=2,width=1)", "bump(center=2.75,width=0.5)",
                    "bump(center=2.66667,width=1)"],
    (0.0, 4.0, 12): ["bump(center=1.16667,width=1)", "bump(center=0.75,width=0.5)",
                     "bump(center=1.5,width=1)", "bump(center=1.25,width=0.5)",
                     "bump(center=1.83333,width=1)", "bump(center=1.75,width=0.5)",
                     "bump(center=2.16667,width=1)", "bump(center=2.25,width=0.5)",
                     "bump(center=2.5,width=1)", "bump(center=2.75,width=0.5)",
                     "bump(center=2.83333,width=1)", "bump(center=3.25,width=0.5)"],
    (3.5, 5.0, 1): ["bump(center=0.25,width=0.375)"],
    (3.5, 5.0, 2): ["bump(center=0.25,width=0.375)", "bump(center=0.25,width=0.1875)"],
    (3.5, 5.0, 5): ["bump(center=0,width=0.375)", "bump(center=3.96875,width=0.1875)",
                    "bump(center=0.25,width=0.375)", "bump(center=0.53125,width=0.1875)",
                    "bump(center=0.5,width=0.375)"],
    (3.5, 5.0, 12): ["bump(center=3.9375,width=0.375)", "bump(center=3.78125,width=0.1875)",
                     "bump(center=0.0625,width=0.375)", "bump(center=3.96875,width=0.1875)",
                     "bump(center=0.1875,width=0.375)", "bump(center=0.15625,width=0.1875)",
                     "bump(center=0.3125,width=0.375)", "bump(center=0.34375,width=0.1875)",
                     "bump(center=0.4375,width=0.375)", "bump(center=0.53125,width=0.1875)",
                     "bump(center=0.5625,width=0.375)", "bump(center=0.71875,width=0.1875)"],
}


@pytest.mark.parametrize("s0, s1, count", list(PLACEMENT))
def test_bump_placement_by_index(s0, s1, count):
    # which bump sits at which index, the wrapping arc [3.5, 5.0) included
    g = make_grid(32)
    fam = arc_supported_family(arc_mask(g, s0, s1), count, g)
    assert [m.provenance for m in fam] == PLACEMENT[s0, s1, count]


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

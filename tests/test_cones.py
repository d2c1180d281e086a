from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from kvwb.cones import (PolyhedralCone, cone, dual_cone, halfspace_cone_rays,
                        is_self_dual, is_weakly_self_dual)
from kvwb.linalg import dot, identity, mat_vec
import reference_kernels as oracle
from reference_kernels import is_order_isomorphism, polytope_hrep

ORTHANT3 = cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def rational_rng_cone(rng, d, k):
    gens = []
    for _ in range(k):
        g = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d)]
        if any(x != 0 for x in g):
            gens.append(g)
    return cone(gens) if gens else cone([[F(1)] + [F(0)] * (d - 1)])


def test_orthant_self_dual_exact():
    rep = is_self_dual(ORTHANT3, identity(3))
    assert rep.self_dual
    assert rep.pairwise_min == 0
    assert not rep.failures


def test_zero_cone_of_r0_is_self_dual():
    """No generators: no pair to bound, and the dual of {0} in R^0 is {0}."""
    rep = is_self_dual(PolyhedralCone((), ambient=0), [])
    assert rep.self_dual
    assert (rep.pairwise_min, rep.pairwise_argmin, rep.failures) == \
        (None, (), [])


def test_zero_cone_of_r2_is_not_self_dual():
    """Its dual is all of R^2: a line in each axis, none of it in {0}."""
    rep = is_self_dual(PolyhedralCone((), ambient=2), identity(2))
    assert not rep.self_dual
    assert rep.pairwise_min is None
    assert [f["kind"] for f in rep.failures] == ["dual-ray-outside-cone"] * 4


def test_dual_of_orthant_is_orthant():
    D = dual_cone(ORTHANT3, identity(3))
    eq, _ = oracle.cone_equal(D, ORTHANT3)
    assert eq


def test_halfspace_enumeration_square_cone():
    # x >= 0, y >= 0, z >= x + y  has four extreme rays
    cons = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(-1), F(-1), F(1)]]
    lin, rays = halfspace_cone_rays(cons, 3)
    assert not lin
    K = PolyhedralCone(tuple(tuple(r) for r in rays))
    for r in rays:
        assert all(dot(c, r) >= 0 for c in cons)
    assert len(K.rays) == 3


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def constraint_sets(draw):
    """Up to 10 rational constraints on d <= 5 unknowns, with zero rows and
    positive and negative multiples of earlier rows mixed in, so that
    lineality appears and constraints repeat."""
    d = draw(st.integers(0, 5))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        how = draw(st.sampled_from(("fresh", "fresh", "zero", "again")))
        if how == "zero":
            rows.append([F(0)] * d)
        elif how == "fresh" or not rows:
            rows.append(draw(st.lists(small, min_size=d, max_size=d)))
        else:
            c = draw(st.sampled_from((1, 2, F(1, 3), -1, -2, F(-1, 3))))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return rows, d


@settings(max_examples=400, deadline=None)
@given(constraint_sets())
def test_double_description_is_the_fraction_sweep(case):
    """The integer sweep returns the `Fraction` sweep's rays, and its
    lineality made primitive, in the same order, as integers."""
    rows, d = case
    lin, rays = halfspace_cone_rays(rows, d)
    want_lin, want_rays = oracle.halfspace_cone_rays(rows, d)
    assert [list(r) for r in rays] == want_rays
    assert [list(l) for l in lin] == \
        [list(oracle.ray_primitive(l)) for l in want_lin]
    assert all(type(x) is int for v in lin + rays for x in v)


def test_dual_of_dual_random_suite():
    """100 random rational cones, d <= 5, <= 8 generators: K** == K exactly,
    and membership certificates re-verify by substitution."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 9))
        K = rational_rng_cone(rng, d, k)
        D = dual_cone(K)
        DD = dual_cone(D)
        eq, detail = oracle.cone_equal(DD, K)
        assert eq, (trial, detail)

        inside = [sum(g[i] for g in K.all_generators()) for i in range(d)]
        res = oracle.cone_contains(K, inside)
        assert res.feasible
        rec = [sum(c * g[i] for c, g in zip(res.point, K.all_generators()))
               for i in range(d)]
        assert rec == inside

        probe = [F(int(rng.integers(-6, 7))) for _ in range(d)]
        out = oracle.cone_contains(K, probe)
        if not out.feasible:
            f = out.farkas
            assert all(dot(f, g) >= 0 for g in K.all_generators())
            assert dot(f, probe) < 0


def test_pointedness():
    assert ORTHANT3.pointed
    line = cone([[1, 0], [-1, 0], [0, 1]])
    assert not line.pointed


def test_polytope_hrep_unit_square():
    verts = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    ineqs, eqs = polytope_hrep(verts)
    assert not eqs
    assert len(ineqs) == 4
    for a, c in ineqs:
        assert all(dot(a, v) + c >= 0 for v in verts)
        assert any(dot(a, v) + c == 0 for v in verts)


def test_pentagonish_cone_not_self_dual():
    # rational points roughly on a regular pentagon, lifted to height 1:
    # the polar pentagon is rotated by pi/5, so identity self-duality fails
    ring = [(F(1), F(0)), (F(3, 10), F(19, 20)), (F(-4, 5), F(3, 5)),
            (F(-4, 5), F(-3, 5)), (F(3, 10), F(-19, 20))]
    K = cone([[x, y, F(1)] for x, y in ring])
    rep = is_self_dual(K, identity(3))
    assert not rep.self_dual
    bad = [f for f in rep.failures if f["kind"] == "dual-ray-outside-cone"]
    assert bad
    ray, f = bad[0]["ray"], bad[0]["separating"]
    assert all(dot(f, g) >= 0 for g in K.all_generators())
    assert dot(f, ray) < 0


def test_weak_self_duality_of_square_cone():
    # cone over the unit square is linearly isomorphic to its dual even
    # though it is not equal to it under this inner product
    sq = cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    B = identity(3)
    assert not is_self_dual(sq, B).self_dual
    rep = is_weakly_self_dual(sq, dual_cone(sq, B))
    assert rep.status == "yes"
    T = rep.map
    chk = is_order_isomorphism(T, sq, dual_cone(sq, B))
    assert chk.order_iso


def test_weak_self_duality_reads_the_rays_of_any_dual():
    """A dual given by `cone`, whose extreme rays are not set, is read by
    its rays as `dual_cone`'s is: the orthant is weakly self-dual."""
    K = cone([[1, 0], [0, 1]])
    for D in (cone([[1, 0], [0, 1]]), dual_cone(K)):
        rep = is_weakly_self_dual(K, D)
        assert rep.status == "yes", rep.notes


def test_product_with_dual_swap_is_order_iso():
    """K x K* swaps onto its dual: the standard weakly-self-dual example."""
    sq = cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    dsq = dual_cone(sq)
    prod_gens = [list(g) + [F(0)] * 3 for g in sq.all_generators()] + \
                [[F(0)] * 3 + list(g) for g in dsq.all_generators()]
    P = cone(prod_gens)
    swap = [[F(0)] * 3 + [F(int(i == j)) for j in range(3)] for i in range(3)] + \
           [[F(int(i == j)) for j in range(3)] + [F(0)] * 3 for i in range(3)]
    chk = is_order_isomorphism(swap, P, dual_cone(P))
    assert chk.order_iso

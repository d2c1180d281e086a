import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kvwb.builtins import (builtin_names, classical, get_builtin, squit,
                           squit_klein)
from kvwb import models
from kvwb.lp import cone_membership
from kvwb.models import TestSpace as TSpace
from kvwb.models import (ImageError, Model, ModelError, PermutationGroup,
                         PolytopeBackend, assess_all_candidates,
                         check_bisymmetry, distinguishable, find_nontrivial_images,
                         image_model, is_sharp, perm_compose, perm_inverse,
                         set_partitions, validate_model)
import reference_kernels as oracle
from reference_groups import mulclose, ordered_orbit


def paired_classical4():
    """Four-outcome single test whose group is generated by the two swaps
    and the block exchange, so the pairwise identification is a congruence."""
    outs = ("a", "b", "c", "d")
    verts = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    gens = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1))
    return Model("classical4-paired", TSpace(outs, (outs,)),
                 PolytopeBackend(verts), PermutationGroup(gens))


# --- groups ---------------------------------------------------------------

def test_mulclose_s3():
    gens = ((1, 0, 2), (0, 2, 1))
    assert len(mulclose(gens)) == 6


def test_perm_algebra():
    p = (1, 2, 0)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


# --- validation and structural checks -------------------------------------

def test_builtin_models_validate():
    for name in ("classical:2", "classical:5", "squit", "squit:klein"):
        rep = validate_model(get_builtin(name))
        assert rep.ok, (name, rep.problems)


def test_bad_model_rejected():
    outs = ("a", "b")
    verts = ((F(1), F(1)),)     # not normalized on the test
    m = Model("bad", TSpace(outs, (outs,)), PolytopeBackend(verts),
              PermutationGroup(((0, 1),)))
    rep = validate_model(m)
    assert not rep.ok


def test_distinguishable_pairs():
    m = classical(3)
    assert distinguishable(m, "e0", "e1")
    s = squit()
    assert distinguishable(s, "x0", "x1")
    assert not distinguishable(s, "x0", "y0")


def test_bisymmetry_verdicts():
    assert check_bisymmetry(classical(3)).bisymmetric is True
    assert check_bisymmetry(squit()).bisymmetric is True
    assert check_bisymmetry(squit_klein()).bisymmetric is False


def _three_cycle(k: int, n: int) -> tuple[int, ...]:
    """The 3-cycle (0 1 k) on range(n)."""
    p = list(range(n))
    p[0], p[1], p[k] = 1, k, 0
    return tuple(p)


def test_bisymmetry_is_decided_at_every_size():
    # 12! orderings of the one test: the stabilizer chain decides full
    # bi-symmetry without walking them
    rep = check_bisymmetry(classical(12))
    assert rep.bisymmetric is True
    assert rep.fully_bisymmetric is True
    assert rep.notes == []
    # A_12, generated by the 3-cycles (0 1 k), reaches half the orderings
    c = classical(12)
    alt = Model("classical:12/alt", c.testspace, c.states,
                PermutationGroup(tuple(_three_cycle(k, 12)
                                       for k in range(2, 12))))
    rep = check_bisymmetry(alt)
    assert rep.bisymmetric is True
    assert rep.fully_bisymmetric is False
    assert rep.notes == []


def test_bisymmetry_decided_below_the_orbit_limit():
    # a transposition alone: an orbit of two orderings, decided at once
    c = classical(10)
    swap = (1, 0) + tuple(range(2, 10))
    m = Model("classical:10/swap", c.testspace, c.states,
              PermutationGroup((swap,)))
    rep = check_bisymmetry(m)
    assert rep.fully_bisymmetric is False
    assert rep.notes == []
    assert check_bisymmetry(classical(8)).fully_bisymmetric is True


@st.composite
def group_and_base(draw):
    """0-3 generators of a subgroup of S_n (n <= 7, the identity among the
    choices) and a tuple of distinct points."""
    n = draw(st.integers(1, 7))
    perm = st.one_of(st.just(tuple(range(n))),
                     st.permutations(range(n)).map(tuple))
    gens = draw(st.lists(perm, max_size=3))
    base = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return gens, n, base


@settings(max_examples=150, deadline=None)
@given(group_and_base())
def test_basic_orbit_lengths_match_the_orbit_walk(case):
    gens, n, base = case
    lengths = models._basic_orbit_lengths(gens, n, base)
    assert math.prod(lengths[:len(base)]) == len(ordered_orbit(gens, base))
    assert math.prod(lengths) == (len(mulclose(gens)) if gens else 1)


def test_sharpness():
    assert is_sharp(classical(4)).sharp
    rep = is_sharp(squit())
    assert not rep.sharp
    assert rep.witness["outcome"] == "x0"
    assert len(rep.witness["certain_states"]) == 2


# --- images ---------------------------------------------------------------

def test_pairwise_collapse_is_the_bit():
    m4 = paired_classical4()
    omap = {"a": "c0", "b": "c0", "c": "c1", "d": "c1"}
    q = image_model(m4, omap)
    assert q.states.vertices == ((F(1), F(0)), (F(0), F(1)))
    relab = oracle.models_isomorphic(q, classical(2))
    assert relab is not None


def test_image_vertices_are_fractions():
    """The image states are exact: the double description hands back
    integer rays, and each vertex is one of them over its last entry."""
    omap = {"a": "c0", "b": "c0", "c": "c1", "d": "c1"}
    q = image_model(paired_classical4(), omap)
    assert q.states.vertices
    assert all(type(x) is F for v in q.states.vertices for x in v)


def test_collapse_pullbacks_live_in_the_state_cone():
    m4 = paired_classical4()
    omap = {"a": "c0", "b": "c0", "c": "c1", "d": "c1"}
    q = image_model(m4, omap)
    src_verts = [list(v) for v in m4.states.vertices]
    for i in range(len(q.states.vertices)):
        beta = q.vertex_dict(i)
        vec = [beta[omap[x]] for x in m4.outcomes]
        assert cone_membership(vec, src_verts).feasible
    # the bit vertex pulls back to delta_a + delta_b: mass 2, not a state
    beta = q.vertex_dict(0)
    assert sum(beta[omap[x]] for x in m4.outcomes) == 2


def test_image_search_classical4():
    m4 = paired_classical4()
    found = find_nontrivial_images(m4)
    assert [c.partition for c in found] == [(("a", "b"), ("c", "d"))]
    verdicts = {c.partition: c.verdict for c in assess_all_candidates(m4)}
    assert verdicts[(("a", "b", "c", "d"),)] == "trivial-image"
    assert verdicts[(("a", "c"), ("b", "d"))] == "not-a-congruence"


def test_image_search_full_s4_has_none():
    assert find_nontrivial_images(classical(4)) == []


def test_klein_squit_has_two_bit_images():
    mk = squit_klein()
    found = find_nontrivial_images(mk)
    parts = sorted(c.partition for c in found)
    assert parts == [(("x0", "y0"), ("x1", "y1")), (("x0", "y1"), ("x1", "y0"))]
    for c in found:
        omap = {x: f"c{bi}" for bi, b in enumerate(c.partition) for x in b}
        q = image_model(mk, omap)
        assert oracle.models_isomorphic(q, classical(2)) is not None
        assert len(q.tests) == 1


def test_full_squit_group_blocks_images():
    assert find_nontrivial_images(squit()) == []


def test_quantum_builtins_have_no_nontrivial_images():
    for name in ("qubit:real", "qubit:complex"):
        m = get_builtin(name)
        assert find_nontrivial_images(m) == []
        verdicts = {c.verdict for c in assess_all_candidates(m)}
        assert verdicts <= {"not-a-congruence", "trivial-image",
                            "unequal-image-tests"}


def test_image_search_needs_a_finite_group():
    m = get_builtin("qubit:real")
    m = Model(m.name, m.testspace, m.states, m.group)     # no sample group
    for search in (find_nontrivial_images, assess_all_candidates):
        with pytest.raises(ModelError, match="finite outcome symmetry group"):
            search(m)


def test_unknown_psd_search_gives_its_own_verdict():
    """No density-matrix pullback is searched for, so a quantum quotient
    that passes the quotient checks is undecided, not an image."""
    m = get_builtin("qubit:real")
    identity = {x: x for x in m.outcomes}
    assert not isinstance(models._quotient(m, m.sample_symmetries, identity),
                          str)
    assert models._assess_candidate(m, m.sample_symmetries, identity) == \
        "psd-pullback-unknown"


@pytest.mark.parametrize("name", [
    *(n for n in builtin_names()
      if isinstance(get_builtin(n).states, PolytopeBackend)),
    "gbit:3", "gbit:4", "paired"])
def test_image_model_builds_exactly_the_image_verdicts(name):
    """`image_model` and the search share one quotient: it builds an image
    for each candidate whose verdict is "image" and raises `ImageError`,
    naming the verdict, for every other one."""
    m = paired_classical4() if name == "paired" else get_builtin(name)
    for c in assess_all_candidates(m):
        omap = {x: f"c{bi}" for bi, b in enumerate(c.partition) for x in b}
        if c.verdict == "image":
            q = image_model(m, omap)
            assert validate_model(q).ok and len(q.outcomes) == len(c.partition)
        else:
            with pytest.raises(ImageError, match=c.verdict):
                image_model(m, omap)


def test_torn_fibre_raises():
    m4 = classical(4)      # full S4: the pairing tears under (b c)
    omap = {"e0": "c0", "e1": "c0", "e2": "c1", "e3": "c1"}
    with pytest.raises(ModelError):
        image_model(m4, omap)


def test_set_partitions_count():
    assert sum(1 for _ in set_partitions(list("abcd"))) == 15   # Bell number


def test_models_isomorphic_negative():
    assert oracle.models_isomorphic(classical(2), classical(3)) is None
    assert oracle.models_isomorphic(squit(), classical(4)) is None

"""The broadcast builder of packed symmetric rows equals the loops it
replaced, kept in `reference_kernels`: the invariance rows M^T S M - S, the
pairing rows x^T S y and the unpacking of a packed vector.  Exact rows must
hold the same `Fraction`s (exact invariance rows: the same rationals times
s², as integers), float rows the same bits, signed zeros included.
"""
import math
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb.forms import _packed_rows, _unpack, invariance_rows
from kvwb.linalg import _Kind

small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
# zeros of both signs, so that products and sums can give -0.0
floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-3, 3, allow_nan=False, allow_infinity=False))


def assert_same_exact(new, old):
    assert np.shape(new) == np.shape(old)
    assert all(type(x) is F for x in np.ravel(new))
    assert np.asarray(new).tolist() == np.asarray(old, dtype=object).tolist()


def assert_same_floats(new, old):
    old = np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def matrices(entries, dim):
    return st.lists(st.lists(entries, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), n_actions=st.integers(0, 3),
       exact=st.booleans())
def test_invariance_rows_match_the_loops(data, dim, n_actions, exact):
    K = _Kind("exact" if exact else "float")
    entries = small if exact else floats
    actions = [K.array(data.draw(matrices(entries, dim)))
               for _ in range(n_actions)]
    rows = invariance_rows([K.scaled(M) for M in actions], dim,
                           "exact" if exact else "float")
    # exact rows are integers: s² times the oracle's, s the common
    # denominator of the action
    scale = [math.lcm(*(x.denominator for x in M.flat)) ** 2 if exact
             else 1 for M in actions]
    old = [[s * x for x in row] for M, s in zip(actions, scale)
           for row in oracle._invariance_rows(M if not exact else M.tolist(),
                                              dim, exact)]
    old = np.reshape(np.array(old, dtype=object if exact else float),
                     (-1, dim * (dim + 1) // 2))
    if exact:
        assert all(type(x) is int for x in np.ravel(rows))
        assert rows.shape == old.shape and rows.tolist() == old.tolist()
    else:
        assert_same_floats(rows, old)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), n_pairs=st.integers(1, 4),
       exact=st.booleans())
def test_pairing_rows_match_the_loops(data, dim, n_pairs, exact):
    K = _Kind("exact" if exact else "float")
    vec = st.lists(small if exact else floats, min_size=dim, max_size=dim)
    X, Y = (K.array(data.draw(st.lists(vec, min_size=n_pairs,
                                       max_size=n_pairs)))
            for _ in range(2))
    rows = _packed_rows(X, Y)
    old = [oracle._pairing_row(list(x), list(y), dim, exact)
           for x, y in zip(X, Y)]
    (assert_same_exact if exact else assert_same_floats)(
        rows, np.array(old, dtype=object if exact else float))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), exact=st.booleans())
def test_unpack_matches_the_loop(data, dim, exact):
    K = _Kind("exact" if exact else "float")
    n = dim * (dim + 1) // 2
    v = K.array(data.draw(st.lists(small if exact else floats,
                                   min_size=n, max_size=n)))
    S = _unpack(v, dim, K)
    old = oracle._unpack(list(v), dim, exact)
    if exact:
        assert isinstance(S, list)
        assert_same_exact(S, old)
    else:
        assert_same_floats(S, old)

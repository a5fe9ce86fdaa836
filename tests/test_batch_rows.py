"""The batch forms of the sum, the norm and the ball projection, held to
the point path and to numpy's bits.

`sets.row_sum` evaluates `sets.sum_source` on the columns of an array, and
`row_dot` and `row_norm` are its sums of products.  Each row must keep the
bits of `sum_source` evaluated on its floats, the point path, and of
numpy's `add.reduce` on a C-ordered array, up to the sign of a sum of zeros,
at every n and in particular around numpy's pairwise splits (8, 128 and
2 * 128 terms).  A single vector (n,) is added, and squared for its norm,
on Python floats, and must keep the bits of its row of a (1, n) batch, up
to the sign of a NaN, without numpy's warnings.  `row_norm` must equal
`np.linalg.norm` of the C-ordered array bit for bit, on any shape (..., n)
and any layout.  `Ball.project` runs one column at a time;
`broadcast_ball_reference`, the broadcasting form it replaced, is kept here
so that the new form is held to its bits at every n.  A column-major batch
has the bits of its C-ordered copy.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestpair import Ball, Family, project_intersection, shlwb_project
from bestpair.sets import PAIRWISE_BLOCK, row_dot, row_norm, row_sum, sum_source

SPLITS = [m + k for m in (PAIRWISE_BLOCK, 2 * PAIRWISE_BLOCK) for k in (-1, 0, 1)]
DIMS = st.one_of(st.integers(1, 40), st.sampled_from(SPLITS))
# (n,), (0, n), (m, n) and (K, m, n)
LEADS = st.one_of(
    st.just(()), st.just((0,)), st.tuples(st.integers(1, 64)),
    st.tuples(st.integers(1, 3), st.integers(1, 16)),
)
SPECIALS = st.sampled_from([None, np.inf, -np.inf, np.nan, -np.nan])


def same_bits(a, b):
    """Equal arrays down to the sign of zero and the bits of NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scatter_special(rng, x, value, share=0.3):
    """x with `value` at one random coordinate of about `share` of its rows."""
    if value is None or not x.size:
        return x
    rows = x.reshape(-1, x.shape[-1])
    hit = np.flatnonzero(rng.random(len(rows)) < share)
    rows[hit, rng.integers(0, x.shape[-1], hit.size)] = value
    return rows.reshape(x.shape)


@st.composite
def row_batches(draw):
    """Rows of signed entries in [-1, 1] with signed zeros, each row scaled
    by 10^e for an e in [-150, 150], and maybe an inf or NaN in some rows."""
    n, lead = draw(DIMS), draw(LEADS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.uniform(-1.0, 1.0, lead + (n,))
    zeros = rng.random(d.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    d[zeros] = np.copysign(0.0, rng.uniform(-1.0, 1.0, int(zeros.sum())))
    d *= 10.0 ** rng.integers(-150, 151, lead + (1,))
    return scatter_special(rng, d, draw(SPECIALS))


@settings(max_examples=400, deadline=None)
@given(row_batches())
def test_row_norm_equals_linalg_norm(d):
    with np.errstate(invalid="ignore"):
        expected = np.linalg.norm(d, axis=-1)
        got = row_norm(d)
    assert same_bits(got, expected)


def test_row_norm_on_views_and_every_split():
    """Contiguous rows, strided and column-major views, at every n of the
    hypothesis test, each with the bits of its C-ordered copy."""
    rng = np.random.default_rng(7)
    for n in [*range(1, 41), *SPLITS]:
        base = rng.standard_normal((64, 2 * n)) * 10.0 ** rng.integers(-20, 21, (64, 1))
        views = base[:, :n], base[:, ::2], base[::2, :n], np.asfortranarray(base[:, :n])
        for d in views:
            assert same_bits(row_norm(d), np.linalg.norm(np.ascontiguousarray(d), axis=-1)), n


@lru_cache
def point_sum(n):
    """`sum_source` of n terms as a function of n Python floats: the sum of
    a point in a point kernel."""
    terms = [f"t{j}" for j in range(n)]
    return eval(f"lambda {', '.join(terms)}: {sum_source(terms)}")


@settings(max_examples=400, deadline=None)
@given(row_batches(), st.integers(0, 2**32 - 1))
def test_row_sum_and_row_dot_follow_the_point_path(d, seed):
    """Bit for bit the point path on every row; and numpy's `add.reduce` once
    the sum is added to 0.0, as numpy adds it, which turns -0.0 into 0.0."""
    n = d.shape[-1]
    v = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    v[:: max(1, n // 3)] *= -0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for terms, got in ((d, row_sum(d)), (d * v, row_dot(d, v))):
            rows = terms.reshape(-1, n).tolist()
            expected = np.array([point_sum(n)(*row) for row in rows], dtype=float)
            assert same_bits(got, expected.reshape(d.shape[:-1]))
            assert same_bits(got + 0.0, np.add.reduce(terms, axis=-1))


# entries of a single vector, beside standard normal ones: signed zeros,
# subnormals, NaN and magnitudes whose sums and products overflow to inf
SINGLE_VECTOR_ENTRIES = {
    "signed-zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.0, -0.0],
    "nan": [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0],
    "overflow": [1.7e308, -1.7e308, 1e308, 1e200],
}


def same_sum(a, b):
    """Equal bits, or both NaN: where two NaNs of opposite sign meet, the
    sum takes the sign of the operand the compiled addition reads first,
    which CPython's floats and numpy's loops read in different orders."""
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("kind", SINGLE_VECTOR_ENTRIES)
def test_a_single_vector_sums_as_its_batch_row(kind):
    """`row_sum`, `row_dot` and `row_norm` add a vector (n,) on Python
    floats, `row_norm` its squares too: a `np.float64` with the bits of the
    vector's row of a (1, n) batch, and no warning or exception where numpy
    warns on the batch."""
    rng = np.random.default_rng(len(kind))
    specials = np.array(SINGLE_VECTOR_ENTRIES[kind])
    for n in range(1, 41):
        for _ in range(20):
            a = np.where(rng.random(n) < 0.5, rng.choice(specials, n), rng.standard_normal(n))
            v = np.where(rng.random(n) < 0.5, rng.choice(specials, n), rng.standard_normal(n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = row_sum(a), row_dot(a, v), row_norm(a)
            with np.errstate(all="ignore"):
                expected = row_sum(a[None])[0], row_dot(a[None], v)[0], row_norm(a[None])[0]
            for g, e in zip(got, expected):
                assert type(g) is np.float64
                assert same_sum(g, e), (n, a, v)


def test_a_single_vector_norm_overflows_to_inf_without_a_warning():
    """Squares that overflow give inf, and no entries give 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert row_norm(np.array([1e308, 1e308])) == np.inf
        assert row_norm(np.array([1e200, -1e200, 1.0])) == np.inf
    assert row_norm(np.zeros(0)) == 0.0


def broadcast_ball_reference(ball, x):
    """`Ball.project` as it was written before it ran one column at a time:
    the centre and the (N, 1) scale broadcast across the rows."""
    d = x - ball.center
    n = np.linalg.norm(d, axis=-1, keepdims=True)
    outside = n > ball.radius
    scale = np.where(outside, ball.radius / np.where(outside, n, 1.0), 1.0)
    return np.where(outside, ball.center + d * scale, x)


@st.composite
def balls_and_rows(draw):
    """A ball with an integer centre and radius, so that centre + radius * e_k
    lies exactly on its sphere, or with float ones, and a batch of rows
    inside, on the sphere, at the centre, outside and far out, maybe with
    inf or NaN coordinates."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        center = rng.integers(-5, 6, n).astype(float)
        radius = float(rng.integers(1, 8))
    else:
        center = rng.uniform(-10.0, 10.0, n)
        radius = float(rng.uniform(0.01, 5.0))
    m = draw(st.integers(1, 12))
    g = rng.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    factor = rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-15, 2.0, 1e6], m)
    rows = [center + radius * factor[:, None] * g]
    rows.append(center + radius * np.eye(n)[rng.integers(0, n, m)])  # the sphere
    rows.append(np.repeat(center[None], 2, axis=0))  # the centre
    x = np.concatenate(rows)
    x[rng.random(x.shape) < 0.1] *= -0.0
    x = scatter_special(rng, x, draw(SPECIALS), share=0.2)
    shape = draw(st.sampled_from(["single", "rows", "stacked", "fortran"]))
    if shape == "single":
        x = x[0]
    elif shape == "stacked" and len(x) % 2 == 0:
        x = x.reshape(2, -1, n)
    elif shape == "fortran":
        x = np.asfortranarray(x)
    return Ball(center, radius), x


@settings(max_examples=400, deadline=None)
@given(balls_and_rows())
def test_ball_project_equals_broadcast_form(case):
    ball, x = case
    # an infinite coordinate makes inf * 0 on both sides
    with np.errstate(invalid="ignore"):
        expected = broadcast_ball_reference(ball, np.ascontiguousarray(x))
        got = ball.project(x)
    assert same_bits(got, expected)


@pytest.mark.parametrize("n", [8, 10, 20])
def test_fortran_batch_has_the_bits_of_its_c_batch(n):
    """numpy reduces the rows of a column-major batch in order, not
    pairwise; `row_sum` adds columns, so both layouts give the same bits."""
    rng = np.random.default_rng(n)
    x = 3.0 * rng.standard_normal((200, n))
    fx = np.asfortranarray(x)
    ball = Ball(np.zeros(n), 2.0)
    family = Family((ball, Ball(np.eye(n)[0], 2.0)))
    assert same_bits(ball.project(fx), ball.project(x))
    assert same_bits(project_intersection(family, fx), project_intersection(family, x))
    assert same_bits(shlwb_project(family, fx, tol=1e-2), shlwb_project(family, x, tol=1e-2))

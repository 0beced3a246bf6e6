"""GF(2) linear algebra kernel, checked against a dense list-of-lists
reference written here. Kernels are ``kernel_bits`` and solutions a tagged
``Echelon.reduce``, the two forms the package uses."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perscert.categories import F2VEC
from perscert.gf2 import Echelon, GF2Matrix, _matrix_index, all_matrices, kernel_bits


def rand_matrix(rng, nrows, ncols):
    return GF2Matrix([[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)],
                     nrows, ncols)


def columns(rows, ncols):
    """The columns of a dense 0/1 matrix as bitsets over its rows."""
    return [sum(row[j] << i for i, row in enumerate(rows)) for j in range(ncols)]


def unpack(bits, length):
    return tuple(bits >> i & 1 for i in range(length))


def echelon_solve(rows, ncols, target):
    """The solution of rows @ x = target read off a tagged Echelon: column j
    added with tag 1 << j, then the target reduced; None when a remainder is
    left."""
    span = Echelon()
    for j, col in enumerate(columns(rows, ncols)):
        span.add(col, 1 << j)
    rest, x = span.reduce(sum(t << i for i, t in enumerate(target)))
    return None if rest else unpack(x, ncols)


def test_identity_and_zero():
    i3 = GF2Matrix.identity(3)
    z = GF2Matrix.zeros(2, 3)
    assert i3.rank() == 3
    assert z.rank() == 0
    assert (z @ i3).rows == z.rows


def test_rank_is_subadditive_under_composition():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = rand_matrix(rng, a.ncols, rng.randint(1, 5))
        assert (a @ b).rank() <= min(a.rank(), b.rank())


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(13)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = kernel_bits(columns(a.rows, a.ncols))
        assert len(ker) == a.ncols - a.rank()
        assert a @ GF2Matrix.from_columns(ker, a.ncols) == GF2Matrix.zeros(a.nrows, len(ker))
        assert GF2Matrix.from_columns(ker, a.ncols).rank() == len(ker)


def test_all_matrices_enumerates_exactly_2_to_the_rc():
    ms = list(all_matrices(2, 3))
    assert len(ms) == 2 ** 6
    assert len({m.rows for m in ms}) == 2 ** 6


# -- dense reference ----------------------------------------------------------


def ref_rref(rows, ncols):
    """Reduced row echelon form: (pivot columns, reduced nonzero rows)."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def ref_matmul(a, b, inner, ncols):
    return [[sum(row[k] & b[k][j] for k in range(inner)) % 2 for j in range(ncols)]
            for row in a]


def ref_apply(rows, vec):
    return tuple(sum(x & y for x, y in zip(row, vec)) % 2 for row in rows)


def ref_kernel(rows, ncols):
    """One vector per free column: that variable 1, the other free ones 0."""
    pivots, reduced = ref_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[f] = 1
        for p, row in zip(pivots, reduced):
            vec[p] = row[f]
        basis.append(tuple(vec))
    return basis


def ref_solve(rows, ncols, target):
    """The solution with every free variable 0, or None."""
    pivots, reduced = ref_rref([list(r) + [t] for r, t in zip(rows, target)], ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for p, row in zip(pivots, reduced):
        x[p] = row[ncols]
    return tuple(x)


@st.composite
def dense(draw, max_rows=6, max_cols=6, nrows=None, ncols=None):
    nrows = draw(st.integers(0, max_rows)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_cols)) if ncols is None else ncols
    bit = st.integers(0, 1)
    rows = draw(st.lists(st.lists(bit, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, nrows, ncols


# -- oracle tests -------------------------------------------------------------


@given(dense())
def test_rank_matches_reference(m):
    rows, nrows, ncols = m
    assert GF2Matrix(rows, nrows, ncols).rank() == len(ref_rref(rows, ncols)[0])


@given(st.data())
def test_matmul_and_apply_match_reference(data):
    """A vector is applied as a one-column matrix."""
    a, nrows, inner = data.draw(dense())
    b, _, ncols = data.draw(dense(nrows=inner))
    product = GF2Matrix(a, nrows, inner) @ GF2Matrix(b, inner, ncols)
    assert (product.nrows, product.ncols) == (nrows, ncols)
    assert product.rows == tuple(map(tuple, ref_matmul(a, b, inner, ncols)))
    vec = data.draw(st.lists(st.integers(0, 1), min_size=inner, max_size=inner))
    applied = GF2Matrix(a, nrows, inner) @ GF2Matrix([[x] for x in vec], inner, 1)
    assert applied.rows == tuple((y,) for y in ref_apply(a, vec))


@given(dense())
def test_kernel_basis_is_the_reference_basis(m):
    rows, nrows, ncols = m
    kernel = kernel_bits(columns(rows, ncols))
    assert [unpack(v, ncols) for v in kernel] == ref_kernel(rows, ncols)


@given(st.data())
def test_solve_is_the_reference_solution(data):
    rows, nrows, ncols = data.draw(dense())
    if data.draw(st.booleans()):  # a consistent right-hand side
        x = data.draw(st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols))
        target = ref_apply(rows, x)
    else:
        target = tuple(data.draw(st.lists(st.integers(0, 1), min_size=nrows, max_size=nrows)))
    expected = ref_solve(rows, ncols, target)
    assert echelon_solve(rows, ncols, target) == expected
    if expected is not None:
        assert ref_apply(rows, expected) == target


def test_solve_returns_none_when_inconsistent():
    assert echelon_solve([[0, 0]], 2, [1]) is None
    assert echelon_solve([[1, 1], [1, 1]], 2, [1, 0]) is None
    assert echelon_solve([[1, 1], [1, 1]], 2, [1, 1]) == (1, 0)


@given(dense())
def test_equality_and_hash_agree_across_constructions(m):
    rows, nrows, ncols = m
    a = GF2Matrix(rows, nrows, ncols)
    b = GF2Matrix.from_columns(columns(rows, ncols), nrows)
    assert a == b and hash(a) == hash(b)
    assert a.rows == tuple(map(tuple, rows))
    assert a @ GF2Matrix.identity(ncols) == a == GF2Matrix.identity(nrows) @ a
    if any(map(any, rows)):
        assert a != GF2Matrix.zeros(nrows, ncols)


def test_identity_equals_its_row_and_column_constructions():
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    mats = [GF2Matrix.identity(3), GF2Matrix(rows), GF2Matrix.from_columns(columns(rows, 3), 3)]
    assert len(set(mats)) == 1
    assert GF2Matrix.zeros(2, 3) != GF2Matrix.zeros(3, 2)


def test_empty_shapes():
    for nrows, ncols in [(0, 0), (0, 3), (3, 0)]:
        a = GF2Matrix.zeros(nrows, ncols)
        assert (a.nrows, a.ncols, a.rank()) == (nrows, ncols, 0)
        assert a.rows == tuple(() for _ in range(nrows))
        assert [unpack(v, ncols) for v in kernel_bits(columns(a.rows, ncols))] == ref_kernel(a.rows, ncols)
        assert echelon_solve(a.rows, ncols, [0] * nrows) == (0,) * ncols
        assert a @ GF2Matrix.zeros(ncols, 2) == GF2Matrix.zeros(nrows, 2)
        assert GF2Matrix.zeros(2, nrows) @ a == GF2Matrix.zeros(2, ncols)
        assert list(all_matrices(nrows, ncols)) == [a]
    assert GF2Matrix.zeros(3, 0) == GF2Matrix([[], [], []], 3, 0)


@settings(max_examples=20)
@given(st.integers(0, 3), st.integers(0, 3))
def test_all_matrices_follows_itertools_product_order(nrows, ncols):
    expected = [
        GF2Matrix([bits[i * ncols:(i + 1) * ncols] for i in range(nrows)], nrows, ncols)
        for bits in itertools.product((0, 1), repeat=nrows * ncols)
    ]
    assert list(all_matrices(nrows, ncols)) == expected
    assert [_matrix_index(a) for a in expected] == list(range(len(expected)))


def checked(a: GF2Matrix) -> GF2Matrix:
    """a rebuilt from its 0/1 rows by the checking constructor."""
    return GF2Matrix([list(r) for r in a.rows], a.nrows, a.ncols)


def test_unchecked_matrices_equal_their_checked_rows():
    """Products, identities, zeros, ``from_columns`` matrices, both
    projections of a fiber product and every matrix ``all_matrices`` yields
    up to 3x3 are built by ``GF2Matrix._of`` without a check; each equals
    (and hashes as) the matrix ``GF2Matrix(rows)`` builds from its rows, with
    its rows in range and a tuple of bits."""
    rng = random.Random(38)
    built = [GF2Matrix.identity(n) for n in range(5)]
    built += [GF2Matrix.zeros(r, c) for r in range(4) for c in range(4)]
    built += [a for r in range(4) for c in range(4) for a in all_matrices(r, c)]
    for _ in range(100):
        r, k, c = (rng.randint(0, 6) for _ in range(3))
        built.append(rand_matrix(rng, r, k) @ rand_matrix(rng, k, c))
        built.append(GF2Matrix.from_columns([rng.getrandbits(r) for _ in range(c)], r))
        x, b = rng.randint(0, 4), rng.randint(0, 4)
        _, proj_x, proj_b, _ = F2VEC.fiber_product(rand_matrix(rng, k, x), rand_matrix(rng, k, b),
                                                   x, b)
        built += [proj_x, proj_b]
    for a in built:
        assert type(a.bits) is tuple and all(0 <= v < 1 << a.ncols for v in a.bits)
        assert a == checked(a) and hash(a) == hash(checked(a))


def test_rows_enter_as_entries_only():
    """``GF2Matrix(rows)`` takes sequences of 0/1 entries, of one length,
    and refuses any other entry (48 and 49 among them, the bytes of the
    digits "0" and "1"); bitset rows enter through ``GF2Matrix._of`` alone."""
    assert GF2Matrix([[0, 1]]) == GF2Matrix._of((2,), 1, 2)
    for rows in ([2], [["1", 0]], [[1.0, 0]]):
        with pytest.raises(TypeError):
            GF2Matrix(rows, 1, 2)
    for rows, nrows, ncols in [([[0, 1], [1]], None, None), ([[0, 1]], 2, 2), ([[0, 1]], 1, 3),
                               ([[0, 2]], 1, 2), ([[48, 1]], 1, 2), ([[49, 0]], 1, 2),
                               ([[1, -1]], 1, 2)]:
        with pytest.raises(ValueError):
            GF2Matrix(rows, nrows, ncols)

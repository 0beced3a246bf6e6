"""Linear algebra over GF(2) on int bitsets.

A vector is a Python ``int`` whose bit i is coordinate i, so adding two
vectors is one ``^``. A ``GF2Matrix`` keeps each row packed this way (bit j
of row i is entry (i, j)). GF(2) maps are bitsets everywhere in the package:
0/1 rows exist only where they enter, ``GF2Matrix(rows)``, and where they
leave, ``rows``, which unpacks them for the wire format and for readers.
``GF2Matrix(rows)`` takes 0/1 rows only and checks the shape of what enters
from outside (decoders, generators, tests). Bitset rows enter through
``GF2Matrix._of`` only, which checks nothing, under the package's one
validation rule (``persist``): products, identities, zeros, ``from_columns``
and the matrices ``all_matrices`` yields have rows in range by construction.

Every rank, kernel, solve and span question is answered by one incremental
elimination, ``Echelon``: it keeps one reduced vector per pivot (the
vector's highest set bit) and reduces each new vector against them. Columns
are fed in order, so a column that reduces to zero is exactly a free column
of the reduced row echelon form, and the combination it reduced with is that
form's kernel vector for it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import Frozen


def _pack(entries: Sequence[int]) -> int:
    """0/1 entries (read mod 2) as a bitset, entry i at bit i."""
    return sum(1 << i for i, x in enumerate(entries) if int(x) % 2)


def _unpack(bits: int, length: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(length))


def _transpose(vectors: Sequence[int], length: int) -> list[int]:
    """Bitsets w_0..w_{length-1} with bit j of w_i = bit i of vectors[j]."""
    out = [0] * length
    for j, v in enumerate(vectors):
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= 1 << j
            v ^= low
    return out


def _combination(v: int, vectors: Sequence[int]) -> int:
    """The sum of vectors[i] over the set bits i of v."""
    out = 0
    while v:
        low = v & -v
        out ^= vectors[low.bit_length() - 1]
        v ^= low
    return out


class Echelon:
    """Incremental Gaussian elimination over GF(2).

    Each stored vector is keyed by its pivot, its highest set bit. Vectors
    are added with an optional int tag; a stored vector carries the XOR of
    the tags of the added vectors it was built from. With tag ``1 << j`` on
    the j-th added vector, a tag names the added vectors that sum to a
    vector (those added with tag 0 aside).
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int, tag: int = 0) -> tuple[int, int]:
        """(remainder, tag): v minus stored vectors, until the remainder is 0
        or its highest bit is no pivot. A zero remainder means v is in the
        span, and the XOR of the used vectors' tags is then returned."""
        pivots = self.pivots
        while v:
            entry = pivots.get(v.bit_length() - 1)
            if entry is None:
                break
            v ^= entry[0]
            tag ^= entry[1]
        return v, tag

    def add(self, v: int, tag: int = 0) -> bool:
        """Store v (with its tag); True when v grew the span."""
        v, tag = self.reduce(v, tag)
        if v:
            self.pivots[v.bit_length() - 1] = (v, tag)
        return bool(v)


def kernel_bits(columns: Iterable[int]) -> list[int]:
    """Right null space of the matrix with these columns (bitsets over the
    rows), as bitsets over the column indices: one vector per column that
    depends on the earlier ones, with that column's coefficient 1 and every
    other non-pivot coefficient 0."""
    echelon = Echelon()
    kernel = []
    for j, col in enumerate(columns):
        rest, tag = echelon.reduce(col, 1 << j)
        if rest:
            echelon.add(rest, tag)
        else:
            kernel.append(tag)
    return kernel


class GF2Matrix(Frozen):
    """An immutable nrows x ncols matrix; ``bits`` holds row i as a bitset,
    bit j of it entry (i, j)."""

    _fields = ("bits", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]], nrows: int | None = None,
                 ncols: int | None = None):
        """Each row is a sequence of 0/1 entries (read mod 2)."""
        rows = tuple(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if nrows is None:
            nrows = len(rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("inconsistent matrix shape")
        object.__setattr__(self, "bits", tuple(map(_pack, rows)))
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def _of(cls, bits: tuple[int, ...], nrows: int, ncols: int) -> "GF2Matrix":
        """The matrix of nrows bitset rows already known to lie in
        [0, 2^ncols), which it keeps without a check."""
        a = cls.__new__(cls)
        object.__setattr__(a, "bits", bits)
        object.__setattr__(a, "nrows", nrows)
        object.__setattr__(a, "ncols", ncols)
        return a

    # equality and hashing sit on the search and check hot paths, so they
    # read the fields directly
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.bits, self.nrows, self.ncols) == (other.bits, other.nrows, other.ncols)
        return NotImplemented

    def __hash__(self):
        return hash((self.bits, self.nrows, self.ncols))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unpack(r, self.ncols) for r in self.bits)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "GF2Matrix":
        return GF2Matrix._of((0,) * nrows, nrows, ncols)

    @staticmethod
    def identity(n: int) -> "GF2Matrix":
        return GF2Matrix._of(tuple([1 << i for i in range(n)]), n, n)

    @staticmethod
    def from_columns(cols: Sequence[int], nrows: int) -> "GF2Matrix":
        """Columns given as int bitsets over the rows."""
        return GF2Matrix._of(tuple(_transpose(cols, nrows)), nrows, len(cols))

    def matmul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        right = other.bits
        return GF2Matrix._of(tuple([_combination(r, right) for r in self.bits]),
                             self.nrows, other.ncols)

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        return self.matmul(other)

    def rank(self) -> int:
        echelon = Echelon()
        for r in self.bits:
            echelon.add(r)
        return len(echelon)


def _nth_matrix(n: int, nrows: int, ncols: int) -> GF2Matrix:
    """Matrix n of ``all_matrices(nrows, ncols)``, 0 <= n < 2^(nrows*ncols):
    the binary digits of n, most significant first, are its row-major
    entries."""
    size = nrows * ncols
    if size == 0:
        return GF2Matrix.zeros(nrows, ncols)
    entries = format(n, f"0{size}b")
    return GF2Matrix._of(
        tuple([int(entries[i * ncols:(i + 1) * ncols][::-1], 2) for i in range(nrows)]),
        nrows, ncols,
    )


def _matrix_index(a: GF2Matrix) -> int:
    """The n with ``_nth_matrix(n, a.nrows, a.ncols) == a``."""
    return int("".join(format(r, f"0{a.ncols}b")[::-1] for r in a.bits) or "0", 2)


def all_matrices(nrows: int, ncols: int) -> Iterator[GF2Matrix]:
    """Every GF(2) matrix of the given shape, 2^(nrows*ncols) of them, in the
    order of ``itertools.product((0, 1), repeat=nrows * ncols)`` over the
    row-major entries (``_nth_matrix``)."""
    for n in range(1 << (nrows * ncols)):
        yield _nth_matrix(n, nrows, ncols)

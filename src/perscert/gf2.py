"""Linear algebra over GF(2) on int bitsets.

A vector is a Python ``int`` whose bit i is coordinate i, so adding two
vectors is one ``^``. A ``GF2Matrix`` keeps each row packed this way (bit j
of row i is entry (i, j)). GF(2) maps are bitsets everywhere in the package:
0/1 rows exist only where they enter, ``GF2Matrix(rows)``, and where they
leave, ``rows``, which unpacks them for the wire format and for readers.

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

    def __init__(self, rows: Sequence[Sequence[int] | int], nrows: int | None = None,
                 ncols: int | None = None):
        """Each row is a sequence of 0/1 entries (read mod 2) or an int
        bitset; ncols is required when the first row is an int."""
        rows = tuple(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if nrows is None:
            nrows = len(rows)
        bits = []
        for r in rows:
            if type(r) is not int:
                if len(r) != ncols:
                    raise ValueError("inconsistent matrix shape")
                r = _pack(r)
            elif r < 0 or r >> ncols:
                raise ValueError("inconsistent matrix shape")
            bits.append(r)
        if len(bits) != nrows:
            raise ValueError("inconsistent matrix shape")
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)

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
        return GF2Matrix([0] * nrows, nrows, ncols)

    @staticmethod
    def identity(n: int) -> "GF2Matrix":
        return GF2Matrix([1 << i for i in range(n)], n, n)

    @staticmethod
    def from_columns(cols: Sequence[int], nrows: int) -> "GF2Matrix":
        """Columns given as int bitsets over the rows."""
        return GF2Matrix(_transpose(cols, nrows), nrows, len(cols))

    def matmul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        right = other.bits
        return GF2Matrix([_combination(r, right) for r in self.bits], self.nrows, other.ncols)

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        return self.matmul(other)

    def rank(self) -> int:
        echelon = Echelon()
        for r in self.bits:
            echelon.add(r)
        return len(echelon)


def all_matrices(nrows: int, ncols: int) -> Iterator[GF2Matrix]:
    """Every GF(2) matrix of the given shape, 2^(nrows*ncols) of them, in the
    order of ``itertools.product((0, 1), repeat=nrows * ncols)`` over the
    row-major entries."""
    size = nrows * ncols
    if size == 0:
        yield GF2Matrix([0] * nrows, nrows, ncols)
        return
    for n in range(1 << size):
        # the binary digits of n, most significant first, are the entries
        entries = format(n, f"0{size}b")
        yield GF2Matrix(
            [int(entries[i * ncols:(i + 1) * ncols][::-1], 2) for i in range(nrows)],
            nrows, ncols,
        )

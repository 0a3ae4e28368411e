"""Normal-form arithmetic in two finite-rank quotient rings.

The big ring is Z[P, t] / ((1-P)^2, (1-Pt)^2 (1-t)), the Grothendieck
ring of a P^2-bundle compactification of the total space of
O(-1)+O(-1) over the projective line; the small ring is
Z[P] / ((1-P)^2), the ring of the line itself.  Elements are stored as
coordinate vectors on a fixed monomial basis:

    big ring:   {1, P, t, Pt, t^2, Pt^2}     (rank 6)
    small ring: {1, P}                        (rank 2)

Both rings are built at import from their relations, as a tower of
simple extensions: relation i is a polynomial in generator i over the
ring of the earlier generators, and its leading coefficient must be a
unit there (the builder raises otherwise).  That makes the monomials
below its degree, times the basis so far, a free Z-basis, and
multiplication by generator i the block companion matrix of the
relation.  The basis, the multiplication table and the normal form of
every monomial follow from these integer matrices.  Rings and elements
are frozen dataclasses; a ring compares and hashes by identity, so
elements of two rings built alike are never equal.

Coefficients are generic: anything with commutative +, -, * works.  The
library runs the ring arithmetic on exact rationals, and stores rational
functions in q as coordinates without combining them; the tests run the
same tables over rational functions in q through their oracle type, a
subclass of QRationalFunction with field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .series import QRationalFunction, _as_fraction, _power

__all__ = [
    "RingSpec",
    "KElem",
    "RingMismatchError",
    "NotInvertibleError",
    "Y_RING",
    "X_RING",
    "ring_one",
    "gen_p",
    "gen_t",
    "element",
]


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings."""


class NotInvertibleError(ZeroDivisionError):
    """Raised when a ring element has no inverse."""


# Monomials P^a t^b are keyed (a, b); a ring's generators are a prefix of
# these names.
_VARS = ("P", "t")
Mono = tuple[int, int]
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class RingSpec:
    """A finite-rank quotient ring with a precomputed multiplication table.

    `gen_matrices[i]` is multiplication by generator `_VARS[i]`, stored by
    columns: column j is that generator times basis element j.  A ring is
    built once and compares and hashes by identity: two rings built from
    the same relations are different rings; a ring pickles as `<name>_RING`.
    """

    name: str
    basis: tuple[Mono, ...]
    basis_names: tuple[str, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]
    gen_matrices: tuple[Matrix, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"RingSpec({self.name}, rank {self.rank})"

    def __reduce__(self):
        return f"{self.name}_RING"


@dataclass(frozen=True)
class KElem:
    """Element of one of the fixed quotient rings, in normal-form coordinates.

    Coordinates may be Fractions or rational functions in q (or a mix);
    elements are equal iff their rings are the same ring and their
    coordinates agree.  ``+ - *`` raise TypeError on a coordinate of the
    library's QRationalFunction, as the builders in bps_kit.jfunctions
    return: that type has no operators (the tests' oracle subclass has).
    """

    ring: RingSpec
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.ring.rank:
            raise ValueError(
                f"need {self.ring.rank} coordinates, got {len(self.coords)}"
            )
        object.__setattr__(
            self,
            "coords",
            tuple(
                [
                    c if isinstance(c, QRationalFunction) else _as_fraction(c)
                    for c in self.coords
                ]
            ),
        )

    def _check_ring(self, other: "KElem"):
        if self.ring is not other.ring:
            raise RingMismatchError(
                f"cannot combine elements of rings {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other):
        if isinstance(other, KElem):
            self._check_ring(other)
            return KElem(self.ring, tuple([a + b for a, b in zip(self.coords, other.coords)]))
        if isinstance(other, (int, Fraction, QRationalFunction)):
            return self + scalar(self.ring, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return KElem(self.ring, tuple([-c for c in self.coords]))

    def __sub__(self, other):
        if isinstance(other, (KElem, int, Fraction, QRationalFunction)):
            return self + (-other if isinstance(other, KElem) else -scalar(self.ring, other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction, QRationalFunction)):
            return scalar(self.ring, other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, KElem):
            self._check_ring(other)
            table = self.ring.table
            rank = self.ring.rank
            out = [None] * rank
            for i, a in enumerate(self.coords):
                if not a:
                    continue
                row = table[i]
                for j, b in enumerate(other.coords):
                    if not b:
                        continue
                    ab = a * b
                    for k, m in enumerate(row[j]):
                        if m:
                            term = ab * m
                            out[k] = term if out[k] is None else out[k] + term
            return KElem(
                self.ring,
                tuple([Fraction(0) if c is None else c for c in out]),
            )
        if isinstance(other, (int, Fraction, QRationalFunction)):
            return KElem(self.ring, tuple([c * other for c in self.coords]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ring powers must use nonnegative integer exponents")
        return _power(self, n) if n else ring_one(self.ring)

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def inverse(self) -> "KElem":
        """Solve (self) * x = 1 in coordinates by Gaussian elimination.

        The left-multiplication matrix is rank x rank over the
        coefficient field; a singular matrix raises NotInvertibleError
        rather than returning anything partial.
        """
        rank = self.ring.rank
        cols = [(self * basis_element(self.ring, j)).coords for j in range(rank)]
        mat = [[cols[j][i] for j in range(rank)] for i in range(rank)]
        rhs: list = [Fraction(1)] + [Fraction(0)] * (rank - 1)
        for col in range(rank):
            pivot = next((r for r in range(col, rank) if mat[r][col]), None)
            if pivot is None:
                raise NotInvertibleError(
                    f"element of ring {self.ring.name} is not invertible"
                )
            mat[col], mat[pivot] = mat[pivot], mat[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            inv_p = mat[col][col]
            for r in range(rank):
                if r != col and mat[r][col]:
                    factor = mat[r][col] / inv_p
                    rhs[r] = rhs[r] - factor * rhs[col]
                    for c2 in range(col, rank):
                        mat[r][c2] = mat[r][c2] - factor * mat[col][c2]
        x = tuple([rhs[i] / mat[i][i] for i in range(rank)])
        return KElem(self.ring, x)

    def __str__(self):
        parts = [
            f"({c})·{name}" if name != "1" else f"({c})"
            for name, c in zip(self.ring.basis_names, self.coords)
            if c
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"KElem[{self.ring.name}]({self!s})"


def basis_element(ring: RingSpec, index: int) -> KElem:
    coords = [Fraction(0)] * ring.rank
    coords[index] = Fraction(1)
    return KElem(ring, tuple(coords))


def ring_one(ring: RingSpec) -> KElem:
    return basis_element(ring, 0)


def scalar(ring: RingSpec, c) -> KElem:
    coords = [Fraction(0)] * ring.rank
    coords[0] = c if isinstance(c, QRationalFunction) else _as_fraction(c)
    return KElem(ring, tuple(coords))


def gen_p(ring: RingSpec) -> KElem:
    return element(ring, {(1, 0): 1})


def gen_t(ring: RingSpec) -> KElem:
    return element(ring, {(0, 1): 1})


def _unit(n: int, j: int) -> list[int]:
    return [int(i == j) for i in range(n)]


def _times_monomial(mats: tuple[Matrix, ...], mono: tuple[int, ...], v: list) -> list:
    """The integer vector v times a monomial, one generator matrix at a time."""
    for mat, e in zip(mats, mono):
        for _ in range(e):
            v = [sum(x * col[r] for x, col in zip(v, mat)) for r in range(len(v))]
    return v


def element(ring: RingSpec, monomials: Mapping[Mono, object]) -> KElem:
    """Build an element from arbitrary monomials P^a t^b, fully reduced.

    Coefficients may be Fractions or rational functions in q; the
    integer normal forms of the monomials are combined linearly so the
    reduction works over either coefficient domain.  A coefficient of the
    library's QRationalFunction, which has no operators, raises TypeError.
    """
    n_gens = len(ring.gen_matrices)
    one = _unit(ring.rank, 0)
    out = [None] * ring.rank
    for mono, coeff in monomials.items():
        a, b = mono
        if a < 0 or b < 0:
            raise ValueError("monomials need nonnegative exponents")
        if any(mono[n_gens:]):
            raise RingMismatchError(f"ring {ring.name} has no {_VARS[n_gens]} generator")
        for k, c in enumerate(_times_monomial(ring.gen_matrices, mono, one)):
            if c:
                term = coeff * c
                out[k] = term if out[k] is None else out[k] + term
    return KElem(ring, tuple([Fraction(0) if c is None else c for c in out]))


def _build_ring(name: str, gens: tuple[str, ...], relations: tuple[dict, ...]) -> RingSpec:
    """Z[gens] / (relations), built as a tower of simple extensions.

    Relation i maps exponent tuples (ordered as `_VARS`) to integer
    coefficients.  It is read as a polynomial c_d g^d + ... + c_0 in
    g = gens[i] over the ring of gens[:i], and c_d must be a unit there:
    then g^d = -c_d^-1 (c_{d-1} g^{d-1} + ... + c_0), and the old basis
    times 1, g, ..., g^(d-1) is a free Z-basis of the new ring.
    """
    if gens != _VARS[: len(gens)]:
        raise ValueError(f"generators must be a prefix of {_VARS}")
    ring = RingSpec(name, ((0,) * len(_VARS),), ("1",), (((1,),),), ())  # Z
    for i, (gen, relation) in enumerate(zip(gens, relations, strict=True)):
        if any(any(m[i + 1 :]) for m in relation):
            raise ValueError(f"relation for {gen} involves a later generator")
        n, mats = ring.rank, ring.gen_matrices
        degree = max(m[i] for m, c in relation.items() if c)
        coeffs = [[0] * n for _ in range(degree + 1)]
        for mono, c in relation.items():
            lower = _times_monomial(mats, mono, _unit(n, 0))
            coeffs[mono[i]] = [x + c * y for x, y in zip(coeffs[mono[i]], lower)]
        try:
            lead_inv = KElem(ring, tuple(coeffs[degree])).inverse()
        except NotInvertibleError:
            lead_inv = None
        if lead_inv is None or any(c.denominator != 1 for c in lead_inv.coords):
            raise ValueError(f"relation for {gen}: leading coefficient is not a unit")
        tails = [
            [int(x) for x in (-lead_inv * KElem(ring, tuple(c))).coords]
            for c in coeffs[:degree]
        ]

        def in_block(k: int, v) -> tuple[int, ...]:
            return (0,) * (n * k) + tuple(v) + (0,) * (n * (degree - 1 - k))

        # the earlier generators act on each block alike
        lifted = tuple(
            tuple(in_block(k, col) for k in range(degree) for col in mat) for mat in mats
        )
        # g moves block k to block k + 1, and the last block onto the tails
        companion = tuple(
            in_block(k + 1, _unit(n, j))
            if k < degree - 1
            else sum((tuple(_times_monomial(mats, b, tail)) for tail in tails), ())
            for k in range(degree)
            for j, b in enumerate(ring.basis)
        )
        mats = lifted + (companion,)
        basis = tuple(b[:i] + (k,) + b[i + 1 :] for k in range(degree) for b in ring.basis)
        size = len(basis)
        table = tuple(
            tuple(tuple(_times_monomial(mats, m, _unit(size, j))) for j in range(size))
            for m in basis
        )
        names = tuple(
            "·".join(g if e == 1 else f"{g}^{e}" for g, e in zip(gens, m) if e) or "1"
            for m in basis
        )
        ring = RingSpec(name, basis, names, table, mats)
    return ring


# (1-P)^2 and (1-Pt)^2 (1-t), expanded
_LINE_RELATION = {(0, 0): 1, (1, 0): -2, (2, 0): 1}
_BUNDLE_RELATION = {(0, 0): 1, (0, 1): -1, (1, 1): -2, (1, 2): 2, (2, 2): 1, (2, 3): -1}

Y_RING = _build_ring("Y", ("P", "t"), (_LINE_RELATION, _BUNDLE_RELATION))
X_RING = _build_ring("X", ("P",), (_LINE_RELATION,))

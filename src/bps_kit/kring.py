"""Normal-form arithmetic in two finite-rank quotient rings.

The big ring is Z[P, t] / ((1-P)^2, (1-Pt)^2 (1-t)), the Grothendieck
ring of a P^2-bundle compactification of the total space of
O(-1)+O(-1) over the projective line; the small ring is
Z[P] / ((1-P)^2), the ring of the line itself.  Elements are stored as
coordinate vectors on a fixed monomial basis:

    big ring:   {1, P, t, Pt, t^2, Pt^2}     (rank 6)
    small ring: {1, P}                        (rank 2)

The rewrite system substitutes P^2 -> 2P - 1 first and then eliminates
t^3 and P t^3 using the two independent combinations of the cubic
relation (the relation itself and P times it).  Those two normal forms
are solved for at import time from the relations rather than
transcribed, and the 2x2 elimination matrix is checked to be
unimodular, so the basis really is a free Z-basis.  Confluence of the
rewrite order is covered by tests, not assumed.

Coefficients are generic: anything with commutative +, -, * works, so
the same tables serve exact rationals and rational functions in q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .series import QRationalFunction, _as_fraction

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
    "absorption_check",
]


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings."""


class NotInvertibleError(ZeroDivisionError):
    """Raised when a ring element has no inverse."""


Mono = tuple[int, int]  # (exponent of P, exponent of t)
Poly = dict[Mono, Fraction]


def _padd_into(target: Poly, src: Poly, scale: Fraction = Fraction(1)) -> None:
    for m, c in src.items():
        v = target.get(m, Fraction(0)) + c * scale
        if v:
            target[m] = v
        elif m in target:
            del target[m]


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (pa, ta), ca in a.items():
        for (pb, tb), cb in b.items():
            m = (pa + pb, ta + tb)
            v = out.get(m, Fraction(0)) + ca * cb
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def _reduce_p(poly: Poly) -> Poly:
    """Substitute P^2 -> 2P - 1 until every P-exponent is 0 or 1."""
    work = dict(poly)
    while True:
        m = next((mm for mm in work if mm[0] >= 2), None)
        if m is None:
            return work
        a, b = m
        c = work.pop(m)
        _padd_into(work, {(a - 1, b): Fraction(2), (a - 2, b): Fraction(-1)}, c)


def _cubic_relation() -> Poly:
    # (1 - Pt)^2 (1 - t), expanded in the free polynomial ring
    one_minus_pt: Poly = {(0, 0): Fraction(1), (1, 1): Fraction(-1)}
    one_minus_t: Poly = {(0, 0): Fraction(1), (0, 1): Fraction(-1)}
    return _pmul(_pmul(one_minus_pt, one_minus_pt), one_minus_t)


def _solve_t_cubed() -> tuple[Poly, Poly]:
    """Normal forms of t^3 and P t^3 on the degree-<3 monomials.

    Derived from the cubic relation R and P*R: after the P-reduction
    each is a combination of {P^a t^b : a < 2, b <= 3}; eliminating the
    two cubic monomials is a 2x2 solve whose matrix must be unimodular
    for the basis to be a free Z-basis.
    """
    r1 = _reduce_p(_cubic_relation())
    r2 = _reduce_p(_pmul({(1, 0): Fraction(1)}, _cubic_relation()))
    a11 = r1.pop((0, 3), Fraction(0))
    a12 = r1.pop((1, 3), Fraction(0))
    a21 = r2.pop((0, 3), Fraction(0))
    a22 = r2.pop((1, 3), Fraction(0))
    det = a11 * a22 - a12 * a21
    if abs(det) != 1:
        raise AssertionError(
            f"cubic elimination matrix has determinant {det}; basis is not free"
        )
    # [a11 a12; a21 a22] * [t^3; Pt^3] = [-r1; -r2]
    t3: Poly = {}
    pt3: Poly = {}
    _padd_into(t3, r1, -a22 / det)
    _padd_into(t3, r2, a12 / det)
    _padd_into(pt3, r1, a21 / det)
    _padd_into(pt3, r2, -a11 / det)
    return t3, pt3


_T3, _PT3 = _solve_t_cubed()


def _normalize_y(poly: Poly) -> Poly:
    """Full reduction to the rank-6 basis of the big ring."""
    work = _reduce_p(poly)
    while True:
        m = next((mm for mm in work if mm[1] >= 3), None)
        if m is None:
            return work
        a, b = m
        c = work.pop(m)
        cube = _T3 if a == 0 else _PT3
        shifted = {(pa, ta + b - 3): cc for (pa, ta), cc in cube.items()}
        _padd_into(work, _reduce_p(shifted), c)


@dataclass(frozen=True)
class RingSpec:
    """A finite-rank quotient ring with a precomputed multiplication table."""

    name: str
    basis: tuple[Mono, ...]
    basis_names: tuple[str, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"RingSpec({self.name}, rank {self.rank})"


def _coords_from_poly(basis: tuple[Mono, ...], poly: Poly) -> tuple[Fraction, ...]:
    index = {m: i for i, m in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for m, c in poly.items():
        if m not in index:
            raise AssertionError(f"monomial {m} survived normalization")
        out[index[m]] = c
    return tuple(out)


def _build_ring(name: str, basis: tuple[Mono, ...], names: tuple[str, ...], normalize) -> RingSpec:
    table = []
    for m1 in basis:
        row = []
        for m2 in basis:
            prod = normalize({(m1[0] + m2[0], m1[1] + m2[1]): Fraction(1)})
            coords = _coords_from_poly(basis, prod)
            if any(c.denominator != 1 for c in coords):
                raise AssertionError(f"non-integer structure constants at {m1}*{m2}")
            row.append(tuple(int(c) for c in coords))
        table.append(tuple(row))
    return RingSpec(name, basis, names, tuple(table))


def _normalize_x(poly: Poly) -> Poly:
    reduced = _reduce_p(poly)
    if any(t != 0 for (_, t) in reduced):
        raise RingMismatchError("the rank-2 ring has no t generator")
    return reduced


Y_RING = _build_ring(
    "Y",
    ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)),
    ("1", "P", "t", "P·t", "t^2", "P·t^2"),
    _normalize_y,
)

X_RING = _build_ring("X", ((0, 0), (1, 0)), ("1", "P"), _normalize_x)


@dataclass(frozen=True, eq=False)
class KElem:
    """Element of one of the fixed quotient rings, in normal-form coordinates.

    Coordinates may be Fractions or rational functions in q (or a mix);
    elements are equal iff their coordinates agree.
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
        result = ring_one(self.ring)
        base = self
        while n:  # square and multiply, as QRationalFunction.__pow__ does
            if n & 1:
                result = result * base
            n >>= 1
            base = base * base if n else base
        return result

    def __eq__(self, other):
        if not isinstance(other, KElem):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        return all(a == b for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        return hash((self.ring.name, self.coords))

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
    if ring is not Y_RING:
        raise RingMismatchError("only the rank-6 ring has a t generator")
    return element(ring, {(0, 1): 1})


def element(ring: RingSpec, monomials: Mapping[Mono, object]) -> KElem:
    """Build an element from arbitrary monomials P^a t^b, fully reduced.

    Coefficients may be Fractions or rational functions in q; the
    integer normal forms of the monomials are combined linearly so the
    reduction works over either coefficient domain.
    """
    normalize = _normalize_y if ring is Y_RING else _normalize_x
    out = [None] * ring.rank
    index = {m: i for i, m in enumerate(ring.basis)}
    for (a, b), coeff in monomials.items():
        if a < 0 or b < 0:
            raise ValueError("monomials need nonnegative exponents")
        nf = normalize({(a, b): Fraction(1)})
        for m, c in nf.items():
            k = index[m]
            term = coeff * c
            out[k] = term if out[k] is None else out[k] + term
    return KElem(ring, tuple([Fraction(0) if c is None else c for c in out]))


def absorption_check(m_max: int) -> bool:
    """Check that (1-Pt)^2 absorbs the t from (1 - P q^m t) for m <= m_max.

    Multiplying by the square of (1 - Pt) makes (1 - P q^m t) and
    (1 - P q^m) interchangeable; this is the cancellation that collapses
    the telescoping products in the cover series.  q is a free scalar,
    so coefficients are polynomials in q.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    from .series import q_power

    one = ring_one(Y_RING)
    p = gen_p(Y_RING)
    t = gen_t(Y_RING)
    n2 = (one - p * t) ** 2
    for m in range(1, m_max + 1):
        qm = q_power(m)
        lhs = n2 * (one - p * t * qm)
        rhs = n2 * (one - p * qm)
        if lhs != rhs:
            return False
    return True

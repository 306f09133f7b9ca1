"""Finite commutative rings with unity, built from products of quotient rings.

A ring is described by a spec string such as ``"Z4 * Z2"`` or
``"Z3[x]/(x^2) * GF(4)"``.  Each factor is either Z_n or a univariate
quotient Z_n[x]/(f) with f monic, which covers every finite field GF(p^k)
(via a fixed irreducible polynomial table) and the local rings used in the
literature on idempotent graphs.  Elements are tuples of coefficient
vectors, one per factor, always kept in canonical reduced form.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd

Coeffs = tuple[int, ...]
Element = tuple[Coeffs, ...]

DEFAULT_MAX_RING_SIZE = 4096


class RingSpecError(ValueError):
    """Raised on malformed ring spec text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RingSizeError(ValueError):
    """Requested ring exceeds the configured element bound."""


# Fixed irreducible polynomials over Z_p used to desugar GF(p^k), k >= 2,
# for prime powers up to 64.  Coefficients ascending, leading 1 included.
IRREDUCIBLE_POLYS: dict[int, tuple[int, Coeffs]] = {
    4: (2, (1, 1, 1)),            # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),         # x^3 + x + 1
    9: (3, (2, 2, 1)),            # x^2 + 2x + 2
    16: (2, (1, 1, 0, 0, 1)),     # x^4 + x + 1
    25: (5, (2, 4, 1)),           # x^2 + 4x + 2
    27: (3, (1, 2, 0, 1)),        # x^3 + 2x + 1
    32: (2, (1, 0, 1, 0, 0, 1)),  # x^5 + x^2 + 1
    49: (7, (3, 6, 1)),           # x^2 + 6x + 3
    64: (2, (1, 1, 0, 1, 1, 0, 1)),  # x^6 + x^4 + x^3 + x + 1
}


@dataclass(frozen=True)
class FactorSpec:
    """One factor: Z_n when poly is empty, else Z_n[x]/(poly), poly monic."""

    modulus: int
    poly: Coeffs = ()

    def __post_init__(self):
        if self.modulus < 2:
            raise RingSpecError(f"modulus must be >= 2, got {self.modulus}")
        if self.poly:
            if len(self.poly) < 2 or self.poly[-1] != 1:
                raise RingSpecError(
                    f"quotient polynomial must be monic of degree >= 1: {self.poly}"
                )
            if any(c != c % self.modulus for c in self.poly):
                raise RingSpecError("polynomial coefficients not reduced")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1 if self.poly else 1

    @property
    def size(self) -> int:
        return self.modulus ** self.degree

    # The facts below are the factor's own, the same in every ring built
    # from it, so each is computed on first read and kept on the instance:
    # a sweep that builds many rings from one FactorSpec analyses it once.
    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows.

    @cached_property
    def elements(self) -> tuple[Coeffs, ...]:
        """Every coefficient vector, in enumeration order."""
        return tuple(itertools.product(range(self.modulus), repeat=self.degree))

    @cached_property
    def idempotents(self) -> tuple[Coeffs, ...]:
        """The a with a*a == a, in enumeration order."""
        return tuple(a for a in self.elements if _factor_mul(self, a, a) == a)

    @cached_property
    def atoms(self) -> tuple[tuple[int, int], ...]:
        """For each primitive idempotent a (minimal nonzero: a*b == b for no
        other nonzero idempotent b), in enumeration order, the size |R a| of
        its local factor and that factor's characteristic, the additive
        order n / gcd(n, a) for the modulus n."""
        nonzero = [a for a in self.idempotents if any(a)]
        return tuple(
            (
                len({_factor_mul(self, x, a) for x in self.elements}),
                self.modulus // gcd(self.modulus, *a),
            )
            for a in nonzero
            if not any(b != a and _factor_mul(self, a, b) == b for b in nonzero)
        )

    @cached_property
    def doubles_idempotent(self) -> tuple[bool, ...]:
        """For each element a, in enumeration order, whether 2a is idempotent."""
        ids = self.idempotents
        # tuple() of a list, not of a generator: this keeps the sweep's peak RSS about 1 MB lower
        return tuple([tuple([2 * c % self.modulus for c in a]) in ids for a in self.elements])

    @cached_property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """For each element a, in enumeration order, the index of e - a for
        each idempotent e, in the order of `idempotents`.  An index is the
        coefficient vector read as a number in base the modulus, first
        coefficient most significant: the enumeration order."""
        m = self.modulus
        out = []
        for a in self.elements:
            row = []
            for e in self.idempotents:
                j = 0
                for ec, ac in zip(e, a):
                    j = j * m + (ec - ac) % m
                row.append(j)
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def cosets(self) -> tuple[tuple[int, int, int], ...]:
        """The cosets C of D, the additive span of the idempotents, ordered
        by least element, each as (mask, neg, loops): its element bitmask,
        the index of -C here, and the number of a in C with 2a idempotent.
        That number is 0 unless C = -C, since 2a = e puts -a = a - e in C.
        These are what `graphs._product_components` multiplies out.

        They are the components of the addition Cayley graph a ~ a + e, by
        `graphs.masked_components`: offsets[a][0] is -a, as idempotents[0]
        is 0, so row a is offsets[-a], every a + e.  Its third field is half
        the sum of the weights, so weights of twice the flags make it the
        loop count; -C holds -lo, lo least in C."""
        from .graphs import masked_components, set_bits  # here, as graphs imports this module
        table = self.offsets
        rows = [sum([1 << j for j in table[t[0]]]) for t in table]
        found = masked_components(rows, (1 << self.size) - 1, weights=[2 * d for d in self.doubles_idempotent])
        coset = {a: i for i, (mask, _, _) in enumerate(found) for a in set_bits(mask)}
        return tuple((mask, coset[table[(mask & -mask).bit_length() - 1][0]], loops) for mask, _, loops in found)


@dataclass(frozen=True)
class RingSpec:
    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        if not self.factors:
            raise RingSpecError("ring spec needs at least one factor")

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.size
        return n


def _poly_text(coeffs: Coeffs) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            xs = "x" if power == 1 else f"x^{power}"
            terms.append(xs if c == 1 else f"{c}{xs}")
    return " + ".join(terms) if terms else "0"


def format_ring_spec(spec: RingSpec) -> str:
    """Canonical text form; round-trips through parse_ring_spec."""
    parts = []
    for f in spec.factors:
        if f.poly:
            parts.append(f"Z{f.modulus}[x]/({_poly_text(f.poly)})")
        else:
            parts.append(f"Z{f.modulus}")
    return " * ".join(parts)


# One factor and the separator after it.  Whitespace may stand between any
# two tokens, and no two whitespace runs are adjacent, so a match takes
# linear time.  The polynomial is split into terms, each stripped and then
# matched with _TERM: c, x, x^e, c x or c x^e.
_FACTOR = re.compile(
    r"(?:GF\s*\(\s*(?P<q>\d+)\s*\)\s*"
    r"|Z\s*(?P<n>\d+)\s*(?:\[\s*x\s*\]\s*/\s*\((?P<poly>[^()]*)\)\s*)?)"
    r"(?:(?P<sep>[*×])\s*)?"
)
_TERM = re.compile(r"(?=[\dx])(?P<c>\d+)?(?:\s*(?P<x>x)(?:\s*\^\s*(?P<e>\d+))?)?")


def smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _number(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise RingSpecError("number too long", pos) from None


def _bound(factor: str, max_size: int, modulus: int, degree: int = 1):
    """Reject a factor of modulus**degree elements above the size bound
    before any work depends on it.  With modulus >= 2 the power passes the
    bound by exponent max_size.bit_length(), so no larger power is computed."""
    if modulus ** min(degree, max_size.bit_length()) > max_size:
        raise RingSizeError(f"factor {factor} has more than {max_size} elements")


def _factor_spec(m: re.Match, max_size: int) -> FactorSpec:
    """The factor one _FACTOR match spells.  Numbers are bounded before any
    arithmetic: n >= 2 before reducing mod n, and n, q or n^deg f against
    max_size before factoring q or building the coefficient tuple."""
    pos = m.start()
    if m["q"] is not None:
        q = _number(m["q"], pos)
        _bound(f"GF({q})", max_size, q)
        p = smallest_prime_factor(q)
        # q >= 2 is a power of its smallest prime p iff q divides p^k, k >= log2 q
        if q < 2 or pow(p, q.bit_length(), q):
            raise RingSpecError(f"GF({q}): {q} is not a prime power", pos)
        if q != p and q not in IRREDUCIBLE_POLYS:
            raise RingSpecError(f"GF({q}): no irreducible polynomial on file (table covers q <= 64)", pos)
        return FactorSpec(*IRREDUCIBLE_POLYS.get(q, (q, ())))
    n = _number(m["n"], pos)
    if n < 2:
        raise RingSpecError(f"modulus must be >= 2, got {n}", pos)
    _bound(f"Z{n}", max_size, n)
    if m["poly"] is None:
        return FactorSpec(n)
    coeffs: dict[int, int] = {}
    for text in m["poly"].split("+"):
        term = _TERM.fullmatch(text.strip())
        if not term:
            raise RingSpecError("expected a polynomial term", pos)
        power = _number(term["e"], pos) if term["e"] else (1 if term["x"] else 0)
        coeffs[power] = coeffs.get(power, 0) + (_number(term["c"], pos) if term["c"] else 1)
    degree = max((p for p, c in coeffs.items() if c % n != 0), default=0)
    _bound(f"Z{n}[x]/(f) with deg f = {degree}", max_size, n, degree)
    poly = tuple(coeffs.get(i, 0) % n for i in range(degree + 1))
    if len(poly) < 2 or poly[-1] != 1:
        raise RingSpecError(f"quotient polynomial must be monic of degree >= 1, got {_poly_text(poly)}", pos)
    return FactorSpec(n, poly)


def parse_ring_spec(text: str, max_size: int = DEFAULT_MAX_RING_SIZE) -> RingSpec:
    """Parse spec text like "Z4 * Z2" or "Z3[x]/(x^2) * GF(4)".

    Raises RingSizeError as soon as one factor would have more than
    max_size elements, before factoring its size or building its polynomial,
    or the product of the sizes so far would, before the rest is read: the
    first fault left to right is raised, so "Z64 * Z128 * ?" is a size
    error, not a syntax error.  A RingSpecError's position is the start of
    the factor or separator that failed.  Equal factors share one
    FactorSpec, so each one's facts are computed once.
    """
    factors, shared, size, sep = [], {}, 1, True
    pos = len(text) - len(text.lstrip())
    while sep:
        m = _FACTOR.match(text, pos)
        if not m:
            raise RingSpecError("expected a factor ('Z<n>', 'Z<n>[x]/(f)' or 'GF(q)')", pos)
        f = _factor_spec(m, max_size)
        size *= f.size
        if size > max_size:
            raise RingSizeError(f"ring has more than {max_size} elements")
        factors.append(shared.setdefault(f, f))
        pos, sep = m.end(), m["sep"]
    if pos < len(text):
        raise RingSpecError("expected '*' or '×' between factors", pos)
    return RingSpec(tuple(factors))


def _poly_mul(a: Coeffs, b: Coeffs, f: Coeffs, n: int) -> Coeffs:
    # Schoolbook product, then reduction mod the monic polynomial f and mod n.
    d = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % n
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * f[j]) % n
    out = res[:d]
    out += [0] * (d - len(out))
    return tuple(out)


def _factor_mul(f: FactorSpec, a: Coeffs, b: Coeffs) -> Coeffs:
    """Product of two coefficient vectors of the spec factor f."""
    if f.poly:
        return _poly_mul(a, b, f.poly, f.modulus)
    return ((a[0] * b[0]) % f.modulus,)


class FiniteRing:
    """Enumerable finite commutative ring with unity.

    Immutable after construction; elements are tuples of coefficient
    vectors, enumerated in lexicographic, factor-major order.
    """

    def __init__(self, spec: RingSpec, max_size: int = DEFAULT_MAX_RING_SIZE):
        if spec.size > max_size:
            # not the size itself: a product of thousands of factors has more
            # digits than str() converts
            raise RingSizeError(f"ring has more than {max_size} elements")
        self.spec = spec
        self.size = spec.size
        self.zero: Element = tuple((0,) * f.degree for f in spec.factors)
        self.one: Element = tuple((1,) + (0,) * (f.degree - 1) for f in spec.factors)
        self._idempotents: frozenset[Element] | None = None

    def __repr__(self):
        return f"FiniteRing({format_ring_spec(self.spec)!r})"

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Every element in enumeration order, built on first read: only
        labels and the tests need the whole-ring tuples."""
        return tuple(itertools.product(*(f.elements for f in self.spec.factors)))

    def add(self, x: Element, y: Element) -> Element:
        return tuple(
            tuple((a + b) % f.modulus for a, b in zip(xc, yc))
            for f, xc, yc in zip(self.spec.factors, x, y)
        )

    def neg(self, x: Element) -> Element:
        return tuple(
            tuple((-a) % f.modulus for a in xc)
            for f, xc in zip(self.spec.factors, x)
        )

    def mul(self, x: Element, y: Element) -> Element:
        return tuple(_factor_mul(f, a, b) for f, a, b in zip(self.spec.factors, x, y))

    def label(self, x: Element) -> str:
        parts = []
        for f, xc in zip(self.spec.factors, x):
            if f.poly:
                parts.append(_poly_text(xc) if any(xc) else "0")
            else:
                parts.append(str(xc[0]))
        return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"


def build_ring(spec: RingSpec | str, max_size: int = DEFAULT_MAX_RING_SIZE) -> FiniteRing:
    if isinstance(spec, str):
        spec = parse_ring_spec(spec, max_size=max_size)
    return FiniteRing(spec, max_size=max_size)


def idempotents(ring: FiniteRing) -> frozenset[Element]:
    """All x with x*x == x (cached on the ring).  Multiplication acts on each
    spec factor separately, so these are the tuples of the factors'
    idempotents (`FactorSpec.idempotents`), never a scan of the ring."""
    if ring._idempotents is None:
        ring._idempotents = frozenset(itertools.product(*(f.idempotents for f in ring.spec.factors)))
    return ring._idempotents


def is_local(ring: FiniteRing) -> bool:
    return idempotents(ring) == {ring.zero, ring.one}


def additive_closure(ring: FiniteRing, seed: set[Element] | frozenset[Element]) -> frozenset[Element]:
    """Smallest additive subgroup containing the seed set."""
    if not seed:
        raise ValueError("seed set must be nonempty")
    gens = set(seed) | {ring.neg(x) for x in seed}
    closed = {ring.zero} | gens
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                s = ring.add(a, g)
                if s not in closed:
                    closed.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(closed)


@dataclass(frozen=True)
class LocalFactorProfile:
    """One local factor R e, e a primitive idempotent: its size and its
    characteristic.  The paper's conditions read only these two."""

    factor_size: int
    factor_char: int

    @property
    def generated_by_idempotents(self) -> bool:
        """Whether 1 spans the factor additively: its characteristic is its size."""
        return self.factor_char == self.factor_size

    @property
    def is_z2(self) -> bool:
        return self.factor_size == 2

    @property
    def is_z3(self) -> bool:
        return self.factor_size == 3 and self.factor_char == 3


def primitive_idempotents(ring: FiniteRing) -> list[LocalFactorProfile]:
    """The local factors of the ring, one per atom of the Boolean algebra
    of idempotents, in the atoms' enumeration order.

    e <= f iff e*f == e; the atoms are the minimal nonzero idempotents and
    realize the local direct-product decomposition of the ring.  An
    idempotent is a tuple of the spec factors' idempotents, so an atom is
    one atom a of one spec factor R_k, zero in every other factor: then
    R e is R_k a, and the characteristic of R e is the additive order of a,
    n_k / gcd(n_k, a) for the factor's modulus n_k; `FactorSpec.atoms` keeps
    both for each of the factor's atoms.  An atom of a later factor comes
    first in enumeration order.
    """
    idempotents(ring)  # the ring's idempotent set, which every report reads; perfbench counts this call
    return [LocalFactorProfile(*atom) for f in reversed(ring.spec.factors) for atom in f.atoms]

"""Exact coefficient fields, weighted monomials and sparse polynomials in x, y, z.

Monomials are plain exponent triples (i, j, k).  A polynomial is a dict from
exponent triple to a nonzero field element, together with the ambient weights
and coefficient field.  Everything is immutable by convention: no function in
this package mutates a Polynomial after construction.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import lru_cache

VAR_NAMES = ("x", "y", "z")

# the largest integer a user may write, and the largest modulus coefficient
MAX_EXPONENT = 10**6

# the most terms that a power or product parsed from text (``textio``), or
# built by ``Polynomial.substitute``, may expand to
MAX_POWER_TERMS = 1000


class RingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """Arbitrary-precision rationals (the default coefficient field)."""

    degree = 1

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, ExtElem):
            raise RingError("cannot coerce an extension element into QQ")
        if isinstance(v, float):
            raise RingError("cannot coerce the float %r into QQ; use an int or a Fraction" % v)
        return Fraction(v)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def is_zero(self, v) -> bool:
        return v == 0

    def block(self, v):
        """the 1 x 1 matrix of multiplication by v, an int where it is whole"""
        v = self.coerce(v)
        return ((v.numerator if v.denominator == 1 else v,),)

    def format(self, v) -> str:
        return format_rational(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()
_ZERO = Fraction(0)


def format_rational(v: Fraction) -> str:
    # reduced "p" or "p/q", never a float
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


class ExtElem:
    """Element of Q[s]/(m(s)), stored as a dense coefficient tuple of length deg(m)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "ExtensionField", coeffs):
        self.field = field
        self.coeffs = tuple(map(QQ.coerce, coeffs))
        if len(self.coeffs) != field.degree:
            raise RingError("extension element has wrong coefficient length")

    @classmethod
    def _exact(cls, field, coeffs):
        """the element with these coefficients, taken unchecked: deg m
        Fractions, as field arithmetic makes them"""
        e = cls.__new__(cls)
        e.field = field
        e.coeffs = tuple(coeffs)
        return e

    def __add__(self, other):
        other = self.field.coerce(other)
        return ExtElem._exact(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ExtElem._exact(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self.field.coerce(other)
        return ExtElem._exact(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the coefficients: no product to reduce mod m
            return ExtElem._exact(self.field, [a * other for a in self.coeffs])
        other = self.field.coerce(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * self.field.inverse(other)

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, ExtElem):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        """whether self lies in Q: no coefficient of s, s^2, ... is nonzero"""
        return not any(self.coeffs[1:])

    def __repr__(self):
        return self.field.format(self)


class ExtensionField:
    """Q[s]/(m(s)) for a monic integer polynomial m, supplied as ascending
    coefficients [m0, m1, ..., 1] of size at most 10^6.  An m of degree 2 or
    more with an integer root, or with a repeated factor, is refused: that
    decides irreducibility up to degree 3.  Arithmetic reduces mod m after
    every multiplication.  There is one live field object per modulus,
    checked when it is made, so fields compare and hash by identity."""

    # modulus -> its field while anything holds the field; a refused modulus
    # never enters
    _interned = weakref.WeakValueDictionary()

    def __new__(cls, modulus):
        if not all(isinstance(c, (int, Fraction)) and c == int(c) for c in modulus):
            raise RingError("modulus coefficients must be integers")
        mod = [Fraction(c) for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 2:
            raise RingError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise RingError("modulus must be monic")
        if any(abs(c) > MAX_EXPONENT for c in mod):
            raise RingError("modulus coefficient %s exceeds the 10^6 guard" % max(mod, key=abs))
        field = cls._interned.get(tuple(mod))
        if field is None:
            field = super().__new__(cls)
            field.modulus = tuple(mod)
            field.degree = len(mod) - 1
            # s^degree = -(m0 + m1 s + ... + m_{deg-1} s^{deg-1})
            field._top = tuple(-c for c in mod[:-1])
            _check_irreducible(field)
            # setdefault: of two threads making one modulus, both get the first
            field = cls._interned.setdefault(field.modulus, field)
        return field

    def __reduce__(self):
        # unpickling and copying go through the constructor, and so to the
        # interned field
        return ExtensionField, (self.modulus,)

    def coerce(self, v):
        if isinstance(v, ExtElem):
            if v.field is not self:
                raise RingError("element of a different extension field")
            return v
        if isinstance(v, (int, Fraction)):
            return ExtElem._exact(self, (v if type(v) is Fraction else Fraction(v),)
                                  + (_ZERO,) * (self.degree - 1))
        raise RingError("cannot coerce %r into %r" % (v, self))

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    @property
    def generator(self):
        return ExtElem(self, self._times_s([1] + [0] * (self.degree - 1)))

    def is_zero(self, v) -> bool:
        return not bool(self.coerce(v))

    def _mul(self, u: ExtElem, v: ExtElem):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(u.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(v.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        # reduce degrees >= d downward using s^d = self._top
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            prod[k] = Fraction(0)
            for t, m in enumerate(self._top):
                if m != 0:
                    prod[k - d + t] += c * m
        return ExtElem._exact(self, prod[:d])

    def _times_s(self, a):
        """s * a for a coefficient list a: a shifted up a degree, with s^k
        folded back through ``_top``"""
        return [u + a[-1] * m for u, m in zip([0] + a[:-1], self._top)]

    def block(self, v):
        """the k x k rational matrix of multiplication by v on the basis 1, s,
        ..., s^(k-1), k = deg m: row u, column t holds the s^u coefficient of
        v * s^t, an int where it is whole."""
        a = list(self.coerce(v).coeffs)
        cols = [a]
        for _ in range(self.degree - 1):
            a = self._times_s(a)
            cols.append(a)
        return [[q.numerator if q.denominator == 1 else q for q in row] for row in zip(*cols)]

    def inverse(self, v: ExtElem):
        """the w with block(v) * w = (1, 0, ..., 0), by Gauss-Jordan on the
        k x k block; a singular block means v shares a factor with m"""
        v = self.coerce(v)
        if not v:
            raise ZeroDivisionError("division by zero in extension field")
        k = self.degree
        rows = [[Fraction(q) for q in row] + [Fraction(int(u == 0))]
                for u, row in enumerate(self.block(v))]
        for c in range(k):
            p = next((r for r in range(c, k) if rows[r][c]), None)
            if p is None:
                raise RingError("modulus is not coprime with the element; m reducible?")
            pivot = [q / rows[p][c] for q in rows[p]]
            rows[p] = rows[c]
            rows[c] = pivot
            for r in range(k):
                f = rows[r][c]
                if r != c and f:
                    rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
        return ExtElem._exact(self, [row[k] for row in rows])

    def format(self, v) -> str:
        v = self.coerce(v)
        parts = []
        for i, c in enumerate(v.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            else:
                base = "s" if i == 1 else "s^%d" % i
                if c == 1:
                    parts.append(base)
                elif c == -1:
                    parts.append("-" + base)
                else:
                    parts.append(format_rational(c) + "*" + base)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += "+" + p if not p.startswith("-") else p
        return out

    def __repr__(self):
        return "QQ[s]/(%s)" % " + ".join(
            "%s*s^%d" % (format_rational(c), i) for i, c in enumerate(self.modulus) if c != 0
        )


def _check_irreducible(field):
    """refuse a modulus m with an integer root or a repeated factor.  A
    rational root of the monic integer m, a factor unless deg m = 1, is an
    integer dividing m0, and a repeated factor is shared with m'."""
    mod = field.modulus
    m0 = int(abs(mod[0]))
    roots = [r for d in range(1, math.isqrt(m0) + 1) if m0 % d == 0
             for r in (d, -d, m0 // d, -m0 // d)] if m0 else [0]
    for r in roots:
        if field.degree > 1 and sum(c * r ** i for i, c in enumerate(mod)) == 0:
            raise RingError("modulus is reducible: it has the root %d" % r)
    try:
        field.inverse(ExtElem(field, [i * c for i, c in enumerate(mod)][1:]))
    except RingError:
        raise RingError("modulus is reducible: it has a repeated factor") from None


# ---------------------------------------------------------------------------
# weights and monomials


class Weights:
    """Positive integer degrees (a, b, c) of x, y, z with gcd(a,b,c) = 1."""

    __slots__ = ("a", "b", "c", "tuple", "_hash")

    def __init__(self, a: int, b: int, c: int):
        if not all(isinstance(v, int) and v >= 1 for v in (a, b, c)):
            raise RingError("weights must be positive integers")
        if math.gcd(a, math.gcd(b, c)) != 1:
            raise RingError("weights must have gcd 1, got (%d,%d,%d)" % (a, b, c))
        t = (a, b, c)
        for name, value in (("a", a), ("b", b), ("c", c), ("tuple", t), ("_hash", hash(t))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Weights is immutable")

    def __reduce__(self):
        # the default restore of slot state would go through __setattr__
        return Weights, self.tuple

    @property
    def n_default(self) -> int:
        return self.a + self.b + self.c

    def mono_degree(self, m) -> int:
        return self.a * m[0] + self.b * m[1] + self.c * m[2]

    def __eq__(self, other):
        return isinstance(other, Weights) and self.tuple == other.tuple

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Weights(%d,%d,%d)" % self.tuple


def mono_key(weights: Weights, m) -> tuple:
    """Sort key of the fixed monomial order: weighted degree first, then
    reverse-lexicographic tie-break (larger = later x-exponent deficit; for
    equal degrees the last nonzero entry of the exponent difference decides,
    negative meaning larger).  key(m1) < key(m2) iff m1 < m2 in the order."""
    return (weights.mono_degree(m), -m[2], -m[1], -m[0])


@lru_cache(maxsize=4096)
def monomial_basis(weights: Weights, d: int) -> tuple:
    """All exponent triples of weighted degree exactly d, in the fixed order
    (ascending), memoised per (weights, degree).  Empty for d < 0."""
    if d < 0:
        return ()
    a, b, c = weights.tuple
    out = []
    # one degree: ascending in the order is descending in z, then in y
    for k in range(d // c, -1, -1):
        rem_k = d - c * k
        for j in range(rem_k // b, -1, -1):
            rem = rem_k - b * j
            if rem % a == 0:
                out.append((rem // a, j, k))
    return tuple(out)


def count_monomials(weights: Weights, d: int) -> int:
    return len(monomial_basis(weights, d))


# ---------------------------------------------------------------------------
# polynomials

UNDEFINED_DEGREE = "undefined"  # degree sentinel of the zero polynomial


class Polynomial:
    __slots__ = ("weights", "field", "terms", "_hash", "_hdeg")

    def __init__(self, weights: Weights, field, terms):
        """terms: mapping exponent-triple -> coefficient; zeros are pruned."""
        self.weights = weights
        self.field = field
        clean = {}
        for m, coef in terms.items():
            coef = field.coerce(coef)
            if coef:
                clean[m] = coef
        self.terms = clean
        self._hash = self._hdeg = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(weights: Weights, field=QQ) -> "Polynomial":
        return Polynomial(weights, field, {})

    @staticmethod
    def constant(weights: Weights, value, field=QQ) -> "Polynomial":
        return Polynomial(weights, field, {(0, 0, 0): value})

    @staticmethod
    def monomial(weights: Weights, m, coef=1, field=QQ) -> "Polynomial":
        return Polynomial(weights, field, {tuple(m): coef})

    @staticmethod
    def variable(weights: Weights, v: str, field=QQ) -> "Polynomial":
        i = VAR_NAMES.index(v)
        m = tuple(1 if t == i else 0 for t in range(3))
        return Polynomial(weights, field, {m: 1})

    def _new(self, terms) -> "Polynomial":
        return Polynomial(self.weights, self.field, terms)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Weighted degree (max over terms); the zero polynomial returns the
        UNDEFINED_DEGREE sentinel, never an integer."""
        if not self.terms:
            return UNDEFINED_DEGREE
        return max(self.weights.mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.weights.mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial, memoised like the
        hash; error otherwise."""
        if self._hdeg is None:
            degs = {self.weights.mono_degree(m) for m in self.terms}
            if len(degs) != 1:
                raise RingError("polynomial is zero or not homogeneous")
            self._hdeg = degs.pop()
        return self._hdeg

    def coefficient(self, m):
        return self.terms.get(tuple(m), self.field.zero)

    def leading_monomial(self):
        if not self.terms:
            raise RingError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda m: mono_key(self.weights, m))

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        ms = sorted(self.terms, key=lambda m: mono_key(self.weights, m), reverse=True)
        return [(m, self.terms[m]) for m in ms]

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.weights != other.weights:
            raise RingError("polynomials carry different weights")
        if self.field != other.field:
            raise RingError("polynomials carry different coefficient fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExtElem)):
            other = Polynomial.constant(self.weights, other, self.field)
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, coef in other.terms.items():
            prev = terms.get(m)
            s = coef if prev is None else prev + coef
            if s:
                terms[m] = s
            else:
                del terms[m]
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExtElem)):
            other = Polynomial.constant(self.weights, other, self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExtElem)):
            c = self.field.coerce(other)
            if self.field.is_zero(c):
                return Polynomial.zero(self.weights, self.field)
            return self._new({m: co * c for m, co in self.terms.items()})
        self._check_compatible(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                c = c1 * c2
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise RingError("polynomial powers need a non-negative integer exponent")
        result = Polynomial.constant(self.weights, 1, self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        """divide through by the leading coefficient"""
        lc = self.leading_coefficient()
        if lc == self.field.one:
            return self
        return self._new({m: c / lc for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.weights == other.weights
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))
            self._hash = hash((self.weights, self.field, items))
        return self._hash

    def __repr__(self):
        from .textio import format_poly

        return format_poly(self)

    # -- calculus ------------------------------------------------------------

    def partial(self, v) -> "Polynomial":
        """Formal partial derivative with respect to x, y or z."""
        i = VAR_NAMES.index(v) if isinstance(v, str) else v
        out = {}
        for m, coef in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            dm = list(m)
            dm[i] = e - 1
            out[tuple(dm)] = coef * e
        return self._new(out)

    def substitute(self, images) -> "Polynomial":
        """Evaluate self at x,y,z -> images (three Polynomials).  A power of
        an image, or a product of powers, that could expand past
        MAX_POWER_TERMS terms is refused with RingError before it is
        expanded, by the parser's rule."""
        px, py, pz = images = tuple(images)
        px._check_compatible(py)
        px._check_compatible(pz)
        # powers[idx][e] is the e-th power of image idx, filled in order up
        # to the largest exponent asked for, one product per power
        powers = [[Polynomial.constant(px.weights, 1, px.field)] for _ in range(3)]

        def power(idx, e):
            cache = powers[idx]
            k = len(images[idx].terms)
            if len(cache) <= e and k > 1 and math.comb(e + k - 1, k - 1) > MAX_POWER_TERMS:
                raise RingError("substitution power may expand past the %d-term budget"
                                % MAX_POWER_TERMS)
            while len(cache) <= e:
                cache.append(cache[-1] * images[idx])
            return cache[e]

        acc = Polynomial.zero(px.weights, px.field)
        for m, coef in self.terms.items():
            term = Polynomial.constant(px.weights, coef, px.field)
            for idx in range(3):
                if m[idx]:
                    factor = power(idx, m[idx])
                    if len(term.terms) * len(factor.terms) > MAX_POWER_TERMS:
                        raise RingError("substitution product may expand past the %d-term "
                                        "budget" % MAX_POWER_TERMS)
                    term = term * factor
            acc = acc + term
        return acc


def rational_copy(p: Polynomial):
    """p over Q: p itself over Q; over Q[s]/(m) a copy over Q when no
    coefficient has an s-part, else None.  Ranks, kernel normal forms and
    reduced Groebner bases of rational input are the same over both fields,
    so the engines compute them on this copy."""
    if p.field == QQ:
        return p
    if not all(c.is_rational() for c in p.terms.values()):
        return None
    return Polynomial(p.weights, QQ, {m: c.coeffs[0] for m, c in p.terms.items()})


def check_potential(omega: Polynomial, abc_refusal=None) -> int:
    """Degree n of a potential, which must be nonzero, homogeneous and of
    positive degree; given ``abc_refusal``, n must also be a+b+c, and a
    potential of any other degree is refused with that message."""
    if omega.is_zero() or not omega.is_homogeneous():
        raise RingError("potential must be nonzero homogeneous")
    n = omega.homogeneous_degree()
    if n <= 0:
        raise RingError("potential must have positive degree")
    if abc_refusal is not None and n != omega.weights.n_default:
        raise RingError(abc_refusal)
    return n


# ---------------------------------------------------------------------------
# polynomial triples (derivation values / bivector components / form parts)


class PolyVector:
    __slots__ = ("f1", "f2", "f3")

    def __init__(self, f1: Polynomial, f2: Polynomial, f3: Polynomial):
        f1._check_compatible(f2)
        f1._check_compatible(f3)
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3

    @property
    def weights(self):
        return self.f1.weights

    @property
    def field(self):
        return self.f1.field

    @property
    def comps(self):
        return (self.f1, self.f2, self.f3)

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero() and self.f3.is_zero()

    def __add__(self, other: "PolyVector") -> "PolyVector":
        return PolyVector(self.f1 + other.f1, self.f2 + other.f2, self.f3 + other.f3)

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return PolyVector(self.f1 - other.f1, self.f2 - other.f2, self.f3 - other.f3)

    def __neg__(self):
        return PolyVector(-self.f1, -self.f2, -self.f3)

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return "(%r, %r, %r)" % self.comps


def gradient(f: Polynomial) -> PolyVector:
    return PolyVector(f.partial(0), f.partial(1), f.partial(2))


def div(v: PolyVector) -> Polynomial:
    return v.f1.partial(0) + v.f2.partial(1) + v.f3.partial(2)


def curl(v: PolyVector) -> PolyVector:
    return PolyVector(
        v.f3.partial(1) - v.f2.partial(2),
        v.f1.partial(2) - v.f3.partial(0),
        v.f2.partial(0) - v.f1.partial(1),
    )


def dot(u: PolyVector, v: PolyVector) -> Polynomial:
    return u.f1 * v.f1 + u.f2 * v.f2 + u.f3 * v.f3


def cross(u: PolyVector, v: PolyVector) -> PolyVector:
    return PolyVector(
        u.f2 * v.f3 - u.f3 * v.f2,
        u.f3 * v.f1 - u.f1 * v.f3,
        u.f1 * v.f2 - u.f2 * v.f1,
    )

"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`Cyc` is an exact element of Q(zeta_N) with zeta_N = e^{2*pi*i/N},
stored as integer numerators over one positive common denominator in the
power basis {1, zeta, ..., zeta^{phi(N)-1}}, after reduction modulo the N-th
cyclotomic polynomial.  Phi_N is monic with integer coefficients, so
addition, multiplication, the Galois action and lifting run on Python ints;
reduction reads a sparse integer table of zeta^j mod Phi_N.  The form is
canonical (numerators and denominator coprime), so equality of two elements
of one order is tuple equality.  Operands of different orders are lifted to
Q(zeta_lcm) first.  The rational coefficients are available as
``Cyc.coeffs``; :meth:`Cyc.exact_str` prints the same lowest-terms ratios
straight from the integers.

The numeric embedding rounds the real and imaginary parts each to the
nearest value, ties to even, on integers alone: to a double in a Python
complex at 53 bits or fewer, and to bits + 16 bits in an mpmath.mpc above
53 bits, the working precision of the numeric tables.  A component that is
zero in Q(zeta_N) is +0 and a rational one is rounded from its ratio; any
other is the numerators summed against fixed-point powers of zeta (Taylor
cos and sin over Machin's pi, each power within one unit of the last place,
cached per (order, precision) and computed on first use), at a precision
doubled until both ends of the error interval round to the same value
(Ziv's strategy).  mpmath is imported only above 53 bits.

Inversion multiplies the phi - 1 nontrivial Galois conjugates and divides by
the rational norm, so it too runs on integers, but it is the one costly field
operation.  Hot callers do not invert inside their loops: they invert the
quantum factorials once per model and invert roots of unity with
:meth:`Cyc.conjugate`.  Only the reference F-symbol route
(:mod:`su2k.radicals`) inverts anything else, its radical symbols, once each.

The module also provides the supporting number theory: Euler phi, cyclotomic
polynomials, exact square roots of squarefree integers via Gauss sums, and
minimal polynomials over Q via Galois orbits.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import IntegrityError


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, the product of (p - 1) * p^(e - 1) over n's prime powers."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items())


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n >= 1 as s**2 * f with f squarefree; return (s, f)."""
    s, f = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Built from Phi_1 = x - 1 with two identities: Phi_{pm}(x) = Phi_m(x^p) /
    Phi_m(x) for a prime p not dividing m, one exact division per prime
    factor of n, and Phi_n(x) = Phi_r(x^{n/r}) with r the product of those
    primes (Lang, Algebra, ch. VI, section 3).
    """
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial needs n >= 1, got {n}")
    poly = [-1, 1]
    radical = 1
    for p in factorize(n):
        poly = _int_poly_div_exact(_spread(poly, p), poly)
        radical *= p
    return tuple(_spread(poly, n // radical))


def _spread(poly: list[int], step: int) -> list[int]:
    """poly(x^step), constant first."""
    out = [0] * (step * (len(poly) - 1) + 1)
    out[::step] = poly
    return out


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (den monic up to sign).
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise IntegrityError("inexact polynomial division: leading coefficient")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise IntegrityError("inexact polynomial division: nonzero remainder")
    return out


@functools.lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta^j mod Phi_order for 0 <= j < max(order, 2*phi-1).

    Row j lists the nonzero (index, coefficient) pairs of zeta^j in the power
    basis, by ascending index.  Phi_order is monic with integer coefficients,
    so every entry is an integer, and the rows are sparse for the orders the
    models use.  Each row is zeta times the one before, built from that row's
    pairs and the nonzero coefficients of Phi, so no row costs phi steps.
    """
    phi = euler_phi(order)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})  (Phi is monic)
    tail = [(i, c) for i, c in enumerate(cyclotomic_polynomial(order)[:-1]) if c]
    rows: list[tuple[tuple[int, int], ...]] = [((j, 1),) for j in range(phi)]
    for _ in range(phi, max(order, 2 * phi - 1)):
        row = rows[-1]
        if row and row[-1][0] == phi - 1:  # zeta * zeta^(phi-1) reduces by Phi
            lead = row[-1][1]
            shifted = {i + 1: c for i, c in row[:-1]}
            for i, t in tail:
                shifted[i] = shifted.get(i, 0) - lead * t
            rows.append(tuple(sorted((i, c) for i, c in shifted.items() if c)))
        else:
            rows.append(tuple((i + 1, c) for i, c in row))
    return tuple(rows)


def _reduce(order: int, phi: int, dense: list[int]) -> list[int]:
    """Reduce an integer polynomial in zeta_order (dense, constant first) to the power basis."""
    table = _power_table(order)
    out = dense[:phi]
    for j in range(phi, len(dense)):
        c = dense[j]
        if c:
            for i, r in table[j]:
                out[i] += c * r
    return out


class Cyc:
    """An exact element of the cyclotomic field Q(zeta_order).

    Immutable.  The value is ``sum(num[i] * zeta^i) / den`` with ``num`` a
    tuple of phi(order) ints and ``den`` a positive int.  The form is
    canonical (gcd of den and all numerators is 1; zero has den 1), so two
    elements of the same order are equal iff their (num, den) are.
    Cross-order comparisons lift both operands to the lcm order first.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # value equality crosses field orders; use exact_str for keys

    def __init__(self, order: int, num: tuple[int, ...], den: int):
        """Wrap an already canonical (num, den); use :meth:`_make` otherwise."""
        self.order = order
        self.num = num
        self.den = den

    @staticmethod
    def _make(order: int, num: list[int], den: int) -> Cyc:
        """Canonicalize num / den (den > 0) by dividing out their common gcd."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return Cyc(order, tuple(num), den)

    @staticmethod
    def _from_terms(order: int, terms, den: int) -> Cyc:
        """(sum of c * zeta_order^e over integer (e, c) pairs) / den."""
        table = _power_table(order)
        out = [0] * euler_phi(order)
        for e, c in terms:
            for i, r in table[e % order]:
                out[i] += c * r
        return Cyc._make(order, out, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coefficients, each in lowest terms."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_exponents(order: int, terms: dict[int, Fraction]) -> Cyc:
        """Sum of c_e * zeta_order^e over the given exponent map (int or Fraction c_e)."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        den = math.lcm(*(c.denominator for c in terms.values()))
        return Cyc._from_terms(
            order, ((e, c.numerator * (den // c.denominator)) for e, c in terms.items()), den
        )

    @staticmethod
    def root_of_unity(order: int, exponent: int = 1) -> Cyc:
        """zeta_order^exponent, canonical."""
        return Cyc.from_exponents(order, {exponent: 1})

    @staticmethod
    def rational(value: Fraction | int, order: int = 1) -> Cyc:
        value = Fraction(value)
        num = [0] * euler_phi(order)
        num[0] = value.numerator
        return Cyc(order, tuple(num), value.denominator)

    # -- order management --------------------------------------------------

    def lift(self, new_order: int) -> Cyc:
        """Re-express in Q(zeta_new_order); new_order must be a multiple of order."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"cannot lift order {self.order} to {new_order}")
        step = new_order // self.order
        return Cyc._from_terms(
            new_order, ((i * step, c) for i, c in enumerate(self.num) if c), self.den
        )

    @staticmethod
    def _common(a: Cyc, b: Cyc) -> tuple[Cyc, Cyc]:
        if a.order == b.order:
            return a, b
        m = math.lcm(a.order, b.order)
        return a.lift(m), b.lift(m)

    # -- ring/field operations ---------------------------------------------

    def _add(self, other: Cyc, sign: int) -> Cyc:
        a, b = Cyc._common(self, other)
        fa, fb = (1, sign) if a.den == b.den else (b.den, sign * a.den)
        return Cyc._make(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    def __add__(self, other: Cyc | int | Fraction) -> Cyc:
        return self._add(_coerce(other), 1)

    def __sub__(self, other: Cyc | int | Fraction) -> Cyc:
        return self._add(_coerce(other), -1)

    def __rsub__(self, other: int | Fraction) -> Cyc:
        return _coerce(other) - self

    def __neg__(self) -> Cyc:
        return Cyc(self.order, tuple(-c for c in self.num), self.den)

    def _scaled(self, numerator: int, denominator: int) -> Cyc:
        return Cyc._make(self.order, [c * numerator for c in self.num], self.den * denominator)

    def __mul__(self, other: Cyc | int | Fraction) -> Cyc:
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        a, b = Cyc._common(self, other)
        phi = len(a.num)
        prod = [0] * (2 * phi - 1)
        b_terms = [(j, y) for j, y in enumerate(b.num) if y]
        for i, x in enumerate(a.num):
            if x:
                for j, y in b_terms:
                    prod[i + j] += x * y
        return Cyc._make(a.order, _reduce(a.order, phi, prod), a.den * b.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: Cyc | int | Fraction) -> Cyc:
        if isinstance(other, (int, Fraction)):
            f = 1 / Fraction(other)  # ZeroDivisionError for zero
            return self._scaled(f.numerator, f.denominator)
        return self * other.inverse()

    def __rtruediv__(self, other: int | Fraction) -> Cyc:
        return _coerce(other) / self

    def __pow__(self, n: int) -> Cyc:
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyc.rational(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> Cyc:
        """Multiplicative inverse by the Galois norm.

        With y the product of the images of x under every automorphism but
        the identity, x * y is the norm N(x), a nonzero rational, so
        1/x = y / N(x).  This is the one costly field operation (phi - 1
        products).  Hot callers avoid it: they invert the quantum factorials
        once per model, and invert roots of unity with :meth:`conjugate`;
        the reference F-symbol route inverts its radical symbols once each.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.order
        y = Cyc.rational(1, n)
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                y = y * self.galois(a)
        norm = (self * y).as_rational()
        if norm is None:
            raise IntegrityError("Galois norm is not rational")
        return y * (1 / norm)

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = Cyc._common(self, other)
        return a.num == b.num and a.den == b.den

    def galois(self, a: int) -> Cyc:
        """Image under the automorphism zeta -> zeta^a, gcd(a, order) = 1."""
        if math.gcd(a, self.order) != 1:
            raise ValueError(f"{a} is not coprime to {self.order}")
        return Cyc._from_terms(
            self.order, ((i * a, c) for i, c in enumerate(self.num) if c), self.den
        )

    def shifted(self, e: int) -> Cyc:
        """self * zeta^e, by moving each numerator e places and reducing, with no product."""
        return Cyc._from_terms(self.order, ((i + e, c) for i, c in enumerate(self.num) if c), self.den)

    def conjugate(self) -> Cyc:
        """Complex conjugate (the automorphism zeta -> zeta^-1); the inverse of a root of unity."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def as_rational(self) -> Fraction | None:
        """The rational value if this element lies in Q, else None.

        In the canonical power basis an element is rational iff every
        non-constant coefficient vanishes.
        """
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    # -- numerics ------------------------------------------------------------

    def approx(self, bits: int = 53):
        """Numeric embedding at zeta = e^{2*pi*i/order}, each part rounded to nearest, ties to even.

        For bits <= 53 it returns a Python complex of the doubles nearest the
        exact components; a result out of float range raises ArithmeticError.
        Above 53 bits it returns an mpmath.mpc whose parts are the nearest
        values at bits + 16 bits.  A component that is exactly zero in
        Q(zeta_N) is +0, and a rational one is rounded from its ratio.  Any
        other component is irrational, so it is never a dyadic midpoint, and
        the doubling loop of :meth:`_nearest` ends.
        """
        if bits <= 53:
            rounding, make = operator.truediv, complex  # int / int is correctly rounded
        else:
            import mpmath
            from mpmath.libmp import from_rational, round_nearest

            def rounding(n: int, d: int) -> tuple:
                return from_rational(n, d, bits + 16, round_nearest)

            def make(re: tuple, im: tuple) -> mpmath.mpc:
                return mpmath.mp.make_mpc((re, im))

        conj = self.conjugate()
        try:
            return make(self._nearest(self + conj, 0, rounding), self._nearest(self - conj, 1, rounding))
        except OverflowError:
            raise ArithmeticError("non-finite numeric embedding") from None

    def _nearest(self, twice: Cyc, part: int, rounding):
        """The real (part 0) or imaginary (part 1) component, as rounding(n, d) rounds n / d.

        twice is x + conj(x) = 2 Re x, or x - conj(x) = 2i Im x.  An
        irrational component's sum of the numerators against the fixed-point
        powers of :func:`_fixed_zeta_powers` at p bits is within sum |num|
        units of 2^p den times the component; p doubles until both ends of
        that interval round to the same value.
        """
        if twice.is_zero():
            return rounding(0, 1)
        order = self.order
        if part and order % 4 == 0:
            twice = twice.shifted(-(order // 4))  # -i * twice = 2 Im x, with i = zeta^(order/4)
        # twice is now rational exactly when the component is; where i is not in the field, a
        # nonzero Im x is irrational, since i = twice / (2 Im x) otherwise
        if not any(twice.num[1:]):
            return rounding(twice.num[0], 2 * twice.den)
        bound = sum(map(abs, self.num))
        bits = 64
        while True:
            powers = _fixed_zeta_powers(order, bits)
            total = sum(c * powers[e][part] for e, c in enumerate(self.num) if c)
            lo, hi = total - bound, total + bound
            if lo > 0 or hi < 0:
                scale = self.den << bits
                nearest = rounding(lo, scale)
                if nearest == rounding(hi, scale):
                    return nearest
            bits *= 2

    # -- formatting ----------------------------------------------------------

    def exact_str(self) -> str:
        """Serialization "c0 + c1*z^1 + ...; N=order" used by the JSON emitters."""
        num = self.num
        parts = [_ratio_str(num[0], self.den)] if num[0] or len(num) == 1 else []
        for e, c in enumerate(num[1:], start=1):
            if c:
                parts.append(f"{_ratio_str(c, self.den)}*z^{e}")
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f"; N={self.order}"

    def __repr__(self) -> str:
        return f"Cyc({self.exact_str()!r})"


class _FixedZetaPowers(dict):
    """zeta_order^e as integers (C, S) within one unit of 2^bits (cos, sin)(2 pi e / order),
    computed on the first lookup of each e.

    The work runs at w = bits + g bits with g = 2 * bitlength(bits) + 8 guard
    bits, and every step truncates.  pi is within 8w + 64 units of 2^-w
    (:func:`_fixed_pi`), the reduced angle within 2w + 17, and the Taylor sum
    within (w + 4)(2w + 19) < 2^(g-1) (:func:`_fixed_cos_sin`), so rounding
    the guard bits away leaves each of C and S within one unit.
    """

    def __init__(self, order: int, bits: int):
        super().__init__()
        self.order, self.bits = order, bits
        self.guard = 2 * bits.bit_length() + 8
        self.pi = _fixed_pi(bits + self.guard)

    def __missing__(self, e: int) -> tuple[int, int]:
        n, guard = self.order, self.guard
        # 2 pi e / n = quadrant * pi/2 + theta, with theta = pi r / (2n) folded into [0, pi/4]
        quadrant, r = divmod(4 * (e % n), n)
        folded = 2 * r > n
        c, s = _fixed_cos_sin(self.pi * (n - r if folded else r) // (2 * n), self.bits + guard)
        if folded:
            c, s = s, c
        half = 1 << (guard - 1)
        c, s = (c + half) >> guard, (s + half) >> guard
        for _ in range(quadrant):
            c, s = -s, c
        value = self[e] = (c, s)
        return value


@functools.lru_cache(maxsize=None)
def _fixed_zeta_powers(order: int, bits: int) -> _FixedZetaPowers:
    """The fixed-point powers of zeta_order at bits, each computed on first use."""
    return _FixedZetaPowers(order, bits)


@functools.lru_cache(maxsize=None)
def _fixed_pi(w: int) -> int:
    """pi * 2^w within 8w + 64, by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    Each atan(1/m) series term is within 2 units and the dropped tail within 1,
    over at most w / (2 log2 m) + 1 terms.
    """
    return 16 * _fixed_atan_inverse(5, w) - 4 * _fixed_atan_inverse(239, w)


def _fixed_atan_inverse(m: int, w: int) -> int:
    """atan(1/m) * 2^w by its alternating series, truncated."""
    power, square = (1 << w) // m, m * m
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= square
        k += 1
    return total


def _fixed_cos_sin(x: int, w: int) -> tuple[int, int]:
    """(cos, sin)(x / 2^w) * 2^w, truncated, from the Taylor series of exp(i x / 2^w).

    x / 2^w is within 2w + 17 units of an angle in [0, pi/4].  Term j carries
    at most that error plus 2 units and is below 0.8 / j of term j - 1, so
    the series stops within w + 2 terms, with a dropped tail below the last
    kept term's error.
    """
    term, j = 1 << w, 0
    sums = [term, 0, 0, 0]  # the terms (x / 2^w)^j / j! 2^w by j mod 4
    while term:
        j += 1
        term = term * x // (j << w)
        sums[j & 3] += term
    return sums[0] - sums[2], sums[1] - sums[3]


def _ratio_str(c: int, den: int) -> str:
    """c/den in lowest terms, printed as str(Fraction(c, den)) would print it (den > 0)."""
    g = math.gcd(c, den)
    return str(c // g) if den == g else f"{c // g}/{den // g}"


def _coerce(value: Cyc | int | Fraction) -> Cyc:
    if isinstance(value, Cyc):
        return value
    return Cyc.rational(Fraction(value))


# -- square roots of rationals as cyclotomic numbers --------------------------


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@functools.lru_cache(maxsize=None)
def sqrt_squarefree(f: int) -> Cyc:
    """The positive square root of a squarefree integer f >= 1, exactly.

    Built from quadratic Gauss sums: sqrt(2) = zeta_8 + zeta_8^-1, and for an
    odd prime p the Gauss sum over the Legendre character equals sqrt(p) for
    p = 1 (mod 4) and i*sqrt(p) for p = 3 (mod 4).
    """
    if f < 1:
        raise ValueError(f"need a positive squarefree integer, got {f}")
    result = Cyc.rational(1)
    for p in factorize(f):
        if p == 2:
            root = Cyc.root_of_unity(8, 1) + Cyc.root_of_unity(8, -1)
        else:
            gauss = Cyc.from_exponents(
                p, {a: Fraction(_legendre(a, p)) for a in range(1, p)}
            )
            if p % 4 == 1:
                root = gauss
            else:
                root = gauss * Cyc.root_of_unity(4, -1)
        result = result * root
    return result


def sqrt_rational(value: Fraction) -> Cyc:
    """Exact sqrt of a nonnegative rational as a cyclotomic number."""
    if value < 0:
        raise ValueError("sqrt_rational needs a nonnegative value")
    if value == 0:
        return Cyc.rational(0)
    s, f = squarefree_decomposition(value.numerator * value.denominator)
    return sqrt_squarefree(f) * Fraction(s, value.denominator)


# -- cosines of rational angles ----------------------------------------------


def cos_pi_fraction(p: int, r: int) -> Cyc:
    """cos(p*pi/r) exactly, as (zeta_{2r}^p + zeta_{2r}^-p) / 2."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    z = Cyc.root_of_unity(2 * r, p) + Cyc.root_of_unity(2 * r, -p)
    return z / 2


# -- minimal polynomials -------------------------------------------------------


def minimal_polynomial(x: Cyc) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over Q, constant coefficient first.

    Computed as the product of (t - conjugate) over the distinct Galois
    conjugates of x, in the field Q(zeta_order) that x is stored in: any
    cyclotomic field containing x gives the same distinct conjugates, so no
    smaller field is sought.  The coefficients are asserted rational.
    """
    n = x.order
    conjugates: dict[tuple[tuple[int, ...], int], Cyc] = {}
    for a in range(1, n + 1):
        if math.gcd(a, n) == 1:
            image = x.galois(a)
            conjugates.setdefault((image.num, image.den), image)  # canonical form
    poly: list[Cyc] = [Cyc.rational(1, n)]
    for c in conjugates.values():
        nxt = [Cyc.rational(0, n) for _ in range(len(poly) + 1)]
        for i, coeff in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + coeff
            nxt[i] = nxt[i] - coeff * c
        poly = nxt
    rational_coeffs = []
    for coeff in poly:
        r = coeff.as_rational()
        if r is None:
            raise ArithmeticError("Galois orbit product produced an irrational coefficient")
        rational_coeffs.append(r)
    return tuple(rational_coeffs)


@functools.lru_cache(maxsize=None)
def min_poly_2cos(m: int) -> tuple[Fraction, ...]:
    """Minimal polynomial of 2*cos(2*pi/m) over Q, constant coefficient first."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    value = Cyc.root_of_unity(m) + Cyc.root_of_unity(m, -1)
    return minimal_polynomial(value)

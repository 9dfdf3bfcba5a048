"""The reference form of the unitary F-symbols: formal square roots over a cyclotomic field.

:meth:`su2k.model.Model.f_symbol` and ``f_matrix_exact`` return each
unitary F-symbol as an exact value coef * sqrt(radicand), whose radicand is
a product of quantum integers.  Tracking the radicand as a *factored word*
over the quantum-integer alphabet keeps products exact: square parts fold
into the coefficient, factors equal to 1 vanish, and rational factors are
absorbed exactly through Gauss-sum square roots.

A :class:`RadicalSum` holds such terms grouped by radicand.  Its zero test
is sound: a sum is zero when every group cancels, and terms under distinct
radicands are never set against each other.  ``approx`` evaluates a sum
through :meth:`su2k.cyclotomic.Cyc.approx`: in float64 at 53 bits or fewer,
and above 53 bits in mpmath, which is imported only there.

No computation of the package runs on these values.  The exact axiom
sweeps decide every sum on the square-root-free vertex-gauge table of
:mod:`su2k.model`, and the certificates and the synthesis generators use
the closed-form qubit gauge of :mod:`su2k.universality`.  These values are
the independent exact form of the F-symbols that the regression suite, the
tests and the benchmark probes compare against.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc, sqrt_rational


class RadicalContext:
    """Radical bookkeeping over a fixed alphabet of positive real values.

    ``symbols`` maps an integer symbol (here: the quantum-integer index n for
    [n]_q) to its exact cyclotomic value, which must be real and positive.
    """

    def __init__(self, symbols: dict[int, Cyc]):
        self.symbols = dict(symbols)
        self._kind: dict[int, tuple[str, Cyc | None]] = {}
        self._inverse: dict[int, Cyc] = {}
        for n, value in self.symbols.items():
            if not value.is_real():
                raise ValueError(f"radical symbol {n} has a non-real value")
            rat = value.as_rational()
            if rat is not None:
                if rat <= 0:
                    raise ValueError(f"radical symbol {n} is not positive: {rat}")
                if rat == 1:
                    self._kind[n] = ("one", None)
                else:
                    self._kind[n] = ("rational", sqrt_rational(rat))
            else:
                self._kind[n] = ("irrational", None)

    def term(self, coef: Cyc, exponents: dict[int, int]) -> Radical:
        """Normalize coef * sqrt(prod_n symbol(n)**exponents[n])."""
        key: list[int] = []
        for n in sorted(exponents):
            e = exponents[n]
            if e == 0:
                continue
            kind, root = self._kind[n]
            if kind == "one":
                continue
            odd = e & 1
            half = (e - odd) // 2
            if half > 0:
                coef = coef * self.symbols[n] ** half
            elif half < 0:
                coef = coef * self.symbol_inverse(n) ** -half
            if odd:
                if kind == "rational":
                    coef = coef * root
                else:
                    key.append(n)
        return Radical(coef, tuple(key))

    def symbol_inverse(self, n: int) -> Cyc:
        """1 / symbol(n), inverted once per context."""
        if n not in self._inverse:
            self._inverse[n] = self.symbols[n].inverse()
        return self._inverse[n]


@dataclass(frozen=True)
class Radical:
    """An exact value coef * sqrt(prod of irrational alphabet symbols in key)."""

    coef: Cyc
    key: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.coef.is_zero()

    def mul(self, other: Radical, context: RadicalContext) -> Radical:
        coef = self.coef * other.coef
        shared = set(self.key) & set(other.key)
        for n in shared:
            coef = coef * context.symbols[n]
        key = tuple(sorted(set(self.key) ^ set(other.key)))
        return Radical(coef, key)

    def scaled(self, factor: Cyc | int | Fraction) -> Radical:
        return Radical(self.coef * factor, self.key)


class RadicalSum:
    """A finite sum of :class:`Radical` terms, grouped by radicand."""

    __slots__ = ("context", "groups")

    def __init__(self, context: RadicalContext, groups: dict[tuple[int, ...], Cyc] | None = None):
        self.context = context
        self.groups: dict[tuple[int, ...], Cyc] = {}
        if groups:
            for key, coef in groups.items():
                if not coef.is_zero():
                    self.groups[key] = coef

    @staticmethod
    def from_terms(context: RadicalContext, terms: list[Radical]) -> RadicalSum:
        out = RadicalSum(context)
        for t in terms:
            out._accumulate(t.key, t.coef)
        out._prune()
        return out

    def _accumulate(self, key: tuple[int, ...], coef: Cyc) -> None:
        if key in self.groups:
            self.groups[key] = self.groups[key] + coef
        else:
            self.groups[key] = coef

    def _prune(self) -> None:
        self.groups = {k: c for k, c in self.groups.items() if not c.is_zero()}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: RadicalSum) -> RadicalSum:
        out = RadicalSum(self.context, dict(self.groups))
        for key, coef in other.groups.items():
            out._accumulate(key, coef)
        out._prune()
        return out

    def __sub__(self, other: RadicalSum) -> RadicalSum:
        out = RadicalSum(self.context, dict(self.groups))
        for key, coef in other.groups.items():
            out._accumulate(key, -coef)
        out._prune()
        return out

    def __neg__(self) -> RadicalSum:
        return RadicalSum(self.context, {k: -c for k, c in self.groups.items()})

    def __mul__(self, other: RadicalSum | Cyc | int | Fraction) -> RadicalSum:
        if isinstance(other, (Cyc, int, Fraction)):
            return RadicalSum(self.context, {k: c * other for k, c in self.groups.items()})
        out = RadicalSum(self.context)
        for k1, c1 in self.groups.items():
            t1 = Radical(c1, k1)
            for k2, c2 in other.groups.items():
                prod = t1.mul(Radical(c2, k2), self.context)
                out._accumulate(prod.key, prod.coef)
        out._prune()
        return out

    __rmul__ = __mul__

    def conjugate(self) -> RadicalSum:
        """Complex conjugate; radicands are real positive so only coefficients flip."""
        return RadicalSum(self.context, {k: c.conjugate() for k, c in self.groups.items()})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test (sound; terms with distinct radicands never cancel here)."""
        return not self.groups

    def is_radical_free(self) -> bool:
        return all(k == () for k in self.groups)

    def cyc_value(self) -> Cyc:
        """The value as a plain cyclotomic number; requires a radical-free sum."""
        if not self.groups:
            return Cyc.rational(0)
        if not self.is_radical_free():
            raise ArithmeticError("sum still carries radicals")
        return self.groups[()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalSum):
            return (self - other).is_zero()
        if isinstance(other, (Cyc, int, Fraction)):
            diff = RadicalSum(self.context, dict(self.groups))
            diff._accumulate((), -(Cyc.rational(1) * other) if isinstance(other, (int, Fraction)) else -other)
            diff._prune()
            return diff.is_zero()
        return NotImplemented

    __hash__ = None

    # -- numerics -------------------------------------------------------------

    def approx(self, bits: int = 53):
        """The sum over the groups of coef.approx(bits) times the square roots of its radicand's
        symbols: in float64 at 53 bits or fewer, else in mpmath at working precision bits + 16."""
        if bits <= 53:
            sqrt, total, precision = math.sqrt, 0j, contextlib.nullcontext()
        else:
            import mpmath

            sqrt, total, precision = mpmath.sqrt, mpmath.mpc(0), mpmath.workprec(bits + 16)
        with precision:
            for key, coef in self.groups.items():
                root = 1.0
                for n in key:
                    root *= sqrt(max(self.context.symbols[n].approx(bits).real, 0.0))
                total += coef.approx(bits) * root
            return +total

    def __repr__(self) -> str:
        if not self.groups:
            return "RadicalSum(0)"
        parts = [
            f"({coef.exact_str()})*sqrt{list(key)}" if key else f"({coef.exact_str()})"
            for key, coef in sorted(self.groups.items())
        ]
        return "RadicalSum(" + " + ".join(parts) + ")"

"""Static data of the level-k SU(2) anyon model.

Anyon labels are half-integers 0, 1/2, ..., k/2, stored throughout as the
integer 2j.  The deformation parameter is q = e^{2*pi*i/(k+2)}; every exact
quantity lives in Q(zeta_N) with N = 4(k+2), the smallest order supporting
the quarter powers of q that braiding phases need.

The recoupling data has an exact and a numeric form:

* exact -- quantum integers as cyclotomic numbers, F-symbols as formal
  coef*sqrt(radicand) values (:class:`su2k.radicals.Radical`, a reference
  form that no computation here multiplies), and, for verification,
  F-symbols in a vertex gauge where each lies in Q(zeta_N) with no square
  root, and
* numeric -- one 6j formula evaluated over tables of [n] and [n]!, in
  float64 or directly in mpmath at a requested precision.

Pentagon and hexagon verification is one engine: an admissibility table
A[a, b, c] built once per model on first use, one instance enumerator per
axiom yielding bounded index blocks, and one vectorized evaluator per axiom
of the signed sums lhs - rhs over zero-extended F/R tensors.  The tensors
hold float64 or mpmath numbers, or, in exact mode, the gauge table as
Python ints evaluated at x = 2^B (Kronecker substitution) once per model,
whose sums are decided in Q(zeta_N) by one remainder modulo Phi_N(2^B).
The float64 F tensor is the one stored float F table; unitarity reads its
F-matrices there in every mode.  Topological spins, quantum dimensions and
the modular S-matrix live here as well; they are validated once per model,
the spin condition on exponents of zeta_N.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import mpmath

from .cyclotomic import Cyc, cyclotomic_polynomial, euler_phi
from .errors import MAX_LEVEL, DomainError, IntegrityError, require_f_table  # MAX_LEVEL lives in .errors: universality and the CLI read it too

if TYPE_CHECKING:
    import numpy as np

    from .radicals import Radical, RadicalContext


def label_str(twice_j: int) -> str:
    """Half-integer rendering of a doubled label: 0 -> "0", 1 -> "1/2", 2 -> "1"."""
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def parse_label(text: str) -> int:
    """Inverse of :func:`label_str`."""
    if "/" in text:
        num, den = text.split("/")
        if den.strip() != "2":
            raise DomainError(f"not a half-integer label: {text!r}")
        return int(num)
    return 2 * int(text)


@functools.lru_cache(maxsize=None)
def _gaussian_binomial(n: int, r: int) -> tuple[int, ...]:
    """Coefficients, constant first, of the Gaussian binomial (n choose r)_y, for 0 <= r <= n.

    It is (n)!_y / ((r)!_y (n-r)!_y) with (n)!_y = prod_{i <= n} (1 + y + ... + y^(i-1)),
    built by the rule (n choose r) = (n-1 choose r-1) + y^r (n-1 choose r),
    so its coefficients are nonnegative integers.
    """
    if r == 0 or r == n:
        return (1,)
    out = [0] * (r * (n - r) + 1)
    for i, c in enumerate(_gaussian_binomial(n - 1, r - 1)):
        out[i] += c
    for i, c in enumerate(_gaussian_binomial(n - 1, r)):
        out[i + r] += c
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _q_multinomial(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the Gaussian multinomial (p_1 + ... + p_r)!_y / prod (p_i)!_y.

    It is the product over i of (p_1 + ... + p_i choose p_i)_y.
    """
    out, total = (1,), 0
    for p in parts:
        total += p
        binomial = _gaussian_binomial(total, p)
        product = [0] * (len(out) + len(binomial) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(binomial):
                product[i + j] += u * v
        out = tuple(product)
    return out


class Model:
    """All static data of the anyon model at a fixed level."""

    def __init__(self, k: int):
        if k < 0:
            raise DomainError(f"level must be >= 0, got {k}")
        if k > MAX_LEVEL:
            raise DomainError(f"level must be at most {MAX_LEVEL} to build the model tables, got {k}")
        self.k = k
        self.N = 4 * (k + 2)
        self.labels: tuple[int, ...] = tuple(range(k + 1))
        self._qint: dict[int, Cyc] = {}
        self._qfact: dict[int, Cyc] = {}
        self._qfact_inv: dict[int, Cyc] = {}
        self._f_exact: dict[tuple[int, ...], Radical] = {}
        self._f_gauge: dict[tuple[int, ...], Cyc] | None = None
        self._tensors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._qint_f, self._qfact_f = self._q_tables(math.sin, math.pi)

    @functools.cached_property
    def radicals(self) -> RadicalContext:
        """The radical context over [1], ..., [k+1], built on first use by the exact F-symbols."""
        from .radicals import RadicalContext

        return RadicalContext({n: self.qint(n) for n in range(1, self.k + 2)})

    @functools.cached_property
    def _triples(self) -> tuple[tuple[int, int, int], ...]:
        """Every admissible (a, b; c), lexicographic (the order of np.nonzero(_adm)).  Built on first use."""
        return tuple((a, b, c) for a in self.labels for b in self.labels for c in self.fusion(a, b))

    @functools.cached_property
    def _adm(self) -> np.ndarray:
        """A[a, b, c]: (a, b; c) is admissible.  Built on first use; certificates never read it."""
        import numpy as np

        adm = np.zeros((self.k + 1,) * 3, dtype=bool)
        adm[tuple(zip(*self._triples))] = True
        return adm

    def _q_tables(self, sin, pi) -> tuple[list, list]:
        """[n] = sin(n pi/(k+2)) / sin(pi/(k+2)) and [n]! for n < 2k+4, in the arithmetic of sin and pi."""
        denom = sin(pi / (self.k + 2))
        qint = [sin(n * pi / (self.k + 2)) / denom for n in range(0, 2 * self.k + 4)]
        qfact = [1.0]
        for n in range(1, 2 * self.k + 4):
            qfact.append(qfact[-1] * qint[n])
        return qint, qfact

    # -- labels and fusion ----------------------------------------------------

    def check_label(self, a: int) -> None:
        if not (0 <= a <= self.k):
            raise DomainError(f"label {a}/2 is not valid at level {self.k}")

    def fusion(self, a: int, b: int) -> tuple[int, ...]:
        """Admissible total charges of a x b: |a-b| <= c <= min(a+b, 2k-a-b), step 2."""
        self.check_label(a)
        self.check_label(b)
        return tuple(range(abs(a - b), min(a + b, 2 * self.k - a - b) + 1, 2))

    def admissible(self, a: int, b: int, c: int) -> bool:
        return (
            0 <= a <= self.k
            and 0 <= b <= self.k
            and 0 <= c <= self.k
            and (a + b + c) % 2 == 0
            and abs(a - b) <= c <= min(a + b, 2 * self.k - a - b)
        )

    def fusion_tensor(self) -> np.ndarray:
        """N[a, b, c] in {0, 1}."""
        return self._adm.astype(int)

    # -- quantum integers -------------------------------------------------------

    def qint(self, n: int) -> Cyc:
        """The quantum integer [n]_q, exact.  [0] = 0, [k+2] = 0.

        Summed as q^{(n-1)/2} + q^{(n-3)/2} + ... + q^{-(n-1)/2} with
        q^{1/2} = zeta_N^2, which equals (q^{n/2} - q^{-n/2}) / (q^{1/2} - q^{-1/2})
        without a field division.
        """
        if n < 0:
            raise DomainError(f"quantum integer needs n >= 0, got {n}")
        if n not in self._qint:
            self._qint[n] = Cyc.from_exponents(self.N, {2 * (n - 1 - 2 * j): 1 for j in range(n)})
        return self._qint[n]

    def qfact(self, n: int) -> Cyc:
        """The quantum factorial [n]_q!, with [0]! = 1."""
        if n < 0:
            raise DomainError(f"quantum factorial needs n >= 0, got {n}")
        if n not in self._qfact:
            value = Cyc.rational(1, self.N)  # [0]! in Q(zeta_N), so products with it need no lift
            for t in range(1, n + 1):
                value = value * self.qint(t)
            self._qfact[n] = value
        return self._qfact[n]

    def qfact_inverse(self, n: int) -> Cyc:
        """1 / [n]_q!, inverted once per model; n must be below k+2."""
        if n not in self._qfact_inv:
            self._qfact_inv[n] = self.qfact(n).inverse()
        return self._qfact_inv[n]

    # -- R-symbols ----------------------------------------------------------------

    def _r_sign_exponent(self, a: int, b: int, c: int) -> tuple[int, int]:
        if not self.admissible(a, b, c):
            raise DomainError(
                f"inadmissible triple ({label_str(a)},{label_str(b)};{label_str(c)}) at level {self.k}"
            )
        sign = (c - a - b) // 2
        exponent = (c * (c + 2) - a * (a + 2) - b * (b + 2)) // 2
        return sign, exponent

    def r_symbol(self, a: int, b: int, c: int) -> Cyc:
        """Exact R-symbol for the counterclockwise exchange of a and b in channel c."""
        sign, exponent = self._r_sign_exponent(a, b, c)
        value = Cyc.root_of_unity(self.N, exponent)
        return -value if sign % 2 else value

    def r_symbol_complex(self, a: int, b: int, c: int) -> complex:
        sign, exponent = self._r_sign_exponent(a, b, c)
        value = cmath.exp(2j * cmath.pi * exponent / self.N)
        return -value if sign % 2 else value

    # -- F-symbols -------------------------------------------------------------------

    @staticmethod
    def _f_vertices(a: int, b: int, c: int, d: int, m: int, n: int) -> tuple[tuple[int, int, int], ...]:
        """The four vertices (x, y; w) of F^{abc}_{d;nm}: (ab)m, (mc)d, (bc)n, (an)d."""
        return (a, b, m), (m, c, d), (b, c, n), (a, n, d)

    @staticmethod
    def _triangle(x: int, y: int, w: int) -> tuple[int, int, int, int]:
        """(p, q, r, s) with the triangle coefficient D(x,y,w) = [p]! [q]! [r]! / [s]!."""
        return (-x + y + w) // 2, (x - y + w) // 2, (x + y - w) // 2, (x + y + w) // 2 + 1

    def _f_check(self, a: int, b: int, c: int, d: int, m: int, n: int) -> None:
        for triple in self._f_vertices(a, b, c, d, m, n):
            if not self.admissible(*triple):
                raise DomainError(
                    f"inadmissible F-symbol ({label_str(a)},{label_str(b)},{label_str(c)};"
                    f"{label_str(d)}) with channels {label_str(m)},{label_str(n)} at level {self.k}"
                )

    @staticmethod
    def _z_range(a: int, b: int, c: int, d: int, m: int, n: int) -> tuple[int, int, list[int], list[int]]:
        lows = [(x + y + w) // 2 for x, y, w in Model._f_vertices(a, b, c, d, m, n)]
        highs = [(a + b + c + d) // 2, (a + m + c + n) // 2, (b + m + d + n) // 2]
        return max(lows), min(highs), lows, highs

    def _zsum_sign(self, a: int, b: int, c: int, d: int, m: int, n: int) -> tuple[Cyc, int]:
        """The alternating z-sum of the 6j formula, exact, and the sign (-1)^((a+b+c+d)/2).

        The sum runs over z in [max lows, min highs] of
        (-1)^z [z+1]! / prod_t [z - t]! prod_u [u - z]!, with t over the four
        vertex sums `lows` and u over the three `highs` (:meth:`_z_range`).
        It is evaluated as a sum of Gaussian multinomials, with no field
        inverse and one reduction mod Phi_N:

        * The seven parts p = z - t and u - z sum to z, because
          sum(highs) = sum(lows) = a + b + c + d + m + n (each label lies on
          two vertices and in two highs).
        * With x = zeta_N^2 = q^(1/2) and y = x^2, [n] = x^(-(n-1)) (n)_y with
          (n)_y = 1 + y + ... + y^(n-1), so [n]! = x^(-n(n-1)/2) (n)!_y.
        * Hence each term is (-1)^z [z+1] x^(-(z(z-1) - sum p(p-1))/2) M(y),
          where M = (z)!_y / prod (p)!_y is the Gaussian multinomial of the
          parts, a product of Gaussian binomials with nonnegative integer
          coefficients (:func:`_q_multinomial`).  With [z+1] = x^(-z) (z+1)_y,
          (z+1)_y M is the multinomial of the eight parts (p, 1), and the
          exponent of x is -sum_{i<j} p_i p_j over those eight parts.

        These are identities of rational functions in x.  Their denominators,
        the [p]! with p <= k+1, are nonzero at zeta_N, so they hold there.
        The z-sum is collected as integer coefficients of zeta_N^e, e mod N,
        and reduced once by :meth:`Cyc._from_terms`.
        """
        z_lo, z_hi, lows, highs = self._z_range(a, b, c, d, m, n)
        coefficients = [0] * self.N
        for z in range(z_lo, z_hi + 1):
            # sorted, since the multinomial is symmetric in its parts and the sorted tuple is its cache key
            parts = tuple(sorted([z - t for t in lows] + [u - z for u in highs] + [1]))
            shift = -sum(p * q for p, q in itertools.combinations(parts, 2))
            sign = -1 if z % 2 else 1
            for power, coefficient in enumerate(_q_multinomial(parts)):
                coefficients[(2 * shift + 4 * power) % self.N] += sign * coefficient
        zsum = Cyc._from_terms(self.N, ((e, c) for e, c in enumerate(coefficients) if c), 1)
        return zsum, -1 if ((a + b + c + d) // 2) % 2 else 1

    def f_symbol(self, a: int, b: int, c: int, d: int, m: int, n: int) -> Radical:
        """Exact F-symbol: row channel n (fusing b,c), column channel m (fusing a,b).

        The value is sign * zsum * sqrt(radicand) with the radicand a product
        of quantum integers; square parts are folded away by the radical
        context so products of F-symbols stay exact.
        """
        key = (a, b, c, d, m, n)
        if key in self._f_exact:
            return self._f_exact[key]
        self._f_check(a, b, c, d, m, n)
        zsum, sign = self._zsum_sign(a, b, c, d, m, n)
        coef = zsum * sign
        word: dict[int, int] = {}
        word[m + 1] = word.get(m + 1, 0) + 1
        word[n + 1] = word.get(n + 1, 0) + 1
        for vertex in self._f_vertices(a, b, c, d, m, n):
            p, q, r, s = self._triangle(*vertex)
            for limit, step in ((p, 1), (q, 1), (r, 1), (s, -1)):
                for t in range(1, limit + 1):
                    word[t] = word.get(t, 0) + step
        value = self.radicals.term(coef, word)
        self._f_exact[key] = value
        return value

    def f_symbol_float(self, a: int, b: int, c: int, d: int, m: int, n: int) -> float:
        """Double-precision F-symbol (real), evaluated on each call; the sweeps read the F tensor."""
        self._f_check(a, b, c, d, m, n)
        return self._six_j((a, b, c, d, m, n), self._qint_f, self._qfact_f, math.sqrt)

    def _six_j(self, labels: tuple[int, ...], qint, qfact, sqrt):
        """The 6j formula for F over tables of [n] and [n]! and a matching sqrt.

        One body serves float64 (math tables) and mpmath (mpf tables); a
        negative radicand means the tables are wrong and raises.  The labels
        must be admissible: callers check them, or enumerate only live ones.
        """
        a, b, c, d, m, n = labels
        z_lo, z_hi, lows, highs = self._z_range(a, b, c, d, m, n)
        zsum = 0.0
        for z in range(z_lo, z_hi + 1):
            term = qfact[z + 1]
            for t in lows:
                term /= qfact[z - t]
            for u in highs:
                term /= qfact[u - z]
            zsum += -term if z % 2 else term
        sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
        radicand = qint[m + 1] * qint[n + 1]
        for vertex in self._f_vertices(a, b, c, d, m, n):
            p, q, r, s = self._triangle(*vertex)
            radicand *= qfact[p] * qfact[q] * qfact[r] / qfact[s]
        if radicand < 0:
            raise IntegrityError(f"negative F-symbol radicand {radicand} at labels {labels}")
        return sign * zsum * sqrt(radicand)

    def _channels(self, a: int, b: int, c: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rows, cols) of F^{abc}_d: the admissible n-channels of b x c and m-channels of a x b."""
        rows = tuple(n for n in self.fusion(b, c) if self.admissible(a, n, d))
        cols = tuple(m for m in self.fusion(a, b) if self.admissible(m, c, d))
        return rows, cols

    def f_matrix_exact(self, a: int, b: int, c: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...], list[list[Radical]]]:
        """(rows, cols, entries): rows are admissible n-channels, cols m-channels."""
        rows, cols = self._channels(a, b, c, d)
        entries = [[self.f_symbol(a, b, c, d, m, n) for m in cols] for n in rows]
        return rows, cols, entries

    def f_matrix_float(self, a: int, b: int, c: int, d: int):
        """(rows, cols, numpy array) like f_matrix_exact, in float64, evaluated on each call."""
        import numpy as np

        rows, cols = self._channels(a, b, c, d)
        mat = np.array(
            [[self.f_symbol_float(a, b, c, d, m, n) for m in cols] for n in rows],
            dtype=float,
        ).reshape(len(rows), len(cols))
        return rows, cols, mat

    # -- spins, dimensions, S-matrix ------------------------------------------------

    def spin(self, a: int) -> Cyc:
        """Topological spin theta_a = q^{j(j+1)}, an exact root of unity."""
        self.check_label(a)
        return Cyc.root_of_unity(self.N, a * (a + 2))

    def dim_exact(self, a: int) -> Cyc:
        """Quantum dimension [2j+1]_q, exact."""
        self.check_label(a)
        return self.qint(a + 1)

    def spins_dims_smatrix(self) -> tuple[list[Cyc], list[Cyc], list[list[Cyc]]]:
        """Validated spin table, dimension table, and S-matrix.

        Raises IntegrityError if the spin condition, the Perron-Frobenius
        cross-check, or S-matrix unitarity up to scale fails.  The checks run
        once per model; every call returns fresh lists of the same values.
        """
        spins, dims, smatrix, _ = self._validated_tables
        return list(spins), list(dims), [list(row) for row in smatrix]

    def _spin_condition_holds(self, a: int, b: int, c: int) -> bool:
        """theta_c / (theta_a theta_b) = R^{ab}_c R^{ba}_c, decided on exponents of zeta_N.

        theta_x = zeta^{x(x+2)}, R = (-1)^sign zeta^exponent and -1 = zeta^{N/2},
        so both sides are powers of zeta, and zeta^x = zeta^y iff x = y (mod N):
        this is the exact comparison of the two sides in Q(zeta_N).
        """
        sign_ab, exp_ab = self._r_sign_exponent(a, b, c)
        sign_ba, exp_ba = self._r_sign_exponent(b, a, c)
        lhs = c * (c + 2) - a * (a + 2) - b * (b + 2)
        rhs = exp_ab + exp_ba + (sign_ab + sign_ba) * (self.N // 2)
        return (lhs - rhs) % self.N == 0

    @functools.cached_property
    def _validated_tables(self) -> tuple[list[Cyc], list[Cyc], list[list[Cyc]], list[list[complex]]]:
        """(spins, dims, S, S as complex floats), checked as spins_dims_smatrix documents."""
        for a, b, c in self._triples:
            if not self._spin_condition_holds(a, b, c):
                raise IntegrityError(f"spin condition fails at ({label_str(a)},{label_str(b)};{label_str(c)})")
        spins = [self.spin(a) for a in self.labels]
        dims = [self.dim_exact(a) for a in self.labels]
        # S_ab = sum over c in a x b of theta_c d_c, times conj(theta_a theta_b) (dual(a) = a).
        # a x b is lo, lo + 2, ..., hi, so the sum is a difference of the parity prefix sums
        # upto[c] = theta_c d_c + upto[c - 2]; S is symmetric, so each pair is built once.
        upto: list[Cyc] = []
        for c in self.labels:
            twisted = spins[c] * dims[c]
            upto.append(twisted + upto[c - 2] if c >= 2 else twisted)
        size = self.k + 1
        smatrix: list[list[Cyc]] = [[None] * size for _ in range(size)]
        s_float: list[list[complex]] = [[None] * size for _ in range(size)]
        for a in self.labels:
            for b in range(a, size):
                channels = self.fusion(a, b)
                lo, hi = channels[0], channels[-1]
                acc = upto[hi] - upto[lo - 2] if lo >= 2 else upto[hi]
                entry = acc * (spins[a] * spins[b]).conjugate()
                smatrix[a][b] = smatrix[b][a] = entry
                s_float[a][b] = s_float[b][a] = entry.approx()
        self._check_dims_and_s([d.approx().real for d in dims], s_float)
        return spins, dims, smatrix, s_float

    def _check_dims_and_s(self, dims: list[float], s_float: list[list[complex]]) -> None:
        """Numeric cross-checks of the quantum dimensions and the S-matrix; raise IntegrityError.

        Perron-Frobenius: every d_a is positive and sum_{c in a x b} d_c = d_a d_b,
        so d is a positive eigenvector of each fusion matrix (N_a)_bc = N_ab^c
        with eigenvalue d_a.  A nonnegative matrix with a positive eigenvector
        has that eigenvalue as its spectral radius, so d_a is the
        Perron-Frobenius eigenvalue of N_a.  S: S S^dagger = D^2 I with
        D^2 = sum_c d_c^2, i.e. S / D is unitary (and so invertible).  Both hold
        to a relative 1e-10.
        """
        for a in self.labels:
            if not dims[a] > 0:
                raise IntegrityError(f"non-positive quantum dimension at {label_str(a)}")
        for a in self.labels:
            for b in range(a, self.k + 1):  # both sides are symmetric in a and b
                total = sum(dims[c] for c in self.fusion(a, b))
                product = dims[a] * dims[b]
                if not abs(total - product) <= 1e-10 * product:
                    raise IntegrityError(
                        f"dimension mismatch at ({label_str(a)},{label_str(b)}): sum of d_c over the "
                        f"fusion channels is {total}, d_a d_b = {product} (Perron-Frobenius)"
                    )
        scale = sum(d * d for d in dims)
        conj = [[z.conjugate() for z in row] for row in s_float]
        for a in self.labels:
            for b in range(a, self.k + 1):
                gram = sum(x * y for x, y in zip(s_float[a], conj[b]))
                if not abs(gram - (scale if a == b else 0)) <= 1e-10 * scale:
                    raise IntegrityError(
                        f"S-matrix is not unitary up to scale: (S S^dagger)[{label_str(a)},{label_str(b)}]"
                        f" = {gram}, expected {scale if a == b else 0}"
                    )

    # -- pentagon / hexagon verification -----------------------------------------------

    def verify_pentagon(self, mode: str = "auto", tol: float = 1e-9, precision: int = 53) -> VerificationReport:
        """Check F^{mcd}_{e;zn} F^{abz}_{e;ym} = sum_x F^{abc}_{n;xm} F^{axd}_{e;yn} F^{bcd}_{y;zx}.

        mode "exact" decides each instance exactly in the vertex gauge (see
        :meth:`_gauge_table`); mode "float" reports the maximum residual.
        "auto" picks exact for k <= 3.  tol must be positive and finite.
        """
        return self._verify("pentagon", mode, tol, precision, self._pentagon_rows(),
                            self._pentagon_sums, self._pentagon_gauge)

    def verify_hexagon(self, mode: str = "auto", tol: float = 1e-9, precision: int = 53) -> VerificationReport:
        """Check both hexagon identities (R and R^{-1} variants)."""
        return self._verify("hexagon", mode, tol, precision, self._hexagon_rows(),
                            self._hexagon_sums, self._hexagon_gauge, ("hex", "hex-inv"))

    def _pick_mode(self, mode: str) -> str:
        if mode == "auto":
            return "exact" if self.k <= 3 else "float"
        if mode not in ("exact", "float"):
            raise DomainError(f"unknown verification mode {mode!r}")
        return mode

    def _verify(self, name, mode, tol, precision, blocks, sums, gauge, tags=()) -> VerificationReport:
        """Evaluate every instance block and assemble the report.

        One evaluator per axiom gives the signed sum lhs - rhs of each
        identity of a row over the tensors of a route.  The float routes
        report its magnitude.  The exact route evaluates the same expression
        over the gauge table at x = 2^B (:attr:`_packed`) and settles each
        sum by its residue mod Phi_N(2^B) (:meth:`_settle`): 0 for a sum
        proved zero, and for any other sum its magnitude in the unitary
        gauge.  An identity fails when its residual exceeds tol (0 in exact
        mode); the first MAX_FAILURES failures in row order are kept, tagged
        when a row carries several identities.
        """
        import numpy as np

        require_f_table(self.k)
        mode = self._pick_mode(mode)
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be a positive finite number, got {tol}")
        with mpmath.workprec(precision + 16):
            if mode == "exact":
                report = VerificationReport(name, "exact", 0)
                bound = 0.0
                F, R, R_inv, D, B, P = self._packed

                def evaluate(rows):
                    return self._settle(sums(rows, F, R, R_inv, D), B, P, lambda: gauge(rows, self._vertex_float(), D))
            else:
                report = VerificationReport(name, "float" if precision <= 53 else f"float{precision}", 0)
                bound = tol
                F, R = self._recoupling_tensors(precision)
                R_inv = np.conj(R)  # R-symbols are phases; mpc conjugates round to the working precision

                def evaluate(rows):
                    return np.abs(sums(rows, F, R, R_inv, 1))

            for rows in blocks:
                res = evaluate(rows)
                report.checked += res.size
                report.max_residual = max(report.max_residual, res.max())
                for i in np.flatnonzero(res > bound)[:MAX_FAILURES - len(report.failures)]:
                    row, j = divmod(int(i), res.shape[1])
                    key = tuple(rows[row].tolist())
                    report.failures.append(((tags[j], *key) if tags else key, float(res.flat[i])))
        report.max_residual = float(report.max_residual)
        return report

    def _live_f(self):
        """Labels (a, b, c, d, n, m) of every admissible F-symbol, in lexicographic order."""
        import numpy as np

        A = self._adm
        live = np.nonzero(np.einsum("abm,mcd,bcn,and->abcdnm", A, A, A, A))
        return zip(*(axis.tolist() for axis in live))

    def _recoupling_tensors(self, precision: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-extended F[a, b, c, d, n, m] and R[a, b, c] at a working precision.

        Up to 53 bits: float64/complex128 arrays of the 6j formula over the
        float tables and of r_symbol_complex.  Above: object arrays of
        mpf/mpc, the same 6j formula and the R phases evaluated in mpmath at
        precision + 16 bits.
        """
        import numpy as np

        key = max(precision, 53)
        if key not in self._tensors:
            size = self.k + 1
            with mpmath.workprec(key + 16):
                if key == 53:
                    qint, qfact, sqrt, dtype = self._qint_f, self._qfact_f, math.sqrt, float
                    r_value = self.r_symbol_complex
                else:
                    qint, qfact = self._q_tables(mpmath.sin, mpmath.pi)
                    sqrt, dtype = mpmath.sqrt, object

                    def r_value(a, b, c):
                        sign, exponent = self._r_sign_exponent(a, b, c)
                        value = mpmath.expjpi(mpmath.mpf(2 * exponent) / self.N)
                        return -value if sign % 2 else value

                F = np.zeros((size,) * 6, dtype=dtype)
                for a, b, c, d, n, m in self._live_f():
                    F[a, b, c, d, n, m] = self._six_j((a, b, c, d, m, n), qint, qfact, sqrt)
                R = np.zeros((size,) * 3, dtype=complex if dtype is float else object)
                for a, b, c in self._triples:
                    R[a, b, c] = r_value(a, b, c)
            self._tensors[key] = F, R
        return self._tensors[key]

    # -- the exact route: F in the vertex gauge, packed -----------------------------------

    def _gauge_table(self) -> dict[tuple[int, ...], Cyc]:
        """Every admissible F in the vertex gauge, keyed like f_symbol (a, b, c, d, m, n).

        The unitary F is sign * zsum * sqrt([m+1][n+1] D(abm) D(mcd) D(bcn) D(and))
        with D(x,y,w) = [(-x+y+w)/2]! [(x-y+w)/2]! [(x+y-w)/2]! / [(x+y+w)/2+1]!.
        Rescaling the vertex (x,y;w) by v(x,y,w) = sqrt([w+1] D(x,y,w)),
        which is positive and symmetric in x and y, turns it into
        F'' = sign * zsum * [m+1] * D(abm) * D(mcd), an element of Q(zeta_N)
        with no square root.  The R-symbols do not change, since v is
        symmetric, and the pentagon and hexagon identities are
        gauge-invariant (Kitaev, arXiv:cond-mat/0506438, App. E), so F''
        satisfies them exactly when F does.  Built once per model.
        """
        if self._f_gauge is None:
            qfact = self.qfact
            delta, weighted = {}, {}  # D(x,y,w) and [w+1] D(x,y,w)
            for x, y, w in self._triples:
                p, q, r, s = self._triangle(x, y, w)
                delta[x, y, w] = qfact(p) * qfact(q) * qfact(r) * self.qfact_inverse(s)
                weighted[x, y, w] = self.qint(w + 1) * delta[x, y, w]
            table, outer = {}, {}  # outer: [m+1] D(abm) D(mcd), shared by every n
            for a, b, c, d, n, m in self._live_f():
                if (a, b, c, d, m) not in outer:
                    outer[a, b, c, d, m] = weighted[a, b, m] * delta[m, c, d]
                zsum, sign = self._zsum_sign(a, b, c, d, m, n)
                table[a, b, c, d, m, n] = zsum * sign * outer[a, b, c, d, m]
            self._f_gauge = table
        return self._f_gauge

    def _vertex_float(self) -> np.ndarray:
        """The gauge's vertex factors v(x, y, w) = sqrt([w+1] D(x,y,w)) in float64, 0 where inadmissible."""
        import numpy as np

        qint, qfact = self._qint_f, self._qfact_f
        V = np.zeros((self.k + 1,) * 3)
        for x, y, w in self._triples:
            p, q, r, s = self._triangle(x, y, w)
            V[x, y, w] = math.sqrt(qint[w + 1] * qfact[p] * qfact[q] * qfact[r] / qfact[s])
        return V

    @functools.cached_property
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
        """The gauge table at x = 2^B and the modulus that decides its sums: (F, R, R_inv, D, B, P).

        Built once per model for both axioms.  D is the common denominator of
        the table.  F[a, b, c, d, n, m] is f(2^B) for the integer polynomial
        f = D*F'' in the power basis, and 0 where inadmissible.  An R-symbol
        is a root of unity +-zeta^e = zeta^t with 0 <= t < N, stored as
        2^(tB); R_inv holds the conjugates.  Evaluation at 2^B is a ring map
        Z[x] -> Z (Kronecker substitution), so every pentagon or hexagon sum
        over these tensors is s(2^B), with s the same sum taken in Z[x],
        unreduced.

        P = Phi_N(2^B) decides it.  s - r is a multiple of Phi_N in Z[x], with
        r = s mod Phi_N the sum's power-basis value, so s(2^B) = r(2^B)
        (mod P).  Let H be the largest |coefficient| of a table entry and phi
        the degree of Phi_N.  A sum has at most k+2 terms; each is a triple
        product (coefficients at most phi^2 H^3), lhs*D (phi H^2 D), R F R D
        (H D) or F F R (phi H^2), so the coefficients of s are at most
        S = (k+2) phi^2 H^3 D, and its degree is below 3 phi + 2N.  With C
        the largest column sum of |zeta^j mod Phi_N| over j < 3 phi + 2N,
        every |r_i| <= S C.  With c the largest |coefficient| of Phi_N, B is
        the least integer with 2^(B-1) > S C + c.  Then M = max |r_i| has
        2M + c < 2^B, and with G = (2^(phi B) - 1) / (2^B - 1),
        |r(2^B)| <= M G while P >= 2^(phi B) - c G, so 2 |r(2^B)| < P because
        (2M + c) G <= 2^(phi B) - 1.  Hence the residue of s(2^B) in
        (-P/2, P/2] is r(2^B) itself: it is 0 iff r = 0, since base-2^B digits
        below 2^(B-1) in magnitude are unique, and otherwise its balanced
        base-2^B digits are r's coefficients.
        """
        import numpy as np

        table = self._gauge_table()
        D = math.lcm(*(value.den for value in table.values()))
        numerators = {labels: [c * (D // value.den) for c in value.num] for labels, value in table.items()}
        H = max(abs(c) for coefficients in numerators.values() for c in coefficients)
        phi, modulus = euler_phi(self.N), cyclotomic_polynomial(self.N)
        powers = [Cyc.root_of_unity(self.N, j).num for j in range(3 * phi + 2 * self.N)]
        C = max(sum(abs(row[i]) for row in powers) for i in range(phi))
        B = ((self.k + 2) * phi * phi * H ** 3 * D * C + max(map(abs, modulus))).bit_length() + 1
        size = self.k + 1
        F = np.zeros((size,) * 6, dtype=object)
        for (a, b, c, d, m, n), coefficients in numerators.items():
            F[a, b, c, d, n, m] = sum(c_i << (i * B) for i, c_i in enumerate(coefficients))
        R = np.zeros((size,) * 3, dtype=object)
        R_inv = np.zeros((size,) * 3, dtype=object)
        for a, b, c in self._triples:
            sign, exponent = self._r_sign_exponent(a, b, c)
            shift = (exponent + (self.N // 2 if sign % 2 else 0)) % self.N
            R[a, b, c] = 1 << (shift * B)
            R_inv[a, b, c] = 1 << ((-shift % self.N) * B)
        P = sum(c_i << (i * B) for i, c_i in enumerate(modulus))
        return F, R, R_inv, D, B, P

    def _settle(self, sums: np.ndarray, B: int, P: int, gauge) -> np.ndarray:
        """Exact residuals of sums over the table at 2^B, one per identity (see :attr:`_packed`).

        A sum whose residue mod P is 0 is zero.  Any other residue, taken in
        (-P/2, P/2], is split into its phi balanced base-2^B digits, the
        coefficients of the sum's value x in the power basis; its residual is
        |x| / g with g the row's factor from ``gauge()`` (the table's
        denominator power times the vertex-factor ratio), the magnitude of
        the sum in the unitary gauge.
        """
        import numpy as np

        res = np.zeros(sums.shape)
        residues = sums % P
        nonzero = np.flatnonzero(residues)
        if len(nonzero):
            factor = np.broadcast_to(np.asarray(gauge())[:, None], sums.shape).flat
            half, mask = 1 << (B - 1), (1 << B) - 1
            for i in nonzero.tolist():
                value = residues.flat[i]
                value = value - P if 2 * value > P else value
                digits = []
                for _ in range(euler_phi(self.N)):
                    digits.append(((value + half) & mask) - half)
                    value = (value - digits[-1]) >> B
                res.flat[i] = abs(Cyc(self.N, tuple(digits), 1).approx()) / factor[i]
        return res

    # -- instance enumerators and evaluators ------------------------------------------------

    def _pentagon_rows(self):
        """Pentagon instances (a,b,c,d,e,m,n,y,z) in lexicographic order, one block per (a,b).

        A row pairs a fusion tree (ab)m, (mc)n, (nd)e with a tree (cd)z, (bz)y,
        (ay)e of the same (c,d,e); the pairs are joined per (c,d,e) group.
        """
        import numpy as np

        A, size = self._adm, self.k + 1
        for a in self.labels:
            for b in self.labels:
                left = np.einsum("m,mcn,nde->cdemn", A[a, b], A, A).reshape(size ** 3, size * size)
                right = np.einsum("cdz,zy,ye->cdeyz", A, A[b], A[a]).reshape(size ** 3, size * size)
                group, mn = np.nonzero(left)
                yz = np.nonzero(right)[1]
                per_group = np.count_nonzero(right, axis=1)
                repeats = per_group[group]  # right-tree partners of each left tree
                if not repeats.any():
                    continue
                offset = np.cumsum(per_group) - per_group  # first right tree of each group
                starts = np.cumsum(repeats) - repeats  # first row of each left tree
                left_of = np.repeat(np.arange(len(group)), repeats)
                right_of = np.arange(len(left_of)) + np.repeat(offset[group] - starts, repeats)
                rows = np.empty((len(left_of), 9), dtype=np.intp)
                rows[:, 0], rows[:, 1] = a, b
                rows[:, 2:5] = np.column_stack(np.unravel_index(group[left_of], (size,) * 3))
                rows[:, 5], rows[:, 6] = np.divmod(mn[left_of], size)
                rows[:, 7], rows[:, 8] = np.divmod(yz[right_of], size)
                yield rows

    @staticmethod
    def _pentagon_sums(rows: np.ndarray, F: np.ndarray, R: np.ndarray, R_inv: np.ndarray, scale) -> np.ndarray:
        """lhs * scale - rhs per row, one column; scale is 1 except for the packed table."""
        import numpy as np

        a, b, c, d, e, m, n, y, z = rows.T
        lhs = F[m, c, d, e, z, n] * F[a, b, z, e, y, m]
        rhs = np.zeros(len(rows), dtype=F.dtype)
        for x in range(F.shape[0]):
            t1 = F[a, b, c, n, x, m]
            live = t1 != 0
            if live.any():
                rhs[live] += (
                    t1[live]
                    * F[a[live], x, d[live], e[live], y[live], n[live]]
                    * F[b[live], c[live], d[live], y[live], z[live], x]
                )
        if scale != 1:
            lhs = lhs * scale
        return (lhs - rhs)[:, None]

    @staticmethod
    def _pentagon_gauge(rows: np.ndarray, V: np.ndarray, D: int) -> np.ndarray:
        """Per row, the packed pentagon sum over the unitary one: D^3 times the vertex-factor ratio."""
        a, b, c, d, e, m, n, y, z = rows.T
        return float(D) ** 3 * V[a, b, m] * V[m, c, n] * V[n, d, e] / (V[a, y, e] * V[c, d, z] * V[b, z, y])

    def _hexagon_rows(self):
        """Hexagon instances (a,b,c,d,m,n) with (ba)m, (mc)d, (ac)n, (bn)d admissible, one block per (a,b)."""
        import numpy as np

        A = self._adm
        for a in self.labels:
            for b in self.labels:
                cdmn = np.nonzero(np.einsum("m,mcd,cn,nd->cdmn", A[b, a], A, A[a], A[b]))
                if len(cdmn[0]):
                    yield np.column_stack((np.full_like(cdmn[0], a), np.full_like(cdmn[0], b), *cdmn))

    @staticmethod
    def _hexagon_sums(rows: np.ndarray, F: np.ndarray, R: np.ndarray, R_inv: np.ndarray, scale) -> np.ndarray:
        """lhs * scale - rhs per row for the R and the R^{-1} hexagon, two columns."""
        import numpy as np

        a, b, c, d, m, n = rows.T
        f_bac = F[b, a, c, d, n, m]
        lhs1 = R[b, a, m] * f_bac * R[c, a, n]
        lhs2 = R_inv[a, b, m] * f_bac * R_inv[a, c, n]
        rhs1 = np.zeros(len(rows), dtype=R.dtype)
        rhs2 = np.zeros(len(rows), dtype=R.dtype)
        for x in range(F.shape[0]):
            t1 = F[a, b, c, d, x, m]
            live = t1 != 0
            if live.any():
                t3 = F[b[live], c[live], a[live], d[live], n[live], x]
                rhs1[live] += t1[live] * t3 * R[x, a[live], d[live]]
                rhs2[live] += t1[live] * t3 * R_inv[x, a[live], d[live]]
        if scale != 1:
            lhs1, lhs2 = lhs1 * scale, lhs2 * scale
        return np.column_stack((lhs1 - rhs1, lhs2 - rhs2))

    @staticmethod
    def _hexagon_gauge(rows: np.ndarray, V: np.ndarray, D: int) -> np.ndarray:
        """Per row, the packed hexagon sums over the unitary ones: D^2 times the vertex-factor ratio."""
        a, b, c, d, m, n = rows.T
        return float(D) ** 2 * V[b, a, m] * V[m, c, d] / (V[a, c, n] * V[b, n, d])

    # -- fusion-rule axioms -------------------------------------------------------------

    def verify_fusion_axioms(self) -> VerificationReport:
        """Commutativity, duality, unit law, vacuum pairing, associativity."""
        import numpy as np

        N = self.fusion_tensor()
        failures: list[tuple] = []
        checked = 0
        size = self.k + 1
        for a in range(size):
            for b in range(size):
                checked += 1
                if not np.array_equal(N[a, b], N[b, a]):
                    failures.append((("commutativity", a, b), 1.0))
                # duality: every label is self-dual
                if N[a, b, 0] != (1 if a == b else 0):
                    failures.append((("vacuum-pairing", a, b), 1.0))
                if N[0, a, b] != (1 if a == b else 0):
                    failures.append((("unit", a, b), 1.0))
        assoc_lhs = np.einsum("abp,pcd->abcd", N, N)
        assoc_rhs = np.einsum("aqd,bcq->abcd", N, N)
        checked += size ** 4
        if not np.array_equal(assoc_lhs, assoc_rhs):
            failures.append((("associativity",), 1.0))
        return VerificationReport("fusion-axioms", "exact", checked, failures, 0.0, 0)

    def verify_unitarity(self, tol: float = 1e-12) -> VerificationReport:
        """Every F-matrix (a block of the float64 F tensor, in any mode) is unitary; every R-symbol
        has unit modulus (exactly)."""
        import numpy as np

        require_f_table(self.k)
        failures: list[tuple] = []
        checked = 0
        max_residual = 0.0
        for a, b, c in self._triples:
            checked += 1
            r = self.r_symbol(a, b, c)
            if r * r.conjugate() != 1:
                failures.append((("r-modulus", a, b, c), 1.0))
        F = self._recoupling_tensors(53)[0]
        for a, b, c, d in itertools.product(self.labels, repeat=4):
            rows, cols = self._channels(a, b, c, d)
            if not rows or not cols:
                continue
            if len(rows) != len(cols):
                failures.append((("f-not-square", a, b, c, d), 1.0))
                continue
            mat = F[a, b, c, d][np.ix_(rows, cols)]
            residual = float(np.max(np.abs(mat @ mat.T.conj() - np.eye(len(rows)))))
            checked += 1
            max_residual = max(max_residual, residual)
            if residual > tol:
                failures.append((("f-unitarity", a, b, c, d), residual))
        return VerificationReport("unitarity", "float", checked, failures, max_residual, 0)

    # -- serialization ---------------------------------------------------------------------

    def json_payload(self) -> dict:
        spins, dims, smatrix = self.spins_dims_smatrix()
        fusion = [[list(self.fusion(a, b)) for b in self.labels] for a in self.labels]
        return {
            "schema": "su2k/model-v1",
            "k": self.k,
            "root_order": self.N,
            "labels": [label_str(a) for a in self.labels],
            "fusion": fusion,
            "dims": {
                "exact": [d.exact_str() for d in dims],
                "float": [d.approx().real for d in dims],
            },
            "spins": {
                "exact": [s.exact_str() for s in spins],
                "float": [[z.real, z.imag] for z in (s.approx() for s in spins)],
            },
            "S": {
                "exact": [[entry.exact_str() for entry in row] for row in smatrix],
                "float": [[[z.real, z.imag] for z in row] for row in self._validated_tables[3]],
            },
        }


#: counterexamples kept per verification report
MAX_FAILURES = 20


@dataclass
class VerificationReport:
    """Outcome of an axiom sweep."""

    name: str
    mode: str
    checked: int
    failures: list[tuple] = field(default_factory=list)
    max_residual: float = 0.0
    numeric_fallbacks: int = 0  # always 0 (every exact sum is decided exactly); kept in the verify JSON

    @property
    def holds(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "holds" if self.holds else f"FAILS ({len(self.failures)} counterexamples, first: {self.failures[0]})"
        extra = f", max residual {self.max_residual:.3e}" if self.mode.startswith("float") else ""
        return f"{self.name} [{self.mode}] over {self.checked} instances: {status}{extra}"


@functools.lru_cache(maxsize=None)
def get_model(k: int) -> Model:
    """Shared per-level model instance (immutable once built)."""
    return Model(k)

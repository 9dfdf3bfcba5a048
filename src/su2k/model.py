"""Static data of the level-k SU(2) anyon model.

Anyon labels are half-integers 0, 1/2, ..., k/2, stored throughout as the
integer 2j.  The deformation parameter is q = e^{2*pi*i/(k+2)}; every exact
quantity lives in Q(zeta_N) with N = 4(k+2), the smallest order supporting
the quarter powers of q that braiding phases need.

The model exposes two parallel evaluation routes for the recoupling data:

* exact -- quantum integers as cyclotomic numbers and F-symbols as formal
  coef*sqrt(radicand) values (:class:`su2k.radicals.Radical`), and
* float -- direct numeric evaluation (double precision or mpmath at a
  requested precision) for the large verification sweeps.

Pentagon and hexagon verification, topological spins, quantum dimensions and
the modular S-matrix live here as well.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .cyclotomic import Cyc
from .errors import DomainError, IntegrityError
from .radicals import Radical, RadicalContext, RadicalSum


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


@dataclass(frozen=True)
class Level:
    """A level k >= 0 with its root-of-unity order N = 4(k+2)."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise DomainError(f"level must be >= 0, got {self.k}")

    @property
    def root_order(self) -> int:
        return 4 * (self.k + 2)


class Model:
    """All static data of the anyon model at a fixed level."""

    def __init__(self, k: int):
        self.level = Level(k)
        self.k = k
        self.N = self.level.root_order
        self.labels: tuple[int, ...] = tuple(range(k + 1))
        self._qint: dict[int, Cyc] = {}
        self._qfact: dict[int, Cyc] = {}
        self._qfact_inv: dict[int, Cyc] = {}
        self._f_exact: dict[tuple[int, ...], Radical] = {}
        self._f_float: dict[tuple[int, ...], float] = {}
        self._fmat_float: dict[tuple[int, int, int, int], tuple] = {}
        context_symbols = {n: self.qint(n) for n in range(1, k + 2)}
        self.radicals = RadicalContext(context_symbols)
        # float quantum integers / factorials
        denom = math.sin(math.pi / (k + 2))
        self._qint_f = [math.sin(n * math.pi / (k + 2)) / denom for n in range(0, 2 * k + 4)]
        self._qfact_f = [1.0]
        for n in range(1, 2 * k + 4):
            self._qfact_f.append(self._qfact_f[-1] * self._qint_f[n])

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
        size = self.k + 1
        N = np.zeros((size, size, size), dtype=int)
        for a in self.labels:
            for b in self.labels:
                for c in self.fusion(a, b):
                    N[a, b, c] = 1
        return N

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
            value = Cyc.rational(1)
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

    def _f_check(self, a: int, b: int, c: int, d: int, m: int, n: int) -> None:
        for triple in ((a, b, m), (m, c, d), (b, c, n), (a, n, d)):
            if not self.admissible(*triple):
                raise DomainError(
                    f"inadmissible F-symbol ({label_str(a)},{label_str(b)},{label_str(c)};"
                    f"{label_str(d)}) with channels {label_str(m)},{label_str(n)} at level {self.k}"
                )

    @staticmethod
    def _z_range(a: int, b: int, c: int, d: int, m: int, n: int) -> tuple[int, int, list[int], list[int]]:
        lows = [(a + b + m) // 2, (m + c + d) // 2, (b + c + n) // 2, (a + n + d) // 2]
        highs = [(a + b + c + d) // 2, (a + m + c + n) // 2, (b + m + d + n) // 2]
        return max(lows), min(highs), lows, highs

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
        z_lo, z_hi, lows, highs = self._z_range(a, b, c, d, m, n)
        zsum = Cyc.rational(0)
        for z in range(z_lo, z_hi + 1):
            term = self.qfact(z + 1)
            for t in lows:
                term = term * self.qfact_inverse(z - t)
            for u in highs:
                term = term * self.qfact_inverse(u - z)
            zsum = zsum + (-term if z % 2 else term)
        sign = -1 if ((a + b + c + d) // 2) % 2 else 1
        coef = zsum * sign
        word: dict[int, int] = {}

        def add_fact(limit: int, step: int) -> None:
            for t in range(1, limit + 1):
                word[t] = word.get(t, 0) + step

        word[m + 1] = word.get(m + 1, 0) + 1
        word[n + 1] = word.get(n + 1, 0) + 1
        for (x, y, w) in ((a, b, m), (m, c, d), (b, c, n), (a, n, d)):
            add_fact((-x + y + w) // 2, 1)
            add_fact((x - y + w) // 2, 1)
            add_fact((x + y - w) // 2, 1)
            add_fact((x + y + w) // 2 + 1, -1)
        value = self.radicals.term(coef, word)
        self._f_exact[key] = value
        return value

    def f_symbol_float(self, a: int, b: int, c: int, d: int, m: int, n: int) -> float:
        """Double-precision F-symbol (real), for the large verification sweeps."""
        key = (a, b, c, d, m, n)
        if key in self._f_float:
            return self._f_float[key]
        self._f_check(a, b, c, d, m, n)
        z_lo, z_hi, lows, highs = self._z_range(a, b, c, d, m, n)
        fact = self._qfact_f
        zsum = 0.0
        for z in range(z_lo, z_hi + 1):
            term = fact[z + 1]
            for t in lows:
                term /= fact[z - t]
            for u in highs:
                term /= fact[u - z]
            zsum += -term if z % 2 else term
        sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
        radicand = self._qint_f[m + 1] * self._qint_f[n + 1]
        for (x, y, w) in ((a, b, m), (m, c, d), (b, c, n), (a, n, d)):
            radicand *= (
                fact[(-x + y + w) // 2]
                * fact[(x - y + w) // 2]
                * fact[(x + y - w) // 2]
                / fact[(x + y + w) // 2 + 1]
            )
        value = sign * zsum * math.sqrt(max(radicand, 0.0))
        self._f_float[key] = value
        return value

    def f_matrix_exact(self, a: int, b: int, c: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...], list[list[Radical]]]:
        """(rows, cols, entries): rows are admissible n-channels, cols m-channels."""
        cols = tuple(m for m in self.fusion(a, b) if self.admissible(m, c, d))
        rows = tuple(n for n in self.fusion(b, c) if self.admissible(a, n, d))
        entries = [[self.f_symbol(a, b, c, d, m, n) for m in cols] for n in rows]
        return rows, cols, entries

    def f_matrix_float(self, a: int, b: int, c: int, d: int):
        """(rows, cols, numpy array) with zero-extended admissibility filtering."""
        key = (a, b, c, d)
        if key in self._fmat_float:
            return self._fmat_float[key]
        cols = tuple(m for m in self.fusion(a, b) if self.admissible(m, c, d))
        rows = tuple(n for n in self.fusion(b, c) if self.admissible(a, n, d))
        mat = np.array(
            [[self.f_symbol_float(a, b, c, d, m, n) for m in cols] for n in rows],
            dtype=float,
        ).reshape(len(rows), len(cols))
        out = (rows, cols, mat)
        self._fmat_float[key] = out
        return out

    # -- spins, dimensions, S-matrix ------------------------------------------------

    def spin(self, a: int) -> Cyc:
        """Topological spin theta_a = q^{j(j+1)}, an exact root of unity."""
        self.check_label(a)
        return Cyc.root_of_unity(self.N, a * (a + 2))

    def dim_exact(self, a: int) -> Cyc:
        """Quantum dimension [2j+1]_q, exact."""
        self.check_label(a)
        return self.qint(a + 1)

    def dims_perron_frobenius(self) -> list[float]:
        """Quantum dimensions as Perron-Frobenius eigenvalues of the fusion matrices."""
        N = self.fusion_tensor()
        out = []
        for a in self.labels:
            eigs = np.linalg.eigvals(N[a])
            out.append(float(max(eigs.real)))
        return out

    def spins_dims_smatrix(self) -> tuple[list[Cyc], list[Cyc], list[list[Cyc]]]:
        """Validated spin table, dimension table, and S-matrix.

        Raises IntegrityError if the spin condition, the Perron-Frobenius
        cross-check, or S-matrix invertibility fails.
        """
        spins = [self.spin(a) for a in self.labels]
        # spin condition theta_c / (theta_a theta_b) = R^{ab}_c R^{ba}_c
        for a in self.labels:
            for b in self.labels:
                for c in self.fusion(a, b):
                    lhs = spins[c] * (spins[a] * spins[b]).conjugate()
                    rhs = self.r_symbol(a, b, c) * self.r_symbol(b, a, c)
                    if lhs != rhs:
                        raise IntegrityError(
                            f"spin condition fails at ({label_str(a)},{label_str(b)};{label_str(c)})"
                        )
        dims = [self.dim_exact(a) for a in self.labels]
        pf = self.dims_perron_frobenius()
        for a in self.labels:
            exact = dims[a].approx().real
            if abs(exact - pf[a]) > 1e-10:
                raise IntegrityError(
                    f"dimension mismatch at {label_str(a)}: [2j+1]_q={exact} vs PF={pf[a]}"
                )
            if exact <= 0:
                raise IntegrityError(f"non-positive quantum dimension at {label_str(a)}")
        smatrix = []
        for a in self.labels:
            row = []
            for b in self.labels:
                acc = Cyc.rational(0)
                for c in self.fusion(a, b):  # dual(a) = a
                    acc = acc + spins[c] * dims[c]
                row.append(acc * (spins[a] * spins[b]).conjugate())
            smatrix.append(row)
        s_num = np.array([[entry.approx() for entry in row] for row in smatrix])
        smallest_sv = min(np.linalg.svd(s_num, compute_uv=False))
        if smallest_sv < 1e-8:
            raise IntegrityError(f"S-matrix is numerically singular (sigma_min={smallest_sv})")
        return spins, dims, smatrix

    # -- pentagon / hexagon verification -----------------------------------------------

    def verify_pentagon(self, mode: str = "auto", tol: float = 1e-9, precision: int = 53) -> VerificationReport:
        """Check F^{mcd}_{e;zn} F^{abz}_{e;ym} = sum_x F^{abc}_{n;xm} F^{axd}_{e;yn} F^{bcd}_{y;zx}.

        mode "exact" proves each instance identically zero in radical
        arithmetic (with a high-precision numeric fallback for sums the
        grouping cannot settle); mode "float" reports the maximum residual.
        "auto" picks exact for k <= 3.
        """
        mode = self._pick_mode(mode)
        if mode == "exact":
            return self._verify_pentagon_exact(tol)
        return self._verify_pentagon_float(tol, precision)

    def verify_hexagon(self, mode: str = "auto", tol: float = 1e-9, precision: int = 53) -> VerificationReport:
        """Check both hexagon identities (R and R^{-1} variants)."""
        mode = self._pick_mode(mode)
        if mode == "exact":
            return self._verify_hexagon_exact(tol)
        return self._verify_hexagon_float(tol, precision)

    def _pick_mode(self, mode: str) -> str:
        if mode == "auto":
            return "exact" if self.k <= 3 else "float"
        if mode not in ("exact", "float"):
            raise DomainError(f"unknown verification mode {mode!r}")
        return mode

    def _pentagon_instances(self):
        """Yield (a,b,c,d,e, tree1 pairs (m,n), tree3 pairs (y,z)) with both trees nonempty."""
        labels = self.labels
        for a in labels:
            for b in labels:
                for c in labels:
                    for d in labels:
                        tree1: dict[int, list[tuple[int, int]]] = {}
                        for m in self.fusion(a, b):
                            for n in self.fusion(m, c):
                                for e in self.fusion(n, d):
                                    tree1.setdefault(e, []).append((m, n))
                        tree3: dict[int, list[tuple[int, int]]] = {}
                        for z in self.fusion(c, d):
                            for y in self.fusion(b, z):
                                for e in self.fusion(a, y):
                                    tree3.setdefault(e, []).append((y, z))
                        for e in tree1:
                            if e in tree3:
                                yield a, b, c, d, e, tree1[e], tree3[e]

    def _f_dense_tensor(self) -> np.ndarray:
        """Zero-extended F[a, b, c, d, n, m] as a dense float array."""
        if not hasattr(self, "_f6"):
            size = self.k + 1
            F6 = np.zeros((size,) * 6, dtype=float)
            for a in self.labels:
                for b in self.labels:
                    for c in self.labels:
                        for d in self.labels:
                            rows, cols, mat = self.f_matrix_float(a, b, c, d)
                            if rows and cols:
                                F6[a, b, c, d][np.ix_(rows, cols)] = mat
            self._f6 = F6
        return self._f6

    def _pentagon_index_batches(self, batch_rows: int = 500_000):
        """Yield pentagon instances as stacked index arrays (a,b,c,d,e,m,n,y,z)."""
        chunks: list[np.ndarray] = []
        total = 0
        for a, b, c, d, e, pairs1, pairs3 in self._pentagon_instances():
            p1 = np.array(pairs1, dtype=np.intp)
            p3 = np.array(pairs3, dtype=np.intp)
            n1, n3 = len(p1), len(p3)
            block = np.empty((n1 * n3, 9), dtype=np.intp)
            block[:, 0:5] = (a, b, c, d, e)
            block[:, 5:7] = np.repeat(p1, n3, axis=0)  # m, n
            block[:, 7:9] = np.tile(p3, (n1, 1))  # y, z
            chunks.append(block)
            total += len(block)
            if total >= batch_rows:
                yield np.concatenate(chunks)
                chunks, total = [], 0
        if chunks:
            yield np.concatenate(chunks)

    def _verify_pentagon_float(self, tol: float, precision: int) -> VerificationReport:
        if precision > 53:
            return self._verify_pentagon_mp(tol, precision)
        F6 = self._f_dense_tensor()
        flat = F6.reshape(-1)
        size = self.k + 1

        def gather(i1, i2, i3, i4, i5, i6):
            idx = ((((i1 * size + i2) * size + i3) * size + i4) * size + i5) * size + i6
            return flat[idx]

        max_residual = 0.0
        checked = 0
        failures: list[tuple] = []
        for batch in self._pentagon_index_batches():
            a, b, c, d, e, m, n, y, z = (batch[:, i] for i in range(9))
            lhs = gather(m, c, d, e, z, n) * gather(a, b, z, e, y, m)
            rhs = np.zeros(len(batch))
            for x in range(size):
                t1 = gather(a, b, c, n, x, m)
                live = t1 != 0.0
                if not live.any():
                    continue
                rhs[live] += (
                    t1[live]
                    * gather(a[live], x, d[live], e[live], y[live], n[live])
                    * gather(b[live], c[live], d[live], y[live], z[live], x)
                )
            residual = np.abs(lhs - rhs)
            checked += len(batch)
            batch_max = float(residual.max()) if len(residual) else 0.0
            max_residual = max(max_residual, batch_max)
            if batch_max > tol:
                for i in np.nonzero(residual > tol)[0][:20]:
                    failures.append((tuple(int(v) for v in batch[i]), float(residual[i])))
        return VerificationReport("pentagon", "float", checked, failures, max_residual, 0)

    def _f_entry_exact(self, a: int, b: int, c: int, d: int, m: int, n: int) -> Radical | None:
        if not (self.admissible(a, b, m) and self.admissible(m, c, d)
                and self.admissible(b, c, n) and self.admissible(a, n, d)):
            return None
        return self.f_symbol(a, b, c, d, m, n)

    def _verify_pentagon_exact(self, tol: float) -> VerificationReport:
        checked = 0
        failures: list[tuple] = []
        numeric_fallbacks = 0
        ctx = self.radicals
        for a, b, c, d, e, pairs1, pairs3 in self._pentagon_instances():
            for (m, n) in pairs1:
                for (y, z) in pairs3:
                    terms: list[Radical] = []
                    lhs1 = self._f_entry_exact(m, c, d, e, n, z)
                    lhs2 = self._f_entry_exact(a, b, z, e, m, y)
                    if lhs1 is not None and lhs2 is not None:
                        terms.append(lhs1.mul(lhs2, ctx))
                    for x in self.fusion(b, c):
                        t1 = self._f_entry_exact(a, b, c, n, m, x)
                        if t1 is None:
                            continue
                        t2 = self._f_entry_exact(a, x, d, e, n, y)
                        if t2 is None:
                            continue
                        t3 = self._f_entry_exact(b, c, d, y, x, z)
                        if t3 is None:
                            continue
                        terms.append(t1.mul(t2, ctx).scaled(-1).mul(t3, ctx))
                    diff = RadicalSum.from_terms(ctx, terms)
                    checked += 1
                    if not diff.is_zero():
                        value = diff.approx(212)
                        numeric_fallbacks += 1
                        if abs(value) > mpmath.mpf(2) ** -100:
                            failures.append(((a, b, c, d, e, m, n, y, z), float(abs(value))))
        return VerificationReport("pentagon", "exact", checked, failures, 0.0, numeric_fallbacks)

    def _verify_pentagon_mp(self, tol: float, precision: int) -> VerificationReport:
        get = self._f_entry_exact
        checked = 0
        failures: list[tuple] = []
        max_residual = mpmath.mpf(0)
        with mpmath.workprec(precision + 16):
            cache: dict[tuple, mpmath.mpf] = {}

            def fv(*args):
                if args not in cache:
                    r = get(*args)
                    cache[args] = mpmath.re(RadicalSum.from_terms(self.radicals, [r]).approx(precision)) if r else mpmath.mpf(0)
                return cache[args]

            for a, b, c, d, e, pairs1, pairs3 in self._pentagon_instances():
                for (m, n) in pairs1:
                    for (y, z) in pairs3:
                        lhs = fv(m, c, d, e, n, z) * fv(a, b, z, e, m, y)
                        rhs = mpmath.mpf(0)
                        for x in self.fusion(b, c):
                            rhs += fv(a, b, c, n, m, x) * fv(a, x, d, e, n, y) * fv(b, c, d, y, x, z)
                        residual = abs(lhs - rhs)
                        checked += 1
                        if residual > max_residual:
                            max_residual = residual
                        if residual > tol:
                            failures.append(((a, b, c, d, e, m, n, y, z), float(residual)))
        return VerificationReport("pentagon", f"float{precision}", checked, failures, float(max_residual), 0)

    def _hexagon_instances(self):
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    for d in self.labels:
                        cols = [m for m in self.fusion(b, a) if self.admissible(m, c, d)]
                        if not cols:
                            continue
                        rows = [n for n in self.fusion(a, c) if self.admissible(b, n, d)]
                        if not rows:
                            continue
                        yield a, b, c, d, cols, rows

    def _r_dense_tensor(self) -> np.ndarray:
        """Zero-extended R[a, b, c] as a dense complex array."""
        if not hasattr(self, "_r3"):
            size = self.k + 1
            R3 = np.zeros((size,) * 3, dtype=complex)
            for a in self.labels:
                for b in self.labels:
                    for c in self.fusion(a, b):
                        R3[a, b, c] = self.r_symbol_complex(a, b, c)
            self._r3 = R3
        return self._r3

    def _verify_hexagon_float(self, tol: float, precision: int) -> VerificationReport:
        if precision > 53:
            return self._verify_hexagon_mp(tol, precision)
        F6 = self._f_dense_tensor()
        R3 = self._r_dense_tensor()
        size = self.k + 1
        rows_idx: list[list[int]] = []
        for a, b, c, d, cols, rows in self._hexagon_instances():
            rows_idx.extend((a, b, c, d, m, n) for m in cols for n in rows)
        if not rows_idx:
            return VerificationReport("hexagon", "float", 0, [], 0.0, 0)
        idx = np.array(rows_idx, dtype=np.intp)
        a, b, c, d, m, n = (idx[:, i] for i in range(6))
        f_bac = F6[b, a, c, d, n, m]
        lhs1 = R3[b, a, m] * f_bac * R3[c, a, n]
        lhs2 = np.conj(R3[a, b, m]) * f_bac * np.conj(R3[a, c, n])  # R inverse = conjugate
        rhs1 = np.zeros(len(idx), dtype=complex)
        rhs2 = np.zeros(len(idx), dtype=complex)
        for x in range(size):
            t1 = F6[a, b, c, d, x, m]
            live = t1 != 0.0
            if not live.any():
                continue
            t3 = F6[b[live], c[live], a[live], d[live], n[live], x]
            r_mid = R3[x, a[live], d[live]]
            rhs1[live] += t1[live] * t3 * r_mid
            rhs2[live] += t1[live] * t3 * np.conj(r_mid)
        res1 = np.abs(lhs1 - rhs1)
        res2 = np.abs(lhs2 - rhs2)
        checked = 2 * len(idx)
        max_residual = float(max(res1.max(), res2.max()))
        failures: list[tuple] = []
        for tag, res in (("hex", res1), ("hex-inv", res2)):
            if res.max() > tol:
                for i in np.nonzero(res > tol)[0][:20]:
                    failures.append(((tag, *(int(v) for v in idx[i])), float(res[i])))
        return VerificationReport("hexagon", "float", checked, failures, max_residual, 0)

    def _verify_hexagon_mp(self, tol: float, precision: int) -> VerificationReport:
        checked = 0
        failures: list[tuple] = []
        max_residual = mpmath.mpf(0)
        with mpmath.workprec(precision + 16):
            def fv(*args):
                r = self._f_entry_exact(*args)
                return mpmath.re(RadicalSum.from_terms(self.radicals, [r]).approx(precision)) if r else mpmath.mpf(0)

            def rv(x, y, w):
                return self.r_symbol(x, y, w).approx(precision)

            for a, b, c, d, cols, rows in self._hexagon_instances():
                for m in cols:
                    for n in rows:
                        f_bac = fv(b, a, c, d, m, n)
                        lhs1 = rv(b, a, m) * f_bac * rv(c, a, n)
                        lhs2 = f_bac / (rv(a, b, m) * rv(a, c, n))
                        rhs1 = mpmath.mpc(0)
                        rhs2 = mpmath.mpc(0)
                        for x in self.fusion(b, c):
                            t = fv(a, b, c, d, m, x) * fv(b, c, a, d, x, n)
                            if t:
                                rhs1 += t * rv(x, a, d)
                                rhs2 += t / rv(a, x, d)
                        for lhs, rhs, tag in ((lhs1, rhs1, "hex"), (lhs2, rhs2, "hex-inv")):
                            residual = abs(lhs - rhs)
                            checked += 1
                            if residual > max_residual:
                                max_residual = residual
                            if residual > tol:
                                failures.append(((tag, a, b, c, d, m, n), float(residual)))
        return VerificationReport("hexagon", f"float{precision}", checked, failures, float(max_residual), 0)

    def _verify_hexagon_exact(self, tol: float) -> VerificationReport:
        checked = 0
        failures: list[tuple] = []
        numeric_fallbacks = 0
        ctx = self.radicals
        for a, b, c, d, cols, rows in self._hexagon_instances():
            for m in cols:
                for n in rows:
                    f_bac = self._f_entry_exact(b, a, c, d, m, n)
                    for inverse in (False, True):
                        terms: list[Radical] = []
                        if f_bac is not None:
                            if inverse:
                                scalar = (self.r_symbol(a, b, m) * self.r_symbol(a, c, n)).conjugate()
                            else:
                                scalar = self.r_symbol(b, a, m) * self.r_symbol(c, a, n)
                            terms.append(f_bac.scaled(scalar))
                        for x in self.fusion(b, c):
                            t1 = self._f_entry_exact(a, b, c, d, m, x)
                            if t1 is None:
                                continue
                            t3 = self._f_entry_exact(b, c, a, d, x, n)
                            if t3 is None:
                                continue
                            r_mid = self.r_symbol(a, x, d).conjugate() if inverse else self.r_symbol(x, a, d)
                            terms.append(t1.mul(t3, ctx).scaled(-r_mid))
                        diff = RadicalSum.from_terms(ctx, terms)
                        checked += 1
                        if not diff.is_zero():
                            numeric_fallbacks += 1
                            value = diff.approx(212)
                            if abs(value) > mpmath.mpf(2) ** -100:
                                failures.append((("hex-inv" if inverse else "hex", a, b, c, d, m, n), float(abs(value))))
        return VerificationReport("hexagon", "exact", checked, failures, 0.0, numeric_fallbacks)

    # -- fusion-rule axioms -------------------------------------------------------------

    def verify_fusion_axioms(self) -> VerificationReport:
        """Commutativity, duality, unit law, vacuum pairing, associativity."""
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
        """Every F-matrix is unitary; every R-symbol has unit modulus (exactly)."""
        failures: list[tuple] = []
        checked = 0
        max_residual = 0.0
        for a in self.labels:
            for b in self.labels:
                for c in self.fusion(a, b):
                    checked += 1
                    r = self.r_symbol(a, b, c)
                    if r * r.conjugate() != 1:
                        failures.append((("r-modulus", a, b, c), 1.0))
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    for d in self.labels:
                        rows, cols, mat = self.f_matrix_float(a, b, c, d)
                        if not rows or not cols:
                            continue
                        if len(rows) != len(cols):
                            failures.append((("f-not-square", a, b, c, d), 1.0))
                            continue
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
                "float": [[s.approx().real, s.approx().imag] for s in spins],
            },
            "S": {
                "exact": [[entry.exact_str() for entry in row] for row in smatrix],
                "float": [
                    [[entry.approx().real, entry.approx().imag] for entry in row]
                    for row in smatrix
                ],
            },
        }


@dataclass
class VerificationReport:
    """Outcome of an axiom sweep."""

    name: str
    mode: str
    checked: int
    failures: list[tuple] = field(default_factory=list)
    max_residual: float = 0.0
    numeric_fallbacks: int = 0

    @property
    def holds(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "holds" if self.holds else f"FAILS ({len(self.failures)} counterexamples, first: {self.failures[0]})"
        extra = f", max residual {self.max_residual:.3e}" if self.mode.startswith("float") else ""
        fallback = f", {self.numeric_fallbacks} numeric fallbacks" if self.numeric_fallbacks else ""
        return f"{self.name} [{self.mode}] over {self.checked} instances: {status}{extra}{fallback}"


@functools.lru_cache(maxsize=None)
def get_model(k: int) -> Model:
    """Shared per-level model instance (immutable once built)."""
    return Model(k)

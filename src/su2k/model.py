"""Static data of the level-k SU(2) anyon model.

Anyon labels are half-integers 0, 1/2, ..., k/2, stored throughout as the
integer 2j.  The deformation parameter is q = e^{2*pi*i/(k+2)}; every exact
quantity lives in Q(zeta_N) with N = 4(k+2), the smallest order supporting
the quarter powers of q that braiding phases need.

The recoupling data has an exact and a numeric form:

* exact -- quantum integers as cyclotomic numbers and F-symbols as formal
  coef*sqrt(radicand) values (:class:`su2k.radicals.Radical`), and
* numeric -- one 6j formula evaluated over tables of [n] and [n]!, in
  float64 or directly in mpmath at a requested precision.

Pentagon and hexagon verification is one engine: an admissibility table
A[a, b, c] built once per model, one instance enumerator per axiom yielding
bounded index blocks, one vectorized residual evaluator per axiom over
zero-extended F/R tensors (float64 or mpmath objects), and an exact backend
that settles the same rows one at a time in radical arithmetic.  Topological
spins, quantum dimensions and the modular S-matrix live here as well.
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


class Model:
    """All static data of the anyon model at a fixed level."""

    def __init__(self, k: int):
        if k < 0:
            raise DomainError(f"level must be >= 0, got {k}")
        self.k = k
        self.N = 4 * (k + 2)
        self.labels: tuple[int, ...] = tuple(range(k + 1))
        self._qint: dict[int, Cyc] = {}
        self._qfact: dict[int, Cyc] = {}
        self._qfact_inv: dict[int, Cyc] = {}
        self._f_exact: dict[tuple[int, ...], Radical] = {}
        self._f_float: dict[tuple[int, ...], float] = {}
        self._fmat_float: dict[tuple[int, int, int, int], tuple] = {}
        self._tensors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        context_symbols = {n: self.qint(n) for n in range(1, k + 2)}
        self.radicals = RadicalContext(context_symbols)
        self._qint_f, self._qfact_f = self._q_tables(math.sin, math.pi)
        self._adm = np.zeros((k + 1,) * 3, dtype=bool)  # A[a, b, c]: (a, b; c) is admissible
        for a in self.labels:
            for b in self.labels:
                self._adm[a, b, list(self.fusion(a, b))] = True

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
        if key not in self._f_float:
            self._f_float[key] = self._six_j(key, self._qint_f, self._qfact_f, math.sqrt)
        return self._f_float[key]

    def _six_j(self, labels: tuple[int, ...], qint, qfact, sqrt):
        """The 6j formula for F over tables of [n] and [n]! and a matching sqrt.

        One body serves float64 (math tables) and mpmath (mpf tables); a
        negative radicand means the tables are wrong and raises.
        """
        a, b, c, d, m, n = labels
        self._f_check(a, b, c, d, m, n)
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
        for (x, y, w) in ((a, b, m), (m, c, d), (b, c, n), (a, n, d)):
            radicand *= (
                qfact[(-x + y + w) // 2]
                * qfact[(x - y + w) // 2]
                * qfact[(x + y - w) // 2]
                / qfact[(x + y + w) // 2 + 1]
            )
        if radicand < 0:
            raise IntegrityError(f"negative F-symbol radicand {radicand} at labels {labels}")
        return sign * zsum * sqrt(radicand)

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
        return self._verify("pentagon", mode, tol, precision, self._pentagon_rows(),
                            self._pentagon_residuals, self._pentagon_terms)

    def verify_hexagon(self, mode: str = "auto", tol: float = 1e-9, precision: int = 53) -> VerificationReport:
        """Check both hexagon identities (R and R^{-1} variants)."""
        return self._verify("hexagon", mode, tol, precision, self._hexagon_rows(),
                            self._hexagon_residuals, self._hexagon_terms, ("hex", "hex-inv"))

    def _pick_mode(self, mode: str) -> str:
        if mode == "auto":
            return "exact" if self.k <= 3 else "float"
        if mode not in ("exact", "float"):
            raise DomainError(f"unknown verification mode {mode!r}")
        return mode

    def _verify(self, name, mode, tol, precision, blocks, residuals, terms, tags=()) -> VerificationReport:
        """Evaluate every instance block and assemble the report.

        Each route gives one residual per identity of a row: the float routes
        from the tensors, the exact route 0 for a sum proved zero and the
        212-bit magnitude of any other sum (a numeric fallback, after which
        the report's mode reads "exact+numeric").  An identity
        fails when its residual exceeds tol (2^-100 in exact mode); the first
        MAX_FAILURES failures in row order are kept, tagged when a row carries
        several identities.
        """
        mode = self._pick_mode(mode)
        if mode == "exact":
            report = VerificationReport(name, "exact", 0)
            bound, adm = 2.0 ** -100, self._adm.tolist()

            def evaluate(rows):
                out = []
                for row in rows.tolist():
                    for identity in terms(adm, *row):
                        diff = RadicalSum.from_terms(self.radicals, identity)
                        if diff.is_zero():
                            out.append(0.0)
                        else:
                            report.numeric_fallbacks += 1
                            out.append(float(abs(diff.approx(212))))
                return np.array(out).reshape(len(rows), -1)
        else:
            report = VerificationReport(name, "float" if precision <= 53 else f"float{precision}", 0)
            bound = tol
            F, R = self._recoupling_tensors(precision)

            def evaluate(rows):
                return residuals(rows, F, R)

        with mpmath.workprec(precision + 16):
            for rows in blocks:
                res = evaluate(rows)
                report.checked += res.size
                report.max_residual = max(report.max_residual, res.max())
                for i in np.flatnonzero(res > bound)[:MAX_FAILURES - len(report.failures)]:
                    row, j = divmod(int(i), res.shape[1])
                    key = tuple(rows[row].tolist())
                    report.failures.append(((tags[j], *key) if tags else key, float(res.flat[i])))
        report.max_residual = float(report.max_residual)
        if report.numeric_fallbacks:
            report.mode = "exact+numeric"  # some sums were settled by a 212-bit value, not proved zero
        return report

    def _recoupling_tensors(self, precision: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-extended F[a, b, c, d, n, m] and R[a, b, c] at a working precision.

        Up to 53 bits: float64/complex128 arrays of f_symbol_float and
        r_symbol_complex.  Above: object arrays of mpf/mpc, the same 6j
        formula and the R phases evaluated in mpmath at precision + 16 bits.
        """
        key = max(precision, 53)
        if key not in self._tensors:
            A, size = self._adm, self.k + 1
            with mpmath.workprec(key + 16):
                if key == 53:
                    f_value, r_value, dtype = self.f_symbol_float, self.r_symbol_complex, float
                else:
                    qint, qfact = self._q_tables(mpmath.sin, mpmath.pi)
                    dtype = object

                    def f_value(*labels):
                        return self._six_j(labels, qint, qfact, mpmath.sqrt)

                    def r_value(a, b, c):
                        sign, exponent = self._r_sign_exponent(a, b, c)
                        value = mpmath.expjpi(mpmath.mpf(2 * exponent) / self.N)
                        return -value if sign % 2 else value

                F = np.zeros((size,) * 6, dtype=dtype)
                live = np.nonzero(np.einsum("abm,mcd,bcn,and->abcdnm", A, A, A, A))
                for a, b, c, d, n, m in zip(*(axis.tolist() for axis in live)):
                    F[a, b, c, d, n, m] = f_value(a, b, c, d, m, n)
                R = np.zeros((size,) * 3, dtype=complex if dtype is float else object)
                for a, b, c in zip(*(axis.tolist() for axis in np.nonzero(A))):
                    R[a, b, c] = r_value(a, b, c)
            self._tensors[key] = F, R
        return self._tensors[key]

    def _pentagon_rows(self):
        """Pentagon instances (a,b,c,d,e,m,n,y,z) in lexicographic order, one block per (a,b).

        A row pairs a fusion tree (ab)m, (mc)n, (nd)e with a tree (cd)z, (bz)y,
        (ay)e of the same (c,d,e); the pairs are joined per (c,d,e) group.
        """
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
    def _pentagon_residuals(rows: np.ndarray, F: np.ndarray, R: np.ndarray) -> np.ndarray:
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
        return np.abs(lhs - rhs)[:, None]

    def _pentagon_terms(self, adm, a, b, c, d, e, m, n, y, z) -> tuple[list[Radical]]:
        F, ctx = self.f_symbol, self.radicals
        terms: list[Radical] = []
        if adm[m][z][e]:
            terms.append(F(m, c, d, e, n, z).mul(F(a, b, z, e, m, y), ctx))
        for x in self.labels:
            if adm[b][c][x] and adm[a][x][n] and adm[x][d][y]:
                t12 = F(a, b, c, n, m, x).mul(F(a, x, d, e, n, y), ctx)
                terms.append(t12.scaled(-1).mul(F(b, c, d, y, x, z), ctx))
        return (terms,)

    def _hexagon_rows(self):
        """Hexagon instances (a,b,c,d,m,n) with (ba)m, (mc)d, (ac)n, (bn)d admissible, one block per (a,b)."""
        A = self._adm
        for a in self.labels:
            for b in self.labels:
                cdmn = np.nonzero(np.einsum("m,mcd,cn,nd->cdmn", A[b, a], A, A[a], A[b]))
                if len(cdmn[0]):
                    yield np.column_stack((np.full_like(cdmn[0], a), np.full_like(cdmn[0], b), *cdmn))

    @staticmethod
    def _hexagon_residuals(rows: np.ndarray, F: np.ndarray, R: np.ndarray) -> np.ndarray:
        a, b, c, d, m, n = rows.T
        f_bac = F[b, a, c, d, n, m]
        lhs1 = R[b, a, m] * f_bac * R[c, a, n]
        lhs2 = np.conj(R[a, b, m]) * f_bac * np.conj(R[a, c, n])  # R inverse = conjugate
        rhs1 = np.zeros(len(rows), dtype=R.dtype)
        rhs2 = np.zeros(len(rows), dtype=R.dtype)
        for x in range(F.shape[0]):
            t1 = F[a, b, c, d, x, m]
            live = t1 != 0
            if live.any():
                t3 = F[b[live], c[live], a[live], d[live], n[live], x]
                r_mid = R[x, a[live], d[live]]
                rhs1[live] += t1[live] * t3 * r_mid
                rhs2[live] += t1[live] * t3 * np.conj(r_mid)
        return np.column_stack((np.abs(lhs1 - rhs1), np.abs(lhs2 - rhs2)))

    def _hexagon_terms(self, adm, a, b, c, d, m, n) -> tuple[list[Radical], list[Radical]]:
        F, R, ctx = self.f_symbol, self.r_symbol, self.radicals
        f_bac = F(b, a, c, d, m, n)
        hexagon = [f_bac.scaled(R(b, a, m) * R(c, a, n))]
        inverse = [f_bac.scaled((R(a, b, m) * R(a, c, n)).conjugate())]
        for x in self.labels:
            if adm[b][c][x] and adm[a][x][d]:
                t13 = F(a, b, c, d, m, x).mul(F(b, c, a, d, x, n), ctx)
                hexagon.append(t13.scaled(-R(x, a, d)))
                inverse.append(t13.scaled(-R(a, x, d).conjugate()))
        return hexagon, inverse

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

"""Density certificates: witness matrices, trace identities, order decisions,
rational cosine sums."""

import cmath
import hashlib
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from su2k import cli, cyclotomic
from su2k.cyclotomic import Cyc, cos_pi_fraction, euler_phi, min_poly_2cos, minimal_polynomial
from su2k.errors import MAX_LEVEL, DomainError, IntegrityError
from su2k.model import get_model
from su2k.radicals import RadicalSum
from su2k.regression import REFERENCE
from su2k.universality import (
    KNOWN_COSINE_IDENTITIES,
    Certificate,
    OrderDecision,
    _adjugate,
    _mat_mul,
    certificate,
    decide_projective_order_from_trace,
    match_known_identity,
    rational_cosine_sum,
    rationality_survey,
    trace_cosine_identity,
    witnesses,
)

K_MAX = 30


def projective_order_heuristic(matrix: np.ndarray, max_power: int = 10_000, tol: float = 1e-9) -> int | None:
    """Smallest n <= max_power with matrix^n within tol of a phase times identity."""
    dim = matrix.shape[0]
    power = matrix.copy()
    for n in range(1, max_power + 1):
        phase = np.trace(power) / dim
        if abs(abs(phase) - 1) < tol and np.max(np.abs(power - phase * np.eye(dim))) < tol:
            return n
        power = power @ matrix
    return None


#: Niven's theorem: the rational values of 2cos(2*pi*j/m), as trace -> (m, j)
_RATIONAL_COS_ORDERS = {
    Fraction(2): (1, 0),
    Fraction(-2): (2, 1),
    Fraction(0): (4, 1),
    Fraction(1): (6, 1),
    Fraction(-1): (3, 1),
}


def order_by_minimal_polynomial(trace: Cyc) -> OrderDecision:
    """Reference decision: match the trace's minimal polynomial against 2cos(2*pi/m).

    Rational traces come from Niven's table.  Otherwise a match needs
    phi(m) = 2*deg(t), and phi(m) >= sqrt(m/2) bounds m by 2*phi^2, so every
    m is tried; the angle numerator is then picked among the conjugate
    angles numerically.  Slow at large orders, but independent of the
    conductor rule it checks.
    """
    rational = trace.as_rational()
    if rational is not None:
        if rational not in _RATIONAL_COS_ORDERS:
            return OrderDecision(False)
        m, j = _RATIONAL_COS_ORDERS[rational]
    else:
        poly = minimal_polynomial(trace)
        target_phi = 2 * (len(poly) - 1)
        matches = [
            m
            for m in range(3, 2 * target_phi * target_phi + 1)
            if euler_phi(m) == target_phi and min_poly_2cos(m) == poly
        ]
        if not matches:
            return OrderDecision(False)
        (m,) = matches
        value = float(trace.approx(128).real)
        (j,) = [
            j
            for j in range(1, m // 2 + 1)
            if math.gcd(j, m) == 1 and abs(2 * math.cos(2 * math.pi * j / m) - value) < 1e-9
        ]
    return OrderDecision(True, m if m % 2 else m // 2, m, j)


def two_cos(m: int, j: int, order: int) -> Cyc:
    """2cos(2*pi*j/m) stored in Q(zeta_order), order a multiple of m."""
    return (Cyc.root_of_unity(m, j) + Cyc.root_of_unity(m, -j)).lift(order)


def displayed_witnesses(k: int):
    """The three matrices as rational functions of q, entered independently."""
    q = cmath.exp(2j * cmath.pi / (k + 2))
    rad = cmath.sqrt(q + 1 / q + 1)
    a = np.array(
        [
            [-(q**4 + q**2 - q + 1) / (q**3 + q**2),
             -rad * (q**3 - q**2 + q - 1) / (q**2 * (q + 1))],
            [-rad * (q**3 - q**2 + q - 1) / (q + 1),
             -(q**5 + q**2 + q + 1) / (q * (q + 1) ** 2)],
        ]
    )
    b = np.array(
        [
            [(q**7 + q**6 + q**5 + 1) / (q**3 * (q + 1) ** 2),
             rad * (q**5 - q**4 + q**3 - q**2 + q - 1) / (q**3 * (q + 1))],
            [rad * (q**5 - q**4 + q**3 - q**2 + q - 1) / (q * (q + 1)),
             (q**6 + q + 1 / q + 1) / (q * (q + 1) ** 2)],
        ]
    )
    w11 = (q**13 - 3 * q**12 + 6 * q**11 - 11 * q**10 + 16 * q**9 - 19 * q**8
           + 22 * q**7 - 21 * q**6 + 19 * q**5 - 14 * q**4 + 10 * q**3
           - 6 * q**2 + 3 * q - 1) / (q**6 * (q + 1))
    w12 = -((q - 1) ** 2) * rad * (q**10 - q**9 + 3 * q**8 - 4 * q**7 + 5 * q**6
           - 6 * q**5 + 6 * q**4 - 5 * q**3 + 4 * q**2 - 2 * q + 1) / (q**7 * (q + 1))
    w21 = ((q - 1) ** 2) * rad * (q**10 - 2 * q**9 + 4 * q**8 - 5 * q**7 + 6 * q**6
           - 6 * q**5 + 5 * q**4 - 4 * q**3 + 3 * q**2 - q + 1) / (q**4 * (q + 1))
    w22 = (-(q**13) + 3 * q**12 - 6 * q**11 + 10 * q**10 - 14 * q**9 + 19 * q**8
           - 21 * q**7 + 22 * q**6 - 19 * q**5 + 16 * q**4 - 11 * q**3
           + 6 * q**2 - 3 * q + 1) / (q**7 + q**6)
    return a, b, np.array([[w11, w12], [w21, w22]])


class TestWitnesses:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 11, 17])
    def test_matches_displayed_matrices(self, k):
        pair = witnesses(k)
        for got, want in zip(pair.numeric(), displayed_witnesses(k)):
            assert np.max(np.abs(got - want)) < 1e-10

    def test_determinant_one_exact(self):
        pair = witnesses(7)
        for m in (pair.a, pair.b, pair.w):
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1

    def test_traces_radical_free_and_real(self):
        for k in (2, 3, 10, 21):
            for tr in witnesses(k).traces():
                assert tr.is_real()

    @pytest.mark.parametrize("k", [*range(2, 61), 418])
    def test_fricke_trace_equals_the_built_commutator(self, k):
        # traces() takes tr W from tr A, tr B and tr AB; the lazily built W must agree exactly
        pair = witnesses(k)
        assert "w" not in vars(pair)  # traces alone never build W
        trace_w = pair.traces()[2]
        assert "w" not in vars(pair)
        assert trace_w == pair.w[0][0] + pair.w[1][1]

    def test_commutator_shape(self):
        pair = witnesses(5)
        an, bn, wn = pair.numeric()
        want = an @ bn @ np.linalg.inv(an) @ np.linalg.inv(bn)
        assert np.max(np.abs(wn - want)) < 1e-12

    def test_rejects_low_level(self):
        with pytest.raises(DomainError):
            witnesses(1)


def radical_route_traces(k: int) -> tuple[Cyc, Cyc, Cyc]:
    """Traces of A, B, W from the exact radical F-matrix in the unitary basis."""
    m = get_model(k)
    _, _, fm = m.f_matrix_exact(1, 1, 1, 1)
    f = [[RadicalSum.from_terms(m.radicals, [fm[i][j]]) for j in range(2)] for i in range(2)]
    zero = RadicalSum(m.radicals)
    r_tilde = [[RadicalSum(m.radicals, {(): Cyc.root_of_unity(m.N, m.N // 4 - 2)}), zero],
               [zero, RadicalSum(m.radicals, {(): -Cyc.root_of_unity(m.N, m.N // 4 + 2)})]]
    r2 = _mat_mul(r_tilde, r_tilde)
    r4 = _mat_mul(r2, r2)
    r6 = _mat_mul(r4, r2)
    a = _mat_mul(_mat_mul(r2, f), _mat_mul(r4, f))
    b = _mat_mul(_mat_mul(r2, f), _mat_mul(r6, f))
    w = _mat_mul(_mat_mul(a, b), _mat_mul(_adjugate(a), _adjugate(b)))
    return tuple((x[0][0] + x[1][1]).cyc_value() for x in (a, b, w))


def gauge_route_traces(k: int) -> tuple[Cyc, tuple[Cyc, Cyc, Cyc]]:
    """det and det^4 tr A, det^6 tr B, det^20 tr W from the vertex-gauge F''(1,1,1,1; m, n in {0, 2}).

    F''[m][n] = sign zsum [m+1] D(1,1,m) D(m,1,1) is X F Y for diagonal X and
    Y (see Model._gauge_table), so sigma~_2 = F''^-1 R~ F'' and sigma~_1 = R~
    are the unitary pair conjugated by one diagonal matrix, and every word
    keeps its trace.  The traces therefore check the z-sums and signs, not
    the diagonal factors.  Each D is a ratio of quantum factorials; scaling
    the block by both rows' denominators leaves sigma~_2 unchanged, and
    det * sigma~_2 = adj(F'') R~ F'', so no field inverse is taken.  det is
    det F'' of the scaled block.
    """
    m = get_model(k)
    num, den = {}, {}
    for c in (0, 2):
        num[c], den[c] = m.qint(c + 1), Cyc.rational(1, m.N)
        for vertex in ((1, 1, c), (c, 1, 1)):
            p, q, r, s = m._triangle(*vertex)
            num[c] = num[c] * m.qfact(p) * m.qfact(q) * m.qfact(r)
            den[c] = den[c] * m.qfact(s)
    f = [[None, None], [None, None]]
    for i, row in enumerate((0, 2)):
        for j, col in enumerate((0, 2)):
            zsum, sign = m._zsum_sign(1, 1, 1, 1, row, col)
            f[i][j] = zsum * sign * num[row] * den[2 - row]
    det = f[0][0] * f[1][1] - f[0][1] * f[1][0]
    # diag(R^{11}_0, R^{11}_2) scaled by zeta^(N/4 + 1) to determinant one
    scale = Cyc.root_of_unity(m.N, m.N // 4 + 1)
    zero = Cyc.rational(0, m.N)
    r_tilde = [[m.r_symbol(1, 1, 0) * scale, zero], [zero, m.r_symbol(1, 1, 2) * scale]]
    s = _mat_mul(_mat_mul(_adjugate(f), r_tilde), f)  # det * sigma~_2
    r2, s2 = _mat_mul(r_tilde, r_tilde), _mat_mul(s, s)
    s4 = _mat_mul(s2, s2)
    a, b = _mat_mul(r2, s4), _mat_mul(r2, _mat_mul(s4, s2))
    w = _mat_mul(_mat_mul(a, b), _mat_mul(_adjugate(a), _adjugate(b)))
    return det, tuple(x[0][0] + x[1][1] for x in (a, b, w))


class TestGaugeWitnesses:
    """The closed-form gauge against the radical route, the gauge-table route and the recorded CLI output."""

    @pytest.mark.parametrize("k", [*range(2, K_MAX + 1), 418])
    def test_traces_equal_the_radical_route(self, k):
        got = witnesses(k).traces()
        want = radical_route_traces(k)
        for g, w in zip(got, want):
            assert g == w and g.exact_str() == w.exact_str(), k

    @pytest.mark.parametrize("k", [*range(2, K_MAX + 1), 418])
    def test_traces_equal_the_gauge_table_route(self, k):
        det, scaled = gauge_route_traces(k)
        assert not det.is_zero()
        det2 = det * det
        det4 = det2 * det2
        det6 = det4 * det2
        det20 = det4 * det4 * det6 * det6
        for got, power, want in zip(witnesses(k).traces(), (det4, det6, det20), scaled):
            assert got * power == want, k

    def test_zero_trace_is_the_rational_zero(self):
        # k=2: tr A = tr B = 0; k=4: tr A = tr W = 0; k=8: tr B = 0
        for k, zeros in ((2, (0, 1)), (4, (0, 2)), (8, (1,))):
            traces = witnesses(k).traces()
            for i in zeros:
                assert traces[i].exact_str() == "0; N=1", (k, i)

    # sha256 of the stdout recorded before the witnesses moved to the closed-form gauge, and for
    # k = 999 before the angle decision moved into the trace's own field.  The json digests were
    # re-recorded when floats became the nearest doubles of the exact values: components that are
    # zero in Q(zeta_N), formerly noise of about 1e-23, are now 0.0, all others unchanged (before:
    # json 766a9568fea859e8ee6ff4a78cb307f5b47e1dca341368e987e93cb6ea6081ed,
    # k418-json 250cffee07e72d03ee3a3131d879271f735382ca4e8929dd59cb9f3516d45586,
    # k999-json e170654969bd4ccff820469e4eb5bd3383f4eaf8f256a9769e3524d4f014a07d)
    @pytest.mark.parametrize("argv, digest", [
        (("--k", "2..60"), "d63bfabc807659683a3328e8c19a04cec18ef1a31bc1632c2cc0dd588f7bbfac"),
        (("--k", "2..60", "--format", "json"), "1940da0c080e45c9958497710ec62ec6dad030d14212c85fa5d568090db3ea1c"),
        (("--k", "2..60", "--format", "csv"), "3ba74b6fe8569577771ec21dbf90a16a7ec9b8a9cea5c573434565d8fe380644"),
        (("--k", "418", "--format", "json"), "6e33e81affb78434789bf473e73bcd71a562aafde1a055820b4109043a27dcf8"),
        (("--k", "999", "--format", "json"), "86f7db687ad2fee999b83bd2caf3bfb44407420b1d13ac156223b4b717228251"),
    ], ids=["text", "json", "csv", "k418-json", "k999-json"])
    def test_stdout_is_byte_identical(self, argv, digest, capsys):
        assert cli.main(["universality", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestTraceIdentities:
    @pytest.mark.parametrize("k", range(2, K_MAX + 1))
    def test_exact_for_all_levels(self, k):
        ta, tb, tw = witnesses(k).traces()
        for which, tr in (("A", ta), ("B", tb), ("W", tw)):
            trace_cosine_identity(which, k, tr)
            with pytest.raises(IntegrityError):
                trace_cosine_identity(which, k, tr + Fraction(1, 1000))

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            trace_cosine_identity("Q", 3, Cyc.rational(0))


class TestSpecialValues:
    def test_half_traces(self):
        for k, want in REFERENCE["half_trace"].items():
            half = witnesses(k).traces()[0] / 2
            assert half == want, k


class TestOrderDecision:
    def test_k4_finite_order_two(self):
        order = REFERENCE["finite_orders"][4][0]
        dec = decide_projective_order_from_trace(witnesses(4).traces()[0])
        assert dec == OrderDecision(True, order, 4, 1)
        a_num = witnesses(4).numeric()[0]
        assert np.max(np.abs(np.linalg.matrix_power(a_num, order) + np.eye(2))) < 1e-9

    def test_k8_finite_order_three(self):
        order = REFERENCE["finite_orders"][8][0]
        dec = decide_projective_order_from_trace(witnesses(8).traces()[0])
        assert dec.finite and dec.projective_order == order
        a_num = witnesses(8).numeric()[0]
        assert np.max(np.abs(np.linalg.matrix_power(a_num, order) - np.eye(2))) < 1e-9

    @pytest.mark.parametrize("k", [3, 5, 6, 7, 9, 10, 11, 12])
    def test_infinite_for_dense_levels(self, k):
        dec = decide_projective_order_from_trace(witnesses(k).traces()[0])
        assert dec == OrderDecision(False)

    def test_rational_trace_table(self):
        assert decide_projective_order_from_trace(Cyc.rational(2)).projective_order == 1
        assert decide_projective_order_from_trace(Cyc.rational(-2)).projective_order == 1
        assert decide_projective_order_from_trace(Cyc.rational(0)).projective_order == 2
        assert decide_projective_order_from_trace(Cyc.rational(1)).projective_order == 3
        assert decide_projective_order_from_trace(Cyc.rational(-1)).projective_order == 3
        # Niven: any other rational cosine value has infinite order
        assert not decide_projective_order_from_trace(Cyc.rational(Fraction(1, 2))).finite

    def test_matched_angle_reproduces_trace(self):
        dec = decide_projective_order_from_trace(Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1))
        assert dec.finite and dec.eigenvalue_order == 7 and dec.projective_order == 7
        assert dec.angle_numerator == 1

    def test_matched_angle_in_a_larger_field(self):
        # 2cos(2pi/7) stored at order 4(k+2) = 112, the field a k=26 trace lives in
        trace = (Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1)).lift(112)
        dec = decide_projective_order_from_trace(trace)
        assert dec == OrderDecision(True, 7, 7, 1)

    @pytest.mark.parametrize("order", [1, 5, 12, 28, 60])
    def test_plus_minus_two(self, order):
        # a = 0 and a = M/2, where zeta^a and zeta^-a coincide
        assert decide_projective_order_from_trace(Cyc.rational(2, order)) == OrderDecision(True, 1, 1, 0)
        assert decide_projective_order_from_trace(Cyc.rational(-2, order)) == OrderDecision(True, 1, 2, 1)

    @pytest.mark.parametrize("order", [1, 5, 12, 28, 60])
    def test_other_rational_traces(self, order):
        # Niven's 0, +1 and -1, at orders with and without the factors 4 and 3
        assert decide_projective_order_from_trace(Cyc.rational(0, order)) == OrderDecision(True, 2, 4, 1)
        assert decide_projective_order_from_trace(Cyc.rational(1, order)) == OrderDecision(True, 3, 6, 1)
        assert decide_projective_order_from_trace(Cyc.rational(-1, order)) == OrderDecision(True, 3, 3, 1)

    @pytest.mark.parametrize("n, a", [(5, 2), (7, 3), (9, 4)])
    def test_odd_order_trace_with_angle_twice_the_order(self, n, a):
        # -(zeta_n^a + zeta_n^-a) = 2cos(2*pi/2n) for odd n: m = 2n = 2 (mod 4) does not divide n
        trace = -(Cyc.root_of_unity(n, a) + Cyc.root_of_unity(n, -a))
        assert decide_projective_order_from_trace(trace) == OrderDecision(True, n, 2 * n, 1)

    def test_reference_agrees_on_witnesses(self):
        for k in range(2, 41):
            for tr in witnesses(k).traces():
                assert decide_projective_order_from_trace(tr) == order_by_minimal_polynomial(tr), k

    @pytest.mark.parametrize("m, order", [
        (5, 5), (5, 20), (5, 35), (7, 7), (7, 28), (7, 49), (8, 8), (8, 56), (9, 9), (9, 36),
        (15, 15), (15, 60), (35, 35), (35, 140), (35, 245),
    ])
    def test_reference_agrees_on_rational_angles(self, m, order):
        # odd and even orders, with and without the factors 4 and 3; odd ones are decided at 2*order
        for j in range(0, m, 12 if order > 200 else 1):
            trace = two_cos(m, j, order)
            dec = decide_projective_order_from_trace(trace)
            assert dec == order_by_minimal_polynomial(trace), (m, j, order)
            assert dec.eigenvalue_order == m // math.gcd(j, m)
            assert two_cos(dec.eigenvalue_order, dec.angle_numerator, order) == trace
            shifted = trace + Fraction(1, 3)
            assert decide_projective_order_from_trace(shifted) == order_by_minimal_polynomial(shifted)
            assert not decide_projective_order_from_trace(shifted).finite

    def test_non_integral_trace_is_infinite(self):
        # (zeta_7 + zeta_7^-1)/3 is no algebraic integer, so no 2cos of a rational angle
        trace = (Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1)) / 3
        assert trace.lift(84).den == 3
        assert decide_projective_order_from_trace(trace) == OrderDecision(False)
        assert order_by_minimal_polynomial(trace) == OrderDecision(False)

    @pytest.mark.parametrize("k", range(2, K_MAX + 1))
    def test_heuristic_agrees(self, k):
        pair = witnesses(k)
        ta, tb, _ = pair.traces()
        an, bn, _ = pair.numeric()
        for tr, mat in ((ta, an), (tb, bn)):
            exact = decide_projective_order_from_trace(tr)
            heuristic = projective_order_heuristic(mat)
            if exact.finite:
                assert heuristic == exact.projective_order
            else:
                assert heuristic is None


class TestFieldConfinement:
    """Each decision reads the power table of its trace's own field only."""

    @staticmethod
    def requested_orders(monkeypatch, run) -> set[int]:
        orders = set()
        table = cyclotomic._power_table

        def recording(order):
            orders.add(order)
            return table(order)

        monkeypatch.setattr(cyclotomic, "_power_table", recording)
        run()
        return orders

    @pytest.mark.parametrize("k", [5, 26, 418])
    def test_certificate_reads_only_its_level_field(self, k, monkeypatch):
        assert self.requested_orders(monkeypatch, lambda: certificate(k)) == {4 * (k + 2)}

    def test_odd_order_trace_reads_twice_its_order(self, monkeypatch):
        def decide():
            trace = Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1)
            assert decide_projective_order_from_trace(trace) == OrderDecision(True, 7, 7, 1)

        assert self.requested_orders(monkeypatch, decide) == {7, 14}


class TestRationalCosineSums:
    def test_all_list_identities_exact(self):
        for name, terms, value in KNOWN_COSINE_IDENTITIES:
            assert rational_cosine_sum(terms) == value, name

    def test_float_agreement_at_256_bits(self):
        import mpmath

        with mpmath.workprec(280):
            for name, terms, value in KNOWN_COSINE_IDENTITIES:
                total = mpmath.mpf(0)
                for coeff, p, r in terms:
                    total += mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.cos(
                        mpmath.pi * p / r
                    )
                want = mpmath.mpf(value.numerator) / value.denominator
                assert abs(total - want) < mpmath.mpf(10) ** -60, name

    def test_parametric_family(self):
        for p, r in ((1, 12), (1, 18), (2, 15), (3, 20)):
            terms = [
                (Fraction(-1), p, r),
                (Fraction(1), r - 3 * p, 3 * r),
                (Fraction(1), r + 3 * p, 3 * r),
            ]
            assert rational_cosine_sum(terms) == 0
            assert match_known_identity(terms) == "phi-family"

    def test_scaled_instance_matches(self):
        terms = [(Fraction(3), 1, 5), (Fraction(-3), 2, 5)]
        assert rational_cosine_sum(terms) == Fraction(3, 2)
        assert match_known_identity(terms) == "cos(pi/5) - cos(2pi/5) = 1/2"

    def test_irrational_singleton(self):
        # oracle: cos(2pi/7) has minimal polynomial 8x^3 + 4x^2 - 4x - 1
        x = cos_pi_fraction(2, 7)
        poly = minimal_polynomial(x)
        monic = tuple(c / poly[-1] for c in poly)
        assert monic == (Fraction(-1, 8), Fraction(-1, 2), Fraction(1, 2), Fraction(1))
        assert rational_cosine_sum([(Fraction(1), 2, 7)]) is None
        assert match_known_identity([(Fraction(1), 2, 7)]) is None

    def test_angle_domain_enforced(self):
        with pytest.raises(DomainError):
            match_known_identity([(Fraction(1), 3, 5)])  # 3pi/5 > pi/2
        with pytest.raises(DomainError):
            match_known_identity([(Fraction(1), p, 100) for p in (1, 2, 3, 4, 5)])

    def test_exact_mode_accepts_any_angle(self):
        assert rational_cosine_sum([(Fraction(1), 3, 5), (Fraction(1), 2, 5)]) == Fraction(0)

    def test_singleton_value_is_half_not_third(self):
        name, terms, value = KNOWN_COSINE_IDENTITIES[0]
        assert value == Fraction(1, 2)
        assert rational_cosine_sum(terms) == Fraction(1, 2) != Fraction(1, 3)


class TestRationalitySurvey:
    def test_known_sets(self):
        surveys = [rationality_survey(k) for k in range(3, K_MAX + 1)]
        for name, levels in REFERENCE["rational_levels"].items():
            assert {s.k for s in surveys if getattr(s, name) is not None} == levels, name

    def test_displayed_values(self):
        assert rationality_survey(4).cos_first == Fraction(1, 2)
        assert rationality_survey(4).cos_second == Fraction(-1, 2)
        assert rationality_survey(6).cos_second == 0
        assert rationality_survey(10).cos_second == Fraction(1, 2)
        assert rationality_survey(4).cos_theta == 0
        assert rationality_survey(8).cos_theta == Fraction(-1, 2)

    def test_pair_relations_verify(self):
        for k in (3, 8):
            s = rationality_survey(k)
            c1, c2, rhs = s.pair_relation
            value = (
                cos_pi_fraction(2, k + 2) * c1 + cos_pi_fraction(4, k + 2) * c2
            ).as_rational()
            assert value == rhs


class TestCertificates:
    @pytest.mark.parametrize("k", range(3, K_MAX + 1))
    def test_verdict_sweep(self, k):
        cert = certificate(k)
        if k in REFERENCE["non_dense"]:
            assert cert.verdict == "not-certified"
            assert "finite projective order" in cert.reason
        else:
            assert cert.verdict == "dense"
            assert cert.reason is None
            assert cert.commutator_nontrivial

    @pytest.mark.parametrize("k", [1, MAX_LEVEL + 1])
    def test_levels_outside_the_qubit_domain_rejected(self, k):
        for build in (certificate, rationality_survey):
            with pytest.raises(DomainError, match=f"2 <= k <= {MAX_LEVEL}"):
                build(k)

    def test_k2_not_certified(self):
        cert = certificate(2)
        assert cert.verdict == "not-certified"
        assert cert.order_a.finite and cert.order_a.projective_order == 2

    def test_reason_strings(self):
        assert certificate(4).reason == "A finite projective order 2; B finite projective order 3"
        assert "3" in certificate(8).reason

    def test_verdict_is_derived_from_the_exact_data(self):
        # six stored fields; the commutator test, the reason and the verdict follow from them
        assert Certificate._fields == ("k", "trace_a", "trace_b", "trace_w", "order_a", "order_b")
        two = Cyc.from_exponents(1, {0: 2})
        trivial = certificate(5)._replace(trace_w=two)
        assert not trivial.commutator_nontrivial
        assert (trivial.verdict, trivial.reason) == ("not-certified", "commutator trivial (trace exactly 2)")
        assert certificate(4)._replace(trace_w=two).reason == (
            "A finite projective order 2; B finite projective order 3; commutator trivial (trace exactly 2)")

    def test_json_payload(self):
        payload = certificate(3).json_payload()
        assert payload["schema"] == "su2k/certificate-v1"
        assert payload["verdict"] == "dense"
        assert payload["orderA"] == {"finite": False, "candidate_phi_bound": 2 * 8}
        assert "exact" in payload["trA"] and "float" in payload["trA"]

    def test_csv_row(self):
        row = certificate(4).csv_row()
        assert row[0] == 4 and row[3] == 2 and row[6] == "not-certified"
        row = certificate(5).csv_row()
        assert row[3] == "inf" and row[4] == "inf"

    def test_certificate_leaves_the_admissibility_table_unbuilt(self):
        # in a fresh interpreter, so the shared per-level model is new
        code = (
            "from su2k.model import get_model\n"
            "from su2k.universality import certificate\n"
            "assert certificate(40).verdict == 'dense'\n"
            "print('_adm' in vars(get_model(40)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "False"

    def test_at_most_45_field_products_per_level(self, monkeypatch):
        # the closed-form sigma~_2 and one Cayley-Hamilton sequence for both words take 39 per level
        mul, products = Cyc.__mul__, []

        def counting(self, other):
            if isinstance(other, Cyc):
                products.append(other)
            return mul(self, other)

        monkeypatch.setattr(Cyc, "__mul__", counting)
        for k in range(3, K_MAX + 1):
            products.clear()
            certificate(k)
            assert 0 < len(products) <= 45, k

    def test_commutator_nontrivial_everywhere_tested(self):
        for k in range(2, 13):
            assert certificate(k).trace_w != 2

"""Exact cyclotomic arithmetic: field axioms, rationality, cosines, numerics."""

import functools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from su2k import cli, cyclotomic
from su2k.cyclotomic import (
    Cyc,
    _fixed_zeta_powers,
    _int_poly_div_exact,
    _power_table,
    cos_pi_fraction,
    cyclotomic_polynomial,
    euler_phi,
    min_poly_2cos,
    minimal_polynomial,
    sqrt_rational,
    sqrt_squarefree,
    squarefree_decomposition,
)
from su2k.errors import IntegrityError

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24, 30, 40, 60]


def as_rational_galois(x: Cyc) -> Fraction | None:
    """Rationality decided by Galois invariance, independently of the power basis.

    The value is rational iff it is fixed by every automorphism
    zeta -> zeta^a with gcd(a, order) = 1.
    """
    for a in range(2, x.order):
        if math.gcd(a, x.order) == 1 and x.galois(a) != x:
            return None
    return x.coeffs[0]


# -- a Fraction reference implementation: dense coefficient tuples modulo Phi_N,
# reduced by long division instead of the kernel's power table.


def ref_reduce(order: int, dense: list[Fraction]) -> tuple[Fraction, ...]:
    phi_poly = cyclotomic_polynomial(order)
    phi = len(phi_poly) - 1
    dense = list(dense) + [Fraction(0)] * max(0, phi - len(dense))
    for j in range(len(dense) - 1, phi - 1, -1):
        c = dense[j]
        if c:
            for i, p in enumerate(phi_poly):
                dense[j - phi + i] -= c * p
    return tuple(dense[:phi])


def ref_from_exponents(order: int, terms: dict[int, Fraction]) -> tuple[Fraction, ...]:
    dense = [Fraction(0)] * order
    for e, c in terms.items():
        dense[e % order] += c
    return ref_reduce(order, dense)


def ref_lift(order: int, coeffs: tuple[Fraction, ...], new_order: int) -> tuple[Fraction, ...]:
    step = new_order // order
    return ref_from_exponents(new_order, {i * step: c for i, c in enumerate(coeffs)})


def ref_galois(order: int, coeffs: tuple[Fraction, ...], a: int) -> tuple[Fraction, ...]:
    return ref_from_exponents(order, {i * a: c for i, c in enumerate(coeffs)})


def ref_mul(order: int, x: tuple[Fraction, ...], y: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return ref_reduce(order, prod)


def assert_canonical(x: Cyc) -> None:
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1


def small_cyc(order: int, rng: random.Random) -> Cyc:
    terms = {
        rng.randrange(order): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        for _ in range(rng.randint(1, 4))
    }
    return Cyc.from_exponents(order, terms)


@st.composite
def cyc_values(draw):
    order = draw(st.sampled_from(ORDERS))
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(0, order - 1))
        terms[e] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return Cyc.from_exponents(order, terms)


@st.composite
def exponent_terms(draw, order: int):
    coefficient = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    return draw(st.dictionaries(st.integers(0, order - 1), coefficient, min_size=1, max_size=6))


@st.composite
def kernel_operands(draw):
    """(order, terms x, terms y), y possibly at a second order for mixed arithmetic."""
    order = draw(st.sampled_from([24, 28, 116, 128]))
    other = 28 if order == 24 and draw(st.booleans()) else order
    return order, draw(exponent_terms(order)), other, draw(exponent_terms(other))


class TestKernelAgainstFractionReference:
    @settings(max_examples=40, deadline=None)
    @given(kernel_operands())
    def test_ring_operations(self, operands):
        order_x, tx, order_y, ty = operands
        x, y = Cyc.from_exponents(order_x, tx), Cyc.from_exponents(order_y, ty)
        rx, ry = ref_from_exponents(order_x, tx), ref_from_exponents(order_y, ty)
        assert x.coeffs == rx and y.coeffs == ry
        order = math.lcm(order_x, order_y)
        rx, ry = ref_lift(order_x, rx, order), ref_lift(order_y, ry, order)
        for got, want in (
            (x + y, tuple(a + b for a, b in zip(rx, ry))),
            (x - y, tuple(a - b for a, b in zip(rx, ry))),
            (x * y, ref_mul(order, rx, ry)),
        ):
            assert got.order == order
            assert got.coeffs == want
            assert_canonical(got)

    @settings(max_examples=40, deadline=None)
    @given(kernel_operands(), st.integers(1, 1000), st.sampled_from([2, 3]))
    def test_galois_lift_inverse(self, operands, a, step):
        order, terms, _, _ = operands
        x = Cyc.from_exponents(order, terms)
        rx = ref_from_exponents(order, terms)
        while math.gcd(a, order) != 1:
            a += 1
        assert x.galois(a).coeffs == ref_galois(order, rx, a)
        assert x.lift(step * order).coeffs == ref_lift(order, rx, step * order)
        if not x.is_zero():
            inv = x.inverse()
            assert_canonical(inv)
            assert ref_mul(order, rx, inv.coeffs) == ref_from_exponents(order, {0: Fraction(1)})

    @settings(max_examples=40, deadline=None)
    @given(kernel_operands(), st.integers(-300, 300))
    def test_shift_is_the_product_by_a_root_of_unity(self, operands, e):
        order, terms, _, _ = operands
        x = Cyc.from_exponents(order, terms)
        shifted = x.shifted(e)
        assert shifted.coeffs == ref_from_exponents(order, {i + e: c for i, c in enumerate(x.coeffs)})
        assert shifted == x * Cyc.root_of_unity(order, e)
        assert_canonical(shifted)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(24, 12), (24, 8), (28, 14), (28, 4), (128, 32)]), st.data())
    def test_lift_keeps_minimal_polynomial(self, orders, data):
        order, sub = orders
        terms = data.draw(exponent_terms(sub))
        x = Cyc.from_exponents(sub, terms)
        lifted = x.lift(order)
        assert lifted.coeffs == ref_lift(sub, ref_from_exponents(sub, terms), order)
        # the Galois orbit in the larger field has the same distinct conjugates
        assert minimal_polynomial(lifted) == minimal_polynomial(x)


class TestCanonicalForm:
    def test_invariant_after_every_operation(self):
        rng = random.Random(31)
        for _ in range(300):
            order = rng.choice(ORDERS)
            x, y = small_cyc(order, rng), small_cyc(rng.choice(ORDERS), rng)
            values = [x, y, x + y, x - y, x * y, -x, x * Fraction(-3, 4), x / 6, x.conjugate(), x.shifted(-7)]
            if not y.is_zero():
                values.append(x / y)
            for value in values:
                assert_canonical(value)

    def test_equal_values_have_equal_tuples(self):
        rng = random.Random(32)
        for _ in range(200):
            order = rng.choice(ORDERS)
            x, y = small_cyc(order, rng), small_cyc(order, rng)
            again = (x + y) - y
            assert (again.num, again.den) == (x.num, x.den)
            assert (x * 2 / 2).num == x.num

    def test_zero_has_unit_denominator(self):
        x = Cyc.from_exponents(12, {1: Fraction(1, 3)})
        zero = x - x
        assert zero.den == 1 and not any(zero.num)
        assert (x * 0).den == 1


class TestIntegrityGuards:
    def test_inexact_division_raises(self):
        with pytest.raises(IntegrityError):
            _int_poly_div_exact([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
        with pytest.raises(IntegrityError):
            _int_poly_div_exact([0, 1], [1, 2])  # leading 1 not divisible by 2

    def test_inexact_division_raises_under_optimize(self):
        code = (
            "from su2k.cyclotomic import _int_poly_div_exact\n"
            "from su2k.errors import IntegrityError\n"
            "try:\n"
            "    _int_poly_div_exact([1, 0, 1], [1, 1])\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "raised"

    def test_irrational_norm_raises(self, monkeypatch):
        # with a broken Galois action the "norm" x * x^3 = (1 + zeta_5)^4 is not rational
        monkeypatch.setattr(Cyc, "galois", lambda self, a: self)
        with pytest.raises(IntegrityError):
            (1 + Cyc.root_of_unity(5)).inverse()


class TestConstructors:
    def test_identity_root(self):
        assert Cyc.root_of_unity(1, 0) == 1

    def test_fourth_root(self):
        i = Cyc.root_of_unity(4, 1)
        assert i * i == -1
        assert i.approx() == pytest.approx(1j)

    def test_quarter_power_of_fifth_root(self):
        # zeta_20^5 = e^{i pi/2}
        z = Cyc.root_of_unity(20, 5)
        assert abs(z.approx() - 1j) < 1e-15

    def test_exponents_wrap(self):
        assert Cyc.root_of_unity(12, 14) == Cyc.root_of_unity(12, 2)


class TestCanonicalization:
    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            x = small_cyc(rng.choice(ORDERS), rng)
            again = Cyc.from_exponents(x.order, dict(enumerate(x.coeffs)))
            assert again.coeffs == x.coeffs

    def test_coefficients_span_power_basis_only(self):
        x = Cyc.root_of_unity(12, 7)
        assert len(x.coeffs) == euler_phi(12)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(cyc_values(), cyc_values(), cyc_values())
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x

    @settings(max_examples=60, deadline=None)
    @given(cyc_values())
    def test_multiplicative_inverse(self, x):
        if not x.is_zero():
            assert x * x.inverse() == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Cyc.rational(0).inverse()

    def test_cross_order_arithmetic(self):
        # zeta_8 / zeta_4 = zeta_8^{-1}
        assert Cyc.root_of_unity(8) / Cyc.root_of_unity(4) == Cyc.root_of_unity(8, -1)


class TestRationality:
    def test_half_from_sixth_roots(self):
        assert (Cyc.root_of_unity(6) + Cyc.root_of_unity(6, -1)).as_rational() == 1

    def test_fifth_root_cosine_is_irrational(self):
        x = Cyc.root_of_unity(5) + Cyc.root_of_unity(5, -1)
        assert x.as_rational() is None
        # oracle: minimal polynomial is t^2 + t - 1
        assert minimal_polynomial(x) == (Fraction(-1), Fraction(1), Fraction(1))

    def test_root_of_unity_sum(self):
        total = sum((Cyc.root_of_unity(5, e) for e in range(1, 5)), Cyc.rational(0))
        assert total.as_rational() == -1

    def test_galois_route_agrees(self):
        rng = random.Random(202)
        for _ in range(1000):
            x = small_cyc(rng.choice(ORDERS), rng)
            assert x.as_rational() == as_rational_galois(x)


class TestCosines:
    def test_cos_pi_third(self):
        assert cos_pi_fraction(1, 3).as_rational() == Fraction(1, 2)

    def test_cos_pi_half(self):
        assert cos_pi_fraction(1, 2).as_rational() == 0

    def test_golden_difference(self):
        got = (cos_pi_fraction(1, 5) - cos_pi_fraction(2, 5)).as_rational()
        assert got == Fraction(1, 2)

    def test_float_agreement(self):
        for p, r in ((1, 5), (3, 7), (2, 9), (5, 12)):
            assert cos_pi_fraction(p, r).approx().real == pytest.approx(
                math.cos(p * math.pi / r), abs=1e-14
            )


class TestApprox:
    def test_rational_embeds_exactly(self):
        assert Cyc.rational(Fraction(3, 4)).approx() == 0.75 + 0j

    def test_cos_pi_fifth(self):
        value = cos_pi_fraction(1, 5).approx().real
        assert value == pytest.approx(0.8090169943749474, abs=1e-15)

    def test_product_within_ten_ulp_at_128_bits(self):
        rng = random.Random(5)
        with mpmath.workprec(160):
            ulp = mpmath.mpf(2) ** -128
            for _ in range(50):
                x = small_cyc(rng.choice(ORDERS), rng)
                y = small_cyc(rng.choice(ORDERS), rng)
                lhs = (x * y).approx(128)
                rhs = x.approx(128) * y.approx(128)
                scale = max(abs(lhs), abs(rhs), mpmath.mpf(1))
                assert abs(lhs - rhs) <= 10 * ulp * scale

    def test_high_precision_is_tighter(self):
        x = cos_pi_fraction(2, 7)
        with mpmath.workprec(300):
            err = abs(x.approx(256) - mpmath.cos(2 * mpmath.pi / 7))
            assert err < mpmath.mpf(2) ** -250


def nearest_doubles(x: Cyc) -> complex:
    """Re x and Im x, each the double nearest the exact value.

    A component that is zero in Q(zeta_N), decided by comparing x with its
    conjugate, is +0.0; any other is float() of a 600-bit evaluation.
    """
    with mpmath.workprec(600):
        z = mpmath.mpc(0)
        for e, c in enumerate(x.coeffs):
            if c:
                z += mpmath.expjpi(mpmath.mpf(2 * e) / x.order) * mpmath.mpf(c.numerator) / c.denominator
    conj = x.conjugate()
    return complex(0.0 if x == -conj else float(z.real), 0.0 if x == conj else float(z.imag))


def same_double(got: float, want: float) -> bool:
    """Equal, with the sign of a zero compared too."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def correctly_rounded(x: Cyc, bits: int) -> mpmath.mpc:
    """Re x and Im x, each rounded to nearest at bits + 16 from a 4 (bits + 16) + 128-bit
    evaluation; a component that is zero in Q(zeta_N) is exactly 0."""
    prec = bits + 16
    with mpmath.workprec(4 * prec + 128):
        z = mpmath.mpc(0)
        for e, c in enumerate(x.coeffs):
            if c:
                z += mpmath.expjpi(mpmath.mpf(2 * e) / x.order) * mpmath.mpf(c.numerator) / c.denominator
    conj = x.conjugate()
    with mpmath.workprec(prec):
        return mpmath.mpc(0 if x == -conj else z.real, 0 if x == conj else z.imag)


def ref_approx(x: Cyc, bits: int):
    """The numeric embedding: the nearest doubles at 53 bits or fewer, else the nearest values at
    bits + 16."""
    return nearest_doubles(x) if bits <= 53 else correctly_rounded(x, bits)


@st.composite
def wide_cyc_values(draw):
    """Sparse numerators of both signs, small and wide, over a denominator of up to 70 bits."""
    order = draw(st.sampled_from([24, 28, 128]))
    coefficient = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))
    num = draw(st.lists(coefficient, min_size=euler_phi(order), max_size=euler_phi(order)))
    return Cyc._make(order, num, draw(st.integers(1, 10**21)))


def ref_exact_str(x: Cyc) -> str:
    """exact_str as first written, over the Fraction coefficients."""
    coeffs = x.coeffs
    parts = [str(coeffs[0])] if coeffs[0] or len(coeffs) == 1 else []
    parts += [f"{c}*z^{e}" for e, c in enumerate(coeffs[1:], start=1) if c]
    return " + ".join(parts or ["0"]) + f"; N={x.order}"


def random_wide_cyc(order: int, rng: random.Random) -> Cyc:
    """Sparse numerators of both signs and mixed sizes over a composite denominator."""
    num = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**30, 10**30))) for _ in range(euler_phi(order))]
    return Cyc._make(order, num, rng.choice((1, 2, 12, 7 * 9 * 16, 10**20 + 39)))


class TestCachedEmbedding:
    @pytest.mark.parametrize("order", [1, 4, 8, 24, 28, 128, 1680])
    @pytest.mark.parametrize("bits", [53, 64, 128, 256])
    def test_approx_is_bit_identical_to_the_reference(self, order, bits):
        rng = random.Random(order * 1000 + bits)
        samples = [random_wide_cyc(order, rng) for _ in range(3)]
        samples += [Cyc.rational(0, order), Cyc.rational(Fraction(-5, 3), order), -samples[0]]
        for x in samples:
            want = ref_approx(x, bits)
            assert x.approx(bits) == want  # cold or warm table alike
            assert x.approx(bits) == want
            if bits > 53:
                assert x.approx(bits)._mpc_ == want._mpc_

    @settings(max_examples=60, deadline=None)
    @given(wide_cyc_values(), st.sampled_from([64, 128, 256]))
    def test_wide_values_are_correctly_rounded_above_53_bits(self, x, bits):
        assert x.approx(bits)._mpc_ == correctly_rounded(x, bits)._mpc_

    @pytest.mark.parametrize("order", [1, 4, 8, 24, 28, 128, 1680])
    def test_exact_str_matches_the_fraction_rendering(self, order):
        rng = random.Random(order)
        samples = [random_wide_cyc(order, rng) for _ in range(5)]
        samples += [Cyc.rational(0, order), Cyc.rational(Fraction(-5, 3), order), -samples[0]]
        for x in samples:
            assert x.exact_str() == ref_exact_str(x)


def embedding_samples(order: int, rng: random.Random) -> list[Cyc]:
    """A random element with negative and rational coefficients, and elements made from it whose
    real part, imaginary part or both are exactly zero or rational."""
    phi = euler_phi(order)
    x = Cyc.from_exponents(order, {
        e: Fraction(rng.randint(-10**12, 10**12), rng.choice((1, 3, 7, 2**40 + 1)))
        for e in rng.sample(range(phi), min(phi, 12))
    })
    conj = x.conjugate()
    return [x, -x, x / 10**25, x + conj, x - conj, Cyc.rational(Fraction(-7, 3), order), Cyc.rational(0, order)]


class TestNearestDoubles:
    @pytest.mark.parametrize("order", [3, 7, 12, 20, 24, 128, 8008])
    def test_each_component_is_the_nearest_double(self, order):
        rng = random.Random(order)
        for _ in range(2 if order > 1000 else 4):
            x, _, _, real, imaginary, rational, zero = samples = embedding_samples(order, rng)
            for y in samples:
                got, want = y.approx(), nearest_doubles(y)
                assert same_double(got.real, want.real) and same_double(got.imag, want.imag), y
            # exact zeros are +0.0, never rounding noise
            assert same_double(real.approx().imag, 0.0) and same_double(imaginary.approx().real, 0.0)
            assert same_double(rational.approx().imag, 0.0) and zero.approx() == 0j
            assert not (x.approx().real == 0 or x.approx().imag == 0)

    def test_cancellation_doubles_the_precision(self, monkeypatch):
        # q - p (zeta_7 + zeta_7^-1) with q/p a continued-fraction convergent of 2 cos(2 pi/7): the
        # value is about 1/p, against coefficients near 1e30, so 64 and 128 bits cannot decide it
        with mpmath.workprec(600):
            t = 2 * mpmath.cos(2 * mpmath.pi / 7)
            h0, h1, k0, k1 = 0, 1, 1, 0
            while k1 < 10**30:
                a = int(mpmath.floor(t))
                h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
                t = 1 / (t - a)
        x = Cyc.rational(h1, 7) - (Cyc.root_of_unity(7, 1) + Cyc.root_of_unity(7, -1)) * k1
        seen = []
        fixed = cyclotomic._fixed_zeta_powers
        monkeypatch.setattr(cyclotomic, "_fixed_zeta_powers", lambda order, bits: seen.append(bits) or fixed(order, bits))
        got, want = x.approx(), nearest_doubles(x)
        assert 0 < abs(got.real) < 1e-29
        assert same_double(got.real, want.real) and same_double(got.imag, 0.0)
        assert max(seen) >= 256

    def test_rational_ties_go_to_even(self):
        assert Cyc.rational(2**53 + 1).approx() == complex(9007199254740992.0, 0.0)
        assert Cyc.rational(2**53 + 3).approx() == complex(9007199254740996.0, 0.0)
        assert (Cyc.root_of_unity(4, 1) * (2**53 + 1)).approx() == complex(0.0, 9007199254740992.0)

    def test_rational_imaginary_part_is_exact(self):
        assert (Cyc.root_of_unity(12, 3) / 3).approx().imag == 1 / 3
        assert (Cyc.root_of_unity(20, 5) * Fraction(-2, 7)).approx() == complex(0.0, -2 / 7)

    def test_out_of_range_raises(self):
        for x in (Cyc.rational(10**400), Cyc.root_of_unity(7) * 10**400, Cyc.root_of_unity(12, 3) * -10**400):
            with pytest.raises(ArithmeticError, match="non-finite"):
                x.approx()

    def test_out_of_range_raises_under_optimize(self):
        code = (
            "from su2k.cyclotomic import Cyc\n"
            "try:\n"
            "    Cyc.rational(10**400).approx()\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "non-finite numeric embedding"

    @pytest.mark.parametrize("order", [3, 7, 12, 128, 8008, 16008])
    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_fixed_point_powers_are_within_one_unit(self, order, bits):
        powers = _fixed_zeta_powers(order, bits)
        exponents = set(range(0, order, max(1, order // 97))) | {order * j // 8 + d for j in range(8) for d in (-1, 0, 1)}
        with mpmath.workprec(bits + 64):
            for e in sorted(exponents):
                c, s = powers[e]
                z = mpmath.expjpi(mpmath.mpf(2 * e) / order) * mpmath.mpf(2) ** bits
                assert abs(c - z.real) <= 1 and abs(s - z.imag) <= 1, e


class TestPrintedFloats:
    """Every float the JSON emitters print is the nearest double of the exact string beside it."""

    @staticmethod
    def parse_exact(text: str) -> Cyc:
        terms, order = text.split("; N=")
        coefficients = {}
        for term in terms.split(" + "):
            ratio, _, power = term.partition("*z^")
            coefficients[int(power or 0)] = Fraction(ratio)
        x = Cyc.from_exponents(int(order), coefficients)
        assert x.exact_str() == text
        return x

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def nearest(text: str) -> list[float]:
        z = nearest_doubles(TestPrintedFloats.parse_exact(text))
        return [z.real, z.imag]

    def assert_nearest(self, exact: str, printed: list[float]) -> None:
        want = self.nearest(exact)[: len(printed)]  # the model prints dimensions as reals
        assert all(same_double(g, w) for g, w in zip(printed, want, strict=True)), (exact, printed)

    def run_json(self, capsys, *argv: str) -> dict:
        assert cli.main([*argv, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_universality_traces(self, capsys):
        certificates = self.run_json(capsys, "universality", "--k", "3..30")["certificates"]
        assert len(certificates) == 28
        for cert in certificates:
            for key in ("trA", "trB", "trW"):
                self.assert_nearest(cert[key]["exact"], cert[key]["float"])

    def test_model_dims_spins_and_s(self, capsys):
        payload = self.run_json(capsys, "model", "--k", "30")
        for exact, value in zip(payload["dims"]["exact"], payload["dims"]["float"], strict=True):
            self.assert_nearest(exact, [value])
        for exact, pair in zip(payload["spins"]["exact"], payload["spins"]["float"], strict=True):
            self.assert_nearest(exact, pair)
        for exact_row, float_row in zip(payload["S"]["exact"], payload["S"]["float"], strict=True):
            for exact, pair in zip(exact_row, float_row, strict=True):
                self.assert_nearest(exact, pair)


def ref_power_table(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta^j mod Phi_order, each row reduced from a dense phi-length remainder."""
    phi = euler_phi(order)
    tail = cyclotomic_polynomial(order)[:-1]
    dense = [0] * phi
    dense[phi - 1] = 1
    rows = [((j, 1),) for j in range(phi)]
    for _ in range(phi, max(order, 2 * phi - 1)):
        lead = dense[-1]
        dense = [0] + dense[:-1]
        if lead:
            dense = [s - lead * t for s, t in zip(dense, tail)]
        rows.append(tuple((i, c) for i, c in enumerate(dense) if c))
    return tuple(rows)


class TestNumberTheory:
    @pytest.mark.parametrize("order", [1, 2, 24, 128, 1000, 8008])
    def test_sparse_power_table_matches_the_dense_build(self, order):
        assert _power_table(order) == ref_power_table(order)

    def test_cyclotomic_polynomials_multiply_to_x_n_minus_one(self):
        for n in range(1, 241):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi_d = cyclotomic_polynomial(d)
                    assert len(phi_d) == euler_phi(d) + 1 and phi_d[-1] == 1
                    out = [0] * (len(product) + len(phi_d) - 1)
                    for i, x in enumerate(product):
                        for j, y in enumerate(phi_d):
                            out[i + j] += x * y
                    product = out
            assert product == [-1] + [0] * (n - 1) + [1], n

    def test_cyclotomic_polynomials_match_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        for n in (1, 2, 3, 4, 6, 8, 10, 12, 15, 24, 36, 105):
            ours = cyclotomic_polynomial(n)
            theirs = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, t)).all_coeffs()))
            assert ours == theirs

    def test_euler_phi(self):
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        for n in range(1, 400):
            assert euler_phi(n) == sum(math.gcd(a, n) == 1 for a in range(1, n + 1)), n
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_squarefree_decomposition(self):
        assert squarefree_decomposition(1) == (1, 1)
        assert squarefree_decomposition(72) == (6, 2)
        assert squarefree_decomposition(45) == (3, 5)

    def test_sqrt_gauss_sums(self):
        for f in (2, 3, 5, 6, 7, 10, 15, 30):
            root = sqrt_squarefree(f)
            assert (root * root).as_rational() == f
            assert root.approx().real == pytest.approx(math.sqrt(f), abs=1e-12)
            assert abs(root.approx().imag) < 1e-12

    def test_sqrt_rational(self):
        root = sqrt_rational(Fraction(9, 8))
        assert (root * root).as_rational() == Fraction(9, 8)
        assert root.approx().real == pytest.approx(math.sqrt(9 / 8), abs=1e-13)


class TestMinimalPolynomials:
    def test_min_poly_2cos_known(self):
        assert min_poly_2cos(5) == (Fraction(-1), Fraction(1), Fraction(1))
        assert min_poly_2cos(8) == (Fraction(-2), Fraction(0), Fraction(1))
        assert min_poly_2cos(12) == (Fraction(-3), Fraction(0), Fraction(1))
        assert min_poly_2cos(7) == (Fraction(-1), Fraction(-2), Fraction(1), Fraction(1))

    def test_min_poly_against_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        for m in (5, 7, 9, 11, 15, 16):
            ours = min_poly_2cos(m)
            expr = 2 * sympy.cos(2 * sympy.pi / m)
            theirs = sympy.Poly(sympy.minimal_polynomial(expr, t), t).all_coeffs()
            monic = [sympy.Rational(c, theirs[0]) for c in theirs]
            assert list(ours) == [Fraction(int(c.p), int(c.q)) for c in reversed(monic)]

    def test_lifted_2cos_has_the_same_minimal_polynomial(self):
        x = Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1)
        lifted = x.lift(28 * 4)
        assert lifted.order == 112
        assert minimal_polynomial(lifted) == min_poly_2cos(7)
        assert minimal_polynomial(lifted) == (Fraction(-1), Fraction(-2), Fraction(1), Fraction(1))

    def test_minimal_polynomial_degree_counts_conjugates(self):
        x = Cyc.root_of_unity(7) + Cyc.root_of_unity(7, -1)
        assert len(minimal_polynomial(x)) - 1 == euler_phi(7) // 2

    def test_minimal_polynomial_annihilates(self):
        x = cos_pi_fraction(2, 9) * 3 + Fraction(1, 2)
        poly = minimal_polynomial(x)
        acc = Cyc.rational(0)
        power = Cyc.rational(1)
        for coeff in poly:
            acc = acc + power * coeff
            power = power * x
        assert acc.is_zero()


class TestSerialization:
    def test_exact_str_roundtrip_shape(self):
        x = Cyc.from_exponents(8, {0: Fraction(1, 2), 2: Fraction(-3, 4)})
        assert x.exact_str() == "1/2 + -3/4*z^2; N=8"

    def test_zero(self):
        assert Cyc.rational(0).exact_str() == "0; N=1"

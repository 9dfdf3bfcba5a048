"""Formal radical terms and sums over cyclotomic coefficients."""

from fractions import Fraction

import pytest

from su2k.cyclotomic import Cyc
from su2k.model import get_model
from su2k.radicals import RadicalSum


@pytest.fixture(scope="module")
def ctx():
    return get_model(4).radicals  # k=4: [3]_q = 2 is rational, [2]_q irrational


class TestTermNormalization:
    def test_unit_symbols_drop(self, ctx):
        term = ctx.term(Cyc.rational(1), {1: 5})  # [1] = 1
        assert term.key == ()
        assert term.coef == 1

    def test_even_powers_fold(self, ctx):
        term = ctx.term(Cyc.rational(1), {2: 2})
        assert term.key == ()
        assert term.coef == ctx.symbols[2] ** 1

    def test_odd_irrational_stays(self, ctx):
        term = ctx.term(Cyc.rational(1), {2: 3})
        assert term.key == (2,)
        assert term.coef == ctx.symbols[2]

    def test_rational_symbol_absorbed(self, ctx):
        # at k=4, [3]_q = 2, so sqrt([3]) becomes the exact sqrt(2)
        term = ctx.term(Cyc.rational(1), {3: 1})
        assert term.key == ()
        assert (term.coef * term.coef).as_rational() == 2

    def test_negative_exponents(self, ctx):
        term = ctx.term(Cyc.rational(1), {2: -3})
        assert term.key == (2,)
        assert term.coef == ctx.symbols[2] ** -2


class TestProducts:
    def test_shared_radical_folds(self, ctx):
        t = ctx.term(Cyc.rational(1), {2: 1})
        prod = t.mul(t, ctx)
        assert prod.key == ()
        assert prod.coef == ctx.symbols[2]

    def test_disjoint_radicals_merge_keys(self):
        ctx5 = get_model(5).radicals
        t1 = ctx5.term(Cyc.rational(1), {2: 1})
        t2 = ctx5.term(Cyc.rational(1), {3: 1})
        prod = t1.mul(t2, ctx5)
        assert prod.key == (2, 3)


class TestSums:
    def test_cancellation(self, ctx):
        t = ctx.term(Cyc.rational(2), {2: 1})
        s = RadicalSum.from_terms(ctx, [t, t.scaled(Fraction(-1))])
        assert s.is_zero()

    def test_mixed_keys_do_not_cancel(self, ctx):
        s = RadicalSum.from_terms(
            ctx, [ctx.term(Cyc.rational(1), {2: 1}), ctx.term(Cyc.rational(-1), {})]
        )
        assert not s.is_zero()
        assert not s.is_radical_free()

    def test_cyc_value_requires_radical_free(self, ctx):
        s = RadicalSum.from_terms(ctx, [ctx.term(Cyc.rational(1), {2: 1})])
        with pytest.raises(ArithmeticError):
            s.cyc_value()

    def test_approx_matches_floats(self, ctx):
        import math

        s = RadicalSum.from_terms(ctx, [ctx.term(Cyc.rational(3), {2: 1})])
        want = 3 * math.sqrt(ctx.symbols[2].approx().real)
        assert abs(s.approx() - want) < 1e-13

    def test_scalar_comparison(self, ctx):
        one = RadicalSum(ctx, {(): Cyc.rational(1)})
        assert one == 1
        assert not (one == 2)

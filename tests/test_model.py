"""Anyon-model data: fusion, quantum integers, R/F symbols, axiom sweeps."""

import cmath
import functools
import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2k.cyclotomic import Cyc, euler_phi
from su2k.errors import MAX_VERIFY_LEVEL, DomainError, IntegrityError
import su2k.model as model_module
from su2k.model import MAX_FAILURES, MAX_LEVEL, Model, get_model, label_str
from su2k.radicals import RadicalSum


def f_value(model: Model, *labels) -> complex:
    return RadicalSum.from_terms(model.radicals, [model.f_symbol(*labels)]).approx()


def row_of(model: Model, *labels) -> int:
    """The row of model._f_labels holding (a, b, c, d, n, m)."""
    return int(np.flatnonzero((model._f_labels == labels).all(axis=1))[0])


def double_rows(model: Model, rows) -> None:
    """Point the given rows of the model's F table at doubled copies of their values, before any route reads it."""
    values, index = model._f_table
    for row in rows:
        values.append(values[index[row]] * 2)
        index[row] = len(values) - 1


def gauge_entries(model: Model) -> list[Cyc]:
    """The vertex-gauge F'' of each row of model._f_labels."""
    values, index = model._f_table
    return [values[i] for i in index.tolist()]


def corrupted_model() -> Model:
    """A fresh k=3 model whose F table reads F(1,1,1,1; 0,0) doubled, in every route."""
    m = Model(3)
    double_rows(m, [row_of(m, 1, 1, 1, 1, 0, 0)])
    return m


def racah_zsum(model: Model, *labels) -> Cyc:
    """The 6j z-sum term by term in Q(zeta_N): (-1)^z [z+1]! / prod_t [z-t]! prod_u [u-z]!."""
    z_lo, z_hi, lows, highs = Model._z_range(*labels)
    total = Cyc.rational(0)
    for z in range(z_lo, z_hi + 1):
        term = model.qfact(z + 1)
        for t in lows:
            term = term * model.qfact_inverse(z - t)
        for u in highs:
            term = term * model.qfact_inverse(u - z)
        total = total + (-term if z % 2 else term)
    return total


def reference_pentagon_instances(model: Model) -> set[tuple[int, ...]]:
    """Pentagon rows (a,b,c,d,e,m,n,y,z) from nested fusion() loops over both trees."""
    rows = set()
    for a in model.labels:
        for b in model.labels:
            for c in model.labels:
                for d in model.labels:
                    tree1: dict[int, list[tuple[int, int]]] = {}
                    for m in model.fusion(a, b):
                        for n in model.fusion(m, c):
                            for e in model.fusion(n, d):
                                tree1.setdefault(e, []).append((m, n))
                    tree3: dict[int, list[tuple[int, int]]] = {}
                    for z in model.fusion(c, d):
                        for y in model.fusion(b, z):
                            for e in model.fusion(a, y):
                                tree3.setdefault(e, []).append((y, z))
                    for e in tree1:
                        for (m, n) in tree1[e]:
                            for (y, z) in tree3.get(e, []):
                                rows.add((a, b, c, d, e, m, n, y, z))
    return rows


def reference_hexagon_instances(model: Model) -> set[tuple[int, ...]]:
    """Hexagon rows (a,b,c,d,m,n) from nested fusion() loops."""
    rows = set()
    for a in model.labels:
        for b in model.labels:
            for c in model.labels:
                for d in model.labels:
                    cols = [m for m in model.fusion(b, a) if model.admissible(m, c, d)]
                    nrows = [n for n in model.fusion(a, c) if model.admissible(b, n, d)]
                    rows.update((a, b, c, d, m, n) for m in cols for n in nrows)
    return rows


def enumerated(blocks) -> list[tuple[int, ...]]:
    return [tuple(row) for block in blocks for row in block.tolist()]


class TestLabels:
    def test_label_strings(self):
        assert [label_str(a) for a in range(4)] == ["0", "1/2", "1", "3/2"]

    def test_invalid_label_rejected(self):
        with pytest.raises(DomainError):
            get_model(2).check_label(3)


class TestLevelBound:
    @pytest.mark.parametrize("k", [MAX_LEVEL + 1, 9223372036854775805])
    def test_oversized_level_allocates_nothing(self, k):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"at most {MAX_LEVEL}"):
                Model(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000  # the error message, not an O(k) table

    @pytest.mark.parametrize("verify", [
        lambda m: m.verify_unitarity(),
        lambda m: m.verify_pentagon("float"),
        lambda m: m.verify_pentagon("exact"),
        lambda m: m.verify_hexagon("float"),
    ], ids=["unitarity", "pentagon-float", "pentagon-exact", "hexagon-float"])
    def test_verification_above_the_f_table_bound_allocates_nothing(self, verify):
        # (k+1)^6 doubles: 1.95 GB at k = 24, 2.47 GB at k = 25; refused before the table
        assert 8 * (MAX_VERIFY_LEVEL + 1) ** 6 <= 2 << 30 < 8 * (MAX_VERIFY_LEVEL + 2) ** 6
        m = Model(MAX_VERIFY_LEVEL + 1)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"levels above {MAX_VERIFY_LEVEL}"):
                verify(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000

    def test_radical_context_is_lazy(self):
        # neither the checks of `model` nor exact verification build the radical context
        m = Model(4)
        assert "radicals" not in vars(m) and "_validated_tables" not in vars(m)
        m.spins_dims_smatrix()
        assert m.verify_pentagon("exact").holds and m.verify_hexagon("exact").holds
        assert "radicals" not in vars(m)
        m.f_symbol(1, 1, 1, 1, 0, 0)
        assert "radicals" in vars(m)


class TestFusion:
    def test_half_times_half_at_k3(self):
        assert get_model(3).fusion(1, 1) == (0, 2)

    def test_vacuum_is_identity(self):
        for k in (0, 1, 2, 5):
            m = get_model(k)
            for j in m.labels:
                assert m.fusion(0, j) == (j,)

    def test_truncation_at_k2(self):
        # brute-force range enumeration oracle
        m = get_model(2)
        expected = tuple(
            c for c in m.labels
            if abs(1 - 2) <= c <= min(1 + 2, 2 * 2 - 1 - 2) and (1 + 2 + c) % 2 == 0
        )
        assert m.fusion(1, 2) == expected == (1,)

    def test_fusion_axioms_sweep(self):
        for k in range(0, 31):
            report = get_model(k).verify_fusion_axioms()
            assert report.holds, (k, report.failures[:3])

    def test_a_broken_fusion_tensor_keeps_the_first_failures(self, monkeypatch):
        # an all-ones tensor breaks the vacuum pairing and the unit law 30 times each at k=5
        m = Model(5)
        monkeypatch.setattr(m, "fusion_tensor", lambda: np.ones((6, 6, 6), dtype=int))
        capped = m.verify_fusion_axioms()
        monkeypatch.setattr(model_module, "MAX_FAILURES", 1000)
        every = m.verify_fusion_axioms().failures
        assert len(every) == 60 and capped.failures == every[:MAX_FAILURES] and not capped.holds

    def test_multiplicity_free(self):
        for k in (2, 5, 9):
            N = get_model(k).fusion_tensor()
            assert set(np.unique(N)) <= {0, 1}

    @pytest.mark.parametrize("k", range(0, 9))
    def test_triples_are_the_admissible_ones_in_table_order(self, k):
        m = Model(k)
        want = [(a, b, c) for a in m.labels for b in m.labels for c in m.labels if m.admissible(a, b, c)]
        assert list(m._triples) == want
        assert list(zip(*(axis.tolist() for axis in np.nonzero(m._adm)))) == want


class TestQuantumIntegers:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 12])
    def test_one_and_vanishing(self, k):
        m = get_model(k)
        assert m.qint(0).is_zero()
        assert m.qint(1) == 1
        assert m.qint(k + 2).is_zero()

    def test_two_is_cosine(self):
        for k in (2, 3, 7):
            m = get_model(k)
            assert m.qint(2).approx().real == pytest.approx(2 * math.cos(math.pi / (k + 2)), abs=1e-14)
            assert m.qint(2).is_real()

    def test_factorial_recursion(self):
        m = get_model(4)
        assert m.qfact(0) == 1
        for n in range(1, 6):
            assert m.qfact(n) == m.qfact(n - 1) * m.qint(n)

    @pytest.mark.parametrize("k", [2, 5, 30])
    def test_sum_form_equals_quotient_form(self, k):
        m = Model(k)

        def zeta(e: int) -> Cyc:
            return Cyc.root_of_unity(m.N, e)

        den_inverse = (zeta(2) - zeta(-2)).inverse()
        for n in range(2 * k + 4):
            assert m.qint(n) == (zeta(2 * n) - zeta(-2 * n)) * den_inverse, n

    @pytest.mark.parametrize("k", range(2, 31))
    def test_closed_form_inverse_factorials(self, k):
        m = Model(k)
        for s in range(k + 2):
            assert m.qfact(s) * m.qfact_inverse(s) == 1, s
        with pytest.raises(DomainError):
            m.qfact_inverse(k + 2)  # [k+2] = 0


class TestRSymbols:
    def test_one_qubit_values(self):
        for k in (2, 3, 6):
            m = get_model(k)
            q = cmath.exp(2j * cmath.pi / (k + 2))
            assert abs(m.r_symbol(1, 1, 0).approx() - (-q ** -0.75)) < 1e-14
            assert abs(m.r_symbol(1, 1, 2).approx() - q ** 0.25) < 1e-14

    def test_vacuum_braids_trivially(self):
        m = get_model(5)
        for j in m.labels:
            assert m.r_symbol(0, j, j) == 1

    def test_unit_modulus_exact(self):
        for k in (2, 3, 4, 7):
            m = get_model(k)
            for a in m.labels:
                for b in m.labels:
                    for c in m.fusion(a, b):
                        r = m.r_symbol(a, b, c)
                        assert r * r.conjugate() == 1

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            get_model(2).r_symbol(1, 1, 1)

    def test_complex_route_agrees(self):
        m = get_model(6)
        for a in m.labels:
            for b in m.labels:
                for c in m.fusion(a, b):
                    assert abs(m.r_symbol(a, b, c).approx() - m.r_symbol_complex(a, b, c)) < 1e-14


class TestFSymbols:
    def test_k2_qubit_matrix(self):
        # direct numeric substitution oracle at q = i
        m = get_model(2)
        want = np.array([[-1, 1], [1, 1]]) / math.sqrt(2)
        rows, cols, _ = m.f_matrix_exact(1, 1, 1, 1)
        got = np.array([[f_value(m, 1, 1, 1, 1, mcol, nrow) for mcol in cols] for nrow in rows])
        assert np.allclose(got, want, atol=1e-14)

    def test_vacuum_total_charge_gives_one(self):
        for k in (2, 3, 4, 6):
            m = get_model(k)
            for b1 in m.labels:
                for x in m.fusion(b1, 1):
                    if m.admissible(x, 1, 0):
                        assert abs(f_value(m, b1, 1, 1, 0, x, b1) - 1) < 1e-13

    @pytest.mark.parametrize("k", range(2, 31))
    def test_closed_form_all_k(self, k):
        m = get_model(k)
        q = cmath.exp(2j * cmath.pi / (k + 2))
        rad = cmath.sqrt(q + 1 / q + 1)
        want = (cmath.sqrt(q) / (q + 1)) * np.array([[-1, rad], [rad, 1]])
        rows, cols, _ = m.f_matrix_exact(1, 1, 1, 1)
        assert rows == (0, 2) and cols == (0, 2)
        got = np.array([[f_value(m, 1, 1, 1, 1, mcol, nrow) for mcol in cols] for nrow in rows])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_float_route_matches_exact(self):
        for k in (2, 3, 5, 7):
            m = get_model(k)
            for a in m.labels:
                for b in m.labels:
                    for c in m.labels:
                        for d in m.labels:
                            rows, cols, mat = m.f_matrix_float(a, b, c, d)
                            for i, n in enumerate(rows):
                                for j, mm in enumerate(cols):
                                    exact = f_value(m, a, b, c, d, mm, n)
                                    assert abs(mat[i, j] - exact) < 1e-12

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            get_model(2).f_symbol(1, 1, 1, 1, 1, 0)

    def test_negative_radicand_raises(self):
        # v(1,1;0)^2 = [1] D(1,1,0) = 1/[2], negated in the model's pool of exact factors
        m = Model(3)
        square = m._triangle_ids(1, 1, 0)[1]
        m._pool.values[square] = -m._pool.values[square]
        with pytest.raises(IntegrityError, match="vertex factor square"):
            m.f_symbol_float(1, 1, 1, 1, 0, 0)

    def test_negative_radicand_raises_under_optimize(self):
        code = (
            "from su2k.errors import IntegrityError\n"
            "from su2k.model import Model\n"
            "m = Model(3)\n"
            "square = m._triangle_ids(1, 1, 0)[1]\n"
            "m._pool.values[square] = -m._pool.values[square]\n"
            "try:\n"
            "    m.f_symbol_float(1, 1, 1, 1, 0, 0)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "raised"

    @pytest.mark.parametrize("k", range(0, 9))
    def test_f_symbol_float_is_the_table_entry(self, k):
        # the same exact factors and the same vertex floats, with no table built, bit for bit
        m = Model(k)
        want = [m.f_symbol_float(a, b, c, d, mm, n) for a, b, c, d, n, mm in m._f_labels.tolist()]
        assert "_f_table" not in vars(m) and not m._tensors
        F = m._recoupling_tensors(53)[0]
        assert np.array_equal(F[tuple(m._f_labels.T)].view(np.int64), np.array(want).view(np.int64))

    def test_a_high_level_f_matrix_builds_no_table(self):
        m = Model(30)
        rows, cols, mat = m.f_matrix_float(1, 1, 1, 1)
        assert rows == cols == (0, 2) and np.max(np.abs(mat @ mat - np.eye(2))) < 1e-12
        assert not {"_f_labels", "_f_table", "_adm"} & set(vars(m)) and not m._tensors

    @pytest.mark.parametrize("k,zeros", [(8, 52), (10, 224), (12, 341)])
    def test_exact_zeros_are_positive_zeros(self, k, zeros):
        m = Model(k)
        values, index = m._f_table
        F = m._recoupling_tensors(53)[0]
        zero = np.array([value.is_zero() for value in values])[index]
        assert np.count_nonzero(zero) == zeros
        entries = F[tuple(m._f_labels[zero].T)]
        assert (entries == 0).all() and not np.signbit(entries).any()

    # the worst error of the parent's 6j route over float tables, 1.47e-15 at k = 8 and 2.52e-15 at k = 10
    @pytest.mark.parametrize("k,parent", [(8, 1.48e-15), (10, 2.52e-15)])
    def test_float_table_error_against_the_radical_route(self, k, parent):
        m = Model(k)
        F = m._recoupling_tensors(53)[0]
        worst, reference = mpmath.mpf(0), {}
        with mpmath.workprec(208):
            for (a, b, c, d, n, mm), entry in zip(m._f_labels.tolist(), F[tuple(m._f_labels.T)].tolist()):
                radical = m.f_symbol(a, b, c, d, mm, n)
                key = radical.coef.num, radical.coef.den, radical.key
                if key not in reference:
                    reference[key] = RadicalSum.from_terms(m.radicals, [radical]).approx(192).real
                worst = max(worst, abs(mpmath.mpf(entry) - reference[key]))
        assert 0 < worst <= parent

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_mpmath_tensors_match_exact(self, k):
        # the 256-bit route embeds the table's values and vertex factors at 256 bits; compare it with
        # the exact radicals approximated at the same precision
        m = Model(k)
        F, R = m._recoupling_tensors(256)
        live = np.zeros(F.shape, dtype=bool)
        with mpmath.workprec(272):
            for a in m.labels:
                for b in m.labels:
                    for c in m.labels:
                        for d in m.labels:
                            rows, cols, entries = m.f_matrix_exact(a, b, c, d)
                            for i, n in enumerate(rows):
                                for j, mm in enumerate(cols):
                                    exact = RadicalSum.from_terms(m.radicals, [entries[i][j]]).approx(256)
                                    assert abs(F[a, b, c, d, n, mm] - exact) < 1e-70, (a, b, c, d, mm, n)
                                    live[a, b, c, d, n, mm] = True
                    for cc in m.fusion(a, b):
                        assert abs(R[a, b, cc] - m.r_symbol(a, b, cc).approx(256)) < 1e-70
        assert all(value == 0 for value in F[~live])


class TestPentagonHexagon:
    def test_exact_small_levels(self):
        for k in (2, 3):
            m = get_model(k)
            p = m.verify_pentagon("exact")
            h = m.verify_hexagon("exact")
            assert p.holds and p.numeric_fallbacks == 0
            assert h.holds and h.numeric_fallbacks == 0

    def test_float_k5(self):
        m = get_model(5)
        p = m.verify_pentagon("float")
        h = m.verify_hexagon("float")
        assert p.holds and p.max_residual < 1e-9
        assert h.holds and h.max_residual < 1e-9

    def test_high_precision_k5(self):
        m = get_model(5)
        p = m.verify_pentagon("float", tol=1e-30, precision=256)
        assert p.holds and p.max_residual < 1e-30
        h = m.verify_hexagon("float", tol=1e-30, precision=256)
        assert h.holds and h.max_residual < 1e-30

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            get_model(2).verify_pentagon("fancy")

    @pytest.mark.parametrize("k", range(0, 8))
    def test_enumerators_match_fusion_loops(self, k):
        m = Model(k)
        pentagon = enumerated(m._pentagon_rows())
        hexagon = enumerated(m._hexagon_rows())
        assert len(pentagon) == len(set(pentagon))
        assert len(hexagon) == len(set(hexagon))
        assert set(pentagon) == reference_pentagon_instances(m)
        assert set(hexagon) == reference_hexagon_instances(m)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_hexagon_blocks_are_per_outer_label_in_row_order(self, k):
        # one block per a, whose rows run in the order of the per-(a, b) blocks one after another
        m = Model(k)
        A = m._adm
        per_pair = []
        for a in m.labels:
            for b in m.labels:
                cdmn = np.nonzero(np.einsum("m,mcd,cn,nd->cdmn", A[b, a], A, A[a], A[b]))
                per_pair += [(a, b, *labels) for labels in zip(*(axis.tolist() for axis in cdmn))]
        blocks = list(m._hexagon_rows())
        assert [int(block[0, 0]) for block in blocks] == list(m.labels)
        assert all((block[:, 0] == block[0, 0]).all() for block in blocks)
        assert enumerated(blocks) == per_pair

    @pytest.mark.parametrize("mode,precision,tol", [
        ("float", 53, 1e-9), ("float", 256, 1e-30), ("exact", 53, 1e-9)
    ])
    def test_every_route_reports_a_corrupted_f_entry(self, mode, precision, tol):
        m = corrupted_model()
        pentagon = m.verify_pentagon(mode, tol=tol, precision=precision)
        hexagon = m.verify_hexagon(mode, tol=tol, precision=precision)
        healthy = get_model(3).verify_pentagon(mode, tol=tol, precision=precision)
        assert pentagon.checked == healthy.checked
        for report in (pentagon, hexagon):
            assert not report.holds and 0 < len(report.failures) <= MAX_FAILURES
            assert all(residual > tol for _, residual in report.failures)
        assert all(len(instance) == 9 for instance, _ in pentagon.failures)
        assert all(instance[0] in ("hex", "hex-inv") for instance, _ in hexagon.failures)
        if mode == "exact":
            # the corrupted sums are proved nonzero, not settled numerically
            assert pentagon.mode == hexagon.mode == healthy.mode == "exact"
            assert pentagon.numeric_fallbacks == hexagon.numeric_fallbacks == 0
            assert len(pentagon.failures) == MAX_FAILURES and len(hexagon.failures) == 6

    def test_exact_failures_are_unitary_gauge_magnitudes(self, monkeypatch):
        # uncapped, the exact route finds 28 pentagon instances and 6 hexagon
        # identities; each keeps its row key, and its residual (the gauge sum
        # over the row's vertex factor) is what the float route measures for
        # the same corrupted entry in the unitary gauge
        exact, unitary = corrupted_model(), corrupted_model()
        capped = exact.verify_pentagon("exact").failures
        monkeypatch.setattr(model_module, "MAX_FAILURES", 1000)
        for verify, count in (("verify_pentagon", 28), ("verify_hexagon", 6)):
            got = getattr(exact, verify)("exact")
            want = getattr(unitary, verify)("float")
            assert got.mode == "exact" and got.numeric_fallbacks == 0
            assert len(got.failures) == len(want.failures) == count
            assert [key for key, _ in got.failures] == [key for key, _ in want.failures]
            for (_, residual), (_, expected) in zip(got.failures, want.failures):
                assert residual == pytest.approx(expected, rel=1e-12)
            if verify == "verify_pentagon":
                assert got.failures[:MAX_FAILURES] == capped

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_bad_tolerance_rejected(self, tol):
        m = get_model(2)
        for mode in ("exact", "float"):
            with pytest.raises(DomainError):
                m.verify_pentagon(mode, tol=tol)
            with pytest.raises(DomainError):
                m.verify_hexagon(mode, tol=tol)


class TestZSum:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_multinomial_sum_equals_the_racah_sum(self, k):
        m = Model(k)
        for a, b, c, d, n, mm in m._f_labels.tolist():
            zsum, sign = m._zsum_sign(a, b, c, d, mm, n)
            assert zsum == racah_zsum(m, a, b, c, d, mm, n), (a, b, c, d, mm, n)
            assert sign == (-1) ** ((a + b + c + d) // 2)

    def test_gaussian_binomial_is_symmetric_and_counts_subsets(self):
        for n in range(16):
            for r in range(n + 1):
                coefficients = model_module._gaussian_binomial(n, r)
                assert len(coefficients) == r * (n - r) + 1
                assert coefficients == coefficients[::-1]
                assert sum(coefficients) == math.comb(n, r)

    def test_a_corrupted_multinomial_changes_the_entries_sharing_its_z_sum(self, monkeypatch):
        # raising one coefficient of one term moves its z-sum by a root of unity, never by zero; the z-sum is
        # computed once per sorted (lows, highs), so exactly the entries with the corrupted term's key change
        def zsum_key(lows, highs):
            return sorted(lows), sorted(highs)

        clean = Model(3)
        before = gauge_entries(clean)
        labels = [(a, b, c, d, mm, n) for a, b, c, d, n, mm in clean._f_labels.tolist()]
        keys = {entry: zsum_key(*Model._z_range(*entry)[2:]) for entry in labels}
        target = max(keys.values(), key=list(keys.values()).count)
        zsum, multinomial, state = Model._zsum, model_module._q_multinomial, {"corrupted": 0}

        def recording(self, key):
            state["key"] = zsum_key(key[:4], key[4:])
            return zsum(self, key)

        def corrupted(parts, period):
            coefficients = list(multinomial(parts, period))
            if state["key"] == target and not state["corrupted"]:
                coefficients[-1] += 1
                state["corrupted"] += 1
            return tuple(coefficients)

        monkeypatch.setattr(Model, "_zsum", recording)
        monkeypatch.setattr(model_module, "_q_multinomial", corrupted)
        bad = Model(3)
        after = gauge_entries(bad)
        assert (bad._f_labels == clean._f_labels).all() and state["corrupted"] == 1
        changed = {entry for entry, x, y in zip(labels, before, after) if x != y}
        assert changed == {entry for entry, key in keys.items() if key == target} and len(changed) == 18


class TestGaugeTable:
    @pytest.mark.parametrize("k,limit", [(4, 300), (5, 500), (10, 6000)])
    def test_gauge_table_products_per_level(self, monkeypatch, k, limit):
        # the table is interned by value, so the field products grow with its distinct values, not
        # with its entries (the per-entry build took 783, 1,661 and 27,412 at k = 4, 5 and 10); with
        # the inverse factorials in closed form it takes 49, 82 and 1,127
        products = []
        multiply = Cyc.__mul__

        def counted(self, other):
            if isinstance(other, Cyc):
                products.append(self.order)
            return multiply(self, other)

        monkeypatch.setattr(Cyc, "__mul__", counted)
        Model(k)._packed
        assert 0 < len(products) <= limit

    def test_the_packed_table_takes_no_field_inverse(self, monkeypatch):
        inverses = []
        inverse = Cyc.inverse
        monkeypatch.setattr(Cyc, "inverse", lambda self: inverses.append(self) or inverse(self))
        Model(10)._packed
        assert inverses == []

    @pytest.mark.parametrize("k", range(0, 7))
    def test_interned_entries_equal_the_direct_products(self, k):
        # sign * zsum * [m+1] * D(abm) * D(mcd), multiplied out per entry in Q(zeta_N)
        m = Model(k)

        def delta(x, y, w):
            p, q, r, s = Model._triangle(x, y, w)
            return m.qfact(p) * m.qfact(q) * m.qfact(r) * m.qfact_inverse(s)

        for (a, b, c, d, n, mm), value in zip(m._f_labels.tolist(), gauge_entries(m)):
            zsum, sign = m._zsum_sign(a, b, c, d, mm, n)
            want = zsum * sign * m.qint(mm + 1) * delta(a, b, mm) * delta(mm, c, d)
            assert (value.order, value.num, value.den) == (want.order, want.num, want.den)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_gauge_entries_are_unitary_f_times_vertex_factors(self, k):
        # F'' over the vertex ratio is the radical route's F
        m = get_model(k)
        V = m._vertex_factors()
        live = np.count_nonzero(np.einsum("abm,mcd,bcn,and->abcdnm", *(m._adm,) * 4))
        assert len(m._f_labels) == live
        for (a, b, c, d, n, mm), value in zip(m._f_labels.tolist(), gauge_entries(m)):
            gauge = V[a, b, mm] * V[mm, c, d] / (V[b, c, n] * V[a, n, d])
            z = value.approx()
            assert z.imag == 0
            assert abs(z.real / gauge - f_value(m, a, b, c, d, mm, n)) < 1e-12

    @pytest.mark.parametrize("k", [6, 7])
    def test_exact_holds_with_float_instance_counts(self, k):
        m = get_model(k)
        for verify in (m.verify_pentagon, m.verify_hexagon):
            exact, numeric = verify("exact"), verify("float")
            assert exact.holds and exact.mode == "exact" and exact.max_residual == 0.0
            assert exact.checked == numeric.checked

    # sha256 over the uncapped exact failures (key and repr of each residual) and the max residual,
    # pentagon then hexagon, with one gauge entry doubled; recorded while exact sums were still
    # unpacked digit by digit and reduced by a matrix.  Re-recorded when the vertex factors became
    # square roots of the nearest doubles of their exact squares: 140 of the 270 residuals moved,
    # each by at most 5.8e-16 of its value (before:
    # 26283b703d9bd8bf27612ea4612253ef08dceffb05f1f82360d0b273f3a99b2f,
    # 8f9179a0d62e7ee5d12db0d97b83c35d144dfcdc48c2e062bccabb4cd3258ff8,
    # c767958b3548a84bddc59970fa84c70269ec192a4d7a236fa0cd23eac1a125bc)
    @pytest.mark.parametrize("k,bad,counts,digest", [
        (3, (1, 1, 1, 1, 0, 0), (28, 6), "2fc0b9c6b924e80073e810d255ccf6f664b021849f75f012b1a7b73f01efdc18"),
        (4, (1, 1, 1, 1, 2, 2), (66, 6), "e7ad90493d530f6f19cb26a2741256613601be646063cec1b65927978cd4462d"),
        (5, (2, 2, 2, 2, 2, 2), (154, 10), "bd92b70f729552daeed06ad49c219ebe9c5602d006c66dfa7bcdcf149930170e"),
    ])
    def test_exact_failures_are_pinned(self, monkeypatch, k, bad, counts, digest):
        monkeypatch.setattr(model_module, "MAX_FAILURES", 10 ** 6)
        m = Model(k)
        a, b, c, d, mm, n = bad
        double_rows(m, [row_of(m, a, b, c, d, n, mm)])
        sha = hashlib.sha256()
        for verify, count in zip((m.verify_pentagon, m.verify_hexagon), counts):
            report = verify("exact")
            assert len(report.failures) == count
            sha.update(repr([(key, repr(residual)) for key, residual in report.failures]).encode())
            sha.update(repr(report.max_residual).encode())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("k", [3, 5, 8])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_residue_settles_to_its_power_basis_value(self, k, data):
        # any integer congruent to r(2^B) mod P with |r_i| < 2^(B-2) settles to |r|, and r != 0 is never 0
        m = get_model(k)
        B, P = m._packed[4:]
        digit = st.integers(-(1 << (B - 2)) + 1, (1 << (B - 2)) - 1)
        r = data.draw(st.lists(digit, min_size=euler_phi(m.N), max_size=euler_phi(m.N)))
        q = data.draw(st.integers(-(1 << 300), 1 << 300))
        value = sum(r_i << (i * B) for i, r_i in enumerate(r)) + q * P
        residual = m._settle(np.array([[value]], dtype=object), B, P, lambda: np.ones(1))[0, 0]
        assert residual == abs(Cyc(m.N, tuple(r), 1).approx())
        assert (residual == 0) == (not any(r))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_multiples_of_the_cyclotomic_polynomial_settle_to_zero(self, k):
        # 2^(jB) P is x^j Phi_N(x) at x = 2^B, zero in Q(zeta_N) for every shift j a sum can reach
        m = get_model(k)
        B, P = m._packed[4:]
        sums = np.array([[P << (j * B)] for j in range(3 * m.N)], dtype=object)
        assert not m._settle(sums, B, P, lambda: np.ones(len(sums))).any()

    def test_packed_table_is_built_once_per_level(self, monkeypatch):
        calls = []
        build = Model._packed.func
        counted = functools.cached_property(lambda self: calls.append(self.k) or build(self))
        counted.__set_name__(Model, "_packed")
        monkeypatch.setattr(Model, "_packed", counted)
        m = Model(3)
        for verify in (m.verify_pentagon, m.verify_hexagon, m.verify_pentagon):
            assert verify("exact").holds
        assert calls == [3]

    def test_corrupted_entry_fails_alike_under_optimize(self):
        code = (
            "import su2k.model as model_module\n"
            "model_module.MAX_FAILURES = 1000\n"
            "m = model_module.Model(3)\n"
            "row = ((m._f_labels == (1, 1, 1, 1, 0, 0)).all(axis=1)).argmax()\n"
            "values, index = m._f_table\n"
            "values.append(values[index[row]] * 2)\n"
            "index[row] = len(values) - 1\n"
            "print(len(m.verify_pentagon('exact').failures), len(m.verify_hexagon('exact').failures))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.split() == ["28", "6"]


class TestUnitarity:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_sweep(self, k):
        report = get_model(k).verify_unitarity()
        assert report.holds and report.max_residual < 1e-12

    @pytest.mark.parametrize("mode,precision,tol", [
        ("float", 53, 1e-9), ("exact", 53, 1e-9), ("float", 128, 1e-20)
    ])
    def test_a_doubled_f_entry_is_reported_at_its_quad(self, mode, precision, tol):
        # unitarity reads the float64 F tensor whichever route the axiom sweeps take
        m = corrupted_model()
        m.verify_pentagon(mode, tol=tol, precision=precision)
        report = m.verify_unitarity()
        mat = m._recoupling_tensors(53)[0][1, 1, 1, 1][np.ix_((0, 2), (0, 2))]
        assert mat[0, 0] == 2 * get_model(3).f_symbol_float(1, 1, 1, 1, 0, 0)
        residual = float(np.max(np.abs(mat @ mat.T - np.eye(2))))
        assert report.failures == [(("f-unitarity", 1, 1, 1, 1), residual)]
        assert report.checked == get_model(3).verify_unitarity().checked

    def test_the_blocks_are_the_groups_of_the_live_f_labels(self, monkeypatch):
        # unitarity reads its blocks from _f_labels: without the labels of F^{111}_1 that block,
        # and the doubled entry in it, are not checked
        m = corrupted_model()
        full = m.verify_unitarity()
        assert full.failures == [(("f-unitarity", 1, 1, 1, 1), full.max_residual)]
        monkeypatch.setattr(m, "_f_labels", m._f_labels[(m._f_labels[:, :4] != (1, 1, 1, 1)).any(axis=1)])
        report = m.verify_unitarity()
        assert report.checked == full.checked - 1
        assert report.holds and report.failures == []

    @pytest.mark.parametrize("k", range(2, 13))
    def test_batched_residuals_equal_the_per_block_products(self, monkeypatch, k):
        # with a negative tolerance every block fails, so the report lists each block's residual
        monkeypatch.setattr(model_module, "_UNITARITY_TOL", -1.0)
        monkeypatch.setattr(model_module, "MAX_FAILURES", 10 ** 6)
        m = Model(k)
        F = m._recoupling_tensors(53)[0]
        want = []
        for quad, group in itertools.groupby(m._f_labels.tolist(), key=lambda labels: tuple(labels[:4])):
            rows, cols = (sorted(set(channels)) for channels in zip(*(labels[4:] for labels in group)))
            mat = F[quad][np.ix_(rows, cols)]
            want.append((("f-unitarity", *quad), float(np.max(np.abs(mat @ mat.T.conj() - np.eye(len(rows)))))))
        report = m.verify_unitarity()
        assert report.failures == want  # bit for bit, in _f_labels order
        assert report.max_residual == max(residual for _, residual in want)

    def test_failures_are_recorded_in_live_f_order(self, monkeypatch):
        # F^{111}_1 and F^{222}_2 doubled, and F^{121}_2 made 2 x 1 by dropping its column m = 3/2:
        # the non-square block is recorded between the two, as _f_labels lists them
        doubled = {(1, 1, 1, 1), (2, 2, 2, 2)}
        m = Model(3)
        labels = m._f_labels
        double_rows(m, [row for row, quad in enumerate(labels[:, :4].tolist()) if tuple(quad) in doubled])
        m._recoupling_tensors(53)
        monkeypatch.setattr(m, "_f_labels", labels[(labels[:, :4] != (1, 2, 1, 2)).any(axis=1) | (labels[:, 5] != 3)])
        report = m.verify_unitarity()
        assert [key for key, _ in report.failures] == [
            ("f-unitarity", 1, 1, 1, 1), ("f-not-square", 1, 2, 1, 2), ("f-unitarity", 2, 2, 2, 2)
        ]
        assert [residual for _, residual in report.failures] == [pytest.approx(3.0), 1.0, pytest.approx(3.0)]  # 4I - I
        assert report.checked == get_model(3).verify_unitarity().checked - 1

    def test_a_doubled_f_tensor_keeps_the_first_failures(self, monkeypatch):
        # every F-matrix of the k=3 tensor doubled: 96 blocks fail, and only the first MAX_FAILURES are kept
        m = Model(3)
        values = m._f_table[0]
        values[:] = [value * 2 for value in values]
        capped = m.verify_unitarity()
        capped_sweeps = [m.verify_pentagon("float"), m.verify_hexagon("float")]
        monkeypatch.setattr(model_module, "MAX_FAILURES", 1000)
        every = m.verify_unitarity().failures
        assert len(every) == 96 and len(capped.failures) == MAX_FAILURES == 20
        assert capped.failures == every[:MAX_FAILURES] and not capped.holds
        # the summary counts every failing instance, not the kept ones
        assert capped.failed == 96
        assert capped.summary().startswith("unitarity [float] over 116 instances: FAILS (96 counterexamples, ")
        # the sweeps count a block's failures past the cap without keeping them
        for capped_sweep, sweep in zip(capped_sweeps, [m.verify_pentagon("float"), m.verify_hexagon("float")]):
            assert capped_sweep.failed == sweep.failed == len(sweep.failures) > MAX_FAILURES
            assert capped_sweep.failures == sweep.failures[:MAX_FAILURES]
            assert f"FAILS ({sweep.failed} counterexamples, " in capped_sweep.summary()

    def test_qubit_f_involutory_exact(self):
        for k in range(2, 12):
            m = get_model(k)
            _, _, fm = m.f_matrix_exact(1, 1, 1, 1)
            f = [[RadicalSum.from_terms(m.radicals, [fm[i][j]]) for j in range(2)] for i in range(2)]
            # symmetric
            assert (f[0][1] - f[1][0]).is_zero()
            # real: conjugation fixes every entry
            for row in f:
                for entry in row:
                    assert (entry - entry.conjugate()).is_zero()
            # involutory: F @ F = identity, exactly
            sq = [[f[i][0] * f[0][j] + f[i][1] * f[1][j] for j in range(2)] for i in range(2)]
            assert sq[0][0] == 1 and sq[1][1] == 1
            assert sq[0][1].is_zero() and sq[1][0].is_zero()


def reference_smatrix(model: Model) -> list[list[Cyc]]:
    """S_ab = sum_{c in a x b} theta_c d_c conj(theta_a theta_b), one fusion loop per entry."""
    spins = [model.spin(a) for a in model.labels]
    twisted = [spins[c] * model.dim_exact(c) for c in model.labels]
    smatrix = []
    for a in model.labels:
        row = []
        for b in model.labels:
            acc = Cyc.rational(0)
            for c in model.fusion(a, b):
                acc = acc + twisted[c]
            row.append(acc * (spins[a] * spins[b]).conjugate())
        smatrix.append(row)
    return smatrix


# One wrong table each, at k = 5 (N = 28), and the start of the IntegrityError it raises: the code
# runs with the model as m and ends in the call that validates.
BROKEN_TABLES = {
    "doubled-dim": (
        "m.dim_exact = lambda a, f=m.dim_exact: f(a) * 2 if a == 2 else f(a)\nm.spins_dims_smatrix()",
        "dimension mismatch at (1/2,1/2)",
    ),
    "doubled-s-entry": (
        "_, d, s = m.spins_dims_smatrix()\ns[1][3] = s[1][3] * 2\nm._check_dims_and_s(d, s)",
        "S-matrix entry at (1/2,3/2) is not [8]_q",
    ),
    "sign-flipped-s-row": (
        "_, d, s = m.spins_dims_smatrix()\ns[2] = [-e for e in s[2]]\nm._check_dims_and_s(d, s)",
        "S-matrix entry at (1,0) is not [3]_q",
    ),
    # theta_1 times zeta_N changes every S entry with 1 in a x b
    "theta-times-zeta": (
        "m.spin = lambda a, f=m.spin: f(a) * Cyc.root_of_unity(m.N) if a == 2 else f(a)\nm.spins_dims_smatrix()",
        "S-matrix entry at (0,1) is not [3]_q",
    ),
    "dropped-channel": (
        "m.fusion = lambda a, b, f=m.fusion: f(a, b)[:-1] if (a, b) == (2, 2) else f(a, b)\nm.spins_dims_smatrix()",
        "dimension mismatch at (1,1)",
    ),
    # 1 x 1 = 0, 1, 2 without its middle channel is no longer one step-2 run
    "dropped-middle-channel": (
        "m.fusion = lambda a, b, f=m.fusion: (0, 4) if (a, b) == (2, 2) else f(a, b)\nm.spins_dims_smatrix()",
        "dimension mismatch at (1,1)",
    ),
}


class TestSpinsDimsSMatrix:
    @pytest.mark.parametrize("k", range(0, 31))
    def test_smatrix_equals_the_fusion_loop(self, k):
        # same canonical (order, num, den) per entry, hence the same floats
        m = Model(k)
        want = reference_smatrix(m)
        got = m.spins_dims_smatrix()[2]
        assert [[(e.order, e.num, e.den) for e in row] for row in got] == [
            [(e.order, e.num, e.den) for e in row] for row in want
        ]
        assert m.json_payload()["S"]["float"] == [
            [[z.real, z.imag] for z in (e.approx() for e in row)] for row in want
        ]

    def test_trivial_spin(self):
        spins, _, _ = get_model(4).spins_dims_smatrix()
        assert spins[0] == 1

    def test_k2_dimension(self):
        _, dims, _ = get_model(2).spins_dims_smatrix()
        assert dims[1].approx().real == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_k3_golden_ratio(self):
        _, dims, _ = get_model(3).spins_dims_smatrix()
        assert dims[2].approx().real == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_perron_frobenius_agreement(self, k):
        # the largest eigenvalue of each fusion matrix, from NumPy, against the exact [2j+1]_q
        m = get_model(k)
        N = m.fusion_tensor()
        pf = [float(max(np.linalg.eigvals(N[a]).real)) for a in m.labels]
        for a in m.labels:
            assert abs(pf[a] - m.dim_exact(a).approx().real) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 10])
    def test_integrity_passes(self, k):
        spins, dims, smat = get_model(k).spins_dims_smatrix()
        assert len(spins) == len(dims) == len(smat) == k + 1

    def test_spin_condition_is_checked(self):
        # the validation really compares against R-products: spot-check one triple
        m = get_model(3)
        a, b, c = 1, 1, 2
        lhs = m.spin(c) / (m.spin(a) * m.spin(b))
        rhs = m.r_symbol(a, b, c) * m.r_symbol(b, a, c)
        assert lhs == rhs

    @pytest.mark.parametrize("k", range(0, 13))
    def test_exponent_decision_agrees_with_cyc_comparison(self, k, monkeypatch):
        # every triple, as built and with R^{ab}_c = R^{ba}_c shifted by -1 = zeta^{N/2}, by zeta
        # or by both; the shift enters both R factors, so -1 squares away.  The spin condition reads
        # the formula once per triple, which relies on its symmetry in a and b, checked first.
        m = Model(k)
        unshifted = m._r_sign_exponent
        shifts = [(0, 0, True), (1, 0, True), (0, 1, False), (0, m.N // 2, True), (1, m.N // 2, True)]
        for a in m.labels:
            for b in m.labels:
                for c in m.fusion(a, b):
                    assert unshifted(a, b, c) == unshifted(b, a, c)
                    for d_sign, d_exp, holds in shifts:

                        def shifted(x, y, z, a=a, b=b, c=c, d_sign=d_sign, d_exp=d_exp):
                            sign, exponent = unshifted(x, y, z)
                            if (x, y, z) in ((a, b, c), (b, a, c)):
                                return sign + d_sign, exponent + d_exp
                            return sign, exponent

                        monkeypatch.setattr(m, "_r_sign_exponent", shifted)
                        lhs = m.spin(c) * (m.spin(a) * m.spin(b)).conjugate()
                        rhs = m.r_symbol(a, b, c) * m.r_symbol(b, a, c)
                        assert m._spin_condition_holds(a, b, c) is (lhs == rhs) is holds, (a, b, c, d_sign, d_exp)

    def test_shifted_r_exponent_fails_the_spin_condition(self, monkeypatch):
        m = Model(3)
        unshifted = m._r_sign_exponent

        def shifted(a, b, c):
            sign, exponent = unshifted(a, b, c)
            return sign, exponent + ((a, b, c) == (1, 2, 1))

        monkeypatch.setattr(m, "_r_sign_exponent", shifted)
        with pytest.raises(IntegrityError, match=r"spin condition fails at \(1/2,1;1/2\)"):
            m.spins_dims_smatrix()

    def test_shifted_r_formula_fails_the_validated_tables(self, monkeypatch):
        # every exponent one step off: both sides of the spin condition still power zeta, but differ by zeta^2
        m = Model(4)
        unshifted = m._r_sign_exponent
        monkeypatch.setattr(m, "_r_sign_exponent", lambda a, b, c: (unshifted(a, b, c)[0], unshifted(a, b, c)[1] + 1))
        with pytest.raises(IntegrityError, match=r"spin condition fails at \(0,0;0\)"):
            m._validated_tables

    def test_shifted_r_exponent_fails_under_optimize(self):
        code = (
            "from su2k.errors import IntegrityError\n"
            "from su2k.model import Model\n"
            "m = Model(3)\n"
            "unshifted = m._r_sign_exponent\n"
            "m._r_sign_exponent = lambda a, b, c: (unshifted(a, b, c)[0], unshifted(a, b, c)[1] + ((a, b, c) == (1, 2, 1)))\n"
            "try:\n"
            "    m.spins_dims_smatrix()\n"
            "except IntegrityError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "spin condition fails at (1/2,1;1/2)"

    def test_doubled_dimension_fails_the_perron_frobenius_check(self, monkeypatch):
        m = Model(5)
        exact = m.dim_exact
        monkeypatch.setattr(m, "dim_exact", lambda a: exact(a) * 2 if a == 2 else exact(a))
        with pytest.raises(IntegrityError, match=r"dimension mismatch at \(1/2,1/2\)"):
            m.spins_dims_smatrix()

    def test_perturbed_s_entry_fails_the_exact_check(self):
        # a relative change far below float64 resolution is caught: no check has a tolerance
        m = Model(5)
        _, dims, smatrix = m.spins_dims_smatrix()
        m._check_dims_and_s(dims, smatrix)
        smatrix[1][3] = smatrix[1][3] * (1 + Fraction(1, 10 ** 30))
        with pytest.raises(IntegrityError, match=r"S-matrix entry at \(1/2,3/2\) is not \[8\]_q"):
            m._check_dims_and_s(dims, smatrix)

    @pytest.mark.parametrize("name", list(BROKEN_TABLES))
    def test_broken_tables_fail_the_exact_checks(self, name):
        code, message = BROKEN_TABLES[name]
        with pytest.raises(IntegrityError) as excinfo:
            exec(code, {"m": Model(5), "Cyc": Cyc})
        assert str(excinfo.value).split(":")[0] == message

    def test_exact_checks_hold_under_optimize(self):
        code = (
            "from su2k.cyclotomic import Cyc\n"
            "from su2k.errors import IntegrityError\n"
            "from su2k.model import Model\n"
            f"for code, _ in {list(BROKEN_TABLES.values())!r}:\n"
            "    try:\n"
            "        exec(code, {'m': Model(5), 'Cyc': Cyc})\n"
            "    except IntegrityError as exc:\n"
            "        print(str(exc).split(':')[0])\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.splitlines() == [message for _, message in BROKEN_TABLES.values()]

    def test_s_matrix_floats_are_the_exact_entries_embedded(self):
        m = Model(5)
        _, _, smatrix = m.spins_dims_smatrix()
        floats = m.json_payload()["S"]["float"]
        assert floats == [[[z.real, z.imag] for z in (entry.approx() for entry in row)] for row in smatrix]

    def test_calls_return_fresh_lists(self):
        m = Model(2)
        spins, _, smatrix = m.spins_dims_smatrix()
        spins.clear()
        smatrix[0].clear()
        again, _, smatrix_again = m.spins_dims_smatrix()
        assert len(again) == 3 and len(smatrix_again[0]) == 3


class TestDegenerateLevels:
    def test_k0_model_builds(self):
        m = get_model(0)
        assert m.labels == (0,)
        assert m.fusion(0, 0) == (0,)
        m.spins_dims_smatrix()

    def test_k1_has_no_charge_one_channel(self):
        assert get_model(1).fusion(1, 1) == (0,)


class TestJsonPayload:
    def test_shape(self):
        payload = get_model(2).json_payload()
        assert payload["schema"] == "su2k/model-v1"
        assert payload["labels"] == ["0", "1/2", "1"]
        assert len(payload["fusion"]) == 3
        assert len(payload["S"]["exact"]) == 3
        assert payload["dims"]["float"][1] == pytest.approx(math.sqrt(2))

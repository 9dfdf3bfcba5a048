"""Anyon-model data: fusion, quantum integers, R/F symbols, axiom sweeps."""

import cmath
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from su2k.cyclotomic import Cyc
from su2k.errors import DomainError, IntegrityError
import su2k.model as model_module
from su2k.model import MAX_FAILURES, Model, get_model, label_str, parse_label
from su2k.radicals import RadicalSum


def f_value(model: Model, *labels) -> complex:
    return RadicalSum.from_terms(model.radicals, [model.f_symbol(*labels)]).approx()


def corrupted_model(monkeypatch, mode: str) -> Model:
    """A fresh k=3 model whose route for ``mode`` reads F(1,1,1,1; 0,0) doubled."""
    bad = (1, 1, 1, 1, 0, 0)
    m = Model(3)
    if mode == "exact":
        table = m._gauge_table()
        table[bad] = table[bad] * 2
    else:
        six_j = m._six_j
        monkeypatch.setattr(m, "_six_j", lambda labels, *tables: six_j(labels, *tables) * (2 if labels == bad else 1))
    return m


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

    def test_parse_roundtrip(self):
        for a in range(8):
            assert parse_label(label_str(a)) == a

    def test_invalid_label_rejected(self):
        with pytest.raises(DomainError):
            get_model(2).check_label(3)


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

    def test_multiplicity_free(self):
        for k in (2, 5, 9):
            N = get_model(k).fusion_tensor()
            assert set(np.unique(N)) <= {0, 1}


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

    def test_negative_radicand_raises(self, monkeypatch):
        # flipping the sign of [2]! leaves an odd power of it in this radicand
        m = Model(3)
        table = list(m._qfact_f)
        table[2] = -table[2]
        monkeypatch.setattr(m, "_qfact_f", table)
        with pytest.raises(IntegrityError):
            m.f_symbol_float(0, 0, 1, 1, 0, 1)

    def test_negative_radicand_raises_under_optimize(self):
        code = (
            "from su2k.errors import IntegrityError\n"
            "from su2k.model import Model\n"
            "m = Model(3)\n"
            "m._qfact_f[2] = -m._qfact_f[2]\n"
            "try:\n"
            "    m.f_symbol_float(0, 0, 1, 1, 0, 1)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "raised"

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_mpmath_tensors_match_exact(self, k):
        # the 256-bit route evaluates the 6j formula directly; compare it with
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

    @pytest.mark.parametrize("mode,precision,tol", [
        ("float", 53, 1e-9), ("float", 256, 1e-30), ("exact", 53, 1e-9)
    ])
    def test_every_route_reports_a_corrupted_f_entry(self, monkeypatch, mode, precision, tol):
        m = corrupted_model(monkeypatch, mode)
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
        exact, unitary = corrupted_model(monkeypatch, "exact"), corrupted_model(monkeypatch, "float")
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


class TestGaugeTable:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_gauge_entries_are_unitary_f_times_vertex_factors(self, k):
        m = get_model(k)
        table, V = m._gauge_table(), m._vertex_float()
        live = np.count_nonzero(np.einsum("abm,mcd,bcn,and->abcdnm", *(m._adm,) * 4))
        assert len(table) == live
        for (a, b, c, d, mm, n), value in table.items():
            gauge = V[a, b, mm] * V[mm, c, d] / (V[b, c, n] * V[a, n, d])
            z = value.approx()
            assert abs(z.imag) < 1e-12
            assert abs(z.real / gauge - m.f_symbol_float(a, b, c, d, mm, n)) < 1e-12

    @pytest.mark.parametrize("k", [6, 7])
    def test_exact_holds_with_float_instance_counts(self, k):
        m = get_model(k)
        for verify in (m.verify_pentagon, m.verify_hexagon):
            exact, numeric = verify("exact"), verify("float")
            assert exact.holds and exact.mode == "exact" and exact.max_residual == 0.0
            assert exact.checked == numeric.checked

    def test_wide_slots_settle_alike(self, monkeypatch):
        # 64-bit slots unpack through Python ints instead of int64: same decisions, same residuals
        m = corrupted_model(monkeypatch, "exact")
        for rows in m._pentagon_rows():
            got = [
                m._settle(m._pentagon_sums(rows, F, R, R_inv, D), B,
                          lambda: m._pentagon_gauge(rows, m._vertex_float(), D))
                for F, R, R_inv, D, B in (m._packed_tensors(), m._packed_tensors(64))
            ]
            assert np.array_equal(*got)

    def test_undersized_slot_width_raises(self):
        m = Model(3)
        width = m._packed_tensors()[4]
        for bad in (width - 8, width + 1):
            with pytest.raises(IntegrityError):
                m._packed_tensors(bad)

    def test_undersized_slot_width_raises_under_optimize(self):
        code = (
            "from su2k.errors import IntegrityError\n"
            "from su2k.model import Model\n"
            "m = Model(3)\n"
            "try:\n"
            "    m._packed_tensors(m._packed_tensors()[4] - 8)\n"
            "except IntegrityError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout.strip() == "raised"


class TestUnitarity:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_sweep(self, k):
        report = get_model(k).verify_unitarity()
        assert report.holds and report.max_residual < 1e-12

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
            from su2k.radicals import mat_mul

            sq = mat_mul(f, f)
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
        assert m._validated_tables[3] == [[e.approx() for e in row] for row in want]

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
        m = get_model(k)
        pf = m.dims_perron_frobenius()
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
        # every triple, as built and with R^{ab}_c shifted by -1 = zeta^{N/2}, by zeta or by both;
        # for a = b the shift enters both R factors, so -1 squares away
        m = Model(k)
        unshifted = m._r_sign_exponent
        shifts = [
            (0, 0, True, True),
            (1, 0, False, True),
            (0, 1, False, False),
            (0, m.N // 2, False, True),
            (1, m.N // 2, True, True),
        ]
        for a in m.labels:
            for b in m.labels:
                for c in m.fusion(a, b):
                    for d_sign, d_exp, holds_ab, holds_aa in shifts:
                        holds = holds_aa if a == b else holds_ab

                        def shifted(x, y, z, a=a, b=b, c=c, d_sign=d_sign, d_exp=d_exp):
                            sign, exponent = unshifted(x, y, z)
                            if (x, y, z) == (a, b, c):
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

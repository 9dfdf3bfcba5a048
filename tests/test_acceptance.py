"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines and timings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from su2k.braids import (
    braid_generator_matrix,
    dense_qubit_generators,
    enumerate_basis,
    normalized_qubit_rep,
    sparse_encoding_rep,
)
from su2k.model import get_model
from su2k.regression import REFERENCE
from su2k.synth import SearchConfig, error_profile, reachable_counts
from su2k.universality import (
    KNOWN_COSINE_IDENTITIES,
    certificate,
    rational_cosine_sum,
    trace_cosine_identity,
    witnesses,
)


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS  [{time.perf_counter() - start:.1f}s]")


def test_criterion_1_axiom_suite():
    with criterion(1, "pentagon + hexagons, k=2..12"):
        start = time.perf_counter()
        for k in range(2, 13):
            model = get_model(k)
            mode = "exact" if k <= 3 else "float"
            pentagon = model.verify_pentagon(mode, tol=1e-9)
            hexagon = model.verify_hexagon(mode, tol=1e-9)
            assert pentagon.holds, (k, pentagon.failures[:3])
            assert hexagon.holds, (k, hexagon.failures[:3])
            if mode == "exact":
                assert pentagon.numeric_fallbacks == 0
                assert hexagon.numeric_fallbacks == 0
            else:
                assert pentagon.max_residual < 1e-9
                assert hexagon.max_residual < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"axiom sweep took {elapsed:.1f}s (target < 60s)"


def test_criterion_2_closed_form_regression():
    with criterion(2, "6j machinery vs closed-form F and R, k=2..30"):
        for k in range(2, 31):
            model = get_model(k)
            want_f = REFERENCE["qubit_f"](k)
            rows, cols, _ = model.f_matrix_float(1, 1, 1, 1)
            assert rows == (0, 2) and cols == (0, 2)
            got_f = model.f_matrix_float(1, 1, 1, 1)[2]
            assert np.max(np.abs(got_f - want_f)) < 1e-12, k
            # real, symmetric, involutory
            assert np.max(np.abs(got_f.imag)) < 1e-12
            assert np.max(np.abs(got_f - got_f.T)) < 1e-12
            assert np.max(np.abs(got_f @ got_f - np.eye(2))) < 1e-12
            want_r = REFERENCE["qubit_r"](k)
            got_r = np.diag([model.r_symbol_complex(1, 1, 0), model.r_symbol_complex(1, 1, 2)])
            assert np.max(np.abs(got_r - want_r)) < 1e-12, k


def test_criterion_3_clifford_generators():
    with criterion(3, "k=2 normalized generators are Clifford"):
        s1, s2 = normalized_qubit_rep(2)
        want1, want2 = REFERENCE["clifford_k2"]
        assert np.max(np.abs(s1 - want1)) < 1e-12
        assert np.max(np.abs(s2 - want2)) < 1e-12


def test_criterion_4_trace_identities_exact():
    with criterion(4, "A/B/W trace identities exact, k=2..30"):
        for k in range(2, 31):
            trace_a, trace_b, trace_w = witnesses(k).traces()
            for which, trace in (("A", trace_a), ("B", trace_b), ("W", trace_w)):
                trace_cosine_identity(which, k, trace)  # raises IntegrityError unless exact


def test_criterion_5_special_values():
    with criterion(5, "half-trace special values exact"):
        for k, want in REFERENCE["half_trace"].items():
            assert witnesses(k).traces()[0] / 2 == want, k


def test_criterion_6_verdict_sweep():
    with criterion(6, "universality verdicts, k=3..30"):
        start = time.perf_counter()
        for k in range(3, 31):
            cert = certificate(k)
            if k in REFERENCE["non_dense"]:
                assert cert.verdict == "not-certified", k
            else:
                assert cert.verdict == "dense", k
        order4, order8 = REFERENCE["finite_orders"][4][0], REFERENCE["finite_orders"][8][0]
        cert4 = certificate(4)
        assert cert4.order_a.finite and cert4.order_a.projective_order == order4
        a4 = witnesses(4).numeric()[0]
        assert np.max(np.abs(np.linalg.matrix_power(a4, order4) + np.eye(2))) < 1e-9
        cert8 = certificate(8)
        assert cert8.order_a.finite and cert8.order_a.projective_order == order8
        a8 = witnesses(8).numeric()[0]
        assert np.max(np.abs(np.linalg.matrix_power(a8, order8) - np.eye(2))) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"verdict sweep took {elapsed:.1f}s (target < 5 min)"


def test_criterion_7_cosine_identity_suite():
    with criterion(7, "rational-cosine list verified exact"):
        # nine fixed identities, with the singleton's value taken as 1/2
        # (a printed 1/3 in some sources is a transcription issue, documented
        # in the README; it is not asserted)
        assert len(KNOWN_COSINE_IDENTITIES) == 9
        for name, terms, value in KNOWN_COSINE_IDENTITIES:
            assert rational_cosine_sum(terms) == value, name
        assert KNOWN_COSINE_IDENTITIES[0][2] == Fraction(1, 2)
        # the tenth entry is the parametric family, verified at sample angles
        for family in REFERENCE["phi_family"]:
            assert rational_cosine_sum(family) == 0, family


def test_criterion_8_sparse_dense_equality():
    with criterion(8, "four-anyon vs three-anyon generators, k=2..12"):
        for k in range(2, 13):
            s1p, s2p, s3p = sparse_encoding_rep(k)  # raises on internal mismatch
            d1, d2 = dense_qubit_generators(k)
            assert np.max(np.abs(s1p - d1)) < 1e-12
            assert np.max(np.abs(s2p - d2)) < 1e-12
            assert np.max(np.abs(s3p - d1)) < 1e-12


def test_criterion_9_synthesis_dichotomy():
    with criterion(9, "synthesis: error decay vs finite closure"):
        start = time.perf_counter()
        depth = 12
        for k in (3, 5, 6, 7):
            rows = error_profile(SearchConfig(k=k, max_depth=depth), sample=20)
            assert rows[-1].depth == depth, (k, rows[-1].depth)
            means = [r.mean_error for r in rows]
            assert means[depth] < means[2], (k, means)
            distinct = [r.distinct for r in rows]
            assert all(b > a for a, b in zip(distinct, distinct[1:])), (k, distinct)
        for k in (2, 4, 8):
            counts, closed = reachable_counts(SearchConfig(k=k, max_depth=40))
            assert closed, k
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"synthesis dichotomy took {elapsed:.1f}s (target < 10 min)"


def test_criterion_10_braid_relations():
    with criterion(10, "braid relations, k<=8, n<=5, every total charge"):
        for k in range(2, 9):
            model = get_model(k)
            for n in range(2, 6):
                for c in model.labels:
                    basis = enumerate_basis(k, 1, n, c)
                    if basis.dim == 0:
                        continue
                    gens = [braid_generator_matrix(model, basis, i) for i in range(1, n)]
                    for i in range(len(gens) - 1):
                        lhs = gens[i] @ gens[i + 1] @ gens[i]
                        rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
                        assert np.max(np.abs(lhs - rhs)) < 1e-10, (k, n, c, i)
                    for i in range(len(gens)):
                        for j in range(i + 2, len(gens)):
                            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
                            assert np.max(np.abs(comm)) < 1e-10, (k, n, c, i, j)

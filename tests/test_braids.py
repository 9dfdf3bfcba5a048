"""Splitting-tree bases and braid-group representation matrices."""

import cmath
import hashlib
import math
import random

import numpy as np
import pytest

from su2k.braids import (
    BraidWord,
    braid_generator_matrix,
    dense_qubit_generators,
    enumerate_basis,
    evaluate_word,
    normalized_qubit_rep,
    sparse_encoding_rep,
)
from su2k.cyclotomic import Cyc
from su2k.errors import DomainError
from su2k.model import Model, get_model
from su2k.radicals import RadicalSum
from su2k.synth import projective_distance


class TestBasisEnumeration:
    def test_three_anyon_qubit(self):
        for k in (2, 3, 8):
            basis = enumerate_basis(k, 1, 3, 1)
            assert basis.states == ((0,), (2,))

    def test_four_anyon_vacuum_qubit(self):
        for k in (2, 3, 8):
            basis = enumerate_basis(k, 1, 4, 0)
            assert basis.dim == 2

    def test_two_anyon_line(self):
        assert enumerate_basis(2, 1, 2, 2).dim == 1

    def test_empty_basis_is_valid(self):
        assert enumerate_basis(3, 1, 1, 3).dim == 0
        assert enumerate_basis(2, 2, 2, 1).dim == 0  # parity obstruction

    def test_deterministic_lexicographic_order(self):
        basis = enumerate_basis(4, 1, 6, 0)
        assert list(basis.states) == sorted(basis.states)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_dimension_matches_fusion_contraction(self, k):
        m = get_model(k)
        N = m.fusion_tensor()
        for a in m.labels:
            for n in range(1, 7):
                power = np.linalg.matrix_power(N[a], n - 1)
                for c in m.labels:
                    assert enumerate_basis(k, a, n, c).dim == power[a, c]

    def test_local_admissibility_invariant(self):
        m = get_model(4)
        basis = enumerate_basis(4, 1, 6, 2)
        for state in basis.states:
            chain = basis.internal_chain(state)
            for left, right in zip(chain, chain[1:]):
                assert m.admissible(left, 1, right)


class TestGeneratorMatrices:
    def test_sigma1_diagonal(self):
        m = get_model(3)
        basis = enumerate_basis(3, 1, 3, 1)
        s1 = braid_generator_matrix(m, basis, 1)
        q = cmath.exp(2j * cmath.pi / 5)
        assert np.allclose(s1, np.diag([-q ** -0.75, q ** 0.25]), atol=1e-13)

    @pytest.mark.parametrize("k", range(2, 31))
    def test_n3_closed_forms(self, k):
        q = cmath.exp(2j * cmath.pi / (k + 2))
        rad = cmath.sqrt(q + 1 / q + 1)
        s1, s2 = dense_qubit_generators(k)
        assert np.max(np.abs(s1 - np.diag([-q ** -0.75, q ** 0.25]))) < 1e-12
        want2 = (q ** 0.25 / (1 + q)) * np.array([[q, rad], [rad, -1 / q]])
        assert np.max(np.abs(s2 - want2)) < 1e-12

    def test_generators_use_the_model_they_are_given(self, monkeypatch):
        # not the process-wide model of the basis level: a patched R-symbol shows in sigma_1
        m = Model(3)
        monkeypatch.setattr(m, "r_symbol_complex", lambda a, b, c: 7.0)
        basis = enumerate_basis(3, 1, 3, 1)
        assert np.array_equal(braid_generator_matrix(m, basis, 1), 7 * np.eye(2))
        assert np.array_equal(evaluate_word(m, basis, BraidWord.parse("s1^2")), 49 * np.eye(2))

    def test_index_out_of_range(self):
        m = get_model(2)
        basis = enumerate_basis(2, 1, 3, 1)
        with pytest.raises(DomainError):
            braid_generator_matrix(m, basis, 3)

    def test_unitarity(self):
        for k in (2, 3, 5):
            m = get_model(k)
            for n in (3, 4, 5):
                for c in m.labels:
                    basis = enumerate_basis(k, 1, n, c)
                    if basis.dim == 0:
                        continue
                    for i in range(1, n):
                        u = braid_generator_matrix(m, basis, i)
                        assert np.max(np.abs(u @ u.conj().T - np.eye(basis.dim))) < 1e-12

    def test_braid_relations_sweep(self):
        for k in range(2, 9):
            m = get_model(k)
            for n in range(2, 6):
                for c in m.labels:
                    basis = enumerate_basis(k, 1, n, c)
                    if basis.dim == 0:
                        continue
                    gens = [braid_generator_matrix(m, basis, i) for i in range(1, n)]
                    for i in range(len(gens) - 1):
                        lhs = gens[i] @ gens[i + 1] @ gens[i]
                        rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
                        assert np.max(np.abs(lhs - rhs)) < 1e-10, (k, n, c, i)
                    for i in range(len(gens)):
                        for j in range(i + 2, len(gens)):
                            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
                            assert np.max(np.abs(comm)) < 1e-10


class TestNormalizedRep:
    def test_determinants_are_one(self):
        for k in range(2, 16):
            s1, s2 = normalized_qubit_rep(k)
            assert abs(np.linalg.det(s1) - 1) < 1e-12
            assert abs(np.linalg.det(s2) - 1) < 1e-12

    def test_k2_clifford_pair(self):
        s1, s2 = normalized_qubit_rep(2)
        assert np.max(np.abs(s1 - cmath.exp(1j * math.pi / 4) * np.diag([1, -1j]))) < 1e-12
        assert np.max(np.abs(s2 - np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2))) < 1e-12

    def test_k3_diagonal(self):
        s1, _ = normalized_qubit_rep(3)
        want = np.diag([1j * cmath.exp(-2j * math.pi / 10), -1j * cmath.exp(2j * math.pi / 10)])
        assert np.max(np.abs(s1 - want)) < 1e-12

    def test_sigma2_is_f_conjugate(self):
        # the reference: F R~ F multiplied out over radical sums from the exact F-symbols
        for k in (2, 3, 7):
            m = get_model(k)
            _, _, fm = m.f_matrix_exact(1, 1, 1, 1)
            f = [[RadicalSum.from_terms(m.radicals, [fm[i][j]]) for j in range(2)] for i in range(2)]
            r = (Cyc.root_of_unity(m.N, m.N // 4 - 2), -Cyc.root_of_unity(m.N, m.N // 4 + 2))
            fr = [[f[i][j] * r[j] for j in range(2)] for i in range(2)]
            same = np.array([[(fr[i][0] * f[0][j] + fr[i][1] * f[1][j]).approx() for j in range(2)]
                             for i in range(2)])
            _, s2 = normalized_qubit_rep(k)
            assert np.max(np.abs(s2 - same)) == 0

    def test_generators_are_bit_identical(self):
        # sha256 of the complex128 bytes of (sigma_1~, sigma_2~) for k = 2..30, recorded before the
        # radical context became lazy; every synth run starts from these generators.  Re-recorded when
        # floats became the nearest doubles of the exact values: components that are zero in Q(zeta_N),
        # formerly rounding noise of about 1e-23, are now 0.0, and every other component is unchanged
        # (before: fc3f6fe18144b353ba2b3842e13f9919d7e5deb63afe686bb7e83afbbadf1b62)
        digest = hashlib.sha256()
        for k in range(2, 31):
            for gen in normalized_qubit_rep(k):
                assert gen.dtype == np.complex128 and gen.flags.c_contiguous
                digest.update(gen.tobytes())
        assert digest.hexdigest() == "78090d0d8ee57de04d32f40a26e109d11670921d057a0fed609b97707c289b1f"

    def test_generators_are_bit_identical_at_higher_levels(self):
        # the same digest for k = 31..60 and 418, recorded while the generators came from the
        # radical route (exact F-symbols over radical sums), before the closed-form gauge built them;
        # re-recorded with exact zeros as 0.0, as above
        # (before: 3d32894a0422d1a7f511de245774d896d7d4d251d41e67d36e6650ebc780dc43)
        digest = hashlib.sha256()
        for k in [*range(31, 61), 418]:
            for gen in normalized_qubit_rep(k):
                assert gen.dtype == np.complex128 and gen.flags.c_contiguous
                digest.update(gen.tobytes())
        assert digest.hexdigest() == "0f528c0a2ee1b1fa37641c0114350aed800fd1f9aabc2416cff5f3a21fc655fe"

    def test_normalization_phase(self):
        # normalized = (-i q^{1/4}) * unnormalized, entrywise
        for k in (2, 3, 5, 9):
            q4 = cmath.exp(2j * cmath.pi / (4 * (k + 2)))
            u1, u2 = dense_qubit_generators(k)
            s1, s2 = normalized_qubit_rep(k)
            assert np.max(np.abs(s1 - (-1j * q4) * u1)) < 1e-12
            assert np.max(np.abs(s2 - (-1j * q4) * u2)) < 1e-12

    def test_rejects_degenerate_levels(self):
        for k in (0, 1):
            with pytest.raises(DomainError):
                normalized_qubit_rep(k)


class TestSparseEncoding:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_equality_with_dense(self, k):
        s1p, s2p, s3p = sparse_encoding_rep(k)
        d1, d2 = dense_qubit_generators(k)
        assert np.max(np.abs(s1p - d1)) < 1e-12
        assert np.max(np.abs(s2p - d2)) < 1e-12
        assert np.max(np.abs(s3p - d1)) < 1e-12

    def test_sigma1_equals_sigma3(self):
        s1p, _, s3p = sparse_encoding_rep(3)
        assert np.max(np.abs(s1p - s3p)) < 1e-14

    def test_random_words_agree_projectively(self):
        rng = random.Random(424242)
        k = 3
        m = get_model(k)
        dense_basis = enumerate_basis(k, 1, 3, 1)
        sparse_basis = enumerate_basis(k, 1, 4, 0)
        for _ in range(100):
            moves = tuple(
                (rng.choice([1, 2, 3]), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(1, 8))
            )
            word = BraidWord(moves)
            dense_word = BraidWord(tuple((1 if i == 3 else i, e) for i, e in moves))
            u_sparse = evaluate_word(m, sparse_basis, word)
            u_dense = evaluate_word(m, dense_basis, dense_word)
            assert projective_distance(u_sparse, u_dense) < 1e-10


class TestWords:
    def test_parse_and_format(self):
        w = BraidWord.parse("s1^2 s2^-4 s1^2")
        assert w.moves == ((1, 2), (2, -4), (1, 2))
        assert str(w) == "s1^2 s2^-4 s1^2"
        assert w.is_double_braid
        assert not BraidWord.parse("s1^3").is_double_braid

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            BraidWord.parse("t1^2")
        with pytest.raises(DomainError):
            BraidWord(((1, 0),))

    def test_empty_word_is_identity(self):
        m = get_model(2)
        basis = enumerate_basis(2, 1, 3, 1)
        assert np.array_equal(evaluate_word(m, basis, BraidWord(())), np.eye(2))

    def test_braid_relation_as_words(self):
        m = get_model(5)
        basis = enumerate_basis(5, 1, 3, 1)
        lhs = evaluate_word(m, basis, BraidWord.parse("s1 s2 s1"))
        rhs = evaluate_word(m, basis, BraidWord.parse("s2 s1 s2"))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_word_out_of_range(self):
        m = get_model(2)
        basis = enumerate_basis(2, 1, 3, 1)
        with pytest.raises(DomainError):
            evaluate_word(m, basis, BraidWord.parse("s3^2"))

    def test_first_witness_word(self):
        # the word s1^2 s2^4 reproduces the first witness matrix up to phase
        from su2k.universality import witnesses

        m = get_model(3)
        basis = enumerate_basis(3, 1, 3, 1)
        u = evaluate_word(m, basis, BraidWord.parse("s1^2 s2^4"))
        a = witnesses(3).numeric()[0]
        assert projective_distance(u, a) < 1e-12

    def test_inverse_exponents(self):
        m = get_model(4)
        basis = enumerate_basis(4, 1, 3, 1)
        u = evaluate_word(m, basis, BraidWord.parse("s2^3 s2^-3"))
        assert np.max(np.abs(u - np.eye(2))) < 1e-13

"""Double-braid synthesis: metric, search, profiles, closure dichotomy."""

import math
import random

import numpy as np
import pytest

from su2k.braids import BraidWord, enumerate_basis, evaluate_word
from su2k.errors import DomainError
from su2k.model import get_model
from su2k.synth import (
    _DISTANCE_BLOCK,
    SearchConfig,
    _Search,
    double_braid_generators,
    error_profile,
    haar_su2,
    projective_distance,
    reachable_counts,
    synthesize,
)


class TestProjectiveDistance:
    def test_self_distance_zero(self):
        u = haar_su2(random.Random(1))
        assert projective_distance(u, u) == 0

    def test_phase_invariance(self):
        u = haar_su2(random.Random(2))
        for phase in (1j, np.exp(0.3j), -1):
            assert projective_distance(u, phase * u) == 0

    def test_antipodal_value(self):
        assert projective_distance(np.eye(2), np.diag([1, -1]).astype(complex)) == pytest.approx(1.0)

    @pytest.mark.parametrize("angle", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
    def test_small_rotation_reports_its_distance(self, angle):
        # sqrt(1 - cos(angle)) = sqrt(2) * sin(angle / 2), with no floor below 1e-7
        rotation = np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
        want = math.sqrt(2) * math.sin(angle / 2)
        assert projective_distance(rotation, np.eye(2, dtype=complex)) == pytest.approx(want, rel=1e-8, abs=0)
        # the phased product carries about 1e-16 of rounding
        phased = projective_distance(np.exp(0.7j) * rotation, np.eye(2))
        assert phased == pytest.approx(want, rel=1e-8, abs=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            projective_distance(np.eye(2) * 2, np.eye(2))

    def test_symmetry_and_triangle(self):
        rng = random.Random(3)
        u, v, w = (haar_su2(rng) for _ in range(3))
        duv = projective_distance(u, v)
        assert duv == pytest.approx(projective_distance(v, u), abs=1e-12)
        assert duv <= projective_distance(u, w) + projective_distance(w, v) + 1e-12


class TestHaarSampling:
    def test_determinant_one(self):
        rng = random.Random(9)
        for _ in range(20):
            u = haar_su2(rng)
            assert abs(np.linalg.det(u) - 1) < 1e-12
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_seeded_reproducibility(self):
        a = [haar_su2(random.Random(4)) for _ in range(3)]
        b = [haar_su2(random.Random(4)) for _ in range(3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestSynthesize:
    def test_generator_target_hits_at_depth_one(self):
        gens, _ = double_braid_generators(3)
        result = synthesize(SearchConfig(k=3, max_depth=5), gens[0])
        assert result.best_errors[1] == 0
        assert result.best_words[1] == "s1^2"

    def test_near_identity_target_is_not_an_exact_hit(self):
        # a 1e-7 rotation is 7.07e-8 from the identity, far above the 1e-9 tolerance
        target = np.diag([np.exp(1e-7j), np.exp(-1e-7j)])
        result = synthesize(SearchConfig(k=3, max_depth=2), target)
        assert result.best_errors[0] == pytest.approx(math.sqrt(2) * math.sin(0.5e-7), rel=1e-8, abs=0)
        assert result.depths == [0, 1, 2]

    def test_identity_target_hits_at_depth_zero(self):
        result = synthesize(SearchConfig(k=5, max_depth=3), np.eye(2, dtype=complex))
        assert result.best_errors[0] == 0

    def test_phase_shifted_target_same_word(self):
        target = np.diag([1, -1]).astype(complex)
        r1 = synthesize(SearchConfig(k=3, max_depth=8), target)
        r2 = synthesize(SearchConfig(k=3, max_depth=8), np.exp(1.2j) * target)
        assert r1.best_words == r2.best_words
        assert r1.best_errors == pytest.approx(r2.best_errors, abs=1e-12)

    def test_monotone_errors(self):
        result = synthesize(SearchConfig(k=3, max_depth=10), np.diag([1, -1]).astype(complex))
        for earlier, later in zip(result.best_errors, result.best_errors[1:]):
            assert later <= earlier + 1e-15

    def test_deeper_search_improves_z_target(self):
        result = synthesize(SearchConfig(k=3, max_depth=12), np.diag([1, -1]).astype(complex))
        assert result.best_errors[12] < result.best_errors[4]

    def test_reported_word_reevaluates(self):
        target = haar_su2(random.Random(77))
        result = synthesize(SearchConfig(k=3, max_depth=9), target)
        word = BraidWord.parse(result.best_word)
        assert word.is_double_braid
        m = get_model(3)
        basis = enumerate_basis(3, 1, 3, 1)
        u = evaluate_word(m, basis, word)
        assert abs(projective_distance(u, target) - result.best_error) < 1e-12

    def test_determinism(self):
        target = haar_su2(random.Random(5))
        r1 = synthesize(SearchConfig(k=5, max_depth=7), target)
        r2 = synthesize(SearchConfig(k=5, max_depth=7), target)
        assert r1.best_errors == r2.best_errors
        assert r1.best_words == r2.best_words
        assert r1.explored == r2.explored

    def test_beam_mode_runs_deeper(self):
        target = haar_su2(random.Random(6))
        full = synthesize(SearchConfig(k=3, max_depth=8), target)
        beam = synthesize(SearchConfig(k=3, max_depth=8, beam_width=200), target)
        assert beam.distinct <= full.distinct
        for earlier, later in zip(beam.best_errors, beam.best_errors[1:]):
            assert later <= earlier + 1e-15

    def test_state_cap_marks_partial(self):
        target = haar_su2(random.Random(8))
        result = synthesize(SearchConfig(k=3, max_depth=12, max_states=500), target)
        assert result.partial

    @pytest.mark.parametrize("cap", [1, 50, 500, 5000])
    def test_state_cap_is_never_exceeded(self, cap):
        config = SearchConfig(k=3, max_depth=20, max_states=cap)
        result = synthesize(config, haar_su2(random.Random(8)))
        assert result.partial and result.distinct <= cap
        rows = error_profile(config, sample=2)
        assert rows[-1].distinct <= cap
        assert [r.depth for r in rows] == result.depths  # the same depths were fully expanded
        counts, closed = reachable_counts(config)
        assert not closed and counts[-1] <= cap and len(counts) == len(rows)

    def test_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            synthesize(SearchConfig(k=3), np.ones((2, 2), dtype=complex))
        with pytest.raises(DomainError):
            synthesize(SearchConfig(k=1), np.eye(2, dtype=complex))


class TestDichotomy:
    @pytest.mark.parametrize("k,size", [(2, 4), (4, 12), (8, 60)])
    def test_finite_levels_close(self, k, size):
        counts, closed = reachable_counts(SearchConfig(k=k, max_depth=40))
        assert closed
        assert counts[-1] == size

    @pytest.mark.parametrize("k", [3, 5, 6, 7])
    def test_dense_levels_grow(self, k):
        counts, closed = reachable_counts(SearchConfig(k=k, max_depth=7))
        assert not closed
        assert all(later > earlier for earlier, later in zip(counts, counts[1:]))


class TestErrorProfile:
    def test_deterministic(self):
        p1 = error_profile(SearchConfig(k=3, max_depth=6), sample=6)
        p2 = error_profile(SearchConfig(k=3, max_depth=6), sample=6)
        assert [(r.depth, r.best_error, r.mean_error) for r in p1] == [
            (r.depth, r.best_error, r.mean_error) for r in p2
        ]

    def test_mean_non_increasing(self):
        rows = error_profile(SearchConfig(k=3, max_depth=8), sample=5)
        means = [r.mean_error for r in rows]
        assert all(later <= earlier + 1e-15 for earlier, later in zip(means, means[1:]))

    def test_finite_level_plateaus_above_zero(self):
        rows = error_profile(SearchConfig(k=4, max_depth=30), sample=6)
        assert rows[-1].depth < 30  # closure stops the expansion early
        assert rows[-1].mean_error > 0.05

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            error_profile(SearchConfig(k=3, max_depth=3), sample=0)

    def test_blockwise_minimum_equals_full_matrix(self):
        search = _Search(SearchConfig(k=3, max_depth=10))
        while len(search.frontier) <= _DISTANCE_BLOCK:  # reach a frontier spanning two blocks
            search.expand()
        rng = random.Random(9)
        targets = np.stack([haar_su2(rng) for _ in range(3)])
        full = search.frontier_errors(targets).min(axis=0)
        assert np.array_equal(search.frontier_min_errors(targets), full)


class TestConfigValidation:
    def test_bad_depth(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, max_depth=0)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, tolerance=0)

    def test_generators_must_be_double_braids(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=((1, 1),))
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=((3, 2),))
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=())

    def test_custom_generator_set(self):
        # quadruple braidings only: still searchable, word pieces match
        config = SearchConfig(k=3, max_depth=4, generators=((1, 4), (1, -4), (2, 4), (2, -4)))
        gens, _ = double_braid_generators(3, config.generators)
        result = synthesize(config, gens[0])
        assert result.best_errors[1] == 0
        assert result.best_words[1] == "s1^4"

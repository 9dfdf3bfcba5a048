"""Double-braid synthesis: metric, search, profiles, closure dichotomy."""

import math
import random

import numpy as np
import pytest

from su2k import synth
from su2k.braids import BraidWord, enumerate_basis, evaluate_word
from su2k.errors import DomainError
from su2k.model import get_model
from su2k.synth import (
    _DISTANCE_BLOCK,
    SearchConfig,
    _products,
    _Search,
    _su2_quaternions,
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
        haar = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(3)]))
        # frontier states themselves and 1e-7 rotations of them take the chord branch
        rotation = np.array([[math.cos(1e-7), math.sin(1e-7), 0.0, 0.0]])
        near = np.concatenate([search.frontier[[5, -1]], _products(search.frontier[[7, -3]], rotation)])
        targets = np.concatenate([haar, near, -near])
        full = search.frontier_errors(targets).min(axis=0)
        assert np.array_equal(search.frontier_min_errors(targets), full)
        assert np.all(full[3:] < 1e-7) and np.all(full[5:7] > 0)


class TestConfigValidation:
    def test_bad_depth(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, max_depth=0)

    def test_bad_tolerance(self):
        # an infinite tolerance would stop a target search at depth 1 and call it a hit
        for tolerance in (0, -1e-9, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                SearchConfig(k=3, tolerance=tolerance)

    def test_negative_beam_width(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, beam_width=-3)
        SearchConfig(k=3, beam_width=0)  # 0 = exhaustive

    def test_generators_must_be_double_braids(self):
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=((1, 1),))
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=((3, 2),))
        with pytest.raises(DomainError):
            SearchConfig(k=3, generators=())

    def test_grid_must_fit_the_key_integers(self):
        # a unit coordinate over the resolution must fit int32, or distinct states share a key
        with pytest.raises(DomainError):
            SearchConfig(k=3, dedup_resolution=1e-12)
        with pytest.raises(DomainError):
            SearchConfig(k=3, dedup_resolution=1 / np.iinfo(np.int32).max)
        SearchConfig(k=3, dedup_resolution=1e-9)

    @pytest.mark.parametrize("resolution", [float("inf"), float("nan"), 1.0, 5.0])
    def test_grid_must_be_finer_than_a_coordinate(self, resolution):
        with pytest.raises(DomainError):
            SearchConfig(k=3, dedup_resolution=resolution)

    def test_custom_generator_set(self):
        # quadruple braidings only: still searchable, word pieces match
        config = SearchConfig(k=3, max_depth=4, generators=((1, 4), (1, -4), (2, 4), (2, -4)))
        gens, _ = double_braid_generators(3, config.generators)
        result = synthesize(config, gens[0])
        assert result.best_errors[1] == 0
        assert result.best_words[1] == "s1^4"


# -- the complex-matrix engine the quaternion search replaced, kept as the reference --


def _reference_quaternions(batch):
    alpha = (batch[:, 0, 0] + np.conj(batch[:, 1, 1])) / 2
    beta = (batch[:, 0, 1] - np.conj(batch[:, 1, 0])) / 2
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)


def _reference_grid_keys(batch, resolution):
    v = _reference_quaternions(batch)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)[:, 0]
    v = np.where((lead < 0)[:, None], -v, v)
    return np.round(v / resolution).astype(np.int32)


def _reference_project_su2(batch):
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    return batch / np.sqrt(det)[:, None, None]


def _reference_distances(us, vs):
    overlaps = np.abs(np.einsum("nij,tij->nt", np.conj(us), vs)) / 2
    gaps = 1.0 - np.minimum(overlaps, 1.0)
    rows, cols = np.nonzero(gaps < 1e-8)
    out = np.sqrt(gaps)
    if len(rows):
        qu = _reference_quaternions(_reference_project_su2(us[rows]))
        qv = _reference_quaternions(_reference_project_su2(vs[cols]))
        chord = np.minimum(np.linalg.norm(qu - qv, axis=1), np.linalg.norm(qu + qv, axis=1)) / math.sqrt(2)
        chord[chord < 4 * np.finfo(float).eps] = 0.0
        out[rows, cols] = chord
    return out


def _matrices(q):
    """SU(2) matrices [[a, b], [-b*, a*]] from quaternion rows (exact)."""
    a, b = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    return np.stack([np.stack([a, b], axis=1), np.stack([-np.conj(b), np.conj(a)], axis=1)], axis=1)


class ReferenceSearch(_Search):
    """Complex 2x2 frontier, einsum products, and a bytes set of grid keys deduplicated row by row."""

    def __init__(self, config):
        super().__init__(config)
        self.gens, _ = double_braid_generators(config.k, config.generators)
        self.frontier = np.eye(2, dtype=complex)[None]
        self.visited = set(map(bytes, _reference_grid_keys(self.frontier, config.dedup_resolution)))

    @property
    def distinct(self):
        return len(self.visited)

    def expand(self):
        n = len(self.frontier)
        n_gens = len(self.gens)
        if len(self.visited) + n * n_gens > self.config.max_states:
            self.partial = True
            return False
        candidates = np.einsum("nij,gjk->ngik", self.frontier, self.gens).reshape(n_gens * n, 2, 2)
        parents = np.repeat(np.arange(n, dtype=np.intp), n_gens)
        gen_idx = np.tile(np.arange(n_gens, dtype=np.intp), n)
        keys = _reference_grid_keys(candidates, self.config.dedup_resolution)
        keep = np.zeros(len(candidates), dtype=bool)
        for row, key_row in enumerate(keys):
            key = key_row.tobytes()
            if key not in self.visited:
                self.visited.add(key)
                keep[row] = True
        self.explored += len(candidates)
        self.frontier = candidates[keep]
        self.trace.append((parents[keep], gen_idx[keep]))
        if len(self.frontier) == 0:
            self.closed = True
        return True

    def frontier_errors(self, targets):
        return _reference_distances(self.frontier, _matrices(targets))

    def frontier_min_errors(self, targets):
        if len(self.frontier) == 0:
            return np.full(len(targets), np.inf)
        return self.frontier_errors(targets).min(axis=0)


def _with_engine(monkeypatch, engine, run):
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_Search", engine)
        return run()


REFERENCE_CASES = [
    SearchConfig(k=3, max_depth=9),
    SearchConfig(k=5, max_depth=12, beam_width=200),
    SearchConfig(k=3, max_depth=20, max_states=5000),
]


class TestAgainstReferenceEngine:
    @pytest.mark.parametrize("config", REFERENCE_CASES)
    def test_synthesize(self, monkeypatch, config):
        for seed in (11, 12, 13):
            target = haar_su2(random.Random(seed))
            new = synthesize(config, target)
            ref = _with_engine(monkeypatch, ReferenceSearch, lambda: synthesize(config, target))
            assert new.depths == ref.depths
            assert new.best_words == ref.best_words
            assert (new.explored, new.distinct, new.partial) == (ref.explored, ref.distinct, ref.partial)
            assert new.best_errors == pytest.approx(ref.best_errors, rel=0, abs=1e-12)

    @pytest.mark.parametrize("config", [REFERENCE_CASES[0], REFERENCE_CASES[2], SearchConfig(k=4, max_depth=30)])
    def test_error_profile(self, monkeypatch, config):
        new = error_profile(config, sample=6)
        ref = _with_engine(monkeypatch, ReferenceSearch, lambda: error_profile(config, sample=6))
        assert [(r.depth, r.explored, r.distinct, r.partial) for r in new] == [
            (r.depth, r.explored, r.distinct, r.partial) for r in ref
        ]
        for field in ("best_error", "mean_error", "max_error"):
            assert [getattr(r, field) for r in new] == pytest.approx([getattr(r, field) for r in ref], rel=0, abs=1e-12)

    @pytest.mark.parametrize("k, depth", [(4, 40), (3, 8)])
    def test_reachable_counts(self, monkeypatch, k, depth):
        config = SearchConfig(k=k, max_depth=depth)
        assert reachable_counts(config) == _with_engine(monkeypatch, ReferenceSearch, lambda: reachable_counts(config))


def _counting_exact_path(monkeypatch):
    """Count the batches that take the exact (hash, key) sort."""
    calls = []
    exact = _Search._first_new_exact

    def counted(self, hashes, rows):
        calls.append(len(rows))
        return exact(self, hashes, rows)

    monkeypatch.setattr(_Search, "_first_new_exact", counted)
    return calls


class TestExactDedup:
    def test_colliding_hash_gives_the_same_search(self, monkeypatch):
        # with only 7 hash values nearly every pair of keys collides, so equality rests on the full key
        config = SearchConfig(k=3, max_depth=8)
        target = haar_su2(random.Random(21))

        def run():
            result = synthesize(config, target)
            return (result.depths, result.best_errors, result.best_words, result.explored, result.distinct,
                    result.partial, error_profile(config, sample=3), reachable_counts(config))

        plain = run()
        key_hash = synth._key_hash
        monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) % 7)
        exact_batches = _counting_exact_path(monkeypatch)
        assert run() == plain
        assert exact_batches

    @pytest.mark.parametrize("coarse", [None, 7, 1])
    def test_first_occurrence_wins(self, monkeypatch, coarse):
        # with one hash value the repeats within the batch collide, and so do the visited keys
        if coarse:
            key_hash = synth._key_hash
            monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) % coarse)
        search = _Search(SearchConfig(k=3))
        visited = search.visited_rows.view(np.int32)  # the identity's key
        keys = np.array([[5, 0, 0, 0], [7, 1, 0, 0], [5, 0, 0, 0], visited, [7, 1, 0, 0], [9, 9, 9, 9]],
                        dtype=np.int32)
        assert search._first_new(keys).tolist() == [0, 1, 5]
        assert search._first_new(keys).tolist() == []
        for row in keys:  # one key alone: nothing to compare within the batch
            assert search._first_new(row[None]).tolist() == []
        assert search.distinct == 4

    def test_sign_symmetric_keys_do_not_collide(self, monkeypatch):
        # keys equal up to the signs of two coordinates are common on the grid; the hash keeps them apart
        exact_batches = _counting_exact_path(monkeypatch)
        for k in (3, 6, 7):
            reachable_counts(SearchConfig(k=k, max_depth=9))
        assert exact_batches == []

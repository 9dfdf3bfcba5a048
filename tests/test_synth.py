"""Double-braid synthesis: metric, search, profiles, closure dichotomy."""

import copy
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2k import synth
from su2k.braids import BraidWord, enumerate_basis, evaluate_word
from su2k.errors import DomainError
from su2k.model import get_model
from su2k.synth import (
    _DISTANCE_BLOCK,
    _EXPAND_BLOCK,
    _KEY_ROW,
    MAX_PROFILE_SAMPLES,
    SearchConfig,
    _CandidateKeys,
    _canonical_grid_keys,
    _product_coords,
    _Search,
    _su2_quaternions,
    _Visited,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN deviation compares False against any bound, so it must not slip through
        with pytest.raises(DomainError, match="first argument"):
            projective_distance(np.full((2, 2), bad), np.eye(2))
        with pytest.raises(DomainError, match="second argument"):
            projective_distance(np.eye(2), np.array([[bad, 0], [0, 1]], dtype=complex))

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
        gens = double_braid_generators(3)
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

    @pytest.mark.parametrize("phase", [1, 1j, -1])
    def test_exact_hit_at_depth_zero_expands_nothing(self, phase):
        # the start state already meets the tolerance, so no depth is built after it
        result = synthesize(SearchConfig(k=3, max_depth=5), phase * np.eye(2, dtype=complex))
        assert result.depths == [0] and result.best_words == [""] and result.best_errors == [0]
        assert (result.explored, result.distinct, result.partial) == (1, 1, False)

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

    @pytest.mark.parametrize("depth, closed", [(2, False), (3, True)])
    def test_closure_at_the_last_allowed_depth(self, depth, closed):
        # k = 2 finds no new gate at depth 3: a run that max_depth stops there still reports closure
        assert reachable_counts(SearchConfig(k=2, max_depth=depth)) == ([1, 3, 4, 4][:depth + 1], closed)

    def test_depth_ten_count_at_a_level_with_coordinate_ties(self):
        # k = 6 gates have coordinates equal in magnitude; each gate is counted once
        counts, closed = reachable_counts(SearchConfig(k=6, max_depth=10))
        assert counts[-1] == 14495 and not closed

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

    def test_sample_over_the_cap_draws_no_target(self, monkeypatch):
        assert MAX_PROFILE_SAMPLES == 1 << 22

        def no_draw(rng):
            raise AssertionError("a target was drawn")

        monkeypatch.setattr(synth, "haar_su2", no_draw)
        with pytest.raises(DomainError, match=str(MAX_PROFILE_SAMPLES)):
            error_profile(SearchConfig(k=3, max_depth=1), sample=MAX_PROFILE_SAMPLES + 1)
        with pytest.raises(AssertionError, match="a target was drawn"):
            error_profile(SearchConfig(k=3, max_depth=1), sample=1)

    def test_blockwise_minimum_equals_full_matrix(self):
        search = _Search(SearchConfig(k=3, max_depth=10))
        while len(search.frontier) <= _DISTANCE_BLOCK:  # reach a frontier spanning two blocks
            search.expand()
        rng = random.Random(9)
        haar = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(3)]))
        # frontier states themselves and 1e-7 rotations of them take the chord branch
        rotation = np.array([[math.cos(1e-7), math.sin(1e-7), 0.0, 0.0]])
        rotated = _products(search.frontier[[7, -3]], rotation)
        near = np.concatenate([search.frontier[[5, -1]], rotated])
        targets = np.concatenate([haar, near, -near])
        full = search.frontier_errors(targets).min(axis=0)
        assert np.array_equal(search.frontier_min_errors(targets), full)
        assert np.all(full[3:] < 1e-7) and np.all(full[5:7] > 0)

    def test_scoring_blocks_shrink_with_the_target_count(self, monkeypatch):
        # any cell budget gives the same errors, chord branch included
        search = _Search(SearchConfig(k=3, max_depth=10))
        for _ in range(5):
            search.expand()
        rng = random.Random(5)
        haar = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(5)]))
        targets = np.concatenate([haar, search.frontier[[3, -2]]])
        full, least = search.frontier_errors(targets), search.frontier_min_errors(targets)
        for cells, rows in ((1, 1), (20, 2)):
            monkeypatch.setattr(synth, "_DISTANCE_CELLS", cells)
            assert {part.stop - part.start for part in search._scoring_blocks(len(targets))} == {rows}
            assert np.array_equal(search.frontier_errors(targets), full)
            assert np.array_equal(search.frontier_min_errors(targets), least)

    def test_profile_scoring_memory_does_not_grow_with_the_sample(self):
        search = _Search(SearchConfig(k=3, max_depth=10))
        while len(search.frontier) <= _DISTANCE_BLOCK:
            search.expand()
        rng = random.Random(2)
        targets = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(1000)]))
        tracemalloc.start()
        try:
            search.frontier_min_errors(targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # a full 4,096-row block would hold 33 MB per temporary


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


# -- the complex-matrix engine the quaternion search replaced, kept as the reference --


def _reference_quaternions(batch):
    alpha = (batch[:, 0, 0] + np.conj(batch[:, 1, 1])) / 2
    beta = (batch[:, 0, 1] - np.conj(batch[:, 1, 0])) / 2
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)


def _reference_grid_keys(batch, resolution):
    v = np.round(_reference_quaternions(batch) / resolution)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)[:, 0]
    return np.where((lead < 0)[:, None], -v, v).astype(np.int32)


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


def _kernel_search(frontier, gens):
    """A search whose product kernel reads the given frontier and generator quaternion rows."""
    search = _Search(SearchConfig(k=3))
    search.frontier, search.gens = frontier, gens
    return search


def _key_rows_as_ints(rows):
    """The (n, 4) int32 grid keys behind a column of key rows."""
    return rows.view(np.int32).reshape(-1, 4)


def _products(qx, qy):
    """Quaternion rows of X Y for every X row and each of its Y rows, X-major, all in one pass.

    `qy` is (len(qx), m, 4), the Y rows of each X, or (m, 4), the same Y rows for every X.
    """
    ys = np.broadcast_to(qy, (len(qx), *qy.shape[-2:]))
    return np.stack(_product_coords(qx.T[:, :, None], ys.transpose(2, 0, 1)), axis=-1).reshape(-1, 4)


class OnePassSearch(_Search):
    """The search with each depth built whole: every candidate's product, its keys read from those
    products, and the frontier compressed from them by the keep mask."""

    def expand(self, store=True):
        n_gens = len(self.gens)
        if self.distinct + len(self.frontier) * n_gens > min(self.config.max_states, synth._MAX_STATES):
            self.partial = True
            return False
        self.explored += len(self.frontier) * n_gens
        self.visited.merge()
        moves = synth._NEXT_PIECES[self.trace[-1][1]] if self.trace else np.arange(n_gens, dtype=np.int8)[None]
        candidates = _products(self.frontier, self.gens[moves])
        rows = _canonical_grid_keys(candidates, self.config.dedup_resolution).view(_KEY_ROW)[:, 0]
        keep = self.visited.add_new(synth._key_hash(rows), rows, store)
        self.frontier = candidates[keep]
        kept = np.flatnonzero(keep)
        self.trace.append(((kept // moves.shape[1]).astype(np.int32), moves.ravel()[kept]))
        self.closed = len(self.frontier) == 0
        return True


class ReferenceSearch(_Search):
    """Complex 2x2 frontier, einsum products, and a bytes set of grid keys deduplicated row by row.

    The set keeps every key, the last depth's too, so `store` changes nothing here.
    """

    def __init__(self, config):
        super().__init__(config)
        self.gens = double_braid_generators(config.k)
        self.frontier = np.eye(2, dtype=complex)[None]
        self.visited = set(map(bytes, _reference_grid_keys(self.frontier, config.dedup_resolution)))

    @property
    def distinct(self):
        return len(self.visited)

    def expand(self, store=True):
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

    @pytest.mark.parametrize("k, depth", [(4, 40), (3, 8), (6, 10)])
    def test_reachable_counts(self, monkeypatch, k, depth):
        config = SearchConfig(k=k, max_depth=depth)
        assert reachable_counts(config) == _with_engine(monkeypatch, ReferenceSearch, lambda: reachable_counts(config))


def _counting_decisions(monkeypatch):
    """Count the candidates of each batch left undecided by the hashes, which the full-key sort decides."""
    calls = []
    decide = _Visited._decide

    def counted(self, candidates, hashes, rows):
        calls.append(len(candidates))
        return decide(self, candidates, hashes, rows)

    monkeypatch.setattr(_Visited, "_decide", counted)
    return calls


def _add_new(visited, keys):
    """Indices of the int32 key rows that `visited` reports new, as the search hashes them."""
    rows = np.ascontiguousarray(keys, dtype=np.int32).view(_KEY_ROW)[:, 0]
    return np.flatnonzero(visited.add_new(synth._key_hash(rows), rows))


def _search_with_coarse_hash(monkeypatch, coarse):
    """A k=3 search, plainly and with the key hash reduced mod `coarse`; the second sorts on full keys."""
    config = SearchConfig(k=3, max_depth=8)
    target = haar_su2(random.Random(21))

    def run():
        result = synthesize(config, target)
        return (result.depths, result.best_errors, result.best_words, result.explored, result.distinct,
                result.partial, error_profile(config, sample=3), reachable_counts(config))

    plain = run()
    key_hash = synth._key_hash
    monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) % coarse)
    decided = _counting_decisions(monkeypatch)
    assert run() == plain
    assert decided


class TestExactDedup:
    def test_colliding_hash_gives_the_same_search(self, monkeypatch):
        # with only 7 hash values nearly every pair of keys collides, so equality rests on the full key
        _search_with_coarse_hash(monkeypatch, 7)

    def test_single_hash_value_gives_the_same_search(self, monkeypatch):
        # every key shares one hash: every visited run repeats it, and the full-key sort decides each depth
        _search_with_coarse_hash(monkeypatch, 1)

    @pytest.mark.parametrize("coarse", [None, 7, 1])
    def test_first_occurrence_wins(self, monkeypatch, coarse):
        # with one hash value the repeats within the batch collide, and so do the visited keys
        if coarse:
            key_hash = synth._key_hash
            monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) % coarse)
        search = _Search(SearchConfig(k=3))
        visited = search.visited.runs[0][1].view(np.int32)  # the identity's key
        keys = np.array([[5, 0, 0, 0], [7, 1, 0, 0], [5, 0, 0, 0], visited, [7, 1, 0, 0], [9, 9, 9, 9]],
                        dtype=np.int32)
        assert _add_new(search.visited, keys).tolist() == [0, 1, 5]
        assert _add_new(search.visited, keys).tolist() == []
        for row in keys:  # one key alone: nothing to compare within the batch
            assert _add_new(search.visited, row[None]).tolist() == []
        assert search.distinct == 4
        search.visited.merge()
        assert len(search.visited.runs) == 1 and _add_new(search.visited, keys).tolist() == []
        assert search.distinct == 4

    def test_collision_within_a_batch_only(self, monkeypatch):
        # the batch's keys share a hash that no visited key has, so only the batch's own sort can see it
        search = _Search(SearchConfig(k=3))
        identity = search.visited.runs[0][1][0]
        monkeypatch.setattr(synth, "_key_hash", lambda rows: (rows != identity).astype(np.uint64))
        keys = np.array([[5, 0, 0, 0], [7, 1, 0, 0], [5, 0, 0, 0], [9, 9, 9, 9], [7, 1, 0, 0]], dtype=np.int32)
        assert _add_new(search.visited, keys).tolist() == [0, 1, 3]
        assert _add_new(search.visited, keys).tolist() == []
        assert search.distinct == 4

    def test_sign_symmetric_keys_do_not_collide(self, monkeypatch):
        # keys equal up to the signs of two coordinates are common on the grid; the hash keeps them apart
        decided = _counting_decisions(monkeypatch)
        for k in (3, 6, 7):
            reachable_counts(SearchConfig(k=k, max_depth=9))
        assert decided == []

    def test_top_bit_collisions_are_resolved_within_their_group(self, monkeypatch):
        # a 32-bit hash gives many words the same top bits while the full hashes differ: only the
        # members of such groups, and the visited keys under their hashes, go to the full-key sort
        config = SearchConfig(k=3, max_depth=9)
        target = haar_su2(random.Random(22))

        def run():
            result = synthesize(config, target)
            return (result.best_errors, result.best_words, result.explored, result.distinct,
                    error_profile(config, sample=3), reachable_counts(config))

        plain = run()
        key_hash = synth._key_hash
        monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) & np.uint64(0xFFFFFFFF))
        decided = _counting_decisions(monkeypatch)
        assert run() == plain
        assert sum(decided) > 100
        search = _Search(config)
        for _ in range(config.max_depth):
            search.expand()
        for hashes, rows in search.visited.runs:
            assert np.all(hashes[1:] >= hashes[:-1]) and np.array_equal(hashes, synth._key_hash(rows))

    def test_a_forced_visited_collision_decides_only_its_candidate(self, monkeypatch):
        # one depth-13 candidate of the k=3 profile takes the hash of a stored key that no candidate
        # shares: the full-key sort sees that candidate and the one stored row under its hash
        search = _Search(SearchConfig(k=3, max_depth=13))
        for _ in range(12):
            search.expand()
        search.visited.merge()
        moves = synth._NEXT_PIECES[search.trace[-1][1]]
        hashes, rows = search._candidates(moves), _CandidateKeys(search, moves)
        # the last depth releases the set it looks up in, so the plain answer comes from a copy
        plain = copy.deepcopy(search.visited).add_new(hashes, rows, store=False)
        assert len(hashes) == 755_100 and sum(len(h) for h, _ in search.visited.runs) == 399_387
        once, counts = np.unique(hashes, return_counts=True)
        chosen = np.flatnonzero(plain & np.isin(hashes, once[counts == 1]))[0]  # new, and its key's only copy
        stored = np.concatenate([h for h, _ in search.visited.runs])
        stored = stored[~np.isin(stored >> np.uint64(32), hashes >> np.uint64(32))][0]  # top bits no candidate has
        forced = hashes.copy()
        forced[chosen] = stored
        decided = _counting_decisions(monkeypatch)
        seen = []  # the positions each `_within` call returns: the batch's mixed groups, then each run's rows
        within = synth._within

        def counted(*args):
            seen.append(within(*args))
            return seen[-1]

        monkeypatch.setattr(synth, "_within", counted)
        assert np.array_equal(search.visited.add_new(forced, rows, store=False), plain)
        assert decided == [1] and sum(map(len, seen)) == 1
        assert search.visited.runs == [] and search.visited.prefilter is None

    @pytest.mark.parametrize("config, target", [
        (SearchConfig(k=3, max_depth=11, seed=7), None),
        (SearchConfig(k=5, max_depth=40, beam_width=10_000), 1),
    ], ids=["k3-profile", "k5-beam"])
    def test_benchmark_sized_runs_never_take_the_exact_sort(self, monkeypatch, config, target):
        # with the full hash no two keys of these runs share a group's top bits or a visited hash,
        # so every candidate is decided by the hashes alone
        decided = _counting_decisions(monkeypatch)
        if target is None:
            error_profile(config, 20)
        else:
            synthesize(config, haar_su2(random.Random(target)))
        assert decided == []


def _runs_from(batches):
    """A visited set whose runs are the given key batches, each added as new; nothing is merged."""
    visited = _Visited(np.array([[1, 0, 0, 0]], dtype=np.int32).view(_KEY_ROW)[:, 0])
    for batch in batches:
        assert len(_add_new(visited, batch)) == len(batch)
    return visited


class TestVisitedRuns:
    def test_runs_partition_the_visited_keys(self):
        search = _Search(SearchConfig(k=5, max_depth=12, beam_width=300))
        for _ in range(12):
            before = search.distinct
            search.expand()
            search.shrink_to_beam(np.zeros(len(search.frontier)))
        # expand merges before it builds a depth, so the last depth's run is still apart
        assert len(search.visited.runs[-1][0]) == search.distinct - before > 300
        search.visited.merge()
        runs = search.visited.runs
        sizes = [len(hashes) for hashes, _ in runs]
        assert all(big > 2 * small for big, small in zip(sizes, sizes[1:]))  # geometric sizes
        assert sum(sizes) == search.distinct
        for hashes, rows in runs:
            assert np.all(hashes[1:] >= hashes[:-1]) and np.array_equal(hashes, synth._key_hash(rows))
        every = np.concatenate([rows for _, rows in runs])
        assert len(np.unique(every)) == len(every)

    @pytest.mark.parametrize("coarse", [None, 7, 1])
    def test_merge_is_a_stable_sort_of_the_two_runs(self, monkeypatch, coarse):
        # with a coarse hash equal hashes meet across runs; the merge keeps each row with its hash
        if coarse:
            key_hash = synth._key_hash
            monkeypatch.setattr(synth, "_key_hash", lambda rows: key_hash(rows) % coarse)
        rng = np.random.default_rng(4)
        keys = np.unique(rng.integers(-50, 50, size=(300, 4), dtype=np.int32), axis=0)
        rng.shuffle(keys)
        half = len(keys) // 2
        visited = _runs_from([keys[:half], keys[half:]])
        (big_hashes, big_rows), (small_hashes, small_rows) = visited.runs[1:]
        hashes = np.concatenate([visited.runs[0][0], big_hashes, small_hashes])
        rows = np.concatenate([visited.runs[0][1], big_rows, small_rows])
        visited.merge()
        assert len(visited.runs) == 1
        order = np.argsort(hashes, kind="stable")
        merged_hashes, merged_rows = visited.runs[0]
        assert np.array_equal(merged_hashes, hashes[order]) and np.array_equal(merged_rows, rows[order])
        assert np.array_equal(synth._key_hash(merged_rows), merged_hashes)
        # membership is decided on the full key: every key is known, a fresh one is new exactly once
        assert _add_new(visited, keys).tolist() == []
        fresh = np.array([[99, 99, 0, 0], [98, 0, 0, 0], [99, 99, 0, 0]], dtype=np.int32)
        assert _add_new(visited, np.concatenate([keys[::7], fresh])).tolist() == [len(keys[::7]), len(keys[::7]) + 1]
        assert visited.size == 1 + len(keys) + 2

    @pytest.mark.parametrize("config", [
        SearchConfig(k=5, max_depth=30, beam_width=500),
        SearchConfig(k=3, max_depth=9),
    ], ids=["k5-beam", "k3-profile"])
    def test_eager_and_lazy_merges_give_the_same_search(self, monkeypatch, config):
        targets = _su2_quaternions(np.stack([haar_su2(random.Random(seed)) for seed in (31, 32, 33)]))

        def run():
            search = _Search(config)
            states = []
            for _ in range(config.max_depth):
                search.expand()
                if config.beam_width:
                    search.shrink_to_beam(search.frontier_errors(targets[:1])[:, 0])
                else:
                    search.frontier_min_errors(targets)
                states.append((search.frontier.copy(), search.trace[-1], search.distinct, search.explored))
            return states

        lazy = run()
        add_new = _Visited.add_new

        def eager(self, hashes, rows, store=True):  # merge right after each depth's run is added
            keep = add_new(self, hashes, rows, store)
            self.merge()
            return keep

        monkeypatch.setattr(_Visited, "add_new", eager)
        for (frontier, (parents, gens), distinct, explored), want in zip(run(), lazy, strict=True):
            assert np.array_equal(frontier, want[0])
            assert np.array_equal(parents, want[1][0]) and np.array_equal(gens, want[1][1])
            assert (distinct, explored) == want[2:]

    def test_the_last_depth_is_counted_not_stored(self):
        # no depth after max_depth looks up that one's keys: they count as distinct, and the runs
        # and prefilter are released before the last frontier is built
        search = _Search(SearchConfig(k=3, max_depth=6))
        counts, stored = [], []
        for _ in search.depths():
            counts.append(search.distinct)
            stored.append(sum(len(hashes) for hashes, _ in search.visited.runs))
        assert counts == [1, 5, 17, 49, 137, 375, 1019]
        assert stored == counts[:-1] + [0]
        assert search.visited.runs == [] and search.visited.prefilter is None
        assert len(search.frontier) == counts[-1] - counts[-2]
        # a batch added with storing off still counts its new keys, each once
        visited = _runs_from([np.array([[2, 1, 0, 0], [3, 1, 0, 0]], dtype=np.int32)])
        keys = np.array([[3, 1, 0, 0], [4, 1, 0, 0], [5, 1, 0, 0], [4, 1, 0, 0]], dtype=np.int32)
        rows = keys.view(_KEY_ROW)[:, 0]
        assert np.flatnonzero(visited.add_new(synth._key_hash(rows), rows, store=False)).tolist() == [1, 2]
        assert visited.size == 1 + 2 + 2 and visited.runs == [] and visited.prefilter is None

    def test_lookup_spans_several_runs(self):
        visited = _Visited(np.array([[1, 0, 0, 0]], dtype=np.int32).view(_KEY_ROW)[:, 0])
        batches = [np.array([[i, j, 0, 0] for j in range(1, 1 + size)], dtype=np.int32)
                   for i, size in enumerate((40, 12, 3), start=2)]
        for batch in batches:
            assert _add_new(visited, batch).tolist() == list(range(len(batch)))
            visited.merge()
        assert [len(h) for h, _ in visited.runs] == [1 + 40, 12, 3]  # (1, 40) folded; 41 > 2 * 12 > 2 * 3
        mixed = np.concatenate([batches[2][:2], [[99, 1, 0, 0]], batches[0][-1:], [[1, 0, 0, 0]], batches[1][:1],
                                [[99, 1, 0, 0]]])
        assert _add_new(visited, mixed).tolist() == [2]
        assert visited.size == 1 + 40 + 12 + 3 + 1


class TestCompactTrace:
    def test_beam_words_at_depth_40_match_the_reference(self, monkeypatch):
        config = SearchConfig(k=5, max_depth=40, beam_width=100)
        search = _Search(config)
        for _ in range(config.max_depth):
            search.expand()
            search.shrink_to_beam(search.frontier_errors(np.array([[0.6, 0.0, 0.8, 0.0]]))[:, 0])
        assert all(parents.dtype == np.int32 and gens.dtype == np.int8 for parents, gens in search.trace)
        for seed in (41, 42):
            target = haar_su2(random.Random(seed))
            new = synthesize(config, target)
            ref = _with_engine(monkeypatch, ReferenceSearch, lambda: synthesize(config, target))
            assert new.depths == ref.depths == list(range(41))
            assert new.best_words == ref.best_words

    def test_a_frontier_past_int32_indices_is_refused_before_it_is_built(self, monkeypatch):
        # the trace stores parents as int32, so the pre-allocation cap also bounds the states by its range
        monkeypatch.setattr(synth, "_MAX_STATES", 60)
        search = _Search(SearchConfig(k=3, max_states=10**9))
        assert search.expand() and search.expand()  # 1 + 4 + 12 visited, then 17 + 48 > 60
        assert search.distinct == 17 and not search.partial
        assert not search.expand() and search.partial and search.distinct == 17


class TestBacktracks:
    def test_backtracks_are_not_built(self, monkeypatch):
        built = []
        candidates = _Search._candidates

        def counted(self, moves):
            built.append((len(self.frontier), moves.size))  # one generator index per pair built
            return candidates(self, moves)

        monkeypatch.setattr(_Search, "_candidates", counted)
        search = _Search(SearchConfig(k=3))
        explored = [search.explored]
        for _ in range(5):
            search.expand()
            explored.append(search.explored)
        assert built[0] == (1, 4)
        assert all(n_built == 3 * n for n, n_built in built[1:])  # each state skips the inverse of its last move
        assert np.diff(explored).tolist() == [4 * n for n, _ in built]  # explored still counts every pair

    def test_a_full_search_keeps_no_backtracks(self):
        # at k = 6 some gates have two coordinates of equal magnitude, and rounding in the product
        # can order them either way; the key's sign is read from the rounded integers, so a search
        # that builds backtracks finds each at its grandparent's key, and skipping them drops nothing
        config = SearchConfig(k=6, max_depth=10)
        ref = ReferenceSearch(config)
        inverses = synth._INVERSE_PIECE
        for _ in range(config.max_depth):
            ref.expand()
            if len(ref.trace) >= 2:
                parents, gens = ref.trace[-1]
                assert not np.any(gens == inverses[ref.trace[-2][1][parents]])
        assert reachable_counts(config)[0][-1] == ref.distinct


class TestSurvivorPass:
    @pytest.mark.parametrize("config", [
        SearchConfig(k=3, max_depth=9),
        SearchConfig(k=5, max_depth=20, beam_width=300),
        SearchConfig(k=3, max_depth=20, max_states=5000),
    ], ids=["k3-exhaustive", "k5-beam", "k3-state-cap"])
    def test_every_depth_matches_the_one_pass_kernel(self, config):
        # the frontier is rebuilt from the trace after dedup; it must be the products the keys came from
        target = np.array([[0.6, 0.0, 0.8, 0.0]])
        search, ref = _Search(config), OnePassSearch(config)
        for _ in range(config.max_depth):
            expanded = search.expand()
            assert expanded == ref.expand()
            if not expanded:
                break
            assert np.array_equal(search.frontier, ref.frontier)
            (parents, gens), (ref_parents, ref_gens) = search.trace[-1], ref.trace[-1]
            assert parents.dtype == ref_parents.dtype and gens.dtype == ref_gens.dtype
            assert np.array_equal(parents, ref_parents) and np.array_equal(gens, ref_gens)
            assert (search.explored, search.distinct, search.closed) == (ref.explored, ref.distinct, ref.closed)
            if config.beam_width:
                for s in (search, ref):
                    s.shrink_to_beam(s.frontier_errors(target)[:, 0])
                assert np.array_equal(search.frontier, ref.frontier)
        assert search.partial == ref.partial == (config.max_states == 5000)
        if not (config.beam_width or search.partial):
            assert len(search.frontier) > _EXPAND_BLOCK  # the last depth was rebuilt in several blocks

    def test_profile_memory_holds_only_the_survivors(self):
        # tracemalloc's peak is deterministic: 16.9 MB while every candidate's product was kept
        # through dedup, 9.4 MB with the products of the survivors alone built after it
        tracemalloc.start()
        try:
            error_profile(SearchConfig(k=3, max_depth=11, seed=7), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestKeyPass:
    @pytest.mark.parametrize("config, depth", [
        (SearchConfig(k=3, max_depth=9), 9),
        (SearchConfig(k=5, max_depth=20, beam_width=10_000), 20),
    ], ids=["k3-exhaustive", "k5-beam"])
    def test_rows_rebuild_every_key_of_a_depth(self, config, depth):
        # the key pass keeps one 64-bit hash per candidate; the row view rebuilds each key, in any
        # order, bit for bit as the one-pass products key it
        target = np.array([[0.6, 0.0, 0.8, 0.0]])
        search = _Search(config)
        for _ in range(depth - 1):
            search.expand()
            search.shrink_to_beam(search.frontier_errors(target)[:, 0])
        moves = synth._NEXT_PIECES[search.trace[-1][1]]
        hashes = search._candidates(moves)
        assert hashes.dtype == np.uint64 and hashes.shape == (moves.size,) and moves.size > 3 * _EXPAND_BLOCK
        want = _canonical_grid_keys(_products(search.frontier, search.gens[moves]), config.dedup_resolution)
        rows = _CandidateKeys(search, moves)
        assert np.array_equal(_key_rows_as_ints(rows[np.arange(moves.size)]), want)
        assert np.array_equal(hashes, synth._key_hash(want.view(_KEY_ROW)[:, 0]))
        shuffled = np.random.default_rng(depth).permutation(moves.size)
        assert np.array_equal(_key_rows_as_ints(rows[shuffled]), want[shuffled])

    def test_the_key_pass_hashes_the_rows_of_the_one_builder(self, monkeypatch):
        # the key pass makes no key row of its own: a builder that perturbs every row it returns
        # changes every hash the key pass takes, across several blocks of parents
        search = _Search(SearchConfig(k=3, max_depth=9))
        for _ in range(8):
            search.expand()
        moves = synth._NEXT_PIECES[search.trace[-1][1]]
        parents, gens = np.repeat(np.arange(len(search.frontier)), moves.shape[1]), moves.ravel()
        key_rows = _Search._key_rows

        def perturbed(self, parents, gens):
            rows = key_rows(self, parents, gens).copy()
            _key_rows_as_ints(rows)[:, 0] += 1
            return rows

        monkeypatch.setattr(_Search, "_key_rows", perturbed)
        hashes = search._candidates(moves)
        assert len(search.frontier) > _EXPAND_BLOCK
        assert np.array_equal(hashes, synth._key_hash(perturbed(search, parents, gens)))
        assert not np.any(hashes == synth._key_hash(key_rows(search, parents, gens)))

    def test_profile_memory_budget(self):
        # tracemalloc's peak is deterministic: 21.4 MB with a 16-byte key row and an 8-byte hash per
        # candidate through dedup, 17.0 MB with the hash alone and the visited set released before
        # the last frontier is built
        tracemalloc.start()
        try:
            error_profile(SearchConfig(k=3, max_depth=12), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19.6e6


class TestLevelBlocks:
    def test_frontier_spanning_several_blocks_matches_the_reference(self):
        config = SearchConfig(k=5, max_depth=10)
        search, ref = _Search(config), ReferenceSearch(config)
        for _ in range(config.max_depth):
            n = len(search.frontier)
            search.expand()
            ref.expand()
            assert search.trace[-1][0].tolist() == ref.trace[-1][0].tolist()
            assert search.trace[-1][1].tolist() == ref.trace[-1][1].tolist()
            assert (search.explored, search.distinct) == (ref.explored, ref.distinct)
        assert n > 4 * _EXPAND_BLOCK  # the last depth took several blocks
        ref_q = _reference_quaternions(_reference_project_su2(ref.frontier))
        gap = np.minimum(np.abs(search.frontier - ref_q).max(axis=1), np.abs(search.frontier + ref_q).max(axis=1))
        assert gap.max() < 1e-12

    def test_grid_keys_break_magnitude_ties_on_the_first_coordinate(self):
        # the sign comes from the first nonzero rounded coordinate, whatever the magnitudes; a
        # coordinate that rounds to a signed zero is passed over
        h = 0.5
        q = np.array([[h, -h, h, -h], [-h, h, h, h], [0.0, -0.6, 0.0, 0.8], [0.0, 0.8, -0.6, 0.0],
                      [-0.6, 0.0, 0.8, 0.0], [0.0, 0.0, -1.0, 0.0], [-0.0, -0.6, 0.0, 0.8], [-1e-9, 0.6, 0.0, -0.8]])
        lead = np.take_along_axis(q, np.argmax(np.rint(q / 1e-6) != 0, axis=1)[:, None], axis=1)
        want = np.rint(np.where(lead < 0, -q, q) / 1e-6).astype(np.int32)
        assert np.array_equal(_canonical_grid_keys(q, 1e-6), want)
        assert _canonical_grid_keys(q, 1e-6).tolist() == [
            [500000, -500000, 500000, -500000], [500000, -500000, -500000, -500000], [0, 600000, 0, -800000],
            [0, 800000, -600000, 0], [600000, 0, -800000, 0], [0, 0, 1000000, 0], [0, 600000, 0, -800000],
            [0, 600000, 0, -800000]]

    def test_a_one_ulp_magnitude_tie_gets_one_key(self):
        # which of two equal-magnitude coordinates comes out larger is float noise; the key's
        # sign is read from the rounded integers, so it cannot follow that noise
        h = 0.5
        q = np.array([[h, -h, h, h], [h, np.nextafter(-h, -1.0), h, h], [-h, h, -h, -h]])
        keys = _canonical_grid_keys(q, 1e-6)
        assert keys.tolist() == [[500000, -500000, 500000, 500000]] * 3
        # the key pass, each row times the identity, hashes the same keys, and its rows rebuild them
        search, moves = _kernel_search(q, np.array([[1.0, 0.0, 0.0, 0.0]])), np.zeros((3, 1), dtype=np.int8)
        rows = _CandidateKeys(search, moves)[np.arange(3)]
        assert np.array_equal(_key_rows_as_ints(rows), keys)
        assert np.array_equal(search._candidates(moves), synth._key_hash(rows))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        # integer rows on a grid of 1/4: zeros, signed zeros and coordinates tied in magnitude
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0]), min_size=4, max_size=4)
        .map(lambda v: np.array(v) / 4),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v)),
    ), min_size=1, max_size=10), st.sampled_from([0.25, 1e-6]))
    def test_first_nonzero_sign_keys_equal_as_the_largest_coordinate_keys(self, rows, resolution):
        # both rules pick one of each pair {v, -v} of rounded rows, so they make the same keys equal
        q = np.stack(rows)
        q = np.concatenate([q, -q, q[::-1]])
        new = _canonical_grid_keys(q, resolution)
        ref = _reference_grid_keys(_matrices(q), resolution)
        assert np.array_equal((new[:, None] == new[None]).all(axis=2), (ref[:, None] == ref[None]).all(axis=2))
        assert np.all((new == ref).all(axis=1) | (new == -ref).all(axis=1))

    def test_products_and_keys_match_row_products(self):
        rng = np.random.default_rng(5)
        qx = rng.normal(size=(37, 4))
        qx /= np.linalg.norm(qx, axis=1)[:, None]
        gens = _su2_quaternions(double_braid_generators(7))
        search = _kernel_search(qx, gens)
        moves = np.tile(np.arange(len(gens), dtype=np.int8), (len(qx), 1))
        parents = np.repeat(np.arange(len(qx)), len(gens))
        products = np.stack(search._products(parents, moves.ravel()), axis=1)
        rows = _CandidateKeys(search, moves)[np.arange(moves.size)]
        assert np.array_equal(search._candidates(moves), synth._key_hash(rows))
        keys = _key_rows_as_ints(rows)
        for row, (x, y) in enumerate((x, y) for x in qx for y in gens):
            a = complex(x[0], x[1]) * complex(y[0], y[1]) - complex(x[2], x[3]) * complex(y[2], -y[3])
            b = complex(x[0], x[1]) * complex(y[2], y[3]) + complex(x[2], x[3]) * complex(y[0], -y[1])
            assert products[row] == pytest.approx([a.real, a.imag, b.real, b.imag], abs=1e-15)
        assert np.array_equal(products, _products(qx, gens))  # the one-pass expression's bits
        assert np.array_equal(keys, _canonical_grid_keys(products, 1e-6))
        # each X row with its own Y rows gives the same bits as the shared product's matching rows,
        # and so does any subset of the pairs in any order, as the survivor pass takes them
        picks = rng.integers(0, len(gens), size=(len(qx), 3))
        at = (np.arange(len(qx))[:, None] * len(gens) + picks).ravel()
        picked = picks.astype(np.int8)
        assert np.array_equal(search._candidates(picked), synth._key_hash(keys[at].copy().view(_KEY_ROW)[:, 0]))
        assert np.array_equal(_key_rows_as_ints(_CandidateKeys(search, picked)[np.arange(picked.size)]), keys[at])
        at = rng.permutation(at)
        assert np.array_equal(np.stack(search._products(parents[at], moves.ravel()[at]), axis=1), products[at])


class TestBeamSelection:
    @pytest.mark.parametrize("width", [1, 3, 5, 7, 9, 11])
    def test_ties_at_the_cut_keep_the_lowest_indices(self, width):
        search = _Search(SearchConfig(k=3, beam_width=width))
        for _ in range(2):
            search.expand()
        pattern = [0.3, 0.1, 0.2, 0.1, 0.2, 0.2, 0.0, 0.2, 0.3, 0.1, 0.2, 0.0]
        errors = np.resize(pattern, len(search.frontier))
        assert len(errors) > width
        want = np.sort(np.argsort(errors, kind="stable")[:width])
        parents, gens = search.trace[-1]
        frontier = search.frontier
        kept = search.shrink_to_beam(errors)
        assert np.array_equal(kept, errors[want])
        assert np.array_equal(search.frontier, frontier[want])
        assert np.array_equal(search.trace[-1][0], parents[want]) and np.array_equal(search.trace[-1][1], gens[want])

    def test_random_errors_match_a_stable_sort(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(2, 400))
            width = int(rng.integers(1, n))
            errors = rng.integers(0, 6, n) / 8.0  # many ties
            search = _Search(SearchConfig(k=3, beam_width=width))
            search.frontier = rng.normal(size=(n, 4))
            search.trace = [(np.arange(n), np.zeros(n, dtype=np.intp))]
            want = np.sort(np.argsort(errors, kind="stable")[:width])
            assert np.array_equal(search.shrink_to_beam(errors), errors[want])
            assert np.array_equal(search.trace[-1][0], want)

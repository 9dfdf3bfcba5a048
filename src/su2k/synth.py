"""Breadth-first search over double-braid words approximating one-qubit targets.

The generator set is the four double-braidings s1^{+-2}, s2^{+-2} in the
determinant-one qubit representation, so every search state is a unit
quaternion, kept as the real row (Re a, Im a, Re b, Im b) of the SU(2) gate
[[a, b], [-b*, a*]].  A depth's products are sixteen real multiplies per
candidate, and the projective distance to a target reads off the overlap
|q_U . q_V| = |tr(U^dag V)| / 2; both are fixed-order element-wise NumPy
expressions, so results do not depend on BLAS or on block sizes.

States are deduplicated on a grid over the quaternion coordinates with the
sign fixed by the largest one.  The resolution must lie below 1 (the
coordinates lie in [-1, 1]) and leave a unit coordinate within the int32
key range, or distinct states would share a key.  Dedup is
vectorized and exact: a depth's keys are sorted by a 64-bit hash, and both
repeats within the depth and hits in the visited set are confirmed on the
full key, so a hash collision never merges two states; the first occurrence
in candidate order (parent-major, generator-minor) is kept.  The visited set
is a few runs sorted by hash, merged geometrically in linear time, so a
depth costs O(new log n) rather than a pass over every visited key; a
depth's run is merged when the next depth is built, so the last one never
is.  The inverse of the
move that reached a state returns its parent, which is visited, and the
generator set is closed under inverses, so the backtrack is never built;
`explored` still counts every (state, generator) pair of an expanded depth.
A depth's products, keys and hashes are built in cache-sized blocks of
parents, and the trace keeps 5 bytes per state (an int32 parent and an int8
generator).  This makes exhaustive
breadth-first enumeration feasible to the depths of interest; a beam mode
bounds the frontier for deeper runs, and a state cap stops either one,
flagging the result partial.

For levels whose double-braid image is dense the per-depth best error decays
with depth; for the finite-image levels the set of distinct reachable gates
closes up and errors plateau.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .braids import BraidWord, normalized_qubit_rep
from .errors import DomainError

_DOUBLE_BRAID_PIECES = ((1, 2), (1, -2), (2, 2), (2, -2))
_INVERSE_PIECE = np.array([_DOUBLE_BRAID_PIECES.index((i, -e)) for i, e in _DOUBLE_BRAID_PIECES])
# the pieces that may follow each piece: all but its inverse, which would return to the parent
_NEXT_PIECES = np.array([[g for g in range(len(_DOUBLE_BRAID_PIECES)) if g != inverse] for inverse in _INVERSE_PIECE],
                        dtype=np.int8)
_KEY_DTYPE = np.int32  # grid-key integers: a unit coordinate over the resolution must fit
_MAX_STATES = np.iinfo(np.int32).max  # the trace stores each state's parent index as an int32
MAX_PROFILE_SAMPLES = 1 << 22  # about 460 B of peak memory per profile target: 1.9 GB, within 2 GiB


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of a double-braid synthesis run over s1^{+-2}, s2^{+-2}."""

    k: int
    max_depth: int = 10
    beam_width: int = 0  # 0 = exhaustive
    tolerance: float = 1e-9
    dedup_resolution: float = 1e-6
    max_states: int = 2_000_000
    seed: int = 20240301

    def __post_init__(self):
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.beam_width < 0:
            raise DomainError(f"beam width must be >= 0 (0 = exhaustive), got {self.beam_width}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise DomainError(f"tolerance must be a positive finite number, got {self.tolerance}")
        if not 0 < self.dedup_resolution < 1:
            # quaternion coordinates lie in [-1, 1]: a cell of 1 or more merges distinct states
            raise DomainError(f"dedup resolution must lie strictly between 0 and 1, got {self.dedup_resolution}")
        if not 1.0 / self.dedup_resolution < np.iinfo(_KEY_DTYPE).max:
            raise DomainError(
                f"dedup resolution {self.dedup_resolution} is too fine: a unit coordinate over it "
                f"must fit the grid key integers (resolution >= {1.0 / np.iinfo(_KEY_DTYPE).max:.3g})"
            )
        if self.max_states < 1:
            raise DomainError(f"max_states must be >= 1, got {self.max_states}")


@dataclass
class SynthResult:
    """Per-depth best projective approximations of one target, with the search's cumulative counts."""

    k: int
    depths: list[int] = field(default_factory=list)
    best_errors: list[float] = field(default_factory=list)
    best_words: list[str] = field(default_factory=list)
    explored_counts: list[int] = field(default_factory=list)  # (state, generator) pairs after each depth
    distinct_counts: list[int] = field(default_factory=list)  # visited states after each depth
    partial: bool = False

    @property
    def best_error(self) -> float:
        return self.best_errors[-1]

    @property
    def best_word(self) -> str:
        return self.best_words[-1]

    @property
    def explored(self) -> int:
        return self.explored_counts[-1]

    @property
    def distinct(self) -> int:
        return self.distinct_counts[-1]


_DISTANCE_BLOCK = 1 << 12  # frontier rows per block: the overlap temporaries stay in cache
_DISTANCE_CELLS = 20 * _DISTANCE_BLOCK  # frontier x target cells per block: fewer rows for many targets
_EXPAND_BLOCK = 1 << 12  # parents per block of a depth's products, keys and hashes: they stay in cache
_CHORD_GAP = 1e-8  # below this 1 - |q_U . q_V|, its square root has lost half its digits to cancellation
_CHORD_ROUNDING = 4 * np.finfo(float).eps  # a chord this small is rounding in its coordinates


def _overlaps(qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """|q_U . q_V| = |tr(U^dag V)| / 2 for SU(2) quaternion rows; one row per U, one column per V.

    A fixed-order element-wise sum, not a BLAS product, so every entry is
    independent of the block shape and of the BLAS thread count.
    """
    u, v = qu.T.copy(), qv.T.copy()  # four contiguous columns each
    dot = u[0, :, None] * v[0]
    for c in range(1, 4):
        dot += u[c, :, None] * v[c]
    return np.abs(dot, out=dot)


def _chords(qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """The quaternion chord min(|q_U - q_V|, |q_U + q_V|) / sqrt(2) of paired rows (rounding reads 0)."""
    chord = np.minimum(np.linalg.norm(qu - qv, axis=1), np.linalg.norm(qu + qv, axis=1)) / math.sqrt(2)
    chord[chord < _CHORD_ROUNDING] = 0.0
    return chord


def _distances(qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """Projective distances d(U, V) = sqrt(1 - |q_U . q_V|), one row per U, one column per V.

    Near zero the square root amplifies the rounding of the overlap (a gap of
    1e-16 reads as 1e-8), so gaps below _CHORD_GAP take the equal quaternion
    chord, which has no cancellation.  Chords within the rounding of the
    quaternion coordinates (a few ulps) report as zero.
    """
    gaps = 1.0 - np.minimum(_overlaps(qu, qv), 1.0)
    rows, cols = np.nonzero(gaps < _CHORD_GAP)
    out = np.sqrt(gaps)
    if len(rows):
        out[rows, cols] = _chords(qu[rows], qv[cols])
    return out


def _is_unitary2(m: np.ndarray) -> bool:
    """m is a 2x2 unitary within 1e-9; a NaN or infinite entry makes the deviation NaN, which fails."""
    if m.shape != (2, 2):
        return False
    with np.errstate(all="ignore"):
        return bool(np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-9)


def projective_distance(u: np.ndarray, v: np.ndarray) -> float:
    """d(U, V) = sqrt(1 - |tr(U^dag V)| / 2); zero iff U = phase * V."""
    for name, m in (("first", u), ("second", v)):
        if not _is_unitary2(m):
            raise DomainError(f"{name} argument is not a 2x2 unitary")
    return float(_distances(_su2_quaternions(u[None]), _su2_quaternions(v[None]))[0, 0])


def haar_su2(rng: random.Random) -> np.ndarray:
    """One Haar-distributed SU(2) element (subgroup-algorithm construction)."""
    alpha = 2 * math.pi * rng.random()
    beta = 2 * math.pi * rng.random()
    theta = math.asin(math.sqrt(rng.random()))
    return np.array(
        [
            [cmath_exp(alpha) * math.cos(theta), cmath_exp(beta) * math.sin(theta)],
            [-cmath_exp(-beta) * math.sin(theta), cmath_exp(-alpha) * math.cos(theta)],
        ]
    )


def cmath_exp(phase: float) -> complex:
    return complex(math.cos(phase), math.sin(phase))


def double_braid_generators(k: int) -> tuple[np.ndarray, list[str]]:
    """The four double-braiding matrices s1^{+-2}, s2^{+-2}, stacked, with their names."""
    s1, s2 = normalized_qubit_rep(k)
    base = {1: s1, 2: s2}
    mats = []
    for index, exponent in _DOUBLE_BRAID_PIECES:
        gen = base[index] if exponent > 0 else base[index].conj().T
        mats.append(np.linalg.matrix_power(gen, abs(exponent)))
    return np.stack(mats), [f"s{i}^{e}" for i, e in _DOUBLE_BRAID_PIECES]


def _su2_quaternions(batch: np.ndarray) -> np.ndarray:
    """Coordinates (Re a, Im a, Re b, Im b) of unitaries, one row each, after dividing out the
    determinant phase so that each is an SU(2) gate [[a, b], [-b*, a*]]."""
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    batch = batch / np.sqrt(det)[:, None, None]
    alpha = (batch[:, 0, 0] + np.conj(batch[:, 1, 1])) / 2
    beta = (batch[:, 0, 1] - np.conj(batch[:, 1, 0])) / 2
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)


def _put_grid_keys(coords: tuple[np.ndarray, ...], resolution: float, keys: np.ndarray) -> None:
    """Write each gate's grid key into its row of `keys`: the coordinates rounded to the grid, negated
    where the rounded one largest in magnitude (the first on ties) is negative.

    Read from the integers, the sign fixes q and -q alike and cannot follow
    float noise between coordinates of equal magnitude.  A unit quaternion's
    largest coordinate is at least 1/2 in magnitude, so on a grid finer than
    1 the lead is never 0.
    """
    rounded = [np.rint(r, out=r) for r in (c / resolution for c in coords)]
    m0, m1, m2, m3 = (np.abs(r) for r in rounded)
    lead = np.where(np.maximum(m2, m3) > np.maximum(m0, m1),
                    np.where(m3 > m2, rounded[3], rounded[2]), np.where(m1 > m0, rounded[1], rounded[0]))
    sign = np.copysign(1.0, lead)
    for c, r in enumerate(rounded):
        np.multiply(r, sign, out=keys[:, c], casting="unsafe")


def _canonical_grid_keys(q: np.ndarray, resolution: float) -> np.ndarray:
    """The grid key of each quaternion row (see _put_grid_keys), one row per gate."""
    keys = np.empty((len(q), 4), dtype=_KEY_DTYPE)
    _put_grid_keys(tuple(q.T), resolution, keys)
    return keys


def _products_and_keys(qx: np.ndarray, qy: np.ndarray, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Quaternion coordinates of X Y for every X row and each of its m Y rows, X-major (row x * m + j),
    and their canonical grid keys.

    `qy` is (len(qx), m, 4), the Y rows of each X, or (m, 4), the same Y rows
    for every X.  With X = [[a1, b1], [-b1*, a1*]] and Y likewise, X Y has
    a = a1 a2 - b1 b2* and b = a1 b2 + b1 a2*: sixteen real products per
    pair, in a fixed order.  Each j is one pass over the X coordinates as
    contiguous columns, which yields the product's coordinates as columns
    for its keys too.
    """
    x0, x1, x2, x3 = qx.T.copy()
    ys = np.broadcast_to(qy, (len(qx), *qy.shape[-2:]))
    products = np.empty(ys.shape)
    keys = np.empty(ys.shape, dtype=_KEY_DTYPE)
    for j in range(ys.shape[1]):
        y0, y1, y2, y3 = ys[:, j].T.copy()
        coords = (x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                  x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
                  x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
                  x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0)
        for c, coord in enumerate(coords):
            products[:, j, c] = coord
        _put_grid_keys(coords, resolution, keys[:, j])
    return products.reshape(-1, 4), keys.reshape(-1, 4)


_KEY_ROW = np.dtype((np.void, 4 * np.dtype(_KEY_DTYPE).itemsize))  # one key row as one element


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place: every input bit reaches every output bit."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _key_hash(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each key row; equal rows hash equal, and only that is relied on."""
    words = rows.view(np.uint64).reshape(-1, 2)
    return _mix(_mix(words[:, 0].copy()) ^ words[:, 1])


class _Visited:
    """The visited grid keys: a few runs, each sorted by key hash, with the key rows alongside.

    A depth's new keys are appended as one run, already in hash order, and
    :meth:`merge`, called before the next depth is built, folds each run into
    the one before it until every run is over twice the size of the next.
    So there are O(log n) runs, a depth's lookups cost O(new log n) and each
    key is copied O(log n) times in all, not once per depth.  A key is
    visited iff some run holds it; a hash hit names the first row of that
    run with the hash, and a different key there sends the batch to the
    exact sort, so membership is decided on the full key.
    """

    def __init__(self, rows: np.ndarray):
        self.runs = [(_key_hash(rows), rows)]
        self.size = len(rows)

    def add_new(self, hashes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The mask of the key rows neither visited nor seen earlier in `rows`; adds them as a run.

        Sorting by hash puts equal keys in one run of hashes, whose smallest
        index is their first occurrence, and each visited run is searched for
        those hashes.  Both are confirmed on the full key; if a run of equal
        hashes mixes keys or a visited hash names another key (a collision),
        the exact sort decides instead.
        """
        order = np.argsort(hashes)
        sorted_hashes = hashes[order]
        repeats = np.flatnonzero(sorted_hashes[1:] == sorted_hashes[:-1]) + 1
        collided = bool((rows[order[repeats - 1]] != rows[order[repeats]]).any())
        lead = np.ones(len(order), dtype=bool)
        lead[repeats] = False
        starts = np.flatnonzero(lead)
        firsts, first_hashes = order[starts], sorted_hashes[starts]
        # argsort is not stable, so a group with repeats takes its smallest index; the repeat at
        # sorted position repeats[j] lies in group repeats[j] - j - 1
        np.minimum.at(firsts, repeats - np.arange(1, len(repeats) + 1), order[repeats])
        new = np.ones(len(firsts), dtype=bool)
        for run_hashes, run_rows in self.runs:
            if collided:
                break
            at = np.minimum(np.searchsorted(run_hashes, first_hashes), len(run_hashes) - 1)
            hits = np.flatnonzero(run_hashes[at] == first_hashes)
            collided = not np.array_equal(run_rows[at[hits]], rows[firsts[hits]])
            new[hits] = False
        fresh = self._add_new_exact(hashes, rows) if collided else firsts[new]
        if len(fresh):
            self.runs.append((hashes[fresh], rows[fresh]))
            self.size += len(fresh)
        keep = np.zeros(len(rows), dtype=bool)
        keep[fresh] = True
        return keep

    def _add_new_exact(self, hashes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The first occurrences of unvisited keys, in hash order, from one stable (hash, key) sort.

        Visited rows precede the candidates, which keep their index order, so
        each group of equal keys is led by its visited row if it has one and
        otherwise by its first occurrence.
        """
        all_hashes = np.concatenate([run_hashes for run_hashes, _ in self.runs] + [hashes])
        all_rows = np.concatenate([run_rows for _, run_rows in self.runs] + [rows])
        words = all_rows.view(np.uint64).reshape(-1, 2)
        order = np.lexsort((words[:, 1], words[:, 0], all_hashes))
        sorted_rows = all_rows[order]
        lead = np.ones(len(order), dtype=bool)
        lead[1:] = sorted_rows[1:] != sorted_rows[:-1]
        leads = order[lead]
        return leads[leads >= self.size] - self.size

    def merge(self) -> None:
        """Fold the last run into the one before it while that one is at most twice its size.

        The two runs are concatenated and put in order by one stable argsort
        of their hashes, which finds the two sorted runs and merges them in
        linear time; the rows follow their hashes.
        """
        runs = self.runs
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            (small_hashes, small_rows), (big_hashes, big_rows) = runs.pop(), runs.pop()
            hashes = np.concatenate([big_hashes, small_hashes])
            rows = np.concatenate([big_rows, small_rows])
            del small_hashes, small_rows, big_hashes, big_rows  # only the merged run's arrays stay alive
            order = np.argsort(hashes, kind="stable")
            runs.append((hashes[order], rows[order]))


class _Search:
    """Shared breadth-first engine; expands once, scores any number of targets.

    Every state is a unit quaternion row (Re a, Im a, Re b, Im b), and the
    visited grid keys are a :class:`_Visited` set of hash-sorted runs.  A
    state's backtrack, the inverse of the move that reached it, returns its
    parent, which is visited, so that candidate is never built; `explored`
    still counts every (state, generator) pair of each expanded depth.
    """

    def __init__(self, config: SearchConfig):
        self.config = config
        gens, _ = double_braid_generators(config.k)
        self.gens = _su2_quaternions(gens)
        self.frontier = np.array([[1.0, 0.0, 0.0, 0.0]])
        self.trace: list[tuple[np.ndarray, np.ndarray]] = []  # (int32 parents, int8 gen indices)
        self.visited = _Visited(_canonical_grid_keys(self.frontier, config.dedup_resolution).view(_KEY_ROW)[:, 0])
        self.explored = 1
        self.partial = False
        self.closed = False

    @property
    def distinct(self) -> int:
        return self.visited.size

    def depths(self):
        """Yield 0, then expand and yield each depth in turn; the one stop rule of every search.

        Expansion stops at max_depth, on closure (a depth with no new state,
        which is still yielded), or when the next depth could pass the state
        cap (the run is then partial).  A caller may stop early by leaving
        the loop; the next depth is built only when asked for.
        """
        yield 0
        for depth in range(1, self.config.max_depth + 1):
            if self.closed or not self.expand():
                return
            yield depth

    def expand(self) -> bool:
        """Advance one depth; False, with nothing built, if it could pass the state cap.

        Every candidate of the level may be new, so the cap, and the int32
        range of the trace's parent indices, are checked against that bound
        before the level is allocated.  The run is then flagged partial, and
        the last depth reported is the last one expanded.
        """
        n_gens = len(self.gens)
        if self.distinct + len(self.frontier) * n_gens > min(self.config.max_states, _MAX_STATES):
            self.partial = True
            return False
        self.explored += len(self.frontier) * n_gens
        self.visited.merge()  # the last depth's run, before this depth's arrays are allocated
        # the generators to apply to each state, ascending: all but its backtrack after depth 1
        moves = _NEXT_PIECES[self.trace[-1][1]] if self.trace else np.arange(n_gens, dtype=np.int8)[None]
        candidates, rows, hashes = self._candidates(moves)
        keep = self.visited.add_new(hashes, rows)
        self.frontier = np.compress(keep, candidates, axis=0)  # candidates[keep], about 4x faster
        kept = np.flatnonzero(keep)
        self.trace.append(((kept // moves.shape[1]).astype(np.int32), moves.ravel()[kept]))
        if len(self.frontier) == 0:
            self.closed = True
        return True

    def _candidates(self, moves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Products, grid key rows and key hashes of each frontier state times each of its `moves`
        generators, parent-major.

        The depth's arrays are allocated once and filled in blocks of
        _EXPAND_BLOCK parents, so that a block's temporaries stay in cache.
        """
        products = np.empty((moves.size, 4))
        keys = np.empty((moves.size, 4), dtype=_KEY_DTYPE)
        rows = keys.view(_KEY_ROW)[:, 0]
        hashes = np.empty(moves.size, dtype=np.uint64)
        for start in range(0, len(self.frontier), _EXPAND_BLOCK):
            stop = start + _EXPAND_BLOCK
            block = slice(start * moves.shape[1], stop * moves.shape[1])
            products[block], keys[block] = _products_and_keys(self.frontier[start:stop], self.gens[moves[start:stop]],
                                                              self.config.dedup_resolution)
            hashes[block] = _key_hash(rows[block])
        return products, rows, hashes

    def shrink_to_beam(self, errors: np.ndarray) -> np.ndarray:
        """Keep the beam_width best frontier states (stable order); returns the kept errors."""
        width = self.config.beam_width
        if width <= 0 or len(self.frontier) <= width:
            return errors
        # the errors below the width-th smallest, then the lowest-index ties with it: a stable
        # argsort's first `width`, in index order, without the sort
        cut = np.partition(errors, width - 1)[width - 1]
        keep = errors < cut
        keep[np.flatnonzero(errors == cut)[:width - np.count_nonzero(keep)]] = True
        order = np.flatnonzero(keep)
        parents, gens = self.trace[-1]
        self.trace[-1] = (parents[order], gens[order])
        self.frontier = self.frontier[order]
        return errors[order]

    def word_of(self, depth: int, index: int) -> str:
        """Reconstruct the word for frontier state `index` at 1-based `depth`."""
        moves: list[tuple[int, int]] = []
        for level in range(depth - 1, -1, -1):
            parents, gens = self.trace[level]
            i, e = _DOUBLE_BRAID_PIECES[gens[index]]
            if moves and moves[-1][0] == i:  # never a backtrack, so the exponent never cancels
                e += moves.pop()[1]
            moves.append((i, e))
            index = parents[index]
        return str(BraidWord(tuple(reversed(moves))))  # the empty word prints as ""

    def _scoring_blocks(self, n_targets: int):
        """Frontier slices of up to _DISTANCE_BLOCK rows and _DISTANCE_CELLS cells (one row at least)."""
        rows = max(1, min(_DISTANCE_BLOCK, _DISTANCE_CELLS // n_targets))
        return (slice(start, start + rows) for start in range(0, len(self.frontier), rows))

    def frontier_errors(self, targets: np.ndarray) -> np.ndarray:
        """Projective distances frontier x quaternion targets, vectorized over blocks of frontier rows."""
        out = np.empty((len(self.frontier), len(targets)))
        for block in self._scoring_blocks(len(targets)):
            out[block] = _distances(self.frontier[block], targets)
        return out

    def frontier_min_errors(self, targets: np.ndarray) -> np.ndarray:
        """Per-target minimum of :meth:`frontier_errors`, without the whole matrix (inf if empty).

        Each block reduces to a per-target maximum overlap, and one square
        root of the gap follows at the end; sqrt is monotone, so that is the
        minimum distance.  Entries in the chord branch are set aside and
        their chords minimized apart.
        """
        top = np.full(len(targets), -np.inf)
        chord = np.full(len(targets), np.inf)
        for part in self._scoring_blocks(len(targets)):
            block = self.frontier[part]
            overlaps = _overlaps(targets, block)  # one row per target: the reductions run along rows
            block_top = overlaps.max(axis=1)
            near = np.flatnonzero(1.0 - np.minimum(block_top, 1.0) < _CHORD_GAP)
            if len(near):
                sub = overlaps[near]
                which, rows = np.nonzero(1.0 - np.minimum(sub, 1.0) < _CHORD_GAP)
                np.minimum.at(chord, near[which], _chords(block[rows], targets[near[which]]))
                sub[which, rows] = -np.inf
                block_top[near] = sub.max(axis=1)
            top = np.maximum(top, block_top)
        return np.minimum(np.sqrt(1.0 - np.minimum(top, 1.0)), chord)


def synthesize(config: SearchConfig, target: np.ndarray) -> SynthResult:
    """Best double-braid approximations of `target` per depth.

    Deterministic given the configuration.  The per-depth best error is
    non-increasing; the search stops early on an exact hit (within the
    configured tolerance), on group closure, or at the state cap (the result
    is then flagged partial).
    """
    target = np.asarray(target, dtype=complex)
    if not _is_unitary2(target):
        raise DomainError("synthesis target must be a 2x2 unitary")
    target_q = _su2_quaternions(target[None])
    search = _Search(config)
    result = SynthResult(config.k)
    best_error, best_word = math.inf, ""
    for depth in search.depths():
        if len(search.frontier):
            errors = search.shrink_to_beam(search.frontier_errors(target_q)[:, 0])
            arg = int(np.argmin(errors))
            if errors[arg] < best_error - 1e-15:
                best_error = float(errors[arg])
                best_word = search.word_of(depth, arg)
        result.depths.append(depth)
        result.best_errors.append(best_error)
        result.best_words.append(best_word)
        result.explored_counts.append(search.explored)
        result.distinct_counts.append(search.distinct)
        if best_error <= config.tolerance:
            break
    result.partial = search.partial
    return result


@dataclass
class ProfileRow:
    depth: int
    explored: int
    distinct: int
    best_error: float
    mean_error: float
    max_error: float
    partial: bool = False  # the state cap stopped the run after this row


def error_profile(config: SearchConfig, sample: int) -> list[ProfileRow]:
    """Per-depth best-error statistics over seeded Haar-random targets.

    One shared exhaustive expansion serves every target; the table reports
    the minimum / mean / maximum over targets of each target's best error so
    far.  Deterministic for a fixed seed.  If the state cap stops the run,
    the last row is flagged partial.  A sample above MAX_PROFILE_SAMPLES is
    refused before any target is drawn.
    """
    if not 1 <= sample <= MAX_PROFILE_SAMPLES:
        raise DomainError(f"need between 1 and {MAX_PROFILE_SAMPLES} sample targets, got {sample}")
    rng = random.Random(config.seed)
    targets = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(sample)]))
    search = _Search(config)
    best = np.full(sample, np.inf)
    rows = []
    for depth in search.depths():
        best = np.minimum(best, search.frontier_min_errors(targets))
        rows.append(ProfileRow(depth, search.explored, search.distinct,
                               float(best.min()), float(best.mean()), float(best.max())))
    rows[-1].partial = search.partial
    return rows


def reachable_counts(config: SearchConfig) -> tuple[list[int], bool]:
    """Distinct projective gates per depth; the flag reports closure.

    A finite double-braid image closes up (no new gates appear at some
    depth); a dense one keeps growing through any tested range.
    """
    search = _Search(config)
    counts = [search.distinct for _ in search.depths()]
    return counts, search.closed

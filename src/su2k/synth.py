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
vectorized and exact: keys are sorted by a 64-bit hash, and both repeats
within a depth and hits in the sorted visited set are confirmed on the full
key, so a hash collision never merges two states; the first occurrence in
candidate order is kept.  This makes exhaustive breadth-first enumeration
feasible to the depths of interest; a beam mode bounds the frontier for
deeper runs, and a state cap stops either one, flagging the result partial.

For levels whose double-braid image is dense the per-depth best error decays
with depth; for the finite-image levels the set of distinct reachable gates
closes up and errors plateau.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .braids import BraidWord, normalized_qubit_rep
from .errors import DomainError

_DOUBLE_BRAID_PIECES = ((1, 2), (1, -2), (2, 2), (2, -2))
_KEY_DTYPE = np.int32  # grid-key integers: a unit coordinate over the resolution must fit


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of a double-braid synthesis run.

    The generator set defaults to the four double-braidings s1^{+-2},
    s2^{+-2}; any replacement must consist of even-exponent pieces.
    """

    k: int
    max_depth: int = 10
    beam_width: int = 0  # 0 = exhaustive
    tolerance: float = 1e-9
    dedup_resolution: float = 1e-6
    max_states: int = 2_000_000
    seed: int = 20240301
    generators: tuple[tuple[int, int], ...] = _DOUBLE_BRAID_PIECES

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
        if not self.generators:
            raise DomainError("the generator set cannot be empty")
        for index, exponent in self.generators:
            if index not in (1, 2):
                raise DomainError(f"generator index must be 1 or 2 on the qubit, got {index}")
            if exponent == 0 or exponent % 2:
                raise DomainError("synthesis generators must be even-exponent (double-braid) words")


@dataclass
class SynthResult:
    """Per-depth best projective approximations of one target."""

    k: int
    target: np.ndarray
    depths: list[int] = field(default_factory=list)
    best_errors: list[float] = field(default_factory=list)
    best_words: list[str] = field(default_factory=list)
    explored: int = 0
    distinct: int = 0
    wall_time: float = 0.0
    partial: bool = False

    @property
    def best_error(self) -> float:
        return self.best_errors[-1]

    @property
    def best_word(self) -> str:
        return self.best_words[-1]


_DISTANCE_BLOCK = 1 << 15  # frontier rows per block: the overlap temporaries stay ~10 MB
_CHORD_GAP = 1e-8  # below this 1 - |q_U . q_V|, its square root has lost half its digits to cancellation
_CHORD_ROUNDING = 4 * np.finfo(float).eps  # a chord this small is rounding in its coordinates


def _overlaps(qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """|q_U . q_V| = |tr(U^dag V)| / 2 for SU(2) quaternion rows; one row per U, one column per V.

    A fixed-order element-wise sum, not a BLAS product, so every entry is
    independent of the block shape and of the BLAS thread count.
    """
    dot = qu[:, 0, None] * qv[:, 0]
    for c in range(1, 4):
        dot += qu[:, c, None] * qv[:, c]
    return np.abs(dot)


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


def double_braid_generators(
    k: int, pieces: tuple[tuple[int, int], ...] = _DOUBLE_BRAID_PIECES
) -> tuple[np.ndarray, list[str]]:
    """Generator matrices for the given word pieces, stacked, with their names."""
    s1, s2 = normalized_qubit_rep(k)
    base = {1: s1, 2: s2}
    mats = []
    for index, exponent in pieces:
        gen = base[index] if exponent > 0 else base[index].conj().T
        mats.append(np.linalg.matrix_power(gen, abs(exponent)))
    return np.stack(mats), [f"s{i}^{e}" for i, e in pieces]


def _su2_quaternions(batch: np.ndarray) -> np.ndarray:
    """Coordinates (Re a, Im a, Re b, Im b) of unitaries, one row each, after dividing out the
    determinant phase so that each is an SU(2) gate [[a, b], [-b*, a*]]."""
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    batch = batch / np.sqrt(det)[:, None, None]
    alpha = (batch[:, 0, 0] + np.conj(batch[:, 1, 1])) / 2
    beta = (batch[:, 0, 1] - np.conj(batch[:, 1, 0])) / 2
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)


def _products(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Quaternion coordinates of X Y for every X row and Y row, X-major: row x * len(qy) + y.

    With X = [[a1, b1], [-b1*, a1*]] and Y likewise, X Y has a = a1 a2 - b1 b2*
    and b = a1 b2 + b1 a2*: sixteen real products per pair, in a fixed order.
    """
    x0, x1, x2, x3 = (qx[:, c, None] for c in range(4))
    y0, y1, y2, y3 = qy.T
    out = np.empty((len(qx), len(qy), 4))
    out[:, :, 0] = x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3
    out[:, :, 1] = x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2
    out[:, :, 2] = x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1
    out[:, :, 3] = x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0
    return out.reshape(-1, 4)


def _canonical_grid_keys(q: np.ndarray, resolution: float) -> np.ndarray:
    """Grid-rounded quaternion coordinates with the sign fixed by the largest one, one row per gate."""
    lead = np.take_along_axis(q, np.argmax(np.abs(q), axis=1)[:, None], axis=1)
    grid = q / resolution
    np.negative(grid, out=grid, where=lead < 0)
    return np.rint(grid, out=grid).astype(_KEY_DTYPE)


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


def _run_leads(hashes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """For key rows sorted by hash: the mask of rows that differ from the row before, and whether
    some such row repeats the hash before it (a collision: equal keys may then not be adjacent)."""
    lead = np.ones(len(rows), dtype=bool)
    lead[1:] = rows[1:] != rows[:-1]
    return lead, bool((hashes[1:] == hashes[:-1])[lead[1:]].any())


class _Search:
    """Shared breadth-first engine; expands once, scores any number of targets.

    Every state is a unit quaternion row (Re a, Im a, Re b, Im b).  The
    visited set is the sorted array of the grid keys' hashes with the keys
    alongside, so membership is decided on the full key.
    """

    def __init__(self, config: SearchConfig):
        if config.k < 2:
            raise DomainError("synthesis needs the qubit representation (k >= 2)")
        self.config = config
        gens, _ = double_braid_generators(config.k, config.generators)
        self.gens = _su2_quaternions(gens)
        self.frontier = np.array([[1.0, 0.0, 0.0, 0.0]])
        self.trace: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, gen indices)
        self.visited_rows = _canonical_grid_keys(self.frontier, config.dedup_resolution).view(_KEY_ROW)[:, 0]
        self.visited_hashes = _key_hash(self.visited_rows)
        self.explored = 1
        self.partial = False
        self.closed = False

    @property
    def distinct(self) -> int:
        return len(self.visited_hashes)

    def expand(self) -> bool:
        """Advance one depth; False, with nothing built, if it could pass the state cap.

        Every candidate of the level may be new, so the cap is checked against
        that bound before the level is allocated.  The run is then flagged
        partial, and the last depth reported is the last one expanded.
        """
        n_gens = len(self.gens)
        if self.distinct + len(self.frontier) * n_gens > self.config.max_states:
            self.partial = True
            return False
        candidates = _products(self.frontier, self.gens)
        keep = self._first_new(_canonical_grid_keys(candidates, self.config.dedup_resolution))
        self.explored += len(candidates)
        self.frontier = candidates[keep]
        self.trace.append((keep // n_gens, keep % n_gens))
        if len(self.frontier) == 0:
            self.closed = True
        return True

    def _first_new(self, keys: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the keys not visited and not seen earlier in `keys`; marks them visited.

        Sorting by hash puts equal keys in one run, whose smallest index is
        their first occurrence, and one hash hit in the visited set names the
        one visited key to compare.  Both are confirmed on the full key; if a
        run mixes keys or a hash is visited more than once (a collision), the
        exact sort decides instead.
        """
        rows = keys.view(_KEY_ROW)[:, 0]
        hashes = _key_hash(rows)
        order = np.argsort(hashes)
        lead, mixed = _run_leads(hashes[order], rows[order])
        firsts = np.minimum.reduceat(order, np.flatnonzero(lead))  # in hash order
        lo = np.searchsorted(self.visited_hashes, hashes[firsts], side="left")
        hits = np.searchsorted(self.visited_hashes, hashes[firsts], side="right") - lo
        if mixed or hits.max(initial=0) > 1:
            fresh = self._first_new_exact(hashes, rows)
            lo = np.searchsorted(self.visited_hashes, hashes[fresh])
        else:
            at = np.minimum(lo, len(self.visited_rows) - 1)
            new = (hits == 0) | (self.visited_rows[at] != rows[firsts])
            fresh, lo = firsts[new], lo[new]
        self.visited_hashes = np.insert(self.visited_hashes, lo, hashes[fresh])
        self.visited_rows = np.insert(self.visited_rows, lo, rows[fresh])
        return np.sort(fresh)

    def _first_new_exact(self, hashes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The first occurrences of unvisited keys, in hash order, from one stable (hash, key) sort.

        Visited rows precede the candidates, which keep their index order, so
        each group of equal keys is led by its visited row if it has one and
        otherwise by its first occurrence.
        """
        n_visited = len(self.visited_hashes)
        all_hashes = np.concatenate([self.visited_hashes, hashes])
        all_rows = np.concatenate([self.visited_rows, rows])
        words = all_rows.view(np.uint64).reshape(-1, 2)
        order = np.lexsort((words[:, 1], words[:, 0], all_hashes))
        lead, _ = _run_leads(all_hashes[order], all_rows[order])
        leads = order[lead]
        return leads[leads >= n_visited] - n_visited

    def shrink_to_beam(self, errors: np.ndarray) -> np.ndarray:
        """Keep the beam_width best frontier states (stable order); returns the kept errors."""
        width = self.config.beam_width
        if width <= 0 or len(self.frontier) <= width:
            return errors
        order = np.argsort(errors, kind="stable")[:width]
        order.sort()
        parents, gens = self.trace[-1]
        self.trace[-1] = (parents[order], gens[order])
        self.frontier = self.frontier[order]
        return errors[order]

    def word_of(self, depth: int, index: int) -> str:
        """Reconstruct the word for frontier state `index` at 1-based `depth`."""
        moves: list[tuple[int, int]] = []
        for level in range(depth - 1, -1, -1):
            parents, gens = self.trace[level]
            piece = self.config.generators[gens[index]]
            if moves and moves[-1][0] == piece[0]:
                merged = (piece[0], moves[-1][1] + piece[1])
                if merged[1] == 0:
                    moves.pop()
                else:
                    moves[-1] = merged
            else:
                moves.append(piece)
            index = parents[index]
        return str(BraidWord(tuple(reversed(moves)))) if moves else ""

    def frontier_errors(self, targets: np.ndarray) -> np.ndarray:
        """Projective distances frontier x quaternion targets, vectorized over blocks of frontier rows."""
        out = np.empty((len(self.frontier), len(targets)))
        for start in range(0, len(self.frontier), _DISTANCE_BLOCK):
            stop = start + _DISTANCE_BLOCK
            out[start:stop] = _distances(self.frontier[start:stop], targets)
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
        for start in range(0, len(self.frontier), _DISTANCE_BLOCK):
            block = self.frontier[start:start + _DISTANCE_BLOCK]
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
    start = time.perf_counter()
    search = _Search(config)
    result = SynthResult(config.k, target)
    best_error = float(search.frontier_errors(target_q)[0, 0])
    best_word = ""
    result.depths.append(0)
    result.best_errors.append(best_error)
    result.best_words.append(best_word)
    for depth in range(1, config.max_depth + 1):
        if not search.expand():
            break
        if len(search.frontier):
            errors = search.frontier_errors(target_q)[:, 0]
            errors = search.shrink_to_beam(errors)
            arg = int(np.argmin(errors))
            if errors[arg] < best_error - 1e-15:
                best_error = float(errors[arg])
                best_word = search.word_of(depth, arg)
        result.depths.append(depth)
        result.best_errors.append(best_error)
        result.best_words.append(best_word)
        if best_error <= config.tolerance or search.closed:
            break
    result.explored = search.explored
    result.distinct = search.distinct
    result.partial = search.partial
    result.wall_time = time.perf_counter() - start
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
    the last row is flagged partial.
    """
    if sample < 1:
        raise DomainError("need at least one sample target")
    rng = random.Random(config.seed)
    targets = _su2_quaternions(np.stack([haar_su2(rng) for _ in range(sample)]))
    search = _Search(config)
    best = search.frontier_min_errors(targets)
    rows = [ProfileRow(0, search.explored, search.distinct,
                       float(best.min()), float(best.mean()), float(best.max()))]
    for depth in range(1, config.max_depth + 1):
        if not search.expand():
            break
        best = np.minimum(best, search.frontier_min_errors(targets))
        rows.append(ProfileRow(depth, search.explored, search.distinct,
                               float(best.min()), float(best.mean()), float(best.max())))
        if search.closed:
            break
    rows[-1].partial = search.partial
    return rows


def reachable_counts(config: SearchConfig) -> tuple[list[int], bool]:
    """Distinct projective gates per depth; the flag reports closure.

    A finite double-braid image closes up (no new gates appear at some
    depth); a dense one keeps growing through any tested range.
    """
    search = _Search(config)
    counts = [search.distinct]
    for _ in range(config.max_depth):
        if not search.expand():
            break
        counts.append(search.distinct)
        if search.closed:
            return counts, True
    return counts, False

"""Breadth-first search over double-braid words approximating one-qubit targets.

The generator set is the four double-braidings s1^{+-2}, s2^{+-2} in the
determinant-one qubit representation.  Search state is deduplicated on a
grid over the canonical quaternion coordinates of SU(2) with a fixed sign
representative, making exhaustive breadth-first enumeration feasible to the
depths of interest; a beam mode bounds the frontier for deeper runs.

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
        if not self.tolerance > 0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if not self.dedup_resolution > 0:
            raise DomainError(f"dedup resolution must be positive, got {self.dedup_resolution}")
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


_DISTANCE_BLOCK = 1 << 15  # frontier rows per block: the complex trace temporaries stay ~10 MB
_CHORD_GAP = 1e-8  # below this 1 - |tr|/2, its square root has lost half its digits to cancellation
_CHORD_ROUNDING = 4 * np.finfo(float).eps  # a chord this small is rounding in its coordinates


def _distances(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Projective distances d(U, V) = sqrt(1 - |tr(U^dag V)| / 2), one row per U, one column per V.

    Near zero the square root amplifies the rounding of the trace (a gap of
    1e-16 reads as 1e-8), so gaps below _CHORD_GAP take the equal quaternion
    chord min(|q_U - q_V|, |q_U + q_V|) / sqrt(2) of the SU(2) projections,
    which has no cancellation.  Chords within the rounding of the quaternion
    coordinates (a few ulps) report as zero.
    """
    overlaps = np.abs(np.einsum("nij,tij->nt", np.conj(us), vs)) / 2
    gaps = 1.0 - np.minimum(overlaps, 1.0)
    rows, cols = np.nonzero(gaps < _CHORD_GAP)
    out = np.sqrt(gaps)
    if len(rows):
        qu = _quaternions(_project_su2(us[rows]))
        qv = _quaternions(_project_su2(vs[cols]))
        chord = np.minimum(np.linalg.norm(qu - qv, axis=1), np.linalg.norm(qu + qv, axis=1)) / math.sqrt(2)
        chord[chord < _CHORD_ROUNDING] = 0.0
        out[rows, cols] = chord
    return out


def projective_distance(u: np.ndarray, v: np.ndarray) -> float:
    """d(U, V) = sqrt(1 - |tr(U^dag V)| / 2); zero iff U = phase * V."""
    for name, m in (("first", u), ("second", v)):
        if m.shape != (2, 2) or np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-9:
            raise DomainError(f"{name} argument is not a 2x2 unitary")
    return float(_distances(u[None], v[None])[0, 0])


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


def _quaternions(batch: np.ndarray) -> np.ndarray:
    """Coordinates (Re a, Im a, Re b, Im b) of SU(2) gates [[a, b], [-b*, a*]], one row per gate."""
    alpha = (batch[:, 0, 0] + np.conj(batch[:, 1, 1])) / 2
    beta = (batch[:, 0, 1] - np.conj(batch[:, 1, 0])) / 2
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)


def _canonical_grid_keys(batch: np.ndarray, resolution: float) -> np.ndarray:
    """Grid-rounded canonical quaternion coordinates, one int32[4] row per gate."""
    v = _quaternions(batch)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)[:, 0]
    v = np.where((lead < 0)[:, None], -v, v)
    return np.round(v / resolution).astype(np.int32)


def _project_su2(batch: np.ndarray) -> np.ndarray:
    """Divide out the determinant phase so the batch lies in SU(2)."""
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    return batch / np.sqrt(det)[:, None, None]


class _Search:
    """Shared breadth-first engine; expands once, scores any number of targets."""

    def __init__(self, config: SearchConfig):
        if config.k < 2:
            raise DomainError("synthesis needs the qubit representation (k >= 2)")
        self.config = config
        self.gens, self.pieces = double_braid_generators(config.k, config.generators)
        identity = np.eye(2, dtype=complex)[None]
        self.frontier = identity
        self.trace: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, gen indices)
        self.visited: set[bytes] = set(map(bytes, _canonical_grid_keys(identity, config.dedup_resolution)))
        self.explored = 1
        self.partial = False
        self.closed = False

    def expand(self) -> bool:
        """Advance one depth; False, with nothing built, if it could pass the state cap.

        Every candidate of the level may be new, so the cap is checked against
        that bound before the level is allocated.  The run is then flagged
        partial, and the last depth reported is the last one expanded.
        """
        n = len(self.frontier)
        n_gens = len(self.gens)
        if len(self.visited) + n * n_gens > self.config.max_states:
            self.partial = True
            return False
        candidates = np.einsum("nij,gjk->ngik", self.frontier, self.gens).reshape(n_gens * n, 2, 2)
        parents = np.repeat(np.arange(n, dtype=np.intp), n_gens)
        gen_idx = np.tile(np.arange(n_gens, dtype=np.intp), n)
        keys = _canonical_grid_keys(candidates, self.config.dedup_resolution)
        keep = np.zeros(len(candidates), dtype=bool)
        visited = self.visited
        for row, key_row in enumerate(keys):
            key = key_row.tobytes()
            if key not in visited:
                visited.add(key)
                keep[row] = True
        self.explored += len(candidates)
        self.frontier = candidates[keep]
        self.trace.append((parents[keep], gen_idx[keep]))
        if len(self.frontier) == 0:
            self.closed = True
        return True

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
        """Projective distances frontier x targets, vectorized over blocks of frontier rows."""
        out = np.empty((len(self.frontier), len(targets)))
        for start in range(0, len(self.frontier), _DISTANCE_BLOCK):
            stop = start + _DISTANCE_BLOCK
            out[start:stop] = _distances(self.frontier[start:stop], targets)
        return out

    def frontier_min_errors(self, targets: np.ndarray) -> np.ndarray:
        """Per-target minimum of :meth:`frontier_errors`, without the whole matrix (inf if empty)."""
        best = np.full(len(targets), np.inf)
        for start in range(0, len(self.frontier), _DISTANCE_BLOCK):
            block = _distances(self.frontier[start:start + _DISTANCE_BLOCK], targets)
            best = np.minimum(best, block.min(axis=0))
        return best


def synthesize(config: SearchConfig, target: np.ndarray) -> SynthResult:
    """Best double-braid approximations of `target` per depth.

    Deterministic given the configuration.  The per-depth best error is
    non-increasing; the search stops early on an exact hit (within the
    configured tolerance), on group closure, or at the state cap (the result
    is then flagged partial).
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2) or np.max(np.abs(target @ target.conj().T - np.eye(2))) > 1e-9:
        raise DomainError("synthesis target must be a 2x2 unitary")
    target_su2 = _project_su2(target[None])
    start = time.perf_counter()
    search = _Search(config)
    result = SynthResult(config.k, target)
    best_error = float(search.frontier_errors(target_su2)[0, 0])
    best_word = ""
    result.depths.append(0)
    result.best_errors.append(best_error)
    result.best_words.append(best_word)
    for depth in range(1, config.max_depth + 1):
        if not search.expand():
            break
        if len(search.frontier):
            errors = search.frontier_errors(target_su2)[:, 0]
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
    result.distinct = len(search.visited)
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


def error_profile(config: SearchConfig, sample: int) -> list[ProfileRow]:
    """Per-depth best-error statistics over seeded Haar-random targets.

    One shared exhaustive expansion serves every target; the table reports
    the minimum / mean / maximum over targets of each target's best error so
    far.  Deterministic for a fixed seed.
    """
    if sample < 1:
        raise DomainError("need at least one sample target")
    rng = random.Random(config.seed)
    targets = np.stack([haar_su2(rng) for _ in range(sample)])
    search = _Search(config)
    best = search.frontier_min_errors(targets)
    rows = [ProfileRow(0, search.explored, len(search.visited),
                       float(best.min()), float(best.mean()), float(best.max()))]
    for depth in range(1, config.max_depth + 1):
        if not search.expand():
            break
        best = np.minimum(best, search.frontier_min_errors(targets))
        rows.append(ProfileRow(depth, search.explored, len(search.visited),
                               float(best.min()), float(best.mean()), float(best.max())))
        if search.closed:
            break
    return rows


def reachable_counts(config: SearchConfig) -> tuple[list[int], bool]:
    """Distinct projective gates per depth; the flag reports closure.

    A finite double-braid image closes up (no new gates appear at some
    depth); a dense one keeps growing through any tested range.
    """
    search = _Search(config)
    counts = [len(search.visited)]
    for _ in range(config.max_depth):
        if not search.expand():
            break
        counts.append(len(search.visited))
        if search.closed:
            return counts, True
    return counts, False

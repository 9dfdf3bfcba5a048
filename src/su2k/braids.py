"""Braid-group representations on splitting-tree bases.

The state space of n identical anyons of type ``a`` with total charge ``c``
carries the left-comb splitting-tree basis: tuples of internal labels
(b_1, ..., b_{n-2}) with b_0 = a fixed by the first leaf and b_{n-1} = c by
the root, every consecutive triple (b_{i-1}, a; b_i) admissible.

Generator sigma_1 acts diagonally by R-symbols; sigma_i for i >= 2 acts on
the b_{i-1} slot through an F-conjugated R within the block of fixed
(b_{i-2}, b_i).  The one-qubit case (a = 1/2, n = 3) is also provided in
closed form, normalized to determinant one, as complex matrices: the
synthesis generators.  They are read off the exact construction that the
density certificates use as well, a gauge without square roots
(:func:`su2k.universality.qubit_rep_exact`), so they load no model layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cyclotomic import Cyc, sqrt_rational
from .errors import DomainError, IntegrityError
from .universality import qubit_rep_exact

if TYPE_CHECKING:
    import numpy as np

    from .model import Model


def get_model(k: int) -> Model:
    """The model layer, loaded on first use: the qubit closed forms, and so synth, never need it."""
    from .model import get_model

    return get_model(k)


@dataclass(frozen=True)
class SplittingBasis:
    """Enumerated left-comb basis of the n-anyon space with fixed total charge."""

    k: int
    anyon: int  # doubled label of the repeated anyon type
    n: int
    total: int  # doubled label of the total charge
    states: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def internal_chain(self, state: tuple[int, ...]) -> tuple[int, ...]:
        """The full label chain b_0 = a, b_1, ..., b_{n-1} = c of a basis state."""
        return (self.anyon, *state, self.total) if self.n >= 2 else (self.anyon,)

    def index(self, state: tuple[int, ...]) -> int:
        return self.states.index(state)


def enumerate_basis(k: int, anyon: int, n: int, total: int) -> SplittingBasis:
    """All admissible left-comb labelings, in lexicographic order.

    An empty basis (dimension zero) is a valid result.
    """
    model = get_model(k)
    model.check_label(anyon)
    model.check_label(total)
    if n < 1:
        raise DomainError(f"need at least one anyon, got n={n}")
    if n == 1:
        states = ((),) if anyon == total else ()
        return SplittingBasis(k, anyon, n, total, states)
    if n == 2:
        states = ((),) if model.admissible(anyon, anyon, total) else ()
        return SplittingBasis(k, anyon, n, total, states)
    partial: list[tuple[int, ...]] = [(b1,) for b1 in model.fusion(anyon, anyon)]
    for _ in range(n - 3):
        partial = [s + (b,) for s in partial for b in model.fusion(s[-1], anyon)]
    states = tuple(s for s in sorted(partial) if model.admissible(s[-1], anyon, total))
    return SplittingBasis(k, anyon, n, total, states)


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators, as (generator index, exponent) pairs."""

    moves: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for index, exponent in self.moves:
            if index < 1:
                raise DomainError(f"generator index must be >= 1, got {index}")
            if exponent == 0:
                raise DomainError("zero exponents are not allowed in a braid word")

    @staticmethod
    def parse(text: str) -> BraidWord:
        """Parse the wire format "s1^2 s2^-4 s1^2"; bare "s1" means exponent 1."""
        moves = []
        for token in text.split():
            match = re.fullmatch(r"s(\d+)(?:\^(-?\d+))?", token)
            if not match:
                raise DomainError(f"bad braid word token {token!r}")
            moves.append((int(match.group(1)), int(match.group(2) or 1)))
        return BraidWord(tuple(moves))

    def __str__(self) -> str:
        return " ".join(f"s{i}^{e}" for i, e in self.moves)

    @property
    def is_double_braid(self) -> bool:
        return all(e % 2 == 0 for _, e in self.moves)

    def max_index(self) -> int:
        return max((i for i, _ in self.moves), default=0)


def braid_generator_matrix(model: Model, basis: SplittingBasis, i: int) -> np.ndarray:
    """The unitary representing sigma_i on the given splitting-tree basis, from the given model."""
    import numpy as np

    if model.k != basis.k:
        raise DomainError("basis was enumerated at a different level")
    n, a = basis.n, basis.anyon
    if not 1 <= i <= n - 1:
        raise DomainError(f"generator index {i} out of range for {n} strands")
    U = np.zeros((basis.dim, basis.dim), dtype=complex)
    if i == 1:
        for idx, state in enumerate(basis.states):
            channel = state[0] if n >= 3 else basis.total
            U[idx, idx] = model.r_symbol_complex(a, a, channel)
        return U
    block_cache: dict[tuple[int, int], tuple[dict[int, int], np.ndarray]] = {}
    for idx, state in enumerate(basis.states):
        chain = basis.internal_chain(state)
        p, mid, r = chain[i - 2], chain[i - 1], chain[i]
        if (p, r) not in block_cache:
            rows, cols, fmat = model.f_matrix_float(p, a, a, r)
            rmat = np.diag([model.r_symbol_complex(a, a, y) for y in rows])
            block = np.linalg.inv(fmat) @ rmat @ fmat
            block_cache[(p, r)] = ({x: t for t, x in enumerate(cols)}, block)
        col_of, block = block_cache[(p, r)]
        src = col_of[mid]
        for x, dst in col_of.items():
            target = state[: i - 2] + (x,) + state[i - 1 :]
            U[basis.index(target), idx] += block[dst, src]
    return U


def evaluate_word(model: Model, basis: SplittingBasis, word: BraidWord) -> np.ndarray:
    """Ordered product of generator powers; the empty word gives the identity."""
    import numpy as np

    if word.max_index() > basis.n - 1:
        raise DomainError(
            f"word uses generator s{word.max_index()} but the basis has {basis.n} strands"
        )
    out = np.eye(basis.dim, dtype=complex)
    for index, exponent in word.moves:
        gen = braid_generator_matrix(model, basis, index)
        base = gen if exponent > 0 else gen.conj().T
        out = out @ np.linalg.matrix_power(base, abs(exponent))
    return out


# -- the one-qubit closed forms ---------------------------------------------------


def normalized_qubit_rep(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Determinant-one qubit generators (sigma_1~, sigma_2~) as complex matrices.

    These equal the braiding generators times the phase -i q^{1/4}.  They are
    read off the exact gauge matrices M = D1 sigma~ D1^-1 of
    :func:`qubit_rep_exact`, D1 = diag(-d, d*s), s = sqrt([3]): the diagonal
    is M's, and the unitary sigma~_2 is symmetric, so both its off-diagonal
    entries are M_01 D1_1 / D1_0 = -M_01 s.  A rational [3] (k = 2, 4) takes
    its root exactly.
    """
    import numpy as np

    s1, s2 = qubit_rep_exact(k)
    N = 4 * (k + 2)
    three = Cyc.from_exponents(N, {4: 1, 0: 1, -4: 1})  # [3]_q = d^2 - 1
    rational = three.as_rational()
    if rational is None:
        off = 0j + (-s2[0][1]).approx() * math.sqrt(three.approx().real)
    else:
        off = 0j + (-s2[0][1] * sqrt_rational(rational)).approx()
    return (
        np.array([[0j + entry.approx() for entry in row] for row in s1], dtype=complex),
        np.array([[0j + s2[0][0].approx(), off], [off, 0j + s2[1][1].approx()]], dtype=complex),
    )


def dense_qubit_generators(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized sigma_1, sigma_2 on the three-anyon qubit basis."""
    model = get_model(k)
    basis = enumerate_basis(k, 1, 3, 1)
    if basis.dim != 2:
        raise DomainError(f"level {k} does not have a two-dimensional three-anyon space")
    return (
        braid_generator_matrix(model, basis, 1),
        braid_generator_matrix(model, basis, 2),
    )


def sparse_encoding_rep(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generators on the four-anyon vacuum-charge qubit, checked against the dense ones.

    Under the identification of the four-anyon basis (b_1 = x, b_2 = 1/2)
    with the three-anyon basis state x, the images agree generator by
    generator; any mismatch raises IntegrityError.
    """
    import numpy as np

    model = get_model(k)
    basis = enumerate_basis(k, 1, 4, 0)
    if basis.dim != 2:
        raise DomainError(f"level {k} does not have a two-dimensional four-anyon vacuum space")
    if basis.states != ((0, 1), (2, 1)):
        raise IntegrityError(f"four-anyon qubit basis at level {k} is {basis.states}")
    sparse = tuple(braid_generator_matrix(model, basis, i) for i in (1, 2, 3))
    dense1, dense2 = dense_qubit_generators(k)
    for got, want, name in (
        (sparse[0], dense1, "sigma_1"),
        (sparse[1], dense2, "sigma_2"),
        (sparse[2], dense1, "sigma_3"),
    ):
        if np.max(np.abs(got - want)) > 1e-12:
            raise IntegrityError(
                f"sparse/dense mismatch for {name} at level {k}: "
                f"max deviation {np.max(np.abs(got - want)):.3e}"
            )
    return sparse

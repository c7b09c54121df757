"""Causal games, causal bounds, and membership in the causal polytope.

A bipartite table is causal when it mixes deterministic one-way-signalling
strategies. Bounds of causal inequalities are computed exactly by complete
enumeration of those strategies (the objective is linear, so the optimum
sits at a vertex); membership is a simplex-constrained least-squares fit
over the same vertices.

scipy.optimize is imported inside `is_causal`, the one place that calls
it: loading it takes longer than importing the rest of causalis, and most
commands never need it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .instruments import ProbabilityTable

CAUSAL_TOL = 1e-7
ENUM_CAP = 10**6


@dataclass(frozen=True, eq=False)
class CausalGame:
    """Win predicate plus input distribution for a two-party game."""

    settings: tuple[int, int]
    outcomes: tuple[int, int]
    input_dist: np.ndarray
    win: np.ndarray

    def __post_init__(self):
        dist = np.asarray(self.input_dist, dtype=float)
        win = np.asarray(self.win, dtype=float)
        if dist.shape != self.settings:
            raise ValueError("input distribution shape must match the settings")
        if win.shape != self.settings + self.outcomes:
            raise ValueError("win table shape must match settings + outcomes")
        # NaN fails every comparison below, so it would pass them silently
        if not (np.isfinite(dist).all() and np.isfinite(win).all()):
            raise ValueError("input distribution and win table must be finite")
        if dist.min() < 0 or abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError("input distribution must be normalized")
        if not np.all((win == 0) | (win == 1)):
            raise ValueError("win predicate must be 0/1 valued")
        dist.setflags(write=False)
        win.setflags(write=False)
        object.__setattr__(self, "input_dist", dist)
        object.__setattr__(self, "win", win)

    @classmethod
    def from_predicate(
        cls,
        settings: tuple[int, int],
        outcomes: tuple[int, int],
        input_dist,
        predicate: Callable[[int, int, int, int], bool],
    ) -> "CausalGame":
        win = np.zeros(settings + outcomes)
        for x, y, a, b in np.ndindex(*settings, *outcomes):
            win[x, y, a, b] = 1.0 if predicate(x, y, a, b) else 0.0
        return cls(settings, outcomes, input_dist, win)


@dataclass(frozen=True)
class DeterministicStrategy:
    """One-way strategy: the first party answers from its own setting, the
    second sees both settings."""

    order: str  # "A<B" or "B<A"
    first: tuple[int, ...]
    second: tuple[int, ...]

    def table(self, settings: tuple[int, int], outcomes: tuple[int, int]) -> np.ndarray:
        nx, ny = settings
        p = np.zeros(settings + outcomes)
        for x in range(nx):
            for y in range(ny):
                if self.order == "A<B":
                    p[x, y, self.first[x], self.second[x * ny + y]] = 1.0
                else:
                    p[x, y, self.second[x * ny + y], self.first[y]] = 1.0
        return p


@dataclass(frozen=True, eq=False)
class CausalityVerdict:
    """Outcome of the polytope-membership test."""

    causal: bool
    residual: float
    q_A_before_B: float | None
    weights: np.ndarray | None


class InequalityScore(NamedTuple):
    value: float
    bound: float
    violated: bool


# ---------------------------------------------------------------------------
# strategy enumeration

@functools.lru_cache(maxsize=32)
def _vertices(settings: tuple[int, int], outcomes: tuple[int, int], cap: int):
    """Deduplicated deterministic one-way tables for both orders.

    Tables shared by the two orders (the no-signalling ones) are kept once,
    tagged with the A<B order seen first.
    """
    nx, ny = settings
    na, nb = outcomes
    for n_first in (na**nx * nb ** (nx * ny), nb**ny * na ** (nx * ny)):
        if n_first > cap:
            raise ValueError(
                f"{n_first} deterministic strategies per order exceeds the cap {cap}; "
                "enumeration-based membership is infeasible here and an LP formulation "
                "over the causal polytope would be required"
            )
    seen: dict[bytes, tuple[DeterministicStrategy, np.ndarray]] = {}
    for f in itertools.product(range(na), repeat=nx):
        for g in itertools.product(range(nb), repeat=nx * ny):
            s = DeterministicStrategy("A<B", f, g)
            t = s.table(settings, outcomes)
            key = t.tobytes()
            if key not in seen:
                t.setflags(write=False)
                seen[key] = (s, t)
    for f in itertools.product(range(nb), repeat=ny):
        for g in itertools.product(range(na), repeat=nx * ny):
            s = DeterministicStrategy("B<A", f, g)
            t = s.table(settings, outcomes)
            key = t.tobytes()
            if key not in seen:
                t.setflags(write=False)
                seen[key] = (s, t)
    return tuple(seen.values())


_SIMPLEX_SCALE = 1e3  # dominates the fit so sum(lambda) = 1 holds to ~1e-10


@functools.lru_cache(maxsize=32)
def _vertex_matrix(settings: tuple[int, int], outcomes: tuple[int, int], cap: int):
    """Read-only (v, a): the vertices of `_vertices` as the columns of v, in
    the same order, and a = v with the weighted simplex row appended; v is
    a view of a, so the two share one buffer."""
    v = np.stack([t.reshape(-1) for _, t in _vertices(settings, outcomes, cap)], axis=1)
    a = np.vstack([v, _SIMPLEX_SCALE * np.ones((1, v.shape[1]))])
    a.setflags(write=False)
    return a[:-1], a


def enumerate_strategies(game: CausalGame, cap: int = ENUM_CAP):
    """All deterministic one-way strategies for the game's alphabets,
    with their probability tables (duplicates collapsed)."""
    return list(_vertices(game.settings, game.outcomes, cap))


def causal_bound(game: CausalGame, cap: int = ENUM_CAP) -> float:
    """Exact optimum of the game over causal correlations (vertex maximum,
    one product with the vertex matrix)."""
    v, _ = _vertex_matrix(game.settings, game.outcomes, cap)
    weight = game.input_dist.reshape(game.settings + (1, 1)) * game.win
    return float((weight.reshape(-1) @ v).max())


# ---------------------------------------------------------------------------
# membership

def _table_values(table) -> tuple[np.ndarray, tuple[int, int], tuple[int, int]]:
    if isinstance(table, ProbabilityTable):
        if len(table.parties) != 2:
            raise ValueError("causality tests are defined for bipartite tables")
        return table.values, table.settings, table.outcomes
    vals = np.asarray(table, dtype=float)
    if vals.ndim != 4:
        raise ValueError("expected a (x, y, a, b) probability array")
    nx, ny, na, nb = vals.shape
    sums = vals.sum(axis=(2, 3))
    if vals.min() < -1e-9 or np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError("table is not a normalized probability distribution")
    return vals, (nx, ny), (na, nb)


def is_causal(table, tol: float = CAUSAL_TOL, cap: int = ENUM_CAP) -> CausalityVerdict:
    """Membership of a bipartite table in the causal polytope.

    Solves min |p - sum_i lambda_i v_i| with lambda >= 0, sum lambda = 1
    over the deterministic one-way vertices v_i (non-negative least squares
    with the simplex constraint appended as a heavily weighted row). Causal
    iff the residual is below tol; the verdict then carries the vertex
    weights and the aggregate weight q on the A<B order (vertices shared by
    both orders count toward q).
    """
    import scipy.optimize  # looked up per call, so a wrapped nnls is seen

    vals, settings, outcomes = _table_values(table)
    verts = _vertices(settings, outcomes, cap)
    v, a = _vertex_matrix(settings, outcomes, cap)
    b = np.concatenate([vals.reshape(-1), [_SIMPLEX_SCALE]])
    lam, _ = scipy.optimize.nnls(a, b, maxiter=30 * v.shape[1])
    total = lam.sum()
    if total > 0:
        lam = lam / total
    residual = float(np.linalg.norm(v @ lam - vals.reshape(-1)))
    causal = residual < tol
    if not causal:
        return CausalityVerdict(False, residual, None, None)
    q = float(sum(w for (s, _), w in zip(verts, lam) if s.order == "A<B"))
    lam.setflags(write=False)
    return CausalityVerdict(True, residual, q, lam)


def score_inequality(table, game: CausalGame, cap: int = ENUM_CAP) -> InequalityScore:
    """Expected win value of a table, the causal bound, and the verdict."""
    vals, settings, outcomes = _table_values(table)
    if settings != game.settings or outcomes != game.outcomes:
        raise ValueError("table alphabets do not match the game")
    weight = game.input_dist.reshape(settings + (1, 1)) * game.win
    value = float((weight * vals).sum())
    bound = causal_bound(game, cap)
    return InequalityScore(value, bound, value > bound + 1e-9)


# ---------------------------------------------------------------------------
# bundled games

def gyni_game() -> CausalGame:
    """Guess your neighbour's input: win iff a = y and b = x, uniform inputs."""
    return CausalGame.from_predicate(
        (2, 2), (2, 2), np.full((2, 2), 0.25), lambda x, y, a, b: a == y and b == x
    )


def lgyni_game() -> CausalGame:
    """Lazy GYNI: win iff x(a xor y) = 0 and y(b xor x) = 0."""
    return CausalGame.from_predicate(
        (2, 2),
        (2, 2),
        np.full((2, 2), 0.25),
        lambda x, y, a, b: x * (a ^ y) == 0 and y * (b ^ x) == 0,
    )


def ocb_game() -> CausalGame:
    """Two-way guessing game: B's setting s = y + 2y' carries a bit y and a
    direction bit y'; win means b = x when y' = 1, else a = y."""

    def predicate(x, s, a, b):
        y, yp = s % 2, s // 2
        return (b == x) if yp == 1 else (a == y)

    return CausalGame.from_predicate((2, 4), (2, 2), np.full((2, 4), 0.125), predicate)

"""Causal games, causal bounds, and membership in the causal polytope.

A bipartite table is causal when it mixes deterministic one-way-signalling
strategies. Bounds of causal inequalities are nested maxima over those
strategies (the objective is linear, so the optimum sits at one); membership
is a non-negative least-squares fit over all of them: every A<B strategy and
the B<A ones whose answer a = g(x, y) depends on y, na^nx nb^(nx ny) +
nb^ny (na^(nx ny) - na^nx) in all, built by index arithmetic as the columns
of one cached matrix per alphabet; the tables `enumerate_strategies` returns
are views of them.

scipy.optimize is imported inside `is_causal`, the one place that calls
it: loading it takes longer than importing the rest of causalis, and most
commands never need it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .instruments import ProbabilityTable
from .tensor_core import _check_tol

CAUSAL_TOL = 1e-7
ENUM_CAP = 10**6


@dataclass(frozen=True, eq=False)
class CausalGame:
    """Input distribution plus 0/1 win table for a two-party game: ``win`` has
    axes (x, y, a, b), so ``settings`` and ``outcomes`` are read off its shape."""

    input_dist: np.ndarray
    win: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        dist = np.array(self.input_dist, dtype=float)
        win = np.array(self.win, dtype=float)
        if win.ndim != 4:
            raise ValueError(f"a causal game has two parties, A and B: the win table needs "
                             f"axes (x, y, a, b), got shape {win.shape}")
        if 0 in win.shape:
            raise ValueError(f"win table shape {win.shape} has an empty alphabet: "
                             "settings and outcomes must be positive")
        if dist.shape != win.shape[:2]:
            raise ValueError("input distribution shape must match the settings")
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

    @property
    def settings(self) -> tuple[int, int]:
        return self.win.shape[:2]

    @property
    def outcomes(self) -> tuple[int, int]:
        return self.win.shape[2:]

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
        return cls(input_dist, win)


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
    """Outcome of the polytope-membership test. For a causal table, q_A_before_B
    is the A<B weight of the returned decomposition ``weights`` (vertices shared
    by both orders count as A<B), so q is unique only when that decomposition is."""

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
def _polytope(settings: tuple[int, int], outcomes: tuple[int, int]):
    """Read-only (v, a_first): the flattened vertex tables as the columns of v
    (A<B first, each order over (f, g) in itertools.product order) and which
    columns are A<B. Each column has exactly one 1 per (x, y)."""
    (nx, ny), (na, nb) = settings, outcomes
    for n_first in (na**nx * nb ** (nx * ny), nb**ny * na ** (nx * ny)):
        if n_first > ENUM_CAP:
            raise ValueError(
                f"{n_first} deterministic strategies per order exceeds the cap {ENUM_CAP}; "
                "enumeration-based membership is infeasible here and an LP formulation "
                "over the causal polytope would be required"
            )
    xy = np.arange(nx * ny).reshape(nx, ny, 1) * na
    # A<B: a = f[x], b = g[x, y]
    fg = np.indices((na,) * nx + (nb,) * (nx * ny)).reshape(nx + nx * ny, -1)
    rows_ab = (xy + fg[:nx, None]) * nb + fg[nx:].reshape(nx, ny, -1)
    # B<A: b = f[y], a = g[x, y]; a g that ignores y gives an A<B table
    fg = np.indices((nb,) * ny + (na,) * (nx * ny)).reshape(ny + nx * ny, -1)
    g = fg[ny:].reshape(nx, ny, -1)
    rows_ba = ((xy + g) * nb + fg[:ny])[..., (g != g[:, :1]).any(axis=(0, 1))]
    # rows[x * ny + y, k]: where column k has its entry for (x, y)
    rows = np.concatenate([rows_ab, rows_ba], axis=2).reshape(nx * ny, -1)
    k = np.arange(rows.shape[1])
    v = np.zeros((nx * ny * na * nb, len(k)))
    v[rows, k] = 1.0
    a_first = k < rows_ab.shape[2]
    for m in (v, a_first):
        m.setflags(write=False)
    return v, a_first


def enumerate_strategies(game: CausalGame):
    """All deterministic one-way strategies for the game's alphabets, with their
    tables (duplicates collapsed) as read-only views of the vertex matrix's columns."""
    v, a_first = _polytope(game.settings, game.outcomes)
    (nx, ny), (na, nb) = game.settings, game.outcomes
    # each column's entries, one per (x, y), come out in (x, y) order
    rows = np.nonzero(v.T)[1].reshape(-1, nx, ny)
    a, b = (rows // nb % na).tolist(), (rows % nb).tolist()
    tables = v.T.reshape((-1,) + game.settings + game.outcomes)  # views of v
    return [(DeterministicStrategy("A<B", tuple(r[0] for r in a[k]), tuple(sum(b[k], [])))
             if is_ab else DeterministicStrategy("B<A", tuple(b[k][0]), tuple(sum(a[k], []))),
             tables[k]) for k, is_ab in enumerate(a_first.tolist())]


def causal_bound(game: CausalGame) -> float:
    """Exact optimum of the game over causal correlations, at any alphabet size:
    with w = input_dist * win on axes (x, y, a, b), the larger of the best A<B
    strategy, sum_x max_a sum_y max_b w, and the best B<A one, sum_y max_b
    sum_x max_a w (the objective is linear, so a deterministic one attains it)."""
    w = game.input_dist.reshape(game.settings + (1, 1)) * game.win
    a_first = w.max(axis=3).sum(axis=1).max(axis=1).sum()
    b_first = w.max(axis=2).sum(axis=0).max(axis=1).sum()
    return float(max(a_first, b_first))


# ---------------------------------------------------------------------------
# membership

def _table_values(table) -> tuple[np.ndarray, tuple[int, int], tuple[int, int]]:
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(("A", "B"), table)
    if len(table.parties) != 2:
        raise ValueError("causality tests are defined for bipartite tables")
    return table.values, table.settings, table.outcomes


def is_causal(table, tol: float = CAUSAL_TOL) -> CausalityVerdict:
    """Membership of a bipartite table in the causal polytope.

    Solves min |p - sum_i lambda_i v_i| with lambda >= 0 over the deterministic
    one-way vertices v_i (non-negative least squares). Each v_i has one 1 per
    (x, y) and p sums to 1 per (x, y), so an exact fit has sum lambda = 1; the
    residual is taken at the normalized weights. Causal iff the residual is
    below tol; the verdict then carries the weights and q (`CausalityVerdict`).
    tol must be finite and > 0.
    """
    _check_tol("tol", tol)
    import scipy.optimize  # looked up per call, so a wrapped nnls is seen

    vals, settings, outcomes = _table_values(table)
    v, a_first = _polytope(settings, outcomes)
    lam, _ = scipy.optimize.nnls(v, vals.reshape(-1), maxiter=30 * v.shape[1])
    total = lam.sum()
    if total > 0:
        lam = lam / total
    residual = float(np.linalg.norm(v @ lam - vals.reshape(-1)))
    causal = residual < tol
    if not causal:
        return CausalityVerdict(False, residual, None, None)
    q = float(lam[a_first].sum())
    lam.setflags(write=False)
    return CausalityVerdict(True, residual, q, lam)


def score_inequality(table, game: CausalGame) -> InequalityScore:
    """Expected win value of a table, the causal bound, and the verdict."""
    vals, settings, outcomes = _table_values(table)
    if settings != game.settings or outcomes != game.outcomes:
        raise ValueError("table alphabets do not match the game")
    weight = game.input_dist.reshape(settings + (1, 1)) * game.win
    value = float((weight * vals).sum())
    bound = causal_bound(game)
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

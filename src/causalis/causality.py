"""Causal games, causal bounds, and membership in the causal polytope.

A bipartite table is causal when it mixes deterministic one-way-signalling
strategies. Bounds of causal inequalities are nested maxima over those
strategies (the objective is linear, so the optimum sits at one).

Membership is decided on the two-order split (Branciard et al., NJP 18,
013008 (2016)): p is causal iff p = p1 + p2 with p1, p2 >= 0, p1 not
signalling from B to A and summing to the same q for every (x, y), and p2
not signalling from A to B. The split is linear in 2 nx ny na nb unknowns
(32 for GYNI, 64 for the OCB game), against a cached matrix per alphabet.
Its least-norm solution, one product with the matrix's cached
pseudo-inverse, is tried first: when it is non-negative it is a split, and
most interior tables (a Born table of the switch, say) are decided by it.
Otherwise one non-negative least-squares fit decides. A causal verdict
rebuilds weights on the deterministic strategies from the split by the
product rule; a non-causal one always carries the fit's Farkas
certificate, a causal inequality the table violates.

The strategies themselves are every A<B one and the B<A ones whose answer
a = g(x, y) depends on y, na^nx nb^(nx ny) + nb^ny (na^(nx ny) - na^nx) in
all, built by index arithmetic as the columns of one cached matrix per
alphabet; the tables `enumerate_strategies` returns are views of them.

scipy.optimize is imported only when that fit runs, the one place that
calls it: loading it takes longer than importing the rest of causalis, and
a table that the least-norm split decides never needs it.
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
    """Outcome of the polytope-membership test; causal iff residual < tol.

    residual is the split fit's distance for a non-causal table, and for a
    causal one the larger of the split's distance and |V weights - p|, V the
    vertex tables. ``weights`` (causal only) are on the strategies in
    `enumerate_strategies` order: the split's product decomposition, dense,
    not a sparse one. q_A_before_B is their A<B weight (vertices shared by
    both orders count as A<B). They come from the least-norm split when it
    is non-negative, so q is then fixed by the table, and otherwise from
    the NNLS fit's split, so q is then unique only when the decomposition
    is.

    ``inequality`` (non-causal only) is a read-only (x, y, a, b) array w with
    w . t <= inequality_bound for every causal table t, the bound recomputed
    by nested maxima; inequality_value is w . p, the square of the fit's
    residual, so the table violates it by that much.
    """

    causal: bool
    residual: float
    q_A_before_B: float | None
    weights: np.ndarray | None
    inequality: np.ndarray | None = None
    inequality_value: float | None = None
    inequality_bound: float | None = None


class InequalityScore(NamedTuple):
    value: float
    bound: float
    violated: bool


# ---------------------------------------------------------------------------
# strategy enumeration

def _check_enum_cap(settings: tuple[int, int], outcomes: tuple[int, int]) -> None:
    """Refuse alphabets with more than ENUM_CAP deterministic strategies per order."""
    (nx, ny), (na, nb) = settings, outcomes
    for n_first in (na**nx * nb ** (nx * ny), nb**ny * na ** (nx * ny)):
        if n_first > ENUM_CAP:
            raise ValueError(
                f"{n_first} deterministic strategies per order exceeds the cap {ENUM_CAP}; "
                "enumeration-based membership is infeasible here and an LP formulation "
                "over the causal polytope would be required"
            )


def _strategies(settings: tuple[int, int], outcomes: tuple[int, int]):
    """The digits of every deterministic one-way strategy, each order over
    (f, g) in itertools.product order: A<B's (f, g) with a = f[x] and
    b = g[x, y], B<A's with b = f[y] and a = g[x, y] (f on its first axis,
    g on axes (x, y, strategy)), and which B<A strategies have a g that
    depends on y; the others give A<B tables."""
    (nx, ny), (na, nb) = settings, outcomes
    fg = np.indices((na,) * nx + (nb,) * (nx * ny)).reshape(nx + nx * ny, -1)
    ab = fg[:nx], fg[nx:].reshape(nx, ny, -1)
    fg = np.indices((nb,) * ny + (na,) * (nx * ny)).reshape(ny + nx * ny, -1)
    f, g = fg[:ny], fg[ny:].reshape(nx, ny, -1)
    return ab, (f, g), (g != g[:, :1]).any(axis=(0, 1))


@functools.lru_cache(maxsize=32)
def _polytope(settings: tuple[int, int], outcomes: tuple[int, int]):
    """Read-only (v, a_first): the flattened vertex tables as the columns of v
    (A<B first, each order over (f, g) in itertools.product order) and which
    columns are A<B. Each column has exactly one 1 per (x, y)."""
    _check_enum_cap(settings, outcomes)
    (nx, ny), (na, nb) = settings, outcomes
    xy = np.arange(nx * ny).reshape(nx, ny, 1) * na
    (f, g), (f_ba, g_ba), own = _strategies(settings, outcomes)
    rows_ab = (xy + f[:, None]) * nb + g
    rows_ba = ((xy + g_ba) * nb + f_ba)[..., own]
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
    return _causal_max(game.input_dist.reshape(game.settings + (1, 1)) * game.win)


def _causal_max(w: np.ndarray) -> float:
    """max of w . t over causal tables t, w on axes (x, y, a, b)."""
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


@functools.lru_cache(maxsize=32)
def _split_system(settings: tuple[int, int], outcomes: tuple[int, int]) -> np.ndarray:
    """Read-only matrix on the unknowns (p1, p2), each flattened over
    (x, y, a, b). Its rows: p1 + p2; p1's marginal on a less its value at
    y = 0; p1's norm less its value at x = 0; p2's marginal on b less its
    value at x = 0. A table p is causal iff some (p1, p2) >= 0 maps to
    (p, 0, ..., 0)."""
    (nx, ny), (na, nb) = settings, outcomes
    n = nx * ny * na * nb
    t1 = np.arange(n).reshape(nx, ny, na, nb)
    t2 = n + t1.transpose(0, 1, 3, 2)  # p2's unknowns on axes (x, y, b, a)
    blocks = [np.concatenate([np.eye(n), np.eye(n)], axis=1)]
    # a no-signalling row sums one group of unknowns less its reference group
    for group, ref, k in ((t1[:, 1:], t1[:, :1], nb), (t1[1:, 0], t1[:1, 0], na * nb),
                          (t2[1:], t2[:1], na)):
        cols = group.reshape(-1, k)
        rows = np.arange(len(cols))[:, None]
        block = np.zeros((len(cols), 2 * n))
        block[rows, cols] = 1.0
        block[rows, np.broadcast_to(ref, group.shape).reshape(-1, k)] = -1.0
        blocks.append(block)
    a = np.concatenate(blocks)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _split_pinv(settings: tuple[int, int], outcomes: tuple[int, int]) -> np.ndarray:
    """Read-only columns of `_split_system`'s pseudo-inverse that multiply
    the table rows: the least-norm split of a table p is this matrix times
    p flattened, since the target is 0 on every other row."""
    n = settings[0] * settings[1] * outcomes[0] * outcomes[1]
    pinv = np.ascontiguousarray(np.linalg.pinv(_split_system(settings, outcomes))[:, :n])
    pinv.setflags(write=False)
    return pinv


def _splits(p: np.ndarray, target: np.ndarray, settings, outcomes):
    """Splits z >= 0 of the table p for `is_causal` to try, in turn: the
    least-norm one when none of its entries is negative, then the NNLS
    fit's to target = (p, 0, ..., 0), computed only when asked for."""
    z = _split_pinv(settings, outcomes) @ p
    if z.min() >= 0.0:
        yield z
    import scipy.optimize  # looked up per call, so a wrapped nnls is seen

    a = _split_system(settings, outcomes)
    yield scipy.optimize.nnls(a, target, maxiter=30 * a.shape[1])[0]


def _distribution(num: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of unknowns for the conditional probabilities that num describes:
    entry (..., o, :) lists the unknowns summed into outcome o, and the
    denominator sums those of every outcome."""
    den = np.broadcast_to(num[..., None, :, :], num.shape[:-1] + num.shape[-2:])
    return num.reshape(-1, num.shape[-1]), den.reshape(-1, num.shape[-2] * num.shape[-1])


@functools.lru_cache(maxsize=32)
def _product_rule(settings: tuple[int, int], outcomes: tuple[int, int]):
    """Read-only (ratio, idx, keep, fold_src, fold_dst) for `_vertex_weights`.

    The product rule's factors are 1, q1, P1(a|x), P1(b|x,y,a), q2, P2(b|y)
    and P2(a|x,y,b), each flattened, and factor i is ratio[0, i] @ s over
    ratio[1, i] @ s with s = (p1, p2, 1); q1 and q2 are the masses of p1 and
    p2. Row k of idx lists where strategy k's factors sit: A<B strategies,
    then every B<A one, each in `_polytope` order, with factor 0 padding the
    shorter rows. keep picks `_polytope`'s columns out of those rows, and the
    B<A rows fold_src, whose a ignores y, add to the A<B columns fold_dst
    that give the same table."""
    (nx, ny), (na, nb) = settings, outcomes
    n = nx * ny * na * nb
    t1 = np.arange(n).reshape(nx, ny, na, nb)
    t2 = n + t1.transpose(0, 1, 3, 2)  # p2's unknowns on axes (x, y, b, a)
    one = np.array([[2 * n]])
    factors = [(one, one), (t1.reshape(1, -1), one), _distribution(t1[:, 0]),
               _distribution(t1[..., None]), (t2.reshape(1, -1), one),
               _distribution(t2[0]), _distribution(t2[..., None])]
    offsets = np.cumsum([0] + [len(num) for num, _ in factors])
    ratio = np.zeros((2, offsets[-1], 2 * n + 1))
    for side in (0, 1):
        for o, pair in zip(offsets, factors):
            ratio[side, o + np.arange(len(pair[side]))[:, None], pair[side]] = 1.0
    _, q1, m1, c1, q2, m2, c2 = offsets[:7].tolist()
    width = 1 + max(nx, ny) + nx * ny
    x = np.arange(nx).reshape(nx, 1, 1)
    y = np.arange(ny).reshape(1, ny, 1)
    (f, g), (f_ba, g_ba), own = _strategies(settings, outcomes)
    ab = [np.full_like(f[:1], q1), m1 + x[:, 0] * na + f,
          (c1 + ((x * ny + y) * na + f[:, None]) * nb + g).reshape(nx * ny, -1)]
    ba = [np.full_like(f_ba[:1], q2), m2 + y[0] * nb + f_ba,
          (c2 + ((x * ny + y) * nb + f_ba[None]) * na + g_ba).reshape(nx * ny, -1)]
    idx = np.concatenate([
        np.concatenate(rows + [np.zeros((width - sum(map(len, rows)), rows[0].shape[1]),
                                        dtype=rows[0].dtype)]).T
        for rows in (ab, ba)])
    n_ab = f.shape[1]
    keep = np.concatenate([np.arange(n_ab), n_ab + np.flatnonzero(own)])
    # the A<B twin of a folded B<A strategy: a = g[x, 0], b = f[y]
    folded = np.flatnonzero(~own)
    b_of_y = np.broadcast_to(f_ba[:, folded], (nx, ny, len(folded)))
    twin = np.concatenate([g_ba[:, 0, folded], b_of_y.reshape(nx * ny, -1)])
    fold_dst = np.ravel_multi_index(tuple(twin), (na,) * nx + (nb,) * (nx * ny))
    fold_src = n_ab + folded
    for m in (ratio, idx, keep, fold_src, fold_dst):
        m.setflags(write=False)
    return ratio, idx, keep, fold_src, fold_dst


def _vertex_weights(z: np.ndarray, settings, outcomes) -> np.ndarray:
    """Weights on `_polytope`'s columns from a split z = (p1, p2), by the
    product rule: lambda(f, g) = q1 prod_x P1(f_x|x) prod_xy P1(g_xy|x, y, f_x)
    for A<B, mirrored for B<A, normalized to sum 1. A distribution whose mass
    is 0 gets factors 0: the strategies that use it weigh q1 P1(a|x) = 0."""
    ratio, idx, keep, fold_src, fold_dst = _product_rule(settings, outcomes)
    num, den = ratio @ np.append(z, 1.0)
    factors = np.divide(num, den, out=np.zeros(len(num)), where=den > 0)
    prods = factors[idx].prod(axis=1)
    lam = prods[keep]
    lam[fold_dst] += prods[fold_src]
    return lam / lam.sum()


def is_causal(table, tol: float = CAUSAL_TOL) -> CausalityVerdict:
    """Membership of a bipartite table in the causal polytope.

    Tries splits (p1, p2) >= 0 of `_split_system` in turn (`_splits`): the
    least-norm solution, when it is non-negative, then the non-negative
    least-squares fit, one call on 2 nx ny na nb unknowns. A split within tol
    of the table is turned into weights on the deterministic strategies, and
    the verdict is causal iff the larger of its distance and the weights'
    reconstruction error is still below tol. Otherwise, once the fit has
    run, the table block w of the fit's residual vector is a causal
    inequality the table violates: at the optimum the residual is orthogonal
    to the fit and no column gains on it, so w . t <= 0 for every causal t
    while w . p is the squared residual. Only the fit's optimum gives that
    inequality, so only the fit answers "not causal". See
    `CausalityVerdict`. Tables past `ENUM_CAP` strategies per order are
    refused before solving. tol must be finite and > 0.
    """
    _check_tol("tol", tol)
    vals, settings, outcomes = _table_values(table)
    _check_enum_cap(settings, outcomes)
    a = _split_system(settings, outcomes)
    p = vals.reshape(-1)
    target = np.zeros(len(a))
    target[:p.size] = p
    for z in _splits(p, target, settings, outcomes):
        r = target - a @ z
        residual = float(np.linalg.norm(r))
        if residual < tol:
            lam = _vertex_weights(z, settings, outcomes)
            v, a_first = _polytope(settings, outcomes)
            residual = max(residual, float(np.linalg.norm(v @ lam - p)))
            if residual < tol:
                lam.setflags(write=False)
                return CausalityVerdict(True, residual, float(lam[a_first].sum()), lam)
    # the loop ends on the fit's split, so r is the fit's residual vector
    w = r[:p.size].reshape(vals.shape)
    w.setflags(write=False)
    return CausalityVerdict(False, residual, None, None, w, float(w.reshape(-1) @ p),
                            _causal_max(w))


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

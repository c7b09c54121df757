import functools
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import causality

GYNI = cs.gyni_game()
SRC = Path(__file__).resolve().parent.parent / "src"


def vertex_table(order, first, second):
    return cs.DeterministicStrategy(order, first, second).table((2, 2), (2, 2))


# ---------------------------------------------------------------------------
# games

def test_game_validation():
    with pytest.raises(ValueError, match="match the settings"):
        cs.CausalGame(np.full((2, 3), 1 / 6), GYNI.win)
    with pytest.raises(ValueError, match="normalized"):
        cs.CausalGame(np.full((2, 2), 0.3), GYNI.win)
    with pytest.raises(ValueError, match="0/1"):
        cs.CausalGame(np.full((2, 2), 0.25), np.full((2, 2, 2, 2), 0.5))


@pytest.mark.parametrize("settings, outcomes", [
    ((0, 2), (2, 2)), ((2, 0), (2, 2)), ((2, 2), (0, 2)), ((2, 2), (2, 0)),
])
def test_game_rejects_empty_alphabets(settings, outcomes):
    win = np.zeros(settings + outcomes)
    with pytest.raises(ValueError, match=re.escape(f"win table shape {win.shape} has an "
                                                   "empty alphabet")):
        cs.CausalGame(np.zeros(settings), win)
    with pytest.raises(ValueError, match="empty alphabet"):
        cs.CausalGame.from_predicate(settings, outcomes, np.zeros(settings),
                                     lambda x, y, a, b: True)


def test_game_leaves_callers_arrays_writable():
    dist, win = np.full((2, 2), 0.25), GYNI.win.copy()
    game = cs.CausalGame(dist, win)
    dist[0, 0] = 0.3
    win[0, 0, 0, 0] = 0.5
    assert game.input_dist[0, 0] == 0.25 and game.win[0, 0, 0, 0] == GYNI.win[0, 0, 0, 0]
    assert not (game.input_dist.flags.writeable or game.win.flags.writeable)


@pytest.mark.parametrize("n", [1, 3])
def test_game_must_be_bipartite(n):
    with pytest.raises(ValueError, match="two parties, A and B"):
        cs.CausalGame(np.full((2,) * n, 0.5**n), np.zeros((2,) * (2 * n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_game_rejects_non_finite_input_dist(bad):
    ocb = cs.ocb_game()
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(np.full(ocb.settings, bad), ocb.win)
    # one bad entry among otherwise normalized weights
    dist = np.full(ocb.settings, 1 / 8)
    dist[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(dist, ocb.win)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_game_rejects_non_finite_win(bad):
    win = GYNI.win.copy()
    win[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(GYNI.input_dist, win)


def test_from_predicate_matches_manual_table():
    want = np.zeros((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        want[x, y, a, b] = 1.0 if (a == y and b == x) else 0.0
    assert np.array_equal(GYNI.win, want)


# ---------------------------------------------------------------------------
# deterministic strategies

def test_strategy_table_layout():
    t = vertex_table("A<B", (0, 1), (1, 0, 0, 1))
    assert t[0, 0, 0, 1] == 1 and t[0, 1, 0, 0] == 1
    assert t[1, 0, 1, 0] == 1 and t[1, 1, 1, 1] == 1
    assert np.allclose(t.sum(axis=(2, 3)), 1.0)
    t = vertex_table("B<A", (1, 0), (0, 0, 1, 1))
    # second party is A here: a = second[x*ny + y], b = first[y]
    assert t[1, 0, 1, 1] == 1 and t[0, 1, 0, 0] == 1


def test_vertex_counts():
    # 64 per order, 16 two-way no-signalling tables shared
    assert len(cs.enumerate_strategies(GYNI)) == 112
    # (2,4),(2,2): 1024 + 4096 - 64 shared
    assert len(cs.enumerate_strategies(cs.ocb_game())) == 5056


def test_vertices_are_one_way_signalling():
    for s, t in cs.enumerate_strategies(GYNI):
        assert not t.flags.writeable
        assert np.allclose(t.sum(axis=(2, 3)), 1.0)
        if s.order == "A<B":
            marg = t.sum(axis=3)  # p(a | x, y) cannot depend on y
            assert np.max(np.abs(marg - marg[:, :1])) == 0
        else:
            marg = t.sum(axis=2)  # p(b | x, y) cannot depend on x
            assert np.max(np.abs(marg - marg[:1])) == 0


def reference_vertices(settings, outcomes):
    """Deterministic one-way (strategy, table) pairs built one table at a
    time over both orders, the tables shared by the two orders kept once
    under the A<B strategy seen first: the reference for the cached
    vertex matrix."""
    nx, ny = settings
    na, nb = outcomes
    seen = {}
    for order, n_first, n_second, repeat in (("A<B", na, nb, nx), ("B<A", nb, na, ny)):
        for f in itertools.product(range(n_first), repeat=repeat):
            for g in itertools.product(range(n_second), repeat=nx * ny):
                s = cs.DeterministicStrategy(order, f, g)
                t = s.table(settings, outcomes)
                seen.setdefault(t.tobytes(), (s, t))
    return list(seen.values())


ALPHABETS = [
    ((2, 2), (2, 2)), ((2, 4), (2, 2)), ((2, 2), (3, 3)), ((3, 2), (2, 3)),
    ((2, 3), (3, 2)), ((1, 1), (1, 1)), ((1, 2), (3, 1)), ((2, 1), (1, 2)),
]


@pytest.mark.parametrize("settings, outcomes", ALPHABETS)
def test_polytope_matches_reference_loop(settings, outcomes):
    want = reference_vertices(settings, outcomes)
    v, a_first = causality._polytope(settings, outcomes)
    assert np.array_equal(v, np.stack([t.reshape(-1) for _, t in want], axis=1))
    assert np.array_equal(a_first, [s.order == "A<B" for s, _ in want])
    (nx, ny), (na, nb) = settings, outcomes
    assert v.shape[1] == na**nx * nb ** (nx * ny) + nb**ny * (na ** (nx * ny) - na**nx)
    game = cs.CausalGame(np.full(settings, 1 / (nx * ny)), np.zeros(settings + outcomes))
    got = cs.enumerate_strategies(game)
    assert [s for s, _ in got] == [s for s, _ in want]
    for s, t in got:
        assert not t.flags.writeable
        assert np.array_equal(t, s.table(settings, outcomes))


def test_enumeration_cap(monkeypatch):
    # the cap is checked inside the cached builder, so drop what it holds
    monkeypatch.setattr(causality, "ENUM_CAP", 50)
    causality._polytope.cache_clear()
    # the bound is a nested maximum and enumerates nothing
    assert cs.causal_bound(GYNI) == 0.5
    with pytest.raises(ValueError, match="LP formulation"):
        cs.is_causal(np.full((2, 2, 2, 2), 0.25))
    with pytest.raises(ValueError, match="LP formulation"):
        cs.enumerate_strategies(GYNI)


# ---------------------------------------------------------------------------
# bounds

def test_causal_bounds_exact():
    assert cs.causal_bound(GYNI) == 0.5
    assert cs.causal_bound(cs.lgyni_game()) == 0.75
    assert cs.causal_bound(cs.ocb_game()) == 0.75


def loop_causal_max(w):
    """The largest w . t over the enumerated vertex tables t, as a loop, kept
    as the reference for the nested maxima; w has axes (x, y, a, b)."""
    settings = w.shape[:2]
    game = cs.CausalGame(np.full(settings, 1 / (settings[0] * settings[1])), np.zeros(w.shape))
    return max(float((w * t).sum()) for _, t in cs.enumerate_strategies(game))


def loop_causal_bound(game):
    """The vertex maximum of a game's weights input_dist * win."""
    return loop_causal_max(game.input_dist.reshape(game.settings + (1, 1)) * game.win)


def random_game(rng, input_dist=None, settings=(2, 4), outcomes=(2, 2)):
    if input_dist is None:
        input_dist = np.full(settings, 1 / (settings[0] * settings[1]))
    return cs.CausalGame(input_dist, (rng.uniform(size=settings + outcomes) < 0.5).astype(float))


@pytest.mark.parametrize("make", [
    cs.gyni_game, cs.lgyni_game, cs.ocb_game,
    lambda: cs.CausalGame.from_predicate((2, 2), (2, 2), np.full((2, 2), 0.25),
                                         lambda x, y, a, b: True),
    lambda: random_game(np.random.default_rng(0)),
] + [lambda s=s, o=o: random_game(np.random.default_rng(1), settings=s, outcomes=o)
     for s, o in ALPHABETS],
    ids=["gyni", "lgyni", "ocb", "all-win", "random"] + [f"random-{s}-{o}" for s, o in ALPHABETS])
def test_causal_bound_equals_vertex_loop(make):
    game = make()
    got, want = cs.causal_bound(game), loop_causal_bound(game)
    n = game.input_dist.size
    if n & (n - 1) == 0:
        # uniform dyadic weights sum exactly in any order
        assert got == want
    else:
        assert abs(got - want) <= 1e-15


def test_causal_bound_with_generic_weights_matches_loop_to_rounding():
    # sums of non-dyadic weights depend on the summation order, so the
    # nested maxima and the loop agree to an ulp, not bit for bit
    rng = np.random.default_rng(0)
    for settings, outcomes in [((2, 4), (2, 2))] * 10 + ALPHABETS:
        dist = rng.uniform(size=settings)
        game = random_game(rng, dist / dist.sum(), settings, outcomes)
        assert abs(cs.causal_bound(game) - loop_causal_bound(game)) <= 1e-15


def test_causal_bound_past_the_enumeration_cap():
    # GYNI with two extra settings per party that never occur: 2^4 2^16 =
    # 2^20 deterministic strategies per order, more than ENUM_CAP
    dist, win = np.zeros((4, 4)), np.zeros((4, 4, 2, 2))
    dist[:2, :2], win[:2, :2] = GYNI.input_dist, GYNI.win
    padded = cs.CausalGame(dist, win)
    assert 2**4 * 2**16 > causality.ENUM_CAP
    with pytest.raises(ValueError, match="LP formulation"):
        cs.enumerate_strategies(padded)
    assert cs.causal_bound(padded) == 0.5


def test_causal_bound_builds_no_vertex_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("causal_bound built the vertex matrix")

    monkeypatch.setattr(causality, "_polytope", refuse)
    assert cs.causal_bound(cs.ocb_game()) == 0.75


def swap_parties(values):
    """A table or win table on axes (x, y, a, b) with A and B exchanged."""
    return np.asarray(values).transpose(1, 0, 3, 2)


@settings(max_examples=12)
@given(alphabet=st.sampled_from(ALPHABETS), seed=st.integers(0, 2**32 - 1))
def test_bound_and_membership_invariant_under_party_swap(alphabet, seed):
    # a causal strategy read with the parties exchanged is a causal
    # strategy of the other order, so both the bound and membership hold
    rng = np.random.default_rng(seed)
    settings_, outcomes = alphabet
    dist = rng.uniform(size=settings_)
    game = random_game(rng, dist / dist.sum(), settings_, outcomes)
    swapped = cs.CausalGame(game.input_dist.T, swap_parties(game.win))
    assert abs(cs.causal_bound(swapped) - cs.causal_bound(game)) <= 1e-15
    tables = [t for _, t in cs.enumerate_strategies(game)]
    idx = rng.choice(len(tables), size=min(len(tables), 8), replace=False)
    p = sum(w * tables[i] for w, i in zip(rng.dirichlet(np.ones(len(idx))), idx))
    assert cs.is_causal(p).causal and cs.is_causal(swap_parties(p)).causal


def test_trivial_game_bound():
    always = cs.CausalGame.from_predicate(
        (2, 2), (2, 2), np.full((2, 2), 0.25), lambda x, y, a, b: True
    )
    assert cs.causal_bound(always) == 1.0


def test_bound_is_vertex_maximum():
    best = max(
        cs.score_inequality(t, GYNI).value for _, t in cs.enumerate_strategies(GYNI)
    )
    assert best == cs.causal_bound(GYNI)
    for _, t in cs.enumerate_strategies(GYNI):
        assert not cs.score_inequality(t, GYNI).violated


def test_score_uniform_table():
    score = cs.score_inequality(np.full((2, 2, 2, 2), 0.25), GYNI)
    assert score.value == 0.25
    assert score.bound == 0.5
    assert not score.violated


def test_score_rejects_mismatched_alphabets():
    with pytest.raises(ValueError, match="alphabets"):
        cs.score_inequality(np.full((2, 2, 2, 2), 0.25), cs.ocb_game())


# ---------------------------------------------------------------------------
# membership

def test_uniform_table_is_causal():
    table = cs.ProbabilityTable(("A", "B"), np.full((2, 2, 2, 2), 0.25))
    verdict = cs.is_causal(table)
    assert verdict.causal and verdict.residual < 1e-10
    assert 0.0 <= verdict.q_A_before_B <= 1.0
    assert abs(verdict.weights.sum() - 1.0) < 1e-12
    assert not verdict.weights.flags.writeable


def test_signalling_direction_detected():
    # b = x signals forward: every decomposition lives on the A<B side
    forward = vertex_table("A<B", (0, 0), (0, 0, 1, 1))
    v = cs.is_causal(forward)
    assert v.causal and abs(v.q_A_before_B - 1.0) < 1e-6
    # a = y signals backward
    backward = vertex_table("B<A", (1, 1), (0, 1, 0, 1))
    v = cs.is_causal(backward)
    assert v.causal and v.q_A_before_B < 1e-6


def test_order_weights_of_explicit_mixture():
    forward = vertex_table("A<B", (0, 0), (0, 0, 1, 1))
    backward = vertex_table("B<A", (1, 1), (0, 1, 0, 1))
    v = cs.is_causal(0.3 * forward + 0.7 * backward)
    # this mixture decomposes uniquely, so the order weight is pinned
    assert v.causal and v.residual < 1e-9
    assert abs(v.q_A_before_B - 0.3) < 1e-6


def test_vertex_mixtures_stay_causal():
    rng = np.random.default_rng(7)
    tables = [t for _, t in cs.enumerate_strategies(GYNI)]
    for _ in range(100):
        k = int(rng.integers(2, 16))
        idx = rng.choice(len(tables), size=k, replace=False)
        lam = rng.dirichlet(np.ones(k))
        p = sum(w * tables[i] for w, i in zip(lam, idx))
        verdict = cs.is_causal(p)
        assert verdict.causal and verdict.residual < 1e-8


def test_perfect_guessing_is_noncausal():
    p = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        p[x, y, y, x] = 1.0
    verdict = cs.is_causal(p)
    assert not verdict.causal
    assert verdict.residual > 0.5
    assert verdict.q_A_before_B is None and verdict.weights is None
    assert cs.score_inequality(p, GYNI).violated


def test_table_input_validation():
    with pytest.raises(ValueError, match="bipartite"):
        cs.is_causal(cs.ProbabilityTable(("A",), np.array([[0.5, 0.5]])))
    # an array is read as ProbabilityTable(("A", "B"), array), whose check names the axes
    for entry in (cs.is_causal, lambda t: cs.score_inequality(t, GYNI)):
        with pytest.raises(ValueError, match=r"two axes per party \(4: settings, then "
                                             r"outcomes\), got 3"):
            entry(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="normalized"):
        cs.is_causal(np.full((2, 2, 2, 2), 0.3))


def test_table_arrays_follow_probability_table_policy():
    # a deterministic table with one entry at -5e-10 was causal and scored
    # as an array, yet ProbabilityTable rejects it
    table = np.zeros((2, 2, 2, 2))
    table[:, :, 0, 0] = 1.0
    table[0, 0, 1, 1] = -5e-10
    with pytest.raises(ValueError, match="negative probability"):
        cs.ProbabilityTable(("A", "B"), table)
    with pytest.raises(ValueError, match="negative probability"):
        cs.is_causal(table)
    with pytest.raises(ValueError, match="negative probability"):
        cs.score_inequality(table, GYNI)
    # the caller's array is left writable
    table[0, 0, 1, 1] = 0.0
    assert cs.is_causal(table).causal


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_rejects_non_finite_entries(bad):
    # NaN passed the normalization checks and scored as not violated
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        cs.score_inequality(table, GYNI)
    with pytest.raises(ValueError, match="finite"):
        cs.is_causal(table)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf, -np.inf])
def test_is_causal_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        cs.is_causal(np.full((2, 2, 2, 2), 0.25), tol=tol)


# ---------------------------------------------------------------------------
# the vertex NNLS as the oracle for the split, the caches, the least-norm
# split before the fit, the deferred scipy import

@functools.lru_cache(maxsize=None)
def reference_stack(settings, outcomes):
    """The reference loop's vertex tables as the columns of one matrix, and
    which of them are A<B."""
    verts = reference_vertices(settings, outcomes)
    return (np.stack([t.reshape(-1) for _, t in verts], axis=1),
            np.array([s.order == "A<B" for s, _ in verts]))


def is_causal_reference(table, tol=causality.CAUSAL_TOL):
    """Membership by the vertex NNLS: non-negative weights fitted to the
    reference loop's vertex tables, normalized, the residual taken at them,
    and q summed over the A<B vertices."""
    vals, settings, outcomes = causality._table_values(table)
    v, a_first = reference_stack(settings, outcomes)
    lam, _ = scipy.optimize.nnls(v, vals.reshape(-1), maxiter=30 * v.shape[1])
    total = lam.sum()
    if total > 0:
        lam = lam / total
    residual = float(np.linalg.norm(v @ lam - vals.reshape(-1)))
    if residual >= tol:
        return cs.CausalityVerdict(False, residual, None, None)
    return cs.CausalityVerdict(True, residual, float(lam[a_first].sum()), lam)


def switch_table(seed):
    """A bipartite Born table of the equal switch, Fiona marginalized."""
    p = cs.validate_process(cs.make_quantum_switch(
        [1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix())
    a, b, f = p.parties
    rng = np.random.default_rng(seed)
    ins = [cs.random_instrument(a, 2, 2, rng), cs.random_instrument(b, 2, 2, rng),
           cs.random_instrument(f, 1, 2, rng)]
    return cs.born(p, ins).marginalize("F")


def ocb_table():
    return cs.born(cs.ocb_process(), list(cs.ocb_instruments()))


def perfect_guessing():
    p = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        p[x, y, y, x] = 1.0
    return p


def random_tables(rng, settings, outcomes, count):
    """Tables with each (x, y) row drawn uniformly from the simplex."""
    rows = rng.dirichlet(np.ones(outcomes[0] * outcomes[1]), size=(count,) + settings)
    return rows.reshape((count,) + settings + outcomes)


def reconstruction(weights, table):
    """|V weights - p| with V the reference loop's vertex tables."""
    vals = np.asarray(getattr(table, "values", table))
    v, _ = reference_stack(vals.shape[:2], vals.shape[2:])
    return float(np.linalg.norm(v @ weights - vals.reshape(-1)))


@pytest.mark.parametrize("make, game", [
    (lambda: switch_table(1), cs.gyni_game),
    (lambda: switch_table(2), cs.lgyni_game),
    (ocb_table, cs.ocb_game),
], ids=["gyni-switch", "lgyni-switch", "ocb"])
def test_cached_vertex_matrix_matches_per_call_stack(make, game):
    # the split and the vertex NNLS agree on the verdict; their residuals and
    # weights differ, since they solve different fits
    table = make()
    got, want = cs.is_causal(table), is_causal_reference(table)
    tol = causality.CAUSAL_TOL
    assert got.causal == want.causal
    assert cs.score_inequality(table, game()).violated == (not want.causal)
    if want.causal:
        assert got.residual < tol and want.residual < tol
        assert reconstruction(got.weights, table) < tol
        assert 0.0 <= got.q_A_before_B <= 1.0
        assert got.inequality is None
    else:
        assert got.residual > 1e-3 and want.residual > 1e-3
        assert got.weights is None and got.q_A_before_B is None
    for build in (causality._polytope, causality._split_system, causality._split_pinv,
                  causality._product_rule):
        cached = build(table.settings, table.outcomes)
        assert build(table.settings, table.outcomes) is cached
        assert not any(m.flags.writeable for m in
                       (cached if isinstance(cached, tuple) else (cached,)))


def count_nnls(monkeypatch):
    """Route scipy.optimize.nnls through a counter: returns the list that
    collects the shape of each matrix it fits."""
    shapes = []
    nnls = scipy.optimize.nnls

    def counted(a, b, **kwargs):
        shapes.append(a.shape)
        return nnls(a, b, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    return shapes


def test_ocb_membership_is_one_small_nnls(monkeypatch):
    shapes = count_nnls(monkeypatch)

    def refuse(*args):
        raise AssertionError("a non-causal verdict built the vertex matrix")

    monkeypatch.setattr(causality, "_polytope", refuse)
    monkeypatch.setattr(causality, "_product_rule", refuse)
    verdict = cs.is_causal(ocb_table())
    assert not verdict.causal
    assert shapes == [(53, 64)]


def test_split_system_sizes():
    assert causality._split_system((2, 2), (2, 2)).shape == (25, 32)
    assert causality._split_system((2, 4), (2, 2)).shape == (53, 64)


@pytest.mark.parametrize("settings, outcomes", ALPHABETS)
def test_split_agrees_with_vertex_oracle(settings, outcomes):
    rng = np.random.default_rng(31)
    v, _ = reference_stack(settings, outcomes)
    for _ in range(4):
        k = rng.choice(v.shape[1], size=min(v.shape[1], 6), replace=False)
        p = (v[:, k] @ rng.dirichlet(np.ones(len(k)))).reshape(settings + outcomes)
        for verdict in (cs.is_causal(p), is_causal_reference(p)):
            assert verdict.causal
            assert verdict.weights.min() >= 0.0
            assert abs(verdict.weights.sum() - 1.0) <= 1e-12
            assert reconstruction(verdict.weights, p) <= 1e-12
    decided = 0
    for p in random_tables(rng, settings, outcomes, 6):
        want = is_causal_reference(p)
        # between the two, the fits' different distances can fall either side of tol
        if want.residual < 1e-12 or want.residual > 1e-3:
            assert cs.is_causal(p).causal == want.causal
            decided += 1
    assert decided > 0


def noncausal_tables():
    rng = np.random.default_rng(17)
    tables = [("ocb", ocb_table().values), ("perfect-guessing", perfect_guessing())]
    for settings, outcomes in ALPHABETS[:5]:
        found = [p for p in random_tables(rng, settings, outcomes, 20)
                 if not cs.is_causal(p).causal][:2]
        assert found, (settings, outcomes)
        tables += [(f"random-{settings}-{outcomes}-{k}", p) for k, p in enumerate(found)]
    return tables


NONCAUSAL = noncausal_tables()


@pytest.mark.parametrize("p", [p for _, p in NONCAUSAL], ids=[name for name, _ in NONCAUSAL])
def test_noncausal_verdict_carries_a_violated_inequality(p):
    verdict = cs.is_causal(p)
    assert not verdict.causal and verdict.weights is None
    w = verdict.inequality
    assert w.shape == p.shape and not w.flags.writeable
    assert verdict.inequality_value == float(w.reshape(-1) @ p.reshape(-1))
    assert verdict.inequality_value > verdict.inequality_bound
    # at the fit's optimum, w . p is the squared residual and no causal table scores above 0
    assert abs(verdict.inequality_value - verdict.residual**2) <= 1e-12
    assert abs(verdict.inequality_bound) <= 1e-12
    assert abs(verdict.inequality_bound - loop_causal_max(w)) <= 1e-15


def test_inequality_values_of_the_named_tables():
    ocb, guess = cs.is_causal(ocb_table()), cs.is_causal(perfect_guessing())
    assert abs(ocb.inequality_value - 0.0404) < 1e-4
    assert abs(guess.inequality_value - 2 / 3) < 1e-12


def least_norm_split(p):
    """The least-norm solution of the split system for the table p."""
    vals = np.asarray(getattr(p, "values", p))
    return causality._split_pinv(vals.shape[:2], vals.shape[2:]) @ vals.reshape(-1)


@pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 6, 7])
def test_least_norm_split_decides_switch_tables(monkeypatch, seed):
    # the switch's Born tables are interior: their least-norm split is
    # non-negative, so no fit runs and the weights come from that split
    shapes = count_nnls(monkeypatch)
    table = switch_table(seed)
    assert least_norm_split(table).min() >= 0.0
    verdict = cs.is_causal(table)
    assert shapes == []
    assert verdict.causal and verdict.residual < causality.CAUSAL_TOL
    assert verdict.weights.min() >= 0.0 and abs(verdict.weights.sum() - 1.0) <= 1e-12
    assert reconstruction(verdict.weights, table) < causality.CAUSAL_TOL
    assert 0.0 <= verdict.q_A_before_B <= 1.0


@pytest.mark.parametrize("make, least_norm_min, q", [
    (lambda: switch_table(2), -0.0033, None),
    (lambda: vertex_table("A<B", (0, 0), (0, 0, 1, 1)), -0.125, 1.0),
    (lambda: vertex_table("B<A", (1, 1), (0, 1, 0, 1)), -0.125, 0.0),
], ids=["switch-2", "vertex-A<B", "vertex-B<A"])
def test_negative_least_norm_split_falls_back_to_one_nnls(monkeypatch, make, least_norm_min, q):
    # a causal table whose least-norm split dips below 0 is still causal,
    # through the fit
    shapes = count_nnls(monkeypatch)
    table = make()
    assert abs(least_norm_split(table).min() - least_norm_min) < 1e-4
    verdict = cs.is_causal(table)
    assert shapes == [(25, 32)]
    assert verdict.causal and reconstruction(verdict.weights, table) < causality.CAUSAL_TOL
    assert q is None or verdict.q_A_before_B == q


def nnls_only(p):
    """The NNLS side of `is_causal` alone: (residual, w, w . p, bound) at
    the fit's optimum on the split system."""
    a = causality._split_system(p.shape[:2], p.shape[2:])
    target = np.zeros(len(a))
    target[:p.size] = p.reshape(-1)
    z, _ = scipy.optimize.nnls(a, target, maxiter=30 * a.shape[1])
    r = target - a @ z
    w = r[:p.size].reshape(p.shape)
    value = float(w.reshape(-1) @ p.reshape(-1))
    return float(np.linalg.norm(r)), w, value, causality._causal_max(w)


@pytest.mark.parametrize("p", [p for _, p in NONCAUSAL], ids=[name for name, _ in NONCAUSAL])
def test_noncausal_verdict_is_one_nnls_bit_for_bit(monkeypatch, p):
    want = nnls_only(p)
    shapes = count_nnls(monkeypatch)
    verdict = cs.is_causal(p)
    assert len(shapes) == 1 and least_norm_split(p).min() < 0.0
    assert verdict.residual == want[0]
    assert np.array_equal(verdict.inequality, want[1])
    assert (verdict.inequality_value, verdict.inequality_bound) == want[2:]


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 112))
def test_vertex_mixtures_agree_with_the_vertex_oracle(seed, k):
    # mixtures of a few vertices lie near the boundary, where the least-norm
    # split dips below 0 and the fit decides; mixtures of many lie inside,
    # where that split decides alone. Either way the verdict is the
    # oracle's and the weights rebuild the table
    rng = np.random.default_rng(seed)
    v, _ = reference_stack((2, 2), (2, 2))
    idx = rng.choice(v.shape[1], size=k, replace=False)
    p = (v[:, idx] @ rng.dirichlet(np.ones(k))).reshape(2, 2, 2, 2)
    got, want = cs.is_causal(p), is_causal_reference(p)
    assert got.causal == want.causal
    assert reconstruction(got.weights, p) < causality.CAUSAL_TOL


def test_enumeration_cap_refuses_noncausal_tables(monkeypatch):
    # the cap is checked before solving, so the verdict does not matter
    monkeypatch.setattr(causality, "ENUM_CAP", 50)
    causality._polytope.cache_clear()
    with pytest.raises(ValueError, match="LP formulation"):
        cs.is_causal(perfect_guessing())


def test_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this one already loaded scipy.optimize above
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import causalis, causalis.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded on import'\n"
        "p = causalis.make_quantum_switch([1.0, 0.0], 2 ** -0.5, 2 ** -0.5).to_matrix()\n"
        "p = causalis.validate_process(p)\n"
        "a, b, f = p.parties\n"
        "rng = np.random.default_rng(3)\n"
        "ins = [causalis.random_instrument(a, 2, 2, rng),\n"
        "       causalis.random_instrument(b, 2, 2, rng),\n"
        "       causalis.random_instrument(f, 1, 2, rng)]\n"
        "table = causalis.born(p, ins).marginalize('F')\n"
        "print(causalis.score_inequality(table, causalis.gyni_game()).violated,\n"
        "      causalis.is_causal(table).causal)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded by is_causal'\n"
    )
    path = os.pathsep.join([str(SRC)] + [x for x in [os.environ.get("PYTHONPATH")] if x])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]

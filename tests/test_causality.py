import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

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
        cs.CausalGame((2, 2), (2, 2), np.full((2, 3), 1 / 6), GYNI.win)
    with pytest.raises(ValueError, match="normalized"):
        cs.CausalGame((2, 2), (2, 2), np.full((2, 2), 0.3), GYNI.win)
    with pytest.raises(ValueError, match="win table shape"):
        cs.CausalGame((2, 2), (2, 2), np.full((2, 2), 0.25), np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError, match="0/1"):
        cs.CausalGame((2, 2), (2, 2), np.full((2, 2), 0.25), np.full((2, 2, 2, 2), 0.5))


@pytest.mark.parametrize("n", [1, 3])
def test_game_must_be_bipartite(n):
    with pytest.raises(ValueError, match="two parties, A and B"):
        cs.CausalGame((2,) * n, (2,) * n, np.full((2,) * n, 0.5**n), np.zeros((2,) * (2 * n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_game_rejects_non_finite_input_dist(bad):
    ocb = cs.ocb_game()
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(ocb.settings, ocb.outcomes, np.full(ocb.settings, bad), ocb.win)
    # one bad entry among otherwise normalized weights
    dist = np.full(ocb.settings, 1 / 8)
    dist[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(ocb.settings, ocb.outcomes, dist, ocb.win)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_game_rejects_non_finite_win(bad):
    win = GYNI.win.copy()
    win[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        cs.CausalGame(GYNI.settings, GYNI.outcomes, GYNI.input_dist, win)


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


@pytest.mark.parametrize("settings, outcomes", [
    ((2, 2), (2, 2)), ((2, 4), (2, 2)), ((2, 2), (3, 3)), ((3, 2), (2, 3)),
    ((2, 3), (3, 2)), ((1, 1), (1, 1)), ((1, 2), (3, 1)), ((2, 1), (1, 2)),
])
def test_polytope_matches_reference_loop(settings, outcomes):
    want = reference_vertices(settings, outcomes)
    v, a, a_first = causality._polytope(settings, outcomes)
    assert np.array_equal(v, np.stack([t.reshape(-1) for _, t in want], axis=1))
    assert np.array_equal(a_first, [s.order == "A<B" for s, _ in want])
    assert np.array_equal(a[-1], np.full(v.shape[1], 1e3))
    (nx, ny), (na, nb) = settings, outcomes
    assert v.shape[1] == na**nx * nb ** (nx * ny) + nb**ny * (na ** (nx * ny) - na**nx)
    game = cs.CausalGame(settings, outcomes, np.full(settings, 1 / (nx * ny)),
                         np.zeros(settings + outcomes))
    got = cs.enumerate_strategies(game)
    assert [s for s, _ in got] == [s for s, _ in want]
    for s, t in got:
        assert not t.flags.writeable
        assert np.array_equal(t, s.table(settings, outcomes))


def test_enumeration_cap(monkeypatch):
    # the cap is checked inside the cached builder, so drop what it holds
    monkeypatch.setattr(causality, "ENUM_CAP", 50)
    causality._polytope.cache_clear()
    with pytest.raises(ValueError, match="LP formulation"):
        cs.causal_bound(GYNI)
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


def loop_causal_bound(game):
    """The vertex maximum as a loop over the enumerated tables, kept as the
    reference for the single product with the vertex matrix."""
    weight = game.input_dist.reshape(game.settings + (1, 1)) * game.win
    return max(float((weight * t).sum()) for _, t in cs.enumerate_strategies(game))


def random_game(rng, input_dist=None):
    settings, outcomes = (2, 4), (2, 2)
    if input_dist is None:
        input_dist = np.full(settings, 1 / 8)
    return cs.CausalGame(settings, outcomes, input_dist,
                         (rng.uniform(size=settings + outcomes) < 0.5).astype(float))


@pytest.mark.parametrize("make", [
    cs.gyni_game, cs.lgyni_game, cs.ocb_game,
    lambda: cs.CausalGame.from_predicate((2, 2), (2, 2), np.full((2, 2), 0.25),
                                         lambda x, y, a, b: True),
    lambda: random_game(np.random.default_rng(0)),
], ids=["gyni", "lgyni", "ocb", "all-win", "random"])
def test_causal_bound_equals_vertex_loop(make):
    game = make()
    assert cs.causal_bound(game) == loop_causal_bound(game)


def test_causal_bound_with_generic_weights_matches_loop_to_rounding():
    # sums of non-dyadic weights depend on the summation order, so the
    # product and the loop agree to an ulp, not bit for bit
    rng = np.random.default_rng(0)
    for _ in range(10):
        dist = rng.uniform(size=(2, 4))
        game = random_game(rng, dist / dist.sum())
        assert abs(cs.causal_bound(game) - loop_causal_bound(game)) <= 1e-15


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
    with pytest.raises(ValueError, match="x, y, a, b"):
        cs.is_causal(np.ones((2, 2, 2)))
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
# vertex-matrix cache and the deferred scipy import

def is_causal_reference(table, tol=causality.CAUSAL_TOL):
    """is_causal with the vertex matrix stacked afresh on every call from
    the reference loop, and q summed vertex by vertex."""
    vals, settings, outcomes = causality._table_values(table)
    verts = reference_vertices(settings, outcomes)
    v = np.stack([t.reshape(-1) for _, t in verts], axis=1)
    a = np.vstack([v, 1e3 * np.ones((1, v.shape[1]))])
    b = np.concatenate([vals.reshape(-1), [1e3]])
    lam, _ = scipy.optimize.nnls(a, b, maxiter=30 * v.shape[1])
    total = lam.sum()
    if total > 0:
        lam = lam / total
    residual = float(np.linalg.norm(v @ lam - vals.reshape(-1)))
    if residual >= tol:
        return cs.CausalityVerdict(False, residual, None, None)
    q = float(sum(w for (s, _), w in zip(verts, lam) if s.order == "A<B"))
    return cs.CausalityVerdict(True, residual, q, lam)


def switch_table(seed):
    """A bipartite Born table of the equal switch, Fiona marginalized."""
    p = cs.validate_process(cs.make_quantum_switch(
        [1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix())
    a, b, f = p.parties
    rng = np.random.default_rng(seed)
    ins = [cs.random_instrument(a, 2, 2, rng), cs.random_instrument(b, 2, 2, rng),
           cs.random_instrument(f, 1, 2, rng)]
    return cs.born(p, ins).marginalize("F")


@pytest.mark.parametrize("make, game", [
    (lambda: switch_table(1), cs.gyni_game),
    (lambda: switch_table(2), cs.lgyni_game),
    (lambda: cs.born(cs.ocb_process(), list(cs.ocb_instruments())), cs.ocb_game),
], ids=["gyni-switch", "lgyni-switch", "ocb"])
def test_cached_vertex_matrix_matches_per_call_stack(make, game):
    table = make()
    got, want = cs.is_causal(table), is_causal_reference(table)
    assert got.causal == want.causal
    assert got.residual == want.residual
    assert cs.score_inequality(table, game()).violated == (not want.causal)
    if want.causal:
        assert np.array_equal(got.weights, want.weights)
        assert abs(got.q_A_before_B - want.q_A_before_B) <= 1e-15
    else:
        assert got.weights is None and got.q_A_before_B is None
    v, a, a_first = causality._polytope(table.settings, table.outcomes)
    assert not v.flags.writeable and not a.flags.writeable
    assert not a_first.flags.writeable
    assert causality._polytope(table.settings, table.outcomes)[0] is v


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
    )
    path = os.pathsep.join([str(SRC)] + [x for x in [os.environ.get("PYTHONPATH")] if x])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]

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


def test_enumeration_cap():
    with pytest.raises(ValueError, match="LP formulation"):
        cs.causal_bound(GYNI, cap=50)


# ---------------------------------------------------------------------------
# bounds

def test_causal_bounds_exact():
    assert cs.causal_bound(GYNI) == 0.5
    assert cs.causal_bound(cs.lgyni_game()) == 0.75
    assert cs.causal_bound(cs.ocb_game()) == 0.75


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
    table = cs.ProbabilityTable(("A", "B"), (2, 2), (2, 2), np.full((2, 2, 2, 2), 0.25))
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
        cs.is_causal(cs.ProbabilityTable(("A",), (1,), (2,), np.array([[0.5, 0.5]])))
    with pytest.raises(ValueError, match="x, y, a, b"):
        cs.is_causal(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="normalized"):
        cs.is_causal(np.full((2, 2, 2, 2), 0.3))


# ---------------------------------------------------------------------------
# vertex-matrix cache and the deferred scipy import

def is_causal_reference(table, tol=causality.CAUSAL_TOL, cap=causality.ENUM_CAP):
    """is_causal with the vertex matrix stacked afresh on every call."""
    vals, settings, outcomes = causality._table_values(table)
    verts = causality._vertices(settings, outcomes, cap)
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
    key = (table.settings, table.outcomes, causality.ENUM_CAP)
    v, a = causality._vertex_matrix(*key)
    assert not v.flags.writeable and not a.flags.writeable
    assert causality._vertex_matrix(*key)[0] is v


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

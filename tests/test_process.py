import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import process as cp
from causalis.process import validity_report
from causalis.tensor_core import _CoeffBasis
from conftest import (
    interleaved_parties,
    local_unitary,
    qubit_chain,
    qubit_with_trivial_parties,
    sequential_ordered_process,
)


def white_noise(parties):
    sp = cs.parties_space(parties)
    d_in = 1
    for p in parties:
        d_in *= p.input_dim
    return cs.ProcessMatrix(parties, cs.identity(sp) / d_in)


# ---------------------------------------------------------------------------
# validity

def test_white_noise_valid(qubit_parties):
    p = cs.validate_process(white_noise(qubit_parties))
    assert p.validity == "valid"
    assert p.reason is None


def test_switch_valid_with_expected_trace(switch):
    assert switch.validity == "valid"
    assert abs(switch.w.trace().real - 4.0) < 1e-9
    assert switch.expected_trace == 4


def test_positivity_violation_reported(qubit_parties):
    p = white_noise(qubit_parties)
    m = p.w.mat.copy()
    m[0, 0] = -0.1
    bad = cs.ProcessMatrix(qubit_parties, cs.HermitianOperator(p.w.space, m))
    bad = cs.validate_process(bad)
    assert bad.validity == "invalid"
    assert "positivity" in bad.reason


def test_normalization_violation_reported(qubit_parties):
    p = white_noise(qubit_parties)
    bad = cs.validate_process(cs.ProcessMatrix(qubit_parties, p.w * 1.5))
    assert bad.validity == "invalid"
    assert "normalization" in bad.reason


def test_forbidden_term_detected(qubit_parties):
    # a term acting on A_I (x) A_O alone breaks unit probability
    a, b = qubit_parties
    sz = np.diag([1.0 + 0j, -1.0])
    bump = cs.tensor(
        cs.HermitianOperator(a.input_space, sz),
        cs.HermitianOperator(a.output_space, sz),
        cs.identity(b.space),
    )
    p = white_noise(qubit_parties)
    bad = cs.validate_process(cs.ProcessMatrix(qubit_parties, p.w + bump * 0.05))
    assert bad.validity == "invalid"
    assert "normalization" in bad.reason


def test_validity_report_residuals(switch):
    rep = validity_report(switch)
    assert rep["min_eigenvalue"] > -1e-10
    assert rep["max_normalization_residual"] < 1e-9
    assert abs(rep["trace"] - rep["expected_trace"]) < 1e-9


def test_process_space_mismatch(qubit_parties):
    a, b = qubit_parties
    with pytest.raises(ValueError, match="labels"):
        cs.ProcessMatrix((a, b), cs.identity(a.space))


# ---------------------------------------------------------------------------
# closed form vs spanning set

def _random_valid(parties, rng):
    a, b = parties
    kind = rng.integers(0, 3)
    if kind == 0:
        return cs.random_ordered_process([a, b], rng)
    if kind == 1:
        return cs.random_ordered_process([b, a], rng)
    t = rng.uniform()
    w = (cs.random_ordered_process([a, b], rng).w * t
         + cs.random_ordered_process([b, a], rng).w * (1 - t))
    return cs.ProcessMatrix(parties, w)


def _random_invalid(parties, rng):
    base = _random_valid(parties, rng)
    kind = rng.integers(0, 3)
    if kind == 0:
        return cs.ProcessMatrix(parties, base.w * float(rng.uniform(1.1, 2.0)))
    if kind == 1:
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        noise = cs.HermitianOperator(base.w.space, (g + g.conj().T) / 2)
        return cs.ProcessMatrix(parties, base.w + noise * 0.2)
    m = base.w.mat.copy()
    m[0, 0] -= 0.5  # push an eigenvalue negative
    return cs.ProcessMatrix(parties, cs.HermitianOperator(base.w.space, m))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_agrees_with_spanning(qubit_parties, seed):
    rng = np.random.default_rng(seed)
    ai, ao, bi, bo = "A_I", "A_O", "B_I", "B_O"
    for _ in range(25):
        p = _random_valid(qubit_parties, rng) if rng.uniform() < 0.5 else _random_invalid(qubit_parties, rng)
        spanning = cs.validate_process(p).validity == "valid"
        closed = cs.validate_bipartite_closed_form(p)
        assert spanning == closed
        # the depolarize identities keep exactly the coefficients of one
        # pattern each, and every weight w_U is 1 for qubit parties
        w = p.w
        c1 = cs.depolarize(w, {bi, bo}) - cs.depolarize(w, {ao, bi, bo})
        c2 = cs.depolarize(w, {ai, ao}) - cs.depolarize(w, {ai, ao, bo})
        c3 = w - (cs.depolarize(w, {bo}) + cs.depolarize(w, {ao}) - cs.depolarize(w, {ao, bo}))
        got = validity_report(p)["pattern_residuals"]
        assert set(got) == {"A_O", "B_O", "A_O (x) B_O"}
        for name, c in (("A_O", c1), ("B_O", c2), ("A_O (x) B_O", c3)):
            assert abs(got[name] - c.norm()) <= 1e-12


@pytest.mark.parametrize("scale, valid", [(1 + 5e-10, True), (1 + 2e-9, False)])
def test_closed_form_trace_test_is_relative(scale, valid):
    # Tr W = 4 here, so 1 + 5e-10 moves the trace by 2e-9: inside lin_tol
    # relative to prod d_O, as validate_process reads it
    p = cs.random_ordered_process(qubit_chain("AB"), np.random.default_rng(0))
    scaled = cs.ProcessMatrix(p.parties, p.w * scale)
    assert (cs.validate_process(scaled).validity == "valid") is valid
    assert cs.validate_bipartite_closed_form(scaled) is valid


def test_closed_form_rejects_wrong_structure(switch):
    with pytest.raises(ValueError, match="two parties"):
        cs.validate_bipartite_closed_form(switch)


# ---------------------------------------------------------------------------
# ordered construction

def test_make_ordered_is_valid(qubit_parties, rng):
    p = cs.validate_process(cs.random_ordered_process(list(qubit_parties), rng))
    assert p.validity == "valid"


def test_make_ordered_rejects_bad_channel(qubit_parties, rng):
    a, b = qubit_parties
    rho = cs.HermitianOperator(a.input_space, cs.random_density(2, rng))
    not_tp = cs.choi_of_kraus([np.eye(2) * 0.5], a.output_space, b.input_space)
    with pytest.raises(ValueError, match="trace-preserving"):
        cs.make_ordered_process([a, b], rho, [not_tp])
    with pytest.raises(ValueError, match="channels"):
        cs.make_ordered_process([a, b], rho, [])


def test_make_ordered_rejects_bad_state(qubit_parties, rng):
    a, b = qubit_parties
    ch = cs.choi_of_kraus([np.eye(2)], a.output_space, b.input_space)
    with pytest.raises(ValueError, match="trace"):
        cs.make_ordered_process([a, b], cs.identity(a.input_space), [ch])


def test_mixtures_of_valid_are_valid(qubit_parties, rng):
    for _ in range(5):
        t = rng.uniform()
        w = (cs.random_ordered_process([qubit_parties[0], qubit_parties[1]], rng).w * t
             + cs.random_ordered_process([qubit_parties[1], qubit_parties[0]], rng).w * (1 - t))
        p = cs.validate_process(cs.ProcessMatrix(qubit_parties, w))
        assert p.validity == "valid"


# ---------------------------------------------------------------------------
# the batched ordered draw

def qubit_qutrit_pair():
    """P: qubit in and out; Q: qutrit in and out, so the links are 2 -> 3
    and 3 -> 2."""
    return [cs.Party("P", cs.LabeledSpace("P_I", 2), cs.LabeledSpace("P_O", 2)),
            cs.Party("Q", cs.LabeledSpace("Q_I", 3), cs.LabeledSpace("Q_O", 3))]


DRAW_ORDERS = {
    "A<B": (qubit_chain("AB"), (0, 1)),
    "B<A": (qubit_chain("AB"), (1, 0)),
    "A<B<F": (cs.switch_parties(), (0, 1, 2)),
    "B<A<F": (cs.switch_parties(), (1, 0, 2)),
    "P<Q (2->3)": (qubit_qutrit_pair(), (0, 1)),
    "Q<P (3->2)": (qubit_qutrit_pair(), (1, 0)),
    "interleaved": (interleaved_parties(), (0, 1)),
}


@pytest.mark.parametrize("key", list(DRAW_ORDERS))
def test_batched_draw_matches_sequential_calls(key):
    parties, perm = DRAW_ORDERS[key]
    order = [parties[i] for i in perm]
    n = 6
    r_batch, r_ref, r_one = (np.random.default_rng(11) for _ in range(3))
    batch = cs.random_ordered_batch(order, r_batch, n)
    assert len(batch) == n
    for k in range(n):
        want = sequential_ordered_process(order, r_ref).w.mat
        got = batch.process(k).w.mat
        one = cs.random_ordered_process(order, r_one).w.mat
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.max(np.abs(one - want)) < 1e-14
    # all three leave the generator in the same state
    assert r_batch.normal() == r_ref.normal() == r_one.normal()


@pytest.mark.parametrize("key", list(DRAW_ORDERS))
def test_batch_traces_match_dense(key, rng):
    parties, perm = DRAW_ORDERS[key]
    batch = cs.random_ordered_batch([parties[i] for i in perm], rng, 5)
    space = cs.parties_space(batch.order)
    g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    g /= np.linalg.norm(g)
    dense = [batch.process(k).w.mat for k in range(5)]
    for op in (cs.HermitianOperator(space, (g + g.conj().T) / 2), cs.Operator(space, g)):
        got = batch.traces(op)
        assert got.shape == (5,)
        want = [np.trace(op.mat @ w) for w in dense]
        assert np.max(np.abs(got - want)) < 1e-13


def test_batched_checks_name_the_bad_sample(qubit_parties, rng):
    batch = cs.random_ordered_batch(qubit_parties, rng, 4)
    states, chois = batch.states.copy(), batch.channels[0].copy()
    states[3] *= 1.5
    with pytest.raises(ValueError, match=r"trace 1\.5 != 1 \(sample 3\)"):
        cp._check_pieces(batch.order, states, [chois])
    states[3] = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match=r"not positive semidefinite \(sample 3\)"):
        cp._check_pieces(batch.order, states, [chois])
    # the transpose map: trace-preserving, but its Choi is the swap
    chois[1] = np.eye(4)[[0, 2, 1, 3]]
    with pytest.raises(ValueError, match=r"channel 0 is not completely positive \(sample 1\)"):
        cp._check_pieces(batch.order, batch.states, [chois])
    chois[1] = batch.channels[0][1] * 0.5
    with pytest.raises(ValueError, match=r"channel 0 is not trace-preserving.*\(sample 1\)"):
        cp._check_pieces(batch.order, batch.states, [chois])
    cp._check_pieces(batch.order, batch.states, batch.channels)


def test_batched_draw_rejects_bad_sizes(rng):
    wide = cs.Party("W", cs.LabeledSpace("W_I", 2), cs.LabeledSpace("W_O", 4))
    end = cs.Party("E", cs.LabeledSpace("E_I", 1), cs.LabeledSpace("E_O", 1))
    with pytest.raises(ValueError, match="isometry"):
        cs.random_ordered_batch([wide, end], rng, 3)
    with pytest.raises(ValueError, match="n must be"):
        cs.random_ordered_batch(qubit_chain("AB"), rng, 0)


# ---------------------------------------------------------------------------
# switch

def test_switch_requires_normalized_inputs():
    with pytest.raises(ValueError, match="normalized"):
        cs.make_quantum_switch([1.0, 1.0], 1.0, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        cs.make_quantum_switch([1.0, 0.0], 1.0, 1.0)


def test_switch_amplitude_weights():
    qs = cs.make_quantum_switch([1.0, 0.0], 0.6, 0.8).to_matrix()
    p = cs.validate_process(qs)
    assert p.validity == "valid"
    # control populations carry the branch weights
    idx = p.w.space.index("F_c")
    dims = p.w.space.dims
    t = np.einsum("ii->i", p.w.mat).real.reshape(dims)
    axes = tuple(i for i in range(len(dims)) if i != idx)
    pops = t.sum(axis=axes)
    assert np.allclose(pops / pops.sum(), [0.36, 0.64])


def test_interference_decomposition_reconstructs(switch):
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    w_ab, w_ba, cross, cross_dag = cs.interference_decomposition(qs)
    recon = (w_ab + w_ba + cross + cross_dag) / 2
    assert (recon - switch.w).norm() < 1e-12
    # ordered parts are themselves valid processes
    for part in (w_ab, w_ba):
        p = cs.validate_process(cs.ProcessMatrix(switch.parties, part))
        assert p.validity == "valid"
    assert not cross.is_hermitian()


def test_interference_decomposition_needs_equal_amplitudes():
    qs = cs.make_quantum_switch([1.0, 0.0], 0.6, 0.8)
    with pytest.raises(ValueError, match="equal"):
        cs.interference_decomposition(qs)


def test_degenerate_switch_equals_ordered_construction():
    qs10 = cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0).to_matrix()
    a, b, f = cs.switch_parties(2)
    s = cs.switch_spaces(2)
    state = cs.HermitianOperator(a.input_space, np.outer([1.0, 0.0], [1.0, 0.0]))
    ch1 = cs.choi_of_kraus([np.eye(2)], a.output_space, b.input_space)
    embed = np.zeros((4, 2), dtype=complex)  # target -> (control=0, target)
    embed[0, 0] = 1.0
    embed[1, 1] = 1.0
    ch2 = cs.choi_of_kraus([embed], b.output_space, cs.SpaceProduct((s["F_c"], s["F_t"])))
    ordered = cs.make_ordered_process([a, b, f], state, [ch1, ch2])
    assert (qs10.w - ordered.w).norm() < 1e-12


def test_reduce_to_state(rng):
    m = cs.Party("M", cs.LabeledSpace("M_I", 2), cs.LabeledSpace("M_O", 1))
    rho = cs.random_density(2, rng)
    w = cs.tensor(cs.HermitianOperator(m.input_space, rho), cs.identity(m.output_space))
    p = cs.validate_process(cs.ProcessMatrix((m,), w))
    assert p.validity == "valid"
    assert np.allclose(cs.reduce_to_state(p).mat, rho)


def test_reduce_to_state_requires_trivial_outputs(switch):
    with pytest.raises(ValueError, match="nontrivial output"):
        cs.reduce_to_state(switch)


# ---------------------------------------------------------------------------
# the coefficient mask against the explicit spanning-tuple loop

def spanning_set(party):
    """Spanning set of the affine space {Hermitian C on I(x)O : Tr_O C = 1_I}.

    Elements are 1/d_O and 1/d_O + g_I (x) g_O with g_O traceless, so unit
    trace against every element certifies unit probability for all CPTP
    instruments by multilinearity. A trivial output yields the single
    element 1_I.
    """
    base = cs.identity(party.space) / party.output_dim
    out = [base]
    if party.output_dim == 1:
        return out
    for g_in in cs.hermitian_basis(party.input_dim):
        a = cs.HermitianOperator(party.input_space, g_in)
        for g_out in cs.hermitian_basis(party.output_dim)[1:]:
            out.append(base + cs.tensor(a, cs.HermitianOperator(party.output_space, g_out)))
    return out


def reference_table(p):
    """Tr[w C] for every tuple C of the parties' spanning-set elements, in
    itertools.product order. w is permuted to party-contiguous factor order
    (dim-1 factors dropped), where every C is a plain kron."""
    labels = [f.label for f in p.w.space.factors if f.dim > 1]
    dims = [f.dim for f in p.w.space.factors if f.dim > 1]
    perm = [labels.index(f.label) for q in p.parties for f in q.space.factors if f.dim > 1]
    n = len(perm)
    w = p.w.mat.reshape(dims * 2).transpose(perm + [n + i for i in perm])
    w = w.reshape(p.w.dim, p.w.dim)
    spans = [[c.mat for c in spanning_set(q)] for q in p.parties]
    return np.array([np.sum(w.T * functools.reduce(np.kron, combo)).real
                     for combo in itertools.product(*spans)])


def reference_verdict(p, lin_tol=cp.LIN_TOL):
    """(validity, worst |Tr[w C] - 1|) from the explicit spanning sweep."""
    worst = float(np.abs(reference_table(p) - 1.0).max())
    psd = np.linalg.eigvalsh(p.w.mat)[0] >= -cp.PSD_TOL
    return ("valid" if psd and worst <= lin_tol else "invalid"), worst


def off_subspace(base, rng):
    """base.w mixed half/half with white noise (smallest eigenvalue
    1/(2 d_in)), plus traceless Hermitian noise of spectral norm 1/(4 d_in):
    positive and of the right trace, but off the valid subspace."""
    d = base.w.dim
    d_in = d // base.expected_trace
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = (g + g.conj().T) / 2
    g -= np.trace(g) / d * np.eye(d)
    g /= 4 * d_in * np.abs(np.linalg.eigvalsh(g)).max()
    return (base.w.mat + np.eye(d) / d_in) / 2 + g


def corrupted_cases():
    rng = np.random.default_rng(21)
    switch = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    bases = {
        "bipartite": cs.random_ordered_process(qubit_chain("AB")[::-1], rng),
        "tripartite": cs.random_ordered_process(qubit_chain("ABC")[::-1], rng),
        "switch": switch,
        "interleaved": cs.random_ordered_process(interleaved_parties(), rng),
    }
    cases = {}
    for name, base in bases.items():
        negative = base.w.mat.copy()
        negative[0, 0] -= 0.5
        for kind, w in (("valid", base.w.mat), ("scaled", base.w.mat * 1.3),
                        ("noisy", off_subspace(base, rng)), ("negative", negative)):
            cases[f"{name}_{kind}"] = cs.ProcessMatrix(
                base.parties, cs.HermitianOperator(base.w.space, w))
    return cases


CORRUPTED = corrupted_cases()


@pytest.mark.parametrize("label", list(CORRUPTED))
def test_validity_matches_spanning_loop(label):
    p = CORRUPTED[label]
    v = cs.validate_process(p)
    rep = validity_report(p)
    want, worst = reference_verdict(p)
    assert v.validity == want, v.reason
    # each tuple residual is a signed sum of the trace residual and weighted
    # pattern coefficients, one unit-norm direction per pattern
    total = abs(rep["trace"] / rep["expected_trace"] - 1) + sum(rep["pattern_residuals"].values())
    assert worst <= total + 1e-12
    assert rep["max_normalization_residual"] <= total
    if label.endswith("_valid"):
        assert rep["max_normalization_residual"] < 1e-12


def test_corrupted_cases_reach_normalization():
    # the comparison above is only worth something if the corrupted cases
    # fail where intended: scaling moves only the trace, off-subspace noise
    # only the forbidden patterns
    for label, p in CORRUPTED.items():
        reason = cs.validate_process(p).reason or ""
        kind = label.rsplit("_", 1)[1]
        want = {"valid": "", "negative": "positivity:", "scaled": "normalization: trace ",
                "noisy": "normalization: signalling term on "}[kind]
        assert reason.startswith(want), (label, reason)


@pytest.mark.parametrize("n", [30, 40])
def test_validity_with_many_trivial_factors(n, rng):
    # 40 trivial parties put 2 + 80 factors on w, past numpy's 64-axis cap
    # for any array with an axis per factor
    p = qubit_with_trivial_parties(n, rng)
    v = cs.validate_process(p)
    assert v.validity == reference_verdict(p)[0] == "valid", v.reason
    bad = cs.ProcessMatrix(p.parties, p.w * 1.5)
    v = cs.validate_process(bad)
    assert v.validity == reference_verdict(bad)[0] == "invalid"
    assert v.reason.startswith("normalization: trace 3 != 2 (residual 5.0")
    assert validity_report(bad)["pattern_residuals"] == {"A_O": pytest.approx(0, abs=1e-15)}


def test_validate_then_report_sweeps_once(qubit_parties, monkeypatch):
    cp.validate_process(white_noise(qubit_parties))  # builds the per-structure mask
    calls = {"eigvalsh": 0, "to_coeffs": 0, "einsum": 0}

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    monkeypatch.setattr(_CoeffBasis, "to_coeffs", counted("to_coeffs", _CoeffBasis.to_coeffs))
    p = cp.validate_process(white_noise(qubit_parties))
    rep = validity_report(p)
    assert calls == {"eigvalsh": 1, "to_coeffs": 1, "einsum": 0}
    assert rep["max_normalization_residual"] < 1e-12
    # a replaced process sweeps its own w
    scaled = replace(p, w=p.w * 2.0)
    assert validity_report(scaled)["max_normalization_residual"] == pytest.approx(1.0)
    assert calls == {"eigvalsh": 2, "to_coeffs": 2, "einsum": 0}


def test_only_validate_process_writes_the_verdict(qubit_parties):
    p = cp.validate_process(white_noise(qubit_parties))
    assert p.validity == "valid"
    # a replaced w is a new operator: its verdict is unchecked, and the
    # checks downstream validate it again instead of trusting the old one
    doubled = replace(p, w=p.w * 2.0)
    assert (doubled.validity, doubled.reason) == ("unchecked", None)
    stale = "process is not valid: normalization: trace 8 != 4"
    with pytest.raises(ValueError, match=stale):
        cs.check_separability(doubled)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=stale):
        cs.born(doubled, [cs.random_instrument(q, 2, 2, rng) for q in qubit_parties])
    # nothing else can write it
    with pytest.raises(TypeError):
        cs.ProcessMatrix(qubit_parties, p.w * 5.0, validity="valid")
    with pytest.raises(TypeError):
        cs.ProcessMatrix(qubit_parties, p.w, reason=None)
    for name, value in (("validity", "valid"), ("reason", None)):
        with pytest.raises(ValueError, match="init=False"):
            replace(doubled, **{name: value})


def test_party_names_must_be_distinct():
    a = cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 2))
    x = cs.Party("A", cs.LabeledSpace("X_I", 2), cs.LabeledSpace("X_O", 2))
    with pytest.raises(ValueError, match="party names must be distinct; repeated: 'A'"):
        cs.ProcessMatrix((a, x), cs.identity(cs.parties_space((a, x))) / 4)


# ---------------------------------------------------------------------------
# one forbidden term on either side of lin_tol

EDGE_BASES = {
    "bipartite": qubit_chain("AB"),
    "tripartite": qubit_chain("ABC"),
    "switch": list(cs.switch_parties()),
    "P(2->3) Q(3->2)": interleaved_parties(),
}


def edge_base(key):
    """A valid process with eigenvalues >= 1/(2 d_in): an ordered process
    (the equal switch) mixed half/half with white noise."""
    parties = EDGE_BASES[key]
    if key == "switch":
        base = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    else:
        base = cs.random_ordered_process(parties, np.random.default_rng(8))
    return cs.ProcessMatrix(base.parties, (base.w + white_noise(base.parties).w) * 0.5)


def forbidden_term(parties, movers):
    """The product-basis element with the first traceless output element on
    every party in movers, an input element alternating between the
    identity and the first traceless one, and the identity elsewhere."""
    picks = {}
    for k, q in enumerate(movers):
        for f in q.inputs:
            picks[f.label] = k % 2
        for f in q.outputs:
            picks[f.label] = 1
    space = cs.parties_space(parties)
    mats = [cs.hermitian_basis(f.dim)[picks.get(f.label, 0)] for f in space.factors]
    return cs.HermitianOperator(space, functools.reduce(np.kron, mats))


def edge_cases():
    for key in EDGE_BASES:
        base = edge_base(key)
        movers = [q for q in base.parties if not q.trivial_output]
        for size in range(1, len(movers) + 1):
            for u in itertools.combinations(movers, size):
                yield key, base, u


@pytest.mark.parametrize("key,base,u", [pytest.param(*c, id=f"{c[0]}:{'+'.join(q.name for q in c[2])}")
                                        for c in edge_cases()])
@pytest.mark.parametrize("side", [0.5, 2.0])
def test_forbidden_term_near_lin_tol(key, base, u, side):
    assert cs.validate_process(base).validity == "valid"
    # w_U: prod over parties outside U of sqrt(d_I / d_O)
    weight = np.prod([np.sqrt(q.input_dim / q.output_dim) for q in base.parties if q not in u])
    eps = side * cp.LIN_TOL / weight
    p = cs.ProcessMatrix(base.parties, base.w + forbidden_term(base.parties, u) * eps)
    name = " (x) ".join(sorted(lab for q in u for lab in q.output_labels))
    v = cs.validate_process(p)
    rep = validity_report(p)
    want, worst = reference_verdict(p)
    assert v.validity == want == ("valid" if side < 1 else "invalid"), v.reason
    # one forbidden term moves its pattern residual exactly as much as the
    # worst spanning-tuple residual
    assert rep["pattern_residuals"][name] == pytest.approx(side * cp.LIN_TOL, rel=1e-5)
    assert worst == pytest.approx(side * cp.LIN_TOL, rel=1e-5)
    if side > 1:
        assert v.reason.startswith(f"normalization: signalling term on {name} (residual 2.0")


@pytest.mark.parametrize("key", list(EDGE_BASES))
@pytest.mark.parametrize("side", [0.5, 2.0])
def test_trace_near_lin_tol(key, side):
    base = edge_base(key)
    p = cs.ProcessMatrix(base.parties, base.w * (1 + side * cp.LIN_TOL))
    v = cs.validate_process(p)
    want, worst = reference_verdict(p)
    assert v.validity == want == ("valid" if side < 1 else "invalid"), v.reason
    assert worst == pytest.approx(side * cp.LIN_TOL, rel=1e-5)
    if side > 1:
        assert v.reason.startswith("normalization: trace ")


# ---------------------------------------------------------------------------
# validity is a property of the process, not of the local frame

@settings(derandomize=True, max_examples=15, deadline=None)
@given(kind=st.sampled_from(["valid", "scaled", "noisy", "negative"]),
       layout=st.sampled_from(["bipartite", "interleaved", "switch"]),
       seed=st.integers(0, 2**32 - 1))
def test_validity_invariant_under_local_unitaries(kind, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "switch":
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        theta = rng.uniform(0.1, 1.4)
        base = cs.make_quantum_switch(psi / np.linalg.norm(psi), np.cos(theta),
                                      np.sin(theta)).to_matrix()
    else:
        parties = qubit_chain("AB") if layout == "bipartite" else interleaved_parties()
        base = cs.random_ordered_process([parties[i] for i in rng.permutation(2)], rng)
    w = base.w.mat
    if kind == "scaled":
        w = w * rng.uniform(1.1, 2.0)
    elif kind == "noisy":
        w = off_subspace(base, rng)
    elif kind == "negative":
        w = w.copy()
        w[0, 0] -= 0.5
    p = cs.ProcessMatrix(base.parties, cs.HermitianOperator(base.w.space, w))
    u = local_unitary(p.w.space, rng).mat
    m = u @ w @ u.conj().T
    framed = cs.ProcessMatrix(p.parties, cs.HermitianOperator(p.w.space, (m + m.conj().T) / 2))
    v, vf = cs.validate_process(p), cs.validate_process(framed)
    assert vf.validity == v.validity == ("valid" if kind == "valid" else "invalid")
    assert (vf.reason or "").split(":")[0] == (v.reason or "").split(":")[0]

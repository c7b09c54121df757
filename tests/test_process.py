import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import process as cp
from causalis.process import validity_report
from conftest import interleaved_parties, qubit_chain, qubit_with_trivial_parties


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
    for _ in range(25):
        p = _random_valid(qubit_parties, rng) if rng.uniform() < 0.5 else _random_invalid(qubit_parties, rng)
        spanning = cs.validate_process(p).validity == "valid"
        closed = cs.validate_bipartite_closed_form(p)
        assert spanning == closed


def test_closed_form_rejects_wrong_structure(switch):
    with pytest.raises(ValueError, match="two parties"):
        cs.validate_bipartite_closed_form(switch)


# ---------------------------------------------------------------------------
# ordered construction

def test_make_ordered_is_valid(qubit_parties, rng):
    p = cs.random_ordered_process(list(qubit_parties), rng, validate=True)
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
# validity contraction against the explicit spanning-tuple loop

def reference_sweep(p):
    """Tr[w C] for every tuple C of spanning-set elements, in
    itertools.product order, with every C built by tensor()."""
    spans = [cp._spanning_set(party) for party in p.parties]
    for combo in itertools.product(*[range(len(s)) for s in spans]):
        c = cs.tensor(*[s[k] for s, k in zip(spans, combo)])
        yield combo, np.einsum("ij,ji->", p.w.mat, c.mat).real


def reference_first_violation(p, lin_tol=cp.LIN_TOL):
    for combo, val in reference_sweep(p):
        if abs(val - 1.0) > lin_tol:
            return combo, val
    return None


def reason_tuple(reason):
    m = re.search(r"Tr\[w C\] = (\S+) on CPTP spanning tuple \(([\d, ]*)\)", reason)
    assert m, reason
    return tuple(int(k) for k in m.group(2).split(",") if k.strip()), float(m.group(1))


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
    want_first = reference_first_violation(p)
    worst = max(abs(val - 1.0) for _, val in reference_sweep(p))
    assert abs(rep["max_normalization_residual"] - worst) < 1e-12
    if v.reason is not None and v.reason.startswith("positivity"):
        assert np.linalg.eigvalsh(p.w.mat)[0] < -cp.PSD_TOL
    elif want_first is None:
        assert v.validity == "valid", v.reason
    else:
        assert v.validity == "invalid"
        combo, val = reason_tuple(v.reason)
        assert combo == want_first[0]
        assert abs(val - want_first[1]) < 1e-9


def test_corrupted_cases_reach_normalization():
    # the comparison above is only worth something if the corrupted cases
    # fail where intended, noise at a tuple past the first
    for label, p in CORRUPTED.items():
        reason = cs.validate_process(p).reason or ""
        kind = label.rsplit("_", 1)[1]
        want = {"valid": "", "negative": "positivity"}.get(kind, "normalization")
        assert reason.startswith(want), (label, reason)
        if kind == "noisy":
            assert reason_tuple(reason)[0] != (0,) * len(p.parties), label


def test_validity_with_many_trivial_factors(rng):
    p = qubit_with_trivial_parties(30, rng)
    assert cs.validate_process(p).validity == "valid"
    bad = cs.validate_process(cs.ProcessMatrix(p.parties, p.w * 1.5))
    assert reason_tuple(bad.reason)[0] == (0,) * 31


def test_validate_then_report_sweeps_once(qubit_parties, monkeypatch):
    calls = []
    original = cp._contract
    monkeypatch.setattr(cp, "_contract", lambda *a: calls.append(1) or original(*a))
    p = cp.validate_process(white_noise(qubit_parties))
    rep = validity_report(p)
    assert len(calls) == 1
    assert rep["max_normalization_residual"] < 1e-12
    # a replaced process sweeps its own w
    scaled = replace(p, w=p.w * 2.0)
    assert validity_report(scaled)["max_normalization_residual"] == pytest.approx(1.0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# validity is a property of the process, not of the local frame

def local_unitary(space, rng):
    """U = u_1 (x) ... (x) u_m, one Haar unitary per factor."""
    return cs.tensor(*[cs.Operator(cs.SpaceProduct(f), cs.random_unitary(f.dim, rng))
                       for f in space.factors])


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

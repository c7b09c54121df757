import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import process, separability
from causalis.separability import _CoeffBasis, _default_orders
from conftest import (
    interleaved_parties,
    local_unitary,
    qubit_chain,
    sequential_ordered_process,
    unitary_channel_mixture,
)


@pytest.fixture(scope="module")
def traced_switch_cert():
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    w_ab = cs.partial_trace(qs.to_matrix().w, ("F_c", "F_t", "F_O"))
    parties = (
        cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 2)),
        cs.Party("B", cs.LabeledSpace("B_I", 2), cs.LabeledSpace("B_O", 2)),
    )
    p = cs.ProcessMatrix(parties, w_ab)
    return p, cs.check_separability(p)


# ---------------------------------------------------------------------------
# order cones

def test_cone_conditions_bipartite(qubit_parties):
    conds = cs.OrderCone(("A", "B")).conditions(qubit_parties)
    assert conds == [
        (frozenset({"B_I", "B_O"}), frozenset({"B_I", "B_O", "A_O"})),
        (frozenset(), frozenset({"B_O"})),
    ]


def test_cone_conditions_skip_trivial_output():
    parties = cs.switch_parties()
    conds = cs.OrderCone(("A", "B", "F")).conditions(parties)
    # F has a trivial output: no condition of its own, and its input spaces
    # show up in the earlier parties' "later" sets
    assert len(conds) == 2
    assert conds[0][0] == frozenset({"B_I", "B_O", "F_c", "F_t"})
    assert conds[1] == (frozenset({"F_c", "F_t"}), frozenset({"F_c", "F_t", "B_O"}))


def test_cone_must_cover_parties(qubit_parties):
    with pytest.raises(ValueError, match="does not cover"):
        cs.OrderCone(("A", "C")).conditions(qubit_parties)
    with pytest.raises(ValueError, match="does not cover"):
        cs.OrderCone(("A",)).conditions(qubit_parties)


def test_ordered_process_sits_in_its_cone(qubit_parties, rng):
    p = cs.random_ordered_process(list(qubit_parties), rng)
    assert cs.order_cone_residual(p, cs.OrderCone(("A", "B"))) < 1e-12
    # a generic A-first process signals forward, so the reversed cone fails
    assert cs.order_cone_residual(p, cs.OrderCone(("B", "A"))) > 1e-3


def test_white_noise_sits_in_both_cones(qubit_parties):
    space = cs.parties_space(qubit_parties)
    p = cs.ProcessMatrix(qubit_parties, cs.identity(space) / 4)
    assert cs.order_cone_residual(p, cs.OrderCone(("A", "B"))) < 1e-14
    assert cs.order_cone_residual(p, cs.OrderCone(("B", "A"))) < 1e-14


# ---------------------------------------------------------------------------
# coefficient engine

def labeled(dims):
    return cs.SpaceProduct(cs.LabeledSpace(f"X{k}", d) for k, d in enumerate(dims))


def random_hermitian(d, rng, lead=()):
    g = rng.normal(size=lead + (d, d)) + 1j * rng.normal(size=lead + (d, d))
    return g + g.conj().swapaxes(-1, -2)


UNBALANCED = [[2, 3], [1, 2, 2], [3, 3, 3], [2] * 5, [5, 2]]


def test_coeff_round_trip(qubit_parties, rng):
    space = cs.parties_space(qubit_parties)
    basis = _CoeffBasis(space)
    m = random_hermitian(16, rng)
    c = basis.to_coeffs(m)
    assert c.shape == (4, 4, 4, 4)
    assert np.max(np.abs(basis.from_coeffs(c) - m)) < 1e-12
    # the per-factor bases are orthonormal, so the map is an isometry
    assert abs(np.linalg.norm(c) - np.linalg.norm(m)) < 1e-10


@pytest.mark.parametrize("dims", UNBALANCED, ids=lambda d: "x".join(map(str, d)))
def test_coeff_round_trip_and_isometry_unbalanced(dims, rng):
    space = labeled(dims)
    basis = _CoeffBasis(space)
    m = random_hermitian(space.dim, rng)
    c = basis.to_coeffs(m)
    assert c.shape == tuple(d * d for d in dims)
    assert np.max(np.abs(basis.from_coeffs(c) - m)) < 1e-12
    assert abs(np.linalg.norm(c) - np.linalg.norm(m)) < 1e-10
    # every coefficient is Tr[B_k m] for the product of per-factor elements
    for k in rng.integers(0, c.size, size=8):
        idx = np.unravel_index(k, c.shape)
        b = np.ones((1, 1))
        for d, i in zip(dims, idx):
            b = np.kron(b, cs.hermitian_basis(d)[i])
        assert abs(c[idx] - np.einsum("ij,ji->", b, m).real) < 1e-12


@pytest.mark.parametrize("dims", UNBALANCED + [[2] * 4, [2, 2, 2, 2, 1, 2, 2]],
                         ids=lambda d: "x".join(map(str, d)))
def test_group_matrices_stay_within_bound(dims):
    basis = _CoeffBasis(labeled(dims))
    d_total = int(np.prod(dims))
    bound = max(d_total**2, max(dims) ** 4)
    assert int(np.prod(basis.group_dims)) == d_total
    for t in basis._fwd + basis._inv:
        assert t.size <= bound


def test_balanced_spaces_take_two_gemms(qubit_parties):
    # two groups means two GEMMs per basis change
    assert len(_CoeffBasis(cs.parties_space(qubit_parties)).group_dims) == 2
    assert len(_CoeffBasis(cs.parties_space(cs.switch_parties())).group_dims) == 2


@pytest.mark.parametrize("dims", [[2, 2, 2, 2], [5, 2], [2] * 5],
                         ids=lambda d: "x".join(map(str, d)))
def test_batched_basis_change_matches_per_item(dims, rng):
    space = labeled(dims)
    basis = _CoeffBasis(space)
    ms = random_hermitian(space.dim, rng, lead=(2, 3))
    cs_batched = basis.to_coeffs(ms)
    assert cs_batched.shape == (2, 3) + tuple(d * d for d in dims)
    back = basis.from_coeffs(cs_batched)
    psd = basis.project_psd_coeffs(cs_batched)
    for i in range(2):
        for j in range(3):
            c = basis.to_coeffs(ms[i, j])
            assert np.max(np.abs(cs_batched[i, j] - c)) < 1e-13
            assert np.max(np.abs(back[i, j] - basis.from_coeffs(c))) < 1e-13
            assert np.max(np.abs(psd[i, j] - basis.project_psd_coeffs(c))) < 1e-12


def test_mask_agrees_with_depolarize_projector(qubit_parties, rng):
    space = cs.parties_space(qubit_parties)
    basis = _CoeffBasis(space)
    conds = cs.OrderCone(("A", "B")).conditions(qubit_parties)
    mask = basis.mask_for_conditions(conds)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    op = cs.HermitianOperator(space, g + g.conj().T)
    masked = basis.from_coeffs(mask * basis.to_coeffs(op.mat))
    direct = op
    for s, so in conds:
        step = cs.depolarize(direct, sorted(s)) - cs.depolarize(direct, sorted(so))
        direct = direct - step
    assert np.max(np.abs(masked - direct.mat)) < 1e-12


def depolarize_cone_residual(p, cone):
    """The cone residual as depolarize chains, kept as the reference."""
    worst = 0.0
    for s, so in cone.conditions(p.parties):
        left = cs.depolarize(p.w, sorted(s)) if s else p.w
        right = cs.depolarize(p.w, sorted(so))
        worst = max(worst, (left - right).norm())
    return worst


def cone_cases(rng):
    """(process, orders) pairs: random valid ordered processes on qubit,
    interleaved 2/3-dim and switch parties, then corrupted copies."""
    cases = []
    for parties, orders in (
        (qubit_chain("AB"), [("A", "B"), ("B", "A")]),
        (interleaved_parties(), [("P", "Q"), ("Q", "P")]),
        (qubit_chain("ABC"), [("A", "B", "C"), ("C", "A", "B")]),
    ):
        by_name = {q.name: q for q in parties}
        for order in orders:
            p = cs.random_ordered_process([by_name[n] for n in order], rng)
            cases.append((p, orders))
            noise = random_hermitian(p.w.dim, rng) * 0.1
            cases.append((cs.ProcessMatrix(p.parties, p.w + cs.HermitianOperator(
                p.w.space, noise)), orders))
    switch = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    cases.append((switch, [("A", "B", "F"), ("B", "A", "F")]))
    return cases


def test_cone_residual_matches_depolarize_reference(rng):
    for p, orders in cone_cases(rng):
        for order in orders:
            cone = cs.OrderCone(order)
            got = cs.order_cone_residual(p, cone)
            want = depolarize_cone_residual(p, cone)
            assert abs(got - want) < 1e-12, (order, got, want)


def test_cone_residual_of_non_hermitian_operator(qubit_parties, rng):
    space = cs.parties_space(qubit_parties)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    p = cs.ProcessMatrix(qubit_parties, cs.Operator(space, g))
    cone = cs.OrderCone(("A", "B"))
    assert abs(cs.order_cone_residual(p, cone) - depolarize_cone_residual(p, cone)) < 1e-12


# ---------------------------------------------------------------------------
# feasibility: separable cases

def test_traced_switch_is_even_mixture(traced_switch_cert):
    p, cert = traced_switch_cert
    assert cert.separable and cert.trace.converged
    assert abs(cert.q - 0.5) < 1e-6
    assert cert.residual < 1e-7
    assert cert.iterations < 500
    assert cert.witness is None and not cert.witness_verified


def test_certificate_invariants(traced_switch_cert):
    p, cert = traced_switch_cert
    c0, c1 = cert.components
    assert np.linalg.eigvalsh(c0.mat)[0] > -1e-8
    assert np.linalg.eigvalsh(c1.mat)[0] > -1e-8
    assert (c0 + c1 - p.w).norm() < 1e-6
    assert cert.diagnostics["reconstruction"] < 1e-6
    assert max(cert.diagnostics["cone_residuals"]) < 1e-7
    assert abs(cert.q - c0.trace().real / p.w.trace().real) < 1e-12
    for c, cone in zip(cert.components, cert.trace.orders):
        assert cs.order_cone_residual(cs.ProcessMatrix(p.parties, c), cone) < 1e-6


def test_one_batched_eigh_per_iteration(monkeypatch, qubit_parties):
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    w_ab = cs.partial_trace(qs.to_matrix().w, ("F_c", "F_t", "F_O"))
    p = cs.validate_process(cs.ProcessMatrix(qubit_parties, w_ab))
    calls = []
    eigh = separability.np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(separability.np.linalg, "eigh", counting_eigh)
    cert = cs.check_separability(p)
    assert cert.separable and cert.iterations == 43
    assert len(calls) == 43
    assert set(calls) == {(2, 16, 16)}


def test_ocb_stalls_at_500_iterations():
    cert = cs.check_separability(cs.ocb_process(), attempt_witness=False)
    assert not cert.separable and cert.trace.stalled
    assert cert.iterations == 500


def test_residual_history_decreases(traced_switch_cert):
    hist = traced_switch_cert[1].trace.residual_history
    assert len(hist) == traced_switch_cert[1].iterations
    assert np.all(np.diff(hist) <= 1e-10)


def test_unitary_mixture_recovers_weight(qubit_parties, rng):
    p = unitary_channel_mixture(qubit_parties, rng, weight=0.3)
    cert = cs.check_separability(p)
    assert cert.separable
    assert abs(cert.q - 0.3) < 1e-4
    assert cert.diagnostics["reconstruction"] < 1e-6


def test_runs_are_deterministic(qubit_parties):
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    c1 = cs.check_separability(unitary_channel_mixture(qubit_parties, rng1, 0.5))
    c2 = cs.check_separability(unitary_channel_mixture(qubit_parties, rng2, 0.5))
    assert c1.residual == c2.residual
    assert c1.iterations == c2.iterations
    assert c1.q == c2.q
    assert np.array_equal(c1.trace.residual_history, c2.trace.residual_history)


def test_degenerate_switch_is_fully_ordered():
    qs = cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0)
    cert = cs.check_separability(qs.to_matrix())
    assert cert.separable
    assert abs(cert.q - 1.0) < 1e-6


@pytest.fixture(scope="module")
def frame_bases(traced_switch_cert):
    """Separable processes whose verdict, q and iteration count must not
    depend on the local frame."""
    mixture = unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(0), weight=0.3)
    return {"traced_switch": traced_switch_cert,
            "unitary_mixture": (mixture, cs.check_separability(mixture))}


@settings(derandomize=True, max_examples=10, deadline=None)
@given(kind=st.sampled_from(["traced_switch", "unitary_mixture"]),
       seed=st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_local_unitaries(frame_bases, kind, seed):
    # the order-cone masks only ask whether a factor carries the identity,
    # so a frame U = u_1 (x) ... (x) u_n commutes with every projection
    p, want = frame_bases[kind]
    u = local_unitary(p.w.space, np.random.default_rng(seed)).mat
    m = u @ p.w.mat @ u.conj().T
    framed = cs.ProcessMatrix(p.parties, cs.HermitianOperator(p.w.space, (m + m.conj().T) / 2))
    got = cs.check_separability(framed)
    assert got.separable and want.separable
    assert abs(got.q - want.q) < 1e-9
    assert got.iterations == want.iterations


# ---------------------------------------------------------------------------
# feasibility: nonseparable case

@pytest.fixture(scope="module")
def ocb_cert():
    p = cs.ocb_process()
    return p, cs.check_separability(
        p, max_iters=4000, stall_window=200,
        battery_per_order=100, battery_mixtures=100,
    )


def test_two_way_process_is_nonseparable(ocb_cert):
    p, cert = ocb_cert
    assert not cert.separable
    assert cert.residual > 1e-3
    assert cert.q is None and cert.components is None


def test_verdict_has_three_values(traced_switch_cert, ocb_cert, qubit_parties):
    p, cert = traced_switch_cert
    assert cert.verdict == "separable"
    noise = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    assert cs.check_separability(noise).verdict == "separable"
    assert ocb_cert[1].verdict == "nonseparable" and ocb_cert[1].trace.stalled
    # cut off before converging: neither verdict is shown, so not "nonseparable"
    cut = cs.check_separability(p, max_iters=10)
    assert cut.iterations == 10 and not (cut.trace.converged or cut.trace.stalled)
    assert not cut.separable and not cut.witness_verified
    assert cut.verdict == "undecided"


def test_certified_witness_decides_a_cut_off_run():
    cert = cs.check_separability(cs.ocb_process(), max_iters=10,
                                 battery_per_order=20, battery_mixtures=0)
    assert cert.iterations == 10 and not cert.trace.stalled
    assert cert.witness_verified and cert.verdict == "nonseparable"


def test_nonseparable_witness_verified(ocb_cert):
    p, cert = ocb_cert
    assert cert.witness_verified and cert.witness is not None
    s = cert.witness
    assert s.space == p.w.space
    assert abs(s.norm() - 1.0) < 1e-12
    overlap = np.einsum("ij,ij->", s.mat.conj(), p.w.mat).real
    assert overlap < -1e-5
    assert cert.diagnostics["battery_min"] >= -1e-7
    assert cert.diagnostics["witness_seed"] == 7


def test_witness_requires_failed_run(traced_switch_cert):
    p, cert = traced_switch_cert
    with pytest.raises(ValueError, match="failed feasibility"):
        cs.extract_witness(p, cert.trace, seed=0)


def seed_state_mixtures():
    """q W(A<B) + (1 - q) W(B<A) with random CPTP links from default_rng(1),
    separable by construction; mixtures 1 and 2 do not converge within 500
    iterations."""
    a, b = qubit_chain("AB")
    rng = np.random.default_rng(1)
    out = []
    for _ in range(5):
        q = rng.uniform()
        w_ab = cs.random_ordered_process([a, b], rng).w
        w_ba = cs.random_ordered_process([b, a], rng).w
        out.append(cs.ProcessMatrix((a, b), w_ab * q + w_ba * (1 - q)))
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_separable_mixture_gets_no_witness(k):
    # a run cut short is reported nonseparable, but no S in both dual cones
    # can score a separable W negative, so the exact check must refuse
    cert = cs.check_separability(seed_state_mixtures()[k], max_iters=500)
    assert not cert.separable and cert.iterations == 500
    assert cert.witness is None
    assert cert.witness_verified is False
    assert "rejected" in cert.diagnostics
    assert cert.diagnostics["witness_overlap"] > 0


def order_projection(op, cone, parties):
    """P_i(S) as a depolarize chain, the reference for the coefficient
    masks."""
    for s, so in cone.conditions(parties):
        op = op - (cs.depolarize(op, sorted(s)) - cs.depolarize(op, sorted(so)))
    return op


@pytest.fixture(scope="module")
def witness_certs(ocb_cert):
    return {"ocb": (cs.ocb_process(), cs.check_separability(cs.ocb_process())),
            "ocb_noisy": (noisy_ocb(), cs.check_separability(noisy_ocb())),
            "ocb_cert": ocb_cert}


@pytest.mark.parametrize("kind", ["ocb", "ocb_noisy", "ocb_cert"])
def test_witness_lies_in_both_dual_cones(witness_certs, kind):
    p, cert = witness_certs[kind]
    assert cert.witness_verified
    s = cert.witness
    margins = cert.diagnostics["certificate_margins"]
    assert len(margins) == 2
    for cone, margin in zip(cert.trace.orders, margins):
        low = np.linalg.eigvalsh(order_projection(s, cone, p.parties).mat)[0]
        assert low >= -1e-12
        assert abs(low - margin) < 1e-12
    overlap = np.einsum("ij,ji->", s.mat, p.w.mat).real
    assert abs(overlap - cert.diagnostics["witness_overlap"]) < 1e-12
    assert overlap < -1e-6


def test_witness_takes_no_eigh(monkeypatch, ocb_cert):
    p, cert = ocb_cert
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    witness, _ = cs.extract_witness(p, cert.trace, seed=7)
    assert witness is not None
    assert calls == []


def test_zero_dual_gives_no_witness(qubit_parties):
    # white noise has no part outside both subspaces, so with no dual the
    # witness is zero up to basis-change rounding and must be rejected
    # without a NaN
    p = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    cert = cs.check_separability(p)
    trace = dataclasses.replace(cert.trace, converged=False,
                                dual=np.zeros_like(cert.trace.dual))
    witness, diag = cs.extract_witness(p, trace, seed=7, samples_per_order=5,
                                       n_mixtures=5)
    assert witness is None and "rejected" in diag
    assert abs(diag["witness_overlap"]) < 1e-12
    assert np.all(np.abs(diag["certificate_margins"]) < 1e-12)
    assert np.isfinite(diag["battery_min"])


# ---------------------------------------------------------------------------
# witness battery

def reference_battery_min(p, cert):
    """The battery as it ran before the batched draw: one dense W per sample
    from sequential draws, Tr[S W] per sample, and every mixture formed as a
    matrix. Kept as the reference for the batched scores."""
    d = cert.diagnostics
    s = cert.witness.mat
    n = d["samples_per_order"]
    rng = np.random.default_rng(d["witness_seed"])
    by_name = {q.name: q for q in p.parties}
    battery_min = np.inf
    samples = []
    for cone in cert.trace.orders:
        batch = []
        for _ in range(n):
            wo = sequential_ordered_process([by_name[x] for x in cone.order], rng).w.mat
            batch.append(wo)
            battery_min = min(battery_min, float(np.einsum("ij,ij->", s.conj(), wo).real))
        samples.append(batch)
    for _ in range(d["n_mixtures"]):
        wa = samples[0][rng.integers(0, n)]
        wb = samples[1][rng.integers(0, n)]
        t = rng.uniform()
        wm = t * wa + (1 - t) * wb
        battery_min = min(battery_min, float(np.einsum("ij,ij->", s.conj(), wm).real))
    return battery_min


def noisy_ocb():
    ocb = cs.ocb_process()
    return cs.ProcessMatrix(ocb.parties, ocb.w * 0.9 + cs.identity(ocb.w.space) * (0.1 / 4))


@pytest.mark.parametrize("make", [cs.ocb_process, noisy_ocb], ids=["ocb", "ocb_noisy"])
def test_battery_matches_per_sample_reference(make):
    p = make()
    cert = cs.check_separability(p)
    assert cert.witness_verified
    assert cert.diagnostics["samples_per_order"] == 500
    assert cert.diagnostics["n_mixtures"] == 500
    assert abs(cert.diagnostics["battery_min"] - reference_battery_min(p, cert)) < 1e-12


def test_battery_draws_no_process_per_sample(monkeypatch):
    ocb = cs.ocb_process()
    calls = {"random_ordered_process": 0, "make_ordered_process": 0, "kron": 0}
    for name in ("random_ordered_process", "make_ordered_process"):
        def counting(*args, _name=name, _original=getattr(process, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(process, name, counting)
        monkeypatch.setattr(cs, name, counting)
    kron, einsum, traces = np.kron, np.einsum, process.OrderedBatch.traces
    einsums, scored = [0], []

    def counting_kron(*args, **kwargs):
        calls["kron"] += 1
        return kron(*args, **kwargs)

    def counting_einsum(*args, **kwargs):
        einsums[0] += 1
        return einsum(*args, **kwargs)

    def counting_traces(self, op):
        before = einsums[0]
        out = traces(self, op)
        scored.append((len(self), einsums[0] - before))
        return out

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(process.OrderedBatch, "traces", counting_traces)
    cert = cs.check_separability(ocb)
    assert cert.witness_verified
    # no ordered process, and no tensor product, is built per sample
    assert calls == {"random_ordered_process": 0, "make_ordered_process": 0, "kron": 0}
    # one scoring einsum per order, over all of its samples
    assert scored == [(500, 1), (500, 1)]


@pytest.mark.parametrize("per_order, mixtures", [
    (0, 0), (-3, 0), (0, 5), (-1, 5), (10, -1), (2.5, 0), (10, 1.0), (True, 0),
])
def test_rejects_empty_or_negative_battery(per_order, mixtures):
    with pytest.raises(ValueError, match="battery_(per_order|mixtures) must be an integer"):
        cs.check_separability(cs.ocb_process(), battery_per_order=per_order,
                              battery_mixtures=mixtures)


@pytest.mark.parametrize("kwargs, match", [
    ({"max_iters": 0}, "max_iters must be an integer >= 1"),
    ({"max_iters": -3}, "max_iters must be an integer >= 1"),
    ({"max_iters": 2.5}, "max_iters must be an integer >= 1"),
    ({"max_iters": True}, "max_iters must be an integer >= 1"),
    ({"stall_window": 0}, "stall_window must be an integer >= 1"),
    ({"stall_window": -5}, "stall_window must be an integer >= 1"),
    ({"tol": -1.0}, "tol must be finite and > 0"),
    ({"tol": 0.0}, "tol must be finite and > 0"),
    ({"tol": np.nan}, "tol must be finite and > 0"),
    ({"tol": np.inf}, "tol must be finite and > 0"),
])
@pytest.mark.parametrize("kind", ["ocb", "white_noise"])
def test_rejects_out_of_range_run_parameters(kind, kwargs, match, qubit_parties):
    if kind == "ocb":
        p = cs.ocb_process()
    else:
        p = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    with pytest.raises(ValueError, match=match):
        cs.check_separability(p, **kwargs)


def test_extract_witness_rejects_empty_battery(ocb_cert):
    p, cert = ocb_cert
    with pytest.raises(ValueError, match="samples_per_order must be an integer >= 1"):
        cs.extract_witness(p, cert.trace, seed=7, samples_per_order=0)
    with pytest.raises(ValueError, match="n_mixtures must be an integer >= 0"):
        cs.extract_witness(p, cert.trace, seed=7, n_mixtures=-1)
    # no mixtures is allowed: the per-order samples alone decide
    witness, diag = cs.extract_witness(p, cert.trace, seed=7, samples_per_order=20,
                                       n_mixtures=0)
    assert witness is not None and 0 <= diag["battery_min"] < np.inf


# ---------------------------------------------------------------------------
# input validation

def test_rejects_invalid_process(qubit_parties):
    space = cs.parties_space(qubit_parties)
    bad = cs.ProcessMatrix(qubit_parties, cs.identity(space))
    with pytest.raises(ValueError, match="not valid"):
        cs.check_separability(bad)


def test_requires_two_distinct_orders(qubit_parties):
    space = cs.parties_space(qubit_parties)
    p = cs.ProcessMatrix(qubit_parties, cs.identity(space) / 4)
    with pytest.raises(ValueError, match="exactly two distinct"):
        cs.check_separability(p, orders=[("A", "B")])
    with pytest.raises(ValueError, match="exactly two distinct"):
        cs.check_separability(p, orders=[("A", "B"), ("A", "B")])


def test_default_orders():
    a, b, f = cs.switch_parties()
    assert _default_orders((a, b)) == [("A", "B"), ("B", "A")]
    assert _default_orders((a, b, f)) == [("A", "B", "F"), ("B", "A", "F")]


def test_no_default_orders_for_three_full_parties(rng):
    parties = [
        cs.Party(nm, cs.LabeledSpace(f"{nm}_I", 2), cs.LabeledSpace(f"{nm}_O", 2))
        for nm in "ABC"
    ]
    p = cs.random_ordered_process(parties, rng)
    with pytest.raises(ValueError, match="no default order pair"):
        cs.check_separability(p)


# ---------------------------------------------------------------------------
# cross-module law

def test_separable_process_yields_causal_tables(qubit_parties, rng):
    p = unitary_channel_mixture(qubit_parties, rng, weight=0.4)
    p = cs.validate_process(p)
    assert p.validity == "valid"
    ins = [cs.random_instrument(party, 2, 2, rng) for party in p.parties]
    verdict = cs.is_causal(cs.born(p, ins))
    assert verdict.causal and verdict.residual < 1e-7

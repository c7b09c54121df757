import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import process, separability
from causalis.process import validity_report
from causalis.separability import _CoeffBasis, _default_orders
from conftest import (
    baumeler_wolf,
    interleaved_parties,
    local_unitary,
    ocb_with_discarded_outputs,
    order_conditions,
    qubit_chain,
    sequential_ordered_process,
    unitary_channel_mixture,
    unitary_ordered_process,
)


def traced_switch():
    """The equal qubit switch with F traced out, over A and B."""
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    return cs.ProcessMatrix(tuple(qubit_chain("AB")),
                            cs.partial_trace(qs.to_matrix().w, ("F_c", "F_t", "F_O")))


@pytest.fixture(scope="module")
def traced_switch_cert():
    p = traced_switch()
    return p, cs.check_separability(p)


# ---------------------------------------------------------------------------
# order cones

def test_cone_conditions_bipartite(qubit_parties):
    conds = order_conditions(("A", "B"), qubit_parties)
    assert conds == [
        (frozenset({"B_I", "B_O"}), frozenset({"B_I", "B_O", "A_O"})),
        (frozenset(), frozenset({"B_O"})),
    ]


def test_cone_conditions_skip_trivial_output():
    parties = cs.switch_parties()
    conds = order_conditions(("A", "B", "F"), parties)
    # F has a trivial output: no condition of its own, and its input spaces
    # show up in the earlier parties' "later" sets
    assert len(conds) == 2
    assert conds[0][0] == frozenset({"B_I", "B_O", "F_c", "F_t"})
    assert conds[1] == (frozenset({"F_c", "F_t"}), frozenset({"F_c", "F_t", "B_O"}))


def test_cone_must_cover_parties(qubit_parties):
    p = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    for order in [("A", "C"), ("A",), ("A", "A"), ("A", "B", "C")]:
        with pytest.raises(ValueError, match="does not cover"):
            cs.order_cone_residual(p, cs.OrderCone(order))
        with pytest.raises(ValueError, match="does not cover"):
            cs.check_separability(p, orders=[order, ("B", "A")])


def reference_mask(basis, conds):
    """1 - (D_S - D_{S+o}) for every condition pair, as a 0/1 coefficient
    mask: zero where the S indices are all identity and the o indices are
    not. Read from explicit index grids, kept as the reference for the
    pattern-id masks."""
    idx = np.indices(basis.shape)

    def identity_on(labels):
        return np.all([idx[basis.labels.index(lab)] == 0 for lab in labels]
                      + [np.ones(basis.shape, dtype=bool)], axis=0)

    mask = np.ones(basis.shape)
    for s, so in conds:
        mask[identity_on(s) & ~identity_on(so - s)] = 0.0
    return mask


def every_order(kind, parties):
    return [pytest.param(parties, order, id=f"{kind}-{''.join(order)}")
            for order in itertools.permutations(q.name for q in parties)]


@pytest.mark.parametrize("parties, order", [
    *every_order("qubit", qubit_chain("ABC")),
    *every_order("switch2", cs.switch_parties(2)),
    *every_order("switch3", cs.switch_parties(3)),
    *every_order("interleaved", interleaved_parties()),
])
def test_cone_masks_match_reference_conditions(parties, order):
    parties = tuple(parties)
    basis, _ = process._party_moves(parties)
    got = separability._cone_masks(parties, [cs.OrderCone(order)])[0]
    want = reference_mask(basis, order_conditions(order, parties))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dykstra_runs_on_the_reference_masks(monkeypatch, traced_switch_cert):
    p, want = traced_switch_cert
    seen = []
    dykstra = separability._dykstra

    def recording(basis, w, m, *args):
        seen.append((basis, m))
        return dykstra(basis, w, m, *args)

    monkeypatch.setattr(separability, "_dykstra", recording)
    got = cs.check_separability(p)
    (basis, m), = seen
    for mask, cone in zip(m, got.trace.orders):
        assert np.array_equal(mask, reference_mask(basis, order_conditions(cone.order, p.parties)))
    assert got.iterations == want.iterations


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
    for i in range(2):
        for j in range(3):
            c = basis.to_coeffs(ms[i, j])
            assert np.max(np.abs(cs_batched[i, j] - c)) < 1e-13
            assert np.max(np.abs(back[i, j] - basis.from_coeffs(c))) < 1e-13


@pytest.mark.parametrize("parties", [cs.ocb_parties(), cs.switch_parties(), cs.switch_parties(3)],
                         ids=["ocb", "switch", "qutrit_switch"])
def test_planned_basis_change_on_stacks_matches_per_item(parties, rng):
    # the shapes of a basis change are planned once per leading shape; a
    # (K, ...) stack and its items, each with its own plan, agree bit for bit
    basis = process._party_moves(tuple(parties))[0]
    for k in (1, 2, 6):
        ms = random_hermitian(basis.dim, rng, lead=(k,))
        c = basis.to_coeffs(ms)
        back = basis.from_coeffs(c)
        assert c.shape == (k,) + basis.shape and back.shape == ms.shape
        for i in range(k):
            assert np.array_equal(c[i], basis.to_coeffs(ms[i]))
            assert np.array_equal(back[i], basis.from_coeffs(c[i]))
    assert {(), (1,), (2,), (6,)} <= set(basis._plans)


@pytest.mark.parametrize("on_face", [False, True], ids=["cone", "face"])
@pytest.mark.parametrize("dims", [[2, 2, 2, 2], [5, 2], [2] * 5],
                         ids=lambda d: "x".join(map(str, d)))
def test_psd_step_matches_dense_eigh(dims, on_face, rng):
    # the one PSD step of the Dykstra loop, on a (2, 3) stack, against a
    # dense projection per item: eigh of M, or V P_psd(V^dag M V) V^dag
    space = labeled(dims)
    basis = _CoeffBasis(space)
    ms = random_hermitian(space.dim, rng, lead=(2, 3))
    v = np.eye(space.dim)
    if on_face:
        g = rng.normal(size=(space.dim, space.dim // 2)) + 1j * rng.normal(
            size=(space.dim, space.dim // 2))
        v = np.linalg.qr(g)[0]
    face = (v, v.conj().T) if on_face else (None, None)
    got = separability._project_psd(basis, basis.to_coeffs(ms), *face)
    for i in range(2):
        for j in range(3):
            e, u = np.linalg.eigh(v.conj().T @ ms[i, j] @ v)
            x = v @ u
            want = (x * np.clip(e, 0, None)) @ x.conj().T
            assert np.max(np.abs(basis.from_coeffs(got[i, j]) - want)) < 1e-12


def test_mask_agrees_with_depolarize_projector(qubit_parties, rng):
    space = cs.parties_space(qubit_parties)
    basis, _ = process._party_moves(qubit_parties)
    conds = order_conditions(("A", "B"), qubit_parties)
    mask = separability._cone_masks(qubit_parties, [cs.OrderCone(("A", "B"))])[0]
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
    for s, so in order_conditions(cone.order, p.parties):
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


def test_certificate_reads_verdict_fields_off_the_run(traced_switch_cert, ocb_cert):
    stored = [f.name for f in dataclasses.fields(cs.SeparabilityCertificate)]
    assert stored == ["witness", "diagnostics", "trace", "process"]
    assert [f.name for f in dataclasses.fields(cs.FeasibilityTrace)] == [
        "orders", "stalled", "residual_history", "perp", "summands", "dual"]
    for _, cert in (traced_switch_cert, ocb_cert):
        t = cert.trace
        assert (cert.separable, cert.residual, cert.iterations) == (
            t.converged, t.residual, t.iterations)
        # a run keeps the summands exactly when it converged
        assert t.converged == (t.summands is not None) == (t.dual is None)
        assert (t.residual, t.iterations) == (t.residual_history[-1], len(t.residual_history))
        assert type(t.residual) is float and type(t.iterations) is int
        assert cert.witness_verified == (cert.witness is not None)
        # each fact once: the run's perp and stall live on the trace only
        assert not {"perp", "stalled"} & set(cert.diagnostics)
        if cert.separable:
            tr = cert.components[0].trace().real / cert.process.w.trace().real
            assert cert.q == float(np.clip(tr, 0.0, 1.0))
        else:
            assert cert.q is None
    assert list(inspect.signature(cs.check_separability).parameters) == [
        "p", "orders", "tol", "max_iters"]
    # the witness is decided by its own bound, so no tolerance reaches it,
    # and its battery is fixed, so no seed or size does either
    assert list(inspect.signature(cs.extract_witness).parameters) == ["p", "trace"]


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
    # one eigh of W finds its rank-4 face, then one (K, r, r) eigh per iteration
    assert cert.separable and cert.iterations == 9
    assert cert.diagnostics["face_rank"] == 4
    assert calls == [(16, 16)] + [(2, 4, 4)] * 9
    # K orders take one (K, r, r) eigh: Baumeler-Wolf (rank 8) against all
    # six orders, certified on its face
    calls.clear()
    cert = cs.check_separability(baumeler_wolf(), max_iters=20)
    assert cert.iterations == 20 and cert.verdict == "nonseparable"
    assert "face_iterations" not in cert.diagnostics
    assert calls == [(64, 64)] + [(6, 8, 8)] * 20


def test_ocb_stalls_at_500_iterations():
    cert = cs.check_separability(cs.ocb_process())
    assert not cert.separable and cert.trace.stalled
    assert cert.iterations == 500
    assert cert.witness_verified and cert.verdict == "nonseparable"


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


def reference_dykstra(basis, w, m, cones, tol, max_iters, face=None):
    """The Dykstra loop written plainly: b + p and a + q formed twice each,
    the gap by np.linalg.norm and V† formed in every projection. Kept as
    the reference that `_dykstra` must match bit for bit; returns
    (residual_history, summands or None, dual or None)."""
    n = m.sum(axis=0)
    wc = basis.to_coeffs(w)
    wpar = wc * (n > 0)
    perp = float(np.linalg.norm(wc - wpar))
    keep = 1 - 1 / np.maximum(n, 1)

    def proj_affine(y):
        t = y * m
        r = (t.sum(axis=0) - wpar) * m
        return t - r + r * keep

    def project_psd(c):
        x = basis.from_coeffs(c)
        e, v = np.linalg.eigh(x if face is None else face.conj().T @ x @ face)
        np.clip(e, 0, None, out=e)
        if face is not None:
            v = face @ v
        return basis.to_coeffs((v * e[..., None, :]) @ v.conj().swapaxes(-1, -2))

    b = np.stack([wpar / len(m)] * len(m))
    p = np.zeros_like(b)
    q = np.zeros_like(b)
    hist = []
    for it in range(1, max_iters + 1):
        a = proj_affine(b + p)
        p = b + p - a
        nb = project_psd(a + q)
        q = a + q - nb
        gap = np.linalg.norm(a - nb)
        res = float(np.sqrt(gap**2 + perp**2))
        hist.append(res)
        b = nb
        if res < tol:
            break
        if it >= separability.STALL_WINDOW and it % separability.STALL_CHECK_EVERY == 0:
            old = hist[it - separability.STALL_WINDOW]
            if (old - res) / max(old, 1e-300) < separability.STALL_REL:
                break
    converged = hist[-1] < tol
    return np.asarray(hist), b * m if converged else None, None if converged else -q


def framed_unitary_mixture():
    """A unitary mixture in a random local frame. Run to tol 1e-20, its
    residuals show a change in how the residual is rounded (gap * gap for
    gap ** 2), which the other fixtures do not."""
    p = unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(0), weight=0.3)
    u = local_unitary(p.w.space, np.random.default_rng(14)).mat
    m = u @ p.w.mat @ u.conj().T
    return cs.ProcessMatrix(p.parties, cs.HermitianOperator(p.w.space, (m + m.conj().T) / 2))


@pytest.mark.parametrize("make, rank, tol, max_iters, iterations", [
    (traced_switch, 4, separability.SEP_TOL, separability.MAX_ITERS, 9),
    (cs.ocb_process, 8, separability.SEP_TOL, separability.MAX_ITERS, 500),
    (lambda: noisy_ocb(), 16, separability.SEP_TOL, separability.MAX_ITERS, 500),
    (baumeler_wolf, 8, separability.SEP_TOL, 60, 60),
    (framed_unitary_mixture, 7, 1e-20, 300, 300),
], ids=["traced_switch", "ocb", "ocb_noisy", "baumeler_wolf", "framed_mixture_tol_1e-20"])
def test_dykstra_matches_the_plain_loop_bit_for_bit(make, rank, tol, max_iters, iterations):
    p = make()
    basis = process._party_moves(p.parties)[0]
    cones = tuple(cs.OrderCone(o) for o in _default_orders(p.parties))
    masks = separability._cone_masks(p.parties, cones)
    face = separability._face(p.w.mat)
    assert (p.w.dim if face is None else face.shape[1]) == rank
    got = separability._dykstra(basis, p.w.mat, masks, cones, tol, max_iters, face)
    hist, summands, dual = reference_dykstra(basis, p.w.mat, masks, cones, tol, max_iters, face)
    assert got.iterations == iterations
    assert np.array_equal(got.residual_history, hist)
    for mine, ref in ((got.summands, summands), (got.dual, dual)):
        assert (mine is None) == (ref is None)
        assert mine is None or np.array_equal(mine, ref)


def degenerate_switch():
    return cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0).to_matrix()


def test_degenerate_switch_is_fully_ordered():
    # a pure W lying in the subspace of (A, B, F): decided in closed form,
    # with no Dykstra run, and its one residual is the reconstruction error
    p = degenerate_switch()
    cert, runs = retried(p)
    assert runs == []
    assert cert.diagnostics["face_rank"] == 1 and cert.iterations == 1
    assert "face_iterations" not in cert.diagnostics
    assert not cert.trace.stalled and cert.residual < separability.SEP_TOL
    near, far = cert.diagnostics["order_distances"]
    assert near < 1e-15 and abs(far - np.sqrt(1.5)) < 1e-12
    assert "closed form" in cert.diagnostics["verification"]
    assert_checked_decomposition(p, cert, 1.0)


def test_closed_form_agrees_with_a_face_run():
    # the face run the closed form replaces converges to the same split
    p = degenerate_switch()
    cert = cs.check_separability(p)
    basis = process._party_moves(p.parties)[0]
    masks = separability._cone_masks(p.parties, cert.trace.orders)
    face = separability._face(p.w.mat)
    run = separability._dykstra(basis, p.w.mat, masks, cert.trace.orders,
                                separability.SEP_TOL, separability.MAX_ITERS, face)
    assert run.converged and run.iterations == 163
    comps = basis.from_coeffs(run.summands)
    assert abs(comps[0].trace().real / p.w.trace().real - cert.q) < 1e-6
    for c, want in zip(comps, cert.components):
        assert np.abs(c - want.mat).max() < 1e-6


def test_pure_process_takes_one_eigh_and_no_psd_step(monkeypatch):
    # the rank-1 path stays a closed form: _face's eigh of W and nothing
    # iterative after it
    calls, steps = [], []
    eigh = separability.np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(separability.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(separability, "_project_psd", lambda *args: steps.append(args))
    cert = cs.check_separability(degenerate_switch())
    assert cert.separable and cert.iterations == 1
    assert calls == [(64, 64)] and steps == []


def test_pure_state_held_by_both_orders_splits_evenly():
    # parties with trivial outputs signal to no one, so a pure state on
    # A_I (x) B_I lies in both order subspaces and is split evenly between
    # them, which party relabelling maps to itself
    a = cs.Party("A", cs.LabeledSpace("A_I", 2), ())
    b = cs.Party("B", cs.LabeledSpace("B_I", 2), ())
    psi = cs.random_unitary(4, np.random.default_rng(5))[:, 0]
    w = cs.HermitianOperator(cs.parties_space((a, b)), np.outer(psi, psi.conj()))
    p = cs.validate_process(cs.ProcessMatrix((a, b), w))
    for q in (p, swap_two_parties(p)):
        cert, runs = retried(q, orders=[("A", "B"), ("B", "A")])
        assert runs == [] and cert.iterations == 1
        assert cert.diagnostics["face_rank"] == 1
        assert cert.diagnostics["order_distances"] == [0.0, 0.0]
        assert_checked_decomposition(q, cert, 0.5)
        assert np.allclose(cert.components[0].mat, cert.components[1].mat, rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def frame_bases(traced_switch_cert):
    """Separable processes whose verdict, q and iteration count must not
    depend on the local frame."""
    mixture = unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(0), weight=0.3)
    degenerate = degenerate_switch()
    return {"traced_switch": traced_switch_cert,
            "unitary_mixture": (mixture, cs.check_separability(mixture)),
            "degenerate_switch": (degenerate, cs.check_separability(degenerate))}


@settings(max_examples=10)
@given(kind=st.sampled_from(["traced_switch", "unitary_mixture", "degenerate_switch"]),
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


def swap_two_parties(p):
    """p with its two parties' names and factor labels exchanged (A_I <-> B_I,
    A_O <-> B_O, ...): the same process read in another canonical label
    order. Party k takes the other party's name and labels, and W's factors
    are permuted into the new canonical order."""
    a, b = p.parties
    relabel, parties = {}, []
    for q, other in ((a, b), (b, a)):
        relabel.update(zip(q.input_labels + q.output_labels,
                           other.input_labels + other.output_labels))
        parties.append(cs.Party(other.name,
                                [cs.LabeledSpace(relabel[f.label], f.dim) for f in q.inputs],
                                [cs.LabeledSpace(relabel[f.label], f.dim) for f in q.outputs]))
    factors = p.w.space.factors
    n = len(factors)
    perm = sorted(range(n), key=lambda i: relabel[factors[i].label])
    t = p.w.mat.reshape([f.dim for f in factors] * 2).transpose(perm + [n + i for i in perm])
    space = cs.SpaceProduct(cs.LabeledSpace(relabel[f.label], f.dim) for f in factors)
    return cs.ProcessMatrix(tuple(parties), cs.HermitianOperator(space, t.reshape(p.w.mat.shape)))


@settings(max_examples=8)
@given(seed=st.none() | st.integers(0, 2**32 - 1), weight=st.floats(0.1, 0.9))
@example(seed=None, weight=0.5)
def test_verdict_invariant_under_party_relabelling(traced_switch_cert, seed, weight):
    # seed None: the traced switch; else a seeded unitary mixture with A < B
    # of the given weight. Swapping the parties' names swaps the order
    # subspaces, so q, the weight of the first default order, maps to 1 - q
    if seed is None:
        p, want = traced_switch_cert
    else:
        p = unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(seed), weight)
        want = cs.check_separability(p)
    swapped = swap_two_parties(p)
    for q in (p, swapped):
        assert cs.validate_process(q).validity == "valid"
    rep, rep_swapped = validity_report(p), validity_report(swapped)
    names = {a: b for q, r in zip(p.parties, swapped.parties)
             for a, b in zip(q.output_labels, r.output_labels)}
    for key in ("min_eigenvalue", "max_normalization_residual", "trace"):
        assert abs(rep_swapped[key] - rep[key]) < 1e-12
    for name, r in rep["pattern_residuals"].items():
        moved = " (x) ".join(sorted(names[lab] for lab in name.split(" (x) ")))
        assert abs(rep_swapped["pattern_residuals"][moved] - r) < 1e-12
    # a new run, equal up to rounding, so q agrees to the run's tolerance
    got = cs.check_separability(swapped)
    assert got.verdict == want.verdict == "separable"
    assert abs(got.q - (1 - want.q)) < 1e-6


# ---------------------------------------------------------------------------
# feasibility: nonseparable case

@pytest.fixture(scope="module")
def ocb_cert():
    p = cs.ocb_process()
    return p, cs.check_separability(p, max_iters=4000)


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
    cut = cs.check_separability(p, max_iters=5)
    assert cut.iterations == 5 and not (cut.trace.converged or cut.trace.stalled)
    assert not cut.separable and not cut.witness_verified
    assert cut.verdict == "undecided"


def test_certified_witness_decides_a_cut_off_run():
    cert = cs.check_separability(cs.ocb_process(), max_iters=10)
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
        cs.extract_witness(p, cert.trace)


def seed_state_mixtures():
    """(q, q W(A<B) + (1 - q) W(B<A)) with random CPTP links from
    default_rng(1), separable by construction and of rank 12 of 16; on the
    whole PSD cone mixtures 1 and 2 did not converge within 20,000
    iterations."""
    a, b = qubit_chain("AB")
    rng = np.random.default_rng(1)
    out = []
    for _ in range(5):
        q = rng.uniform()
        w_ab = cs.random_ordered_process([a, b], rng).w
        w_ba = cs.random_ordered_process([b, a], rng).w
        out.append((q, cs.ProcessMatrix((a, b), w_ab * q + w_ba * (1 - q))))
    return out


def assert_checked_decomposition(p, cert, q):
    """The decomposition's evidence, recomputed from the components."""
    assert cert.verdict == "separable" and abs(cert.q - q) < 1e-6
    comps = cert.components
    assert (sum(comps[1:], comps[0]) - p.w).norm() <= 1e-6
    for c, cone in zip(comps, cert.trace.orders):
        assert np.linalg.eigvalsh(c.mat)[0] >= -1e-6
        assert cs.order_cone_residual(cs.ProcessMatrix(p.parties, c), cone) <= 1e-9


@pytest.mark.parametrize("k", range(5))
def test_seed_state_mixtures_are_separable_on_their_face(k):
    q, p = seed_state_mixtures()[k]
    cert = cs.check_separability(p)
    assert_checked_decomposition(p, cert, q)
    assert cert.diagnostics["face_rank"] == 12 and "face_iterations" not in cert.diagnostics
    assert cert.iterations == [300, 349, 72, 57, 90][k]


@pytest.mark.parametrize("k", [1, 2])
def test_separable_mixture_gets_no_witness(k):
    q, p = seed_state_mixtures()[k]
    assert cs.check_separability(p).verdict == "separable"
    # no S in both dual cones can score a separable W negative, so the
    # exact check must refuse on the face and on the whole cone, and the
    # run cut short stays undecided
    cert = cs.check_separability(p, max_iters=50)
    assert not cert.separable and cert.iterations == 50
    assert cert.diagnostics["face_iterations"] == 50
    assert cert.witness is None
    assert cert.witness_verified is False
    assert cert.verdict == "undecided"
    assert "rejected" in cert.diagnostics
    assert cert.diagnostics["witness_overlap"] > 0


def order_projection(op, cone, parties):
    """P_i(S) as a depolarize chain, the reference for the coefficient
    masks."""
    for s, so in order_conditions(cone.order, parties):
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
    witness, _ = cs.extract_witness(p, cert.trace)
    assert witness is not None
    assert calls == []


def test_zero_dual_gives_no_witness(qubit_parties):
    # white noise has no part outside both subspaces, so with no dual the
    # witness is zero up to basis-change rounding and must be rejected
    # without a NaN
    p = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    cert = cs.check_separability(p)
    trace = dataclasses.replace(cert.trace, summands=None,
                                dual=np.zeros_like(cert.trace.summands))
    assert not trace.converged
    witness, diag = cs.extract_witness(p, trace)
    assert witness is None and "rejected" in diag
    assert abs(diag["witness_overlap"]) < 1e-12
    assert np.all(np.abs(diag["certificate_margins"]) < 1e-12)
    assert np.isfinite(diag["battery_min"])


def test_witness_bound_scales_with_output_dimension():
    # every ordered X has Tr X = d_O = 16 here, so S must beat μ·Tr W, not μ
    p = cs.validate_process(ocb_with_discarded_outputs())
    assert p.validity == "valid" and p.w.dim == 64 and p.expected_trace == 16
    cert = cs.check_separability(p)
    assert cert.trace.stalled and cert.iterations == 500
    assert cert.witness_verified and cert.verdict == "nonseparable"
    d = cert.diagnostics
    bound = min(d["certificate_margins"]) * 16
    assert d["witness_overlap"] < bound and d["battery_min"] >= bound
    assert abs(d["witness_overlap"] - (-0.4783)) < 1e-4


# ---------------------------------------------------------------------------
# the face of the PSD cone that W spans

def retried(p, **kwargs):
    """check_separability, with the (face, trace) of every _dykstra run."""
    runs = []
    dykstra = separability._dykstra

    def recording(*args):
        runs.append((args[-1], dykstra(*args)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separability, "_dykstra", recording)
        return cs.check_separability(p, **kwargs), runs


def test_full_rank_run_is_the_whole_cone_run():
    # noisy OCB has rank D, so its face is the whole cone and the run is
    # the whole-cone run, bit for bit
    p = cs.validate_process(noisy_ocb())
    cert, runs = retried(p)
    (face, trace), = runs
    assert face is None and cert.trace is trace
    assert cert.diagnostics["face_rank"] == 16 and "face_iterations" not in cert.diagnostics
    basis = process._party_moves(p.parties)[0]
    masks = separability._cone_masks(p.parties, cert.trace.orders)
    whole = separability._dykstra(basis, p.w.mat, masks, cert.trace.orders,
                                  separability.SEP_TOL, separability.MAX_ITERS)
    assert np.array_equal(cert.trace.residual_history, whole.residual_history)
    assert np.array_equal(cert.trace.dual, whole.dual)
    # pinned at the whole-cone run's values
    assert cert.trace.stalled and cert.iterations == 500
    assert abs(cert.residual - 0.13639610306789507) < 1e-12
    assert abs(cert.diagnostics["witness_overlap"] - (-0.1574966536453274)) < 1e-12


def test_full_switch_is_certified_by_one_whole_cone_run(switch):
    # rank 1 of 64 and in neither order subspace: the ray {c W} holds no
    # feasible stack, so no face run is made and one whole-cone run decides
    cert, runs = retried(switch, max_iters=600)
    (face, trace), = runs
    assert face is None and cert.trace is trace and cert.iterations == 600
    assert cert.diagnostics["face_rank"] == 1
    assert "face_iterations" not in cert.diagnostics
    assert min(cert.diagnostics["order_distances"]) > separability.SEP_TOL
    assert cert.verdict == "nonseparable" and cert.diagnostics["witness_overlap"] < 0
    # it is the whole-cone run, bit for bit
    basis = process._party_moves(switch.parties)[0]
    masks = separability._cone_masks(switch.parties, cert.trace.orders)
    whole = separability._dykstra(basis, switch.w.mat, masks, cert.trace.orders,
                                  separability.SEP_TOL, 600)
    assert np.array_equal(cert.trace.residual_history, whole.residual_history)
    assert np.array_equal(cert.trace.dual, whole.dual)


def test_stalled_retry_is_certified(baumeler_wolf_cert):
    # Baumeler-Wolf against (ABC, BAC): both runs stall, and only the
    # whole-cone run's witness is certified
    p, _ = baumeler_wolf_cert
    cert, runs = retried(p, orders=[("A", "B", "C"), ("B", "A", "C")])
    assert [face is None for face, _ in runs] == [False, True]
    assert all(t.stalled for _, t in runs)
    assert cert.diagnostics["face_iterations"] == 550 and cert.iterations == 600
    assert cert.verdict == "nonseparable"
    assert abs(cert.diagnostics["witness_overlap"] - (-0.2868)) < 1e-4


def test_run_keeps_one_stack(traced_switch_cert, ocb_cert):
    p, cert = traced_switch_cert
    assert cert.trace.dual is None
    assert cert.trace.summands.dtype == float
    assert cert.trace.summands.shape == (2,) + process._party_moves(p.parties)[0].shape
    # components are rebuilt from the stack on each access, never cached
    first, second = cert.components, cert.components
    assert first is not second
    for x, y in zip(first, second):
        assert np.array_equal(x.mat, y.mat)
    _, failed = ocb_cert
    assert failed.trace.summands is None and failed.components is None
    assert failed.trace.dual is not None


def test_component_evidence_in_the_diagnostics(traced_switch_cert):
    p, cert = traced_switch_cert
    d = cert.diagnostics
    assert d["tol"] == separability.SEP_TOL and cert.residual < d["tol"]
    lows = [np.linalg.eigvalsh(c.mat)[0] for c in cert.components]
    assert np.allclose(d["component_min_eigenvalues"], lows, rtol=0, atol=1e-14)
    assert all(type(x) is float for x in d["component_min_eigenvalues"])


@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1), q=st.floats(0.05, 0.95))
def test_mixtures_of_two_orders_are_separable(seed, q):
    a, b = qubit_chain("AB")
    rng = np.random.default_rng(seed)
    w = (cs.random_ordered_process([a, b], rng).w * q
         + cs.random_ordered_process([b, a], rng).w * (1 - q))
    p = cs.ProcessMatrix((a, b), w)
    cert = cs.check_separability(p)
    assert_checked_decomposition(p, cert, q)


# ---------------------------------------------------------------------------
# witness battery

def reference_battery_min(p, cert):
    """The battery drawn sample by sample: one dense W per sample from
    sequential draws and Tr[S W] per sample, then one index array per order
    and the simplex weights of all mixtures, each mixture formed as a dense
    matrix over all K orders. Kept as the reference for the batched scores."""
    d = cert.diagnostics
    s = cert.witness.mat
    n, n_mix = d["samples_per_order"], d["n_mixtures"]
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
    picks = [rng.integers(0, n, size=n_mix) for _ in samples]
    weights = rng.dirichlet(np.ones(len(samples)), size=n_mix)
    for k in range(n_mix):
        wm = sum(weights[k, i] * batch[picks[i][k]] for i, batch in enumerate(samples))
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


def test_battery_is_drawn_once_per_structure(monkeypatch):
    separability._battery.cache_clear()
    draws = []

    def counting(order, rng, n, _original=separability.random_ordered_batch):
        draws.append((tuple(q.name for q in order), n))
        return _original(order, rng, n)

    monkeypatch.setattr(separability, "random_ordered_batch", counting)
    ocb, noisy = cs.ocb_process(), noisy_ocb()
    first, second = cs.check_separability(ocb), cs.check_separability(noisy)
    assert first.witness_verified and second.witness_verified
    # two W on one structure, one batch per order in all
    assert draws == [(("A", "B"), 500), (("B", "A"), 500)]
    # a repeated extraction reuses it; a new order list draws afresh
    draws.clear()
    cs.extract_witness(noisy, second.trace)
    assert draws == []
    cs.check_separability(noisy, orders=[("B", "A"), ("A", "B")])
    assert draws == [(("B", "A"), 500), (("A", "B"), 500)]
    batches, picks, weights = separability._battery(ocb.parties, (("A", "B"), ("B", "A")))
    arrays = [weights, *picks, *(x for b in batches for x in (b.states, *b.channels))]
    assert not any(x.flags.writeable for x in arrays)
    # the cached battery scores noisy OCB as a fresh draw does
    rng = np.random.default_rng(7)
    fresh = [process.random_ordered_batch(list(order), rng, 500)
             for order in (ocb.parties, ocb.parties[::-1])]
    scores = [b.traces(second.witness).real for b in fresh]
    picked = np.stack([s[rng.integers(0, 500, size=500)] for s in scores], axis=1)
    mixed = np.sum(rng.dirichlet(np.ones(2), size=500) * picked, axis=1)
    assert second.diagnostics["battery_min"] == float(min(min(s.min() for s in scores),
                                                          mixed.min()))


@pytest.mark.parametrize("kwargs, match", [
    ({"max_iters": 0}, "max_iters must be an integer >= 1"),
    ({"max_iters": -3}, "max_iters must be an integer >= 1"),
    ({"max_iters": 2.5}, "max_iters must be an integer >= 1"),
    ({"max_iters": True}, "max_iters must be an integer >= 1"),
    ({"max_iters": np.int64(0)}, "max_iters must be an integer >= 1"),
    ({"max_iters": "10"}, "max_iters must be an integer >= 1"),
    ({"tol": -1.0}, "tol must be finite and > 0"),
    ({"tol": 0.0}, "tol must be finite and > 0"),
    ({"tol": np.nan}, "tol must be finite and > 0"),
    ({"tol": np.inf}, "tol must be finite and > 0"),
])
@pytest.mark.parametrize("kind", ["ocb", "white_noise"])
def test_rejects_out_of_range_run_parameters(kind, kwargs, match, qubit_parties, monkeypatch):
    def no_run(*args):
        raise AssertionError("a run started before the parameters were checked")

    monkeypatch.setattr(separability, "_dykstra", no_run)
    if kind == "ocb":
        p = cs.ocb_process()
    else:
        p = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)) / 4)
    with pytest.raises(ValueError, match=match):
        cs.check_separability(p, **kwargs)


def test_extract_witness_rejects_empty_battery(ocb_cert):
    # the battery is fixed: no size, empty or not, and no seed is accepted
    p, cert = ocb_cert
    for kwargs in ({"battery": 0}, {"battery": 20}, {"seed": 7}):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            cs.extract_witness(p, cert.trace, **kwargs)
    # one battery size: as many mixtures as samples per order
    witness, diag = cs.extract_witness(p, cert.trace)
    assert witness is not None and 0 <= diag["battery_min"] < np.inf
    assert diag["samples_per_order"] == diag["n_mixtures"] == 500
    assert diag["witness_seed"] == 7


# ---------------------------------------------------------------------------
# input validation

def test_rejects_invalid_process(qubit_parties):
    space = cs.parties_space(qubit_parties)
    bad = cs.ProcessMatrix(qubit_parties, cs.identity(space))
    with pytest.raises(ValueError, match="not valid"):
        cs.check_separability(bad)


def test_requires_distinct_non_empty_orders(qubit_parties):
    space = cs.parties_space(qubit_parties)
    p = cs.ProcessMatrix(qubit_parties, cs.identity(space) / 4)
    for orders in ([], [("A", "B"), ("A", "B")], [("A", "B"), ("B", "A"), ("A", "B")]):
        with pytest.raises(ValueError, match="non-empty list of distinct orders"):
            cs.check_separability(p, orders=orders)
    # one order is a cone-membership test: white noise lies in every cone
    cert = cs.check_separability(p, orders=[("A", "B")])
    assert cert.verdict == "separable" and len(cert.components) == 1
    assert abs(cert.q - 1.0) < 1e-12


def test_default_orders():
    a, b, f = cs.switch_parties()
    assert _default_orders((a, b)) == [("A", "B"), ("B", "A")]
    assert _default_orders((a, b, f)) == [("A", "B", "F"), ("B", "A", "F")]
    assert _default_orders((f, b, a)) == [("A", "B", "F"), ("B", "A", "F")]


def test_default_orders_for_three_full_parties():
    # three parties with nontrivial outputs: all six orders
    assert _default_orders(tuple(qubit_chain("CAB"))) == list(itertools.permutations("ABC"))
    p = cs.random_ordered_process(qubit_chain("ABC"), np.random.default_rng(0))
    cert = cs.check_separability(p, max_iters=1)
    assert [c.order for c in cert.trace.orders] == list(itertools.permutations("ABC"))


# ---------------------------------------------------------------------------
# three parties

def test_baumeler_wolf_sits_in_no_order_cone():
    p = cs.validate_process(baumeler_wolf())
    assert p.validity == "valid"
    for order in itertools.permutations("ABC"):
        assert abs(cs.order_cone_residual(p, cs.OrderCone(order)) - np.sqrt(3)) < 1e-12


@pytest.fixture(scope="module")
def baumeler_wolf_cert():
    p = baumeler_wolf()
    return p, cs.check_separability(p)


def test_baumeler_wolf_is_nonseparable(baumeler_wolf_cert):
    p, cert = baumeler_wolf_cert
    assert [c.order for c in cert.trace.orders] == list(itertools.permutations("ABC"))
    assert cert.trace.stalled and cert.iterations == 550
    assert cert.diagnostics["face_rank"] == 8 and "face_iterations" not in cert.diagnostics
    assert cert.witness_verified and cert.verdict == "nonseparable"
    assert abs(cert.diagnostics["witness_overlap"] - (-0.2625)) < 1e-4
    margins = cert.diagnostics["certificate_margins"]
    assert len(margins) == 6 and min(margins) >= -1e-15


def test_baumeler_wolf_witness_in_every_dual_cone(baumeler_wolf_cert):
    # the depolarize-chain projections, not the masks, confirm the margins
    p, cert = baumeler_wolf_cert
    s = cert.witness
    for cone, margin in zip(cert.trace.orders, cert.diagnostics["certificate_margins"]):
        low = np.linalg.eigvalsh(order_projection(s, cone, p.parties).mat)[0]
        assert low >= -1e-12 and abs(low - margin) < 1e-12
    overlap = np.einsum("ij,ji->", s.mat, p.w.mat).real
    assert abs(overlap - cert.diagnostics["witness_overlap"]) < 1e-12


def test_stall_without_witness_is_undecided(traced_switch_cert):
    # the traced switch is separable, so no witness exists; below rounding
    # the residual cannot reach tol = 1e-20, so the face run and the
    # whole-cone retry both stall, the witness is rejected, and a stall
    # alone is no evidence of either verdict
    p, separable = traced_switch_cert
    assert separable.verdict == "separable"
    cert = cs.check_separability(p, tol=1e-20)
    assert cert.trace.stalled and cert.iterations == 600
    assert cert.diagnostics["face_iterations"] == 600
    assert cert.witness is None and "rejected" in cert.diagnostics
    assert cert.diagnostics["witness_overlap"] > 0
    assert cert.verdict == "undecided" and not cert.separable
    # the overlap and the battery minimum are reported against one bound
    bound = re.search(r"vs < (\S+),", cert.diagnostics["rejected"]).group(1)
    assert cert.diagnostics["rejected"].count(f"vs >= {bound}") == 1


def test_baumeler_wolf_pair_is_certified(baumeler_wolf_cert):
    # against (ABC, BCA) alone the witness read off the face run is
    # certified, where the whole-cone run's was rejected (overlap +0.222)
    p, _ = baumeler_wolf_cert
    cert = cs.check_separability(p, orders=[("A", "B", "C"), ("B", "C", "A")])
    assert cert.trace.stalled and cert.iterations == 550
    assert cert.verdict == "nonseparable" and "face_iterations" not in cert.diagnostics
    assert abs(cert.diagnostics["witness_overlap"] - (-0.1415)) < 1e-4


def test_three_party_white_noise_is_separable():
    p = baumeler_wolf()
    noise = cs.ProcessMatrix(p.parties, cs.identity(p.w.space) / 8)
    cert = cs.check_separability(noise)
    assert cert.verdict == "separable" and cert.iterations == 1
    assert len(cert.components) == 6 and abs(cert.q - 1 / 6) < 1e-12


def test_three_party_mixture_is_separable(rng):
    a, b, c = qubit_chain("ABC")
    w = (unitary_ordered_process((a, b, c), rng).w * 0.5
         + unitary_ordered_process((c, b, a), rng).w * 0.5)
    p = cs.validate_process(cs.ProcessMatrix((a, b, c), w))
    cert = cs.check_separability(p)
    assert cert.verdict == "separable" and cert.iterations < 500
    assert abs(cert.q - 0.5) < 1e-6
    weights = [x.trace().real / 8 for x in cert.components]
    assert np.allclose(weights, [0.5, 0, 0, 0, 0, 0.5], atol=1e-6)
    assert cert.diagnostics["reconstruction"] < 1e-6
    assert max(cert.diagnostics["cone_residuals"]) < 1e-7
    assert min(np.linalg.eigvalsh(x.mat)[0] for x in cert.components) > -1e-6


# ---------------------------------------------------------------------------
# cross-module law

def test_separable_process_yields_causal_tables(qubit_parties, rng):
    p = unitary_channel_mixture(qubit_parties, rng, weight=0.4)
    p = cs.validate_process(p)
    assert p.validity == "valid"
    ins = [cs.random_instrument(party, 2, 2, rng) for party in p.parties]
    verdict = cs.is_causal(cs.born(p, ins))
    assert verdict.causal and verdict.residual < 1e-7

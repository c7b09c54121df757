import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import process, separability, tensor_core
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


def order_set(parties, orders=None):
    """The library's cached order set of ``orders`` (default: every order
    of `_default_orders`), given as name sequences."""
    parties = tuple(parties)
    orders = _default_orders(parties) if orders is None else orders
    return separability._order_set(parties, tuple(cs.OrderCone(o) for o in orders))


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
    got = order_set(parties, [order]).masks[0]
    want = reference_mask(basis, order_conditions(order, parties))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not got.flags.writeable


def test_dykstra_runs_on_the_reference_masks(monkeypatch, traced_switch_cert):
    p, want = traced_switch_cert
    seen = []
    dykstra = separability._dykstra

    def recording(order_set, *args):
        seen.append(order_set)
        return dykstra(order_set, *args)

    monkeypatch.setattr(separability, "_dykstra", recording)
    got = cs.check_separability(p)
    run, = seen
    for mask, cone in zip(run.masks, got.trace.orders):
        assert np.array_equal(mask, reference_mask(run.basis,
                                                   order_conditions(cone.order, p.parties)))
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
    # the shapes of a basis change are fixed when the basis is built, with
    # every leading shape folded into one axis; a stack and its items agree
    # bit for bit
    basis = process._party_moves(tuple(parties))[0]
    for lead in ((1,), (2,), (6,), (2, 3)):
        ms = random_hermitian(basis.dim, rng, lead=lead)
        c = basis.to_coeffs(ms)
        back = basis.from_coeffs(c)
        assert c.shape == lead + basis.shape and back.shape == ms.shape
        for i in np.ndindex(*lead):
            assert np.array_equal(c[i], basis.to_coeffs(ms[i]))
            assert np.array_equal(back[i], basis.from_coeffs(c[i]))


def psd_stack(kind, d, rng, lead):
    """Hermitian (lead..., d, d) stacks: indefinite, positive definite
    (G G† + 1), or PSD of rank d // 4, singular on the cone and on a face
    of d // 2 columns."""
    if kind == "indefinite":
        return random_hermitian(d, rng, lead)
    cols = d if kind == "pd" else d // 4
    g = rng.normal(size=lead + (d, cols)) + 1j * rng.normal(size=lead + (d, cols))
    m = g @ g.conj().swapaxes(-1, -2)
    return m + np.eye(d) if kind == "pd" else m


@pytest.mark.parametrize("on_face", [False, True], ids=["cone", "face"])
def test_psd_step_runs_eigh_only_when_the_stack_is_not_positive_definite(
        monkeypatch, on_face, rng):
    # one whole-stack group by basis change, on the cone or compressed to a
    # face
    basis = _CoeffBasis(labeled([2, 2, 2]))
    groups = ((basis, (0, 1), None, None),)
    v = None
    if on_face:
        v = np.linalg.qr(rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))[0]
    step = separability._psd_step(groups, (2, 64), v)
    calls = []
    eigh = separability.np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(separability.np.linalg, "eigh", counting_eigh)
    r = 8 if v is None else 4
    pd = basis.to_coeffs(psd_stack("pd", 8, rng, (2,))).reshape(2, -1)
    indefinite = basis.to_coeffs(psd_stack("indefinite", 8, rng, (2,))).reshape(2, -1)
    got, clipped = step(pd)
    assert clipped is None and calls == []
    # the cone returns the stack as given, a face its compression
    if v is None:
        assert got is pd
    else:
        m = basis.from_coeffs(pd.reshape((2,) + basis.shape))
        want = v @ (v.conj().T @ m @ v) @ v.conj().T
        assert np.max(np.abs(basis.from_coeffs(got.reshape((2,) + basis.shape)) - want)) < 1e-12
    assert step(indefinite)[1] is True
    assert calls == [(2, r, r)]
    # without the gate, eigh runs on a positive-definite stack too and
    # reports that it clipped nothing
    assert step(pd, gate=False)[1] is False
    assert calls == [(2, r, r)] * 2


def test_mask_agrees_with_depolarize_projector(qubit_parties, rng):
    space = cs.parties_space(qubit_parties)
    basis, _ = process._party_moves(qubit_parties)
    conds = order_conditions(("A", "B"), qubit_parties)
    mask = order_set(qubit_parties, [("A", "B")]).masks[0]
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
        "orders", "stalled", "residual_history", "perp", "summands", "dual", "eigh_steps",
        "psd_dims"]
    for _, cert in (traced_switch_cert, ocb_cert):
        t = cert.trace
        assert (cert.separable, cert.residual, cert.iterations) == (
            t.converged, t.residual, t.iterations)
        # a run keeps the summands exactly when it converged
        assert t.converged == (t.summands is not None) == (t.dual is None)
        assert (t.residual, t.iterations) == (t.residual_history[-1], len(t.residual_history))
        assert type(t.residual) is float and type(t.iterations) is int
        assert cert.witness_verified == (cert.witness is not None)
        # each fact once: the run's perp, stall and eigh count live on the
        # trace only
        assert not {"perp", "stalled", "eigh_steps", "psd_dims"} & set(cert.diagnostics)
        assert type(t.eigh_steps) is int and 0 <= t.eigh_steps <= t.iterations
        # both runs are on a face: traced switch r = 4, OCB r = 8
        assert t.psd_dims == (cert.diagnostics["face_rank"],) * 2
        assert all(type(n) is int for n in t.psd_dims)
        if cert.separable:
            # q is read off the first summand's identity coefficient, so it
            # agrees with the rebuilt component's trace to rounding
            tr = cert.components[0].trace().real / cert.process.w.trace().real
            assert abs(cert.q - float(np.clip(tr, 0.0, 1.0))) <= 1e-15
            assert type(cert.q) is float
        else:
            assert cert.q is None
    assert list(inspect.signature(cs.check_separability).parameters) == [
        "p", "orders", "tol", "max_iters"]
    # the witness is decided by its own bound, so no tolerance reaches it,
    # and its battery is fixed, so no seed or size does either
    assert list(inspect.signature(cs.extract_witness).parameters) == ["p", "trace"]


def test_one_batched_eigh_per_iteration(monkeypatch, qubit_parties):
    # at most one batched (K, r, r) eigh per iteration, and only on a step
    # whose stack is not positive definite; the one batched Cholesky test
    # that decides it is skipped after a step that clipped
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    w_ab = cs.partial_trace(qs.to_matrix().w, ("F_c", "F_t", "F_O"))
    p = cs.validate_process(cs.ProcessMatrix(qubit_parties, w_ab))
    calls, tests = [], []
    eigh, cholesky = separability.np.linalg.eigh, separability.np.linalg.cholesky

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    def counting_cholesky(m, *args, **kwargs):
        tests.append(np.shape(m))
        return cholesky(m, *args, **kwargs)

    monkeypatch.setattr(separability.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(separability.np.linalg, "cholesky", counting_cholesky)
    builds = []
    face_maps = separability._face_maps

    def counting_maps(*args):
        builds.append(args[1].shape)
        return face_maps(*args)

    monkeypatch.setattr(separability, "_face_maps", counting_maps)
    # one eigh of W finds its rank-4 face; no step of the run clips. Every
    # step runs on the face map, built before the first step with no eigh
    cert = cs.check_separability(p)
    assert cert.separable and cert.iterations == 9
    assert cert.diagnostics["face_rank"] == 4 and cert.trace.eigh_steps == 0
    assert calls == [(16, 16)] and tests == [(2, 4, 4)] * 9 and builds == [(16, 4)]
    # K orders take one (K, r, r) test: Baumeler-Wolf (rank 8) against all
    # six orders, certified on its face
    calls.clear()
    tests.clear()
    cert = cs.check_separability(baumeler_wolf(), max_iters=20)
    assert cert.iterations == 20 and cert.verdict == "nonseparable"
    assert "face_iterations" not in cert.diagnostics
    assert calls == [(64, 64)] and tests == [(6, 8, 8)] * 20 and builds[1:] == [(64, 8)]
    # a unitary mixture (rank 7) clips on every step: one test, then one
    # (K, r, r) eigh per iteration
    calls.clear()
    tests.clear()
    cert = cs.check_separability(
        unitary_channel_mixture(qubit_parties, np.random.default_rng(0), weight=0.3))
    assert cert.separable and cert.iterations == cert.trace.eigh_steps == 15
    assert calls == [(16, 16)] + [(2, 7, 7)] * 15 and tests == [(2, 7, 7)]
    assert builds[2:] == [(16, 7)]


def test_eigh_runs_only_on_steps_that_clip():
    # OCB's face run never leaves the cone, here in a local frame, so no step
    # runs eigh; noisy OCB (full rank: the whole cone) clips on every step
    cert = cs.check_separability(in_local_frame(cs.ocb_process(), 3))
    assert cert.verdict == "nonseparable" and cert.trace.stalled
    assert cert.iterations == 500 and cert.trace.eigh_steps == 0
    cert = cs.check_separability(noisy_ocb())
    assert cert.verdict == "nonseparable" and cert.trace.stalled
    assert cert.iterations == cert.trace.eigh_steps == 500


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


def reference_dykstra(order_set, w, tol, max_iters, face=None, correction=False):
    """The Dykstra loop written plainly: a + q formed twice, the gap by
    np.linalg.norm, V† formed in every projection, one Cholesky
    per item for the gate and np.clip for the clipping. A face step runs
    through the library's face map (`_face_maps`) whenever the library
    builds one, from the first step on, as every other face step runs
    through its basis change. On the whole cone, each order's step runs on
    its reduced operator through the library's reduced basis, index and map
    (`_OrderSet.groups`): through the map, one group at a time, where the
    group has one, else by basis change one order at a time; a group with
    no gather positions, the whole stack when no order has an identity
    axis, takes the plain D x D step below instead, so that the library's
    grouped step is checked against code it does not share. Kept as the
    reference that `_dykstra` must match bit for bit; returns
    (residual_history, summands or None, dual or None, eigh steps).

    With ``correction`` it is Dykstra's loop in its textbook form: the
    affine step also carries a correction p (projecting b + p, then p = b +
    p - a) and subtracts r = excess ⊙ m as t - r + r (1 - 1/n). p is normal
    to the affine set, so it moves the run only by rounding."""
    basis, m = order_set.basis, order_set.masks
    n = m.sum(axis=0)
    wc = basis.to_coeffs(w)
    wpar = wc * (n > 0)
    perp = float(np.linalg.norm(wc - wpar))
    share = m / np.maximum(n, 1)
    keep = 1 - 1 / np.maximum(n, 1)
    fwd = None if face is None else separability._face_maps(basis, face)
    reduced = []
    if face is None:
        reduced = [(rbasis, at, gmap) for rbasis, _, at, gmap in order_set.groups
                   if at is not None]

    def proj_affine(y):
        t = y * m
        if not correction:
            return t - (t.sum(axis=0) - wpar) * share
        r = (t.sum(axis=0) - wpar) * m
        return t - r + r * keep

    def positive_definite(x):
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            return False
        return True

    def to_face(c):
        if fwd is not None:
            r = face.shape[1]
            return (c.reshape(len(c), -1) @ fwd).view(complex).reshape(len(c), r, r)
        x = basis.from_coeffs(c)
        return x if face is None else face.conj().T @ x @ face

    def from_face(x, c):
        if fwd is not None:
            return (x.reshape(len(x), -1).view(float) @ fwd.T).reshape(c.shape)
        return basis.to_coeffs(face @ x @ face.conj().T)

    def to_reduced(c, rbasis, at, gmap):
        # a map takes its group's stack in one GEMM: one row alone would
        # round differently from the same row in a stack
        ys = [c.ravel()[index] for index in at]
        if gmap is None:
            return [rbasis.from_coeffs(y) for y in ys]
        d = rbasis.dim
        return list((np.stack(ys).reshape(len(at), -1) @ gmap).view(complex).reshape(-1, d, d))

    def from_reduced(xs, rbasis, at, gmap):
        if gmap is None:
            return [rbasis.to_coeffs(x) for x in xs]
        return list((np.stack(xs).reshape(len(at), -1).view(float) @ gmap.T).reshape(at.shape))

    def project_reduced(c, last_clipped):
        # order i's item is Y_i (x) 1 in coefficients, and its projection
        # P_psd(Y_i) (x) 1
        x = [to_reduced(c, *group) for group in reduced]
        if not last_clipped and all(positive_definite(xi) for xs in x for xi in xs):
            return c, None
        out = np.zeros_like(c)
        clipped = False
        for group, xs in zip(reduced, x):
            parts = []
            for xi in xs:
                e, v = np.linalg.eigh(xi)
                clipped = clipped or bool(np.any(e < 0))
                e = np.clip(e, 0, None)
                parts.append((v * e) @ v.conj().T)
            for index, y in zip(group[1], from_reduced(parts, *group)):
                out.ravel()[index] = y
        return out, clipped

    def project_psd(c, last_clipped):
        # with no negative eigenvalue, the projection of M onto the cone is
        # M and onto a face V (V^dag M V) V^dag; a step after one that
        # clipped goes straight to eigh
        if reduced:
            return project_reduced(c, last_clipped)
        x = to_face(c)
        if not last_clipped and all(positive_definite(xi) for xi in x):
            return (c if face is None else from_face(x, c)), None
        e, v = np.linalg.eigh(x)
        clipped = bool(np.any(e < 0))
        e = np.clip(e, 0, None)
        if fwd is not None:
            return from_face((v * e[..., None, :]) @ v.conj().swapaxes(-1, -2), c), clipped
        if face is not None:
            v = face @ v
        return basis.to_coeffs((v * e[..., None, :]) @ v.conj().swapaxes(-1, -2)), clipped

    b = np.stack([wpar / len(m)] * len(m))
    p = np.zeros_like(b)
    q = np.zeros_like(b)
    hist = []
    clipped = None
    eigh_steps = 0
    for it in range(1, max_iters + 1):
        a = proj_affine(b + p if correction else b)
        if correction:
            p = b + p - a
        nb, clipped = project_psd(a + q, clipped)
        if clipped is not None:
            eigh_steps += 1
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
    return (np.asarray(hist), b * m if converged else None, None if converged else -q,
            eigh_steps)


def in_local_frame(p, seed):
    """p with W turned by a local unitary drawn from default_rng(seed)."""
    u = local_unitary(p.w.space, np.random.default_rng(seed)).mat
    m = u @ p.w.mat @ u.conj().T
    return cs.ProcessMatrix(p.parties, cs.HermitianOperator(p.w.space, (m + m.conj().T) / 2))


def framed_unitary_mixture():
    """A unitary mixture in a random local frame. Run to tol 1e-20, its
    residuals show a change in how the residual is rounded (gap * gap for
    gap ** 2), which the other fixtures do not."""
    p = unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(0), weight=0.3)
    return in_local_frame(p, 14)


def noisy_baumeler_wolf():
    """0.9 Baumeler-Wolf + 0.1 white noise: full rank, so its runs are on
    the whole cone, six orders with three different last parties."""
    p = baumeler_wolf()
    return cs.ProcessMatrix(p.parties, p.w * 0.9 + cs.identity(p.w.space) * (0.1 * 8 / 64))


def interleaved_mixture():
    """0.45 W(P<Q) + 0.45 W(Q<P) + 0.1 white noise on the qubit-qutrit
    parties of `interleaved_parties`: full rank, and the two orders' last
    outputs differ in dimension (B_q is 2, Z_p is 3)."""
    p, q = interleaved_parties()
    rng = np.random.default_rng(3)
    w1 = cs.random_ordered_process([p, q], rng).w
    w2 = cs.random_ordered_process([q, p], rng).w
    return cs.ProcessMatrix((p, q), w1 * 0.45 + w2 * 0.45 + cs.identity(w1.space) * (0.1 * 6 / 36))


def white_noise(parties):
    """The white process 1 / prod(d_I) on ``parties``: full rank, in every
    order's subspace, so a whole-cone run's first affine step is positive
    definite."""
    d_in = np.prod([q.input_dim for q in parties])
    return cs.ProcessMatrix(tuple(parties), cs.identity(cs.parties_space(parties)) / d_in)


def half_noisy_ocb():
    """0.5 OCB + 0.5 white noise: full rank, and separable at once."""
    ocb = cs.ocb_process()
    return cs.ProcessMatrix(ocb.parties, ocb.w * 0.5 + white_noise(ocb.parties).w * 0.5)


@pytest.mark.parametrize("make, rank, tol, max_iters, cap, iterations, eigh_steps", [
    (traced_switch, 4, separability.SEP_TOL, separability.MAX_ITERS, None, 9, 0),
    (cs.ocb_process, 8, separability.SEP_TOL, separability.MAX_ITERS, None, 500, 0),
    (lambda: noisy_ocb(), 16, separability.SEP_TOL, separability.MAX_ITERS, None, 500, 500),
    (baumeler_wolf, 8, separability.SEP_TOL, 60, None, 60, 0),
    (framed_unitary_mixture, 7, 1e-20, 300, None, 300, 300),
    (noisy_baumeler_wolf, 64, separability.SEP_TOL, 60, None, 60, 60),
    (interleaved_mixture, 36, separability.SEP_TOL, 60, None, 60, 60),
    (traced_switch, 4, separability.SEP_TOL, separability.MAX_ITERS, 0, 9, 0),
    (framed_unitary_mixture, 7, 1e-20, 300, 0, 300, 300),
    (lambda: white_noise(qubit_chain("ABC")), 64, separability.SEP_TOL, 60, None, 1, 0),
    (half_noisy_ocb, 16, separability.SEP_TOL, 60, None, 1, 0),
], ids=["traced_switch", "ocb", "ocb_noisy", "baumeler_wolf", "framed_mixture_tol_1e-20",
        "baumeler_wolf_noisy", "interleaved_mixture", "traced_switch_over_the_cap",
        "framed_mixture_tol_1e-20_over_the_cap", "white_noise_ABC", "ocb_half_noisy"])
def test_dykstra_matches_the_plain_loop_bit_for_bit(monkeypatch, make, rank, tol, max_iters, cap,
                                                    iterations, eigh_steps):
    # cap 0 puts every face over FACE_MAP_CAP, so the face runs change
    # basis around each step; the last two whole-cone runs pass the gate
    if cap is not None:
        monkeypatch.setattr(separability, "FACE_MAP_CAP", cap)
    p = make()
    orders = order_set(p.parties)
    face = separability._face(p.w.mat)
    assert (p.w.dim if face is None else face.shape[1]) == rank
    assert face is None or (separability._face_maps(orders.basis, face) is None) == (cap == 0)
    got = separability._dykstra(orders, orders.basis.to_coeffs(p.w.mat), tol, max_iters, face)
    hist, summands, dual, ref_eigh_steps = reference_dykstra(orders, p.w.mat, tol, max_iters,
                                                             face)
    assert got.iterations == iterations
    assert got.eigh_steps == ref_eigh_steps == eigh_steps
    assert np.array_equal(got.residual_history, hist)
    for mine, ref in ((got.summands, summands), (got.dual, dual)):
        assert (mine is None) == (ref is None)
        assert mine is None or np.array_equal(mine, ref)


def equal_switch():
    return cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()


@pytest.mark.parametrize("make, where, max_iters, converged", [
    (traced_switch, "face", separability.MAX_ITERS, True),
    (lambda: noisy_ocb(), "cone", 20, False),
    (lambda: white_noise(qubit_chain("ABC")), "cone", 60, True),
    (equal_switch, "cone", 3, False),
], ids=["traced_switch_face_map", "ocb_noisy_scatter", "white_noise_gate_passes",
        "switch_whole_stack"])
def test_traces_share_no_memory_with_run_buffers(monkeypatch, make, where, max_iters, converged):
    # the loop and its step reuse their buffers from one iteration to the
    # next; a returned trace's stack is its own, shared with no buffer that
    # the step was given or returned and with no other run's trace, and a
    # second run leaves it as it was
    p = make()
    ords = order_set(p.parties)
    face = separability._face(p.w.mat) if where == "face" else None
    seen, psd_step = {}, separability._psd_step

    def recording_step(*args):
        step = psd_step(*args)

        def run(c, gate):
            out = step(c, gate)
            seen.update({id(x): x for x in (c, out[0])})
            return out

        return run

    monkeypatch.setattr(separability, "_psd_step", recording_step)
    args = ords, ords.basis.to_coeffs(p.w.mat), separability.SEP_TOL, max_iters, face
    first = separability._dykstra(*args)
    kept = (first.summands if first.converged else first.dual).copy()
    second = separability._dykstra(*args)
    stacks = [t.summands if t.converged else t.dual for t in (first, second)]
    assert first.converged == second.converged == converged
    for x in stacks:
        assert not any(np.shares_memory(x, buf) for buf in seen.values())
    assert not np.shares_memory(*stacks)
    assert np.array_equal(stacks[0], kept) and np.array_equal(stacks[0], stacks[1])


@pytest.mark.parametrize("make, orders, max_iters, runs", [
    (cs.ocb_process, None, separability.MAX_ITERS, [("face", 500)]),
    (lambda: noisy_ocb(), None, separability.MAX_ITERS, [("cone", 500)]),
    (traced_switch, None, separability.MAX_ITERS, [("face", 9)]),
    (lambda: unitary_channel_mixture(qubit_chain("AB"), np.random.default_rng(0)), None,
     separability.MAX_ITERS, [("face", 12)]),
    (baumeler_wolf, None, separability.MAX_ITERS, [("face", 550)]),
    (baumeler_wolf, ("ABC", "BAC"), separability.MAX_ITERS, [("face", 550), ("cone", 600)]),
    (equal_switch, None, 600, [("cone", 600)]),
], ids=["ocb", "ocb_noisy", "traced_switch", "unitary_mixture", "baumeler_wolf",
        "baumeler_wolf_ABC_BAC", "switch_cut_at_600"])
def test_affine_correction_moves_runs_only_by_rounding(make, orders, max_iters, runs):
    # Dykstra's correction for the affine set is normal to it, so it never
    # changes that set's projection. The loop that carries it
    # (`reference_dykstra` with correction) and `_dykstra`, which does not,
    # run the same iterations and agree to rounding: residuals, final
    # stacks and the witness overlap read off a failed run's dual
    p = cs.validate_process(make())
    ords = order_set(p.parties, orders)
    wc = ords.basis.to_coeffs(p.w.mat)
    for where, iterations in runs:
        face = separability._face(p.w.mat) if where == "face" else None
        assert (face is None) == (where == "cone")  # every face case is rank-deficient
        got = separability._dykstra(ords, wc, separability.SEP_TOL, max_iters, face)
        hist, summands, dual, steps = reference_dykstra(ords, p.w.mat, separability.SEP_TOL,
                                                        max_iters, face, correction=True)
        assert got.iterations == len(hist) == iterations
        assert np.max(np.abs(got.residual_history - hist)) < 1e-12
        mine, ref = (got.summands, summands) if got.converged else (got.dual, dual)
        assert ref is not None and np.max(np.abs(mine - ref)) < 1e-10
        if not got.converged:
            ref_trace = dataclasses.replace(got, residual_history=hist, dual=dual,
                                            eigh_steps=steps)
            overlaps = [separability.extract_witness(p, t)[1]["witness_overlap"]
                        for t in (got, ref_trace)]
            assert abs(overlaps[0] - overlaps[1]) < 1e-12


# ---------------------------------------------------------------------------
# face maps: a long face run's PSD step past its switch point

FACE_MAP_CASES = [(traced_switch, 4), (cs.ocb_process, 8), (baumeler_wolf, 8),
                  (framed_unitary_mixture, 7)]
FACE_MAP_IDS = ["traced_switch", "ocb", "baumeler_wolf", "framed_mixture"]


def face_and_maps(make, rank):
    p = make()
    basis = process._party_moves(p.parties)[0]
    face = separability._face(p.w.mat)
    assert face.shape == (p.w.dim, rank)
    return basis, face, separability._face_maps(basis, face)


@pytest.mark.parametrize("make, rank", FACE_MAP_CASES, ids=FACE_MAP_IDS)
def test_face_maps_match_the_basis_change(make, rank, rng):
    # c @ fwd is V^dag M(c) V, with an exactly real diagonal, and X's float
    # view times fwd.T the coefficients of V X V^dag
    basis, face, fwd = face_and_maps(make, rank)
    d = face.shape[0]
    assert fwd.shape == (d * d, 2 * rank * rank) and fwd.dtype == float
    assert not fwd.flags.writeable
    c = basis.to_coeffs(random_hermitian(d, rng, (3,)))
    x = (c.reshape(3, -1) @ fwd).view(complex).reshape(3, rank, rank)
    want = face.conj().T @ basis.from_coeffs(c) @ face
    assert np.max(np.abs(x - want)) < 1e-13
    assert not np.diagonal(x, axis1=1, axis2=2).imag.any()
    h = random_hermitian(rank, rng, (3,))
    back = (h.reshape(3, -1).view(float) @ fwd.T).reshape(c.shape)
    assert np.max(np.abs(back - basis.to_coeffs(face @ h @ face.conj().T))) < 1e-13


def test_face_runs_switch_to_the_maps_when_they_fit(monkeypatch):
    # a face run takes every step through its map when the map's 2 N r^2
    # floats fit the cap: OCB (D = 16, r = 8) holds 2 * 256 * 64
    p = cs.ocb_process()
    basis = process._party_moves(p.parties)[0]
    face = separability._face(p.w.mat)
    assert separability._face_maps(basis, face).shape == (256, 128)
    assert 2 * 256 * 64 <= separability.FACE_MAP_CAP
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separability, "FACE_MAP_CAP", 2 * 256 * 64 - 1)
        assert separability._face_maps(basis, face) is None
    # a near-full-rank face (r = 15 of 16) builds its map once, before the
    # first step, and tracks the run whose map is over the cap, which
    # changes basis around every step instead
    w = noisy_ocb().w.mat
    near = np.linalg.eigh(w)[1][:, 1:]
    events, face_maps, psd_step = [], separability._face_maps, separability._psd_step

    def recording_maps(*args):
        fwd = face_maps(*args)
        events.append(None if fwd is None else fwd.shape)
        return fwd

    def recording_step(*args):
        step = psd_step(*args)
        return lambda *args, **kwargs: events.append("step") or step(*args, **kwargs)

    monkeypatch.setattr(separability, "_face_maps", recording_maps)
    monkeypatch.setattr(separability, "_psd_step", recording_step)
    args = order_set(p.parties, ("AB", "BA")), basis.to_coeffs(w), separability.SEP_TOL, 200, near
    run = separability._dykstra(*args)
    assert events == [(256, 450)] + ["step"] * 200 and run.iterations == 200
    events.clear()
    monkeypatch.setattr(separability, "FACE_MAP_CAP", 2 * 256 * 225 - 1)
    plain = separability._dykstra(*args)
    assert events == [None] + ["step"] * 200
    assert plain.eigh_steps == run.eigh_steps == 200
    assert np.allclose(run.residual_history, plain.residual_history, rtol=1e-12, atol=0)
    assert np.max(np.abs(run.dual - plain.dual)) < 1e-12


def test_short_unitary_mixture_run_is_unchanged(monkeypatch, qubit_parties):
    # a half/half unitary mixture (r = 7, K = 2) converges in 12
    # iterations. It builds its map once, before the first step, and takes
    # every step through it, bit for bit with the plain loop on that map;
    # without the map (over the cap) its run is the same to 1e-9
    p = cs.validate_process(unitary_channel_mixture(qubit_parties, np.random.default_rng(0)))
    face = separability._face(p.w.mat)
    builds, face_maps = [], separability._face_maps
    monkeypatch.setattr(separability, "_face_maps",
                        lambda *args: builds.append(args[1].shape) or face_maps(*args))
    cert = cs.check_separability(p)
    assert cert.separable and cert.iterations == 12 and builds == [(16, 7)]
    hist, summands, _, steps = reference_dykstra(
        separability._order_set(p.parties, cert.trace.orders), p.w.mat, separability.SEP_TOL,
        separability.MAX_ITERS, face)
    assert np.array_equal(cert.trace.residual_history, hist)
    assert np.array_equal(cert.trace.summands, summands) and cert.trace.eigh_steps == steps
    monkeypatch.setattr(separability, "FACE_MAP_CAP", 0)
    plain = cs.check_separability(p)
    assert plain.separable and plain.iterations == 12 and plain.trace.eigh_steps == steps
    assert np.max(np.abs(plain.trace.residual_history - cert.trace.residual_history)) < 1e-9
    assert np.max(np.abs(plain.trace.summands - cert.trace.summands)) < 1e-9
    assert abs(plain.q - cert.q) < 1e-9


# ---------------------------------------------------------------------------
# the whole cone: each order's PSD step on its reduced operator

REDUCED_CASES = [(lambda: noisy_ocb(), (8, 8)), (noisy_baumeler_wolf, (32,) * 6),
                 (interleaved_mixture, (18, 12))]
REDUCED_IDS = ["ocb_noisy", "baumeler_wolf_noisy", "interleaved_mixture"]


def reduced_setup(make):
    """(process, basis, masks, groups, in_s) for the default orders:
    in_s[i] is true on the coefficients that Y (x) 1 on order i's last
    party's output can have."""
    p = make()
    orders = order_set(p.parties)
    basis = orders.basis
    by_name = {q.name: q for q in p.parties}
    in_s = np.stack([np.broadcast_to(basis._identity_on(by_name[c.order[-1]].output_labels),
                                     basis.shape) for c in orders.cones])
    return p, basis, orders.masks, orders.groups, in_s


@pytest.mark.parametrize("make, dims", REDUCED_CASES, ids=REDUCED_IDS)
def test_reduced_groups_drop_each_orders_last_output(make, dims):
    # read off the masks alone, each order's identity axes are its last
    # party's output; orders of one reduced shape share one group
    _, basis, masks, groups, in_s = reduced_setup(make)
    sizes = {}
    for rbasis, orders, at, _ in groups:
        assert at.shape == (len(orders),) + rbasis.shape and not at.flags.writeable
        # grouped under the full D: no more GEMMs than the full basis, and
        # within its bound on a group matrix, max(D^2, d_max^4)
        assert len(rbasis.group_dims) <= len(basis.group_dims)
        assert max(t.size for t in rbasis._fwd) <= basis.dim ** 2
        for i, a in zip(orders, at):
            picked = np.zeros(masks.size, dtype=bool)
            picked[a.ravel()] = True
            picked = picked.reshape(masks.shape)
            assert np.array_equal(picked[i], in_s[i]) and picked.sum() == in_s[i].sum()
            sizes[i] = rbasis.dim
    assert tuple(sizes[i] for i in range(len(masks))) == dims
    assert len(groups) == len(set(dims))


@pytest.mark.parametrize("make, dims", REDUCED_CASES, ids=REDUCED_IDS)
def test_group_maps_are_cached_read_only_rows_of_the_basis(make, dims):
    # a group whose map holds at most 2^16 floats (d <= 13) keeps one,
    # cached with its gather positions; row k is the float view of B_k.
    # Noisy OCB's 8 x 8 and the qubit-qutrit mixture's 12 x 12 have one
    p, basis, masks, groups, _ = reduced_setup(make)
    assert order_set(p.parties).groups is groups
    mapped = []
    for rbasis, _, _, fwd in groups:
        assert (fwd is not None) == (2 * rbasis.dim ** 4 <= 2 ** 16)
        if fwd is not None:
            n = rbasis.dim ** 2
            assert fwd.shape == (n, 2 * n) and fwd.dtype == float and not fwd.flags.writeable
            assert np.max(np.abs(fwd - basis_map(rbasis))) < 1e-15
            mapped.append(rbasis.dim)
    assert mapped == [d for d in sorted(set(dims), key=dims.index) if d <= 13]


def test_large_groups_keep_the_basis_change(baumeler_wolf_cert):
    # Baumeler-Wolf against (ABC, BAC): both orders end with C, so one
    # 32 x 32 group, whose map would hold 2^21 floats; it has none
    p, _ = baumeler_wolf_cert
    (rbasis, orders, at, fwd), = order_set(p.parties, ("ABC", "BAC")).groups
    assert rbasis.dim == 32 and orders == (0, 1) and at is not None and fwd is None


def test_trivial_last_output_keeps_the_full_step(switch):
    # the switch's F comes last with a trivial output, so no order has an
    # identity axis: one 64 x 64 group over both orders, which gathers
    # nothing and has no map (it would hold 2^25 floats), and a whole-cone
    # run takes the D x D step of the plain loop, bit for bit
    both = order_set(switch.parties)
    (rbasis, orders, at, fwd), = both.groups
    assert rbasis.dim == 64 and orders == (0, 1) and at is None and fwd is None
    run = separability._dykstra(both, both.basis.to_coeffs(switch.w.mat), separability.SEP_TOL, 3)
    hist, _, dual, steps = reference_dykstra(both, switch.w.mat, separability.SEP_TOL, 3)
    assert run.psd_dims == (64, 64) and run.eigh_steps == steps == 3
    assert np.array_equal(run.residual_history, hist) and np.array_equal(run.dual, dual)


def test_whole_cone_mixes_a_full_and_a_reduced_group(switch):
    # against (A, B, F) and (A, F, B) only the second order has an identity
    # axis, B's output: a full 64 x 64 group beside a 32 x 32 one, each
    # with gather positions, bit for bit with the plain loop. The pair stays
    # undecided for 20,000 iterations, so the run is cut at 40
    pair = order_set(switch.parties, ("ABF", "AFB"))
    groups = pair.groups
    assert [(g.dim, orders) for g, orders, *_ in groups] == [(64, (0,)), (32, (1,))]
    assert all(at is not None and fwd is None for _, _, at, fwd in groups)
    run = separability._dykstra(pair, pair.basis.to_coeffs(switch.w.mat), separability.SEP_TOL,
                                40)
    hist, _, dual, steps = reference_dykstra(pair, switch.w.mat, separability.SEP_TOL, 40)
    assert run.iterations == 40 and run.psd_dims == (64, 32)
    assert run.eigh_steps == steps == 40
    assert np.array_equal(run.residual_history, hist) and np.array_equal(run.dual, dual)


LABELLED_DIMS = ([2, 2, 2, 2], [5, 2], [2] * 5)
STEP_CASES = ([("group", (dims, on_face)) for dims in LABELLED_DIMS for on_face in (False, True)]
              + [("group", ("switch", False))]
              + [("reduced", (make, False)) for make, _ in REDUCED_CASES]
              + [("reduced", (interleaved_mixture, True))]
              + [("maps", case) for case in FACE_MAP_CASES])
STEP_IDS = ([f"{'x'.join(map(str, dims))}-{where}" for dims in LABELLED_DIMS
             for where in ("cone", "face")] + ["switch"]
            + [f"reduced-{i}" for i in REDUCED_IDS] + ["reduced-interleaved_mixture-all_maps"]
            + [f"maps-{i}" for i in FACE_MAP_IDS])


def basis_map(rbasis):
    """The float view of every B_k of a basis, one row each: the from_coeffs
    of the unit coefficient vectors."""
    n = rbasis.dim ** 2
    rows = rbasis.from_coeffs(np.eye(n).reshape((n,) + rbasis.shape))
    return np.ascontiguousarray(rows).reshape(n, -1).view(float)


def fresh_step(groups, v=None):
    """The library's step on flat (K, N) stacks, built afresh for each call
    so that no call's projection is a buffer that a later call rewrites."""
    return lambda c, gate: separability._psd_step(groups, c.shape, v)(c, gate)


def step_case(rep, arg, rng):
    """One representation of the PSD step: (basis, step, draw, v, in_s).
    step(c, gate) is the library's step; draw(kind) gives a psd_stack of
    that kind as a flat (K, N) coefficient stack, of a form the step takes
    exactly; v is the face (None on the cone); in_s, on a reduced whole
    cone, is where each order's row may be nonzero."""
    if rep == "maps":
        basis, v, fwd = face_and_maps(*arg)
        d = basis.dim
        groups = ((basis, (0, 1, 2), None, fwd),)
        return (basis, fresh_step(groups, v),
                lambda kind: basis.to_coeffs(psd_stack(kind, d, rng, (3,)) / d).reshape(3, -1),
                v, None)
    if rep == "reduced":
        # the groups as the library builds them (noisy OCB's 8 x 8 and the
        # qubit-qutrit mixture's 12 x 12 through their maps, the rest by
        # basis change), or each given its map (18 x 18 too)
        make, all_maps = arg
        _, basis, masks, groups, in_s = reduced_setup(make)
        if all_maps:
            groups = tuple((g, orders, at, basis_map(g)) for g, orders, at, _ in groups)

        def draw(kind):
            # item i in S_i: a stack of each group's reduced operators Y
            c = np.zeros(masks.shape)
            for rbasis, _, at, _ in groups:
                ys = psd_stack(kind, rbasis.dim, rng, (len(at),)) / rbasis.dim
                c.put(at, rbasis.to_coeffs(ys))
            return c.reshape(len(c), -1)

        return basis, fresh_step(groups), draw, None, in_s.reshape(len(in_s), -1)
    # one whole-stack group: read off the switch's masks, or on a labelled
    # space, where it is given six items and may be compressed to a face
    dims, on_face = arg
    if dims == "switch":
        p = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
        basis = process._party_moves(p.parties)[0]
        groups = order_set(p.parties).groups
    else:
        basis = _CoeffBasis(labeled(dims))
        groups = ((basis, tuple(range(6)), None, None),)
    n, d = len(groups[0][1]), basis.dim
    v = None
    if on_face:
        v = np.linalg.qr(rng.normal(size=(d, d // 2)) + 1j * rng.normal(size=(d, d // 2)))[0]
    return (basis, fresh_step(groups, v),
            lambda kind: basis.to_coeffs(psd_stack(kind, d, rng, (n,))).reshape(n, -1), v, None)


@pytest.mark.parametrize("rep, arg", STEP_CASES, ids=STEP_IDS)
def test_psd_step_matches_dense_eigh(rep, arg, rng):
    # every representation of the one PSD step of the Dykstra loop (one
    # whole-stack group, each order's reduced operator by basis change or
    # through its map, a face by basis change or through its map) against a
    # dense projection per item: eigh
    # of M, or V P_psd(V^dag M V) V^dag on a face, whether the Cholesky gate
    # takes the step or eigh does. A reduced step leaves zeros off S_i
    basis, step, draw, v, in_s = step_case(rep, arg, rng)
    for kind in ("indefinite", "pd", "singular_psd"):
        c = draw(kind)
        got, clipped = step(c, True)
        assert got.shape == c.shape
        if kind == "indefinite":
            assert clipped is True
        elif kind == "pd":
            # the whole cone returns the stack it was given, a face its
            # compression; without the gate, eigh runs and reports that it
            # clipped nothing
            assert clipped is None and (got is c) == (v is None)
            assert step(c, False)[1] is False
        if in_s is not None:
            assert not got[~in_s].any()
        ms = basis.from_coeffs(c.reshape((len(c),) + basis.shape))
        for i in range(len(c)):
            e, u = np.linalg.eigh(ms[i] if v is None else v.conj().T @ ms[i] @ v)
            if kind == "singular_psd" and in_s is not None:
                assert abs(e[0]) < 1e-12 and e[-1] > 0.1
            x = u if v is None else v @ u
            want = (x * np.clip(e, 0, None)) @ x.conj().T
            got_i = basis.from_coeffs(got[i].reshape(basis.shape))
            assert np.max(np.abs(got_i - want)) < 1e-12, kind


@pytest.mark.parametrize("make, dims", REDUCED_CASES, ids=REDUCED_IDS)
def test_whole_cone_stacks_stay_in_the_reduced_space(make, dims):
    # the affine step keeps the masks' exact zeros and the PSD step
    # scatters into zeros, so the dual is exactly zero off S_i
    p, basis, _, _, in_s = reduced_setup(make)
    run = separability._dykstra(order_set(p.parties), basis.to_coeffs(p.w.mat),
                                separability.SEP_TOL, 20)
    assert run.iterations == 20 and run.psd_dims == dims
    assert not run.dual[~in_s].any() and run.dual[in_s].any()


def test_relabelled_noisy_ocb_keeps_its_whole_cone_verdict():
    # A <-> B permutes the factors, so each order's identity axis is found
    # on the other party's output; the run and its witness agree to rounding
    p = noisy_ocb()
    want = cs.check_separability(p)
    got = cs.check_separability(permute_parties(p, (1, 0)))
    for cert in (want, got):
        assert cert.verdict == "nonseparable" and cert.trace.stalled
        assert cert.iterations == cert.trace.eigh_steps == 500
        assert cert.trace.psd_dims == (8, 8) and cert.diagnostics["face_rank"] == 16
    assert abs(got.diagnostics["witness_overlap"] - want.diagnostics["witness_overlap"]) < 1e-9


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
    assert cert.trace.psd_dims == ()  # no PSD step
    # the trace keeps W's shares, not a (K, N) stack; the certificate
    # rebuilds the masked summands from the coefficients validation kept
    assert cert.trace.summands.tolist() == [1.0, 0.0]
    masks = separability._order_set(p.parties, cert.trace.orders).masks
    wc = process._validity_sweep(cert.process)[2]
    shares = np.array([1.0, 0.0]).reshape((2,) + (1,) * wc.ndim)
    assert np.array_equal(cert._summands(), masks * wc * shares)
    assert_checked_decomposition(p, cert, 1.0)


def test_closed_form_agrees_with_a_face_run():
    # the face run the closed form replaces converges to the same split
    p = degenerate_switch()
    cert = cs.check_separability(p)
    basis = process._party_moves(p.parties)[0]
    face = separability._face(p.w.mat)
    run = separability._dykstra(separability._order_set(p.parties, cert.trace.orders),
                                basis.to_coeffs(p.w.mat), separability.SEP_TOL,
                                separability.MAX_ITERS, face)
    assert run.converged and run.iterations == 163
    comps = basis.from_coeffs(run.summands)
    assert abs(comps[0].trace().real / p.w.trace().real - cert.q) < 1e-6
    for c, want in zip(comps, cert.components):
        assert np.abs(c - want.mat).max() < 1e-6


def test_pure_process_takes_no_eigh_and_no_psd_step(monkeypatch):
    # the rank-1 path stays a closed form: its rank comes from validation's
    # eigenvalues, so no eigh of W, and nothing iterative after it
    calls, steps = [], []
    eigh = separability.np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(separability.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(separability, "_psd_step", lambda *args: steps.append(args))
    cert = cs.check_separability(degenerate_switch())
    assert cert.separable and cert.iterations == 1
    assert calls == [] and steps == []


def random_ordered_mixture(seed):
    """q W(A<B) + (1 - q) W(B<A) on two qubit parties, q from the seed: rank
    up to 16."""
    rng = np.random.default_rng(seed)
    a, b = qubit_chain("AB")
    q = rng.uniform()
    return cs.ProcessMatrix((a, b), cs.random_ordered_process([a, b], rng).w * q
                            + cs.random_ordered_process([b, a], rng).w * (1 - q))


@pytest.mark.parametrize("make, rank", [
    (traced_switch, 4), (cs.ocb_process, 8), (lambda: noisy_ocb(), 16), (baumeler_wolf, 8),
    (framed_unitary_mixture, 7), (noisy_baumeler_wolf, 64), (interleaved_mixture, 36),
    (lambda: white_noise(qubit_chain("ABC")), 64), (half_noisy_ocb, 16), (degenerate_switch, 1),
    (equal_switch, None), (ocb_with_discarded_outputs, None),
] + [(lambda seed=seed: random_ordered_mixture(seed), None) for seed in range(6)],
    ids=["traced_switch", "ocb", "ocb_noisy", "baumeler_wolf", "framed_mixture",
         "baumeler_wolf_noisy", "interleaved_mixture", "white_noise_ABC", "ocb_half_noisy",
         "degenerate_switch", "equal_switch", "ocb_discarded_outputs"]
        + [f"ordered_mixture-{seed}" for seed in range(6)])
def test_rank_from_validation_matches_the_face(make, rank):
    # check_separability reads the rank off validation's eigvalsh of W and
    # calls _face only between 1 and D; _face's eigh must count the same
    p = cs.validate_process(make())
    got = int(np.count_nonzero(separability._ranked(process._validity_sweep(p)[0])))
    face = separability._face(p.w.mat)
    assert got == (p.w.dim if face is None else face.shape[1])
    assert rank is None or got == rank


def test_pure_state_held_by_both_orders_splits_evenly():
    # parties with trivial outputs signal to no one, so a pure state on
    # A_I (x) B_I lies in both order subspaces and is split evenly between
    # them, which party relabelling maps to itself
    a = cs.Party("A", cs.LabeledSpace("A_I", 2), ())
    b = cs.Party("B", cs.LabeledSpace("B_I", 2), ())
    psi = cs.random_unitary(4, np.random.default_rng(5))[:, 0]
    w = cs.HermitianOperator(cs.parties_space((a, b)), np.outer(psi, psi.conj()))
    p = cs.validate_process(cs.ProcessMatrix((a, b), w))
    for q in (p, permute_parties(p, (1, 0))):
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
    got = cs.check_separability(in_local_frame(p, seed))
    assert got.separable and want.separable
    assert abs(got.q - want.q) < 1e-9
    assert got.iterations == want.iterations


def permute_parties(p, perm):
    """p with party k renamed as party perm[k], factor labels included (A_I
    -> B_I, A_O -> B_O, ... when perm[0] is B's index): the same process
    read in another canonical label order. Party k keeps its factors and
    their dims and takes party perm[k]'s name and labels, position by
    position, and W's factors are permuted into the new canonical order."""
    relabel, parties = {}, []
    for q, k in zip(p.parties, perm):
        other = p.parties[k]
        relabel.update(zip(q.input_labels + q.output_labels,
                           other.input_labels + other.output_labels))
        parties.append(cs.Party(other.name,
                                [cs.LabeledSpace(relabel[f.label], f.dim) for f in q.inputs],
                                [cs.LabeledSpace(relabel[f.label], f.dim) for f in q.outputs]))
    factors = p.w.space.factors
    n = len(factors)
    order = sorted(range(n), key=lambda i: relabel[factors[i].label])
    t = p.w.mat.reshape([f.dim for f in factors] * 2).transpose(order + [n + i for i in order])
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
    swapped = permute_parties(p, (1, 0))
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
    whole = separability._dykstra(separability._order_set(p.parties, cert.trace.orders),
                                  basis.to_coeffs(p.w.mat), separability.SEP_TOL,
                                  separability.MAX_ITERS)
    assert np.array_equal(cert.trace.residual_history, whole.residual_history)
    assert np.array_equal(cert.trace.dual, whole.dual)
    # pinned at the whole-cone run's values
    assert cert.trace.stalled and cert.iterations == 500
    assert abs(cert.residual - 0.13639610306789507) < 1e-12
    assert abs(cert.diagnostics["witness_overlap"] - (-0.1574966536453274)) < 1e-12


@pytest.mark.slow
def test_full_switch_is_certified_by_one_whole_cone_run(switch):
    # rank 1 of 64 and in neither order subspace: the ray {c W} holds no
    # feasible stack, so no face run is made and one whole-cone run decides
    cert, runs = retried(switch, max_iters=600)
    (face, trace), = runs
    assert face is None and cert.trace is trace and cert.iterations == 600
    assert cert.diagnostics["face_rank"] == 1
    # F comes last with a trivial output: the step stays D x D
    assert cert.trace.psd_dims == (64, 64)
    assert "face_iterations" not in cert.diagnostics
    assert min(cert.diagnostics["order_distances"]) > separability.SEP_TOL
    assert cert.verdict == "nonseparable" and cert.diagnostics["witness_overlap"] < 0
    # it is the whole-cone run, bit for bit
    basis = process._party_moves(switch.parties)[0]
    whole = separability._dykstra(separability._order_set(switch.parties, cert.trace.orders),
                                  basis.to_coeffs(switch.w.mat), separability.SEP_TOL, 600)
    assert np.array_equal(cert.trace.residual_history, whole.residual_history)
    assert np.array_equal(cert.trace.dual, whole.dual)


@pytest.mark.slow
def test_stalled_retry_is_certified(baumeler_wolf_cert):
    # Baumeler-Wolf against (ABC, BAC): both runs stall, and only the
    # whole-cone run's witness is certified
    p, _ = baumeler_wolf_cert
    cert, runs = retried(p, orders=[("A", "B", "C"), ("B", "A", "C")])
    assert [face is None for face, _ in runs] == [False, True]
    assert all(t.stalled for _, t in runs)
    assert cert.diagnostics["face_iterations"] == 550 and cert.iterations == 600
    assert cert.verdict == "nonseparable"
    # the face run diagonalises r x r, the retry each order's reduced D/2
    assert [t.psd_dims for _, t in runs] == [(8, 8), (32, 32)]
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


def three_party_mixture():
    a, b, c = qubit_chain("ABC")
    rng = np.random.default_rng(1)
    w = (unitary_ordered_process((a, b, c), rng).w * 0.5
         + unitary_ordered_process((c, b, a), rng).w * 0.5)
    return cs.ProcessMatrix((a, b, c), w)


def test_component_evidence_in_the_diagnostics(frame_bases):
    # the checks run on one coefficient stack; each must match the check
    # made per component, through a process and operator arithmetic
    mixture = three_party_mixture()
    for p, cert in [*frame_bases.values(), (mixture, cs.check_separability(mixture))]:
        d = cert.diagnostics
        assert cert.separable
        assert d["tol"] == separability.SEP_TOL and cert.residual < d["tol"]
        comps = cert.components
        want_q = comps[0].trace().real / p.w.trace().real
        want_reconstruction = (sum(comps[1:], comps[0]) - p.w).norm()
        want_residuals = [cs.order_cone_residual(cs.ProcessMatrix(p.parties, c), cone)
                          for c, cone in zip(comps, cert.trace.orders)]
        lows = [np.linalg.eigvalsh(c.mat)[0] for c in comps]
        assert abs(cert.q - np.clip(want_q, 0.0, 1.0)) <= 1e-15
        assert abs(d["reconstruction"] - want_reconstruction) <= 1e-15
        assert np.allclose(d["cone_residuals"], want_residuals, rtol=0, atol=1e-15)
        assert np.allclose(d["component_min_eigenvalues"], lows, rtol=0, atol=1e-15)
        for key in ("cone_residuals", "component_min_eigenvalues"):
            assert len(d[key]) == len(comps) and all(type(x) is float for x in d[key])
        assert type(d["reconstruction"]) is float


@pytest.mark.parametrize("make", [traced_switch, degenerate_switch],
                         ids=["traced_switch", "degenerate_switch"])
def test_separable_call_expands_w_once(monkeypatch, make):
    # validation, the face run (or the closed form at rank 1) and the checks
    # of its decomposition share one basis change of W, and the checks build
    # no operator or process per component
    p = make()
    expanded, built = [], []
    coeffs = _CoeffBasis.coeffs
    checked_matrix = tensor_core._checked_matrix
    post_init = cs.ProcessMatrix.__post_init__

    def counting_coeffs(self, m):
        if m.ndim == 2:
            expanded.append(m)
        return coeffs(self, m)

    def counting_matrix(*args):
        built.append("operator")
        return checked_matrix(*args)

    def counting_post_init(self):
        built.append("process")
        post_init(self)

    monkeypatch.setattr(_CoeffBasis, "coeffs", counting_coeffs)
    monkeypatch.setattr(tensor_core, "_checked_matrix", counting_matrix)
    monkeypatch.setattr(cs.ProcessMatrix, "__post_init__", counting_post_init)
    assert p.validity == "unchecked"
    cert = cs.check_separability(p)
    assert cert.separable
    assert len(expanded) == 1 and expanded[0] is p.w.mat
    assert built == []


@pytest.mark.parametrize("make", [traced_switch, degenerate_switch, three_party_mixture],
                         ids=["traced_switch", "degenerate_switch", "three_party_mixture"])
def test_components_are_views_of_one_checked_stack(monkeypatch, make):
    # each access checks one (K, D, D) stack, whatever K, and wraps views
    cert = cs.check_separability(make())
    assert cert.separable
    built = []
    checked_matrix = tensor_core._checked_matrix

    def counting_matrix(*args):
        built.append(args[1].shape)
        return checked_matrix(*args)

    monkeypatch.setattr(tensor_core, "_checked_matrix", counting_matrix)
    comps = cert.components
    k, d = len(cert.trace.orders), cert.process.w.dim
    assert built == [(k, d, d)] and len(comps) == k
    base = comps[0].mat.base
    assert base is not None and base.shape == (k, d, d) and not base.flags.writeable
    assert all(c.mat.base is base and not c.mat.flags.writeable for c in comps)
    assert all(c.space == cert.process.w.space for c in comps)
    cert.components
    assert len(built) == 2


def test_check_separability_extracts_through_extract_witness(monkeypatch):
    # OCB's one failed face run gets its witness from the public
    # extract_witness, the function the bench tracer spans
    calls = []

    def counting(p, trace, _original=separability.extract_witness):
        calls.append(trace)
        return _original(p, trace)

    monkeypatch.setattr(separability, "extract_witness", counting)
    cert = cs.check_separability(cs.ocb_process())
    assert cert.verdict == "nonseparable"
    assert calls == [cert.trace]


@pytest.mark.parametrize("orders", [None, [("A", "B", "C"), ("B", "A", "C")]],
                         ids=["ocb", "baumeler_wolf_retry"])
def test_nonseparable_call_expands_w_once(monkeypatch, orders):
    # the witness of each failed run reads the expansion of W that
    # validation made: OCB's face run and Baumeler-Wolf's face run and
    # whole-cone retry each give one witness; the public extract_witness
    # gives the same one by itself
    p = cs.ocb_process() if orders is None else baumeler_wolf()
    p = cs.ProcessMatrix(p.parties, p.w)  # unchecked, so the call validates it
    expanded = []
    coeffs = _CoeffBasis.coeffs

    def counting_coeffs(self, m):
        if m.ndim == 2:
            expanded.append(m)
        return coeffs(self, m)

    assert p.validity == "unchecked"
    monkeypatch.setattr(_CoeffBasis, "coeffs", counting_coeffs)
    cert = cs.check_separability(p, orders)
    assert cert.verdict == "nonseparable"
    assert ("face_iterations" in cert.diagnostics) == (orders is not None)
    assert len(expanded) == 1 and expanded[0] is p.w.mat
    witness, diagnostics = separability.extract_witness(p, cert.trace)
    assert np.array_equal(witness.mat, cert.witness.mat)
    for key in ("witness_overlap", "certificate_margins", "battery_min"):
        assert diagnostics[key] == cert.diagnostics[key]


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
    kron, regroup, traces = np.kron, process._regroup, process.OrderedBatch.traces
    runs, scored = [0], []

    def counting_kron(*args, **kwargs):
        calls["kron"] += 1
        return kron(*args, **kwargs)

    def counting_regroup(*args, **kwargs):
        runs[0] += 1
        return regroup(*args, **kwargs)

    def counting_traces(self, op):
        before = runs[0]
        out = traces(self, op)
        scored.append((len(self), runs[0] - before))
        return out

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(process, "_regroup", counting_regroup)
    monkeypatch.setattr(process.OrderedBatch, "traces", counting_traces)
    cert = cs.check_separability(ocb)
    assert cert.witness_verified
    # no ordered process, and no tensor product, is built per sample
    assert calls == {"random_ordered_process": 0, "make_ordered_process": 0, "kron": 0}
    # one contraction per order (one regrouping of S), over all of its samples
    assert scored == [(500, 1), (500, 1)]


def test_battery_is_drawn_once_per_structure(monkeypatch):
    separability._order_set.cache_clear()
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
    batches, picks, weights = order_set(ocb.parties, ("AB", "BA")).battery
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


@pytest.mark.parametrize("make", [cs.ocb_process, noisy_ocb, degenerate_switch],
                         ids=["ocb", "ocb_noisy", "degenerate_switch"])
def test_order_set_is_built_once_and_shared(monkeypatch, make):
    # two calls and a witness on one structure build one order set, and the
    # runs, the witness and q all read it and its one masks array. Only a
    # whole-cone run builds the groups: OCB runs on its face alone, and the
    # degenerate switch is decided in closed form, where q reads the masks
    p = make()
    build, dykstra, sets, runs = separability._order_set, separability._dykstra, [], []

    def recording_build(*args):
        sets.append(build(*args))
        return sets[-1]

    def recording_run(order_set, *args):
        runs.append(order_set)
        return dykstra(order_set, *args)

    monkeypatch.setattr(separability, "_order_set", recording_build)
    monkeypatch.setattr(separability, "_dykstra", recording_run)
    build.cache_clear()
    first, second = cs.check_separability(p), cs.check_separability(p)
    if not second.separable:
        assert cs.extract_witness(p, second.trace)[0] is not None
    assert build.cache_info().misses == 1
    read = len(sets)
    assert (first.q is None) == (second.q is None) == (not second.separable)
    assert len(sets) == read + 2 * second.separable
    assert len(runs) == 2 * (not second.separable)
    shared, = set(sets + runs)
    assert all(s.masks is shared.masks for s in sets + runs)
    assert not shared.masks.flags.writeable
    assert ("groups" in vars(shared)) == (make is noisy_ocb)
    assert ("battery" in vars(shared)) == (not second.separable)


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


def test_relabelled_baumeler_wolf_keeps_its_certified_verdict(baumeler_wolf_cert):
    # A <-> B moves W's factors, where the cyclic relabelling A -> B -> C ->
    # A leaves W bit for bit the same. The face run stalls at the same
    # count with no eigh step, and its witness is certified with the same
    # overlap up to rounding
    p, want = baumeler_wolf_cert
    assert np.array_equal(permute_parties(p, (1, 2, 0)).w.mat, p.w.mat)
    swapped = permute_parties(p, (1, 0, 2))
    assert not np.array_equal(swapped.w.mat, p.w.mat)
    got = cs.check_separability(swapped)
    for cert in (want, got):
        assert cert.verdict == "nonseparable" and cert.witness_verified
        assert cert.trace.stalled and cert.iterations == 550 and cert.trace.eigh_steps == 0
        assert cert.diagnostics["face_rank"] == 8 and "face_iterations" not in cert.diagnostics
    assert abs(got.diagnostics["witness_overlap"] - want.diagnostics["witness_overlap"]) < 1e-9


def test_stall_without_witness_is_undecided(traced_switch_cert):
    # the traced switch is separable, so no witness exists; below rounding
    # the residual cannot reach tol = 1e-20, so the face run and the
    # whole-cone retry both stall, the witness is rejected, and a stall
    # alone is no evidence of either verdict
    p, separable = traced_switch_cert
    assert separable.verdict == "separable"
    cert = cs.check_separability(p, tol=1e-20)
    # both runs' residuals sit at rounding level (about 1e-15) long before
    # they stall, so where each stalls is set by rounding alone
    assert cert.trace.stalled and cert.iterations == 600
    assert cert.diagnostics["face_iterations"] == 650
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

"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance and runtime budget inline; run with -s to see
the one-line summaries. These are the slow, full-size runs; the unit tests
cover the same code paths at smaller sizes.
"""
import time

import numpy as np
import pytest

import causalis as cs
from causalis.instruments import circuit_oracle


def equal_switch():
    return cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))


def traced_switch_process():
    w = cs.partial_trace(equal_switch().to_matrix().w, ("F_c", "F_t", "F_O"))
    parties = (
        cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 2)),
        cs.Party("B", cs.LabeledSpace("B_I", 2), cs.LabeledSpace("B_O", 2)),
    )
    return cs.ProcessMatrix(parties, w)


def test_criterion_01_switch_validity():
    t0 = time.perf_counter()
    p = cs.validate_process(equal_switch().to_matrix())
    elapsed = time.perf_counter() - t0
    assert p.validity == "valid", p.reason
    assert abs(p.w.trace().real - 4.0) < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1: PASS valid, trace dev {abs(p.w.trace().real - 4.0):.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_switch_reconstruction():
    t0 = time.perf_counter()
    qs = equal_switch()
    w_ab, w_ba, cross, cross_dag = cs.interference_decomposition(qs)
    recon = (w_ab + w_ba + cross + cross_dag) / 2
    dev = (recon - qs.to_matrix().w).norm()
    elapsed = time.perf_counter() - t0
    assert dev < 1e-12
    assert elapsed < 1.0
    print(f"criterion 2: PASS reconstruction dev {dev:.2e}, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_03_switch_separability_pair():
    t0 = time.perf_counter()
    traced = cs.check_separability(traced_switch_process())
    assert traced.separable
    assert abs(traced.q - 0.5) < 1e-6

    full = cs.check_separability(equal_switch().to_matrix())
    elapsed = time.perf_counter() - t0
    assert not full.separable
    assert full.trace.stalled and full.residual > 1e-3
    assert full.witness_verified and full.witness is not None
    overlap = full.diagnostics["witness_overlap"]
    assert overlap < -1e-6
    assert full.diagnostics["samples_per_order"] == 500  # 1000 ordered samples
    assert full.diagnostics["n_mixtures"] == 500
    assert full.diagnostics["battery_min"] >= -1e-7
    assert elapsed < 120.0
    print(f"criterion 3: PASS traced q={traced.q:.8f}; full residual "
          f"{full.residual:.3e} at iter {full.iterations}, witness overlap "
          f"{overlap:.3f}, battery min {full.diagnostics['battery_min']:.3f}, "
          f"{elapsed:.1f}s")


def test_criterion_04_born_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 2
        names = ["A", "B", "C"][:n]
        parties = [
            cs.Party(nm, cs.LabeledSpace(f"{nm}_I", 2), cs.LabeledSpace(f"{nm}_O", 2))
            for nm in names
        ]
        rho = cs.random_density(2, rng)
        state = cs.HermitianOperator(parties[0].input_space, rho)
        ch_kraus = [cs.random_kraus(2, 2, 2, rng) for _ in range(n - 1)]
        chans = [
            cs.choi_of_kraus(ks, parties[k].output_space, parties[k + 1].input_space)
            for k, ks in enumerate(ch_kraus)
        ]
        p = cs.make_ordered_process(parties, state, chans)
        ins_kraus = []
        ins = []
        for party in parties:
            fams = [cs.random_instrument_kraus(2, 2, 2, rng) for _ in range(2)]
            ins_kraus.append(fams)
            rows = tuple(
                tuple(cs.choi_of_kraus(f, party.input_space, party.output_space)
                      for f in fam)
                for fam in fams
            )
            ins.append(cs.Instrument(party, 2, 2, rows))
        got = cs.born(p, ins)
        want = circuit_oracle(names, rho, ch_kraus, ins_kraus)
        worst = max(worst, float(np.max(np.abs(got.values - want.values))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-11
    assert elapsed < 30.0
    print(f"criterion 4: PASS 100 scenarios, max |born - oracle| = {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_05_causal_bounds_enumeration():
    t0 = time.perf_counter()
    gyni_verts = cs.enumerate_strategies(cs.gyni_game())
    gyni = cs.causal_bound(cs.gyni_game())
    ocb_verts = cs.enumerate_strategies(cs.ocb_game())
    ocb = cs.causal_bound(cs.ocb_game())
    elapsed = time.perf_counter() - t0
    assert gyni == 0.5 and len(gyni_verts) == 112
    assert ocb == 0.75 and len(ocb_verts) == 5056
    assert elapsed < 5.0
    print(f"criterion 5: PASS bounds (nested maxima) GYNI 1/2, OCB-game 3/4; "
          f"enumerate_strategies lists {len(gyni_verts)} and {len(ocb_verts)} "
          f"deterministic tables, {elapsed:.2f}s")


def test_criterion_06_ocb_violation():
    p = cs.validate_process(cs.ocb_process())
    assert p.validity == "valid", p.reason
    table = cs.born(p, list(cs.ocb_instruments()))
    score = cs.score_inequality(table, cs.ocb_game())
    target = (2 + np.sqrt(2)) / 4
    assert abs(score.value - target) < 1e-9
    assert score.violated
    verdict = cs.is_causal(table)
    assert not verdict.causal
    assert verdict.residual > 1e-3
    print(f"criterion 6: PASS value {score.value:.10f} vs bound {score.bound}, "
          f"membership residual {verdict.residual:.4f}")


@pytest.mark.slow
def test_criterion_07_switch_correlations_causal():
    t0 = time.perf_counter()
    p = cs.validate_process(equal_switch().to_matrix())
    a, b, f = p.parties
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        ins = [
            cs.random_instrument(a, 2, 2, rng),
            cs.random_instrument(b, 2, 2, rng),
            cs.random_instrument(f, 1, 2, rng),
        ]
        table = cs.born(p, ins).marginalize("F")
        verdict = cs.is_causal(table)
        assert verdict.causal and verdict.residual < 1e-7
        worst = max(worst, verdict.residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    # statistical evidence over a seeded sample, not a proof
    print(f"criterion 7: PASS 1000 instrument families causal, max residual "
          f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_bipartite_checker_agreement(qubit_parties):
    rng = np.random.default_rng(11)
    a, b = qubit_parties
    space = cs.parties_space(qubit_parties)
    pool = []
    for k in range(100):
        kind = k % 4
        if kind == 0:
            pool.append(cs.ProcessMatrix(qubit_parties, cs.identity(space) / 4))
        elif kind == 1:
            pool.append(cs.random_ordered_process([a, b], rng))
        elif kind == 2:
            pool.append(cs.random_ordered_process([b, a], rng))
        else:
            t = rng.uniform()
            w = (cs.random_ordered_process([a, b], rng).w * t
                 + cs.random_ordered_process([b, a], rng).w * (1 - t))
            pool.append(cs.ProcessMatrix(qubit_parties, w))
    designed_valid = len(pool)
    for k in range(100):
        base = cs.random_ordered_process([a, b] if k % 2 else [b, a], rng)
        m = base.w.mat.copy()
        kind = k % 3
        if kind == 0:
            m = m * (1.1 + 0.9 * rng.uniform())
        elif kind == 1:
            g = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
            m = m + 0.1 * (g + g.conj().T)
        else:
            m[0, 0] -= 0.5
        pool.append(cs.ProcessMatrix(qubit_parties, cs.HermitianOperator(space, m)))

    disagreements = 0
    n_invalid = 0
    for i, p in enumerate(pool):
        spanning = cs.validate_process(p).validity == "valid"
        closed = cs.validate_bipartite_closed_form(p)
        if spanning != closed:
            disagreements += 1
        if i < designed_valid:
            assert spanning, f"designed-valid case {i} rejected"
        elif not spanning:
            n_invalid += 1
    assert disagreements == 0
    assert n_invalid >= 90  # the corruptions must actually break validity
    print(f"criterion 8: PASS 200 matrices, 0 disagreements "
          f"({n_invalid}/100 corrupted cases invalid)")


def test_criterion_09_discrimination_demo():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0 + 0j, -1.0])
    eye = np.eye(2, dtype=complex)
    p_xz = cs.switch_discrimination_demo(x, z)
    p_xx = cs.switch_discrimination_demo(x, x)
    p_ii = cs.switch_discrimination_demo(eye, eye)
    assert abs(p_xz - 0.0) < 1e-12
    assert abs(p_xx - 1.0) < 1e-12
    assert abs(p_ii - 1.0) < 1e-12
    print(f"criterion 9: PASS P(+)={p_xz:.2e} anticommuting, "
          f"{p_xx:.12f} / {p_ii:.12f} commuting")


def test_criterion_10_degenerate_switch():
    qs = cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0).to_matrix()
    a, b, f = qs.parties
    e0 = np.zeros(2, dtype=complex)
    e0[0] = 1.0
    state = cs.HermitianOperator(a.input_space, np.outer(e0, e0.conj()))
    link = cs.choi_of_kraus([np.eye(2, dtype=complex)], a.output_space, b.input_space)
    embed = np.zeros((4, 2), dtype=complex)  # |i>_t -> |0>_c |i>_t, (c,t) rows
    embed[0, 0] = 1.0
    embed[1, 1] = 1.0
    into_f = cs.choi_of_kraus([embed], b.output_space, f.input_space)
    ordered = cs.make_ordered_process([a, b, f], state, [link, into_f])
    dev = (qs.w - ordered.w).norm()
    assert dev < 1e-12

    cert = cs.check_separability(qs)
    assert cert.separable
    assert abs(cert.q - 1.0) < 1e-6
    print(f"criterion 10: PASS ordered-process dev {dev:.2e}, "
          f"q = {cert.q:.8f} in {cert.iterations} iterations")

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import io as cio
from causalis import separability, tensor_core
from causalis.instruments import circuit_oracle
from conftest import interleaved_parties, qubit_chain, qubit_with_trivial_parties, trivial_parties

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])


# ---------------------------------------------------------------------------
# instrument construction

def test_instrument_requires_trace_preserving_sum(qubit_parties):
    a, _ = qubit_parties
    half = cs.choi_of_kraus([np.eye(2) / np.sqrt(2)], a.input_space, a.output_space)
    with pytest.raises(ValueError, match="trace-preserving"):
        cs.Instrument(a, 1, 1, ((half,),))


def test_instrument_requires_matching_space(qubit_parties):
    a, b = qubit_parties
    c = cs.choi_of_kraus([np.eye(2)], b.input_space, b.output_space)
    with pytest.raises(ValueError, match="labels"):
        cs.Instrument(a, 1, 1, ((c,),))


def test_instrument_rejects_negative_choi(qubit_parties):
    a, _ = qubit_parties
    c1 = cs.choi_of_kraus([np.eye(2)], a.input_space, a.output_space)
    neg = cs.HermitianOperator(c1.space, np.diag([1.0, 1.0, 1.0, -0.5]))
    comp = cs.HermitianOperator(c1.space, np.eye(4) - neg.mat)
    with pytest.raises(ValueError, match="completely positive"):
        cs.Instrument(a, 1, 2, ((neg, comp),))


@pytest.mark.parametrize("faults, match", [
    ({1: "not_tp"}, "setting 1: outcome sum is not trace-preserving"),
    ({0: "not_tp", 1: "not_cp"}, "setting 0: outcome sum is not trace-preserving"),
    ({0: "not_cp", 1: "not_tp"}, "setting 0: Choi is not completely positive"),
    ({0: "not_cp_not_tp"}, "setting 0: Choi is not completely positive"),
    ({0: "not_cp", 1: "labels"}, "labels"),
])
def test_instrument_checks_in_setting_order(qubit_parties, faults, match):
    # labels first, then setting by setting, CP before TP
    a, b = qubit_parties
    half = cs.choi_of_kraus([np.eye(2) / np.sqrt(2)], a.input_space, a.output_space)
    neg = cs.HermitianOperator(half.space, np.diag([1.0, 1.0, 1.0, -0.5]))
    rows = {
        "ok": (half, half),
        "not_tp": (half, half * 0.5),
        "not_cp": (neg, cs.HermitianOperator(half.space, np.eye(4) - neg.mat)),
        "not_cp_not_tp": (neg, half),
        "labels": (half, cs.choi_of_kraus([np.eye(2) / np.sqrt(2)], b.input_space,
                                          b.output_space)),
    }
    chois = tuple(rows[faults.get(x, "ok")] for x in range(2))
    with pytest.raises(ValueError, match=match):
        cs.Instrument(a, 2, 2, chois)


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("defect, eps, want", [
    ("cp", 5e-11, False), ("tp", 3.5e-10, False), ("cp", 5e-13, True), ("tp", 5e-11, True),
])
def test_one_verdict_per_map(qubit_parties, rng, defect, eps, want):
    # one Choi on A_O (x) B_I, judged as the link A -> B and as the one
    # setting, one outcome instrument of a party with input A_O, output B_I
    a, b = qubit_parties
    ident = cs.choi_of_kraus([np.eye(2)], a.output_space, b.input_space)
    c = ident.mat
    if defect == "cp":
        # -eps on |01>, +eps on |00>: lambda_min = -eps, Tr_out unchanged
        c = c + np.diag([eps, -eps, 0.0, 0.0])
    else:
        # Tr_out C = (1 + s) 1_2, so ||Tr_out C - 1||_F = s sqrt(2) = eps
        c = c * (1 + eps / np.sqrt(2))
    choi = cs.HermitianOperator(ident.space, c)
    rho = cs.HermitianOperator(a.input_space, cs.random_density(2, rng))
    link = cs.Party("L", a.outputs, b.inputs)
    as_link = _accepts(lambda: cs.make_ordered_process([a, b], rho, [choi]))
    as_instrument = _accepts(lambda: cs.Instrument(link, 1, 1, ((choi,),)))
    assert as_link == as_instrument == want


@pytest.mark.parametrize("settings, outcomes, chois", [(1, 0, ((),)), (0, 2, ())])
def test_instrument_rejects_empty_alphabets(qubit_parties, settings, outcomes, chois):
    empty = "settings" if settings == 0 else "outcomes"
    with pytest.raises(ValueError, match=f"^instrument {empty} must be an integer >= 1, got 0$"):
        cs.Instrument(qubit_parties[0], settings, outcomes, chois)


def _input_check_cases():
    """(call, message) of each instrument input check that no other test
    reaches: rows and outcomes that do not match the counts, a unitary of
    the wrong shape, an instrument for a party of the right name but other
    spaces, and an oracle short of a channel."""
    a, b = qubit_chain("AB")
    c = cs.choi_of_kraus([np.eye(2)], a.input_space, a.output_space)
    wide = cs.Party("A", cs.LabeledSpace("A_I", 3), cs.LabeledSpace("A_O", 3))
    p = cs.random_ordered_process([a, b], np.random.default_rng(0))
    ins = [cs.standard_instruments("measure_reprepare", q) for q in (wide, b)]
    eye = [np.eye(2)]
    return {
        "rows": (lambda: cs.Instrument(a, 2, 1, ((c,),)), "one row of Chois per setting required"),
        "outcomes": (lambda: cs.Instrument(a, 1, 2, ((c,),)), "one Choi per outcome required"),
        "unitary shape": (lambda: cs.standard_instruments("unitary", a, unitaries=[np.eye(3)]),
                          r"unitary shape \(3, 3\) does not fit the party"),
        "party spaces": (lambda: cs.born(p, ins), "instrument for 'A' has mismatched spaces"),
        "oracle links": (lambda: circuit_oracle(("A", "B"), np.eye(2) / 2, [],
                                                [[[eye]], [[eye]]]),
                         "need one instrument per party and one channel per link"),
    }


@pytest.mark.parametrize("case", list(_input_check_cases()))
def test_instrument_input_checks(case):
    call, match = _input_check_cases()[case]
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()


@pytest.mark.parametrize("settings, outcomes, msg", [
    (True, 1, "instrument settings must be an integer >= 1, got True"),
    (1.0, 1, "instrument settings must be an integer >= 1, got 1.0"),
    (1, True, "instrument outcomes must be an integer >= 1, got True"),
])
def test_instrument_rejects_non_integer_counts(qubit_parties, settings, outcomes, msg):
    # one setting of one outcome: a valid instrument with integer counts
    a = qubit_parties[0]
    chois = ((cs.choi_of_kraus([np.eye(2)], a.input_space, a.output_space),),)
    assert cs.Instrument(a, 1, 1, chois).settings == 1
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        cs.Instrument(a, settings, outcomes, chois)


def test_measure_reprepare_completeness(qubit_parties):
    a, _ = qubit_parties
    ins = cs.standard_instruments("measure_reprepare", a)
    assert (ins.settings, ins.outcomes) == (1, 2)
    # outcome sum must be trace-preserving: Tr_O of the total Choi is 1_I
    total = ins.choi(0, 0) + ins.choi(0, 1)
    marg = cs.partial_trace(total, a.output_labels)
    assert np.allclose(marg.mat, np.eye(2))


def test_unitary_instrument_choi():
    a = cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 2))
    ins = cs.standard_instruments("unitary", a, unitaries=[np.eye(2), SX])
    assert (ins.settings, ins.outcomes) == (2, 1)
    want = cs.choi_of_kraus([SX], a.input_space, a.output_space)
    assert np.allclose(ins.choi(1, 0).mat, want.mat)


def test_discard_prepare_ignores_input(qubit_parties):
    a, _ = qubit_parties
    sigma = np.diag([0.25, 0.75])
    ins = cs.standard_instruments("discard_prepare", a, preps=[sigma])
    assert np.allclose(ins.choi(0, 0).mat, np.kron(np.eye(2), sigma))


def kraus_choi(party, kraus):
    return cs.choi_of_kraus(kraus, party.input_space, party.output_space).mat


@pytest.mark.parametrize("d", [2, 3])
def test_measure_reprepare_matches_kraus_choi(d):
    a = cs.Party("A", cs.LabeledSpace("A_I", d), cs.LabeledSpace("A_O", d))
    ins = cs.standard_instruments("measure_reprepare", a)
    assert (ins.settings, ins.outcomes) == (1, d)
    for k, e in enumerate(np.eye(d)):
        # outcome k: the one Kraus operator |k><k|
        assert np.allclose(ins.choi(0, k).mat, kraus_choi(a, [np.outer(e, e)]), atol=1e-12)


def test_discard_prepare_matches_kraus_choi():
    a = cs.Party("A", cs.LabeledSpace("A_I", 3), cs.LabeledSpace("A_O", 2))
    rng = np.random.default_rng(3)
    preps = [cs.random_density(2, rng), np.diag([1.0, 0.0])]
    ins = cs.standard_instruments("discard_prepare", a, preps=preps)
    assert (ins.settings, ins.outcomes) == (2, 1)
    for x, sigma in enumerate(preps):
        lam, v = np.linalg.eigh(sigma)
        # sqrt(lambda_j) |v_j><i| for every input basis state i and eigenpair j
        kraus = [np.sqrt(max(w, 0.0)) * np.outer(v[:, j], e)
                 for e in np.eye(3) for j, w in enumerate(lam)]
        assert np.allclose(ins.choi(x, 0).mat, kraus_choi(a, kraus), atol=1e-12)


def test_povm_matches_kraus_choi():
    f = cs.Party("F", cs.LabeledSpace("F_I", 3), cs.LabeledSpace("F_O", 1))
    rng = np.random.default_rng(4)
    u = cs.random_unitary(3, rng)
    first = u[:, :1] @ u[:, :1].conj().T + 0.5 * u[:, 1:2] @ u[:, 1:2].conj().T
    povms = [[first, np.eye(3) - first], [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])]]
    ins = cs.standard_instruments("povm", f, povms=povms)
    assert (ins.settings, ins.outcomes) == (2, 2)
    for x, row in enumerate(povms):
        for a, e in enumerate(row):
            mu, v = np.linalg.eigh(e)
            # sqrt(mu_k) <e_k|, one Kraus row per eigenpair
            kraus = [np.sqrt(max(m, 0.0)) * v[:, k].conj()[None, :] for k, m in enumerate(mu)]
            assert np.allclose(ins.choi(x, a).mat, kraus_choi(f, kraus), atol=1e-12)


@pytest.mark.parametrize("kind, params, stray", [
    ("measure_reprepare", {"basis": np.eye(2)}, "basis"),
    ("measure_reprepare", {"preps": [np.eye(2) / 2] * 2}, "preps"),
    ("unitary", {"unitaries": [np.eye(2)], "preps": []}, "preps"),
    ("discard_prepare", {"preps": [np.eye(2) / 2], "povms": [], "basis": None}, "basis, povms"),
])
def test_standard_instruments_reject_stray_parameters(qubit_parties, kind, params, stray):
    # measure_reprepare took basis and preps; a caller still passing them is told
    with pytest.raises(ValueError, match=f"^instrument kind '{kind}' takes no parameter {stray}$"):
        cs.standard_instruments(kind, qubit_parties[0], **params)


@pytest.mark.parametrize("kind, needed", [
    ("unitary", "unitaries"), ("discard_prepare", "preps"), ("povm", "povms")])
def test_standard_instruments_name_a_missing_parameter(kind, needed):
    # each kind but measure_reprepare reads one required parameter; leaving
    # it out is an input error that names it, not a bare KeyError
    party = cs.Party("A", cs.LabeledSpace("A_I", 2), ())
    with pytest.raises(ValueError, match=f"^instrument kind '{kind}' needs the parameter {needed}$"):
        cs.standard_instruments(kind, party)


def test_measure_reprepare_needs_matching_dimensions():
    a = cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 3))
    with pytest.raises(ValueError, match="matching input and output dimensions"):
        cs.standard_instruments("measure_reprepare", a)


def test_povm_requires_trivial_output(qubit_parties):
    a, _ = qubit_parties
    with pytest.raises(ValueError, match="trivial output"):
        cs.standard_instruments("povm", a, povms=[[np.eye(2)]])


def test_unknown_kind(qubit_parties):
    with pytest.raises(ValueError, match="unknown instrument kind"):
        cs.standard_instruments("teleport", qubit_parties[0])
    # the kind is named before its parameters are
    with pytest.raises(ValueError, match="unknown instrument kind 'teleport'"):
        cs.standard_instruments("teleport", qubit_parties[0], basis=np.eye(2))


@pytest.mark.parametrize("seed", range(3))
def test_random_instrument_is_complete(qubit_parties, seed):
    rng = np.random.default_rng(seed)
    a, _ = qubit_parties
    ins = cs.random_instrument(a, 2, 3, rng)
    for x in range(2):
        total = ins.choi(x, 0)
        for o in range(1, 3):
            total = total + ins.choi(x, o)
        marg = cs.partial_trace(total, a.output_labels)
        assert np.allclose(marg.mat, np.eye(2), atol=1e-12)


def loop_instrument_kraus(d_in, d_out, n_outcomes, rng):
    """random_instrument_kraus as an element loop over the Stinespring
    isometry, kept as the reference for its reshape."""
    kraus_per_outcome = max(2, -(-d_in // (d_out * n_outcomes)))
    env = n_outcomes * kraus_per_outcome
    v = cs.random_isometry(d_in, d_out * env, rng)
    families = [[] for _ in range(n_outcomes)]
    for e in range(env):
        k = np.zeros((d_out, d_in), dtype=complex)
        for o in range(d_out):
            k[o, :] = v[o * env + e, :]
        families[e // kraus_per_outcome].append(k)
    return families


# per: Kraus operators per outcome, two unless the isometry needs more rows
@pytest.mark.parametrize("d_in, d_out, n_outcomes, per", [
    (2, 2, 2, 2), (2, 3, 2, 2), (4, 2, 3, 2), (3, 3, 1, 2), (6, 1, 2, 3),
])
def test_random_instrument_kraus_matches_loop(d_in, d_out, n_outcomes, per):
    got = cs.random_instrument_kraus(d_in, d_out, n_outcomes, np.random.default_rng(5))
    want = loop_instrument_kraus(d_in, d_out, n_outcomes, np.random.default_rng(5))
    assert [len(f) for f in got] == [len(f) for f in want] == [per] * n_outcomes
    for fg, fw in zip(got, want):
        for kg, kw in zip(fg, fw):
            assert kg.shape == (d_out, d_in) and np.array_equal(kg, kw)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5])
@pytest.mark.parametrize("name", ["d_in", "d_out", "n_outcomes"])
def test_random_instrument_kraus_checks_its_counts(name, bad):
    # before the draw: 0 outcomes divided by zero, -1 reached numpy's
    # "negative dimensions", and True drew as a size of 1
    counts = {"d_in": 2, "d_out": 2, "n_outcomes": 2, name: bad}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {bad!r}$"):
        cs.random_instrument_kraus(rng=rng, **counts)
    assert rng.bit_generator.state == state


def per_setting_stack(party, settings, outcomes, rng):
    """random_instrument's stack built one setting and one outcome at a
    time, kept as the reference for its batched draw, QR and einsum."""
    return np.array([
        [cs.choi_of_kraus(ks, party.input_space, party.output_space).mat
         for ks in cs.random_instrument_kraus(party.input_dim, party.output_dim, outcomes, rng)]
        for _ in range(settings)
    ])


WIDE_INPUT = cs.Party("P", cs.LabeledSpace("P_I", 5), cs.LabeledSpace("P_O", 1))


# the switch's A (2 x 2) and F (trivial output), three settings, and a party
# whose 5-dim input needs three Kraus operators per outcome
@pytest.mark.parametrize("party_index, settings, outcomes", [
    (0, 2, 2), (2, 1, 2), (1, 3, 2), (None, 2, 2), (None, 1, 1),
])
def test_random_instrument_matches_per_setting_build(switch, party_index, settings, outcomes):
    party = WIDE_INPUT if party_index is None else switch.parties[party_index]
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    ins = cs.random_instrument(party, settings, outcomes, got_rng)
    want = per_setting_stack(party, settings, outcomes, want_rng)
    assert (ins.settings, ins.outcomes) == (settings, outcomes)
    assert ins._stack.shape == want.shape and np.array_equal(ins._stack, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_instrument_rejects_non_hermitian_choi(switch):
    # eigvalsh reads one triangle and Tr_O drops entry [0, 3], so a plain
    # Operator row passed, and born kept only the real part of its table
    a = switch.parties[0]
    ins = cs.random_instrument(a, 1, 2, np.random.default_rng(0))
    m = ins.choi(0, 0).mat.copy()
    m[0, 3] += 0.3
    rows = ((cs.Operator(a.space, m), ins.choi(0, 1)),)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max \|M - M\^dag\| = 3\.000e-01$"):
        cs.Instrument(a, 1, 2, rows)


@pytest.mark.parametrize("fault, match", [
    ("one_setting", r"^matrix shape \(2, 4, 4\) does not match space dim 4$"),
    ("small_blocks", r"^matrix shape \(2, 2, 3, 3\) does not match space dim 4$"),
    ("no_settings", r"^instrument settings must be an integer >= 1, got 0$"),
    ("no_outcomes", r"^instrument outcomes must be an integer >= 1, got 0$"),
    ("nan", r"^matrix has non-finite \(NaN or inf\) entries$"),
    ("inf", r"^matrix has non-finite \(NaN or inf\) entries$"),
    ("non_hermitian", r"^matrix is not Hermitian: max \|M - M\^dag\| = 3\.000e-01$"),
    ("not_cp", r"^setting 1: Choi is not completely positive$"),
    ("not_tp", r"^setting 1: outcome sum is not trace-preserving \(\|Tr_O C - 1\| = 7\.071e-01\)$"),
])
def test_from_stack_rejects_a_bad_stack(qubit_parties, fault, match):
    a = qubit_parties[0]
    s = cs.random_instrument(a, 2, 2, np.random.default_rng(2))._stack.copy()
    assert cs.Instrument.from_stack(a, s).settings == 2
    if fault == "nan":
        s[1, 0, 2, 2] = np.nan
    elif fault == "inf":
        s[0, 1, 0, 0] = np.inf
    elif fault == "non_hermitian":
        s[1, 1, 0, 3] += 0.3
    elif fault == "not_cp":
        # the blocks have rank 2: -0.5 makes one negative, the sum is unchanged
        s[1, 0] += 0.5 * np.eye(4)
        s[1, 1] -= 0.5 * np.eye(4)
    elif fault == "not_tp":
        s[1] *= 1.5
    s = {"one_setting": s[0], "small_blocks": s[..., :3, :3],
         "no_settings": s[:0], "no_outcomes": s[:, :0]}.get(fault, s)
    with pytest.raises(ValueError, match=match):
        cs.Instrument.from_stack(a, s)


def test_chois_are_read_only_views_of_the_one_stack(switch):
    a = switch.parties[0]
    ins = cs.random_instrument(a, 2, 3, np.random.default_rng(6))
    assert set(vars(ins)) == {"party", "_stack"}
    assert not ins._stack.flags.writeable
    for x in range(2):
        for o in range(3):
            c = ins.choi(x, o)
            assert isinstance(c, cs.HermitianOperator) and c.space == a.space
            assert not c.mat.flags.writeable and np.shares_memory(c.mat, ins._stack)
            assert np.shares_memory(ins.chois[x][o].mat, ins._stack)
            assert np.array_equal(c.mat, ins._stack[x, o])


def test_four_argument_constructor_matches_from_stack(switch):
    for party, settings in zip(switch.parties, (2, 3, 1)):
        ins = cs.random_instrument(party, settings, 2, np.random.default_rng(8))
        rows = tuple(tuple(cs.HermitianOperator(party.space, c.mat) for c in row)
                     for row in ins.chois)
        rebuilt = cs.Instrument(party, settings, 2, rows)
        assert np.array_equal(rebuilt._stack, ins._stack)
        assert np.array_equal(cs.Instrument.from_stack(party, ins._stack)._stack, ins._stack)


# ---------------------------------------------------------------------------
# probability tables

def test_table_validation():
    # two axes per party: one party over a two-party array would write a CSV
    # whose header has 3 columns and whose rows have 5 cells
    with pytest.raises(ValueError, match=r"two axes per party \(2: settings, then outcomes\), got 4"):
        cs.ProbabilityTable(("A",), np.full((2, 2, 2, 2), 0.25))
    with pytest.raises(ValueError, match=r"two axes per party \(4: .*\), got 2"):
        cs.ProbabilityTable(("A", "B"), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="party names must be distinct; repeated: 'A'"):
        cs.ProbabilityTable(("A", "A"), np.full((2, 2, 2, 2), 0.25))
    with pytest.raises(ValueError, match="repeated: 'A', 'B'"):
        cs.ProbabilityTable(("B", "A", "B", "A"), np.full((1,) * 8, 1.0))
    with pytest.raises(ValueError, match="sum to 1"):
        cs.ProbabilityTable(("A",), np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError, match="negative"):
        cs.ProbabilityTable(("A",), np.array([[1.2, -0.2]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            cs.ProbabilityTable(("A",), np.array([[bad, 0.0]]))
    # an empty alphabet is named, not left to numpy's reduction over no settings
    for shape in ((0, 2), (2, 0), (2, 0, 2, 2), (2, 2, 2, 0)):
        with pytest.raises(ValueError, match=re.escape(f"values shape {shape} has an empty "
                                                       "alphabet")):
            cs.ProbabilityTable(("A", "B")[:len(shape) // 2], np.zeros(shape))


def test_table_copies_its_input():
    # a float64 array was frozen in place, leaving the caller's own array
    # read-only
    a = np.full((2, 2), 0.5)
    t = cs.ProbabilityTable(("A",), a)
    assert a.flags.writeable and not t.values.flags.writeable
    a[0, 0] = 0.0
    assert t.values[0, 0] == 0.5


def test_marginalize_drops_single_setting_party():
    vals = np.zeros((1, 2, 2, 2))
    vals[0, :, :, 0] = 0.25
    vals[0, :, :, 1] = 0.25
    t = cs.ProbabilityTable(("F", "A"), vals)
    m = t.marginalize("F")
    assert m.parties == ("A",)
    assert m.values.shape == (2, 2)
    assert np.allclose(m.values, 0.5)
    with pytest.raises(ValueError, match="single setting"):
        cs.ProbabilityTable(("A", "B"), np.full((2, 2, 2, 2), 0.25)).marginalize("A")
    with pytest.raises(ValueError, match=r"party 'Z' is not one of \['F', 'A'\]"):
        t.marginalize("Z")


def test_table_alphabets_are_shape_slices(switch, rng):
    ins = [cs.random_instrument(q, s, o, rng)
           for q, s, o in zip(switch.parties, (2, 3, 1), (2, 3, 2))]
    from_born = cs.born(switch, ins)
    from_oracle = circuit_oracle(
        ["A", "B"], np.eye(2) / 2, [cs.random_kraus(2, 2, 2, rng)],
        [[cs.random_instrument_kraus(2, 2, 3, rng)] * 2, [cs.random_instrument_kraus(2, 2, 2, rng)]])
    marginal = from_born.marginalize("F")
    from_csv = cio.table_from_csv(cio.table_to_csv(from_born))
    for t, settings, outcomes in [(from_born, (2, 3, 1), (2, 3, 2)),
                                  (from_oracle, (2, 1), (3, 2)),
                                  (marginal, (2, 3), (2, 3)),
                                  (from_csv, (2, 3, 1), (2, 3, 2))]:
        n = len(t.parties)
        assert (t.settings, t.outcomes) == (settings, outcomes)
        assert (t.settings, t.outcomes) == (t.values.shape[:n], t.values.shape[n:])


# ---------------------------------------------------------------------------
# Born rule

def test_born_rejects_invalid_process(qubit_parties):
    bad = cs.ProcessMatrix(qubit_parties, cs.identity(cs.parties_space(qubit_parties)))
    a, b = qubit_parties
    ins = [cs.standard_instruments("measure_reprepare", q) for q in (a, b)]
    with pytest.raises(ValueError, match="not valid"):
        cs.born(bad, ins)


def test_born_requires_matching_instruments(switch, qubit_parties):
    a, b = qubit_parties
    ins = [cs.standard_instruments("measure_reprepare", q) for q in (a, b)]
    with pytest.raises(ValueError, match="cover exactly"):
        cs.born(switch, ins)


def test_born_rejects_two_instruments_for_one_party():
    # keyed by party name, one of the two instruments for A would be dropped unseen
    p = cs.ocb_process()
    ins_a, ins_b = cs.ocb_instruments()
    other_a = cs.standard_instruments("measure_reprepare", ins_a.party)
    with pytest.raises(ValueError,
                       match="instrument party names must be distinct; repeated: 'A'"):
        cs.born(p, [ins_a, other_a, ins_b])


def test_born_rows_normalized(switch, rng):
    ins = [cs.random_instrument(party, 2, 2, rng) for party in switch.parties]
    t = cs.born(switch, ins)
    sums = t.values.sum(axis=(3, 4, 5))
    assert np.allclose(sums, 1.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_born_matches_circuit_oracle(seed):
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
            tuple(cs.choi_of_kraus(f, party.input_space, party.output_space) for f in fam)
            for fam in fams
        )
        ins.append(cs.Instrument(party, 2, 2, rows))
    got = cs.born(p, ins)
    want = circuit_oracle(names, rho, ch_kraus, ins_kraus)
    assert np.max(np.abs(got.values - want.values)) < 1e-11


# ---------------------------------------------------------------------------
# discrimination demo

@pytest.mark.parametrize(
    "u,v,want",
    [(SX, SZ, 0.0), (SX, SX, 1.0), (np.eye(2), np.eye(2), 1.0), (SZ, SZ, 1.0)],
)
def test_switch_discrimination(u, v, want):
    assert abs(cs.switch_discrimination_demo(u, v) - want) < 1e-12


def built_demo(u, v):
    """switch_discrimination_demo with the switch and Fiona's instrument
    built and validated on the call, kept as the reference for the cached
    setup."""
    qs = cs.make_quantum_switch(np.eye(2)[0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    pa, pb, pf = qs.parties
    f_c, f_t = (qs.w.space.restrict([label]) for label in ("F_c", "F_t"))
    povm = [
        cs.tensor(cs.HermitianOperator(f_c, np.outer(pm, pm.conj())), cs.identity(f_t)).mat
        for pm in np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    ]
    table = cs.born(qs, [cs.standard_instruments("unitary", pa, unitaries=[u]),
                         cs.standard_instruments("unitary", pb, unitaries=[v]),
                         cs.standard_instruments("povm", pf, povms=[povm])])
    return float(table.values[0, 0, 0, 0, 0, 0])


def test_demo_builds_one_switch_per_dimension(monkeypatch):
    from causalis import cli, instruments
    builds = []
    make = instruments.make_quantum_switch

    def counting(*args, **kwargs):
        builds.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(instruments, "make_quantum_switch", counting)
    instruments._demo_setup.cache_clear()
    for u, v in itertools.product(cli.GATES.values(), repeat=2):
        assert cs.switch_discrimination_demo(u, v) == built_demo(u, v)
    assert len(builds) == 1
    instruments._demo_setup.cache_clear()


def test_switch_discrimination_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        cs.switch_discrimination_demo(np.eye(2) * 0.5, SZ)


# ---------------------------------------------------------------------------
# Born contraction against the explicit tensor-product loop

def reference_born(p, instruments):
    """P[xs + os] = sum_ij w_ij (M_1 (x) ... (x) M_n)_ij with every product
    built by tensor(), one (settings, outcomes) tuple at a time."""
    by_name = {i.party.name: i for i in instruments}
    ins = [by_name[party.name] for party in p.parties]
    n_settings = tuple(i.settings for i in ins)
    n_outcomes = tuple(i.outcomes for i in ins)
    vals = np.empty(n_settings + n_outcomes)
    for xs in np.ndindex(*n_settings):
        for os_ in np.ndindex(*n_outcomes):
            m = cs.tensor(*[i.choi(x, o) for i, x, o in zip(ins, xs, os_)])
            vals[xs + os_] = np.einsum("ij,ij->", p.w.mat, m.mat).real
    return vals


def random_instruments(parties, rng, settings=2, outcomes=2):
    return [cs.random_instrument(q, 1 if q.trivial_output else settings, outcomes, rng)
            for q in parties]


def born_cases():
    rng = np.random.default_rng(11)
    cases = {}
    for names in ("AB", "BA", "ABC", "CAB"):
        parties = dict(zip(sorted(names), qubit_chain(sorted(names))))
        order = [parties[n] for n in names]
        p = cs.validate_process(cs.random_ordered_process(order, rng))
        cases[f"ordered_{names}"] = p, random_instruments(order, rng)
    switch = cs.validate_process(
        cs.make_quantum_switch([0.6, 0.8j], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix())
    cases["switch"] = switch, random_instruments(switch.parties, rng)
    for order in (interleaved_parties(), interleaved_parties()[::-1]):
        p = cs.validate_process(cs.random_ordered_process(order, rng))
        cases["interleaved_" + "".join(q.name for q in order)] = (
            p, random_instruments(order, rng, settings=3, outcomes=2))
    # every party with its own (settings, outcomes): a misplaced table axis
    # shows in the shape as well as in the values
    order = qubit_chain("ABC")
    p = cs.validate_process(cs.random_ordered_process(order, rng))
    cases["unequal_ABC"] = p, [cs.random_instrument(q, x, a, rng)
                               for q, (x, a) in zip(order, [(2, 3), (3, 1), (1, 2)])]
    cases["unequal_switch"] = switch, [cs.random_instrument(q, x, a, rng)
                                       for q, (x, a) in zip(switch.parties, [(3, 2), (2, 3), (1, 3)])]
    return cases


BORN_CASES = born_cases()


@pytest.mark.parametrize("label", list(BORN_CASES))
def test_born_matches_tensor_loop(label):
    p, ins = BORN_CASES[label]
    assert p.validity == "valid", p.reason
    got = cs.born(p, ins)
    assert got.parties == tuple(q.name for q in p.parties)
    assert got.values.shape == tuple(i.settings for i in ins) + tuple(i.outcomes for i in ins)
    assert np.max(np.abs(got.values - reference_born(p, ins))) < 1e-12


def einsum_contract(w, spaces, stacks, axes):
    """T[k] = sum_ij w_ij (X_1[k] (x) ... (x) X_n[k] (x) 1)_ij as one
    np.einsum with its own greedy path, over subscripts that follow the
    factor labels: the independent reference for the Born and battery
    contraction. stacks[k] has shape batch_k + (d_k, d_k) over spaces[k];
    axes[k] names the result axis of each of its batch axes."""
    labels = [f.label for f in w.space.factors if f.dim > 1]
    dims = [f.dim for f in w.space.factors if f.dim > 1]
    row = {lab: 2 * k for k, lab in enumerate(labels)}
    covered = {f.label for space in spaces for f in space.factors}
    operands = [w.mat.reshape(dims + dims),
                [row[lab] for lab in labels] + [row[lab] + (lab in covered) for lab in labels]]
    length = {}
    for x, names in zip(stacks, axes):
        length.update(zip(names, x.shape[:-2]))
    shape = [length[a] for a in range(len(length))]
    out = {a: 2 * len(labels) + i for i, a in enumerate(a for a, m in enumerate(shape) if m > 1)}
    for space, x, names in zip(spaces, stacks, axes):
        batch = [(a, m) for a, m in zip(names, x.shape[:-2]) if m > 1]
        facs = [f for f in space.factors if f.dim > 1]
        operands.append(x.reshape([m for _, m in batch] + [f.dim for f in facs] * 2))
        operands.append([out[a] for a, _ in batch] + [row[f.label] for f in facs]
                        + [row[f.label] + 1 for f in facs])
    return np.einsum(*operands, list(out.values()), optimize="greedy").reshape(shape)


def born_case(p, ins):
    """(born's table, the einsum_contract of the same sum) as functions of
    no arguments."""
    by_name = {i.party.name: i for i in ins}
    stacks = [np.array([[c.mat for c in row] for row in by_name[q.name].chois]) for q in p.parties]
    n = len(stacks)
    return (lambda: cs.born(p, ins).values,
            lambda: einsum_contract(p.w, [q.space for q in p.parties], stacks,
                                    [(k, n + k) for k in range(n)]).real)


def traces_case(batch, s):
    """(batch.traces(s), the einsum_contract of the same sum)."""
    pieces = [batch.states, *batch.channels]
    return (lambda: batch.traces(s),
            lambda: einsum_contract(cs.Operator(s.space, s.mat.T), batch.spaces, pieces,
                                    [(0,)] * len(pieces)))


def contraction_cases():
    """label -> (got, want), two functions of no arguments (`born_case`,
    `traces_case`): every BORN_CASES table, the 30-trivial-party table, the
    battery traces of both OCB orders and of both full-switch orders, 500
    samples of a 3-qubit-party order (the Baumeler-Wolf battery's layout),
    and traces and tables over a 3-party layout whose factors interleave
    (A_p, B_q, C_r, D_r, M_q, Z_p), with R's input C_r (dim 3) sorted
    before its output D_r (dim 2)."""
    rng = np.random.default_rng(23)
    cases = {f"born_{label}": born_case(p, ins) for label, (p, ins) in BORN_CASES.items()}
    p = cs.validate_process(qubit_with_trivial_parties(30, rng))
    a, *trivial = p.parties
    ins = [cs.random_instrument(a, 2, 3, rng)] + [
        cs.Instrument(q, 1, 1, ((cs.identity(q.space),),)) for q in trivial]
    cases["born_trivial_30"] = born_case(p, ins)

    def hermitian(space):
        g = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        return cs.HermitianOperator(space, g + g.conj().T)

    switch = cs.make_quantum_switch([0.6, 0.8j], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    for label, parties in (("ocb", cs.ocb_process().parties), ("switch", switch.parties)):
        orders = tuple(map(cs.OrderCone, separability._default_orders(parties)))
        batches, _, _ = separability._order_set(tuple(parties), orders).battery
        s = hermitian(cs.parties_space(parties))
        for batch in batches:
            name = "".join(q.name for q in batch.order)
            cases[f"traces_{label}_{name}"] = traces_case(batch, s)
    chain = qubit_chain("ABC")
    cases["traces_qubits_ABC"] = traces_case(cs.random_ordered_batch(chain, rng, 500),
                                             hermitian(cs.parties_space(chain)))
    p_, q_ = interleaved_parties()
    r_ = cs.Party("R", cs.LabeledSpace("C_r", 3), cs.LabeledSpace("D_r", 2))
    cases["traces_interleaved_QRP"] = traces_case(cs.random_ordered_batch([q_, r_, p_], rng, 37),
                                                  hermitian(cs.parties_space([p_, q_, r_])))
    for order in ([r_, p_, q_], [q_, p_, r_]):
        p3 = cs.validate_process(cs.random_ordered_process(order, rng))
        cases["born_interleaved_" + "".join(q.name for q in order)] = born_case(
            p3, random_instruments(order, rng, settings=3, outcomes=2))
    return cases


CONTRACTION_CASES = contraction_cases()


def test_contraction_agrees_with_einsum():
    # to 1e-12 relative, the tolerance of the tensor-loop test: the matmuls
    # sum in another order than np.einsum's path
    for label, (got, want) in CONTRACTION_CASES.items():
        table, ref = got(), want()
        assert table.shape == ref.shape, label
        assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref)), label


def test_contraction_plan_is_compiled_once_per_signature():
    # the regrouping of W (`tensor_core._grouping`, the layout the basis
    # change also uses: blocks, permutation, fused shape and inverse) is laid
    # out once per signature of W's space and the stacks' spaces; a second
    # pass over every case only reads the cache, and gives the same tables
    tensor_core._grouping.cache_clear()
    first = [got() for got, _ in CONTRACTION_CASES.values()]
    compiled = tensor_core._grouping.cache_info()
    assert compiled.misses == compiled.currsize > 1
    second = [got() for got, _ in CONTRACTION_CASES.values()]
    again = tensor_core._grouping.cache_info()
    assert again.misses == compiled.misses
    assert again.hits - compiled.hits == len(CONTRACTION_CASES)
    for label, a, b in zip(CONTRACTION_CASES, first, second):
        assert np.array_equal(a, b), label


def test_step_of_more_than_two_operands_is_folded_pairwise(monkeypatch, rng):
    # a 3-qubit-party order (the Baumeler-Wolf battery's layout) at 500
    # samples: W and its three pieces are folded one pair at a time, the
    # largest piece by one GEMM (the `@` operator, not counted here) and each
    # further piece by one batched (n, 1, e**2) @ (n, e**2, rest') matmul,
    # so no intermediate outgrows (n, rest)
    chain = qubit_chain("ABC")
    batch = cs.random_ordered_batch(chain, rng, 500)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    s = cs.HermitianOperator(cs.parties_space(chain), g + g.conj().T)
    got, want = traces_case(batch, s)
    shapes = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        shapes.append(tuple(np.shape(a) for a in args))
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    table = got()
    assert shapes == [((500, 1, 16), (500, 16, 4)), ((500, 1, 4), (500, 4, 1))]
    monkeypatch.setattr(np, "matmul", matmul)
    ref = want()
    assert table.shape == ref.shape == (500,)
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_contraction_calls_no_einsum(monkeypatch):
    # the Born and battery contraction is matmuls on one regrouped W: no
    # np.einsum and no path search, on a layout's first call as on later ones
    tensor_core._grouping.cache_clear()
    calls = []
    for name in ("einsum", "einsum_path"):
        def counting(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    for got, _ in CONTRACTION_CASES.values():
        got()
    assert calls == []


def test_born_with_many_trivial_factors(rng):
    # 30 trivial parties put 62 factors on w, 124 axes if it kept the trivial ones
    p = cs.validate_process(qubit_with_trivial_parties(30, rng))
    assert p.validity == "valid", p.reason
    a, *trivial = p.parties
    ins = [cs.random_instrument(a, 2, 3, rng)] + [
        cs.Instrument(q, 1, 1, ((cs.identity(q.space),),)) for q in trivial]
    got = cs.born(p, ins)
    assert got.values.shape == (2,) + (1,) * 30 + (3,) + (1,) * 30
    assert np.max(np.abs(got.values - reference_born(p, ins))) < 1e-12


def test_born_refuses_a_table_too_large_to_allocate(monkeypatch):
    # 27 trivial parties with 2 settings and 2 outcomes: a table of 2**54
    # entries, refused before any matmul (each party's would grow the
    # intermediate 4-fold)
    parties = trivial_parties(27)
    p = cs.validate_process(cs.ProcessMatrix(parties, cs.identity(cs.parties_space(parties))))
    half = cs.identity(parties[0].space) * 0.5
    ins = [cs.Instrument(q, 2, 2, ((cs.HermitianOperator(q.space, half.mat),) * 2,) * 2)
           for q in parties]
    products = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        products.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    shape = re.escape(str((2,) * 54))
    with pytest.raises(ValueError, match=f"Born table of shape {shape} cannot be allocated"):
        cs.born(p, ins)
    assert products == []


# ---------------------------------------------------------------------------
# Born properties

def random_valid_process(kind, rng):
    if kind == "switch":
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        theta = rng.uniform(0.1, 1.4)
        return cs.validate_process(cs.make_quantum_switch(
            psi / np.linalg.norm(psi), np.cos(theta), np.sin(theta)).to_matrix())
    if kind == "interleaved":
        parties = interleaved_parties()
    else:
        parties = qubit_chain("ABC"[: int(kind)])
    order = [parties[i] for i in rng.permutation(len(parties))]
    return cs.validate_process(cs.random_ordered_process(order, rng))


PROCESS_KINDS = st.sampled_from(["2", "3", "switch", "interleaved"])


@settings(max_examples=12)
@given(kind=PROCESS_KINDS, seed=st.integers(0, 2**32 - 1),
       settings_=st.integers(1, 3), outcomes=st.integers(1, 3))
# the switch's party F maps a 4-dim input to a trivial output, so one
# outcome needs more Kraus operators than the default two
@example(kind="switch", seed=0, settings_=1, outcomes=1)
def test_born_tables_are_normalized(kind, seed, settings_, outcomes):
    rng = np.random.default_rng(seed)
    p = random_valid_process(kind, rng)
    table = cs.born(p, random_instruments(p.parties, rng, settings_, outcomes))
    n = len(p.parties)
    assert table.values.min() > -1e-12
    sums = table.values.sum(axis=tuple(range(n, 2 * n)))
    assert np.max(np.abs(sums - 1.0)) < 1e-10


@settings(max_examples=12)
@given(kind=PROCESS_KINDS, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_born_ignores_instrument_order(kind, seed, data):
    rng = np.random.default_rng(seed)
    p = random_valid_process(kind, rng)
    ins = random_instruments(p.parties, rng)
    perm = data.draw(st.permutations(range(len(ins))))
    want = cs.born(p, ins)
    got = cs.born(p, [ins[i] for i in perm])
    assert got.parties == want.parties
    assert np.array_equal(got.values, want.values)

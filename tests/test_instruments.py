import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalis as cs
from causalis import io as cio
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


@pytest.mark.parametrize("settings, outcomes, chois", [(1, 0, ((),)), (0, 2, ())])
def test_instrument_rejects_empty_alphabets(qubit_parties, settings, outcomes, chois):
    with pytest.raises(ValueError, match="settings and outcomes must be positive"):
        cs.Instrument(qubit_parties[0], settings, outcomes, chois)


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


def test_povm_requires_trivial_output(qubit_parties):
    a, _ = qubit_parties
    with pytest.raises(ValueError, match="trivial output"):
        cs.standard_instruments("povm", a, povms=[[np.eye(2)]])


def test_unknown_kind(qubit_parties):
    with pytest.raises(ValueError, match="unknown instrument kind"):
        cs.standard_instruments("teleport", qubit_parties[0])


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
    return cases


BORN_CASES = born_cases()


@pytest.mark.parametrize("label", list(BORN_CASES))
def test_born_matches_tensor_loop(label):
    p, ins = BORN_CASES[label]
    assert p.validity == "valid", p.reason
    got = cs.born(p, ins)
    assert got.parties == tuple(q.name for q in p.parties)
    assert np.max(np.abs(got.values - reference_born(p, ins))) < 1e-12


def test_born_with_many_trivial_factors(rng):
    # 30 trivial parties put 62 factors on w: more than 52 einsum subscripts
    # if trivial factors took any
    p = cs.validate_process(qubit_with_trivial_parties(30, rng))
    assert p.validity == "valid", p.reason
    a, *trivial = p.parties
    ins = [cs.random_instrument(a, 2, 3, rng)] + [
        cs.Instrument(q, 1, 1, ((cs.identity(q.space),),)) for q in trivial]
    got = cs.born(p, ins)
    assert got.values.shape == (2,) + (1,) * 30 + (3,) + (1,) * 30
    assert np.max(np.abs(got.values - reference_born(p, ins))) < 1e-12


def test_born_past_the_subscript_limit_raises():
    # 27 trivial parties with 2 settings and 2 outcomes: 54 stack axes of
    # length 2, a table of 2**54 entries
    parties = trivial_parties(27)
    p = cs.ProcessMatrix(parties, cs.identity(cs.parties_space(parties)))
    half = cs.identity(parties[0].space) * 0.5
    ins = [cs.Instrument(q, 2, 2, ((cs.HermitianOperator(q.space, half.mat),) * 2,) * 2)
           for q in parties]
    with pytest.raises(ValueError, match="einsum allows at most 52"):
        cs.born(p, ins)


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


@settings(derandomize=True, max_examples=12, deadline=None)
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


@settings(derandomize=True, max_examples=12, deadline=None)
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

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import causalis as cs
from causalis import io as cio
from causalis import process
from conftest import far_index_table, malformed_tables, mis_shaped_processes


def two_factor_space():
    return cs.SpaceProduct((cs.LabeledSpace("A", 2), cs.LabeledSpace("B", 3)))


def json_trip(d):
    return json.loads(json.dumps(d))


# values a bit-exact round trip must keep: signed zeros, subnormals, the
# smallest normal and the largest finite magnitudes, beside any finite float
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
LABELS = st.text("ABIOXYZ_ct", min_size=1, max_size=3)


@st.composite
def dims_under(draw, count, cap):
    """count dims in 1..3, each drawn so that their product stays <= cap."""
    dims, total = [], 1
    for _ in range(count):
        dims.append(draw(st.integers(1, max(1, min(3, cap // total)))))
        total *= dims[-1]
    return dims


@st.composite
def labelled_factors(draw):
    """1 to 3 distinct labels in the order drawn (not sorted), with dims
    1..3 and D <= 12."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    return [cs.LabeledSpace(lab, d) for lab, d in zip(labels, draw(dims_under(len(labels), 12)))]


@st.composite
def matrices(draw, dim, hermitian):
    """A (dim, dim) complex matrix of FLOATS: exactly Hermitian (upper
    triangle mirrored, real diagonal), or with an imaginary diagonal entry
    of magnitude >= 1e-3, a defect far above HERM_TOL."""
    m = draw(hnp.arrays(float, (dim, dim, 2), elements=FLOATS)).view(complex)[..., 0]
    if hermitian:
        upper = np.triu_indices(dim, 1)
        m[upper[::-1]] = m[upper].conj()
        m[np.diag_indices(dim)] = m.diagonal().real
    else:
        size = draw(st.floats(1e-3, 1e300))
        m[0, 0] = complex(m[0, 0].real, draw(st.sampled_from([size, -size])))
    return m


def canonical(factors, m):
    """m, built in factor order, permuted into sorted label order by
    explicit index lists: the reference for io's canonicalisation."""
    dims = [f.dim for f in factors]
    order = sorted(range(len(factors)), key=lambda i: factors[i].label)
    idx = [np.ravel_multi_index([multi[i] for i in order], [dims[i] for i in order])
           for multi in np.ndindex(*dims)]
    out = np.empty_like(m)
    out[np.ix_(idx, idx)] = m
    return out


# ---------------------------------------------------------------------------
# operators

@settings(max_examples=60)
@given(data=st.data(), hermitian=st.booleans())
def test_operator_round_trip_bit_exact(data, hermitian):
    # JSON written in the drawn factor order loads as the operator of the
    # same matrix permuted into sorted label order; that operator goes
    # through JSON and back with every bit kept, -0.0 against 0.0 included
    factors = data.draw(labelled_factors())
    m = data.draw(matrices(math.prod(f.dim for f in factors), hermitian))
    loaded = cio.operator_from_json(json_trip({
        "factors": [{"label": f.label, "dim": f.dim} for f in factors],
        "entries": m.view(float).reshape(-1, 2).tolist()}))
    want = (cs.HermitianOperator if hermitian else cs.Operator)(cs.SpaceProduct(factors),
                                                                 canonical(factors, m))
    assert type(loaded) is type(want) and loaded.space == want.space
    assert loaded.mat.tobytes() == want.mat.tobytes()
    back = cio.operator_from_json(json_trip(cio.operator_to_json(loaded)))
    assert type(back) is type(loaded) and back.space == loaded.space
    assert back.mat.tobytes() == loaded.mat.tobytes()


def test_operator_entries_match_per_entry_floats(switch, rng):
    # the per-entry loop operator_to_json replaced, kept as the reference
    def per_entry(op):
        return [[float(z.real), float(z.imag)] for z in op.mat.ravel()]

    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for op in (cs.Operator(two_factor_space(), m), switch.w):
        got = cio.operator_to_json(op)["entries"]
        want = per_entry(op)
        assert all(type(x) is float for row in got for x in row)
        assert np.array(got).tobytes() == np.array(want).tobytes()  # keeps -0.0
        assert json.dumps(got) == json.dumps(want)


def test_hermitian_operators_detected(rng):
    space = two_factor_space()
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = cs.HermitianOperator(space, g + g.conj().T)
    back = cio.operator_from_json(cio.operator_to_json(op))
    assert isinstance(back, cs.HermitianOperator)
    assert np.array_equal(back.mat, op.mat)


def test_hermitian_defect_measured_once_per_operator(rng, monkeypatch):
    # loading decides the class by building a HermitianOperator, so the
    # defect is measured once whether or not the entries are Hermitian
    calls = []
    defect = cs.tensor_core._hermitian_defect

    def counting(m):
        calls.append(m.shape)
        return defect(m)

    for module in (cs.tensor_core, cio):
        monkeypatch.setattr(module, "_hermitian_defect", counting, raising=False)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for m, cls in ((g + g.conj().T, cs.HermitianOperator), (g, cs.Operator)):
        d = cio.operator_to_json(cs.Operator(two_factor_space(), m))
        calls.clear()
        assert type(cio.operator_from_json(d)) is cls
        assert calls == [(6, 6)]


def test_noncanonical_factor_order_is_sorted_on_load():
    ma = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mb = np.diag([1.0 + 0j, 2.0, 3.0])
    d = {
        "factors": [{"label": "B", "dim": 3}, {"label": "A", "dim": 2}],
        "entries": [[float(z.real), float(z.imag)] for z in np.kron(mb, ma).ravel()],
    }
    op = cio.operator_from_json(d)
    assert op.space.labels == ("A", "B")
    assert np.array_equal(op.mat, np.kron(ma, mb))


def test_operator_entry_count_checked():
    d = {"factors": [{"label": "A", "dim": 2}], "entries": [[1.0, 0.0]] * 3}
    with pytest.raises(ValueError, match="entries"):
        cio.operator_from_json(d)


# ---------------------------------------------------------------------------
# processes

@st.composite
def processes(draw):
    """1 to 3 parties of 1 or 2 inputs and 1 output (labels in any order,
    dims 1..3, D <= 36), with a W drawn as an exactly Hermitian matrix of
    FLOATS or as a seeded random ordered process, which
    is valid: (process, whether it is the ordered one)."""
    n = draw(st.integers(1, 3))
    counts = [draw(st.integers(1, 2)) + 1 for _ in range(n)]
    labels = draw(st.lists(LABELS, min_size=sum(counts), max_size=sum(counts), unique=True))
    dims = draw(dims_under(len(labels), 36))
    factors = [cs.LabeledSpace(lab, d) for lab, d in zip(labels, dims)]
    parties, k = [], 0
    for i, c in enumerate(counts):
        parties.append(cs.Party(f"P{i}", factors[k:k + c - 1], factors[k + c - 1]))
        k += c
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 99)))
        return cs.random_ordered_process(parties, rng), True
    space = cs.parties_space(parties)
    w = cs.HermitianOperator(space, draw(matrices(space.dim, True)))
    return cs.ProcessMatrix(tuple(parties), w), False


@settings(max_examples=40)
@given(drawn=processes())
def test_process_round_trip(drawn):
    p, ordered = drawn
    d = json_trip(cio.process_to_json(p))
    back = cio.process_from_json(d)
    assert back.parties == p.parties
    assert back.w.space == p.w.space and back.w.mat.tobytes() == p.w.mat.tobytes()
    # a multi-factor input survives as a list, single factors as bare objects
    for q, entry in zip(p.parties, d["parties"]):
        for side, fs in (("input", q.inputs), ("output", q.outputs)):
            assert isinstance(entry[side], list if len(fs) > 1 else dict)
    if ordered:
        assert cs.validate_process(back).validity == "valid"


def test_process_requires_hermitian_w(switch):
    d = cio.process_to_json(switch)
    d["w"]["entries"][1] = [5.0, 0.0]  # break W_01 without touching W_10
    with pytest.raises(ValueError, match="not Hermitian"):
        cio.process_from_json(d)


def test_process_schema_errors_are_value_errors(switch):
    for label, d, match in mis_shaped_processes(switch):
        with pytest.raises(ValueError, match=match):
            cio.process_from_json(d)


def test_operator_schema_errors_are_value_errors():
    good = {"factors": [{"label": "A", "dim": 2}], "entries": [[1.0, 0.0]] * 4}
    for bad, match in [
        ({"factors": {"label": "A", "dim": 2}, "entries": good["entries"]}, "must be a list"),
        ({"factors": [{"label": "A", "dim": True}], "entries": good["entries"]}, "integer"),
        ({"factors": [{"label": 7, "dim": 2}], "entries": good["entries"]}, "string"),
        ({"factors": good["factors"], "entries": "1,0"}, "must be a list"),
        ({"factors": good["factors"], "entries": [[None, 0.0]] * 4}, "numbers"),
        ({"factors": good["factors"], "entries": [[True, 0.0]] + good["entries"][1:]}, "numbers"),
        ({"factors": good["factors"], "entries": [[1.0, False]] * 4}, "numbers"),
        ({"factors": good["factors"], "entries": [1.0] * 4}, "numbers"),
        ({"factors": good["factors"], "entries": [[10**400, 0.0]] * 4}, "numbers"),
        ({"factors": good["factors"], "entries": [[1.0, 0.0]] * 3 + [[1.0]]},
         r"got 4 entries of lengths \[1, 2\]"),
        ({"factors": good["factors"], "entries": [[1.0, 0.0]] * 3}, "expected 4 .* got 3"),
        ({"entries": good["entries"]}, "no 'factors' field"),
    ]:
        with pytest.raises(ValueError, match=match):
            cio.operator_from_json(bad)


def test_instrument_schema_errors_are_value_errors(qubit_parties):
    a, _ = qubit_parties
    good = cio.instrument_to_json(cs.standard_instruments("measure_reprepare", a))
    for edit, match in [
        (lambda d: d.update(settings="1"), "'settings' must be an integer"),
        (lambda d: d.update(outcomes=2.0), "'outcomes' must be an integer"),
        (lambda d: d.update(outcomes=0), "instrument outcomes must be an integer >= 1, got 0"),
        (lambda d: d.update(chois=[]), "'chois' must be an object"),
        (lambda d: d["chois"].pop("0,1"), "no '0,1' field"),
        (lambda d: d.update(party=["A"]), "'party' must be a string"),
        (lambda d: d["chois"]["0,0"]["entries"].__setitem__(1, [5.0, 0.0]), "not Hermitian"),
        (lambda d: d["chois"]["0,0"]["entries"].__setitem__(0, [True, 0.0]),
         "^operator entries must be numbers$"),
        (lambda d: d["chois"]["0,1"]["factors"][0].update(label="B_I"),
         r"^Choi labels \('A_O', 'B_I'\) do not match party 'A'$"),
    ]:
        d = json.loads(json.dumps(good))
        edit(d)
        with pytest.raises(ValueError, match=match):
            cio.instrument_from_json(d, qubit_parties)


@pytest.mark.parametrize("key", ["2,0", "0,2", "x"])
def test_instrument_rejects_choi_entries_outside_the_grid(qubit_parties, key):
    # a key outside settings x outcomes was dropped without a word
    a, _ = qubit_parties
    d = cio.instrument_to_json(cs.standard_instruments("measure_reprepare", a))
    d["chois"][key] = d["chois"]["0,0"]
    with pytest.raises(ValueError, match=rf"instrument chois \['{key}'\] lie outside the 1 x 2 grid$"):
        cio.instrument_from_json(d, qubit_parties)


def test_instrument_counts_are_checked_before_any_row(qubit_parties):
    # no row of a million settings is built before the counts are refused
    d = {"party": "A", "settings": 10**6, "outcomes": 0, "chois": {}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="instrument outcomes must be an integer >= 1, got 0"):
            cio.instrument_from_json(d, qubit_parties)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# instruments

def test_instrument_for_unknown_party_is_a_value_error(qubit_parties):
    a, _ = qubit_parties
    d = cio.instrument_to_json(cs.standard_instruments("measure_reprepare", a))
    d["party"] = "Z"
    with pytest.raises(ValueError, match=r"instrument party 'Z' is not one of \['A', 'B'\]"):
        cio.instrument_from_json(d, qubit_parties)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       dims=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_instrument_round_trip(qubit_parties, seed, counts, dims):
    a = cs.Party("A", cs.LabeledSpace("A_I", dims[0]), cs.LabeledSpace("A_O", dims[1]))
    _, b = qubit_parties
    ins = cs.random_instrument(a, *counts, np.random.default_rng(seed))
    d = json_trip(cio.instrument_to_json(ins))
    for parties in ([a, b], [b, a]):
        back = cio.instrument_from_json(d, parties)
        assert back.party == a
        assert (back.settings, back.outcomes) == counts
        for x in range(back.settings):
            for o in range(back.outcomes):
                assert back.choi(x, o).mat.tobytes() == ins.choi(x, o).mat.tobytes()


# ---------------------------------------------------------------------------
# probability tables

def make_table(rng, names="AB", settings=(2, 3), outcomes=(2, 2)):
    vals = rng.dirichlet(np.ones(math.prod(outcomes)), size=math.prod(settings))
    return cs.ProbabilityTable(tuple(names), vals.reshape(settings + outcomes))


# cell weights before each row is normalised: signed zeros and subnormals
# stay what they are, as a row keeps one weight of at least 1e-3
WEIGHTS = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310]) | st.floats(1e-3, 1.0)


@st.composite
def tables(draw):
    """1 to 3 parties named in any order, with 1..3 settings and outcomes
    each (at most 64 cells), every row a normalised draw of WEIGHTS."""
    names = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    shape = tuple(draw(dims_under(2 * len(names), 64)))  # settings, then outcomes
    cells = math.prod(shape[len(names):])
    rows = []
    for _ in range(math.prod(shape[:len(names)])):
        w = np.array(draw(st.lists(WEIGHTS, min_size=cells, max_size=cells)))
        w[-1] = draw(st.floats(1e-3, 1.0))
        rows.append(w / w.sum())
    return cs.ProbabilityTable(tuple(names), np.reshape(rows, shape))


@settings(max_examples=40)
@given(t=tables())
def test_table_csv_round_trip(t):
    text = cio.table_to_csv(t)
    assert text.splitlines()[0] == ",".join(
        [f"x_{q}" for q in t.parties] + [f"a_{q}" for q in t.parties] + ["p"])
    back = cio.table_from_csv(text)
    assert back.parties == t.parties
    assert (back.settings, back.outcomes) == (t.settings, t.outcomes)
    assert back.values.tobytes() == t.values.tobytes()


def test_table_csv_errors(rng):
    with pytest.raises(ValueError, match="header row and at least one data row"):
        cio.table_from_csv("")
    text = cio.table_to_csv(make_table(rng))
    lines = text.splitlines()
    with pytest.raises(ValueError, match="probability column"):
        cio.table_from_csv("\n".join([lines[0].replace(",p", ",prob")] + lines[1:]))
    with pytest.raises(ValueError, match="x_<party>"):
        cio.table_from_csv("\n".join([lines[0].replace("a_A", "b_A")] + lines[1:]))
    with pytest.raises(ValueError, match="full settings/outcomes grid"):
        cio.table_from_csv("\n".join(lines[:5] + lines[6:]))


@pytest.mark.parametrize("label", list(malformed_tables()))
def test_table_csv_rejects_malformed_rows(label):
    text, match = malformed_tables()[label]
    with pytest.raises(ValueError, match=match):
        cio.table_from_csv(text)


def test_table_csv_checks_coverage_before_allocating():
    # the 10^7 + 1 cells a far index spans take 80 MB if allocated before the check
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="do not cover"):
            cio.table_from_csv(far_index_table(10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# ---------------------------------------------------------------------------
# games, verdicts, certificates

def random_game(rng, settings, outcomes):
    dist = rng.uniform(size=settings)
    return cs.CausalGame(dist / dist.sum(), (rng.uniform(size=settings + outcomes) < 0.5))


def test_game_round_trip(rng):
    games = [cs.lgyni_game(), cs.ocb_game(), random_game(rng, (2, 4), (2, 2)),
             random_game(rng, (3, 2), (2, 3))]
    for g in games:
        d = json.loads(json.dumps(cio.game_to_json(g)))
        assert (d["settings"], d["outcomes"]) == (list(g.settings), list(g.outcomes))
        back = cio.game_from_json(d)
        # the alphabets are read back off the win table's shape
        assert back.settings == back.win.shape[:2] == g.settings
        assert back.outcomes == back.win.shape[2:] == g.outcomes
        assert np.array_equal(back.win, g.win)
        assert back.input_dist.tobytes() == g.input_dist.tobytes()


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(settings=5), "'settings' must be a list"),
    (lambda d: d.pop("wins"), "no 'wins' field"),
    (lambda d: d.update(outcomes=[2, "2"]), "outcomes entry must be an integer"),
    (lambda d: d.update(settings=[2, 0]), "positive counts"),
    (lambda d: d.update(outcomes=[2]), "one count per party"),
    (lambda d: d.update(input_dist=[[0.5, "x"], [0.25, 0.25]]), "finite numbers"),
    (lambda d: d.update(input_dist=[[float("nan"), 0.5], [0.25, 0.25]]), "finite numbers"),
    (lambda d: d["wins"].append(3), "wins entry must be a list"),
    (lambda d: d["wins"].append([0, 0, 2, 0]), "not an index"),
    (lambda d: d["wins"].append([0, 0, -1, 0]), "not an index"),
    (lambda d: d["wins"].append([0, 0, 0]), "not an index"),
    # input_dist is compared with settings before the win table exists
    (lambda d: d.update(input_dist=[[1.0]]),
     r"game input_dist has shape \(1, 1\), not the settings \(2, 2\)$"),
    (lambda d: d.update(settings=[100_000, 100_000], outcomes=[1000, 1000]),
     r"game input_dist has shape \(2, 2\), not the settings \(100000, 100000\)$"),
    # 8e18 bytes, more than any address space: numpy refuses at once
    (lambda d: d.update(settings=[1, 1], outcomes=[10**9, 10**9], input_dist=[[1.0]]),
     r"game win table of shape \(1, 1, 1000000000, 1000000000\) is too large to allocate$"),
])
def test_game_schema_errors_are_value_errors(edit, match):
    d = json.loads(json.dumps(cio.game_to_json(cs.gyni_game())))
    edit(d)
    with pytest.raises(ValueError, match=match):
        cio.game_from_json(d)
    with pytest.raises(ValueError, match="game must be an object"):
        cio.game_from_json([d])


def test_verdict_json_shapes():
    causal = cs.is_causal(np.full((2, 2, 2, 2), 0.25))
    d = cio.verdict_to_json(causal)
    assert d["causal"] is True
    assert len(d["weights"]) == 112
    p = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        p[x, y, y, x] = 1.0
    d = cio.verdict_to_json(cs.is_causal(p))
    assert d["causal"] is False
    assert d["weights"] is None and d["q_A_before_B"] is None


def test_verdict_json_carries_the_inequality():
    assert cio.verdict_to_json(cs.is_causal(np.full((2, 2, 2, 2), 0.25)))["inequality"] is None
    verdict = cs.is_causal(cs.born(cs.ocb_process(), list(cs.ocb_instruments())))
    d = json.loads(json.dumps(cio.verdict_to_json(verdict)))["inequality"]
    assert np.array_equal(np.array(d["coefficients"]), verdict.inequality)
    assert np.array(d["coefficients"]).shape == (2, 4, 2, 2)
    assert d["value"] == verdict.inequality_value and d["bound"] == verdict.inequality_bound
    assert d["value"] > d["bound"]


def test_certificate_json_shapes(qubit_parties):
    space = cs.parties_space(qubit_parties)
    noise = cs.ProcessMatrix(qubit_parties, cs.identity(space) / 4)
    cert = cs.check_separability(noise)
    d = cio.certificate_to_json(cert)
    assert d["separable"] is True and d["verdict"] == "separable"
    assert abs(d["q"] - 0.5) < 1e-9
    assert d["witness"] is None and d["witness_verified"] is False
    assert d["diagnostics"]["stalled"] is False
    assert d["diagnostics"]["reconstruction"] < 1e-6
    # full rank on the whole cone: each order's step is on its 8 x 8
    # reduced operator, one qubit output fewer than D = 16
    assert d["diagnostics"]["psd_dims"] == [8, 8]
    json.dumps(d)  # everything must be plain JSON types

    ocb = cs.check_separability(cs.ocb_process())
    d = cio.certificate_to_json(ocb)
    assert d["separable"] is False and d["witness_verified"] is True
    assert d["verdict"] == "nonseparable"
    diag = d["diagnostics"]
    for key in ("perp", "stalled", "eigh_steps", "psd_dims", "verification",
                "witness_overlap", "battery_min"):
        assert key in diag
    assert diag["eigh_steps"] == ocb.trace.eigh_steps == 0
    assert diag["psd_dims"] == [8, 8] and ocb.trace.psd_dims == (8, 8)  # OCB's rank-8 face
    assert "dual-cone" in diag["verification"]
    assert len(diag["certificate_margins"]) == 2
    text = json.dumps(d)
    assert json.loads(text)["diagnostics"] == diag
    # deterministic: a second run gives the same JSON
    again = cs.check_separability(cs.ocb_process())
    assert json.dumps(cio.certificate_to_json(again)) == text


# ---------------------------------------------------------------------------
# files

def test_save_and_load_json(tmp_path):
    d = {"alpha": [1, 2, 3], "beta": {"x": 0.5}}
    path = tmp_path / "blob.json"
    cio.save_json(d, str(path))
    assert path.read_text() == json.dumps(d) + "\n"
    assert cio.load_json(str(path)) == d


def test_deeply_nested_json_is_a_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="^JSON nested too deeply$"):
        cio.load_json(str(path))

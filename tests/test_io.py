import json
import math
import tracemalloc

import numpy as np
import pytest

import causalis as cs
from causalis import io as cio
from conftest import far_index_table, malformed_tables, mis_shaped_processes


def two_factor_space():
    return cs.SpaceProduct((cs.LabeledSpace("A", 2), cs.LabeledSpace("B", 3)))


# ---------------------------------------------------------------------------
# operators

def test_operator_round_trip_bit_exact(rng):
    space = two_factor_space()
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = cs.Operator(space, m)
    back = cio.operator_from_json(json.loads(json.dumps(cio.operator_to_json(op))))
    assert back.space == op.space
    assert np.array_equal(back.mat, op.mat)
    assert type(back) is cs.Operator


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

def test_process_round_trip(switch):
    d = json.loads(json.dumps(cio.process_to_json(switch)))
    back = cio.process_from_json(d)
    assert back.parties == switch.parties
    assert np.array_equal(back.w.mat, switch.w.mat)
    assert cs.validate_process(back).validity == "valid"
    # multi-factor input survives as a list, single factors as bare objects
    fiona = d["parties"][2]
    assert isinstance(fiona["input"], list) and len(fiona["input"]) == 2
    assert isinstance(fiona["output"], dict)


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
        ({"factors": good["factors"], "entries": [[1.0, 0.0]] * 3 + [[1.0]]}, "."),
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


def test_instrument_round_trip(qubit_parties):
    a, b = qubit_parties
    ins = cs.standard_instruments("measure_reprepare", a)
    d = json.loads(json.dumps(cio.instrument_to_json(ins)))
    for parties in ([a, b], qubit_parties):
        back = cio.instrument_from_json(d, parties)
        assert back.party == a
        assert (back.settings, back.outcomes) == (1, 2)
        for x in range(back.settings):
            for o in range(back.outcomes):
                assert np.array_equal(back.choi(x, o).mat, ins.choi(x, o).mat)


# ---------------------------------------------------------------------------
# probability tables

def make_table(rng, names="AB", settings=(2, 3), outcomes=(2, 2)):
    vals = rng.dirichlet(np.ones(math.prod(outcomes)), size=math.prod(settings))
    return cs.ProbabilityTable(tuple(names), vals.reshape(settings + outcomes))


def test_table_csv_round_trip(rng):
    # one, two and three parties; F has a single setting
    for names, settings, outcomes in [("A", (3,), (2,)), ("AB", (2, 3), (2, 2)),
                                      ("ABF", (2, 2, 1), (2, 3, 2))]:
        t = make_table(rng, names, settings, outcomes)
        text = cio.table_to_csv(t)
        assert text.splitlines()[0] == ",".join(
            [f"x_{q}" for q in names] + [f"a_{q}" for q in names] + ["p"])
        back = cio.table_from_csv(text)
        assert back.parties == t.parties == tuple(names)
        assert (back.settings, back.outcomes) == (settings, outcomes)
        assert np.array_equal(back.values, t.values)


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
    json.dumps(d)  # everything must be plain JSON types

    ocb = cs.check_separability(cs.ocb_process())
    d = cio.certificate_to_json(ocb)
    assert d["separable"] is False and d["witness_verified"] is True
    assert d["verdict"] == "nonseparable"
    diag = d["diagnostics"]
    for key in ("perp", "stalled", "verification", "witness_overlap", "battery_min"):
        assert key in diag
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

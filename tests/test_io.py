import json

import numpy as np
import pytest

import causalis as cs
from causalis import io as cio
from conftest import mis_shaped_processes


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
        (lambda d: d.update(outcomes=0), "positive"),
        (lambda d: d.update(chois=[]), "'chois' must be an object"),
        (lambda d: d["chois"].pop("0,1"), "no '0,1' field"),
        (lambda d: d.update(party=["A"]), "'party' must be a string"),
    ]:
        d = json.loads(json.dumps(good))
        edit(d)
        with pytest.raises(ValueError, match=match):
            cio.instrument_from_json(d, qubit_parties)


# ---------------------------------------------------------------------------
# instruments

def test_instrument_round_trip(qubit_parties):
    a, b = qubit_parties
    ins = cs.standard_instruments("measure_reprepare", a)
    d = json.loads(json.dumps(cio.instrument_to_json(ins)))
    for parties in ({"A": a, "B": b}, qubit_parties):
        back = cio.instrument_from_json(d, parties)
        assert back.party == a
        assert (back.settings, back.outcomes) == (1, 2)
        for x in range(back.settings):
            for o in range(back.outcomes):
                assert np.array_equal(back.choi(x, o).mat, ins.choi(x, o).mat)


# ---------------------------------------------------------------------------
# probability tables

def make_table(rng):
    vals = rng.dirichlet(np.ones(4), size=6).reshape(2, 3, 2, 2)
    return cs.ProbabilityTable(("A", "B"), (2, 3), (2, 2), vals)


def test_table_csv_round_trip(rng):
    t = make_table(rng)
    text = cio.table_to_csv(t)
    assert text.splitlines()[0] == "x_A,x_B,a_A,a_B,p"
    back = cio.table_from_csv(text)
    assert back.parties == t.parties
    assert back.settings == t.settings and back.outcomes == t.outcomes
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


# ---------------------------------------------------------------------------
# games, verdicts, certificates

def test_game_round_trip():
    g = cs.lgyni_game()
    back = cio.game_from_json(json.loads(json.dumps(cio.game_to_json(g))))
    assert back.settings == g.settings and back.outcomes == g.outcomes
    assert np.array_equal(back.win, g.win)
    assert np.array_equal(back.input_dist, g.input_dist)


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

    ocb = cs.check_separability(cs.ocb_process(), battery_per_order=20, battery_mixtures=0)
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
    again = cs.check_separability(cs.ocb_process(), battery_per_order=20, battery_mixtures=0)
    assert json.dumps(cio.certificate_to_json(again)) == text


# ---------------------------------------------------------------------------
# files

def test_save_and_load_json(tmp_path):
    d = {"alpha": [1, 2, 3], "beta": {"x": 0.5}}
    path = tmp_path / "blob.json"
    cio.save_json(d, str(path))
    text = path.read_text()
    assert text.endswith("}\n")
    assert text.startswith('{\n  "alpha"')
    assert cio.load_json(str(path)) == d

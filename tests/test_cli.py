import json
import re

import numpy as np
import pytest

import causalis as cs
from causalis import io as cio
from causalis.cli import main
from causalis.process import validity_report
from conftest import mis_shaped_processes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def save_process(path, p):
    cio.save_json(cio.process_to_json(p), str(path))


def save_instrument(path, ins):
    cio.save_json(cio.instrument_to_json(ins), str(path))


def white_noise(parties):
    space = cs.parties_space(parties)
    return cs.ProcessMatrix(parties, cs.identity(space) / 4)


@pytest.fixture()
def ordered_setup(tmp_path, qubit_parties):
    """Ordered A->B process plus 2-setting/2-outcome instrument files."""
    rng = np.random.default_rng(5)
    p = cs.validate_process(cs.random_ordered_process(list(qubit_parties), rng))
    paths = {"process": tmp_path / "proc.json"}
    save_process(paths["process"], p)
    for party in qubit_parties:
        f = tmp_path / f"ins_{party.name}.json"
        save_instrument(f, cs.random_instrument(party, 2, 2, rng))
        paths[party.name] = f
    return paths


# ---------------------------------------------------------------------------
# switch / validate

def test_switch_then_validate(tmp_path, capsys):
    out = tmp_path / "switch.json"
    code, report, _ = run(capsys, "switch", "--out", str(out))
    assert code == 0
    assert report["schema"] == "causalis/1" and report["command"] == "switch"
    assert abs(report["results"]["trace"] - 4.0) < 1e-9
    assert report["results"]["parties"] == ["A", "B", "F"]

    code, report, _ = run(capsys, "validate", "--in", str(out))
    assert code == 0
    res = report["results"]
    assert res["validity"] == "valid" and res["reason"] is None
    assert res["min_eigenvalue"] > -1e-10
    assert res["max_normalization_residual"] < 1e-9
    assert res["expected_trace"] == 4


def test_switch_rejects_unnormalized_target(tmp_path, capsys):
    code, report, err = run(
        capsys, "switch", "--psi", "1,1", "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and report is None
    assert err.startswith("error:") and "normalized" in err


def test_validate_flags_invalid_process(tmp_path, qubit_parties, capsys):
    p = white_noise(qubit_parties)
    bad = cs.ProcessMatrix(qubit_parties, p.w * 1.5)
    path = tmp_path / "bad.json"
    save_process(path, bad)
    code, report, _ = run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert report["results"]["validity"] == "invalid"
    assert "normalization" in report["results"]["reason"]


def test_validate_missing_file(capsys, tmp_path):
    code, report, err = run(capsys, "validate", "--in", str(tmp_path / "nope.json"))
    assert code == 2 and report is None and err.startswith("error:")


def test_tol_range_enforced(tmp_path, capsys):
    code, report, err = run(
        capsys, "validate", "--in", str(tmp_path / "x.json"), "--tol", "1"
    )
    assert code == 2 and report is None
    assert "tolerance must lie in" in err


def test_validate_rejects_mis_shaped_or_non_finite_files(tmp_path, switch, capsys):
    for k, (label, d, match) in enumerate(mis_shaped_processes(switch)):
        path = tmp_path / f"bad{k}.json"
        cio.save_json(d, str(path))
        code, report, err = run(capsys, "validate", "--in", str(path))
        assert code == 2 and report is None, label
        assert err.startswith("error:") and re.search(match, err), (label, err)


def test_validate_report_matches_library(tmp_path, qubit_parties, capsys):
    rng = np.random.default_rng(3)
    p = cs.random_ordered_process(list(qubit_parties), rng)
    p = cs.ProcessMatrix(p.parties, p.w * 1.01)
    path = tmp_path / "p.json"
    save_process(path, p)
    code, report, _ = run(capsys, "validate", "--in", str(path))
    assert code == 1
    want = cs.validate_process(p)
    assert report["results"]["reason"] == want.reason
    assert report["results"]["max_normalization_residual"] == pytest.approx(
        validity_report(p)["max_normalization_residual"], abs=1e-15)


def test_born_rejects_mis_shaped_instrument(tmp_path, ordered_setup, capsys):
    d = cio.load_json(str(ordered_setup["A"]))
    d["settings"] = "2"
    bad = tmp_path / "bad_A.json"
    cio.save_json(d, str(bad))
    code, report, err = run(
        capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(bad), str(ordered_setup["B"]), "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2 and report is None and "'settings' must be an integer" in err


# ---------------------------------------------------------------------------
# born / ineq

def test_born_writes_table(tmp_path, ordered_setup, capsys):
    out = tmp_path / "table.csv"
    code, report, _ = run(
        capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(ordered_setup["A"]), str(ordered_setup["B"]),
        "--out", str(out),
    )
    assert code == 0
    assert report["results"]["parties"] == ["A", "B"]
    table = cio.table_from_csv(out.read_text())
    assert table.settings == (2, 2) and table.outcomes == (2, 2)


def test_born_refuses_invalid_process(tmp_path, qubit_parties, capsys):
    bad = cs.ProcessMatrix(qubit_parties, white_noise(qubit_parties).w * 1.5)
    ppath = tmp_path / "bad.json"
    save_process(ppath, bad)
    rng = np.random.default_rng(0)
    ipaths = []
    for party in qubit_parties:
        f = tmp_path / f"i{party.name}.json"
        save_instrument(f, cs.random_instrument(party, 2, 2, rng))
        ipaths.append(str(f))
    out = tmp_path / "t.csv"
    code, report, _ = run(
        capsys, "born", "--process", str(ppath), "--instruments", *ipaths,
        "--out", str(out),
    )
    assert code == 1
    assert report["results"]["validity"] == "invalid"
    assert not out.exists()


def test_ineq_table_and_born_paths_agree(tmp_path, ordered_setup, capsys):
    out = tmp_path / "table.csv"
    run(capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(ordered_setup["A"]), str(ordered_setup["B"]),
        "--out", str(out))
    code1, rep1, _ = run(capsys, "ineq", "--game", "gyni", "--table", str(out))
    code2, rep2, _ = run(
        capsys, "ineq", "--game", "gyni",
        "--process", str(ordered_setup["process"]),
        "--instruments", str(ordered_setup["A"]), str(ordered_setup["B"]),
    )
    assert code1 == 0 and code2 == 0
    assert rep1["results"] == rep2["results"]
    assert rep1["results"]["bound"] == 0.5
    assert rep1["results"]["verdict"]["causal"] is True


def test_ineq_flags_ocb_violation(tmp_path, capsys):
    ppath = tmp_path / "ocb.json"
    save_process(ppath, cs.ocb_process())
    ins_a, ins_b = cs.ocb_instruments()
    for ins, name in ((ins_a, "A"), (ins_b, "B")):
        save_instrument(tmp_path / f"ocb_{name}.json", ins)
    code, report, _ = run(
        capsys, "ineq", "--game", "ocb", "--process", str(ppath),
        "--instruments", str(tmp_path / "ocb_A.json"), str(tmp_path / "ocb_B.json"),
    )
    assert code == 1
    res = report["results"]
    assert abs(res["value"] - (2 + np.sqrt(2)) / 4) < 1e-9
    assert res["bound"] == 0.75
    assert res["violated"] is True
    assert res["verdict"]["causal"] is False
    assert res["verdict"]["residual"] > 1e-3


def test_ineq_requires_one_input_path(tmp_path, ordered_setup, capsys):
    out = tmp_path / "table.csv"
    run(capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(ordered_setup["A"]), str(ordered_setup["B"]),
        "--out", str(out))
    code, _, err = run(
        capsys, "ineq", "--game", "gyni", "--table", str(out),
        "--process", str(ordered_setup["process"]),
    )
    assert code == 2 and "either --table or --process" in err
    code, _, err = run(capsys, "ineq", "--game", "gyni")
    assert code == 2 and "either --table or --process" in err


def test_ineq_rejects_mis_shaped_game_file(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(cio.table_to_csv(cs.born(cs.ocb_process(), list(cs.ocb_instruments()))))
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"settings": 5}))
    code, _, err = run(capsys, "ineq", "--game-file", str(game), "--table", str(table))
    assert code == 2 and "'settings' must be a list" in err


# ---------------------------------------------------------------------------
# sep / demo

def test_sep_on_even_noise(tmp_path, qubit_parties, capsys):
    path = tmp_path / "noise.json"
    save_process(path, white_noise(qubit_parties))
    code, report, _ = run(capsys, "sep", "--in", str(path), "--seed", "3")
    assert code == 0
    res = report["results"]
    assert res["separable"] is True and res["verdict"] == "separable"
    assert abs(res["q"] - 0.5) < 1e-9
    assert res["witness"] is None


def test_sep_exit_codes_follow_the_verdict(tmp_path, switch, capsys):
    traced = cs.ProcessMatrix(switch.parties[:2],
                              cs.partial_trace(switch.w, ("F_c", "F_t", "F_O")))
    save_process(tmp_path / "traced.json", traced)
    save_process(tmp_path / "ocb.json", cs.ocb_process())
    code, report, _ = run(capsys, "sep", "--in", str(tmp_path / "traced.json"),
                          "--seed", "3", "--max-iters", "10")
    assert code == 3
    res = report["results"]
    assert res["verdict"] == "undecided" and res["separable"] is False
    assert res["iterations"] == 10 and res["diagnostics"]["stalled"] is False
    code, report, _ = run(capsys, "sep", "--in", str(tmp_path / "ocb.json"),
                          "--seed", "3", "--battery", "20")
    assert code == 1
    assert report["results"]["verdict"] == "nonseparable"
    assert report["results"]["witness_verified"] is True


def test_sep_requires_seed(tmp_path, qubit_parties, capsys):
    path = tmp_path / "noise.json"
    save_process(path, white_noise(qubit_parties))
    code, report, err = run(capsys, "sep", "--in", str(path))
    assert code == 2 and report is None
    assert "--seed" in err


@pytest.mark.parametrize("u,v,want", [("X", "Z", 0.0), ("X", "X", 1.0), ("I", "I", 1.0)])
def test_demo_values(capsys, u, v, want):
    code, report, _ = run(capsys, "demo", "--u", u, "--v", v)
    assert code == 0
    assert abs(report["results"]["p_plus"] - want) < 1e-12


def test_demo_rejects_unknown_gate(capsys):
    code, report, err = run(capsys, "demo", "--u", "Q", "--v", "Z")
    assert code == 2 and report is None and "gates must come from" in err


# ---------------------------------------------------------------------------
# report envelope

def test_reports_identical_apart_from_timing(capsys):
    _, rep1, _ = run(capsys, "demo", "--u", "X", "--v", "Z")
    _, rep2, _ = run(capsys, "demo", "--u", "X", "--v", "Z")
    del rep1["wall_time_s"], rep2["wall_time_s"]
    assert rep1 == rep2


def test_report_envelope_keys(capsys):
    _, report, _ = run(capsys, "demo", "--u", "H", "--v", "H")
    assert set(report) == {
        "schema", "command", "config", "results", "wall_time_s", "version",
    }
    assert report["version"] == cs.__version__
    assert report["config"] == {"u": "H", "v": "H"}


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"causalis {cs.__version__}"


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    err = capsys.readouterr().err
    assert code == 2 and "invalid choice" in err


# ---------------------------------------------------------------------------
# the parser is built once per process: no state may carry between calls

def test_reused_parser_resets_defaults(tmp_path, switch, capsys):
    path = tmp_path / "switch.json"
    save_process(path, switch)
    _, rep1, _ = run(capsys, "validate", "--in", str(path), "--tol", "1e-3")
    _, rep2, _ = run(capsys, "validate", "--in", str(path))
    assert rep1["config"]["tol"] == 1e-3
    assert rep2["config"] == {"infile": str(path), "psd_tol": 1e-10, "tol": 1e-9}


def test_reused_parser_recovers_from_usage_error_and_version(capsys):
    good = ("demo", "--u", "X", "--v", "Z")
    _, want, _ = run(capsys, *good)
    for bad, code in ((["demo", "--u", "X"], 2), (["--version"], 0)):
        assert main(bad) == code
        capsys.readouterr()
        got_code, got, err = run(capsys, *good)
        assert got_code == 0 and err == ""
        del got["wall_time_s"]
        assert got == {k: v for k, v in want.items() if k != "wall_time_s"}

import json
import re
import tracemalloc

import numpy as np
import pytest

import causalis as cs
from causalis import cli
from causalis import io as cio
from causalis.causality import CAUSAL_TOL
from causalis.cli import build_parser, main
from causalis.process import LIN_TOL, PSD_TOL, validity_report
from causalis.separability import MAX_ITERS, SEP_TOL
from conftest import malformed_tables, mis_shaped_processes


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
    assert res["hermiticity_defect"] == 0.0


def test_switch_rejects_unnormalized_target(tmp_path, capsys):
    code, report, err = run(
        capsys, "switch", "--psi", "1,1", "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and report is None
    assert err.startswith("error:") and "normalized" in err


def test_input_too_large_to_build_exits_2(tmp_path, capsys, monkeypatch):
    # a switch with many amplitudes needs more memory than there is; the
    # library call is stubbed to fail as numpy does, so nothing is allocated
    def too_large(*args):
        raise MemoryError("Unable to allocate 11.6 GiB for an array")

    monkeypatch.setattr(cli, "make_quantum_switch", too_large)
    out = tmp_path / "x.json"
    code, report, err = run(capsys, "switch", "--psi", ",".join(["0.125"] * 64), "--out", str(out))
    assert code == 2 and report is None
    assert err == "error: Unable to allocate 11.6 GiB for an array\n"
    assert not out.exists()


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


def test_sep_rejects_duplicate_party_names(tmp_path, switch, capsys):
    d = cio.process_to_json(switch)
    d["parties"][1]["name"] = "A"
    path = tmp_path / "dup.json"
    cio.save_json(d, str(path))
    code, report, err = run(capsys, "sep", "--in", str(path))
    assert code == 2 and report is None
    assert "party names must be distinct; repeated: 'A'" in err


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


def test_born_rejects_choi_entries_outside_the_grid(tmp_path, ordered_setup, capsys):
    # an extra setting's Choi with "settings": 2 left as it was: exit 0 and
    # settings [2, 2], the entry dropped
    d = cio.load_json(str(ordered_setup["A"]))
    d["chois"]["2,0"] = d["chois"]["0,0"]
    bad = tmp_path / "bad_A.json"
    cio.save_json(d, str(bad))
    out = tmp_path / "t.csv"
    code, report, err = run(
        capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(bad), str(ordered_setup["B"]), "--out", str(out),
    )
    assert code == 2 and report is None and not out.exists()
    assert err == "error: instrument chois ['2,0'] lie outside the 2 x 2 grid\n"


def test_born_rejects_instrument_for_unknown_party(tmp_path, ordered_setup, capsys):
    d = cio.load_json(str(ordered_setup["A"]))
    d["party"] = "Z"
    bad = tmp_path / "ins_Z.json"
    cio.save_json(d, str(bad))
    out = tmp_path / "t.csv"
    code, report, err = run(
        capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(bad), str(ordered_setup["B"]), "--out", str(out),
    )
    assert code == 2 and report is None and not out.exists()
    assert err == "error: instrument party 'Z' is not one of ['A', 'B']\n"


def test_born_rejects_two_instruments_for_one_party(tmp_path, ordered_setup, capsys):
    out = tmp_path / "t.csv"
    code, report, err = run(
        capsys, "born", "--process", str(ordered_setup["process"]),
        "--instruments", str(ordered_setup["A"]), str(ordered_setup["A"]),
        str(ordered_setup["B"]), "--out", str(out),
    )
    assert code == 2 and report is None and not out.exists()
    assert err == "error: instrument party names must be distinct; repeated: 'A'\n"


def test_born_refuses_huge_instrument_counts_at_once(tmp_path, ordered_setup, capsys):
    # a million settings and no outcome: refused before one row is built
    bad = tmp_path / "huge_A.json"
    bad.write_text(json.dumps({"party": "A", "settings": 10**6, "outcomes": 0, "chois": {}}))
    tracemalloc.start()
    try:
        code, report, err = run(
            capsys, "born", "--process", str(ordered_setup["process"]),
            "--instruments", str(bad), str(ordered_setup["B"]), "--out", str(tmp_path / "t.csv"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and report is None
    assert err == "error: instrument outcomes must be an integer >= 1, got 0\n"
    assert peak < 2**20


@pytest.mark.parametrize("command", ["validate", "born", "sep"])
def test_deeply_nested_json_is_an_input_error(tmp_path, ordered_setup, capsys, command):
    # the decoder's RecursionError is malformed input, exit 2, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"validate": ["--in", str(deep)],
            "born": ["--process", str(ordered_setup["process"]), "--instruments", str(deep),
                     str(ordered_setup["B"]), "--out", str(tmp_path / "t.csv")],
            "sep": ["--in", str(deep)]}[command]
    code, report, err = run(capsys, command, *argv)
    assert code == 2 and report is None
    assert err == "error: JSON nested too deeply\n"


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


@pytest.fixture()
def invalid_setup(tmp_path, qubit_parties):
    """A process file with trace 6 (1.5 x white noise) plus instrument files."""
    bad = cs.ProcessMatrix(qubit_parties, white_noise(qubit_parties).w * 1.5)
    ppath = tmp_path / "bad.json"
    save_process(ppath, bad)
    rng = np.random.default_rng(0)
    ipaths = []
    for party in qubit_parties:
        f = tmp_path / f"i{party.name}.json"
        save_instrument(f, cs.random_instrument(party, 2, 2, rng))
        ipaths.append(str(f))
    return str(ppath), ipaths


def test_born_refuses_invalid_process(tmp_path, invalid_setup, capsys):
    ppath, ipaths = invalid_setup
    out = tmp_path / "t.csv"
    code, report, err = run(
        capsys, "born", "--process", ppath, "--instruments", *ipaths, "--out", str(out),
    )
    assert code == 2 and report is None
    assert err.startswith("error: process is not valid: normalization: trace 6 != 4")
    assert not out.exists()


def test_invalid_process_is_an_input_error_for_every_consumer(tmp_path, invalid_setup, capsys):
    # born, ineq and sep refuse the file the same way; validate's verdict is 1
    ppath, ipaths = invalid_setup
    errs = []
    for argv in (["born", "--process", ppath, "--instruments", *ipaths,
                  "--out", str(tmp_path / "t.csv")],
                 ["ineq", "--game", "gyni", "--process", ppath, "--instruments", *ipaths],
                 ["sep", "--in", ppath]):
        code, report, err = run(capsys, *argv)
        assert code == 2 and report is None, argv[0]
        errs.append(err)
    assert errs[0].startswith("error: process is not valid: ") and len(set(errs)) == 1
    code, report, _ = run(capsys, "validate", "--in", ppath)
    assert code == 1 and report["results"]["validity"] == "invalid"
    assert errs[0] == f"error: process is not valid: {report['results']['reason']}\n"


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


@pytest.mark.parametrize("label", list(malformed_tables()))
def test_ineq_rejects_malformed_table(tmp_path, capsys, label):
    text, match = malformed_tables()[label]
    path = tmp_path / "table.csv"
    path.write_text(text)
    code, report, err = run(capsys, "ineq", "--game", "gyni", "--table", str(path))
    assert code == 2 and report is None
    assert err.startswith("error:") and match in err


def test_ineq_rejects_mis_shaped_game_file(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(cio.table_to_csv(cs.born(cs.ocb_process(), list(cs.ocb_instruments()))))
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"settings": 5}))
    code, _, err = run(capsys, "ineq", "--game-file", str(game), "--table", str(table))
    assert code == 2 and "'settings' must be a list" in err


@pytest.mark.parametrize("n", [1, 3])
def test_ineq_rejects_non_bipartite_game_file(tmp_path, capsys, n):
    table = tmp_path / "table.csv"
    table.write_text(cio.table_to_csv(cs.born(cs.ocb_process(), list(cs.ocb_instruments()))))
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"settings": [2] * n, "outcomes": [2] * n,
                                "input_dist": np.full((2,) * n, 0.5**n).tolist(), "wins": []}))
    code, report, err = run(capsys, "ineq", "--game-file", str(game), "--table", str(table))
    assert code == 2 and report is None and "two parties, A and B" in err


@pytest.mark.parametrize("settings, outcomes, match", [
    ([100_000, 100_000], [1000, 1000],
     "game input_dist has shape (1, 1), not the settings (100000, 100000)"),
    # 8e18 bytes: more than any address space, so numpy refuses at once
    ([1, 1], [10**9, 10**9],
     "game win table of shape (1, 1, 1000000000, 1000000000) is too large to allocate"),
], ids=["input_dist_shape", "8e18_byte_table"])
def test_ineq_refuses_game_files_too_large_to_allocate(tmp_path, capsys, settings, outcomes,
                                                        match):
    table = tmp_path / "table.csv"
    table.write_text(cio.table_to_csv(cs.born(cs.ocb_process(), list(cs.ocb_instruments()))))
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"settings": settings, "outcomes": outcomes,
                                "input_dist": [[1.0]], "wins": []}))
    code, report, err = run(capsys, "ineq", "--game-file", str(game), "--table", str(table))
    assert code == 2 and report is None
    assert err == f"error: {match}\n"


# ---------------------------------------------------------------------------
# sep / demo

def test_sep_on_even_noise(tmp_path, qubit_parties, capsys):
    path = tmp_path / "noise.json"
    save_process(path, white_noise(qubit_parties))
    code, report, _ = run(capsys, "sep", "--in", str(path))
    assert code == 0
    res = report["results"]
    assert res["separable"] is True and res["verdict"] == "separable"
    assert abs(res["q"] - 0.5) < 1e-9
    assert res["witness"] is None
    # the decomposition's evidence: each component's smallest eigenvalue
    # and the tolerance its residual fell below
    diag = res["diagnostics"]
    assert diag["face_rank"] == 16 and diag["tol"] == 1e-7
    assert len(diag["component_min_eigenvalues"]) == 2
    assert min(diag["component_min_eigenvalues"]) > 0


def test_sep_decides_a_pure_process_in_closed_form(tmp_path, capsys):
    # the degenerate switch has rank 1 and lies in the subspace of (A, B, F):
    # one closed-form step, with each order's distance from W to its subspace
    path = tmp_path / "degenerate.json"
    save_process(path, cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0).to_matrix())
    code, report, _ = run(capsys, "sep", "--in", str(path))
    assert code == 0
    res = report["results"]
    assert res["verdict"] == "separable" and abs(res["q"] - 1.0) < 1e-9
    assert res["iterations"] == 1 and res["residual"] < SEP_TOL
    diag = res["diagnostics"]
    assert diag["face_rank"] == 1 and "face_iterations" not in diag
    near, far = diag["order_distances"]
    assert near < SEP_TOL < far


def test_sep_exit_codes_follow_the_verdict(tmp_path, switch, capsys):
    traced = cs.ProcessMatrix(switch.parties[:2],
                              cs.partial_trace(switch.w, ("F_c", "F_t", "F_O")))
    save_process(tmp_path / "traced.json", traced)
    save_process(tmp_path / "ocb.json", cs.ocb_process())
    code, report, _ = run(capsys, "sep", "--in", str(tmp_path / "traced.json"),
                          "--max-iters", "5")
    assert code == 3
    res = report["results"]
    assert res["verdict"] == "undecided" and res["separable"] is False
    assert res["iterations"] == 5 and res["diagnostics"]["stalled"] is False
    code, report, _ = run(capsys, "sep", "--in", str(tmp_path / "ocb.json"))
    assert code == 1
    assert report["results"]["verdict"] == "nonseparable"
    assert report["results"]["witness_verified"] is True
    # OCB's face run never leaves the PSD cone, so no step runs eigh
    assert report["results"]["iterations"] == 500
    assert report["results"]["diagnostics"]["eigh_steps"] == 0
    # the battery is fixed: one size for the samples per order and the
    # mixtures, one seed, and neither is part of the config
    diag = report["results"]["diagnostics"]
    assert diag["samples_per_order"] == diag["n_mixtures"] == 500
    assert diag["witness_seed"] == 7
    assert report["config"] == {"infile": str(tmp_path / "ocb.json"),
                                "max_iters": MAX_ITERS, "tol": SEP_TOL}


def test_sep_stall_without_witness_exits_3(tmp_path, capsys):
    # tol sets feasibility only: 0.3 white noise on OCB stalls at 500
    # iterations with Tr[S W] = -0.051 and is certified at either tol
    ocb = cs.ocb_process()
    w = (ocb.w + cs.identity(ocb.w.space) * (0.3 / 4)) * (1 / 1.3)
    save_process(tmp_path / "noisy.json", cs.ProcessMatrix(ocb.parties, w))
    args = ("sep", "--in", str(tmp_path / "noisy.json"))
    for tol in ("1e-7", "1e-2"):
        code, report, _ = run(capsys, *args, "--tol", tol)
        res = report["results"]
        assert code == 1 and res["verdict"] == "nonseparable"
        assert res["diagnostics"]["stalled"] is True and res["iterations"] == 500
        # full rank, so the run is on the whole cone, where every step clips,
        # each on an order's 8 x 8 reduced operator
        assert res["diagnostics"]["eigh_steps"] == 500
        assert res["diagnostics"]["psd_dims"] == [8, 8]
    # the traced switch is separable, so a run cut short at 5 iterations
    # has no witness (Tr[S W] = +0.269) and is undecided
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    a, b, _ = qs.parties
    traced = cs.partial_trace(qs.to_matrix().w, ("F_c", "F_t", "F_O"))
    save_process(tmp_path / "traced.json", cs.ProcessMatrix((a, b), traced))
    code, report, _ = run(capsys, "sep", "--in", str(tmp_path / "traced.json"),
                          "--max-iters", "5")
    res = report["results"]
    assert code == 3 and res["verdict"] == "undecided"
    assert res["diagnostics"]["stalled"] is False and res["iterations"] == 5
    assert res["witness_verified"] is False and "rejected" in res["diagnostics"]
    assert res["diagnostics"]["witness_overlap"] > 0


@pytest.mark.parametrize("flag", ["--max-iters"])
def test_sep_rejects_counts_below_one(tmp_path, capsys, flag):
    code, report, err = run(capsys, "sep", "--in", str(tmp_path / "missing.json"), flag, "0")
    assert code == 2 and report is None
    assert err.splitlines()[-1] == f"causalis sep: error: argument {flag}: must be an integer >= 1, got 0"


@pytest.mark.parametrize("argv, message", [
    (("validate", "--in", "missing.json", "--tol", "abc"),
     "causalis validate: error: argument --tol: not a number: 'abc'"),
    (("switch", "--alpha", "1+", "--out", "missing.json"),
     "causalis switch: error: argument --alpha: not a complex literal: '1+'"),
])
def test_number_flags_reject_malformed_text(capsys, argv, message):
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.splitlines()[-1] == message


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--battery", "20")])
def test_sep_refuses_the_removed_battery_flags(tmp_path, capsys, flag, value):
    # the battery is fixed, so a script that still sets it fails loudly
    code, report, err = run(capsys, "sep", "--in", str(tmp_path / "missing.json"), flag, value)
    assert code == 2 and report is None
    assert err.splitlines()[-1] == f"causalis: error: unrecognized arguments: {flag} {value}"


@pytest.mark.parametrize("u,v,want", [("X", "Z", 0.0), ("X", "X", 1.0), ("I", "I", 1.0)])
def test_demo_values(capsys, u, v, want):
    code, report, _ = run(capsys, "demo", "--u", u, "--v", v)
    assert code == 0
    assert abs(report["results"]["p_plus"] - want) < 1e-12


def test_demo_rejects_unknown_gate(capsys):
    code, report, err = run(capsys, "demo", "--u", "Q", "--v", "Z")
    assert code == 2 and report is None
    assert "argument --u: invalid choice: 'Q'" in err


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


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    defaults = {
        ("validate", "--in", "x"): {"tol": LIN_TOL, "psd_tol": PSD_TOL},
        ("sep", "--in", "x"): {"tol": SEP_TOL, "max_iters": MAX_ITERS},
        ("ineq", "--game", "gyni"): {"tol": CAUSAL_TOL},
    }
    for argv, want in defaults.items():
        args = vars(parser.parse_args(argv))
        # the very objects, not equal copies: a literal in the parser fails this
        assert all(args[k] is v for k, v in want.items()), (argv[0], args)
    # sep sets nothing but its file, tol and max_iters: the battery is fixed
    args = vars(parser.parse_args(["sep", "--in", "x"]))
    assert set(args) == {"command", "func", "infile", "tol", "max_iters"}


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

"""Command-line front end.

Each subcommand reads JSON/CSV files, dispatches to the library, and prints
a versioned JSON report to stdout. Exit codes: 0 verdict-positive (valid /
separable / causal / computed); 1 verdict-negative (`validate` invalid, `sep`
nonseparable, `ineq` violated or not causal); 2 usage or input errors, an
invalid process given to `born`, `ineq` or `sep` among them; 3 undecided
(`sep` found neither a decomposition nor a certified witness). Reports are
byte-identical across identical invocations apart from wall_time_s.

`main` parses with one argparse tree per process (`_parser`), since building
it costs more than most subcommands; `build_parser` returns a fresh tree.
scipy is loaded only when a subcommand reaches `is_causal` (`ineq`).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .causality import CAUSAL_TOL, gyni_game, is_causal, lgyni_game, ocb_game, score_inequality
from .instruments import born, switch_discrimination_demo
from .io import (
    certificate_to_json,
    game_from_json,
    instrument_from_json,
    load_json,
    process_from_json,
    process_to_json,
    save_json,
    table_from_csv,
    table_to_csv,
    verdict_to_json,
)
from .process import LIN_TOL, PSD_TOL, make_quantum_switch, validate_process, validity_report
from .separability import MAX_ITERS, SEP_TOL, check_separability

GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1.0 + 0j, 1j]),
    "T": np.diag([1.0 + 0j, np.exp(1j * np.pi / 4)]),
}
GAMES = {"gyni": gyni_game, "lgyni": lgyni_game, "ocb": ocb_game}


def _tol_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 1e-14 <= v <= 1e-2:
        raise argparse.ArgumentTypeError("tolerance must lie in [1e-14, 1e-2]")
    return v


def _count_arg(least: int):
    """The argparse type of a count: an integer >= least."""
    def parse(text: str) -> int:
        v = int(text)
        if v < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {v}")
        return v

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, results)

def cmd_validate(args):
    p = process_from_json(load_json(args.infile))
    p = validate_process(p, psd_tol=args.psd_tol, lin_tol=args.tol)
    results = {"validity": p.validity, "reason": p.reason}
    results.update(validity_report(p))
    return (0 if p.validity == "valid" else 1), results


def cmd_switch(args):
    psi = [complex(c) for c in args.psi.split(",")]
    qs = make_quantum_switch(psi, args.alpha, args.beta)
    p = validate_process(qs.to_matrix())
    save_json(process_to_json(p), args.out)
    results = {
        "out": args.out,
        "validity": p.validity,
        "reason": p.reason,
        "trace": float(p.w.trace().real),
        "parties": [party.name for party in p.parties],
    }
    return (0 if p.validity == "valid" else 1), results


def _born_table(process_path, instrument_paths):
    """Born table of the files; `born` refuses an invalid process (ValueError)."""
    p = process_from_json(load_json(process_path))
    return born(p, [instrument_from_json(load_json(f), p.parties) for f in instrument_paths])


def cmd_born(args):
    table = _born_table(args.process, args.instruments)
    with open(args.out, "w") as fh:
        fh.write(table_to_csv(table))
    return 0, {
        "out": args.out,
        "parties": list(table.parties),
        "settings": list(table.settings),
        "outcomes": list(table.outcomes),
    }


def cmd_sep(args):
    p = process_from_json(load_json(args.infile))
    cert = check_separability(p, tol=args.tol, max_iters=args.max_iters)
    code = {"separable": 0, "nonseparable": 1, "undecided": 3}[cert.verdict]
    return code, certificate_to_json(cert)


def cmd_ineq(args):
    if args.game_file:
        game = game_from_json(load_json(args.game_file))
    else:
        game = GAMES[args.game]()
    given = (bool(args.table), bool(args.process), bool(args.instruments))
    if given not in ((True, False, False), (False, True, True)):
        raise ValueError("pass either --table or --process with --instruments")
    if args.table:
        with open(args.table) as fh:
            table = table_from_csv(fh.read())
    else:
        table = _born_table(args.process, args.instruments)
    score = score_inequality(table, game)
    verdict = is_causal(table, tol=args.tol)
    results = {
        "value": score.value,
        "bound": score.bound,
        "violated": score.violated,
        "verdict": verdict_to_json(verdict),
    }
    return (0 if verdict.causal and not score.violated else 1), results


def cmd_demo(args):
    p_plus = switch_discrimination_demo(GATES[args.u], GATES[args.v])
    return 0, {"u": args.u, "v": args.v, "p_plus": p_plus}


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalis",
        description="Process-matrix toolkit: validity, switch construction, "
        "Born-rule tables, causal separability, causal inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"causalis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a process JSON file (exit 1 if invalid)")
    v.add_argument("--in", dest="infile", required=True, help="process JSON path")
    v.add_argument("--tol", type=_tol_arg, default=LIN_TOL,
                   help="normalization tolerance: bound on |Tr W / prod d_O - 1| and on "
                        "each forbidden term pattern's weighted coefficient norm r_U")
    v.add_argument("--psd-tol", type=_tol_arg, default=PSD_TOL, help="positivity tolerance")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("switch", help="emit a quantum-switch process JSON")
    s.add_argument("--alpha", type=_complex_arg, default=complex(1 / np.sqrt(2)),
                   help="first-order amplitude (complex literal)")
    s.add_argument("--beta", type=_complex_arg, default=complex(1 / np.sqrt(2)),
                   help="second-order amplitude")
    s.add_argument("--psi", default="1,0",
                   help="target state, comma-separated complex amplitudes")
    s.add_argument("--out", required=True, help="where to write the process JSON")
    s.set_defaults(func=cmd_switch)

    b = sub.add_parser("born", help="evaluate a probability table to CSV")
    b.add_argument("--process", required=True, help="process JSON path")
    b.add_argument("--instruments", nargs="+", required=True,
                   help="instrument JSON paths, one per party")
    b.add_argument("--out", required=True, help="where to write the CSV table")
    b.set_defaults(func=cmd_born)

    p = sub.add_parser("sep", help="decide whether W mixes fixed orders of the parties with "
                       "a nontrivial output; with two such parties this is causal "
                       "separability (exit 1 if a witness certifies nonseparable, "
                       "3 if undecided)")
    p.add_argument("--in", dest="infile", required=True, help="process JSON path")
    p.add_argument("--tol", type=_tol_arg, default=SEP_TOL, help="feasibility tolerance")
    p.add_argument("--max-iters", type=_count_arg(1), default=MAX_ITERS)
    p.set_defaults(func=cmd_sep)

    q = sub.add_parser("ineq", help="score a causal inequality and test membership")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--game", choices=GAMES)
    g.add_argument("--game-file", help="game JSON path")
    q.add_argument("--table", help="probability-table CSV path")
    q.add_argument("--process", help="process JSON path (with --instruments)")
    q.add_argument("--instruments", nargs="+", help="instrument JSON paths")
    q.add_argument("--tol", type=_tol_arg, default=CAUSAL_TOL, help="membership tolerance")
    q.set_defaults(func=cmd_ineq)

    d = sub.add_parser("demo", help="switch discrimination probability P(+) for two gates")
    d.add_argument("--u", required=True, choices=sorted(GATES), help="gate name")
    d.add_argument("--v", required=True, choices=sorted(GATES), help="gate name")
    d.set_defaults(func=cmd_demo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses; parse_args builds a new Namespace per call,
    so nothing carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    t0 = time.perf_counter()
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    config = {k: (str(v) if isinstance(v, complex) else v) for k, v in config.items()}
    try:
        code, results = args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema": "causalis/1",
        "command": args.command,
        "config": config,
        "results": results,
        "wall_time_s": time.perf_counter() - t0,
        "version": __version__,
    }
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())

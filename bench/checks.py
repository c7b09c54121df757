"""Output checks that recompute what they verify.

Each check returns None when the output is right and a one-line reason when
it is not. They read the library's results (components, witness, weights,
tables, CLI reports), never its own verdict diagnostics, and recompute the
quantity that makes the verdict true: the reconstruction and positivity of a
separable decomposition, Tr[S W] of a witness, the causal mixture of a
table, the circuit-oracle table. Checks run outside every timing and while
tracing is paused.
"""
from __future__ import annotations

import csv
import json

import numpy as np

# A converged run stops at residual < SEP_TOL = 1e-7; its polished summands
# reproduce W and are PSD to about that tolerance, so allow ten times it.
RECON_TOL = 1e-6
PSD_TOL = 1e-6
CONE_TOL = 1e-9
Q_TOL = 1e-6
WITNESS_MARGIN = 1e-9
ORACLE_TOL = 1e-11
OCB_VALUE = (2 + np.sqrt(2)) / 4
OCB_TOL = 1e-9
CAUSAL_TOL = 1e-7
NORM_TOL = 1e-9
REPORT_TOL = 1e-12


def trace_product(s: np.ndarray, w: np.ndarray) -> float:
    """Tr[S W] for Hermitian S and W."""
    return float(np.einsum("ij,ji->", s, w).real)


# ---------------------------------------------------------------------------
# separability

def separable(cs, cert, p, orders, q=None):
    if not cert.separable:
        return (f"verdict nonseparable (residual {cert.residual:.3e} after "
                f"{cert.iterations} iterations), expected separable")
    got = tuple(c.order for c in cert.trace.orders)
    if got != tuple(orders):
        return f"decided against orders {got}, expected {tuple(orders)}"
    c1, c2 = cert.components
    recon = float(np.linalg.norm(c1.mat + c2.mat - p.w.mat))
    if recon > RECON_TOL:
        return f"components reconstruct W only to {recon:.3e}"
    for comp, order in zip(cert.components, orders):
        lo = float(np.linalg.eigvalsh(comp.mat)[0])
        if lo < -PSD_TOL:
            return f"component for {order} has eigenvalue {lo:.3e}"
        res = cs.order_cone_residual(cs.ProcessMatrix(p.parties, comp), cs.OrderCone(order))
        if res > CONE_TOL:
            return f"component for {order} leaves its order cone by {res:.3e}"
    if q is not None and abs(cert.q - q) > Q_TOL:
        return f"q = {cert.q:.10f}, expected {q}"
    return None


def nonseparable(cert, p):
    if cert.separable:
        return f"verdict separable (q = {cert.q}), expected nonseparable"
    if cert.witness is None:
        return f"no witness: {cert.diagnostics.get('rejected', 'witness search skipped')}"
    overlap = trace_product(cert.witness.mat, p.w.mat)
    if not overlap < -WITNESS_MARGIN:
        return f"witness gives Tr[S W] = {overlap:.3e}, not negative"
    return None


def separable_mixture(cs, cert, p, orders, parts):
    """Check a mixture of ordered processes, which is separable by
    construction. A returned witness S is refuted by scoring it on the
    ordered parts: Tr[S W] < 0 forces Tr[S W_i] < 0 on one of them."""
    error = separable(cs, cert, p, orders)
    if error is None or cert.witness is None:
        return error
    s = cert.witness.mat
    scores = ", ".join(f"{trace_product(s, w):.3e}" for w in parts)
    return (f"{error}; returned a witness with Tr[S W] = {trace_product(s, p.w.mat):.3e} "
            f"(witness_verified={cert.witness_verified}) that scores [{scores}] "
            f"on the ordered processes W is mixed from, so it is no witness")


# ---------------------------------------------------------------------------
# Born rule and causality

def _normalized(values, n_parties):
    sums = values.sum(axis=tuple(range(n_parties, values.ndim)))
    if values.min() < -NORM_TOL or np.max(np.abs(sums - 1.0)) > NORM_TOL:
        return "table is not a normalized probability distribution"
    return None


def causal_table(vertices, out):
    """`vertices` holds the deterministic one-way tables as columns, in the
    order `enumerate_strategies` gives them (the order of the weights)."""
    table, verdict = out
    error = _normalized(table.values, 2)
    if error:
        return error
    if not verdict.causal:
        return f"verdict not causal (residual {verdict.residual:.3e}), expected causal"
    lam = np.asarray(verdict.weights, dtype=float)
    if lam.shape != (vertices.shape[1],):
        return f"{lam.shape} weights for {vertices.shape[1]} vertices"
    if lam.min() < -NORM_TOL or abs(lam.sum() - 1.0) > NORM_TOL:
        return "weights are not a probability vector"
    res = float(np.linalg.norm(vertices @ lam - table.values.reshape(-1)))
    if res > CAUSAL_TOL:
        return f"weights reproduce the table only to {res:.3e}"
    return None


def ocb_table(game, out):
    table, score, verdict = out
    value = float((game.input_dist[..., None, None] * game.win * table.values).sum())
    if abs(value - OCB_VALUE) > OCB_TOL:
        return f"table wins with {value:.12f}, expected (2 + sqrt 2)/4"
    if abs(score.value - value) > REPORT_TOL:
        return f"score reports {score.value:.12f}, table gives {value:.12f}"
    if score.bound != 0.75 or not score.violated:
        return f"score {score}, expected bound 0.75 violated"
    if verdict.causal:
        return "violating table judged causal"
    return None


def oracle_table(want, table):
    if table.values.shape != want.shape:
        return f"table shape {table.values.shape}, oracle {want.shape}"
    dev = float(np.max(np.abs(table.values - want)))
    if dev > ORACLE_TOL:
        return f"max |born - oracle| = {dev:.3e}"
    return None


# ---------------------------------------------------------------------------
# command line

def envelope(out, command, code):
    """(reason, report): the exit code and the causalis/1 envelope."""
    got, stdout, stderr = out
    if got != code:
        try:
            said = "report " + json.dumps(json.loads(stdout)["results"])
        except (ValueError, KeyError, TypeError):
            said = (stderr.strip().splitlines() or ["no output"])[-1]
        return f"exit {got}, expected {code}; {said[:160]}", None
    if code == 2:
        if stdout.strip():
            return "printed a report for rejected input", None
        if not stderr.startswith("error:"):
            return "rejected input without an error line", None
        return None, None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report", None
    if report.get("schema") != "causalis/1" or report.get("command") != command:
        return f"envelope {report.get('schema')!r}/{report.get('command')!r}", None
    if not isinstance(report.get("results"), dict) or "version" not in report:
        return "envelope lacks results or version", None
    return None, report


def cli_rejected(command, out):
    return envelope(out, command, 2)[0]


def cli_validate(expect_valid, trace, min_eig, out):
    """`trace` and `min_eig` are computed from the generated matrix."""
    error, report = envelope(out, "validate", 0 if expect_valid else 1)
    if error:
        return error
    r = report["results"]
    if r.get("validity") != ("valid" if expect_valid else "invalid"):
        return f"validity {r.get('validity')!r}"
    if abs(r["trace"] - trace) > NORM_TOL:
        return f"reports trace {r['trace']}, matrix has {trace}"
    if abs(r["min_eigenvalue"] - min_eig) > NORM_TOL:
        return f"reports min eigenvalue {r['min_eigenvalue']}, matrix has {min_eig}"
    return None


def _matrix_from_json(d):
    entries = np.asarray(d["entries"], dtype=float)
    n = int(round(np.sqrt(len(entries))))
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)


def cli_switch(path, want, out):
    error, report = envelope(out, "switch", 0)
    if error:
        return error
    if report["results"].get("validity") != "valid":
        return f"switch reported {report['results'].get('validity')!r}"
    with open(path) as fh:
        got = _matrix_from_json(json.load(fh)["w"])
    if got.shape != want.shape:
        return f"wrote a {got.shape} matrix, expected {want.shape}"
    dev = float(np.max(np.abs(got - want)))
    if dev > REPORT_TOL:
        return f"written switch deviates by {dev:.3e}"
    return None


def cli_born(path, want, out):
    error, _ = envelope(out, "born", 0)
    if error:
        return error
    with open(path) as fh:
        rows = list(csv.reader(fh))
    got = np.full(want.shape, np.nan)
    for row in rows[1:]:
        got[tuple(int(c) for c in row[:-1])] = float(row[-1])
    dev = float(np.max(np.abs(got - want)))
    if not dev <= REPORT_TOL:
        return f"written table deviates by {dev:.3e}"
    return None


def cli_ineq(code, value, violated, causal, out):
    error, report = envelope(out, "ineq", code)
    if error:
        return error
    r = report["results"]
    if abs(r["value"] - value) > OCB_TOL:
        return f"value {r['value']}, table gives {value}"
    if r["violated"] != violated or r["verdict"]["causal"] != causal:
        return f"violated={r['violated']} causal={r['verdict']['causal']}"
    return None


def cli_demo(p_plus, out):
    error, report = envelope(out, "demo", 0)
    if error:
        return error
    got = report["results"]["p_plus"]
    if abs(got - p_plus) > REPORT_TOL:
        return f"P(+) = {got}, expected {p_plus}"
    return None

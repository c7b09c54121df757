"""JSON and CSV exchange formats.

Operators travel as {"factors": [{"label", "dim"}...], "entries": [[re, im],
...]} with row-major entries; floats are emitted at full precision so a
round-trip is bit-exact. Processes, instruments, games, verdicts, and
certificates wrap that format, and `save_json` writes each as one compact
line. Probability tables travel as CSV with one row per (settings,
outcomes) combination.
"""
from __future__ import annotations

import io as _io
import json
import math

import numpy as np

from .causality import CausalGame, CausalityVerdict
from .instruments import Instrument, ProbabilityTable
from .process import LabeledSpace, Party, ProcessMatrix
from .separability import SeparabilityCertificate
from .tensor_core import HermitianOperator, Operator, _canonicalize, _check_count


# ---------------------------------------------------------------------------
# schema checks: mis-shaped JSON raises ValueError, never TypeError

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _require(node, what: str, kind):
    """Raise ValueError unless node has the JSON type kind (or one of kinds)."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # bool is an int in Python, but never a valid count or dimension
    if isinstance(node, bool) or not isinstance(node, kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ValueError(f"{what} must be {want}, got {type(node).__name__}")
    return node


def _field(d, key: str, kind, what: str):
    """d[key], checked to be a JSON object member of the given type."""
    _require(d, what, dict)
    if key not in d:
        raise ValueError(f"{what} has no {key!r} field")
    return _require(d[key], f"{what} field {key!r}", kind)


# ---------------------------------------------------------------------------
# operators

def operator_to_json(op: Operator) -> dict:
    return {
        "factors": [{"label": f.label, "dim": f.dim} for f in op.space.factors],
        "entries": np.stack([op.mat.real.ravel(), op.mat.imag.ravel()], 1).tolist(),
    }


def operator_from_json(d: dict) -> Operator:
    """A HermitianOperator when the entries are Hermitian within HERM_TOL,
    else an Operator. Shape and finiteness are checked before, so the only
    ValueError that HermitianOperator can raise is its not-Hermitian one,
    and the defect is measured once."""
    space, mat = _matrix_from_json(d)
    try:
        return HermitianOperator(space, mat)
    except ValueError:
        return Operator(space, mat)


def _matrix_from_json(d: dict):
    """(space, matrix) of an operator object, in canonical label order."""
    factors = _factors_from_json(_field(d, "factors", list, "operator"), "operator factors")
    dim = math.prod(f.dim for f in factors)
    entries = np.asarray(_field(d, "entries", list, "operator"))
    if entries.dtype.kind not in "iuf":
        raise ValueError("operator entries must be numbers")
    entries = entries.astype(float)
    if not np.isfinite(entries).all():
        raise ValueError("operator entries must be finite, not NaN or inf")
    if entries.shape != (dim * dim, 2):
        raise ValueError(
            f"expected {dim * dim} [re, im] entries, got shape {entries.shape}"
        )
    mat = (entries[:, 0] + 1j * entries[:, 1]).reshape(dim, dim)
    return _canonicalize(factors, mat)


# ---------------------------------------------------------------------------
# processes

def _factors_to_json(factors: tuple[LabeledSpace, ...]):
    items = [{"label": f.label, "dim": f.dim} for f in factors]
    return items[0] if len(items) == 1 else items


def _factors_from_json(node, what: str) -> tuple[LabeledSpace, ...]:
    """A factor object {"label", "dim"} or a list of them."""
    if isinstance(node, dict):
        node = [node]
    _require(node, what, list)
    return tuple(
        LabeledSpace(_field(f, "label", str, what), _field(f, "dim", int, what))
        for f in node
    )


def process_to_json(p: ProcessMatrix) -> dict:
    return {
        "parties": [
            {
                "name": party.name,
                "input": _factors_to_json(party.inputs),
                "output": _factors_to_json(party.outputs),
            }
            for party in p.parties
        ],
        "w": operator_to_json(p.w),
    }


def process_from_json(d: dict) -> ProcessMatrix:
    parties = []
    for q in _field(d, "parties", list, "process"):
        name = _field(q, "name", str, "party")
        where = f"party {name!r}"
        parties.append(Party(
            name,
            _factors_from_json(_field(q, "input", (dict, list), where), f"{where} input"),
            _factors_from_json(_field(q, "output", (dict, list), where), f"{where} output"),
        ))
    w = HermitianOperator(*_matrix_from_json(_field(d, "w", dict, "process")))
    return ProcessMatrix(tuple(parties), w)


# ---------------------------------------------------------------------------
# instruments

def instrument_to_json(ins: Instrument) -> dict:
    return {
        "party": ins.party.name,
        "settings": ins.settings,
        "outcomes": ins.outcomes,
        "chois": {
            f"{x},{a}": operator_to_json(ins.choi(x, a))
            for x in range(ins.settings)
            for a in range(ins.outcomes)
        },
    }


def instrument_from_json(d: dict, parties) -> Instrument:
    """Rebuild an instrument for one of `parties`, a sequence of Party objects
    (the JSON stores only the party's name, not its spaces). A key of
    ``chois`` outside the settings x outcomes grid is rejected. Both counts
    are checked before any row is built, so a huge count with no Chois is
    refused at once."""
    name = _field(d, "party", str, "instrument")
    party = next((p for p in parties if p.name == name), None)
    if party is None:
        raise ValueError(f"instrument party {name!r} is not one of {[p.name for p in parties]}")
    settings = _field(d, "settings", int, "instrument")
    outcomes = _field(d, "outcomes", int, "instrument")
    _check_count("instrument settings", settings, 1)
    _check_count("instrument outcomes", outcomes, 1)
    chois = _field(d, "chois", dict, "instrument")
    rows = []
    for x in range(settings):
        row = []
        for a in range(outcomes):
            choi = _field(chois, f"{x},{a}", dict, "instrument chois")
            row.append(HermitianOperator(*_matrix_from_json(choi)))
        rows.append(tuple(row))
    ins = Instrument(party, settings, outcomes, tuple(rows))
    stray = sorted(set(chois) - {f"{x},{a}" for x in range(settings) for a in range(outcomes)})
    if stray:
        raise ValueError(f"instrument chois {stray} lie outside the {settings} x {outcomes} grid")
    return ins


# ---------------------------------------------------------------------------
# probability tables

def table_to_csv(t: ProbabilityTable) -> str:
    buf = _io.StringIO()
    header = [f"x_{name}" for name in t.parties] + [f"a_{name}" for name in t.parties]
    buf.write(",".join(header + ["p"]) + "\n")
    for idx in np.ndindex(*t.values.shape):
        cells = [str(i) for i in idx] + [format(t.values[idx], ".17g")]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def table_from_csv(text: str) -> ProbabilityTable:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("table CSV needs a header row and at least one data row")
    header = lines[0].split(",")
    if header[-1] != "p":
        raise ValueError("last column must be the probability column 'p'")
    n = (len(header) - 1) // 2
    parties = tuple(h[2:] for h in header[:n])
    if [f"x_{q}" for q in parties] != header[:n] or [f"a_{q}" for q in parties] != header[n:-1]:
        raise ValueError(f"header {header} is not x_<party>.., a_<party>.., p")
    rows = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2 * n + 1:
            raise ValueError(f"table row {ln!r} has {len(cells)} cells; the header has {2 * n + 1}")
        idx = tuple(int(c) for c in cells[:-1])
        if any(i < 0 for i in idx):
            raise ValueError(f"table row {ln!r} has a negative index")
        if idx in rows:
            raise ValueError(f"table row {ln!r} repeats the index of an earlier row")
        rows[idx] = float(cells[-1])
    # distinct non-negative indices cover the grid they span iff they number its cells
    shape = tuple(max(col) + 1 for col in zip(*rows))
    if len(rows) != math.prod(shape):
        raise ValueError("table rows do not cover the full settings/outcomes grid")
    vals = np.array([rows[idx] for idx in np.ndindex(*shape)]).reshape(shape)
    return ProbabilityTable(parties, vals)


# ---------------------------------------------------------------------------
# games, verdicts, certificates

def game_to_json(g: CausalGame) -> dict:
    wins = [
        [int(i) for i in idx]
        for idx in np.ndindex(*g.win.shape)
        if g.win[idx] == 1.0
    ]
    return {
        "settings": list(g.settings),
        "outcomes": list(g.outcomes),
        "input_dist": g.input_dist.tolist(),
        "wins": wins,
    }


def game_from_json(d: dict) -> CausalGame:
    """The game of a JSON object. input_dist is checked against settings
    before the win table is allocated, and a table too large to allocate is
    a ValueError that names its shape."""
    settings = _counts(_field(d, "settings", list, "game"), "game settings")
    outcomes = _counts(_field(d, "outcomes", list, "game"), "game outcomes")
    if len(settings) != len(outcomes):
        raise ValueError("game settings and outcomes must list one count per party each")
    shape = settings + outcomes
    dist = np.asarray(_field(d, "input_dist", list, "game"))
    if dist.dtype.kind not in "iuf" or not np.isfinite(dist).all():
        raise ValueError("game input_dist must hold finite numbers")
    if dist.shape != settings:
        raise ValueError(f"game input_dist has shape {dist.shape}, not the settings {settings}")
    try:
        win = np.zeros(shape)
    except MemoryError:
        raise ValueError(f"game win table of shape {shape} is too large to allocate") from None
    for entry in _field(d, "wins", list, "game"):
        idx = tuple(_require(i, "game wins index", int)
                    for i in _require(entry, "game wins entry", list))
        if len(idx) != len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ValueError(f"game wins entry {entry} is not an index into shape {shape}")
        win[idx] = 1.0
    return CausalGame(dist, win)


def _counts(node, what: str) -> tuple[int, ...]:
    counts = tuple(_require(n, f"{what} entry", int) for n in node)
    if not counts or min(counts) < 1:
        raise ValueError(f"{what} must be a non-empty list of positive counts")
    return counts


def verdict_to_json(v: CausalityVerdict) -> dict:
    return {
        "causal": v.causal,
        "residual": v.residual,
        "q_A_before_B": v.q_A_before_B,
        "weights": None if v.weights is None else [float(w) for w in v.weights],
    }


def certificate_to_json(c: SeparabilityCertificate) -> dict:
    """The verdict with its diagnostics block, which holds no timings: the
    run's perp and stalled (read off ``c.trace``), then the certificate's
    face rank, verification and decomposition or witness fields."""
    return {
        "separable": c.separable,
        "verdict": c.verdict,
        "q": c.q,
        "residual": c.residual,
        "iterations": c.iterations,
        "witness": None if c.witness is None else operator_to_json(c.witness),
        "witness_verified": c.witness_verified,
        "diagnostics": {"perp": c.trace.perp, "stalled": c.trace.stalled, **c.diagnostics},
    }


# ---------------------------------------------------------------------------
# files

def save_json(obj: dict, path: str):
    """obj as one compact line of JSON: json.dumps runs the C encoder, which
    json.dump with an indent does not."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def load_json(path: str) -> dict:
    """The parsed file; nesting deeper than the decoder's recursion limit is
    a ValueError, like any other malformed JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None

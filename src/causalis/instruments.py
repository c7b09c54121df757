"""Quantum instruments and the generalized Born rule.

An instrument holds one Choi operator per (setting, outcome); summed over
outcomes each setting is trace-preserving. Probabilities come from
P = Tr[W (C_1 (x) ... (x) C_n)^T], the transpose convention under which
ordered processes reproduce sequential circuit composition; the circuit
oracle below is the arbiter of that choice. The whole table is one
contraction of W against the per-party Choi stacks (`process._contract`);
no tensor product of Chois is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .process import Party, ProcessMatrix, _contract, make_quantum_switch, validate_process
from .tensor_core import (
    HermitianOperator,
    choi_of_kraus,
    identity,
    partial_trace,
    random_isometry,
    tensor,
)

CHOI_PSD_TOL = 1e-12
TP_TOL = 1e-10
PROB_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Instrument:
    """Per-setting families of CP maps in Choi form, complete per setting."""

    party: Party
    settings: int
    outcomes: int
    chois: tuple[tuple[HermitianOperator, ...], ...]  # [setting][outcome]

    def __post_init__(self):
        if len(self.chois) != self.settings:
            raise ValueError("one row of Chois per setting required")
        eye_in = identity(self.party.input_space)
        for x, row in enumerate(self.chois):
            if len(row) != self.outcomes:
                raise ValueError("one Choi per outcome required")
            total = None
            for c in row:
                if c.space != self.party.space:
                    raise ValueError(
                        f"Choi labels {c.space.labels} do not match party {self.party.name!r}"
                    )
                if np.linalg.eigvalsh(c.mat)[0] < -CHOI_PSD_TOL:
                    raise ValueError(f"setting {x}: Choi is not completely positive")
                total = c if total is None else total + c
            dev = (partial_trace(total, self.party.output_labels) - eye_in).norm()
            if dev > TP_TOL:
                raise ValueError(
                    f"setting {x}: outcome sum is not trace-preserving (|Tr_O C - 1| = {dev:.3e})"
                )

    def choi(self, setting: int, outcome: int) -> HermitianOperator:
        return self.chois[setting][outcome]


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """P(outcomes | settings), one axis per party setting then per outcome."""

    parties: tuple[str, ...]
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.settings + self.outcomes:
            raise ValueError(
                f"values shape {vals.shape} does not match {self.settings + self.outcomes}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("probabilities must be finite")
        if vals.min(initial=0.0) < -PROB_TOL:
            raise ValueError(f"negative probability {vals.min():.3e}")
        n = len(self.settings)
        sums = vals.sum(axis=tuple(range(n, vals.ndim)))
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("probabilities do not sum to 1 for every setting")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def marginalize(self, party: str) -> "ProbabilityTable":
        """Drop a single-setting party by summing out its outcome."""
        i = self.parties.index(party)
        if self.settings[i] != 1:
            raise ValueError("can only marginalize a party with a single setting")
        vals = self.values.sum(axis=len(self.settings) + i)
        vals = np.squeeze(vals, axis=i)
        keep = tuple(j for j in range(len(self.parties)) if j != i)
        return ProbabilityTable(
            tuple(self.parties[j] for j in keep),
            tuple(self.settings[j] for j in keep),
            tuple(self.outcomes[j] for j in keep),
            vals,
        )


# ---------------------------------------------------------------------------
# instrument constructors

def standard_instruments(kind: str, party: Party, **params) -> Instrument:
    """Fixture instruments.

    kind "measure_reprepare": projective measurement (columns of `basis`,
        default computational) followed by repreparation of `preps[a]`
        (default: the measured projector); one setting, d_in outcomes.
    kind "unitary": one channel per setting from `unitaries`; one outcome.
    kind "discard_prepare": trace the input, prepare `preps[x]`; one outcome.
    kind "povm": trivial-output party measuring `povms[x]`, a list of POVM
        elements per setting.
    """
    din, dout = party.input_dim, party.output_dim
    if kind == "measure_reprepare":
        basis = np.asarray(params.get("basis", np.eye(din)), dtype=complex)
        if basis.shape != (din, din):
            raise ValueError("basis must be a square matrix of input dimension")
        preps = params.get("preps")
        if preps is None:
            if dout != din:
                raise ValueError("default repreparation needs matching dimensions")
            preps = [np.outer(basis[:, a], basis[:, a].conj()) for a in range(din)]
        row = []
        for a in range(din):
            proj = np.outer(basis[:, a], basis[:, a].conj())
            prep = np.asarray(preps[a], dtype=complex)
            # Choi of rho -> <a|rho|a> prep is P_a^T (x) prep
            row.append(tensor(HermitianOperator(party.input_space, proj.conj()),
                              HermitianOperator(party.output_space, prep)))
        return Instrument(party, 1, din, (tuple(row),))
    if kind == "unitary":
        unitaries = params["unitaries"]
        rows = []
        for u in unitaries:
            u = np.asarray(u, dtype=complex)
            if u.shape != (dout, din):
                raise ValueError(f"unitary shape {u.shape} does not fit the party")
            rows.append((choi_of_kraus([u], party.input_space, party.output_space),))
        return Instrument(party, len(rows), 1, tuple(rows))
    if kind == "discard_prepare":
        preps = params["preps"]
        rows = []
        for sigma in preps:
            sigma = np.asarray(sigma, dtype=complex)
            c = tensor(identity(party.input_space),
                       HermitianOperator(party.output_space, sigma))
            rows.append((c,))
        return Instrument(party, len(rows), 1, tuple(rows))
    if kind == "povm":
        if not party.trivial_output:
            raise ValueError("povm instruments require a trivial output")
        povms = params["povms"]
        rows = []
        for elements in povms:
            row = []
            for e in elements:
                e = np.asarray(e, dtype=complex)
                row.append(tensor(HermitianOperator(party.input_space, e.conj()),
                                  identity(party.output_space)))
            rows.append(tuple(row))
        n_out = len(rows[0])
        return Instrument(party, len(rows), n_out, tuple(rows))
    raise ValueError(f"unknown instrument kind {kind!r}")


def random_instrument_kraus(
    d_in: int,
    d_out: int,
    n_outcomes: int,
    rng: np.random.Generator,
    kraus_per_outcome: int = 2,
) -> list[list[np.ndarray]]:
    """Kraus families of a random instrument, one list per outcome.

    Built from a Haar Stinespring isometry by partitioning the environment,
    so the outcome sum is exactly trace-preserving. The isometry needs
    d_out * n_outcomes * kraus_per_outcome >= d_in rows, so a smaller
    kraus_per_outcome is raised to ceil(d_in / (d_out * n_outcomes)).
    """
    kraus_per_outcome = max(kraus_per_outcome, -(-d_in // (d_out * n_outcomes)))
    env = n_outcomes * kraus_per_outcome
    v = random_isometry(d_in, d_out * env, rng)
    families: list[list[np.ndarray]] = [[] for _ in range(n_outcomes)]
    for e in range(env):
        k = np.zeros((d_out, d_in), dtype=complex)
        for o in range(d_out):
            k[o, :] = v[o * env + e, :]
        families[e // kraus_per_outcome].append(k)
    return families


def random_instrument(
    party: Party,
    settings: int,
    outcomes: int,
    rng: np.random.Generator,
    kraus_per_outcome: int = 2,
) -> Instrument:
    rows = []
    for _ in range(settings):
        fam = random_instrument_kraus(
            party.input_dim, party.output_dim, outcomes, rng, kraus_per_outcome
        )
        rows.append(tuple(
            choi_of_kraus(ks, party.input_space, party.output_space) for ks in fam
        ))
    return Instrument(party, settings, outcomes, tuple(rows))


# ---------------------------------------------------------------------------
# Born rule and its circuit oracle

def born(p: ProcessMatrix, instruments: Sequence[Instrument]) -> ProbabilityTable:
    """Full probability table P(outcomes | settings) of a valid process."""
    if p.validity == "unchecked":
        p = validate_process(p)
    if p.validity != "valid":
        raise ValueError(f"process is not valid: {p.reason}")
    by_name = {ins.party.name: ins for ins in instruments}
    if set(by_name) != {party.name for party in p.parties}:
        raise ValueError("instruments must cover exactly the process parties")
    ins = [by_name[party.name] for party in p.parties]
    for party, i in zip(p.parties, ins):
        if i.party != party:
            raise ValueError(f"instrument for {party.name!r} has mismatched spaces")
    settings = tuple(i.settings for i in ins)
    outcomes = tuple(i.outcomes for i in ins)
    # P[x.., a..] = sum_ij w_ij (M_1[x_1, a_1] (x) ... (x) M_n[x_n, a_n])_ij,
    # i.e. Tr[w M^T]; the contraction returns axes (x_1, a_1, x_2, a_2, ...)
    stacks = [np.array([[c.mat for c in row] for row in i.chois]) for i in ins]
    t = _contract(p.w, [q.space for q in p.parties], stacks).real
    n = len(ins)
    vals = t.transpose([2 * k for k in range(n)] + [2 * k + 1 for k in range(n)])
    return ProbabilityTable(tuple(party.name for party in p.parties), settings, outcomes, vals)


def circuit_oracle(
    party_names: Sequence[str],
    initial_state: np.ndarray,
    channel_kraus: Sequence[Sequence[np.ndarray]],
    instrument_kraus: Sequence[Sequence[Sequence[Sequence[np.ndarray]]]],
) -> ProbabilityTable:
    """Sequential Kraus simulation of a definite-order scenario.

    instrument_kraus[k][x][a] is the Kraus list of party k's setting x,
    outcome a; channel_kraus[k] links party k to party k+1; the last
    party's output is discarded. Ground truth for the Born engine on
    ordered processes.
    """
    n = len(party_names)
    if len(instrument_kraus) != n or len(channel_kraus) != n - 1:
        raise ValueError("need one instrument per party and one channel per link")
    settings = tuple(len(ik) for ik in instrument_kraus)
    outcomes = tuple(len(ik[0]) for ik in instrument_kraus)
    rho0 = np.asarray(initial_state, dtype=complex)

    def apply(ks, rho):
        return sum(k @ rho @ k.conj().T for k in ks)

    vals = np.empty(settings + outcomes, dtype=float)
    for xs in np.ndindex(*settings):
        for os_ in np.ndindex(*outcomes):
            rho = rho0
            for k in range(n):
                rho = apply(instrument_kraus[k][xs[k]][os_[k]], rho)
                if k < n - 1:
                    rho = apply(channel_kraus[k], rho)
            vals[xs + os_] = np.trace(rho).real
    return ProbabilityTable(tuple(party_names), settings, outcomes, vals)


def switch_discrimination_demo(u: np.ndarray, v: np.ndarray, psi=None) -> float:
    """P(control reads +) when the switch runs channels U and V.

    Fiona measures the control in the |+-> basis and traces the target.
    Returns 1 for commuting pairs and 0 for anticommuting pairs: one query
    to each channel decides which, with no definite order in between.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    d = u.shape[0]
    for name, m in (("U", u), ("V", v)):
        if m.shape != (d, d) or np.max(np.abs(m.conj().T @ m - np.eye(d))) > 1e-10:
            raise ValueError(f"{name} must be unitary")
    if psi is None:
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
    qs = make_quantum_switch(psi, 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()
    qs = validate_process(qs)
    pa, pb, pf = qs.parties
    ins_a = standard_instruments("unitary", pa, unitaries=[u])
    ins_b = standard_instruments("unitary", pb, unitaries=[v])
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    eye_t = np.eye(d, dtype=complex)
    povm = [
        np.kron(np.outer(plus, plus.conj()), eye_t),
        np.kron(np.outer(minus, minus.conj()), eye_t),
    ]  # (F_c, F_t) layout matches the canonical label order
    ins_f = standard_instruments("povm", pf, povms=[povm])
    table = born(qs, [ins_a, ins_b, ins_f])
    return float(table.values[0, 0, 0, 0, 0, 0])

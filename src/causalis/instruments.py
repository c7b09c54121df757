"""Quantum instruments and the generalized Born rule.

An instrument holds one Choi operator per (setting, outcome); summed over
outcomes each setting is trace-preserving. It stores them as one read-only
(settings, outcomes, D, D) array, built and checked in one pass, and hands
out `HermitianOperator` views into it. Probabilities come from
P = Tr[W (C_1 (x) ... (x) C_n)^T], the transpose convention under which
ordered processes reproduce sequential circuit composition; the circuit
oracle below is the arbiter of that choice. The whole table is W,
regrouped once (`tensor_core._regroup`), contracted with each party's
Choi stack by one matmul; no tensor product of Chois is formed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .process import Party, ProcessMatrix, _require_valid, make_quantum_switch
from .tensor_core import (
    CHOI_PSD_TOL,
    TP_TOL,
    HermitianOperator,
    Operator,
    _check_count,
    _check_distinct,
    _checked_hermitian,
    _choi_stack,
    _cptp_defects,
    _grouping,
    _haar_isometry,
    _regroup,
    identity,
    tensor,
)

PROB_TOL = 1e-10


@dataclass(frozen=True, eq=False, init=False)
class Instrument:
    """Per-setting families of CP maps in Choi form, complete per setting.

    The instrument stores one read-only (settings, outcomes, D, D) array of
    Choi blocks over its party's space, and nothing else: settings and
    outcomes are read off its shape, and `chois` and `choi(x, a)` wrap views
    into it. `Instrument(party, settings, outcomes, chois)` stacks rows of
    operators; `from_stack` takes the array itself. Either way the stack is
    checked once: finite, Hermitian within HERM_TOL (then symmetrized), and
    each setting one map of `tensor_core._cptp_defects` (m = outcomes),
    judged setting by setting, CP before TP, under the CHOI_PSD_TOL / TP_TOL
    policy that `make_ordered_process` applies to states and links."""

    party: Party
    _stack: np.ndarray = field(repr=False)  # [setting, outcome]: one Choi block

    def __init__(self, party: Party, settings: int, outcomes: int,
                 chois: Sequence[Sequence[Operator]]):
        _check_count("instrument settings", settings, 1)
        _check_count("instrument outcomes", outcomes, 1)
        if len(chois) != settings:
            raise ValueError("one row of Chois per setting required")
        for row in chois:
            if len(row) != outcomes:
                raise ValueError("one Choi per outcome required")
            for c in row:
                _check_choi_space(party, c.space)
        self._adopt(party, [[c.mat for c in row] for row in chois])

    @classmethod
    def from_stack(cls, party: Party, stack) -> "Instrument":
        """The instrument whose Choi of setting x, outcome a is stack[x, a],
        a (settings, outcomes, D, D) array over the party's space."""
        ins = cls.__new__(cls)
        ins._adopt(party, stack)
        return ins

    def _adopt(self, party: Party, stack) -> None:
        shape = np.shape(stack)
        if len(shape) == 4:
            _check_count("instrument settings", shape[0], 1)
            _check_count("instrument outcomes", shape[1], 1)
        _, stack = _checked_hermitian(party.space, stack, ndim=4)
        low, dev = _cptp_defects(stack, party.space.factors, party.output_labels,
                                 party.input_dim)
        for x in range(len(stack)):
            if low[x] < -CHOI_PSD_TOL:
                raise ValueError(f"setting {x}: Choi is not completely positive")
            if dev[x] > TP_TOL:
                raise ValueError(
                    f"setting {x}: outcome sum is not trace-preserving "
                    f"(|Tr_O C - 1| = {dev[x]:.3e})"
                )
        object.__setattr__(self, "party", party)
        object.__setattr__(self, "_stack", stack)

    @property
    def settings(self) -> int:
        return self._stack.shape[0]

    @property
    def outcomes(self) -> int:
        return self._stack.shape[1]

    @property
    def chois(self) -> tuple[tuple[HermitianOperator, ...], ...]:
        """[setting][outcome]: read-only views into the stack, built on access."""
        return tuple(tuple(self.choi(x, a) for a in range(self.outcomes))
                     for x in range(self.settings))

    def choi(self, setting: int, outcome: int) -> HermitianOperator:
        return HermitianOperator._view(self.party.space, self._stack[setting, outcome])


def _check_choi_space(party: Party, space) -> None:
    if space != party.space:
        raise ValueError(f"Choi labels {space.labels} do not match party {party.name!r}")


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """P(outcomes | settings) of the named parties: ``values`` has one axis
    per party setting, then one per party outcome, so ``settings`` and
    ``outcomes`` are read off its shape. Party names must be distinct."""

    parties: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        parties = tuple(self.parties)
        _check_distinct(parties, "party names")
        # a copy, so freezing it leaves the caller's array writable
        vals = np.array(self.values, dtype=float)
        n = len(parties)
        if vals.ndim != 2 * n:
            raise ValueError(f"values needs two axes per party ({2 * n}: settings, "
                             f"then outcomes), got {vals.ndim}")
        if 0 in vals.shape:
            raise ValueError(f"values shape {vals.shape} has an empty alphabet: "
                             "settings and outcomes must be positive")
        if not np.isfinite(vals).all():
            raise ValueError("probabilities must be finite")
        if vals.min(initial=0.0) < -PROB_TOL:
            raise ValueError(f"negative probability {vals.min():.3e}")
        sums = vals.sum(axis=tuple(range(n, vals.ndim)))
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("probabilities do not sum to 1 for every setting (not normalized)")
        vals.setflags(write=False)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "values", vals)

    @property
    def settings(self) -> tuple[int, ...]:
        return self.values.shape[:len(self.parties)]

    @property
    def outcomes(self) -> tuple[int, ...]:
        return self.values.shape[len(self.parties):]

    def marginalize(self, party: str) -> "ProbabilityTable":
        """Drop a single-setting party by summing out its outcome."""
        if party not in self.parties:
            raise ValueError(f"party {party!r} is not one of {list(self.parties)}")
        i = self.parties.index(party)
        if self.settings[i] != 1:
            raise ValueError("can only marginalize a party with a single setting")
        vals = self.values.sum(axis=len(self.parties) + i)
        return ProbabilityTable(self.parties[:i] + self.parties[i + 1:], np.squeeze(vals, axis=i))


# ---------------------------------------------------------------------------
# instrument constructors

# the parameters each kind of `standard_instruments` reads
_KIND_PARAMS = {"measure_reprepare": (), "unitary": ("unitaries",),
                "discard_prepare": ("preps",), "povm": ("povms",)}


def standard_instruments(kind: str, party: Party, **params) -> Instrument:
    """Fixture instruments.

    kind "measure_reprepare": measure the computational basis and reprepare
        the measured |a><a|; one setting, d_in outcomes, needs d_out = d_in.
    kind "unitary": one channel per setting from `unitaries`; one outcome.
    kind "discard_prepare": trace the input, prepare `preps[x]`; one outcome.
    kind "povm": trivial-output party measuring `povms[x]`, a list of POVM
        elements per setting.

    All but "unitary" are `_measure_prepare` maps. A parameter the kind
    does not read, or a missing one that it needs, raises ValueError.
    """
    if kind not in _KIND_PARAMS:
        raise ValueError(f"unknown instrument kind {kind!r}")
    stray = sorted(set(params) - set(_KIND_PARAMS[kind]))
    if stray:
        raise ValueError(f"instrument kind {kind!r} takes no parameter {', '.join(stray)}")
    missing = sorted(set(_KIND_PARAMS[kind]) - set(params))
    if missing:
        raise ValueError(f"instrument kind {kind!r} needs the parameter {', '.join(missing)}")
    din, dout = party.input_dim, party.output_dim
    if kind == "unitary":
        us = [np.asarray(u, dtype=complex) for u in params["unitaries"]]
        for u in us:
            if u.shape != (dout, din):
                raise ValueError(f"unitary shape {u.shape} does not fit the party")
        kraus = np.array(us).reshape(len(us), 1, 1, dout, din)
        return Instrument.from_stack(party, _choi_stack(kraus, party.input_space,
                                                        party.output_space))
    if kind == "measure_reprepare":
        if dout != din:
            raise ValueError("measure_reprepare needs matching input and output dimensions")
        projs = [np.outer(e, e.conj()) for e in np.eye(din, dtype=complex)]
        return _measure_prepare(party, [projs], [projs])
    if kind == "discard_prepare":
        preps = params["preps"]
        return _measure_prepare(party, [[np.eye(din)]] * len(preps), [[s] for s in preps])
    if not party.trivial_output:
        raise ValueError("povm instruments require a trivial output")
    povms = params["povms"]
    return _measure_prepare(party, povms, [[np.eye(1)] * len(row) for row in povms])


def _measure_prepare(party: Party, effects, states) -> Instrument:
    """The instrument whose setting x, outcome a is rho -> Tr[E rho] sigma,
    E = effects[x][a] on the party's input and sigma = states[x][a] on its
    output: Choi E^T (x) sigma, with E^T = conj(E) as E is Hermitian. The
    settings and outcomes are read off the rows."""
    rows = tuple(
        tuple(tensor(HermitianOperator(party.input_space, np.asarray(e, dtype=complex).conj()),
                     HermitianOperator(party.output_space, s))
              for e, s in zip(row_e, row_s))
        for row_e, row_s in zip(effects, states)
    )
    return Instrument(party, len(rows), len(rows[0]) if rows else 0, rows)


def _instrument_kraus(settings: int, d_in: int, d_out: int, outcomes: int,
                      rng: np.random.Generator) -> np.ndarray:
    """The (settings, outcomes, per, d_out, d_in) Kraus stack of random
    instruments, per = max(2, ceil(d_in / (d_out * outcomes))) Kraus
    operators per outcome: two, or as many as the isometry needs for its
    d_out * outcomes * per >= d_in rows.

    One Haar Stinespring isometry per setting, its environment partitioned
    by outcome, so each outcome sum is exactly trace-preserving. One
    rng.normal call draws them all (real part, then imaginary part,
    setting by setting), then one batched QR with its phase fix."""
    per = max(2, -(-d_in // (d_out * outcomes)))
    z = rng.normal(size=(settings, 2, d_out * outcomes * per, d_in))
    v = _haar_isometry(z[:, 0] + 1j * z[:, 1])
    # row o * (outcomes * per) + e of v[x] is row o of Kraus operator e of
    # setting x, and e = a * per + k
    return v.reshape(settings, d_out, outcomes, per, d_in).transpose(0, 2, 3, 1, 4)


def random_instrument_kraus(
    d_in: int,
    d_out: int,
    n_outcomes: int,
    rng: np.random.Generator,
) -> list[list[np.ndarray]]:
    """Kraus families of a random instrument, one list per outcome: the
    one-setting case of `_instrument_kraus`. The counts are checked before
    the draw, as `random_instrument` checks its own."""
    _check_count("d_in", d_in, 1)
    _check_count("d_out", d_out, 1)
    _check_count("n_outcomes", n_outcomes, 1)
    return [list(f) for f in _instrument_kraus(1, d_in, d_out, n_outcomes, rng)[0]]


def random_instrument(
    party: Party,
    settings: int,
    outcomes: int,
    rng: np.random.Generator,
) -> Instrument:
    """One `random_instrument_kraus` family per setting, as Chois.

    All settings are drawn by one generator call, which consumes it exactly
    as one `random_instrument_kraus` call per setting does
    (`_instrument_kraus`); one Choi einsum then builds the whole stack."""
    # before the draw, which would take True as a size of 1
    _check_count("instrument settings", settings, 1)
    _check_count("instrument outcomes", outcomes, 1)
    kraus = _instrument_kraus(settings, party.input_dim, party.output_dim, outcomes, rng)
    return Instrument.from_stack(party, _choi_stack(kraus, party.input_space,
                                                    party.output_space))


# ---------------------------------------------------------------------------
# Born rule and its circuit oracle

def born(p: ProcessMatrix, instruments: Sequence[Instrument]) -> ProbabilityTable:
    """Full probability table P(outcomes | settings) of a valid process:
    one instrument per party, so the instruments' party names are distinct
    and are exactly the process's. W regrouped by `tensor_core._regroup`,
    then one matmul per party's Choi stack (kept by its `Instrument`), gives
    the table, which is allocated first: a table too large to allocate
    raises ValueError before any arithmetic."""
    p = _require_valid(p)
    _check_distinct((ins.party.name for ins in instruments), "instrument party names")
    by_name = {ins.party.name: ins for ins in instruments}
    if set(by_name) != {party.name for party in p.parties}:
        raise ValueError("instruments must cover exactly the process parties")
    ins = [by_name[party.name] for party in p.parties]
    for party, i in zip(p.parties, ins):
        if i.party != party:
            raise ValueError(f"instrument for {party.name!r} has mismatched spaces")
    # P[x.., a..] = sum_ij w_ij (M_1[x_1, a_1] (x) ... (x) M_n[x_n, a_n])_ij,
    # i.e. Tr[w M^T]: one matmul per party leaves (x_1, a_1, ..., x_n, a_n)
    n = len(ins)
    stacks = [i._stack for i in ins]
    pairs = [a for s in stacks for a in s.shape[:2]]  # (settings, outcomes) per party
    shape = tuple(pairs[0::2]) + tuple(pairs[1::2])
    try:
        vals = np.empty(shape)
    except (MemoryError, ValueError) as e:
        raise ValueError(f"Born table of shape {shape} cannot be allocated") from e
    t = _regroup(p.w.mat, _grouping(p.w.space, tuple(q.space for q in p.parties)))
    sizes = t.shape[1:]
    for k, s in enumerate(stacks):
        t = np.matmul(s.reshape(-1, sizes[k]), t.reshape(-1, sizes[k], math.prod(sizes[k + 1:])))
    vals[...] = t.reshape(pairs).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).real
    return ProbabilityTable(tuple(party.name for party in p.parties), vals)


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
    return ProbabilityTable(party_names, vals)


@functools.lru_cache(maxsize=8)
def _demo_setup(d: int) -> tuple[ProcessMatrix, Instrument]:
    """What `switch_discrimination_demo` needs besides U and V, built once
    per target dimension d: the validated switch with the target in |0>,
    and Fiona's instrument, the |+-> measurement of the control with the
    target traced."""
    qs = _require_valid(make_quantum_switch(np.eye(d)[0], 1 / np.sqrt(2), 1 / np.sqrt(2))
                        .to_matrix())
    f_c, f_t = (qs.w.space.restrict([label]) for label in ("F_c", "F_t"))
    povm = [
        tensor(HermitianOperator(f_c, np.outer(pm, pm.conj())), identity(f_t)).mat
        for pm in np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    ]
    return qs, standard_instruments("povm", qs.parties[2], povms=[povm])


def switch_discrimination_demo(u: np.ndarray, v: np.ndarray) -> float:
    """P(control reads +) when the switch runs channels U and V.

    The target starts in |0>; Fiona measures the control in the |+-> basis
    and traces the target. The switch and Fiona's instrument depend only on
    the target dimension, so they are built and checked once per dimension
    (`_demo_setup`).
    Returns 1 for commuting pairs and 0 for anticommuting pairs: one query
    to each channel decides which, with no definite order in between.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    d = u.shape[0]
    for name, m in (("U", u), ("V", v)):
        if m.shape != (d, d) or np.max(np.abs(m.conj().T @ m - np.eye(d))) > 1e-10:
            raise ValueError(f"{name} must be unitary")
    qs, ins_f = _demo_setup(d)
    pa, pb, _ = qs.parties
    ins_a = standard_instruments("unitary", pa, unitaries=[u])
    ins_b = standard_instruments("unitary", pb, unitaries=[v])
    table = born(qs, [ins_a, ins_b, ins_f])
    return float(table.values[0, 0, 0, 0, 0, 0])

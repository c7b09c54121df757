"""The three seeded workloads: inputs, tasks and known-defect probes.

Each workload function takes the freshly imported `causalis` package, the seed, the
quick flag and a scratch directory, generates every input from the seed, and
returns a Workload. A task calls only into the library and returns its
output; the matching check in checks.py runs afterwards, untimed.

Seeded inputs keep the work per round fixed: counts per input kind are
constants, and the fixed processes (traced, degenerate and full switch, the
OCB process) enter in a seeded frame of local unitaries, U W U^dag with
U = u_1 (x) ... (x) u_n. Validity, separability and the Dykstra iteration
count are invariant under such frames (the order-cone masks only ask
whether a factor carries the identity), so the seed changes the numbers but
not the amount of work.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    tasks: list[Task]
    # Inputs on which the library is known to answer wrongly at the commit
    # that defined the benchmark; run once per untraced run, after timing.
    probes: list[Task] = field(default_factory=list)
    # Run once, traced, at the end of a traced run.
    traced_extra: list[Task] = field(default_factory=list)
    workdir: Path | None = None

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _qubit_parties(cs, names):
    return [cs.Party(n, cs.LabeledSpace(f"{n}_I", 2), cs.LabeledSpace(f"{n}_O", 2))
            for n in names]


def _equal_switch(cs):
    return cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2)).to_matrix()


def _frame(cs, p, rng):
    """p in a seeded frame of local unitaries, one per factor."""
    u = np.ones((1, 1), dtype=complex)
    for f in p.w.space.factors:
        u = np.kron(u, cs.random_unitary(f.dim, rng))
    m = u @ p.w.mat @ u.conj().T
    return cs.ProcessMatrix(p.parties, cs.HermitianOperator(p.w.space, m))


def _lib(cs, name, *args):
    """Call a causalis function looked up at call time, so a traced run
    reaches the wrapper installed in its place."""
    return getattr(cs, name)(*args)


def _shuffled(tasks, rng):
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------------
# sep_verdicts

def _unitary_mixture(cs, parties, rng):
    """Half/half mixture of two ordered processes with unitary links; it
    converges in ~45 iterations."""
    a, b = parties
    ws = []
    for src, dst in ((a, b), (b, a)):
        rho = cs.HermitianOperator(src.input_space, cs.random_density(2, rng))
        link = cs.choi_of_kraus([cs.random_unitary(2, rng)], src.output_space, dst.input_space)
        ws.append(cs.make_ordered_process([src, dst], rho, [link], validate=False).w)
    return cs.ProcessMatrix((a, b), ws[0] * 0.5 + ws[1] * 0.5)


def _seed_state_mixtures(cs, parties):
    """q W(A<B) + (1-q) W(B<A) with random CPTP links, drawn from
    default_rng(1). Separable by construction; mixtures 1 and 2 run to
    max_iters and come back nonseparable with a "verified" witness."""
    a, b = parties
    rng = np.random.default_rng(1)
    out = []
    for _ in range(5):
        q = rng.uniform()
        w_ab = cs.random_ordered_process([a, b], rng).w
        w_ba = cs.random_ordered_process([b, a], rng).w
        out.append((q, w_ab, w_ba))
    return out


def sep_verdicts(cs, seed, quick, workdir):
    rng = np.random.default_rng(seed)
    a, b = _qubit_parties(cs, "AB")
    equal = _equal_switch(cs)
    traced = cs.ProcessMatrix((a, b), cs.partial_trace(equal.w, ("F_c", "F_t", "F_O")))
    degenerate = cs.make_quantum_switch([1.0, 0.0], 1.0, 0.0).to_matrix()
    ocb = cs.ocb_process()
    # 0.9 OCB + 0.1 white noise still wins the OCB game with
    # 1/2 + 0.9 sqrt(2)/4 > 3/4, so it is causally nonseparable.
    noisy_ocb = cs.ProcessMatrix(ocb.parties, ocb.w * 0.9 + cs.identity(ocb.w.space) * (0.1 / 4))
    mixture = _unitary_mixture(cs, (a, b), np.random.default_rng(0))
    two = ("A", "B"), ("B", "A")
    three = ("A", "B", "F"), ("B", "A", "F")

    cases = []  # kind, label, process, check(cert, p)
    separable = partial(checks.separable, cs)
    for k in range(1 if quick else 4):
        cases.append(("sep.converge", f"traced_switch#{k}", _frame(cs, traced, rng),
                      partial(separable, orders=two, q=0.5)))
        cases.append(("sep.converge", f"unitary_mixture#{k}", _frame(cs, mixture, rng),
                      partial(separable, orders=two)))
    if not quick:
        cases.append(("sep.converge", "degenerate_switch", _frame(cs, degenerate, rng),
                      partial(separable, orders=three, q=1.0)))
        cases.append(("sep.stall", "ocb_noisy", _frame(cs, noisy_ocb, rng), checks.nonseparable))
    cases.append(("sep.stall", "ocb", _frame(cs, ocb, rng), checks.nonseparable))

    tasks = []
    for kind, label, p, check in cases:
        # validated here, so the timed call is the separability decision alone
        p = cs.validate_process(p)
        tasks.append(Task(kind, label, partial(_lib, cs, "check_separability", p),
                          partial(_cert_check, check, p)))

    probes, extra = [], []
    if not quick:
        for k, (q, w_ab, w_ba) in enumerate(_seed_state_mixtures(cs, (a, b))):
            if k not in (1, 2):
                continue
            p = cs.ProcessMatrix((a, b), w_ab * q + w_ba * (1 - q))
            check = partial(checks.separable_mixture, cs, p=p, orders=two,
                            parts=(w_ab.mat, w_ba.mat))
            probes.append(Task("probe.sep", f"default_rng(1) mixture {k} (q={q:.3f})",
                               partial(_lib, cs, "check_separability", p), check))
        full = cs.validate_process(equal)
        extra.append(Task("sep.full_switch", "full_switch", partial(_lib, cs, "check_separability", full),
                          partial(_cert_check, checks.nonseparable, full)))
    return Workload(_shuffled(tasks, rng), probes, extra)


def _cert_check(check, p, cert):
    return check(cert, p)


# ---------------------------------------------------------------------------
# born_sweep

def _switch_table(cs, p, instruments):
    table = cs.born(p, instruments).marginalize("F")
    return table, cs.is_causal(table)


def _ocb_table(cs, p, instruments, game):
    table = cs.born(p, instruments)
    return table, cs.score_inequality(table, game), cs.is_causal(table)


def _ordered_scenario(cs, n, rng):
    """A definite-order scenario and its circuit-oracle table."""
    names = "ABC"[:n]
    parties = _qubit_parties(cs, names)
    rho = cs.random_density(2, rng)
    state = cs.HermitianOperator(parties[0].input_space, rho)
    link_kraus = [cs.random_kraus(2, 2, 2, rng) for _ in range(n - 1)]
    links = [cs.choi_of_kraus(ks, parties[k].output_space, parties[k + 1].input_space)
             for k, ks in enumerate(link_kraus)]
    p = cs.make_ordered_process(parties, state, links)
    ins_kraus, instruments = [], []
    for party in parties:
        fams = [cs.random_instrument_kraus(2, 2, 2, rng) for _ in range(2)]
        ins_kraus.append(fams)
        rows = tuple(tuple(cs.choi_of_kraus(f, party.input_space, party.output_space)
                           for f in fam) for fam in fams)
        instruments.append(cs.Instrument(party, 2, 2, rows))
    want = cs.circuit_oracle(list(names), rho, link_kraus, ins_kraus).values
    return p, instruments, want


def born_sweep(cs, seed, quick, workdir):
    rng = np.random.default_rng(seed)
    switch = cs.validate_process(_equal_switch(cs))
    a, b, f = switch.parties
    gyni, ocb_game = cs.gyni_game(), cs.ocb_game()
    cs.causal_bound(gyni)  # fills the vertex cache for both alphabets
    cs.causal_bound(ocb_game)
    vertices = np.stack([t.reshape(-1) for _, t in cs.enumerate_strategies(gyni)], axis=1)

    tasks = []
    for k in range(5 if quick else 100):
        ins = [cs.random_instrument(a, 2, 2, rng), cs.random_instrument(b, 2, 2, rng),
               cs.random_instrument(f, 1, 2, rng)]
        tasks.append(Task("born.switch_table", f"switch_table#{k}",
                          partial(_switch_table, cs, switch, ins),
                          partial(checks.causal_table, vertices)))
    for k, n in enumerate([2] * (1 if quick else 6) + [3] * (1 if quick else 2)):
        p, ins, want = _ordered_scenario(cs, n, rng)
        tasks.append(Task("born.ordered", f"ordered_{n}party#{k}", partial(_lib, cs, "born", p, ins),
                          partial(checks.oracle_table, want)))
    ocb = cs.ocb_process()
    tasks.append(Task("born.ocb", "ocb_table",
                      partial(_ocb_table, cs, ocb, list(cs.ocb_instruments()), ocb_game),
                      partial(checks.ocb_table, ocb_game)))
    return Workload(_shuffled(tasks, rng))


# ---------------------------------------------------------------------------
# cli_mix

def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _random_amplitudes(rng):
    theta = rng.uniform(0.1, np.pi / 2 - 0.1)
    alpha = complex(np.cos(theta))
    beta = complex(np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return alpha, beta, [complex(z) for z in psi / np.linalg.norm(psi)]


def _demo_p_plus(u, v):
    """P(+) = (1 + Re <0|(VU)^dag UV|0>) / 2 for the switch with control |+>."""
    e0 = np.array([1.0, 0.0], dtype=complex)
    return float((1 + np.vdot(v @ u @ e0, u @ v @ e0).real) / 2)


def cli_mix(cs, seed, quick, workdir):
    rng = np.random.default_rng(seed)
    pool = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
    cli, cio = cs.cli, cs.io
    a, b, c = _qubit_parties(cs, "ABC")
    tasks, probes = [], []

    def n(full):
        return 1 if quick else full

    def write(name, obj):
        path = str(pool / name)
        cio.save_json(obj, path)
        return path

    def add(kind, label, argv, check):
        tasks.append(Task(kind, label, partial(_cli_call, cli, argv), check))

    def add_validate(label, p):
        """Valid by construction unless corrupted, which moves the trace."""
        trace = float(np.trace(p.w.mat).real)
        min_eig = float(np.linalg.eigvalsh(p.w.mat)[0])
        valid = abs(trace - p.expected_trace) < 1e-9 and min_eig > -1e-10
        path = write(f"{label}.json", cio.process_to_json(p))
        add("cli.validate", f"validate {label}", ["validate", "--in", path],
            partial(checks.cli_validate, valid, trace, min_eig))

    for k in range(n(14)):
        add_validate(f"bipartite{k}", cs.random_ordered_process(
            [a, b] if rng.uniform() < 0.5 else [b, a], rng))
    switch_files = []
    for k in range(n(4)):
        alpha, beta, psi = _random_amplitudes(rng)
        p = cs.make_quantum_switch(psi, alpha, beta).to_matrix()
        add_validate(f"switch{k}", p)
        switch_files.append((str(pool / f"switch{k}.json"), cs.validate_process(p)))
    # one per round: 13^3 spanning tuples, swept twice, make it the slow tail
    add_validate("tripartite", cs.random_ordered_process(
        [[a, b, c][i] for i in rng.permutation(3)], rng))
    for k in range(n(6)):
        base = cs.random_ordered_process([a, b], rng).w.mat.copy()
        if k % 2 == 0:
            base *= 1.1 + 0.9 * rng.uniform()  # trace off by 10-100%
        else:
            base[0, 0] -= 0.5
        add_validate(f"corrupt{k}", cs.ProcessMatrix(
            (a, b), cs.HermitianOperator(cs.parties_space((a, b)), base)))

    # Malformed or non-finite files the CLI rejects with exit 2.
    good = cio.process_to_json(cs.random_ordered_process([a, b], rng))
    text = json.dumps(good)
    rejects = []
    for k in range(n(2)):
        path = pool / f"truncated{k}.json"
        path.write_text(text[: int(len(text) * rng.uniform(0.2, 0.9))])
        rejects.append(("truncated", str(path)))
    bad = json.loads(text)
    bad["w"]["entries"][1][0] = float("nan")
    rejects.append(("nan_entry", write("nan_entry.json", bad)))
    bad = json.loads(text)
    bad["w"]["entries"].pop()
    rejects.append(("short_entries", write("short_entries.json", bad)))
    for label, path in rejects[: n(4)]:
        add("cli.validate", f"validate {label}", ["validate", "--in", path],
            partial(checks.cli_rejected, "validate"))

    for k in range(n(2)):
        alpha, beta, psi = _random_amplitudes(rng)
        out = str(pool / f"out_switch{k}.json")
        want = cs.make_quantum_switch(psi, alpha, beta).to_matrix().w.mat
        add("cli.switch", f"switch --out #{k}",
            ["switch", f"--alpha={alpha!r}", f"--beta={beta!r}",
             "--psi=" + ",".join(repr(z) for z in psi), "--out", out],
            partial(checks.cli_switch, out, want))

    for k in range(n(2)):
        path, p = switch_files[k % len(switch_files)]
        pa, pb, pf = p.parties
        ins = [cs.random_instrument(pa, 2, 2, rng), cs.random_instrument(pb, 2, 2, rng),
               cs.random_instrument(pf, 1, 2, rng)]
        ins_paths = [write(f"born{k}_{i.party.name}.json", cio.instrument_to_json(i)) for i in ins]
        out = str(pool / f"out_table{k}.csv")
        add("cli.born", f"born --out #{k}",
            ["born", "--process", path, "--instruments", *ins_paths, "--out", out],
            partial(checks.cli_born, out, cs.born(p, ins).values))

    games = {"gyni": cs.gyni_game(), "lgyni": cs.lgyni_game(), "ocb": cs.ocb_game()}
    for game in games.values():
        cs.causal_bound(game)  # fills the vertex cache
    switch = cs.validate_process(_equal_switch(cs))
    sa, sb, sf = switch.parties
    tables = []
    for k in range(n(3)):
        ins = [cs.random_instrument(sa, 2, 2, rng), cs.random_instrument(sb, 2, 2, rng),
               cs.random_instrument(sf, 1, 2, rng)]
        tables.append(("gyni" if k % 2 == 0 else "lgyni",
                       cs.born(switch, ins).marginalize("F"), 0, False, True))
    ocb_table = cs.born(cs.ocb_process(), list(cs.ocb_instruments()))
    tables.append(("ocb", ocb_table, 1, True, False))
    for k, (name, table, code, violated, causal) in enumerate(tables[-n(4):]):
        path = pool / f"table{k}.csv"
        path.write_text(cio.table_to_csv(table))
        g = games[name]
        value = float((g.input_dist[..., None, None] * g.win * table.values).sum())
        add("cli.ineq", f"ineq --game {name} #{k}",
            ["ineq", "--game", name, "--table", str(path)],
            partial(checks.cli_ineq, code, value, violated, causal))

    gates = sorted(cli.GATES)
    for k in range(n(2)):
        u, v = (gates[i] for i in rng.integers(0, len(gates), size=2))
        add("cli.demo", f"demo {u} {v}", ["demo", "--u", u, "--v", v],
            partial(checks.cli_demo, _demo_p_plus(cli.GATES[u], cli.GATES[v])))

    # Known defects: each must exit 2, and does not.
    bad = json.loads(text)
    bad["w"]["entries"][0] = [float("inf"), 0.0]
    for label, obj in (("+inf diagonal entry", bad), ('mis-shaped {"parties": 5}', {"parties": 5})):
        path = write(f"probe_{len(probes)}.json", obj)
        probes.append(Task("probe.cli", f"validate {label}",
                           partial(_cli_call, cli, ["validate", "--in", path]),
                           partial(checks.cli_rejected, "validate")))
    return Workload(_shuffled(tasks, rng), probes, workdir=pool)


WORKLOADS = {
    "sep_verdicts": sep_verdicts,
    "born_sweep": born_sweep,
    "cli_mix": cli_mix,
}

import itertools
import json

import numpy as np
import pytest
from hypothesis import settings

import causalis as cs
from causalis import io as cio

# property tests draw the same examples on every run and have no deadline:
# a slow first call (a cached build, a lazy import) is not a failure
settings.register_profile("causalis", derandomize=True, deadline=None)
settings.load_profile("causalis")


@pytest.fixture(scope="session")
def switch():
    """Equal-amplitude qubit switch, validated once per session."""
    qs = cs.make_quantum_switch([1.0, 0.0], 1 / np.sqrt(2), 1 / np.sqrt(2))
    return cs.validate_process(qs.to_matrix())


@pytest.fixture(scope="session")
def qubit_parties():
    return (
        cs.Party("A", cs.LabeledSpace("A_I", 2), cs.LabeledSpace("A_O", 2)),
        cs.Party("B", cs.LabeledSpace("B_I", 2), cs.LabeledSpace("B_O", 2)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def unitary_ordered_process(order, rng):
    """An ordered process on qubit parties whose links are unitary
    channels: one Haar unitary per link, then the first party's state."""
    us = [cs.random_unitary(2, rng) for _ in order[1:]]
    rho = cs.HermitianOperator(order[0].input_space, cs.random_density(2, rng))
    links = [cs.choi_of_kraus([u], src.output_space, dst.input_space)
             for u, src, dst in zip(us, order, order[1:])]
    return cs.make_ordered_process(list(order), rho, links, validate=False)


def unitary_channel_mixture(parties, rng, weight=0.5):
    """Mixture of two ordered processes built from unitary links.

    Unitary-channel mixtures converge quickly under alternating projections,
    unlike generic random-channel mixtures; use these for fast separability
    tests.
    """
    a, b = parties
    w_ab = unitary_ordered_process((a, b), rng).w
    w_ba = unitary_ordered_process((b, a), rng).w
    return cs.ProcessMatrix((a, b), w_ab * weight + w_ba * (1 - weight))


def sequential_ordered_process(order, rng):
    """An ordered process drawn one piece at a time from the tensor_core
    samplers, with each link's Choi summed from the pure Choi vectors of its
    Kraus operators, two or ceil(d_out / d_in) if more: the reference for
    random_ordered_batch, which must consume the generator in the same
    order."""
    order = list(order)
    state = cs.HermitianOperator(order[0].input_space,
                                 cs.random_density(order[0].input_dim, rng))
    links = []
    for src, dst in zip(order, order[1:]):
        n_kraus = max(2, -(-src.output_dim // dst.input_dim))
        kraus = cs.random_kraus(src.output_dim, dst.input_dim, n_kraus, rng)
        vecs = [cs.choi_vector(k, src.output_space, dst.input_space) for k in kraus]
        link = vecs[0].density()
        for v in vecs[1:]:
            link = link + v.density()
        links.append(link)
    return cs.make_ordered_process(order, state, links, validate=False)


def local_unitary(space, rng):
    """U = u_1 (x) ... (x) u_m, one Haar unitary per factor."""
    return cs.tensor(*[cs.Operator(cs.SpaceProduct(f), cs.random_unitary(f.dim, rng))
                       for f in space.factors])


def mis_shaped_processes(switch):
    """(label, JSON, message) for parseable process files that loading rejects."""
    good = cio.process_to_json(switch)
    cases = [("parties not a list", {"parties": 5}, "'parties' must be a list")]

    def variant(label, edit, match):
        d = json.loads(json.dumps(good))
        edit(d)
        cases.append((label, d, match))

    variant("factors not a list", lambda d: d["w"].update(factors=3), "'factors' must be a list")
    variant("non-integer dim", lambda d: d["w"]["factors"][0].update(dim=2.5),
            "'dim' must be an integer")
    variant("string dim", lambda d: d["parties"][0]["input"].update(dim="2"),
            "'dim' must be an integer")
    variant("party not an object", lambda d: d["parties"].__setitem__(0, "A"),
            "must be an object")
    variant("missing w", lambda d: d.pop("w"), "no 'w' field")
    variant("duplicate party name", lambda d: d["parties"][1].update(name="A"),
            "party names must be distinct; repeated: 'A'")
    variant("entries not numbers", lambda d: d["w"]["entries"].__setitem__(0, ["x", 0]),
            "entries must be numbers")
    # np.asarray read a mixed list's true as 1.0
    variant("boolean entry", lambda d: d["w"]["entries"].__setitem__(0, [True, 0.0]),
            "entries must be numbers")
    variant("+inf diagonal", lambda d: d["w"]["entries"].__setitem__(0, [float("inf"), 0.0]),
            "entries must be finite")
    variant("NaN entry", lambda d: d["w"]["entries"].__setitem__(1, [float("nan"), 0.0]),
            "entries must be finite")
    # W_01 broken without W_10: loading builds a HermitianOperator, so a
    # non-Hermitian W never reaches validate_process or validity_report
    variant("W not Hermitian", lambda d: d["w"]["entries"].__setitem__(1, [5.0, 0.0]),
            "matrix is not Hermitian")
    cases.append(("not an object", [good], "process must be an object"))
    return cases


def far_index_table(index):
    """A two-row table CSV whose second row has outcome index `index`: its
    rows span a grid of index + 1 cells and cover two of them."""
    return f"x_A,x_B,a_A,a_B,p\n0,0,0,0,1.0\n0,0,0,{index},0.0"


def malformed_tables():
    """{label: (CSV text, message)} for tables whose rows index outside the
    grid, leave most of a huge grid uncovered, overwrite one another, or
    disagree with the header's width, or whose header names a party twice."""
    text = cio.table_to_csv(cs.ProbabilityTable(("A", "B"), np.full((2,) * 4, 0.25)))
    lines = text.splitlines()
    last = lines[-1].rsplit(",", 1)[1]
    return {
        "negative index": ("\n".join(lines[:-1] + [f"-1,-1,-1,-1,{last}"]), "negative index"),
        "far index": (far_index_table(10**12), "do not cover"),
        "duplicate row": ("\n".join(lines + [lines[1]]), "repeats the index"),
        "wrong cell count": ("x_A,a_A,p\n0,0,0,1.0\n0,0,1,0.0", "has 4 cells; the header has 3"),
        "duplicate party": ("\n".join([lines[0].replace("_B", "_A")] + lines[1:]),
                            "party names must be distinct; repeated: 'A'"),
    }


def qubit_chain(names):
    """One party per name, with qubit input <name>_I and output <name>_O."""
    return [cs.Party(n, cs.LabeledSpace(f"{n}_I", 2), cs.LabeledSpace(f"{n}_O", 2))
            for n in names]


def interleaved_parties():
    """P: A_p -> Z_p (2 -> 3) and Q: M_q -> B_q (3 -> 2), whose factors
    interleave in the canonical order (A_p, B_q, M_q, Z_p)."""
    return [cs.Party("P", cs.LabeledSpace("A_p", 2), cs.LabeledSpace("Z_p", 3)),
            cs.Party("Q", cs.LabeledSpace("M_q", 3), cs.LabeledSpace("B_q", 2))]


def trivial_parties(n):
    """n parties whose input and output factors both have dimension 1."""
    return [cs.Party(f"T{k:02d}", cs.LabeledSpace(f"T{k:02d}_I", 1),
                     cs.LabeledSpace(f"T{k:02d}_O", 1)) for k in range(n)]


def qubit_with_trivial_parties(n, rng):
    """A valid process: qubit party A receives a random state; n trivial
    parties ride along."""
    a = qubit_chain("A")[0]
    parties = [a] + trivial_parties(n)
    rho = cs.HermitianOperator(a.input_space, cs.random_density(2, rng))
    w = cs.tensor(rho, cs.identity(a.output_space),
                  *[cs.identity(q.space) for q in parties[1:]])
    return cs.ProcessMatrix(parties, w)


def baumeler_wolf():
    """The Baumeler-Wolf process on three qubit parties (Baumeler & Wolf,
    NJP 18, 013036 (2016)): a classical, diagonal W in which A's input is
    (not o_B) and o_C, B's is (not o_C) and o_A and C's is (not o_A) and
    o_B, for outputs o. It is valid but no mixture of fixed orders."""
    parties = qubit_chain("ABC")
    space = cs.parties_space(parties)
    diag = np.zeros(space.dims)
    for a, b, c in itertools.product((0, 1), repeat=3):
        bits = {"A_O": a, "B_O": b, "C_O": c,
                "A_I": (1 - b) & c, "B_I": (1 - c) & a, "C_I": (1 - a) & b}
        diag[tuple(bits[lab] for lab in space.labels)] = 1.0
    return cs.ProcessMatrix(parties, cs.HermitianOperator(space, np.diag(diag.ravel())))


def ocb_with_discarded_outputs():
    """OCB with a second, discarded output qubit per party: W (x) 1 on A_X
    and B_X, D = 64 and d_O = Tr W = 16."""
    ocb = cs.ocb_process()
    extra = {q.name: cs.LabeledSpace(f"{q.name}_X", 2) for q in ocb.parties}
    parties = tuple(cs.Party(q.name, q.inputs, q.outputs + (extra[q.name],))
                    for q in ocb.parties)
    w = cs.tensor(ocb.w, *(cs.identity(x) for x in extra.values()))
    return cs.ProcessMatrix(parties, w)


def order_conditions(order, parties):
    """(later-spaces, later-spaces + own output) label pairs of an order
    cone, one per party with a nontrivial output, one-dimensional labels
    dropped: the depolarize-chain form of the order's linear subspace,
    D_S(W) = D_{S+o}(W) for each pair. Kept as the reference for the
    pattern ids of `separability._cone_ids`."""
    by_name = {p.name: p for p in parties}
    dims = {s.label: s.dim for p in parties for s in p.inputs + p.outputs}
    conds = []
    for k, name in enumerate(order):
        after = set()
        for later in order[k + 1:]:
            q = by_name[later]
            after |= set(q.input_labels) | set(q.output_labels)
        after = frozenset(lab for lab in after if dims[lab] > 1)
        out = frozenset(lab for lab in by_name[name].output_labels if dims[lab] > 1)
        if out:
            conds.append((after, after | out))
    return conds

import json

import numpy as np
import pytest

import causalis as cs
from causalis import io as cio


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


def unitary_channel_mixture(parties, rng, weight=0.5):
    """Mixture of two ordered processes built from unitary links.

    Unitary-channel mixtures converge quickly under alternating projections,
    unlike generic random-channel mixtures; use these for fast separability
    tests.
    """
    a, b = parties
    chois = {}
    for src, dst, key in ((a, b, "ab"), (b, a, "ba")):
        u = cs.random_unitary(2, rng)
        rho = cs.HermitianOperator(src.input_space, cs.random_density(2, rng))
        ch = cs.choi_of_kraus([u], src.output_space, dst.input_space)
        chois[key] = cs.make_ordered_process([src, dst], rho, [ch], validate=False)
    w = chois["ab"].w * weight + chois["ba"].w * (1 - weight)
    return cs.ProcessMatrix((a, b), w)


def sequential_ordered_process(order, rng, n_kraus=2):
    """An ordered process drawn one piece at a time from the tensor_core
    samplers, with each link's Choi summed from pure Choi vectors: the
    reference for random_ordered_batch, which must consume the generator
    in the same order."""
    order = list(order)
    state = cs.HermitianOperator(order[0].input_space,
                                 cs.random_density(order[0].input_dim, rng))
    links = []
    for src, dst in zip(order, order[1:]):
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
    """(label, JSON, message) for parseable process files of the wrong shape."""
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
    variant("entries not numbers", lambda d: d["w"]["entries"].__setitem__(0, ["x", 0]),
            "entries must be numbers")
    variant("+inf diagonal", lambda d: d["w"]["entries"].__setitem__(0, [float("inf"), 0.0]),
            "entries must be finite")
    variant("NaN entry", lambda d: d["w"]["entries"].__setitem__(1, [float("nan"), 0.0]),
            "entries must be finite")
    cases.append(("not an object", [good], "process must be an object"))
    return cases


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

"""Process matrices: validity certification, fixed-order construction,
the quantum switch, interference decomposition, density-matrix reduction.

A process matrix W is a Hermitian operator over all parties' input and
output factors. It is valid when it is positive semidefinite and yields
unit total probability for every choice of local CPTP instruments, which
is certified here against a finite spanning set of channel Chois.

Validity and the Born rule evaluate the same multilinear functional,
T[k_1, ..., k_n] = sum_ij W_ij (X_1[k_1] (x) ... (x) X_n[k_n])_ij, on
per-party stacks X_k: spanning-set elements here, instrument Chois in
`instruments.born`. `_contract` evaluates it as a single einsum whose
subscripts follow the factor labels, so no tensor product is ever formed.

Random ordered processes are drawn in batches (`random_ordered_batch`; the
single draw `random_ordered_process` is its n = 1 case) and kept as their
pieces, a state stack and one Choi stack per link. `OrderedBatch.traces`
pairs an operator with every sample through the same contraction, the
sample axis shared by all pieces.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .tensor_core import (
    HermitianOperator,
    LabeledSpace,
    Operator,
    PureVector,
    SpaceProduct,
    _choi_stack,
    _ginibre_density,
    _haar_isometry,
    choi_vector,
    depolarize,
    hermitian_basis,
    identity,
    partial_trace,
    tensor,
    tensor_vectors,
)

PSD_TOL = 1e-10
LIN_TOL = 1e-9


def _as_factors(spaces) -> tuple[LabeledSpace, ...]:
    if isinstance(spaces, LabeledSpace):
        return (spaces,)
    return tuple(spaces)


@dataclass(frozen=True, init=False)
class Party:
    """A local laboratory with named input and output factors.

    A dim-1 output factor models a party with no output system (the final
    measuring party of the switch). The switch's final party carries two
    input factors (control and target), so inputs and outputs are tuples.
    """

    name: str
    inputs: tuple[LabeledSpace, ...]
    outputs: tuple[LabeledSpace, ...]

    def __init__(self, name: str, inputs, outputs):
        inputs = _as_factors(inputs)
        outputs = _as_factors(outputs)
        labels = [f.label for f in inputs + outputs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"party {name!r}: input/output labels must be distinct")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.inputs)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.outputs)

    @property
    def input_dim(self) -> int:
        d = 1
        for f in self.inputs:
            d *= f.dim
        return d

    @property
    def output_dim(self) -> int:
        d = 1
        for f in self.outputs:
            d *= f.dim
        return d

    @property
    def trivial_output(self) -> bool:
        return self.output_dim == 1

    @property
    def space(self) -> SpaceProduct:
        return SpaceProduct(self.inputs + self.outputs)

    @property
    def input_space(self) -> SpaceProduct:
        return SpaceProduct(self.inputs)

    @property
    def output_space(self) -> SpaceProduct:
        return SpaceProduct(self.outputs)


def parties_space(parties: Sequence[Party]) -> SpaceProduct:
    factors: list[LabeledSpace] = []
    for p in parties:
        factors.extend(p.inputs)
        factors.extend(p.outputs)
    return SpaceProduct(factors)


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """A Hermitian operator over all party spaces plus a validity verdict.

    validity is one of "unchecked", "valid", "invalid"; reason holds the
    first violated condition (with residual) when invalid.
    """

    parties: tuple[Party, ...]
    w: HermitianOperator
    validity: str = "unchecked"
    reason: str | None = None
    # (eigenvalues of w, normalization table) from _validity_sweep, kept so
    # that validity_report after validate_process does not sweep again;
    # replace() leaves it unset, so it never outlives the w it describes
    _sweep: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "parties", tuple(self.parties))
        if self.w.space != parties_space(self.parties):
            raise ValueError(
                f"operator labels {self.w.space.labels} do not match the parties' spaces"
            )

    @property
    def expected_trace(self) -> int:
        d = 1
        for p in self.parties:
            d *= p.output_dim
        return d

    def party(self, name: str) -> Party:
        for p in self.parties:
            if p.name == name:
                return p
        raise KeyError(f"no party named {name!r}")


@dataclass(frozen=True, eq=False)
class ProcessVector:
    """Pure process |W>; the induced matrix is |W><W|."""

    parties: tuple[Party, ...]
    v: PureVector

    def __post_init__(self):
        object.__setattr__(self, "parties", tuple(self.parties))
        if self.v.space != parties_space(self.parties):
            raise ValueError("vector labels do not match the parties' spaces")

    def to_matrix(self) -> ProcessMatrix:
        return ProcessMatrix(self.parties, self.v.density())


# ---------------------------------------------------------------------------
# validity

def _spanning_set(party: Party) -> list[HermitianOperator]:
    """Spanning set of the affine space {Hermitian C on I(x)O : Tr_O C = 1_I}.

    Elements are 1/d_O and 1/d_O + g_I (x) g_O with g_O traceless, so unit
    trace against every element certifies unit probability for all CPTP
    instruments by multilinearity. A trivial output yields the single
    element 1_I.
    """
    base = identity(party.space) / party.output_dim
    out = [base]
    if party.output_dim == 1:
        return out
    in_basis = hermitian_basis(party.input_dim)
    out_basis = hermitian_basis(party.output_dim)[1:]  # traceless part
    in_space = party.input_space
    out_space = party.output_space
    for g_in in in_basis:
        a = HermitianOperator(in_space, g_in)
        for g_out in out_basis:
            b = HermitianOperator(out_space, g_out)
            out.append(base + tensor(a, b))
    return out


@functools.lru_cache(maxsize=64)
def _spanning_stack(party: Party) -> np.ndarray:
    """The party's spanning set as one (n, d, d) array, conjugated so that
    sum_ij w_ij X[k]_ij = Tr[w C_k] for the Hermitian elements C_k."""
    x = np.stack([c.mat.conj() for c in _spanning_set(party)])
    x.setflags(write=False)
    return x


# np.einsum names axes by the letters a-z, A-Z, integer subscripts included
_EINSUM_SUBSCRIPTS = 52


def _contract(w: Operator, spaces: Sequence[SpaceProduct], stacks: Sequence[np.ndarray],
              shared: bool = False) -> np.ndarray:
    """T[k_1, ..., k_n] = sum_ij w_ij (X_1[k_1] (x) ... (x) X_n[k_n] (x) 1)_ij.

    stacks[k] has shape batch_k + (d_k, d_k) over spaces[k], in its
    canonical label order; factors of w that no space covers meet the
    identity. By default the batches are independent and the result has
    shape batch_1 + ... + batch_n; with shared=True every stack carries the
    same batch shape, whose axes share subscripts, and that is the result's
    shape. One einsum does the whole sum. Each factor of w gets a row and a
    column subscript by label (the same one for an uncovered factor, which
    traces it out), so pieces whose factors interleave in w's canonical
    order need no permutation. Axes of length 1 (trivial factors, single
    settings) get no subscript. Every subscript then names an axis of length
    >= 2 on w or on the result, so past einsum's 52 one of the two would
    hold at least 2**27 entries; that case raises instead of contracting.
    """
    labels = [f.label for f in w.space.factors if f.dim > 1]
    dims = [f.dim for f in w.space.factors if f.dim > 1]
    row = {lab: 2 * k for k, lab in enumerate(labels)}  # column subscript: row + 1
    covered = {f.label for space in spaces for f in space.factors}
    operands = [
        w.mat.reshape(dims + dims),
        [row[lab] for lab in labels] + [row[lab] + (lab in covered) for lab in labels],
    ]
    n_sub = 2 * len(labels)
    out, shape = [], []
    if shared:
        shape = list(stacks[0].shape[:-2])
        batch = [n for n in shape if n > 1]
        out = list(range(n_sub, n_sub + len(batch)))
        n_sub += len(batch)
    for space, x in zip(spaces, stacks):
        if shared:
            axes = out
        else:
            batch = [n for n in x.shape[:-2] if n > 1]
            shape.extend(x.shape[:-2])
            axes = list(range(n_sub, n_sub + len(batch)))
            n_sub += len(batch)
            out.extend(axes)
        facs = [f for f in space.factors if f.dim > 1]
        operands.append(x.reshape(batch + [f.dim for f in facs] * 2))
        operands.append(axes + [row[f.label] for f in facs] + [row[f.label] + 1 for f in facs])
    if n_sub > _EINSUM_SUBSCRIPTS:
        raise ValueError(
            f"contraction needs {n_sub} einsum subscripts (one per nontrivial "
            f"factor index and stack axis); np.einsum allows at most {_EINSUM_SUBSCRIPTS}"
        )
    return np.einsum(*operands, out, optimize="greedy").reshape(shape)


def _validity_sweep(p: ProcessMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of w and the table Tr[w C] over every tuple C of the
    parties' spanning-set elements, computed once per ProcessMatrix."""
    if p._sweep is None:
        evals = np.linalg.eigvalsh(p.w.mat)
        table = _contract(p.w, [q.space for q in p.parties],
                          [_spanning_stack(q) for q in p.parties]).real
        object.__setattr__(p, "_sweep", (evals, table))
    return p._sweep


def validate_process(p: ProcessMatrix, psd_tol: float = PSD_TOL, lin_tol: float = LIN_TOL) -> ProcessMatrix:
    """Fill in the validity verdict of a process matrix.

    Valid means PSD (eigenvalues >= -psd_tol) and Tr[w C] = 1 within lin_tol
    for every tensor combination C of the parties' spanning-set elements.
    The first violated condition is recorded with its residual; for
    normalization, the first violating tuple of element indices in
    row-major order, i.e. itertools.product order over the parties.
    """
    evals, table = _validity_sweep(p)
    residual = np.abs(table - 1.0)
    bad = residual > lin_tol
    if evals[0] < -psd_tol:
        validity, reason = "invalid", f"positivity: min eigenvalue {evals[0]:.6e}"
    elif bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        validity = "invalid"
        reason = (
            f"normalization: Tr[w C] = {table[idx]:.12g} on CPTP spanning tuple "
            f"{tuple(int(i) for i in idx)} (residual {residual[idx]:.6e})"
        )
    else:
        validity, reason = "valid", None
    out = replace(p, validity=validity, reason=reason)
    object.__setattr__(out, "_sweep", p._sweep)
    return out


def validity_report(p: ProcessMatrix) -> dict:
    """Residuals of both validity conditions, without short-circuiting.

    Returns the smallest eigenvalue and the worst |Tr[w C] - 1| over the
    full spanning sweep, for reporting alongside the verdict.
    """
    evals, table = _validity_sweep(p)
    return {
        "min_eigenvalue": float(evals[0]),
        "max_normalization_residual": float(np.abs(table - 1.0).max()),
        "trace": float(p.w.trace().real),
        "expected_trace": p.expected_trace,
    }


def validate_bipartite_closed_form(p: ProcessMatrix, psd_tol: float = PSD_TOL, lin_tol: float = LIN_TOL) -> bool:
    """Closed-form validity for two parties with nontrivial outputs.

    Checks PSD, trace d_AO*d_BO, and the three depolarize identities that
    characterize the bipartite valid subspace. Must agree with
    validate_process on every input.
    """
    if len(p.parties) != 2:
        raise ValueError("closed form is defined for exactly two parties")
    a, b = p.parties
    if a.trivial_output or b.trivial_output:
        raise ValueError("closed form requires nontrivial outputs for both parties")
    w = p.w
    evals = np.linalg.eigvalsh(w.mat)
    if evals[0] < -psd_tol:
        return False
    if abs(w.trace().real - a.output_dim * b.output_dim) > lin_tol:
        return False
    ai, ao = set(a.input_labels), set(a.output_labels)
    bi, bo = set(b.input_labels), set(b.output_labels)
    c1 = depolarize(w, bi | bo) - depolarize(w, ao | bi | bo)
    c2 = depolarize(w, ai | ao) - depolarize(w, ai | ao | bo)
    c3 = w - (depolarize(w, bo) + depolarize(w, ao) - depolarize(w, ao | bo))
    return max(c1.norm(), c2.norm(), c3.norm()) <= lin_tol


# ---------------------------------------------------------------------------
# constructions

def make_ordered_process(
    order: Sequence[Party],
    initial_state: HermitianOperator,
    channels: Sequence[HermitianOperator],
    validate: bool = True,
) -> ProcessMatrix:
    """Process with the definite causal order order[0] < order[1] < ...

    initial_state is a density matrix on the first party's input; channel k
    is the (plain, unnormalized) Choi of a CPTP map from party k's output to
    party k+1's input; the final party's output is discarded (tensored with
    the identity).
    """
    order = list(order)
    if len(channels) != len(order) - 1:
        raise ValueError(f"expected {len(order) - 1} channels for {len(order)} parties")
    if initial_state.space != order[0].input_space:
        raise ValueError("initial state must live on the first party's input space")
    for k, ch in enumerate(channels):
        want = _link_space(order[k], order[k + 1])
        if ch.space != want:
            raise ValueError(
                f"channel {k} labels {ch.space.labels} do not match {want.labels}"
            )
    _check_pieces(order, initial_state.mat[None], [ch.mat[None] for ch in channels])
    w = tensor(initial_state, *channels, identity(order[-1].output_space))
    pm = ProcessMatrix(tuple(order), w)
    return validate_process(pm) if validate else pm


def _link_space(src: Party, dst: Party) -> SpaceProduct:
    """Space of the channel Choi from src's output to dst's input."""
    return SpaceProduct(src.outputs + dst.inputs)


def _check_pieces(order: Sequence[Party], states: np.ndarray, channels: Sequence[np.ndarray]):
    """make_ordered_process's conditions on (n, ...) stacks of pieces: unit
    trace and PSD states, CP channels (one stacked eigvalsh per link) and TP
    channels (one partial-trace einsum per link). Raises on the first
    violated condition, naming the worst sample when n > 1."""
    n = states.shape[0]

    def at(i):
        return f" (sample {i})" if n > 1 else ""

    tr = np.trace(states, axis1=-2, axis2=-1).real
    i = int(np.argmax(np.abs(tr - 1.0)))
    if abs(tr[i] - 1.0) > LIN_TOL:
        raise ValueError(f"initial state trace {tr[i]:.12g} != 1{at(i)}")
    low = np.linalg.eigvalsh(states)[:, 0]
    i = int(np.argmin(low))
    if low[i] < -PSD_TOL:
        raise ValueError(f"initial state is not positive semidefinite{at(i)}")
    for k, c in enumerate(channels):
        src, dst = order[k], order[k + 1]
        low = np.linalg.eigvalsh(c)[:, 0]
        i = int(np.argmin(low))
        if low[i] < -PSD_TOL:
            raise ValueError(f"channel {k} is not completely positive{at(i)}")
        # Tr_out C over dst's input factors: their row and column share a subscript
        facs = _link_space(src, dst).factors
        out = set(dst.input_labels)
        rows = list(range(1, len(facs) + 1))
        cols = [r if f.label in out else r + len(facs) for r, f in zip(rows, facs)]
        keep = [j for j, f in enumerate(facs) if f.label not in out]
        marginal = np.einsum(c.reshape((n,) + tuple(f.dim for f in facs) * 2), [0] + rows + cols,
                             [0] + [rows[j] for j in keep] + [cols[j] for j in keep])
        d = src.output_dim
        dev = np.linalg.norm(marginal.reshape(n, d, d) - np.eye(d), axis=(1, 2))
        i = int(np.argmax(dev))
        if dev[i] > LIN_TOL:
            raise ValueError(
                f"channel {k} is not trace-preserving: |Tr_out C - 1| = {dev[i]:.3e}{at(i)}"
            )


def switch_spaces(target_dim: int = 2) -> dict[str, LabeledSpace]:
    """The switch's labeled factors: A_I, A_O, B_I, B_O, F_c, F_t, F_O."""
    d = int(target_dim)
    return {
        "A_I": LabeledSpace("A_I", d),
        "A_O": LabeledSpace("A_O", d),
        "B_I": LabeledSpace("B_I", d),
        "B_O": LabeledSpace("B_O", d),
        "F_c": LabeledSpace("F_c", 2),
        "F_t": LabeledSpace("F_t", d),
        "F_O": LabeledSpace("F_O", 1),
    }


def switch_parties(target_dim: int = 2) -> tuple[Party, Party, Party]:
    s = switch_spaces(target_dim)
    return (
        Party("A", s["A_I"], s["A_O"]),
        Party("B", s["B_I"], s["B_O"]),
        Party("F", (s["F_c"], s["F_t"]), s["F_O"]),
    )


def make_quantum_switch(psi, alpha: complex, beta: complex) -> ProcessVector:
    """Quantum switch process vector with control amplitudes (alpha, beta).

    The branch with amplitude alpha routes the target through A first, the
    beta branch through B first, and the control reaching Fiona records the
    order. Requires |alpha|^2 + |beta|^2 = 1 and a normalized target state.
    """
    if isinstance(psi, PureVector):
        psi = psi.vec
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.size
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValueError("target state must be normalized")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    s = switch_spaces(d)
    eye = np.eye(d, dtype=complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    unit = PureVector(s["F_O"], [1.0])
    branch_a = tensor_vectors(
        PureVector(s["A_I"], psi),
        choi_vector(eye, s["A_O"], s["B_I"]),
        choi_vector(eye, s["B_O"], s["F_t"]),
        PureVector(s["F_c"], e0),
        unit,
    )
    branch_b = tensor_vectors(
        PureVector(s["B_I"], psi),
        choi_vector(eye, s["B_O"], s["A_I"]),
        choi_vector(eye, s["A_O"], s["F_t"]),
        PureVector(s["F_c"], e1),
        unit,
    )
    v = alpha * branch_a + beta * branch_b
    return ProcessVector(switch_parties(d), v)


def interference_decomposition(qs: ProcessVector):
    """Split an equal-amplitude switch into ordered parts and cross terms.

    Returns (W_ab, W_ba, cross, cross_dagger) with
    |W><W| = (W_ab + W_ba + cross + cross^dag) / 2. The cross terms are
    non-Hermitian; their presence is what the separability check rejects,
    and dropping them leaves the separable half/half ordered mixture.
    """
    space = qs.v.space
    if "F_c" not in space.labels:
        raise ValueError("expected a switch process vector with control factor F_c")
    idx = space.index("F_c")
    dims = space.dims
    t = qs.v.vec.reshape(dims)
    p0 = np.zeros_like(t)
    p1 = np.zeros_like(t)
    sl0 = [slice(None)] * len(dims)
    sl0[idx] = slice(0, 1)
    sl1 = [slice(None)] * len(dims)
    sl1[idx] = slice(1, 2)
    p0[tuple(sl0)] = t[tuple(sl0)]
    p1[tuple(sl1)] = t[tuple(sl1)]
    n0 = np.linalg.norm(p0)
    n1 = np.linalg.norm(p1)
    if abs(n0 - n1) > 1e-9 * max(n0, n1):
        raise ValueError("decomposition requires equal control amplitudes")
    b1 = np.sqrt(2.0) * p0.reshape(-1)
    b2 = np.sqrt(2.0) * p1.reshape(-1)
    w_ab = HermitianOperator(space, np.outer(b1, b1.conj()))
    w_ba = HermitianOperator(space, np.outer(b2, b2.conj()))
    cross = Operator(space, np.outer(b1, b2.conj()))
    return w_ab, w_ba, cross, cross.dagger()


def reduce_to_state(p: ProcessMatrix) -> HermitianOperator:
    """Density matrix on the joint inputs when every output is trivial."""
    for party in p.parties:
        if not party.trivial_output:
            raise ValueError(
                f"reduction undefined: party {party.name!r} has a nontrivial output"
            )
    out_labels = [lab for party in p.parties for lab in party.output_labels]
    return partial_trace(p.w, out_labels)


@dataclass(frozen=True, eq=False)
class OrderedBatch:
    """n processes with the definite order order[0] < order[1] < ..., kept
    as their pieces: W_k = states[k] (x) channels[0][k] (x) ... (x) 1, the
    identity on the last party's output. No (n, D, D) stack is formed.

    states has shape (n, d, d) over the first party's input space and
    channels[j] shape (n, e, e) over the Choi space of link j (party j's
    output (x) party j+1's input), each in canonical label order.
    """

    order: tuple[Party, ...]
    states: np.ndarray
    channels: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def spaces(self) -> list[SpaceProduct]:
        """The pieces' spaces: the first input, then each link's Choi space."""
        links = [_link_space(a, b) for a, b in zip(self.order, self.order[1:])]
        return [self.order[0].input_space] + links

    def process(self, k: int, validate: bool = False) -> ProcessMatrix:
        """Sample k as a ProcessMatrix, through make_ordered_process."""
        spaces = self.spaces
        state = HermitianOperator(spaces[0], self.states[k])
        links = [HermitianOperator(s, c[k]) for s, c in zip(spaces[1:], self.channels)]
        return make_ordered_process(self.order, state, links, validate=validate)

    def traces(self, op: Operator) -> np.ndarray:
        """Tr[op W_k] for every sample k, as one einsum of op^T with the
        pieces; the last party's output identity is a trace subscript."""
        pieces = [self.states, *self.channels]
        return _contract(Operator(op.space, op.mat.T), self.spaces, pieces, shared=True)


def random_ordered_batch(
    order: Sequence[Party],
    rng: np.random.Generator,
    n: int,
    n_kraus: int = 2,
) -> OrderedBatch:
    """n ordered processes with Haar-random states and random CPTP links.

    One rng.normal call draws all of them and consumes the generator exactly
    as n sequential random_ordered_process calls do: per sample, the real
    then imaginary Ginibre parts of the state, then of each link's isometry.
    QR with its phase fix, the Kraus -> Choi map and make_ordered_process's
    checks then run once on the whole (n, ...) stacks.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    order = tuple(order)
    links = list(zip(order, order[1:]))
    d0 = order[0].input_dim
    shapes = [(d0, d0)]
    for src, dst in links:
        if dst.input_dim * n_kraus < src.output_dim:
            raise ValueError("isometry needs d_to >= d_from")
        shapes.append((dst.input_dim * n_kraus, src.output_dim))
    sizes = [math.prod(sh) for sh in shapes]
    x = rng.normal(size=(n, 2 * sum(sizes)))
    g, at = [], 0
    for sh, size in zip(shapes, sizes):
        g.append((x[:, at:at + size] + 1j * x[:, at + size:at + 2 * size]).reshape((n,) + sh))
        at += 2 * size
    states = _ginibre_density(g[0])
    channels = tuple(
        _choi_stack(
            _haar_isometry(gk).reshape(n, n_kraus, dst.input_dim, src.output_dim),
            src.output_space, dst.input_space,
        )
        for gk, (src, dst) in zip(g[1:], links)
    )
    _check_pieces(order, states, channels)
    return OrderedBatch(order, states, channels)


def random_ordered_process(
    order: Sequence[Party],
    rng: np.random.Generator,
    n_kraus: int = 2,
    validate: bool = False,
) -> ProcessMatrix:
    """Ordered process with a Haar-random state and random CPTP links: the
    n = 1 case of random_ordered_batch."""
    return random_ordered_batch(order, rng, 1, n_kraus).process(0, validate=validate)

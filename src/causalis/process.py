"""Process matrices: validity certification, fixed-order construction,
the quantum switch, interference decomposition, density-matrix reduction.

A process matrix W is a Hermitian operator over all parties' input and
output factors. It is valid when it is positive semidefinite and yields
unit total probability for every choice of local CPTP instruments
(Oreshkov, Costa & Brukner, Nat. Commun. 3, 1092 (2012)).

The linear half is one mask over W's coefficients c in the product
Hermitian basis (`tensor_core._CoeffBasis`, identity first on every
factor), read off one per-party table of non-identity indices
(`_party_moves`, which also gives the order cones in `separability`). A
term's pattern U is the set of parties with a nontrivial output whose
output index is not the identity. The term is forbidden iff U is nonempty
and every party with a non-identity input index lies in U. W lies
in the valid subspace (the projector L_V of Araujo et al., NJP 17, 102001
(2015)) iff Tr W = prod_k d_Ok and every forbidden coefficient is zero.
The check reads one residual per condition,

    r_0 = |Tr W / prod_k d_Ok - 1|,    r_U = w_U ||c_U||_2,
    w_U = prod_{k not in U} sqrt(d_Ik / d_Ok)  (over all parties),

and asks each to be <= lin_tol. The weight ties them to the spanning-set
form of the same condition: Tr[W C] = 1 for every tuple C = C_1 (x) ... (x) C_n of
elements C_k in {1_k / d_Ok, 1_k / d_Ok + g_Ik (x) g_Ok} (g_Ik and the
traceless g_Ok from orthonormal Hermitian bases). Expanding the product,

    Tr[W C] - 1 = (Tr W / prod_k d_Ok - 1) + sum_{V subset of S, V != {}} w_V <c_V, g_V>,

with S the parties holding a g term and g_V the unit-norm product of their
g's: every tuple residual is a signed sum of weighted pattern-V
coefficients, one direction per pattern. So |Tr[W C] - 1| <= r_0 + sum_V
r_V for every tuple, and a single forbidden term moves r_U exactly as much
as it moves the worst tuple residual.

The Born rule evaluates the multilinear functional T[k_1, ..., k_n] =
sum_ij W_ij (X_1[k_1] (x) ... (x) X_n[k_n])_ij on the per-party instrument
Choi stacks X_k (`instruments.born`). `_contract` evaluates it as a single
einsum whose subscripts follow the factor labels, so no tensor product is
ever formed.

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
    _CoeffBasis,
    _ginibre_density,
    _haar_isometry,
    _partial_trace,
    choi_vector,
    depolarize,
    identity,
    partial_trace,
    tensor,
    tensor_vectors,
)

PSD_TOL = 1e-10
LIN_TOL = 1e-9
LINK_KRAUS = 2  # Kraus operators per random link channel


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
    """A Hermitian operator over the spaces of parties with distinct names,
    plus a validity verdict that only `validate_process` writes: validity is
    "unchecked" (also after replace()), "valid" or "invalid", and reason
    holds the first violated condition (with residual) when invalid.
    """

    parties: tuple[Party, ...]
    w: HermitianOperator
    validity: str = field(default="unchecked", init=False)
    reason: str | None = field(default=None, init=False)
    # (eigenvalues of w, residuals by pattern) from _validity_sweep, kept so
    # that validity_report after validate_process does not sweep again;
    # replace() leaves it unset, so it never outlives the w it describes
    _sweep: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "parties", tuple(self.parties))
        names = [q.name for q in self.parties]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"party names must be distinct; repeated: "
                             f"{', '.join(map(repr, repeated))}")
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
# the Born and battery contraction

# np.einsum names axes by the letters a-z, A-Z, integer subscripts included
_EINSUM_SUBSCRIPTS = 52


def _contract(w: Operator, spaces: Sequence[SpaceProduct], stacks: Sequence[np.ndarray],
              shared: bool = False) -> np.ndarray:
    """T[k_1, ..., k_n] = sum_ij w_ij (X_1[k_1] (x) ... (x) X_n[k_n] (x) 1)_ij.

    Serves `instruments.born` (instrument Chois) and `OrderedBatch.traces`
    (the pieces of ordered samples, for the witness battery); validity
    reads coefficients instead.

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


# ---------------------------------------------------------------------------
# validity

@functools.lru_cache(maxsize=64)
def _party_moves(parties: tuple[Party, ...]):
    """(basis, moves): the basis is the `_CoeffBasis` of W's factors of dim > 1;
    dropping the trivial ones leaves the D x D matrix as it is and keeps the
    coefficient array to one axis per nontrivial factor. moves[k] = (inp,
    out) are read-only boolean arrays of the coefficient shape, true where
    an input (inp) or output (out) factor of parties[k] carries a
    non-identity index. Validity and the order cones read this table, and
    separability runs on this basis, one per party structure.
    """
    space = SpaceProduct(f for f in parties_space(parties).factors if f.dim > 1)
    basis = _CoeffBasis(space)
    kept = set(space.labels)

    def moved(labels):
        return np.broadcast_to(~basis._identity_on([lab for lab in labels if lab in kept]),
                               basis.shape)

    return basis, tuple((moved(q.input_labels), moved(q.output_labels)) for q in parties)


@functools.lru_cache(maxsize=64)
def _validity_patterns(parties: tuple[Party, ...]):
    """The valid subspace of a party structure as one pattern id per
    product-basis coefficient: (basis, ids, weights, names), over the basis
    of `_party_moves`.

    Number the parties with a nontrivial output 0, 1, ... A term's pattern U
    is the set of those whose output index is not the identity. The term is
    forbidden iff U is nonempty and every party with a non-identity input
    index lies in U; its id is then sum_{k in U} 2**k, and every other
    term's id is 0. ids is that read-only array, flattened; weights[U] =
    prod_{k not in U} sqrt(d_Ik / d_Ok) over all parties; names[U] joins U's
    output labels, sorted, with " (x) ".
    """
    basis, moves = _party_moves(parties)
    kept = set(basis.labels)
    movers = [q for q in parties if not q.trivial_output]
    pattern = np.zeros(basis.shape, dtype=np.intp)
    closed = np.ones(basis.shape, dtype=bool)
    mover_outs = [out for q, (_, out) in zip(parties, moves) if not q.trivial_output]
    for k, out in enumerate(mover_outs):
        pattern += out * (1 << k)
    for inp, out in moves:
        closed &= out | ~inp
    ids = np.where(closed, pattern, 0).ravel()
    ids.setflags(write=False)
    rates = [math.sqrt(q.input_dim / q.output_dim) for q in movers]
    full = math.prod(math.sqrt(q.input_dim / q.output_dim) for q in parties)
    patterns = range(1 << len(movers))
    weights = np.array([full / math.prod(r for k, r in enumerate(rates) if u >> k & 1)
                        for u in patterns])
    names = tuple(" (x) ".join(sorted(lab for k, q in enumerate(movers) if u >> k & 1
                                      for lab in q.output_labels if lab in kept))
                  for u in patterns)
    return basis, ids, weights, names


def _validity_sweep(p: ProcessMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of w and the residuals r[U] of `_validity_patterns`,
    computed once per ProcessMatrix: r[0] = |Tr w / prod d_O - 1| and, for
    each forbidden pattern U, r[U] = w_U * ||c_U||_2 over its coefficients
    c_U. One eigvalsh, one basis change and one bincount."""
    if p._sweep is None:
        basis, ids, weights, _ = _validity_patterns(p.parties)
        evals = np.linalg.eigvalsh(p.w.mat)
        c = basis.to_coeffs(p.w.mat).ravel()
        r = weights * np.sqrt(np.bincount(ids, weights=c * c, minlength=weights.size))
        r[0] = abs(p.w.trace().real / p.expected_trace - 1.0)
        object.__setattr__(p, "_sweep", (evals, r))
    return p._sweep


def validate_process(p: ProcessMatrix, psd_tol: float = PSD_TOL, lin_tol: float = LIN_TOL) -> ProcessMatrix:
    """A copy of p with its validity verdict, which nothing else writes.

    Valid means PSD (eigenvalues >= -psd_tol), then |Tr w / prod d_O - 1|
    <= lin_tol, then r_U = w_U * ||c_U||_2 <= lin_tol for every forbidden
    pattern U (see the module docstring). The first violated condition is
    recorded with its residual: the smallest eigenvalue, the trace, or the
    pattern with the largest residual, e.g. "normalization: signalling term
    on A_O (x) B_O (residual 2.0e-09)".
    """
    evals, r = _validity_sweep(p)
    *_, names = _validity_patterns(p.parties)
    u = 0 if r[0] > lin_tol else int(np.argmax(r))
    if evals[0] < -psd_tol:
        validity, reason = "invalid", f"positivity: min eigenvalue {evals[0]:.6e}"
    elif r[u] > lin_tol:
        validity = "invalid"
        what = (f"trace {p.w.trace().real:.12g} != {p.expected_trace}" if u == 0
                else f"signalling term on {names[u]}")
        reason = f"normalization: {what} (residual {r[u]:.6e})"
    else:
        validity, reason = "valid", None
    out = replace(p)
    for name, value in (("validity", validity), ("reason", reason), ("_sweep", p._sweep)):
        object.__setattr__(out, name, value)
    return out


def _require_valid(p: ProcessMatrix) -> ProcessMatrix:
    """p validated if unchecked; raises unless it is valid."""
    if p.validity == "unchecked":
        p = validate_process(p)
    if p.validity != "valid":
        raise ValueError(f"process is not valid: {p.reason}")
    return p


def validity_report(p: ProcessMatrix) -> dict:
    """Residuals of both validity conditions, without short-circuiting.

    Returns the smallest eigenvalue; max_normalization_residual, the largest
    of the trace residual and every pattern residual r_U; pattern_residuals,
    r_U by pattern name (the output labels of U); and the trace with its
    expected value prod d_O.
    """
    evals, r = _validity_sweep(p)
    *_, names = _validity_patterns(p.parties)
    return {
        "min_eigenvalue": float(evals[0]),
        "max_normalization_residual": float(r.max()),
        "pattern_residuals": {names[u]: float(r[u]) for u in range(1, r.size)},
        "trace": float(p.w.trace().real),
        "expected_trace": p.expected_trace,
    }


def validate_bipartite_closed_form(p: ProcessMatrix) -> bool:
    """Closed-form validity for two parties with nontrivial outputs.

    Checks PSD (eigenvalues >= -PSD_TOL), |Tr W / (d_AO*d_BO) - 1| <= LIN_TOL,
    and the three depolarize identities that characterize the bipartite
    valid subspace, each to LIN_TOL. Must agree with validate_process on
    every input.
    """
    if len(p.parties) != 2:
        raise ValueError("closed form is defined for exactly two parties")
    a, b = p.parties
    if a.trivial_output or b.trivial_output:
        raise ValueError("closed form requires nontrivial outputs for both parties")
    w = p.w
    evals = np.linalg.eigvalsh(w.mat)
    if evals[0] < -PSD_TOL:
        return False
    if abs(w.trace().real / (a.output_dim * b.output_dim) - 1.0) > LIN_TOL:
        return False
    ai, ao = set(a.input_labels), set(a.output_labels)
    bi, bo = set(b.input_labels), set(b.output_labels)
    c1 = depolarize(w, bi | bo) - depolarize(w, ao | bi | bo)
    c2 = depolarize(w, ai | ao) - depolarize(w, ai | ao | bo)
    c3 = w - (depolarize(w, bo) + depolarize(w, ao) - depolarize(w, ao | bo))
    return max(c1.norm(), c2.norm(), c3.norm()) <= LIN_TOL


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
    channels (one batched partial trace per link). Raises on the first
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
        marginal = _partial_trace(c, _link_space(src, dst).factors, set(dst.input_labels))
        dev = np.linalg.norm(marginal - np.eye(src.output_dim), axis=(1, 2))
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

    def process(self, k: int) -> ProcessMatrix:
        """Sample k as an unchecked ProcessMatrix, through make_ordered_process
        (`validate_process` checks it)."""
        spaces = self.spaces
        state = HermitianOperator(spaces[0], self.states[k])
        links = [HermitianOperator(s, c[k]) for s, c in zip(spaces[1:], self.channels)]
        return make_ordered_process(self.order, state, links, validate=False)

    def traces(self, op: Operator) -> np.ndarray:
        """Tr[op W_k] for every sample k, as one einsum of op^T with the
        pieces; the last party's output identity is a trace subscript."""
        pieces = [self.states, *self.channels]
        return _contract(Operator(op.space, op.mat.T), self.spaces, pieces, shared=True)


def random_ordered_batch(
    order: Sequence[Party],
    rng: np.random.Generator,
    n: int,
) -> OrderedBatch:
    """n ordered processes with Haar-random states and random CPTP links of
    LINK_KRAUS Kraus operators each.

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
        if dst.input_dim * LINK_KRAUS < src.output_dim:
            raise ValueError("isometry needs d_to >= d_from")
        shapes.append((dst.input_dim * LINK_KRAUS, src.output_dim))
    sizes = [math.prod(sh) for sh in shapes]
    x = rng.normal(size=(n, 2 * sum(sizes)))
    g, at = [], 0
    for sh, size in zip(shapes, sizes):
        g.append((x[:, at:at + size] + 1j * x[:, at + size:at + 2 * size]).reshape((n,) + sh))
        at += 2 * size
    states = _ginibre_density(g[0])
    channels = tuple(
        _choi_stack(
            _haar_isometry(gk).reshape(n, LINK_KRAUS, dst.input_dim, src.output_dim),
            src.output_space, dst.input_space,
        )
        for gk, (src, dst) in zip(g[1:], links)
    )
    _check_pieces(order, states, channels)
    return OrderedBatch(order, states, channels)


def random_ordered_process(
    order: Sequence[Party],
    rng: np.random.Generator,
) -> ProcessMatrix:
    """Ordered process with a Haar-random state and random CPTP links: the
    n = 1 case of random_ordered_batch, unchecked (`validate_process`
    checks it)."""
    return random_ordered_batch(order, rng, 1).process(0)

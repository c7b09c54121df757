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

The Born rule evaluates the multilinear functional T[k] = sum_ij W_ij
(X_1[k] (x) ... (x) X_n[k])_ij on per-party stacks X_k, with no tensor
product formed: `tensor_core._regroup` permutes W once so that axis k
holds stack k's (row, column) index pair, traces out the factors no stack
covers, and the sum becomes one matmul per stack, on the layout the
basis change also uses (`tensor_core._grouping`). `instruments.born`
runs that loop over the parties' Choi stacks, and `OrderedBatch.traces`
over an ordered sample's pieces, which share their sample axis.

An ordered process is kept as its pieces, a state stack and one Choi
stack per link, in an `OrderedBatch`. Building one checks it, once, and
keeps read-only symmetrised copies of the stacks over its `spaces`, so
`process(k)` assembles W from views into them with no piece checked
again. `random_ordered_batch` draws n samples (the single draw
`random_ordered_process` is its n = 1 case), and `make_ordered_process`
wraps its given pieces as a one-sample batch.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .tensor_core import (
    CHOI_PSD_TOL,
    HERM_TOL,
    TP_TOL,
    HermitianOperator,
    LabeledSpace,
    Operator,
    PureVector,
    SpaceProduct,
    _choi_stack,
    _check_count,
    _check_distinct,
    _check_tol,
    _checked_hermitian,
    _CoeffBasis,
    _cptp_defects,
    _ginibre_density,
    _grouping,
    _haar_isometry,
    _hermitian_defect,
    _regroup,
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

    ``space``, ``input_space`` and ``output_space`` are built once, here;
    building ``space`` is the check that every label is distinct
    ("duplicate space label 'A_I'"). So is the hash: tuples of parties key
    the per-structure caches, and hashing the name and factors anew costs
    every lookup. Equality still compares the fields. Unpickling calls
    __init__ again, so the hash follows the process's string hashing.
    """

    name: str
    inputs: tuple[LabeledSpace, ...]
    outputs: tuple[LabeledSpace, ...]

    def __init__(self, name: str, inputs, outputs):
        inputs = _as_factors(inputs)
        outputs = _as_factors(outputs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "space", SpaceProduct(inputs + outputs))
        object.__setattr__(self, "input_space", SpaceProduct(inputs))
        object.__setattr__(self, "output_space", SpaceProduct(outputs))
        object.__setattr__(self, "_hash", hash((name, inputs, outputs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Party, (self.name, self.inputs, self.outputs)

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.inputs)

    @property
    def output_labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.outputs)

    @property
    def input_dim(self) -> int:
        return math.prod(f.dim for f in self.inputs)

    @property
    def output_dim(self) -> int:
        return math.prod(f.dim for f in self.outputs)

    @property
    def trivial_output(self) -> bool:
        return self.output_dim == 1


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
    # (eigenvalues of w, residuals by pattern, coefficients of w) from
    # _validity_sweep, kept so that validity_report after validate_process
    # does not sweep again and check_separability does not expand w again;
    # replace() leaves it unset, so it never outlives the w it describes
    _sweep: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "parties", tuple(self.parties))
        _check_distinct((q.name for q in self.parties), "party names")
        if self.w.space != parties_space(self.parties):
            raise ValueError(
                f"operator labels {self.w.space.labels} do not match the parties' spaces"
            )

    @property
    def expected_trace(self) -> int:
        return math.prod(p.output_dim for p in self.parties)


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


def _validity_sweep(p: ProcessMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of w, the residuals r[U] of `_validity_patterns` and w's
    real coefficients c over the basis of `_party_moves`, computed once per
    ProcessMatrix: r[0] = |Tr w / prod d_O - 1| and, for each forbidden
    pattern U, r[U] = w_U * ||c_U||_2 over its coefficients c_U. One
    eigvalsh, one basis change and one bincount."""
    if p._sweep is None:
        basis, ids, weights, _ = _validity_patterns(p.parties)
        evals = np.linalg.eigvalsh(p.w.mat)
        c = basis.to_coeffs(p.w.mat)
        flat = c.ravel()
        r = weights * np.sqrt(np.bincount(ids, weights=flat * flat, minlength=weights.size))
        r[0] = abs(p.w.trace().real / p.expected_trace - 1.0)
        object.__setattr__(p, "_sweep", (evals, r, c))
    return p._sweep


def _hermiticity_defect(w: Operator) -> float:
    """max |W - W^dag|: 0 for a HermitianOperator, symmetrised when built.
    eigvalsh reads one triangle and the coefficients keep the real part, so
    neither can see a non-Hermitian W; this check comes before both."""
    return 0.0 if isinstance(w, HermitianOperator) else _hermitian_defect(w.mat)


def validate_process(p: ProcessMatrix, psd_tol: float = PSD_TOL, lin_tol: float = LIN_TOL) -> ProcessMatrix:
    """A copy of p with its validity verdict, which nothing else writes.

    Valid means Hermitian (max |W - W^dag| <= HERM_TOL; a HermitianOperator
    is Hermitian by construction), then PSD (eigenvalues >= -psd_tol), then
    |Tr w / prod d_O - 1| <= lin_tol, then r_U = w_U * ||c_U||_2 <= lin_tol
    for every forbidden pattern U (see the module docstring). The first
    violated condition is recorded with its residual: the Hermiticity
    defect, the smallest eigenvalue, the trace, or the pattern with the
    largest residual, e.g. "normalization: signalling term on A_O (x) B_O
    (residual 2.0e-09)". psd_tol and lin_tol must be finite and > 0. The
    copy is shallow and skips the constructor's checks, which p has passed.
    """
    _check_tol("psd_tol", psd_tol)
    _check_tol("lin_tol", lin_tol)
    defect = _hermiticity_defect(p.w)
    evals, r, _ = _validity_sweep(p)
    *_, names = _validity_patterns(p.parties)
    u = 0 if r[0] > lin_tol else int(np.argmax(r))
    if defect > HERM_TOL:
        validity, reason = "invalid", f"hermiticity: max |W - W^dag| = {defect:.1e}"
    elif evals[0] < -psd_tol:
        validity, reason = "invalid", f"positivity: min eigenvalue {evals[0]:.6e}"
    elif r[u] > lin_tol:
        validity = "invalid"
        what = (f"trace {p.w.trace().real:.12g} != {p.expected_trace}" if u == 0
                else f"signalling term on {names[u]}")
        reason = f"normalization: {what} (residual {r[u]:.6e})"
    else:
        validity, reason = "valid", None
    out = copy.copy(p)  # carries p's _sweep
    for name, value in (("validity", validity), ("reason", reason)):
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
    """Residuals of every validity condition, without short-circuiting.

    Returns hermiticity_defect, max |W - W^dag| (0.0 for a
    HermitianOperator; the numbers after it read one triangle and the real
    part, so only this one shows a non-Hermitian W); the smallest
    eigenvalue; max_normalization_residual, the largest of the trace
    residual and every pattern residual r_U; pattern_residuals, r_U by
    pattern name (the output labels of U); and the trace with its expected
    value prod d_O.
    """
    evals, r, _ = _validity_sweep(p)
    *_, names = _validity_patterns(p.parties)
    return {
        "hermiticity_defect": _hermiticity_defect(p.w),
        "min_eigenvalue": float(evals[0]),
        "max_normalization_residual": float(r.max()),
        "pattern_residuals": {names[u]: float(r[u]) for u in range(1, r.size)},
        "trace": float(p.w.trace().real),
        "expected_trace": p.expected_trace,
    }


def validate_bipartite_closed_form(p: ProcessMatrix) -> bool:
    """Closed-form validity for two parties with nontrivial outputs.

    Checks Hermiticity (max |W - W^dag| <= HERM_TOL), PSD (eigenvalues >=
    -PSD_TOL), |Tr W / (d_AO*d_BO) - 1| <= LIN_TOL, and the three
    depolarize identities that characterize the bipartite valid subspace,
    each to LIN_TOL. Must agree with validate_process on every input.
    """
    if len(p.parties) != 2:
        raise ValueError("closed form is defined for exactly two parties")
    a, b = p.parties
    if a.trivial_output or b.trivial_output:
        raise ValueError("closed form requires nontrivial outputs for both parties")
    w = p.w
    if _hermiticity_defect(w) > HERM_TOL:
        return False
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
    the identity). An empty order is refused as `OrderedBatch` refuses
    it (`_check_order`). The labels are checked against the pieces' spaces
    (`_piece_spaces`), then the pieces form a one-sample `OrderedBatch`,
    whose constructor judges them as maps under the CHOI_PSD_TOL / TP_TOL
    policy that `Instrument` also applies, and W is its `process(0)`.
    """
    order = _check_order(order)
    if len(channels) != len(order) - 1:
        raise ValueError(f"expected {len(order) - 1} channels for {len(order)} parties")
    first, *links = _piece_spaces(order)
    if initial_state.space != first:
        raise ValueError("initial state must live on the first party's input space")
    for k, (ch, want) in enumerate(zip(channels, links)):
        if ch.space != want:
            raise ValueError(
                f"channel {k} labels {ch.space.labels} do not match {want.labels}"
            )
    batch = OrderedBatch(order, initial_state.mat[None], tuple(ch.mat[None] for ch in channels))
    pm = batch.process(0)
    return validate_process(pm) if validate else pm


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
    """Quantum switch process vector alpha |A < B> + beta |B < A>.

    Each branch is one ordered pure process: the target enters the first
    party's input, identity channels run first -> second and second ->
    F_t, and the control F_c holds |0> when A is first, |1> when B is.
    Requires |alpha|^2 + |beta|^2 = 1 and a normalized target state.
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

    def branch(first, second, c):
        return tensor_vectors(
            PureVector(s[f"{first}_I"], psi),
            choi_vector(eye, s[f"{first}_O"], s[f"{second}_I"]),
            choi_vector(eye, s[f"{second}_O"], s["F_t"]),
            PureVector(s["F_c"], np.eye(2, dtype=complex)[c]),
            PureVector(s["F_O"], [1.0]),
        )

    v = alpha * branch("A", "B", 0) + beta * branch("B", "A", 1)
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
    t = qs.v.vec.reshape(space.dims)
    # the control index, broadcast along the F_c axis of t
    control = np.arange(t.shape[idx]).reshape((-1,) + (1,) * (t.ndim - idx - 1))
    p0, p1 = (np.where(control == c, t, 0) for c in (0, 1))
    n0, n1 = np.linalg.norm(p0), np.linalg.norm(p1)
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


def _check_order(order) -> tuple[Party, ...]:
    """An ordered process's parties as a tuple: at least one of them."""
    order = tuple(order)
    if not order:
        raise ValueError("an ordered process needs at least one party")
    return order


def _piece_spaces(order: tuple[Party, ...]) -> tuple[SpaceProduct, ...]:
    """The spaces of an ordered process's pieces: the first party's input,
    then each link's Choi space, party j's output (x) party j+1's input."""
    links = (SpaceProduct(a.outputs + b.inputs) for a, b in zip(order, order[1:]))
    return (order[0].input_space, *links)


@dataclass(frozen=True, eq=False)
class OrderedBatch:
    """n processes with the definite order order[0] < order[1] < ..., kept
    as their pieces: W_k = states[k] (x) channels[0][k] (x) ... (x) 1, the
    identity on the last party's output. No (n, D, D) stack is formed. The
    one home of an ordered process's pieces: `random_ordered_batch` draws
    n samples and `make_ordered_process` builds one.

    states has shape (n, d, d) over the first party's input space and
    channels[j] shape (n, e, e) over the Choi space of link j (party j's
    output (x) party j+1's input), each in canonical label order; those
    are ``spaces`` (`_piece_spaces`). Building a batch checks it: at least
    one party (`_check_order`); one link per adjacent pair of parties; each
    stack finite, Hermitian within HERM_TOL and of its space's shape
    (`_checked_hermitian`, which keeps a read-only symmetrised copy); one
    sample count n >= 1 for every piece;
    then, by `_cptp_defects` under the CHOI_PSD_TOL / TP_TOL policy, PSD
    then unit-trace states (maps from a trivial input) and CP then TP
    channels. The first violated condition raises, naming the worst sample
    when n > 1.
    """

    order: tuple[Party, ...]
    states: np.ndarray
    channels: tuple[np.ndarray, ...]
    spaces: tuple[SpaceProduct, ...] = field(init=False, repr=False)

    def __post_init__(self):
        order, channels = _check_order(self.order), tuple(self.channels)
        if len(channels) != len(order) - 1:
            raise ValueError(f"expected {len(order) - 1} channels for {len(order)} parties")
        spaces = _piece_spaces(order)
        states, *channels = (_checked_hermitian(s, x, ndim=3)[1]
                             for s, x in zip(spaces, (self.states, *channels)))
        n = states.shape[0]
        _check_count("batch samples", n, 1)
        for k, c in enumerate(channels):
            if c.shape[0] != n:
                raise ValueError(f"channel {k} has {c.shape[0]} samples, the states {n}")

        def at(i):
            return f" (sample {i})" if n > 1 else ""

        first, *links = spaces
        low, dev = _cptp_defects(states[:, None], first.factors, first.labels, 1)
        i = int(np.argmin(low))
        if low[i] < -CHOI_PSD_TOL:
            raise ValueError(f"initial state is not positive semidefinite{at(i)}")
        i = int(np.argmax(dev))
        if dev[i] > TP_TOL:
            raise ValueError(f"initial state trace {np.trace(states[i]).real:.12g} != 1{at(i)}")
        for k, (c, space) in enumerate(zip(channels, links)):
            src, dst = order[k], order[k + 1]
            low, dev = _cptp_defects(c[:, None], space.factors, dst.input_labels, src.output_dim)
            i = int(np.argmin(low))
            if low[i] < -CHOI_PSD_TOL:
                raise ValueError(f"channel {k} is not completely positive{at(i)}")
            i = int(np.argmax(dev))
            if dev[i] > TP_TOL:
                raise ValueError(
                    f"channel {k} is not trace-preserving: |Tr_out C - 1| = {dev[i]:.3e}{at(i)}"
                )
        for name, value in (("order", order), ("states", states),
                            ("channels", tuple(channels)), ("spaces", spaces)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.states.shape[0]

    def process(self, k: int) -> ProcessMatrix:
        """Sample k as an unchecked ProcessMatrix (`validate_process` checks
        it): W = state (x) links (x) 1, the one place an ordered process is
        assembled. The pieces are read-only views into the checked stacks,
        so only the product and the identity are built as operators."""
        pieces = (self.states, *self.channels)
        views = [HermitianOperator._view(s, x[k]) for s, x in zip(self.spaces, pieces)]
        return ProcessMatrix(self.order, tensor(*views, identity(self.order[-1].output_space)))

    def traces(self, op: Operator) -> np.ndarray:
        """Tr[op W_k] for every sample k: op^T regrouped once (`_regroup`,
        which traces it over the last party's output), then one matmul per
        piece. The largest piece goes first, as one (n, e**2) @ (e**2, rest)
        GEMM, so no intermediate outgrows (n, rest); each further piece is
        one batched (n, 1, e**2) @ (n, e**2, rest') matmul."""
        pieces = [self.states, *self.channels]
        order = sorted(range(len(pieces)), key=lambda k: -pieces[k].shape[-1])
        spaces = self.spaces
        t = _regroup(op.mat.T, _grouping(op.space, tuple(spaces[k] for k in order)))
        n, sizes = len(self), t.shape[1:]
        t = pieces[order[0]].reshape(n, sizes[0]) @ t.reshape(sizes[0], -1)
        for k, e in zip(order[1:], sizes[1:]):
            t = np.matmul(pieces[k].reshape(n, 1, e), t.reshape(n, e, -1))
        return t.reshape(n)


def random_ordered_batch(
    order: Sequence[Party],
    rng: np.random.Generator,
    n: int,
) -> OrderedBatch:
    """n ordered processes with Haar-random states and random CPTP links of
    LINK_KRAUS Kraus operators each. A link from an output of dim d_out to
    an input of dim d_in takes ceil(d_out / d_in) instead when that is
    more, the fewest for which its (k d_in x d_out) isometry exists; every
    other link draws as it does with LINK_KRAUS.

    One rng.normal call draws all of them and consumes the generator exactly
    as n sequential random_ordered_process calls do: per sample, the real
    then imaginary Ginibre parts of the state, then of each link's isometry.
    QR with its phase fix, the Kraus -> Choi map and make_ordered_process's
    checks (the `OrderedBatch` constructor's) then run once on the whole
    (n, ...) stacks. n must be an integer >= 1 and the order non-empty,
    both checked before the draw.
    """
    _check_count("n", n, 1)
    order = _check_order(order)
    links = list(zip(order, order[1:]))
    d0 = order[0].input_dim
    shapes = [(d0, d0)]
    kraus = [max(LINK_KRAUS, -(-src.output_dim // dst.input_dim)) for src, dst in links]
    for (src, dst), k in zip(links, kraus):
        shapes.append((dst.input_dim * k, src.output_dim))
    sizes = [math.prod(sh) for sh in shapes]
    x = rng.normal(size=(n, 2 * sum(sizes)))
    g, at = [], 0
    for sh, size in zip(shapes, sizes):
        g.append((x[:, at:at + size] + 1j * x[:, at + size:at + 2 * size]).reshape((n,) + sh))
        at += 2 * size
    states = _ginibre_density(g[0])
    channels = tuple(
        _choi_stack(
            _haar_isometry(gk).reshape(n, k, dst.input_dim, src.output_dim),
            src.output_space, dst.input_space,
        )
        for gk, k, (src, dst) in zip(g[1:], kraus, links)
    )
    return OrderedBatch(order, states, channels)


def random_ordered_process(
    order: Sequence[Party],
    rng: np.random.Generator,
) -> ProcessMatrix:
    """Ordered process with a Haar-random state and random CPTP links: the
    n = 1 case of random_ordered_batch, unchecked (`validate_process`
    checks it)."""
    return random_ordered_batch(order, rng, 1).process(0)

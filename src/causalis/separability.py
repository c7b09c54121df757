"""Causal separability: order cones, convex feasibility, witness extraction.

A process is separable against a list of K total orders when it splits as
W = W_1 + ... + W_K with each summand PSD and inside its order's linear
subspace (no signalling to earlier parties), i.e. when it is a mixture of
processes with those fixed orders. Feasibility is decided by Dykstra's
alternating projections on the K summands. A failed run is called
nonseparable only when a witness S read off the run's dual variable scores
W below the bound it sets on every mixture of the orders: one eigvalsh of
its K order projections gives their smallest eigenvalue μ, and Tr[S X] >=
μ Tr W for every such mixture X. A fixed battery of ordered processes
(BATTERY per order, drawn from default_rng(BATTERY_SEED)) is checked against
the same bound.

What the verdict means depends on the parties. With two parties that have
a nontrivial output (the switch included, F last), a mixture of fixed
orders is exactly causal separability. With three or more, "separable"
still implies causal separability, but "nonseparable" only excludes
mixtures of fixed orders: orders that depend on earlier outcomes (dynamical
orders) are not tested (Wechs, Abbott & Branciard, NJP 21, 013027 (2019)).

All projections run in coefficient space (`tensor_core._CoeffBasis`, the
engine validity also reads): operators are expanded over the product of
per-factor orthonormal Hermitian bases (identity direction first). An
order gives each coefficient a pattern id (`_cone_ids`, read off the
per-party table validity uses), its projector is the mask ids == 0, the
affine projection has a closed form on each coefficient, and an order
cone's residual is the largest per-id norm, one bincount. The basis change
is one GEMM per group of adjacent factors (two for balanced spaces), and
Dykstra carries the summands as one flat (K, N) stack. Its PSD step
(`_psd_step`) is built once per run, so an iteration takes each group to
matrices and back once, with at most one batched eigh per group: one
group on a face, and on the whole cone one per reduced size (each order's
step runs on a D/d x D/d operator; see below). A group goes to matrices
and back through a precomputed real map where its map is small, and
through the basis change otherwise. A batched Cholesky first tests whether
the groups' stacks are positive definite, and if they are, the projection
clips nothing and needs no eigh.

What does not depend on W is set up once. Per party structure: the basis
with its group transforms, factor layout (`tensor_core._grouping`) and
GEMM shapes, for any leading (K, ...) axes (`_party_moves`,
`_CoeffBasis`), and the pattern ids (`_cone_ids`). Per party structure
and list of orders, one `_OrderSet` (`_order_set`): it checks the orders
and holds their cones, the basis, the read-only masks and the affine
step's shares, and builds on first use the whole-cone step's groups
(reduced bases, gather positions and maps, read off the masks) and the
witness battery, so a call that only runs on a face builds no groups.
The runs, the witness and the certificate's components and q all read
that one object. Once per process: W's coefficients, the basis change
its validation made (`process._validity_sweep`), shared by the closed
form, the face run, its whole-cone retry and the witness of each failed
run (`extract_witness`), and W's rank, read off the eigenvalues that
validation computed. Once per call: V, from one eigh of W, only when
1 < r < D. Once per run: its face map
on a face, and the PSD step, which settles each group's path (map GEMM,
basis change, or V's compression around it over FACE_MAP_CAP), its
gather positions and its buffers, with the scatter target zeroed once;
and the run's flat (K, N) stacks b, q, a and c, which every iteration
reuses.
Per iteration: the affine step, one masked subtraction on the last PSD
stack (the affine set takes no Dykstra correction; see `_dykstra`), one
gather, GEMM or basis change each way around the Cholesky gate or eigh
(none back when the step leaves a whole-cone stack as it is), one
scatter, and the residual. The ufuncs and map GEMMs write into the
buffers with out=, operation for operation as with new arrays, so no
rounding moves; eigh, the gate and a basis change still allocate their
results. The face map
(`_face_maps`, built before a face run's first step from one basis
change) is a real (N, 2r²) array fwd, N = D², with c @ fwd viewed as
complex equal to V† M(c) V, and an r x r stack's float view times fwd.T
equal to the coefficients of V X V†, so a face step costs one GEMM each
way around the (K, r, r) Cholesky gate or eigh, and nothing leaves the
face's coordinates. A face whose map would hold more than FACE_MAP_CAP
floats changes basis around each step instead, with four face products
(V† M V, then V X V†, or V U and (V U) e (V U)† after eigh). A
whole-cone group's map is the same builder's array with V = 1, built
once per order set for groups of at most 13 x 13, where it beats the
basis change; larger groups keep the basis change.

On the whole cone each order's step runs on a reduced operator
(`_OrderSet.groups`). A process of a fixed total order
carries the identity on its last party's output, W = W' ⊗ 1 (Araújo et
al., NJP 17, 102001 (2015)): order i's mask allows only index 0 on those
factors, its identity axes, so the affine step's output lies in S_i =
{Y ⊗ 1_d} with exact zeros off it, d the product of their dims. q starts
at 0 and P_psd(Y ⊗ 1_d) = P_psd(Y) ⊗ 1_d, so every input of the PSD step
lies in S_i and the step is exact on Y: per iteration one gather of the
(K, ...) reduced coefficients, one map GEMM or basis change to (K, D/d,
D/d), the gate or eigh, one back and one scatter into zeros. The
identity axes are read off the masks, with no rule for any party;
orders whose reduced sizes differ take one stack per size. An order with
a trivial last output (the switch's F) has no identity axis and keeps
the D x D operator. When no order has one, the one group is the whole
stack, which the step reads and writes as it is, with no gather or
scatter: the full switch's case, whose 64 x 64 group keeps its basis
change. A face run (V X V† is not of the form Y ⊗ 1) is that whole-stack
group through its face map, or compressed by V when the map is over the
cap: V† M V in, V P_psd(·) V† out, and the compression when the gate
passes.

Dykstra runs on the face of the PSD cone that W spans. Every PSD summand
has W_i ⪯ W, so W_i = V X_i V† with V (D x r) an orthonormal basis of
range(W) and X_i ⪰ 0; projecting onto that face is V P_psd(V† M V) V†, so
the batched Cholesky and eigh are (K, r, r), and the feasible set, the
affine step, the stall test and the full-space residual are those of the
whole cone. Most processes are rank-deficient (the traced switch has rank 4
of 16, a pure process rank 1), and the face removes the degeneracy that
slows the run on the whole cone (Borwein & Wolkowicz, J. Math. Anal. Appl.
83, 495 (1981)). When r = D the run is the whole-cone run. When a face run
neither converges nor yields a certified witness, the same run on the whole
cone decides instead. At r = 1 (a pure process) no face run is made: each
W_i is c_i W, so W is separable iff it lies in some order's subspace, a
linear fact decided in closed form (`_pure_decomposition`), and otherwise
the whole-cone run decides. The run record keeps one (K, ...) coefficient
stack: the masked summands when it converged (the certificate's components
and q are read off them), and the dual variable otherwise. A separable
verdict is checked on that stack, with no operator built per component:
one basis change back gives the (K, D, D) components, whose sum is
compared with W, whose coefficients (one batched basis change) give the
order-cone residuals through the bincount of `order_cone_residual`, and
whose smallest eigenvalues come from one eigvalsh.

The witness battery draws each order's samples in one batch
(`process.random_ordered_batch`, consuming the generator exactly as
sequential `random_ordered_process` calls do), once per order set
(`_OrderSet.battery`), and each call scores all of them with one
contraction of S against the samples' pieces per order
(`process.OrderedBatch.traces`: S regrouped once by
`tensor_core._regroup`, as the basis change regroups, then one matmul per
piece), so no per-sample process matrix is formed; mixtures are scored by
linearity.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .process import (
    Party,
    ProcessMatrix,
    _party_moves,
    _require_valid,
    _validity_sweep,
    random_ordered_batch,
)
from .tensor_core import (
    HermitianOperator,
    LabeledSpace,
    SpaceProduct,
    _check_count,
    _check_tol,
    _checked_hermitian,
    _CoeffBasis,
)

SEP_TOL = 1e-7
MAX_ITERS = 20000
BATTERY = 500  # witness-battery samples per order, and mixtures
BATTERY_SEED = 7  # the witness battery's default_rng seed
STALL_WINDOW = 500
STALL_REL = 1e-12
STALL_CHECK_EVERY = 50
FACE_MAP_CAP = 2**21  # floats a face run's map may hold (16 MB); see _face_maps


# ---------------------------------------------------------------------------
# order cones

@dataclass(frozen=True)
class OrderCone:
    """Processes compatible with one total order of the parties.

    Membership means: valid, and no party signals to the parties before it.
    In W's product Hermitian basis a term is forbidden iff the last party
    (in this order) with a non-identity index has a non-identity output
    index; see `_cone_ids`. A party with a trivial (one-dimensional) output
    forbids nothing of its own.
    """

    order: tuple[str, ...]

    def __init__(self, order):
        object.__setattr__(self, "order", tuple(order))


@functools.lru_cache(maxsize=64)
def _cone_ids(parties: tuple[Party, ...], order: tuple[str, ...]) -> np.ndarray:
    """One pattern id per coefficient of W over the basis of
    `_party_moves` (read-only, of its coefficient shape): k + 1 when
    order[k] is the last party with a non-identity index and that index
    includes its output, else 0. Class k + 1 is what D_S - D_{S+o} keeps, S
    the factors after order[k] and o its output (Araujo et al., NJP 17,
    102001 (2015)), so the order subspace spans the id-0 terms.
    """
    by_name = {q.name: k for k, q in enumerate(parties)}
    if sorted(order) != sorted(by_name):
        raise ValueError(f"order {order} does not cover the parties "
                         f"{tuple(sorted(by_name))}")
    basis, moves = _party_moves(parties)
    ids = np.zeros(basis.shape, dtype=np.intp)
    later_identity = np.ones(basis.shape, dtype=bool)
    for k in reversed(range(len(order))):
        inp, out = moves[by_name[order[k]]]
        ids[later_identity & out] = k + 1
        later_identity &= ~(inp | out)
    ids.setflags(write=False)
    return ids


def _cone_residual(parties: tuple[Party, ...], order: tuple[str, ...], c: np.ndarray) -> float:
    """The largest norm of the complex coefficients c, of the coefficient
    shape of `_cone_ids`, over one nonzero id: one bincount."""
    bins = np.bincount(_cone_ids(parties, order).ravel(), weights=np.abs(c.ravel()) ** 2,
                       minlength=len(order) + 1)
    return float(np.sqrt(bins[1:].max(initial=0.0)))


def order_cone_residual(p: ProcessMatrix, cone: OrderCone) -> float:
    """Largest Frobenius violation of the cone's linear conditions: the
    largest norm of W's complex coefficients over one nonzero id, i.e. of
    D_S(W) - D_{S+o}(W), as the basis is orthonormal. W may be non-Hermitian."""
    return _cone_residual(p.parties, cone.order, _party_moves(p.parties)[0].coeffs(p.w.mat))


@dataclass(frozen=True, eq=False)
class _OrderSet:
    """What K orders of the parties fix before any W, built once per
    (parties, orders) by `_order_set`: the orders' ``cones``, the
    ``basis`` of `_party_moves`, the (K, ...) float ``masks`` m of the
    order subspaces (ids == 0 of `_cone_ids`) and the affine step's
    ``share`` m / max(n, 1), n how many orders allow each coefficient: 1/n
    on the orders that allow it and 0 on the rest, so share.any(axis=0)
    marks the coefficients inside the sum of the subspaces. Both are
    read-only. The whole-cone step's ``groups`` and the witness
    ``battery`` are built on first use and kept."""

    parties: tuple[Party, ...]
    cones: tuple[OrderCone, ...]
    basis: _CoeffBasis
    masks: np.ndarray
    share: np.ndarray

    @functools.cached_property
    def groups(self):
        """The groups of the whole-cone PSD step: ((basis, orders, at,
        fwd), ...), one per reduced shape, every array read-only.

        Order i's identity axes are the coefficient axes (of size > 1) on
        which m_i is zero off index 0. For a total order they are its last
        party's output factors, unless that output is trivial. Operators
        whose coefficients vanish off index 0 there are S_i = {Y ⊗ 1_d}, d
        the product of those factors' dims, and Y's coefficients over the
        product basis of the kept factors are those of Y ⊗ 1_d at index 0,
        divided by sqrt(d). ``at`` holds the positions in the flattened (K,
        ...) stack of each of the group's orders' reduced coefficients, so
        c.take(at) is the group's reduced stack. A group's basis is that of
        its first order's kept factors, grouped under the full basis's cap
        D (`_CoeffBasis`): a reduced qubit space has an odd number of
        factors, which the reduced D would split into three GEMMs where D
        splits it into two. It depends on the kept dims only, so it serves
        every order of its shape. An order with no identity axis keeps the
        full basis; when no order has one, the one group is the whole stack
        and ``at`` is None: nothing is gathered or scattered.

        ``fwd`` is the group's map, `_face_maps` with V = 1 (row k the
        float view of B_k), or None when it would hold more than 2^16
        floats (0.5 MB, d = 13), the one limit of the whole-cone maps. Both
        GEMMs read the whole map, so a step through it costs about 45 µs
        per MB (one BLAS thread, K = 2, both directions), against 18 to 35
        µs for the basis change of d = 8 to 18: the map won at d = 12 (0.33
        MB, 14.8 against 22.2 µs) and lost from d = 16 on (1 MB, 44.9
        against 25.4 µs; 40 times the time at d = 32). Larger groups, the
        full switch's 64 x 64 among them, keep the basis change."""
        shape = self.basis.shape
        flat = np.arange(self.masks.size).reshape(self.masks.shape)
        dropped = [[j for j, n in enumerate(shape) if n > 1 and not np.moveaxis(m, j, 0)[1:].any()]
                   for m in self.masks]
        groups = {}
        for i, axes in enumerate(dropped):
            kept = [j for j in range(len(shape)) if j not in axes]
            dims = tuple(math.isqrt(shape[j]) for j in kept)
            index = tuple(0 if j in axes else slice(None) for j in range(len(shape)))
            groups.setdefault(dims, (kept, []))[1].append((i, flat[(i, *index)]))
        out = []
        for dims, (kept, rows) in groups.items():
            at = np.stack([a for _, a in rows])
            at.setflags(write=False)
            space = SpaceProduct(LabeledSpace(self.basis.labels[j], d) for j, d in zip(kept, dims))
            rbasis = _CoeffBasis(space, self.basis.dim)
            fwd = _face_maps(rbasis, np.eye(rbasis.dim)) if 2 * rbasis.dim**4 <= 2**16 else None
            out.append((rbasis, tuple(i for i, _ in rows), at if any(dropped) else None, fwd))
        return tuple(out)

    @functools.cached_property
    def battery(self):
        """The witness battery of `extract_witness`, which depends on
        neither W nor S: (one `random_ordered_batch` of BATTERY samples per
        order, one array of BATTERY sample indices per order, the (BATTERY,
        K) simplex weights of the mixtures), in that generator order from
        default_rng(BATTERY_SEED). Every array is read-only: the batches'
        by construction, the picks and weights frozen here."""
        rng = np.random.default_rng(BATTERY_SEED)
        by_name = {q.name: q for q in self.parties}
        batches = [random_ordered_batch([by_name[n] for n in c.order], rng, BATTERY)
                   for c in self.cones]
        picks = [rng.integers(0, BATTERY, size=BATTERY) for _ in self.cones]
        weights = rng.dirichlet(np.ones(len(self.cones)), size=BATTERY)
        for x in [weights, *picks]:
            x.setflags(write=False)
        return tuple(batches), tuple(picks), weights


@functools.lru_cache(maxsize=16)
def _order_set(parties: tuple[Party, ...], orders: tuple[OrderCone, ...]) -> _OrderSet:
    """The `_OrderSet` of ``orders``, a non-empty tuple of distinct order
    cones, each order checked to cover the parties (`_cone_ids`)."""
    if not orders or len(set(orders)) != len(orders):
        raise ValueError("separability is decided against a non-empty list of distinct orders")
    masks = np.stack([_cone_ids(parties, c.order) == 0 for c in orders]).astype(float)
    share = masks / np.maximum(masks.sum(axis=0), 1)
    for x in (masks, share):
        x.setflags(write=False)
    return _OrderSet(parties, orders, _party_moves(parties)[0], masks, share)


# ---------------------------------------------------------------------------
# feasibility

@dataclass(frozen=True, eq=False)
class FeasibilityTrace:
    """Raw outcome of one Dykstra run, or of the rank-1 closed form
    (`_pure_decomposition`, one residual); the certificate reads it. Both stacks
    are (K, ...) real coefficients over the product Hermitian basis of W's
    space (`hermitian_basis` per label-sorted factor, identity first), one
    entry per order, and exactly one of them is kept: ``summands``, the
    final PSD stack masked onto the order subspaces, when the run
    converged (for the closed form, the (K,) shares c_i of W instead: its
    summands are c_i m_i ⊙ wc, which the certificate rebuilds from W's
    coefficients, so it keeps no stack of its own), and otherwise
    ``dual``, the PSD-side correction with its sign flipped, y_i = -q_i,
    the dual variable that `extract_witness` builds its witness from (PSD
    for a whole-cone run; for a run on a face {V X V†}, only V† y_i V
    is). ``converged`` is read off which one is
    kept, and ``residual`` and ``iterations`` are the last entry and the
    length of ``residual_history``. ``eigh_steps`` counts the iterations
    whose PSD step ran eigh (`_GroupPlan.clip`); the others found the stack
    positive definite, which clips nothing (0 for the closed form).
    ``psd_dims`` gives, per order, the size of the matrices that the PSD
    step diagonalised, read off its groups: r on a face, D/d on the whole
    cone when order i carries the identity on factors of total dim d
    (`_OrderSet.groups`), D otherwise, and () for the closed form, which
    has no PSD step."""

    orders: tuple[OrderCone, ...]
    stalled: bool
    residual_history: np.ndarray
    perp: float
    summands: np.ndarray | None
    dual: np.ndarray | None
    eigh_steps: int
    psd_dims: tuple[int, ...]

    @property
    def converged(self) -> bool:
        return self.summands is not None

    @property
    def residual(self) -> float:
        return float(self.residual_history[-1])

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


@dataclass(frozen=True, eq=False)
class SeparabilityCertificate:
    """Verdict of check_separability on ``process``. It stores witness,
    diagnostics, the deciding run's ``trace`` and the ``process``; separable
    (the run converged), components, q, residual, iterations and
    witness_verified are read off them, so none can disagree with the run.

    When separable, ``components`` are the PSD summands of W, one per order
    (so the normalized order-cone members are components[i] scaled by 1/q_i,
    q_i = Tr components[i] / Tr W): read-only views into one (K, D, D)
    stack, rebuilt from ``trace.summands`` (from W and its shares for the
    closed form) and checked once on each access.
    They are not cached, so a certificate that a caller keeps holds only
    the real coefficient stack, not a complex (K, D, D) one beside it.
    q = q_0, clipped to [0, 1], is the first order's weight
    (None unless separable), read off one coefficient: the basis is
    orthonormal with the identity 1/sqrt(D) first, so Tr X = sqrt(D) c_0
    for X's identity coefficient c_0. Diagnostics carry the reconstruction
    error, the order-cone residuals and the smallest eigenvalue of each
    component, all recomputed from the summands, and the tol the residual
    fell below.
    When nonseparable, ``witness`` is a unit-norm Hermitian S with Tr[S X]
    >= μ Tr W for every mixture X of processes of the orders, μ the
    smallest of diagnostics["certificate_margins"] (one smallest eigenvalue
    of S's projection per order), and Tr[S W] below μ Tr W less a rounding
    allowance (the bound of `extract_witness`). Without a converged run or
    a certified witness the verdict is "undecided". A fixed battery of
    ordered processes and their simplex-uniform mixtures is checked against
    the same bound; diagnostics carry its size (BATTERY samples per order
    and as many mixtures: samples_per_order and n_mixtures), its seed
    (witness_seed, BATTERY_SEED) and its minimum.
    diagnostics["face_rank"] is the rank r of W whose face the run searched
    (r = D: the whole cone), and "face_iterations", present only when the
    face run was retried on the whole cone, is that face run's length. At
    r = 1 no face run is made, so "face_iterations" never appears; instead
    "order_distances" holds each order's Frobenius distance from W to its
    subspace, and the separable side is the closed form (one iteration).

    The decomposition, when it exists, identifies W with a probabilistic
    mixture of ordered processes; whether the mixture is proper (classical
    ignorance) or improper (reduction of a larger process) is not decidable
    from W, and this certificate does not attempt to distinguish the two.
    """

    witness: HermitianOperator | None
    diagnostics: dict
    trace: FeasibilityTrace
    process: ProcessMatrix

    @property
    def separable(self) -> bool:
        return self.trace.converged

    def _summands(self) -> np.ndarray | None:
        """The (K, ...) summand stack: the run's, or the closed form's c_i
        m_i ⊙ wc from its shares c (`_pure_decomposition`), wc the
        coefficients of W that validation kept."""
        s = self.trace.summands
        if s is None or s.ndim > 1:
            return s
        wc = _validity_sweep(self.process)[2]
        masks = _order_set(self.process.parties, tuple(self.trace.orders)).masks
        return masks * wc * s.reshape((-1,) + (1,) * wc.ndim)

    @property
    def components(self) -> tuple[HermitianOperator, ...] | None:
        s = self._summands()
        if s is None:
            return None
        basis = _party_moves(self.process.parties)[0]
        space, stack = _checked_hermitian(self.process.w.space, basis.from_coeffs(s), ndim=3)
        return tuple(HermitianOperator._view(space, m) for m in stack)

    @property
    def q(self) -> float | None:
        s, w = self._summands(), self.process.w
        return None if s is None else float(
            np.clip(math.sqrt(w.dim) * s[0].flat[0] / w.trace().real, 0.0, 1.0))

    @property
    def residual(self) -> float:
        return self.trace.residual

    @property
    def iterations(self) -> int:
        return self.trace.iterations

    @property
    def witness_verified(self) -> bool:
        return self.witness is not None

    @property
    def verdict(self) -> str:
        """Each verdict rests on its evidence: "separable" on a converged
        decomposition, "nonseparable" on a certified witness, and
        "undecided" otherwise (the run stalled or hit max_iters, and no
        witness was certified), so it shows neither answer. ``separable``
        is False for the last two."""
        if self.separable:
            return "separable"
        return "nonseparable" if self.witness_verified else "undecided"


def _default_orders(parties: tuple[Party, ...]) -> list[tuple[str, ...]]:
    """Every order of the sorted parties with a nontrivial output, followed
    by the trivial-output parties, which signal to no one."""
    last = tuple(sorted(p.name for p in parties if p.trivial_output))
    movers = sorted(p.name for p in parties if not p.trivial_output)
    return [order + last for order in itertools.permutations(movers)]


def _ranked(e: np.ndarray) -> np.ndarray:
    """Which of the ascending eigenvalues e of a D x D matrix count towards
    its numerical rank: those above D ε_mach λ_max, the threshold of
    `numpy.linalg.matrix_rank`."""
    return e > len(e) * np.finfo(float).eps * e[-1]


def _face(w: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis V (D x r) of range(W), or None when r = D.

    Every PSD summand has W_i ⪯ W, so range(W_i) ⊆ range(W) and W_i =
    V X_i V† with X_i ⪰ 0: every decomposition lies on the face {V X V† :
    X ⪰ 0} of the PSD cone. r counts the eigenvalues of W that `_ranked`
    keeps.
    The threshold sets speed, never soundness: a kept direction only
    enlarges the face, and a dropped one moves W off it by at most that
    eigenvalue, which the full-space residual still charges. Convergence
    still needs that residual below tol, a witness is still checked in the
    full space, and a run that gives neither is repeated on the whole cone
    (`check_separability`). At r = 1 the closed form measures its distances
    on the full W, so it charges a dropped eigenvalue too.
    """
    e, v = np.linalg.eigh(w)
    keep = _ranked(e)
    return None if keep.all() else v[:, keep]


def _positive_definite(x: np.ndarray) -> bool:
    """Whether one batched Cholesky accepts every item of a Hermitian stack.
    Cholesky is backward stable, so a stack it accepts is within a few r
    ε_mach ||x|| of a positive definite one (r its size): the gate of the
    PSD step drops no more than the rounding of eigh itself."""
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


class _GroupPlan:
    """One group's fixed path through a run's PSD step (`_psd_step`), for
    its n orders of s x s matrices, and the buffers that the path writes.
    ``at`` holds the gather positions as (n, N_g) flat indices into the
    (K, N) stack (None for the whole stack) and ``taken`` the gathered
    rows. With a map, ``x`` holds the (n, s, s) matrices that the forward
    GEMM writes into its float view ``xf``, the clipping overwrites with
    P_psd and the back GEMM reads, and ``y`` the back GEMM's rows. ``u``
    and ``p`` take the clipping's scaled eigenvectors U e and its product
    (U e) U†. On a face over the cap, ``lift`` holds V, V† and the (n, s,
    D) and (n, D, s) halves of the compression, U is V U and ``p`` is (n,
    D, D)."""

    def __init__(self, basis, orders, at, fwd, face):
        n, d = len(orders), basis.dim
        s = d if face is None else face.shape[1]
        self.basis, self.fwd, self.lift = basis, fwd, None
        self.at = None if at is None else at.reshape(n, -1)
        self.taken = None if at is None else np.empty(self.at.shape)
        if fwd is not None:
            self.fwd_t = fwd.T
            self.x = np.empty((n, s, s), dtype=complex)
            self.xf = self.x.reshape(n, -1).view(float)
            self.y = np.empty((n, fwd.shape[0]))
            self.u, self.p = np.empty_like(self.x), self.x
            return
        if face is not None:
            self.lift = (face, face.conj().T, np.empty((n, s, d), dtype=complex),
                         np.empty((n, d, s), dtype=complex))
            self.x = np.empty((n, s, s), dtype=complex)
        self.u = np.empty((n, d, s), dtype=complex)
        self.p = np.empty((n, d, d), dtype=complex)

    def forward(self, c: np.ndarray) -> np.ndarray:
        """The group's (n, s, s) matrices of the flat stack c."""
        # the positions are in range; mode "clip" writes straight into
        # ``taken``, where "raise" would go through a temporary
        x = c if self.at is None else np.take(c, self.at, out=self.taken, mode="clip")
        if self.fwd is not None:
            np.matmul(x, self.fwd, out=self.xf)
            return self.x
        m = self.basis.from_coeffs(x.reshape((len(x),) + self.basis.shape))
        if self.lift is None:
            return m
        v, vh, left, _ = self.lift
        return np.matmul(np.matmul(vh, m, out=left), v, out=self.x)

    def clip(self, x: np.ndarray) -> bool:
        """P_psd of each item of x into ``p``, from one batched eigh with its
        eigenvalues clipped at 0; whether one was negative."""
        e, u = np.linalg.eigh(x)
        clipped = bool(e[..., 0].min() < 0)
        np.maximum(e, 0, out=e)
        if self.lift is not None:
            u = np.matmul(self.lift[0], u, out=self.lift[3])
        np.multiply(u, e[..., None, :], out=self.u)
        np.matmul(self.u, np.conjugate(u, out=u).swapaxes(-1, -2), out=self.p)
        return clipped

    def back(self, x: np.ndarray, clipped: bool) -> np.ndarray:
        """The (n, N_g) coefficient rows of the step: of P_psd after
        ``clip``, else of x, compressed to V x V† on a face."""
        if self.fwd is not None:
            return np.matmul(self.xf, self.fwd_t, out=self.y)
        if clipped:
            x = self.p
        elif self.lift is not None:
            v, vh, _, right = self.lift
            x = np.matmul(np.matmul(v, x, out=right), vh, out=self.p)
        return self.basis.to_coeffs(x).reshape(len(x), -1)


def _psd_step(groups, shape: tuple[int, int], face: np.ndarray | None = None):
    """The PSD step of one run on flat (K, N) coefficient stacks, built
    once before its first iteration: step(c, gate) -> (projection,
    clipped), the nearest point of the PSD cone, or of its face {V X V† :
    X ⪰ 0} when ``face`` is V (`_face`), to each operator of c.

    Each group's path is settled here (`_GroupPlan`): its map fwd when it
    has one (one GEMM each way: `_face_maps`, with V = 1 on the whole cone
    and V on a face), else its basis change, compressed to V† M V on a
    face. Its gather positions, its buffers and the scatter target, zeroed
    once, are fixed too, so a call gathers, multiplies into the buffers,
    runs the gate or eigh and scatters. On the whole cone item i lies in
    S_i, and each group of `_OrderSet.groups` runs on its reduced stack.
    P_psd(Y ⊗ 1_d) = P_psd(Y) ⊗ 1_d, and P_psd is positively homogeneous,
    so the sqrt(d) in the reduced coefficients needs no rescaling and the
    step is the exact Frobenius projection. A face run has one group, the
    whole stack. When the gate passes (`_positive_definite` on every
    group's stack, unless ``gate`` is False), nothing is clipped: c is
    returned as given, or on a face the compression V (V† M V) V†, and
    clipped is None. Otherwise each group runs one batched eigh, clips at
    0 and goes back, on a face over the cap as (V U) e (V U)†; a group with
    gather positions is put into the zeros off S_i.

    The projection is one of the step's buffers, or c itself, so it is
    overwritten by the next call. np.linalg.eigh and np.linalg.cholesky
    are looked up at each call."""
    plans = [_GroupPlan(basis, orders, at, fwd, face) for basis, orders, at, fwd in groups]
    scatter = None if plans[0].at is None else np.zeros(shape)

    def step(c: np.ndarray, gate: bool = True) -> tuple[np.ndarray, bool | None]:
        xs = [plan.forward(c) for plan in plans]
        clipped = None
        if gate and all(map(_positive_definite, xs)):
            if face is None:
                return c, None
        else:
            clipped = any([plan.clip(x) for plan, x in zip(plans, xs)])
        for plan, x in zip(plans, xs):
            y = plan.back(x, clipped is not None)
            if plan.at is None:
                return y, clipped
            scatter.put(plan.at, y)
        return scatter, clipped

    return step


def _face_maps(basis: _CoeffBasis, face: np.ndarray) -> np.ndarray | None:
    """The face map of V (D x r), a real (N, 2r²) array fwd: for a real
    coefficient row c (N = D² entries), c @ fwd viewed as complex is the
    r x r matrix V† M(c) V, and for a Hermitian r x r matrix X, X's float
    view (2r² entries) times fwd.T is the real coefficient row of V X V†.
    None when it would hold more than FACE_MAP_CAP floats.

    Both follow from F_k(i, j) = v_i† B_k v_j = Tr[B_k v_j v_i†], the
    complex coefficients of the rank-1 operator v_j v_i†: (V† M V)_ij =
    sum_k c_k F_k(i, j), and Tr[B_k V X V†] = sum_ij Re(X_ij conj F_k(i, j)),
    which pairs the real and imaginary parts of X_ij with those of
    F_k(i, j). One `_CoeffBasis.coeffs` call expands the r(r+1)/2
    operators with i <= j; F(j, i) = conj F(i, j) fills the rest, and the
    diagonal is set real, so V† M V has an exactly real diagonal. fwd.T is
    a view, so the run holds 2 N r² floats. The array is read-only: a
    whole-cone group's map (V = 1) is shared by every run of its order set."""
    d, r = face.shape
    if 2 * d * d * r * r > FACE_MAP_CAP:
        return None
    i, j = np.triu_indices(r)
    f = basis.coeffs(face.T[j][:, :, None] * face.T[i].conj()[:, None, :])
    f = f.reshape(len(i), d * d).T
    maps = np.empty((d * d, r, r), dtype=complex)
    maps[:, i, j] = f
    maps[:, j, i] = f.conj()
    diag = np.arange(r)
    maps[:, diag, diag] = maps[:, diag, diag].real
    fwd = maps.view(float).reshape(d * d, 2 * r * r)
    fwd.setflags(write=False)
    return fwd


def _dykstra(order_set: _OrderSet, wc: np.ndarray, tol, max_iters, face=None):
    """Alternating projections on the summands x = (x_1, ..., x_K), held as
    one flat (K, N) coefficient stack, between the affine set {x_i in L_i,
    sum_i x_i = W_par} and the PSD product cone, or its face when ``face``
    is V (`_face`); returns the run's FeasibilityTrace. wc holds W's
    real coefficients, which `check_separability` expands once per call and
    shares between its runs, and ``order_set`` gives the basis, the masks m
    of the subspaces L_i and the shares m / n (`_OrderSet.share`).
    On a coefficient that n > 0 of the L_i allow, the affine step subtracts
    r/n from each of them, r the excess of their sum over W_par: one masked
    subtraction, t - r ⊙ share with t = m ⊙ b. The affine set takes no
    Dykstra correction. Its correction p = y - P(y) is normal to the set,
    and so is a sum of them, and adding a normal vector does not move the
    projection onto an affine set, so P(b + p) = P(b) in exact arithmetic
    (Bauschke & Borwein, J. Approx. Theory 79, 418 (1994)); each iteration
    projects b itself. Carrying p changes a run only by rounding, though
    rounding alone sets where a run that has reached rounding level
    stalls. The PSD cone is not affine and keeps its correction q. The reported residual sqrt(gap^2 +
    perp^2) also charges the part of W outside the sum of the subspaces,
    which no feasible stack can reproduce. The run stalls when, checked
    every STALL_CHECK_EVERY iterations, the residual has fallen by less
    than STALL_REL relative to its value STALL_WINDOW iterations back.

    The PSD step (`_psd_step`) is built once, before the first iteration,
    and the flat stacks b, q, a and c are allocated once. Each iteration
    writes them with ufuncs given out=, operation for operation as
    t = b ⊙ m, a = t - (t.sum(axis=0) - W_par) ⊙ share, c = a + q,
    b = P(c), q = c - b and gap = ||a - b|| would with new arrays
    (np.add.reduce with out= is sum bit for bit), so the buffers change no
    rounding. The trace's summands or dual are new (K, ...) arrays, sharing
    no memory with the buffers. On the whole cone each order's step runs on
    its reduced operator Y of S_i = {Y ⊗ 1_d} (`_OrderSet.groups`; the
    affine step keeps the masks' exact zeros, q starts at 0 and the step
    puts into zeros, so every PSD input lies in S_i, where P_psd(Y ⊗ 1_d) =
    P_psd(Y) ⊗ 1_d makes the reduced step exact), through the group's cached
    map where it has one. A face run is one whole-stack group, which builds
    its face map (`_face_maps`) once, before the first step, and takes every
    step through it; a face whose map would exceed FACE_MAP_CAP is
    compressed by V around each basis change instead. The step is gated: a
    Cholesky test comes first, and eigh runs only when the stack is not
    positive definite. After a step that clipped, the next one skips the
    test and goes straight to eigh, so a run that clips on every step pays
    for one test in all; ``eigh_steps`` counts the iterations that ran eigh,
    and ``psd_dims`` is read off the groups (r on a face)."""
    basis, shape = order_set.basis, order_set.masks.shape
    k = len(order_set.cones)
    m, share = order_set.masks.reshape(k, -1), order_set.share.reshape(k, -1)
    wc = wc.reshape(-1)
    wpar = wc * share.any(axis=0)
    perp = float(np.linalg.norm(wc - wpar))
    if face is None:
        groups = order_set.groups
    else:
        groups = ((basis, tuple(range(k)), None, _face_maps(basis, face)),)
    step = _psd_step(groups, m.shape, face)
    b = np.stack([wpar / k] * k)
    q = np.zeros_like(b)
    a, c, total = np.empty_like(b), np.empty_like(b), np.empty_like(wpar)
    gap_vec = a.reshape(-1)
    hist = []
    res = np.inf
    stalled = False
    clipped = None
    eigh_steps = 0
    for it in range(1, max_iters + 1):
        # a = t - (t.sum(axis=0) - wpar) * share with t = b * m, c = a + q;
        # b, the last projection, may be c or a buffer of the step, and is
        # read before either is written
        np.multiply(b, m, out=a)
        np.add.reduce(a, axis=0, out=total)
        np.subtract(total, wpar, out=total)
        np.subtract(a, np.multiply(total, share, out=c), out=a)
        np.add(a, q, out=c)
        b, clipped = step(c, not clipped)
        eigh_steps += clipped is not None
        np.subtract(c, b, out=q)
        np.subtract(a, b, out=a)
        gap = math.sqrt(gap_vec.dot(gap_vec))  # np.linalg.norm(a - b), bit for bit
        res = math.sqrt(gap ** 2 + perp ** 2)
        hist.append(res)
        if res < tol:
            break
        if it >= STALL_WINDOW and it % STALL_CHECK_EVERY == 0:
            old = hist[it - STALL_WINDOW]
            if (old - res) / max(old, 1e-300) < STALL_REL:
                stalled = True
                break
    converged = res < tol
    dims = {i: g.dim if face is None else face.shape[1] for g, orders, *_ in groups for i in orders}
    return FeasibilityTrace(orders=order_set.cones, stalled=stalled,
                            residual_history=np.asarray(hist), perp=perp,
                            summands=(b * m).reshape(shape) if converged else None,
                            dual=None if converged else (-q).reshape(shape),
                            eigh_steps=eigh_steps, psd_dims=tuple(dims[i] for i in range(k)))


def _pure_decomposition(order_set: _OrderSet, wc: np.ndarray, tol):
    """The separable side at rank 1, in closed form: (a converged
    FeasibilityTrace or None, the distances d_i). wc holds W's real
    coefficients, the expansion `check_separability` shares with its runs,
    and m the masks of ``order_set``. Every PSD summand has W_i ⪯ W, so at rank 1 W_i =
    c_i W, and W mixes the orders iff it lies in some order subspace L_i.
    d_i = ||(1 - m_i) ⊙ wc|| is the Frobenius distance from the full W to
    L_i, so an eigenvalue that `_face` dropped is still charged. The orders
    with d_i < tol hold W; the summands are m_i ⊙ wc / n on the n orders
    that hold it and 0 on the rest, an even split so that relabelling the
    parties maps q to 1 - q. The trace keeps only the shares c (1/n or 0
    per order), from which the certificate rebuilds the stack
    (`SeparabilityCertificate._summands`): a caller that keeps the
    certificate keeps no (K, N) stack, half of it zeros for two orders.
    The one residual, ||sum_i x_i - W||, is at most max d_i < tol. None
    when no order holds W: the ray {c W} then holds no feasible stack, and
    only a whole-cone run can yield a witness."""
    m = order_set.masks
    dist = np.linalg.norm(((1 - m) * wc).reshape(len(m), -1), axis=1)
    held = dist < tol
    if not held.any():
        return None, dist.tolist()
    shares = held / held.sum()
    res = np.linalg.norm((m * wc * shares.reshape((-1,) + (1,) * wc.ndim)).sum(axis=0) - wc)
    perp = float(np.linalg.norm(wc * ~order_set.share.any(axis=0)))
    return FeasibilityTrace(orders=order_set.cones, stalled=False, residual_history=np.array([res]),
                            perp=perp, summands=shares, dual=None,
                            eigh_steps=0, psd_dims=()), dist.tolist()


def check_separability(
    p: ProcessMatrix,
    orders=None,
    *,
    tol: float = SEP_TOL,
    max_iters: int = MAX_ITERS,
) -> SeparabilityCertificate:
    """Decide whether W mixes processes from the order cones of ``orders``,
    a non-empty list of distinct total orders of the parties (default: every
    order of the parties with a nontrivial output, trivial-output parties
    last; see the module docstring for what the verdict means).

    Runs Dykstra's algorithm on one summand per order, on the face of the
    PSD cone that W spans (`_face`), until the residual is below tol,
    stalls (see `_dykstra`) or has run max_iters iterations. Residual below
    tol means separable: the certificate carries the PSD summands (masked
    back onto their linear subspaces) and the weight q of the first order.
    Otherwise `extract_witness` looks for a witness certified by its own
    bound, which tol does not enter.
    When W is rank-deficient and the face run gives neither, the same run
    is repeated on the whole PSD cone and decides. When W has rank 1 the
    separable side is decided in closed form instead (`_pure_decomposition`:
    W, split evenly over the orders whose subspace holds it within tol),
    and the whole-cone run decides when no order holds W. The verdict is
    nonseparable with a witness and undecided without. max_iters must be
    an integer >= 1 and tol finite and > 0, both checked before any run.
    W is expanded in the coefficient basis once, by its validation, and
    the closed form and every run share that expansion; the rank r is read
    off validation's eigenvalues too, so `_face`'s eigh runs only when
    1 < r < D. A separable verdict is checked on the stack of summands (see
    the module docstring).
    """
    _check_count("max_iters", max_iters, 1)
    _check_tol("tol", tol)
    p = _require_valid(p)
    if orders is None:
        orders = _default_orders(p.parties)
    cones = tuple(o if isinstance(o, OrderCone) else OrderCone(o) for o in orders)
    order_set = _order_set(p.parties, cones)
    evals, _, wc = _validity_sweep(p)  # W's eigenvalues and expansion, made by validation

    def run(face):
        trace = _dykstra(order_set, wc, tol, max_iters, face)
        if trace.converged:
            return trace, None, {}
        return (trace, *extract_witness(p, trace))

    rank = int(np.count_nonzero(_ranked(evals)))
    face = _face(p.w.mat) if 1 < rank < p.w.dim else None
    diagnostics = {"face_rank": rank}
    if rank == 1:
        trace, diagnostics["order_distances"] = _pure_decomposition(order_set, wc, tol)
        trace, witness, wdiag = run(None) if trace is None else (trace, None, {})
    else:
        trace, witness, wdiag = run(face)
        if face is not None and not trace.converged and witness is None:
            diagnostics["face_iterations"] = trace.iterations
            trace, witness, wdiag = run(None)

    cert = SeparabilityCertificate(witness, diagnostics, trace, p)
    if cert.separable:
        comps = order_set.basis.from_coeffs(cert._summands())
        closed = " in closed form at rank 1" if rank == 1 else ""
        diagnostics.update({
            "verification": f"decomposition{closed}: reconstruction, order-cone residuals and "
                            "component eigenvalues",
            "tol": tol,
            "reconstruction": float(np.linalg.norm(comps.sum(axis=0) - p.w.mat)),
            "cone_residuals": [_cone_residual(p.parties, cone.order, c)
                               for c, cone in zip(order_set.basis.coeffs(comps), cones)],
            "component_min_eigenvalues": np.linalg.eigvalsh(comps)[:, 0].tolist(),
        })
    else:
        diagnostics.update({"verification": "witness: exact dual-cone check (eigvalsh margins "
                            "on every order subspace), seeded battery as cross-check", **wdiag})
    return cert


# ---------------------------------------------------------------------------
# witness extraction

def extract_witness(p: ProcessMatrix, trace: FeasibilityTrace):
    """Witness S in every K_i* (one per order of ``trace.orders``) from a
    failed feasibility run, certified by one bound and cross-checked by a
    fixed battery.

    K_i = PSD ∩ L_i is order i's cone and K_i* = PSD + L_i^⊥ its dual
    (Araújo et al., NJP 17, 102001 (2015)). In coefficient space S takes,
    on each coefficient, y_i = trace.dual[i] for the first order i whose
    L_i holds it, and -W where no L_i does, which every dual cone leaves
    free. X in K_i has Tr[S X] = Tr[P_i(S) X] >= λ_min(P_i S) Tr X (P_i the
    mask projection onto L_i), and the identity lies in every L_i, so S is
    shifted by min_i λ_min(P_i S) 1, the one coefficient sqrt(D) at the
    identity index of every factor, and normalised.

    Every valid X has Tr X = Tr W, so every mixture X of processes of the
    orders has Tr[S X] >= μ Tr W, μ the smallest recomputed margin
    λ_min(P_i S). S is accepted iff Tr[S W] < bound and the battery minimum
    (a fault detector) is >= bound, bound = μ Tr W - D² ε_mach Tr W. The
    second term allows for rounding, estimated rather than verified: Tr[S W]
    sums D² coefficient products, so it is off by at most about D² ε_mach
    ||S||_F ||W||_F <= D² ε_mach Tr W (||S||_F = 1, W PSD), and each margin,
    an eigvalsh of a matrix of norm <= 1, by a few D ε_mach. An all-zero S
    scores 0 against a negative bound and is rejected. Returns (witness or
    None, diagnostics). W's coefficients are the ones its validation kept
    (`process._validity_sweep`), so `check_separability`, which calls this
    for each failed run, does not expand W again.

    The battery, drawn from default_rng(BATTERY_SEED), scores BATTERY
    ordered processes per order, drawn as one `random_ordered_batch` per
    order, and as many mixtures: one draw of BATTERY sample indices per
    order, then one draw of all their weights, uniform on the simplex over
    the K orders (`Generator.dirichlet` with unit parameters); diagnostics
    report both counts and the seed (samples_per_order, n_mixtures,
    witness_seed). None of it depends on W or S, so it is drawn once per
    (parties, orders) and kept read-only (`_OrderSet.battery`); each call
    only scores it against S.
    The mixtures add no evidence: by linearity a mixture's score is a convex
    combination of its parts' scores, so it never falls below the smallest
    of them by more than one rounding, and the battery minimum is the
    per-order sample minimum. They stay as a cross-check of the scoring.
    """
    if trace.converged:
        raise ValueError("witness extraction requires a failed feasibility run")
    order_set = _order_set(p.parties, tuple(trace.orders))
    basis, masks = order_set.basis, order_set.masks
    wc = _validity_sweep(p)[2]  # W's coefficients, kept by validation

    def margins(c):
        return np.linalg.eigvalsh(basis.from_coeffs(masks * c))[:, 0]

    sc = -wc
    for m, y in zip(masks[::-1], trace.dual[::-1]):
        sc = m * y + (1 - m) * sc
    sc[(0,) * sc.ndim] -= margins(sc).min() * np.sqrt(p.w.dim)
    norm = np.linalg.norm(sc)
    if norm > 0:
        sc = sc / norm
    margin = margins(sc)
    overlap = float(np.sum(sc * wc))
    witness = HermitianOperator(p.w.space, basis.from_coeffs(sc))

    batches, picks, weights = order_set.battery
    scores = [batch.traces(witness).real for batch in batches]
    picked = np.stack([s[k] for s, k in zip(scores, picks)], axis=1)
    mixed = np.sum(weights * picked, axis=1)
    battery_min = float(min(min(s.min() for s in scores), mixed.min()))

    diagnostics = {
        "witness_overlap": overlap,
        "certificate_margins": [float(m) for m in margin],
        "battery_min": battery_min,
        "samples_per_order": BATTERY,
        "n_mixtures": BATTERY,
        "witness_seed": BATTERY_SEED,
    }
    bound = (margin.min() - p.w.dim**2 * np.finfo(float).eps) * p.w.trace().real
    if not (overlap < bound and battery_min >= bound):
        diagnostics["rejected"] = (
            f"overlap {overlap:.3e} vs < {bound:.3e}, battery min {battery_min:.3e} "
            f"vs >= {bound:.3e}, bound (min margin - D^2 eps_mach) Tr W"
        )
        return None, diagnostics
    return witness, diagnostics

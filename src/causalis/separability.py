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
Dykstra carries the summands as one (K, ...) stack, so an iteration costs
one basis change each way and one batched eigh.

What does not depend on W is set up once per party structure: the basis,
its group transforms and the shapes of a basis change on a (K, ...) stack
(`_party_moves`, `_CoeffBasis`), the pattern ids (`_cone_ids`) and the
witness battery (`_battery`). Once per run: the masks, W's coefficients
and, on a face, V and V†. Per iteration: the affine step, one basis change
each way around one batched eigh, and the residual.

Dykstra runs on the face of the PSD cone that W spans. Every PSD summand
has W_i ⪯ W, so W_i = V X_i V† with V (D x r) an orthonormal basis of
range(W) and X_i ⪰ 0; projecting onto that face is V P_psd(V† M V) V†, so
the batched eigh is (K, r, r), and the feasible set, the affine step, the
stall test and the full-space residual are those of the whole cone. Most
processes are rank-deficient (the traced switch has rank 4 of 16, a pure
process rank 1), and the face removes the degeneracy that slows the run
on the whole cone (Borwein & Wolkowicz, J. Math. Anal. Appl. 83, 495
(1981)). When r = D the run is the whole-cone run. When a face run neither
converges nor yields a certified witness, the same run on the whole cone
decides instead. At r = 1 (a pure process) no face run is made: each W_i
is c_i W, so W is separable iff it lies in some order's subspace, a linear
fact decided in closed form (`_pure_decomposition`), and otherwise the
whole-cone run decides. The run record keeps one (K, ...) coefficient
stack: the masked summands when it converged (the certificate's components
and q are read off them), and the dual variable otherwise.

The witness battery draws each order's samples in one batch
(`process.random_ordered_batch`, consuming the generator exactly as
sequential `random_ordered_process` calls do), once per party structure
and orders, and each call scores all of them with one
contraction of S against the samples' pieces, so no per-sample process
matrix is formed; mixtures are scored by linearity.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .process import Party, ProcessMatrix, _party_moves, _require_valid, random_ordered_batch
from .tensor_core import HermitianOperator, _check_count, _check_tol, _CoeffBasis

SEP_TOL = 1e-7
MAX_ITERS = 20000
BATTERY = 500  # witness-battery samples per order, and mixtures
BATTERY_SEED = 7  # the witness battery's default_rng seed
STALL_WINDOW = 500
STALL_REL = 1e-12
STALL_CHECK_EVERY = 50


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


def _cone_masks(parties: tuple[Party, ...], cones) -> np.ndarray:
    """(len(cones), ...) float masks of the order subspaces: ids == 0."""
    return np.stack([_cone_ids(parties, c.order) == 0 for c in cones]).astype(float)


def order_cone_residual(p: ProcessMatrix, cone: OrderCone) -> float:
    """Largest Frobenius violation of the cone's linear conditions: the
    largest norm of W's complex coefficients over one nonzero id, i.e. of
    D_S(W) - D_{S+o}(W), as the basis is orthonormal. W may be non-Hermitian."""
    ids = _cone_ids(p.parties, cone.order).ravel()
    c = _party_moves(p.parties)[0].coeffs(p.w.mat).ravel()
    bins = np.bincount(ids, weights=np.abs(c) ** 2, minlength=len(cone.order) + 1)
    return float(np.sqrt(bins[1:].max(initial=0.0)))


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
    converged, and otherwise ``dual``, the PSD-side correction with its sign
    flipped, y_i = -q_i, the dual variable that `extract_witness` builds
    its witness from (PSD for a whole-cone run; for a run on a face
    {V X V†}, only V† y_i V is). ``converged`` is read off which one is
    kept, and ``residual`` and ``iterations`` are the last entry and the
    length of ``residual_history``."""

    orders: tuple[OrderCone, ...]
    stalled: bool
    residual_history: np.ndarray
    perp: float
    summands: np.ndarray | None
    dual: np.ndarray | None

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
    q_i = Tr components[i] / Tr W), rebuilt from ``trace.summands`` on each
    access, and q = q_0, clipped to [0, 1], is the first order's weight
    (None unless separable). Diagnostics carry the reconstruction error, the
    order-cone residuals and the smallest eigenvalue of each component, all
    recomputed from the components, and the tol the residual fell below.
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

    @property
    def components(self) -> tuple[HermitianOperator, ...] | None:
        if self.trace.summands is None:
            return None
        basis = _party_moves(self.process.parties)[0]
        space = self.process.w.space
        return tuple(HermitianOperator(space, m) for m in basis.from_coeffs(self.trace.summands))

    @property
    def q(self) -> float | None:
        comps = self.components
        return None if comps is None else float(
            np.clip(comps[0].trace().real / self.process.w.trace().real, 0.0, 1.0))

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


def _face(w: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis V (D x r) of range(W), or None when r = D.

    Every PSD summand has W_i ⪯ W, so range(W_i) ⊆ range(W) and W_i =
    V X_i V† with X_i ⪰ 0: every decomposition lies on the face {V X V† :
    X ⪰ 0} of the PSD cone. r counts the eigenvalues of W above D ε_mach
    λ_max (the numerical-rank threshold of `numpy.linalg.matrix_rank`).
    The threshold sets speed, never soundness: a kept direction only
    enlarges the face, and a dropped one moves W off it by at most that
    eigenvalue, which the full-space residual still charges. Convergence
    still needs that residual below tol, a witness is still checked in the
    full space, and a run that gives neither is repeated on the whole cone
    (`check_separability`). At r = 1 the closed form measures its distances
    on the full W, so it charges a dropped eigenvalue too.
    """
    e, v = np.linalg.eigh(w)
    keep = e > w.shape[0] * np.finfo(float).eps * e[-1]
    return None if keep.all() else v[:, keep]


def _project_psd(basis: _CoeffBasis, c: np.ndarray, face: np.ndarray | None,
                 face_h: np.ndarray | None) -> np.ndarray:
    """Nearest point of the PSD cone, or of its face {V X V† : X ⪰ 0} when
    ``face`` is V (`_face`) and ``face_h`` is V† (both None for the cone),
    to each operator M of a coefficient stack: one batched eigh of M, or of
    V† M V, lifted to V P_psd(V† M V) V†, the exact Frobenius projection.
    V = 1 would add three GEMMs to each eigh."""
    m = basis.from_coeffs(c)
    e, v = np.linalg.eigh(m if face is None else face_h @ m @ face)
    np.clip(e, 0, None, out=e)
    if face is not None:
        v = face @ v
    return basis.to_coeffs((v * e[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _dykstra(basis: _CoeffBasis, w: np.ndarray, m: np.ndarray, cones, tol, max_iters,
             face=None):
    """Alternating projections on the summands x = (x_1, ..., x_K), held as
    one (K, ...) coefficient stack, between the affine set {x_i in L_i,
    sum_i x_i = W_par} (m stacks the masks of the subspaces L_i) and the PSD
    product cone, or its face when ``face`` is V (`_project_psd`); returns
    the run's FeasibilityTrace. On a coefficient that n > 0 of the L_i
    allow, the affine step subtracts r/n from each of them, r the excess of
    their sum over W_par. The reported residual sqrt(gap^2 + perp^2) also
    charges the part of W outside the sum of the subspaces, which no
    feasible stack can reproduce. The run stalls when, checked every
    STALL_CHECK_EVERY iterations, the residual has fallen by less than
    STALL_REL relative to its value STALL_WINDOW iterations back."""
    n = m.sum(axis=0)
    wc = basis.to_coeffs(w)
    wpar = wc * (n > 0)
    perp = float(np.linalg.norm(wc - wpar))
    keep = 1 - 1 / np.maximum(n, 1)

    def proj_affine(y):
        t = y * m
        r = (t.sum(axis=0) - wpar) * m
        return t - r + r * keep

    face_h = None if face is None else face.conj().T
    b = np.stack([wpar / len(m)] * len(m))
    p = np.zeros_like(b)
    q = np.zeros_like(b)
    hist = []
    res = np.inf
    stalled = False
    it = 0
    # The affine correction p vanishes in exact arithmetic (the set is
    # affine) but not in floating point: dropping it moves the stalls, and
    # gap * gap for gap ** 2 rounds differently. Both stay as they are.
    for it in range(1, max_iters + 1):
        y = b + p
        a = proj_affine(y)
        p = y - a
        c = a + q
        nb = _project_psd(basis, c, face, face_h)
        q = c - nb
        d = (a - nb).ravel()
        gap = math.sqrt(d.dot(d))  # np.linalg.norm, bit for bit
        res = math.sqrt(gap ** 2 + perp ** 2)
        hist.append(res)
        b = nb
        if res < tol:
            break
        if it >= STALL_WINDOW and it % STALL_CHECK_EVERY == 0:
            old = hist[it - STALL_WINDOW]
            if (old - res) / max(old, 1e-300) < STALL_REL:
                stalled = True
                break
    converged = res < tol
    return FeasibilityTrace(orders=cones, stalled=stalled,
                            residual_history=np.asarray(hist), perp=perp,
                            summands=b * m if converged else None,
                            dual=None if converged else -q)


def _pure_decomposition(basis: _CoeffBasis, w: np.ndarray, m: np.ndarray, cones, tol):
    """The separable side at rank 1, in closed form: (a converged
    FeasibilityTrace or None, the distances d_i). Every PSD summand has W_i
    ⪯ W, so at rank 1 W_i = c_i W, and W mixes the orders iff it lies in
    some order subspace L_i. d_i = ||(1 - m_i) ⊙ w|| is the Frobenius
    distance from the full W to L_i, so an eigenvalue that `_face` dropped
    is still charged. The orders with d_i < tol hold W; the summands are
    m_i ⊙ w / n on the n orders that hold it and 0 on the rest, an even
    split so that relabelling the parties maps q to 1 - q. The one residual,
    ||sum_i x_i - W||, is at most max d_i < tol. None when no order holds W:
    the ray {c W} then holds no feasible stack, and only a whole-cone run
    can yield a witness."""
    wc = basis.to_coeffs(w)
    dist = np.linalg.norm(((1 - m) * wc).reshape(len(m), -1), axis=1)
    held = dist < tol
    if not held.any():
        return None, dist.tolist()
    summands = m * wc * (held / held.sum()).reshape((-1,) + (1,) * wc.ndim)
    res = np.linalg.norm(summands.sum(axis=0) - wc)
    perp = float(np.linalg.norm(wc * (m.sum(axis=0) == 0)))
    return FeasibilityTrace(orders=cones, stalled=False, residual_history=np.array([res]),
                            perp=perp, summands=summands, dual=None), dist.tolist()


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
    """
    _check_count("max_iters", max_iters, 1)
    _check_tol("tol", tol)
    p = _require_valid(p)
    if orders is None:
        orders = _default_orders(p.parties)
    cones = tuple(o if isinstance(o, OrderCone) else OrderCone(o) for o in orders)
    if not cones or len({c.order for c in cones}) != len(cones):
        raise ValueError("separability is decided against a non-empty list of distinct orders")

    basis = _party_moves(p.parties)[0]
    masks = _cone_masks(p.parties, cones)

    def run(face):
        trace = _dykstra(basis, p.w.mat, masks, cones, tol, max_iters, face)
        if trace.converged:
            return trace, None, {}
        return (trace, *extract_witness(p, trace))

    face = _face(p.w.mat)
    rank = p.w.dim if face is None else face.shape[1]
    diagnostics = {"face_rank": rank}
    if rank == 1:
        trace, diagnostics["order_distances"] = _pure_decomposition(basis, p.w.mat, masks,
                                                                    cones, tol)
        trace, witness, wdiag = run(None) if trace is None else (trace, None, {})
    else:
        trace, witness, wdiag = run(face)
        if face is not None and not trace.converged and witness is None:
            diagnostics["face_iterations"] = trace.iterations
            trace, witness, wdiag = run(None)

    cert = SeparabilityCertificate(witness, diagnostics, trace, p)
    if cert.separable:
        comps = cert.components
        closed = " in closed form at rank 1" if rank == 1 else ""
        diagnostics.update({
            "verification": f"decomposition{closed}: reconstruction, order-cone residuals and "
                            "component eigenvalues",
            "tol": tol,
            "reconstruction": float((sum(comps[1:], comps[0]) - p.w).norm()),
            "cone_residuals": [order_cone_residual(ProcessMatrix(p.parties, c), cone)
                               for c, cone in zip(comps, cones)],
            "component_min_eigenvalues": np.linalg.eigvalsh([c.mat for c in comps])[:, 0].tolist(),
        })
    else:
        diagnostics.update({"verification": "witness: exact dual-cone check (eigvalsh margins "
                            "on every order subspace), seeded battery as cross-check", **wdiag})
    return cert


# ---------------------------------------------------------------------------
# witness extraction

@functools.lru_cache(maxsize=16)
def _battery(parties: tuple[Party, ...], orders: tuple[tuple[str, ...], ...]):
    """The witness battery of `extract_witness`, which depends on neither W
    nor S, drawn once per key: (one `random_ordered_batch` of BATTERY
    samples per order, one array of BATTERY sample indices per order, the
    (BATTERY, K) simplex weights of the mixtures), in that generator order
    from default_rng(BATTERY_SEED). Every array is read-only."""
    rng = np.random.default_rng(BATTERY_SEED)
    by_name = {q.name: q for q in parties}
    batches = [random_ordered_batch([by_name[n] for n in order], rng, BATTERY)
               for order in orders]
    picks = [rng.integers(0, BATTERY, size=BATTERY) for _ in orders]
    weights = rng.dirichlet(np.ones(len(orders)), size=BATTERY)
    for x in [weights, *picks, *(a for b in batches for a in (b.states, *b.channels))]:
        x.setflags(write=False)
    return tuple(batches), tuple(picks), weights


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
    None, diagnostics).

    The battery, drawn from default_rng(BATTERY_SEED), scores BATTERY
    ordered processes per order, drawn as one `random_ordered_batch` per
    order, and as many mixtures: one draw of BATTERY sample indices per
    order, then one draw of all their weights, uniform on the simplex over
    the K orders (`Generator.dirichlet` with unit parameters); diagnostics
    report both counts and the seed (samples_per_order, n_mixtures,
    witness_seed). None of it depends on W or S, so it is drawn once per
    (parties, orders) and kept read-only (`_battery`); each call only
    scores it against S.
    The mixtures add no evidence: by linearity a mixture's score is a convex
    combination of its parts' scores, so it never falls below the smallest
    of them by more than one rounding, and the battery minimum is the
    per-order sample minimum. They stay as a cross-check of the scoring.
    """
    if trace.converged:
        raise ValueError("witness extraction requires a failed feasibility run")
    basis = _party_moves(p.parties)[0]
    masks = _cone_masks(p.parties, trace.orders)

    def margins(c):
        return np.linalg.eigvalsh(basis.from_coeffs(masks * c))[:, 0]

    wc = basis.to_coeffs(p.w.mat)
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

    batches, picks, weights = _battery(p.parties, tuple(c.order for c in trace.orders))
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

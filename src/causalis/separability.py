"""Causal separability: order cones, convex feasibility, witness extraction.

A process is causally separable (for a pair of orders) when it splits as
W = W_1 + W_2 with each summand PSD and inside its order's linear subspace
(the depolarize conditions that forbid signalling to earlier parties).
Feasibility is decided by Dykstra's alternating projections on the pair
(W_1, W_2). A stalled run is upgraded to a nonseparability certificate only
when a witness S read off the run's dual variable lies in the dual cones of
both orders, checked exactly by one eigvalsh of its two order projections,
and Tr[S W] < 0; a seeded battery of ordered processes cross-checks it.

All projections run in coefficient space: operators are expanded over the
product of per-factor orthonormal Hermitian bases (identity direction
first), where every depolarize-type projector acts as a 0/1 mask, the affine
projection has a closed form, and an order cone's residual is the norm of
the coefficients a mask removes. The basis change is one GEMM per group of
adjacent factors (two for balanced spaces), and Dykstra carries the summand
pair as one (2, ...) stack, so an iteration costs one basis change each way
and one batched eigh.

The witness battery draws each order's samples in one batch
(`process.random_ordered_batch`, consuming the generator exactly as
sequential `random_ordered_process` calls do) and scores all of them with
one contraction of S against the samples' pieces, so no per-sample process
matrix is formed; mixtures are scored by linearity.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .process import Party, ProcessMatrix, random_ordered_batch, validate_process
from .tensor_core import HermitianOperator, Operator, hermitian_basis

SEP_TOL = 1e-7
MAX_ITERS = 20000
STALL_WINDOW = 500
STALL_REL = 1e-12
STALL_CHECK_EVERY = 50


# ---------------------------------------------------------------------------
# order cones

@dataclass(frozen=True)
class OrderCone:
    """Processes compatible with one total order of the parties.

    Membership means: valid, and for every party the spaces of the parties
    strictly after it cannot carry information back, i.e. depolarizing those
    later spaces equals depolarizing them together with the party's own
    output. The condition for the final party reduces to an identity output
    factor; for a trivial (one-dimensional) output it is vacuous.
    """

    order: tuple[str, ...]

    def __init__(self, order):
        object.__setattr__(self, "order", tuple(order))

    def conditions(self, parties: tuple[Party, ...]):
        """(later-spaces, later-spaces + own output) label pairs, one per
        party with a nontrivial output; one-dimensional labels dropped."""
        by_name = {p.name: p for p in parties}
        if sorted(self.order) != sorted(by_name):
            raise ValueError(f"order {self.order} does not cover the parties "
                             f"{tuple(sorted(by_name))}")
        dims = {}
        for p in parties:
            for s in p.inputs + p.outputs:
                dims[s.label] = s.dim
        conds = []
        for k, name in enumerate(self.order):
            after = set()
            for later in self.order[k + 1:]:
                q = by_name[later]
                after |= set(q.input_labels) | set(q.output_labels)
            after = frozenset(l for l in after if dims[l] > 1)
            out = frozenset(l for l in by_name[name].output_labels if dims[l] > 1)
            if not out:
                continue
            conds.append((after, after | out))
        return conds


def order_cone_residual(p: ProcessMatrix, cone: OrderCone) -> float:
    """Largest Frobenius violation of the cone's linear conditions.

    A condition (S, S+o) asks D_S(W) = D_{S+o}(W). Their difference keeps
    exactly the coefficients whose S indices are all identity while their o
    indices are not, so its norm is the norm of those coefficients (the
    basis is orthonormal).
    """
    basis = _coeff_basis(p.w.space)
    c = basis.coeffs(p.w.mat)
    worst = 0.0
    for s, so in cone.conditions(p.parties):
        worst = max(worst, float(np.linalg.norm(c[basis.violation(s, so)])))
    return worst


# ---------------------------------------------------------------------------
# coefficient-space engine

def _group_dims(dims) -> list[list[int]]:
    """Adjacent runs of factor dims whose product g keeps g*g <= D; a factor
    with d*d > D forms its own group."""
    total = math.prod(dims)
    groups = [[]]
    g = 1
    for d in dims:
        if groups[-1] and (g * d) ** 2 > total:
            groups.append([])
            g = 1
        groups[-1].append(d)
        g *= d
    return groups


def _group_basis(dims) -> np.ndarray:
    """(g^2, g^2) matrix U of the product Hermitian basis of one group:
    row k holds the element B_k = B_{k_1} x B_{k_2} x ..., flattened
    row-major as a g x g matrix."""
    b = np.ones((1, 1, 1), dtype=complex)
    for d in dims:
        h = hermitian_basis(d)
        k, g = b.shape[0], b.shape[1]
        b = np.einsum("kij,lmn->klimjn", b, h).reshape(k * d * d, g * d, g * d)
    return b.reshape(b.shape[0], -1)


class _CoeffBasis:
    """Real coefficients c_k = Tr[B_k m] of Hermitian operators over the
    product of per-factor Hermitian bases; depolarize-type projectors become
    elementwise 0/1 masks here.

    The label-sorted factors are split into adjacent groups of dimension
    g <= sqrt(D) (a larger factor is a group of its own), and each group
    keeps a dense (g^2, g^2) transform, so a basis change is one GEMM per
    group (two for balanced spaces) on any leading batch axis. A group
    matrix holds at most max(D^2, d_max^4) entries. Coefficient arrays have
    shape (..., d_1^2, ..., d_n^2), identity index 0 on every factor.
    """

    def __init__(self, space):
        self.labels = list(space.labels)
        self.dim = space.dim
        self.shape = tuple(d * d for d in space.dims)
        groups = _group_dims(space.dims)
        self.group_dims = [math.prod(g) for g in groups]
        self._sizes = tuple(g * g for g in self.group_dims)
        us = [_group_basis(g) for g in groups]
        # coeffs applies conj(U) per group, from_coeffs applies U^T
        self._fwd = [np.ascontiguousarray(u.conj()) for u in us]
        self._inv = [np.ascontiguousarray(u.T) for u in us]

    def _apply(self, x: np.ndarray, mats) -> np.ndarray:
        """Multiply axis a of x (..., G_1, ..., G_n) by mats[a], one GEMM each."""
        lead = x.shape[:x.ndim - len(self._sizes)]
        pre = math.prod(lead)
        post = math.prod(self._sizes)
        for t, size in zip(mats, self._sizes):
            post //= size
            if post == 1:
                x = x.reshape(-1, size) @ t.T
            else:
                x = np.matmul(t, x.reshape(pre, size, post))
            pre *= size
        return x.reshape(lead + self._sizes)

    def _blocks(self, m: np.ndarray) -> np.ndarray:
        """(..., D, D) -> (..., G_1, ..., G_n), each group's (row, col) pair
        adjacent."""
        n = len(self.group_dims)
        lead = m.shape[:-2]
        k = len(lead)
        t = m.reshape(lead + tuple(self.group_dims) * 2)
        order = list(range(k))
        for a in range(n):
            order += [k + a, k + n + a]
        return t.transpose(order).reshape(lead + self._sizes)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Complex coefficients Tr[B_k m] of any (..., D, D) stack."""
        c = self._apply(self._blocks(m), self._fwd)
        return c.reshape(m.shape[:-2] + self.shape)

    def to_coeffs(self, m: np.ndarray) -> np.ndarray:
        """Real coefficients of a Hermitian (..., D, D) stack."""
        return self.coeffs(m).real

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        n = len(self.group_dims)
        lead = c.shape[:c.ndim - len(self.shape)]
        k = len(lead)
        t = self._apply(c.reshape(lead + self._sizes), self._inv)
        t = t.reshape(lead + tuple(d for g in self.group_dims for d in (g, g)))
        order = list(range(k)) + [k + 2 * a for a in range(n)] + [k + 2 * a + 1 for a in range(n)]
        return t.transpose(order).reshape(lead + (self.dim, self.dim))

    def _identity_on(self, labels) -> np.ndarray:
        """Boolean array, broadcastable to the coefficient shape: true where
        every named factor carries the identity index."""
        out = np.ones((1,) * len(self.shape), dtype=bool)
        for lab in labels:
            i = self.labels.index(lab)
            axis = [1] * len(self.shape)
            axis[i] = self.shape[i]
            out = out & (np.arange(self.shape[i]) == 0).reshape(axis)
        return out

    def violation(self, s, so) -> np.ndarray:
        """Coefficients that D_S - D_{S+o} keeps: the S indices are all
        identity while the o indices are not all identity."""
        hit = self._identity_on(s) & ~self._identity_on(so - s)
        return np.broadcast_to(hit, self.shape)

    def mask_for_conditions(self, conds) -> np.ndarray:
        """Product of (Id - (D_S - D_{S+o})): zero every coefficient that
        some condition's D_S - D_{S+o} keeps."""
        mask = np.ones(self.shape)
        for s, so in conds:
            mask[self.violation(s, so)] = 0.0
        return mask

    def project_psd_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Nearest PSD operator of each item of a coefficient stack, by one
        batched eigh."""
        m = self.from_coeffs(c)
        e, v = np.linalg.eigh(m)
        np.clip(e, 0, None, out=e)
        return self.to_coeffs((v * e[..., None, :]) @ v.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=64)
def _coeff_basis(space) -> _CoeffBasis:
    return _CoeffBasis(space)


# ---------------------------------------------------------------------------
# feasibility

@dataclass(frozen=True, eq=False)
class FeasibilityTrace:
    """Raw outcome of one Dykstra run (components unpolished). ``dual`` is
    the PSD-side correction with its sign flipped, y_i = -q_i ⪰ 0, the dual
    variable that `extract_witness` builds its witness from, as a (2, ...)
    stack of real coefficients over the product Hermitian basis of W's
    space (`hermitian_basis` per label-sorted factor, identity first)."""

    orders: tuple[OrderCone, OrderCone]
    converged: bool
    stalled: bool
    iterations: int
    residual: float
    residual_history: np.ndarray
    components: tuple[Operator, Operator]
    perp: float
    dual: np.ndarray


@dataclass(frozen=True, eq=False)
class SeparabilityCertificate:
    """Verdict of check_separability.

    When separable, ``components`` are the PSD summands of W (so the
    normalized order-cone members are components[i] scaled by 1/q_i) and
    q = Tr components[0] / Tr W. When nonseparable, the verdict is "residual
    stalled above threshold"; it is certified only if ``witness`` is present,
    meaning a unit-norm Hermitian S with Tr[S W] < 0 whose projection onto
    each order's subspace is PSD (diagnostics["certificate_margins"], the two
    smallest eigenvalues, checked >= -tol), so Tr[S X] >= 0 for every
    process X of either order and every mixture of them. A seeded battery
    of ordered processes and their mixtures cross-checks S; diagnostics
    carry its parameters (battery_per_order >= 1 samples per order and
    battery_mixtures >= 0 mixtures, both checked) and minimum.

    The decomposition, when it exists, identifies W with a probabilistic
    mixture of ordered processes; whether the mixture is proper (classical
    ignorance) or improper (reduction of a larger process) is not decidable
    from W, and this certificate does not attempt to distinguish the two.
    """

    separable: bool
    q: float | None
    components: tuple[Operator, Operator] | None
    residual: float
    iterations: int
    witness: HermitianOperator | None
    witness_verified: bool
    diagnostics: dict
    trace: FeasibilityTrace

    @property
    def verdict(self) -> str:
        """One of "separable" (converged), "nonseparable" (stalled above tol,
        or a certified witness) and "undecided": the run hit max_iters
        without converging or stalling and no witness was certified, so it
        shows neither answer. ``separable`` is False for the last two."""
        if self.separable:
            return "separable"
        if self.trace.stalled or self.witness_verified:
            return "nonseparable"
        return "undecided"


def _require_valid(p: ProcessMatrix) -> ProcessMatrix:
    if p.validity == "unchecked":
        p = validate_process(p)
    if p.validity != "valid":
        raise ValueError(f"process is not valid: {p.reason}")
    return p


def _check_count(name, value, least):
    """Counts (iterations, stall window, battery sizes): an integer, at
    least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _default_orders(parties: tuple[Party, ...]) -> list[tuple[str, ...]]:
    names = sorted(p.name for p in parties)
    if len(parties) == 2:
        return [(names[0], names[1]), (names[1], names[0])]
    trivial = [p.name for p in parties if p.trivial_output]
    if len(parties) == 3 and len(trivial) == 1:
        a, b = sorted(n for n in names if n != trivial[0])
        return [(a, b, trivial[0]), (b, a, trivial[0])]
    raise ValueError("no default order pair for this party structure; pass "
                     "two total orders explicitly")


def _dykstra(basis: _CoeffBasis, w: np.ndarray, masks, tol, max_iters,
             stall_window, stall_rel):
    """Alternating projections on the pair x = (x1, x2), held as one (2, ...)
    coefficient stack, between the affine set {x_i in L_i, x1 + x2 = W_par}
    and the PSD product cone. The reported residual sqrt(gap^2 + perp^2)
    also charges the part of W outside the union of the two subspaces,
    which no feasible pair can reproduce."""
    m = np.stack(masks)
    m12 = masks[0] * masks[1]
    wc = basis.to_coeffs(w)
    wpar = wc * (1 - (1 - masks[0]) * (1 - masks[1]))
    perp = float(np.linalg.norm(wc - wpar))

    def proj_affine(y):
        t = y * m
        rhs = t[0] + t[1] - wpar
        return t - rhs * m + 0.5 * (rhs * m12)

    b = np.stack([wpar / 2, wpar / 2])
    p = np.zeros_like(b)
    q = np.zeros_like(b)
    hist = []
    res = np.inf
    stalled = False
    it = 0
    for it in range(1, max_iters + 1):
        a = proj_affine(b + p)
        p = b + p - a
        nb = basis.project_psd_coeffs(a + q)
        q = a + q - nb
        gap = np.linalg.norm(a - nb)
        res = float(np.sqrt(gap**2 + perp**2))
        hist.append(res)
        b = nb
        if res < tol:
            break
        if it >= stall_window and it % STALL_CHECK_EVERY == 0:
            old = hist[it - stall_window]
            if (old - res) / max(old, 1e-300) < stall_rel:
                stalled = True
                break
    return b, res, it, np.asarray(hist), perp, stalled, -q


def check_separability(
    p: ProcessMatrix,
    orders=None,
    *,
    tol: float = SEP_TOL,
    max_iters: int = MAX_ITERS,
    stall_window: int = STALL_WINDOW,
    stall_rel: float = STALL_REL,
    attempt_witness: bool = True,
    witness_seed: int = 7,
    battery_per_order: int = 500,
    battery_mixtures: int = 500,
) -> SeparabilityCertificate:
    """Decide whether W mixes processes from two order cones.

    Runs Dykstra's algorithm on the summand pair. Residual below tol means
    separable: the certificate carries the PSD summands (polished back onto
    their linear subspaces) and the weight q of the first order. Otherwise
    a witness is extracted and certified unless attempt_witness is false,
    and ``verdict`` tells a stall or a certified witness (nonseparable) from
    a run cut off by max_iters (undecided). max_iters and stall_window must
    be integers >= 1 and tol finite and > 0.
    """
    _check_count("max_iters", max_iters, 1)
    _check_count("stall_window", stall_window, 1)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _check_count("battery_per_order", battery_per_order, 1)
    _check_count("battery_mixtures", battery_mixtures, 0)
    p = _require_valid(p)
    if orders is None:
        orders = _default_orders(p.parties)
    cones = tuple(o if isinstance(o, OrderCone) else OrderCone(o) for o in orders)
    if len(cones) != 2 or cones[0].order == cones[1].order:
        raise ValueError("separability is decided against exactly two distinct orders")

    basis = _coeff_basis(p.w.space)
    masks = tuple(basis.mask_for_conditions(c.conditions(p.parties)) for c in cones)
    b, res, it, hist, perp, stalled, dual = _dykstra(
        basis, p.w.mat, masks, tol, max_iters, stall_window, stall_rel
    )
    trace = FeasibilityTrace(
        orders=cones,
        converged=res < tol,
        stalled=stalled,
        iterations=it,
        residual=res,
        residual_history=hist,
        components=tuple(Operator(p.w.space, m) for m in basis.from_coeffs(b)),
        perp=perp,
        dual=dual,
    )
    diagnostics = {"perp": perp, "stalled": stalled}

    if trace.converged:
        # mask once more so each summand sits exactly in its subspace
        comps = tuple(
            HermitianOperator(p.w.space, m)
            for m in basis.from_coeffs(b * np.stack(masks))
        )
        q = float(np.clip(comps[0].trace().real / p.w.trace().real, 0.0, 1.0))
        diagnostics["verification"] = "decomposition: reconstruction and order-cone residuals"
        diagnostics["reconstruction"] = float(
            (comps[0] + comps[1] - p.w).norm()
        )
        diagnostics["cone_residuals"] = [
            order_cone_residual(ProcessMatrix(p.parties, c), cone)
            for c, cone in zip(comps, cones)
        ]
        return SeparabilityCertificate(
            separable=True, q=q, components=comps, residual=res, iterations=it,
            witness=None, witness_verified=False, diagnostics=diagnostics,
            trace=trace,
        )

    diagnostics["verification"] = (
        "witness: exact dual-cone check (eigvalsh margins on both order "
        "subspaces), seeded battery as cross-check"
        if attempt_witness else "none: witness search skipped"
    )
    witness = None
    if attempt_witness:
        witness, wdiag = extract_witness(
            p, trace, seed=witness_seed, samples_per_order=battery_per_order,
            n_mixtures=battery_mixtures, eps=tol,
        )
        diagnostics.update(wdiag)
    return SeparabilityCertificate(
        separable=False, q=None, components=None, residual=res, iterations=it,
        witness=witness, witness_verified=witness is not None,
        diagnostics=diagnostics, trace=trace,
    )


# ---------------------------------------------------------------------------
# witness extraction

def extract_witness(
    p: ProcessMatrix,
    trace: FeasibilityTrace,
    *,
    seed: int,
    samples_per_order: int = 500,
    n_mixtures: int = 500,
    eps: float = SEP_TOL,
):
    """Witness S in K_1* ∩ K_2* from a failed feasibility run, certified
    exactly and cross-checked by a seeded battery.

    K_i = PSD ∩ L_i is order i's cone and K_i* = PSD + L_i^⊥ its dual
    (Araújo et al., NJP 17, 102001 (2015)). In coefficient space S takes
    y_1 = trace.dual[0] on L_1, y_2 on L_2 outside L_1, and -W outside
    L_1 + L_2, which both dual cones leave free. X in K_i has
    Tr[S X] = Tr[P_i(S) X] >= λ_min(P_i S) Tr X (P_i the mask projection
    onto L_i), and the identity lies in both L_i, so S is shifted by
    min_i λ_min(P_i S) 1 and normalised. It is accepted only if
    Tr[S W] < -10 eps and the recomputed margins λ_min(P_i S) and the
    battery minimum are >= -eps; an all-zero S is rejected. Returns
    (witness or None, diagnostics).

    The battery scores samples_per_order (>= 1) ordered processes per order,
    drawn as one `random_ordered_batch`, and n_mixtures (>= 0) mixtures,
    each drawing two sample indices and a weight t, in that order, as
    per-sample draws of dense matrices would.
    """
    _check_count("samples_per_order", samples_per_order, 1)
    _check_count("n_mixtures", n_mixtures, 0)
    if trace.converged:
        raise ValueError("witness extraction requires a failed feasibility run")
    basis = _coeff_basis(p.w.space)
    masks = np.stack([basis.mask_for_conditions(c.conditions(p.parties))
                      for c in trace.orders])

    def margins(c):
        return np.linalg.eigvalsh(basis.from_coeffs(masks * c))[:, 0]

    m1, m2 = masks
    y1, y2 = trace.dual
    wc = basis.to_coeffs(p.w.mat)
    sc = m1 * y1 + (1 - m1) * (m2 * y2 - (1 - m2) * wc)
    sc = sc - margins(sc).min() * basis.to_coeffs(np.eye(p.w.dim))
    norm = np.linalg.norm(sc)
    if norm > 0:
        sc = sc / norm
    margin = margins(sc)
    overlap = float(np.sum(sc * wc))
    witness = HermitianOperator(p.w.space, basis.from_coeffs(sc))

    rng = np.random.default_rng(seed)
    by_name = {q.name: q for q in p.parties}
    scores = [
        random_ordered_batch([by_name[n] for n in cone.order], rng, samples_per_order)
        .traces(witness).real
        for cone in trace.orders
    ]
    mixed = np.empty(n_mixtures)
    for k in range(n_mixtures):
        sa = scores[0][rng.integers(0, samples_per_order)]
        sb = scores[1][rng.integers(0, samples_per_order)]
        t = rng.uniform()
        mixed[k] = t * sa + (1 - t) * sb
    battery_min = float(min(scores[0].min(), scores[1].min(), mixed.min(initial=np.inf)))

    diagnostics = {
        "witness_overlap": overlap,
        "certificate_margins": [float(m) for m in margin],
        "battery_min": battery_min,
        "samples_per_order": int(samples_per_order),
        "n_mixtures": int(n_mixtures),
        "witness_seed": seed,
    }
    accepted = overlap < -10 * eps and margin.min() >= -eps and battery_min >= -eps
    if not accepted:
        diagnostics["rejected"] = (
            f"overlap {overlap:.3e} vs < {-10 * eps:.1e}, "
            f"margin {margin.min():.3e} vs >= {-eps:.1e}, "
            f"battery min {battery_min:.3e} vs >= {-eps:.1e}"
        )
        return None, diagnostics
    return witness, diagnostics

"""Causal separability: order cones, convex feasibility, witness extraction.

A process is causally separable (for a pair of orders) when it splits as
W = W_1 + W_2 with each summand PSD and inside its order's linear subspace
(no signalling to earlier parties). Feasibility is decided by Dykstra's
alternating projections on the pair (W_1, W_2). A stalled run is upgraded to a nonseparability certificate only
when a witness S read off the run's dual variable lies in the dual cones of
both orders, checked exactly by one eigvalsh of its two order projections,
and Tr[S W] < 0; a seeded battery of ordered processes cross-checks it.

All projections run in coefficient space (`tensor_core._CoeffBasis`, the
engine validity also reads): operators are expanded over the product of
per-factor orthonormal Hermitian bases (identity direction first). An
order gives each coefficient a pattern id (`_cone_ids`, read off the
per-party table validity uses), its projector is the mask ids == 0, the
affine projection has a closed form, and an order cone's residual is the
largest per-id norm, one bincount. The basis change is one GEMM per group of
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
from dataclasses import dataclass

import numpy as np

from .process import Party, ProcessMatrix, _party_moves, random_ordered_batch, validate_process
from .tensor_core import HermitianOperator, Operator, _CoeffBasis, _coeff_basis

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
    """One pattern id per coefficient of W (flattened, read-only): k + 1
    when order[k] is the last party with a non-identity index and that
    index includes its output, else 0. Class k + 1 is what D_S - D_{S+o}
    keeps, S the factors after order[k] and o its output (Araujo et al.,
    NJP 17, 102001 (2015)), so the order subspace spans the id-0 terms.
    dim-1 factors add only length-1 axes to `_coeff_basis(W.space).shape`.
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
    ids = ids.ravel()
    ids.setflags(write=False)
    return ids


def _cone_masks(parties: tuple[Party, ...], cones, shape) -> np.ndarray:
    """(len(cones), *shape) float masks of the order subspaces: ids == 0."""
    return np.stack([(_cone_ids(parties, c.order) == 0).reshape(shape)
                     for c in cones]).astype(float)


def order_cone_residual(p: ProcessMatrix, cone: OrderCone) -> float:
    """Largest Frobenius violation of the cone's linear conditions: the
    largest norm of W's complex coefficients over one nonzero id, i.e. of
    D_S(W) - D_{S+o}(W), as the basis is orthonormal. W may be non-Hermitian."""
    ids = _cone_ids(p.parties, cone.order)
    c = _coeff_basis(p.w.space).coeffs(p.w.mat).ravel()
    bins = np.bincount(ids, weights=np.abs(c) ** 2, minlength=len(cone.order) + 1)
    return float(np.sqrt(bins[1:].max(initial=0.0)))


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


def _dykstra(basis: _CoeffBasis, w: np.ndarray, m: np.ndarray, tol, max_iters,
             stall_window, stall_rel):
    """Alternating projections on the pair x = (x1, x2), held as one (2, ...)
    coefficient stack, between the affine set {x_i in L_i, x1 + x2 = W_par}
    and the PSD product cone (m stacks the L_i masks). The reported residual
    sqrt(gap^2 + perp^2) also charges the part of W outside the union of the
    two subspaces, which no feasible pair can reproduce."""
    m12 = m[0] * m[1]
    wc = basis.to_coeffs(w)
    wpar = wc * (1 - (1 - m[0]) * (1 - m[1]))
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
    masks = _cone_masks(p.parties, cones, basis.shape)
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
            for m in basis.from_coeffs(b * masks)
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
    masks = _cone_masks(p.parties, trace.orders, basis.shape)

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

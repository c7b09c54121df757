"""Labeled tensor-product linear algebra.

Operators live over products of named Hilbert-space factors. Factors are
kept in a canonical order (sorted by label, row-major storage with the
last factor's index varying fastest), so two operators built from the
same labels in different orders compare entrywise. Everything here is a
pure function over immutable values; arrays are frozen after construction.

`_CoeffBasis` expands Hermitian operators over the product of per-factor
orthonormal Hermitian bases (identity first). Validity (`process`), order
cones and the separability projections (`separability`) all read
coefficients there, where their linear conditions are integer pattern ids
set by which factors carry a non-identity index (`_identity_on`): a mask is
ids == 0 and a residual one bincount of squared coefficients by id.

The basis change and the Born contraction share one factor layout
(`_grouping`, applied by `_regroup`): each group of factors becomes one
fused (row, column) axis. A basis fixes its layout, one group per GEMM,
when it is built; the contraction looks one up per call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-12
CHOI_PSD_TOL = 1e-12  # the one CPTP policy for maps in Choi form: see _cptp_defects
TP_TOL = 1e-10


# ---------------------------------------------------------------------------
# input rules: each is checked here, once per object

def _check_tol(name: str, value) -> None:
    """A tolerance: finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """A count or seed: an integer (numpy's too, never a bool), >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_distinct(names: Iterable[str], what: str) -> None:
    """Names that must not repeat (parties of a process, table or instrument list)."""
    names = list(names)
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"{what} must be distinct; repeated: {', '.join(map(repr, repeated))}")


@dataclass(frozen=True)
class LabeledSpace:
    """A named Hilbert-space factor."""

    label: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("space label must be a non-empty string")
        _check_count(f"space {self.label!r}: dim", self.dim, 1)
        object.__setattr__(self, "dim", int(self.dim))  # numpy integers are not ints


@dataclass(frozen=True, init=False)
class SpaceProduct:
    """Tensor product of labeled factors, canonicalized by label sort."""

    factors: tuple[LabeledSpace, ...]

    def __init__(self, factors: Iterable[LabeledSpace] | LabeledSpace = ()):
        if isinstance(factors, LabeledSpace):
            factors = (factors,)
        facs = tuple(sorted(factors, key=lambda s: s.label))
        for a, b in zip(facs, facs[1:]):
            if a.label == b.label:
                raise ValueError(f"duplicate space label {a.label!r}")
        object.__setattr__(self, "factors", facs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(s.dim for s in self.factors)

    def index(self, label: str) -> int:
        for i, s in enumerate(self.factors):
            if s.label == label:
                return i
        raise KeyError(f"no factor labeled {label!r}")

    def restrict(self, labels: Iterable[str]) -> "SpaceProduct":
        labels = set(labels)
        unknown = labels - set(self.labels)
        if unknown:
            raise KeyError(f"unknown labels {sorted(unknown)}")
        return SpaceProduct(s for s in self.factors if s.label in labels)

    def __len__(self) -> int:
        return len(self.factors)


def _as_space(space) -> SpaceProduct:
    if isinstance(space, SpaceProduct):
        return space
    return SpaceProduct(space)


def _checked_matrix(space, mat, ndim: int = 2) -> tuple[SpaceProduct, np.ndarray]:
    """A complex copy of mat, an ndim-axis (..., D, D) stack of matrices
    square over space, free of NaN and inf.

    Non-finite entries are rejected here because NaN fails every `> tol`
    test downstream and would pass validity and Hermiticity checks.
    """
    space = _as_space(space)
    m = np.array(mat, dtype=complex)
    if m.ndim != ndim or m.shape[-2:] != (space.dim, space.dim):
        raise ValueError(
            f"matrix shape {m.shape} does not match space dim {space.dim}"
        )
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    return space, m


def _hermitian_defect(m: np.ndarray) -> float:
    """max |M - M^dag| over a (..., D, D) stack, 0 for an empty one; inf
    when a difference exceeds the float range."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0))


def _checked_hermitian(space, mat, ndim: int = 2) -> tuple[SpaceProduct, np.ndarray]:
    """`_checked_matrix`, then Hermitian within HERM_TOL: the read-only
    symmetrized copy M/2 + (M/2)^dag of every matrix of the stack. Halving
    the float view first is exact above the subnormals, keeps signed zeros
    (complex division by 2 does not) and cannot overflow, so the copy of an
    exactly Hermitian M is M itself there, and a second symmetrization
    returns its input bit for bit."""
    space, m = _checked_matrix(space, mat, ndim)
    dev = _hermitian_defect(m)
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    half = (np.ascontiguousarray(m).view(float) / 2).view(complex)
    m = half + half.conj().swapaxes(-1, -2)
    m.setflags(write=False)
    return space, m


class Operator:
    """Dense complex matrix over a SpaceProduct. Not necessarily Hermitian."""

    def __init__(self, space, mat):
        space, m = _checked_matrix(space, mat)
        m.setflags(write=False)
        self.space = space
        self.mat = m

    @property
    def dim(self) -> int:
        return self.space.dim

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.mat))

    def dagger(self) -> "Operator":
        return type(self)(self.space, self.mat.conj().T)

    def is_hermitian(self) -> bool:
        return _hermitian_defect(self.mat) <= HERM_TOL

    def _combine(self, other, ufunc):
        """ufunc of two operators on one space; Hermitian iff both are."""
        if not isinstance(other, Operator):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        hermitian = isinstance(self, HermitianOperator) and isinstance(other, HermitianOperator)
        return (HermitianOperator if hermitian else Operator)(self.space, ufunc(self.mat, other.mat))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        cls = type(self) if np.isrealobj(np.asarray(scalar)) else Operator
        return cls(self.space, self.mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def __neg__(self):
        return type(self)(self.space, -self.mat)

    def __repr__(self):
        return f"{type(self).__name__}(labels={self.space.labels}, dim={self.dim})"


class HermitianOperator(Operator):
    """Operator constrained to equal its conjugate transpose within 1e-12.

    Entries are symmetrized on construction so downstream eigendecompositions
    see exactly Hermitian input.
    """

    def __init__(self, space, mat):
        self.space, self.mat = _checked_hermitian(space, mat)

    @classmethod
    def _view(cls, space: SpaceProduct, mat: np.ndarray) -> "HermitianOperator":
        """An operator holding mat itself, with no copy and no second
        symmetrization. mat must be a read-only (D, D) array over space that
        `_checked_hermitian` returned, or a view into one."""
        op = cls.__new__(cls)
        op.space, op.mat = space, mat
        return op


class PureVector:
    """Dense complex vector over a SpaceProduct (unnormalized permitted)."""

    def __init__(self, space, vec):
        space = _as_space(space)
        v = np.array(vec, dtype=complex).reshape(-1)
        if v.size != space.dim:
            raise ValueError(f"vector length {v.size} does not match space dim {space.dim}")
        if not np.isfinite(v).all():
            raise ValueError("vector has non-finite (NaN or inf) entries")
        v.setflags(write=False)
        self.space = space
        self.vec = v

    @property
    def dim(self) -> int:
        return self.space.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def density(self) -> HermitianOperator:
        """Rank-1 projector |v><v| (unnormalized if v is)."""
        return HermitianOperator(self.space, np.outer(self.vec, self.vec.conj()))

    def __add__(self, other):
        if not isinstance(other, PureVector):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("vectors live on different spaces")
        return PureVector(self.space, self.vec + other.vec)

    def __mul__(self, scalar):
        return PureVector(self.space, self.vec * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"PureVector(labels={self.space.labels}, dim={self.dim})"


# ---------------------------------------------------------------------------
# index bookkeeping

def _canonicalize(factors: Sequence[LabeledSpace], arr: np.ndarray) -> tuple[SpaceProduct, np.ndarray]:
    """Permute a vector or matrix built in `factors` order into canonical
    label order (a matrix's rows and columns alike)."""
    n = len(factors)
    perm = sorted(range(n), key=lambda i: factors[i].label)
    if perm == list(range(n)):
        return SpaceProduct(factors), arr
    dims = [f.dim for f in factors]
    t = arr.reshape(dims * arr.ndim)
    t = t.transpose([axis * n + i for axis in range(arr.ndim) for i in perm])
    return SpaceProduct(factors), t.reshape(arr.shape)


def _kron(spaces: Sequence[SpaceProduct], arrays: Sequence[np.ndarray]) -> tuple[SpaceProduct, np.ndarray]:
    """np.kron of vectors or matrices over spaces in argument order, permuted
    into canonical label order; a repeated label raises before any product."""
    factors = [f for s in spaces for f in s.factors]
    SpaceProduct(factors)  # raises on a repeated label
    out = np.ones((1,) * arrays[0].ndim, dtype=complex)
    for a in arrays:
        out = np.kron(out, a)
    return _canonicalize(factors, out)


@functools.lru_cache(maxsize=64)
def _grouping(space: SpaceProduct, spaces: tuple[SpaceProduct, ...]):
    """How `_regroup` lays out a (..., D, D) stack over ``space`` for stacks
    over ``spaces``: (blocks, perm, grouped, inverse). blocks is (-1, d_1,
    ..., d_n, d_1, ..., d_n), the leading axes folded into one, then a row
    and a column axis per factor of dim > 1; perm keeps that axis first and
    brings each stack's row factors and then its column factors together,
    in stack order, with the uncovered factors last (rows, then columns);
    grouped fuses each group, (-1, e_1**2, ..., e_n**2) then (u, u) if a
    factor is uncovered. inverse, the (shape, order) that undo the
    permutation, is None when uncovered factors are traced out."""
    facs = [f for f in space.factors if f.dim > 1]
    n = len(facs)
    at = {f.label: k for k, f in enumerate(facs)}
    groups = [[at[f.label] for f in s.factors if f.dim > 1] for s in spaces]
    covered = {k for g in groups for k in g}
    groups.append([k for k in range(n) if k not in covered])
    perm = [0] + [1 + i for g in groups for i in g + [n + k for k in g]]
    sizes = [math.prod(facs[k].dim for k in g) for g in groups]
    grouped = [-1] + [e * e for e in sizes[:-1]] + ([sizes[-1]] * 2 if groups[-1] else [])
    blocks = (-1,) + tuple(f.dim for f in facs) * 2
    inverse = None if groups[-1] else (tuple(blocks[i] for i in perm),
                                       tuple(int(i) for i in np.argsort(perm)))
    return blocks, tuple(perm), tuple(grouped), inverse


def _regroup(m: np.ndarray, layout) -> np.ndarray:
    """A (..., D, D) stack m as an (N, e_1**2, ..., e_n**2) array laid out
    by ``layout`` (`_grouping`), N the product of its leading shape: axis k
    holds stack k's (row, column) index pair, and the uncovered factors are
    traced out. So sum_ij m_ij (X_1 (x) ... (x) X_n (x) 1)_ij is the
    contraction of axis k with X_k flattened, one matmul per stack
    (`instruments.born`, `process.OrderedBatch.traces`), and with one stack
    per group of factors, the group GEMMs of `_CoeffBasis.coeffs`."""
    blocks, perm, grouped, inverse = layout
    t = m.reshape(blocks).transpose(perm).reshape(grouped)
    return np.trace(t, axis1=-2, axis2=-1) if inverse is None else t


# ---------------------------------------------------------------------------
# core operations

def tensor(*ops: Operator) -> Operator:
    """Tensor product over disjoint label sets, in canonical factor order."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    cls = HermitianOperator if all(isinstance(o, HermitianOperator) for o in ops) else Operator
    return cls(*_kron([o.space for o in ops], [o.mat for o in ops]))


def tensor_vectors(*vecs: PureVector) -> PureVector:
    if not vecs:
        raise ValueError("tensor_vectors() needs at least one vector")
    return PureVector(*_kron([v.space for v in vecs], [v.vec for v in vecs]))


def identity(space) -> HermitianOperator:
    space = _as_space(space)
    return HermitianOperator(space, np.eye(space.dim, dtype=complex))


def _partial_trace(mats: np.ndarray, factors: Sequence[LabeledSpace], labels) -> np.ndarray:
    """Trace the factors named in labels out of a (..., D, D) stack over
    factors (in storage order): one einsum in which a traced factor's row
    and column share a subscript. dim-1 factors take no subscript."""
    facs = [f for f in factors if f.dim > 1]
    n = len(facs)
    cols = [r if f.label in labels else r + n for r, f in enumerate(facs)]
    keep = [r for r, f in enumerate(facs) if f.label not in labels]
    d = math.prod(facs[r].dim for r in keep)
    batch = mats.shape[:-2]
    t = np.einsum(mats.reshape(batch + tuple(f.dim for f in facs) * 2),
                  [..., *range(n), *cols], [..., *keep, *(cols[r] for r in keep)])
    return t.reshape(batch + (d, d))


def _cptp_defects(chois: np.ndarray, factors: Sequence[LabeledSpace], out_labels,
                  d_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Per map of an (n, m, D, D) stack of Choi blocks over factors: the least
    eigenvalue of its m blocks (CP iff >= -CHOI_PSD_TOL) and ||Tr_out sum_m C -
    1_in||_F (TP iff <= TP_TOL). An instrument setting has m = outcomes, a
    channel m = 1; a state is a map from a trivial input (d_in = 1)."""
    low = np.linalg.eigvalsh(chois)[..., 0].min(axis=1)
    marginal = _partial_trace(chois.sum(axis=1), factors, out_labels)
    return low, np.linalg.norm(marginal - np.eye(d_in), axis=(1, 2))


def partial_trace(op: Operator, labels: Iterable[str]) -> Operator:
    """Trace out the named factors; the result keeps the remaining ones."""
    labels = set(labels)
    unknown = labels - set(op.space.labels)
    if unknown:
        raise KeyError(f"unknown labels {sorted(unknown)}")
    keep = [f for f in op.space.factors if f.label not in labels]
    cls = HermitianOperator if isinstance(op, HermitianOperator) else Operator
    return cls(SpaceProduct(keep), _partial_trace(op.mat, op.space.factors, labels))


def depolarize(op: Operator, labels: Iterable[str]) -> Operator:
    """Replace the named factors by maximally mixed states: (1_S/d_S) x Tr_S op."""
    labels = set(labels)
    if not labels:
        return op
    traced = partial_trace(op, labels)
    eye = identity(op.space.restrict(labels))
    return tensor(eye, traced) / eye.dim


def choi_of_kraus(kraus: Sequence[np.ndarray], in_space, out_space) -> HermitianOperator:
    """Unnormalized Choi matrix C = sum_k |K_k>><<K_k| on in (x) out.

    |K>> = (1 (x) K)|1>> with |1>> = sum_i |i>|i>, so the identity channel
    gives a rank-1 operator of trace d_in.
    """
    in_space = _as_space(in_space)
    out_space = _as_space(out_space)
    space = SpaceProduct(in_space.factors + out_space.factors)
    din, dout = in_space.dim, out_space.dim
    for k in kraus:
        if np.shape(k) != (dout, din):
            raise ValueError(f"Kraus shape {np.shape(k)} does not map dim {din} -> {dout}")
    ks = np.array(kraus, dtype=complex).reshape(len(kraus), dout, din)
    return HermitianOperator(space, _choi_stack(ks, in_space, out_space))


def _choi_stack(kraus: np.ndarray, in_space: SpaceProduct, out_space: SpaceProduct) -> np.ndarray:
    """Chois sum_k |K_k>><<K_k| of a (..., n_kraus, d_out, d_in) Kraus stack.

    One einsum, C[(i, o), (i', o')] = sum_k K_k[o, i] conj(K_k[o', i']),
    whose output subscripts put rows and columns straight into the
    canonical label order of in (x) out; the result is (..., D, D).
    """
    factors = in_space.factors + out_space.factors
    n_in, nf = len(in_space.factors), len(factors)
    lead = kraus.shape[:-3]
    batch = list(range(len(lead) + 1))  # leading axes, then the Kraus index
    rows = [len(batch) + r for r in range(nf)]
    cols = [r + nf for r in rows]
    t = kraus.reshape(kraus.shape[:-2] + out_space.dims + in_space.dims)
    canon = sorted(range(nf), key=lambda i: factors[i].label)
    c = np.einsum(t, batch + rows[n_in:] + rows[:n_in],
                  t.conj(), batch + cols[n_in:] + cols[:n_in],
                  batch[:-1] + [rows[i] for i in canon] + [cols[i] for i in canon])
    d = in_space.dim * out_space.dim
    return c.reshape(lead + (d, d))


def choi_vector(k: np.ndarray, in_space, out_space) -> PureVector:
    """Pure Choi vector |K>> of a single operator K: in -> out."""
    in_space = _as_space(in_space)
    out_space = _as_space(out_space)
    k = np.asarray(k, dtype=complex)
    if k.shape != (out_space.dim, in_space.dim):
        raise ValueError(
            f"operator shape {k.shape} does not map dim {in_space.dim} -> {out_space.dim}"
        )
    v = np.ascontiguousarray(k.T).reshape(-1)
    space, vec = _canonicalize(list(in_space.factors) + list(out_space.factors), v)
    return PureVector(space, vec)


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis of dim x dim matrices, identity first.

    Order: 1/sqrt(d), the d-1 diagonal traceless (Gell-Mann style) matrices,
    then the symmetric/antisymmetric off-diagonal pairs. Every element but
    the first is traceless.
    """
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(k):
            m[j, j] = 1.0
        m[k, k] = -k
        mats.append(m / np.sqrt(k * (k + 1)))
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
            mats.append(m / np.sqrt(2))
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            mats.append(m / np.sqrt(2))
    out = np.array(mats)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# coefficient-space engine

def _factor_groups(space: SpaceProduct, cap: int | None = None) -> tuple[SpaceProduct, ...]:
    """Adjacent runs of space's factors whose product g keeps g*g <= cap
    (default D); a factor with d*d > cap forms its own group."""
    cap = space.dim if cap is None else cap
    groups = [[]]
    g = 1
    for f in space.factors:
        if groups[-1] and (g * f.dim) ** 2 > cap:
            groups.append([])
            g = 1
        groups[-1].append(f)
        g *= f.dim
    return tuple(SpaceProduct(run) for run in groups)


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

    The group transforms, the factor layout (`_grouping`, one stack per
    group) and each GEMM's operand shape, its leading axis -1, are fixed
    when the basis is built, so a call runs one transposing copy
    (`_regroup`, or the layout's inverse) and the GEMMs and nothing else.

    ``cap`` replaces D in the bound g*g <= D on each group. The basis of
    some of a space's factors may take the whole space's D, so that its
    groups are as large as that space's basis allows: fewer GEMMs, and
    still no group matrix above the whole basis's bound max(D², d_max⁴).
    """

    def __init__(self, space, cap: int | None = None):
        self.labels = list(space.labels)
        self.dim = space.dim
        self.shape = tuple(d * d for d in space.dims)
        groups = _factor_groups(space, cap)
        self.group_dims = [g.dim for g in groups]
        self._layout = _grouping(space, groups)
        # group a's GEMM: the group matrix from the left on (-1, G_a, post),
        # or, when no axis follows, (-1, G_a) against its transpose
        sizes = [g * g for g in self.group_dims]
        self._steps = []
        for a, size in enumerate(sizes):
            post = math.prod(sizes[a + 1:])
            self._steps.append((-1, size) if post == 1 else (-1, size, post))
        us = [_group_basis(g.dims) for g in groups]
        # coeffs applies conj(U) per group, from_coeffs applies U^T
        self._fwd = [np.ascontiguousarray(u.conj()) for u in us]
        self._inv = [np.ascontiguousarray(u.T) for u in us]

    def _apply(self, x: np.ndarray, mats) -> np.ndarray:
        """Multiply group axis a of x by mats[a], one GEMM each."""
        for t, shape in zip(mats, self._steps):
            x = x.reshape(shape) @ t.T if len(shape) == 2 else np.matmul(t, x.reshape(shape))
        return x

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Complex coefficients Tr[B_k m] of any (..., D, D) stack."""
        return self._apply(_regroup(m, self._layout), self._fwd).reshape(m.shape[:-2] + self.shape)

    def to_coeffs(self, m: np.ndarray) -> np.ndarray:
        """Real coefficients of a Hermitian (..., D, D) stack."""
        return self.coeffs(m).real

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        pairs, order = self._layout[3]
        t = self._apply(c, self._inv).reshape(pairs).transpose(order)
        return t.reshape(c.shape[:c.ndim - len(self.shape)] + (self.dim, self.dim))

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


# ---------------------------------------------------------------------------
# random ensembles (deterministic given the generator state)

def _ginibre_density(g: np.ndarray) -> np.ndarray:
    """g g^dag / Tr[g g^dag] for each matrix of a (..., d, d) stack."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _haar_isometry(g: np.ndarray) -> np.ndarray:
    """Q of g = QR for each matrix of a (..., d_to, d_from) stack, with the
    phases of diag(R) moved into Q so that Ginibre g gives Haar Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace PSD matrix from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return _ginibre_density(g)


def random_isometry(d_from: int, d_to: int, rng: np.random.Generator) -> np.ndarray:
    """Haar isometry (d_to >= d_from) via QR with the phase convention fixed."""
    if d_to < d_from:
        raise ValueError("isometry needs d_to >= d_from")
    g = rng.normal(size=(d_to, d_from)) + 1j * rng.normal(size=(d_to, d_from))
    return _haar_isometry(g)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return random_isometry(dim, dim, rng)


def random_kraus(d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus family of a Haar-random CPTP channel d_in -> d_out."""
    v = random_isometry(d_in, d_out * n_kraus, rng)
    return [v[k * d_out : (k + 1) * d_out, :] for k in range(n_kraus)]

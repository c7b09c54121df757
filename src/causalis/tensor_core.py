"""Labeled tensor-product linear algebra.

Operators live over products of named Hilbert-space factors. Factors are
kept in a canonical order (sorted by label, row-major storage with the
last factor's index varying fastest), so two operators built from the
same labels in different orders compare entrywise. Everything here is a
pure function over immutable values; arrays are frozen after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-12


@dataclass(frozen=True)
class LabeledSpace:
    """A named Hilbert-space factor."""

    label: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("space label must be a non-empty string")
        # numpy integers are not int subclasses; int() alone would truncate 2.5
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise ValueError(f"space {self.label!r}: dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"space {self.label!r}: dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))


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
        d = 1
        for s in self.factors:
            d *= s.dim
        return d

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


def _checked_matrix(space, mat) -> tuple[SpaceProduct, np.ndarray]:
    """A complex copy of mat, square over space and free of NaN and inf.

    Non-finite entries are rejected here because NaN fails every `> tol`
    test downstream and would pass validity and Hermiticity checks.
    """
    space = _as_space(space)
    m = np.array(mat, dtype=complex)
    if m.shape != (space.dim, space.dim):
        raise ValueError(
            f"matrix shape {m.shape} does not match space dim {space.dim}"
        )
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite (NaN or inf) entries")
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

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return float(np.max(np.abs(self.mat - self.mat.conj().T))) <= tol

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        return _wrap_like(self, other, self.mat + other.mat)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        return _wrap_like(self, other, self.mat - other.mat)

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
        space, m = _checked_matrix(space, mat)
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
        m = (m + m.conj().T) / 2
        m.setflags(write=False)
        self.space = space
        self.mat = m


def _wrap_like(a: Operator, b: Operator, mat) -> Operator:
    cls = (
        HermitianOperator
        if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator)
        else Operator
    )
    return cls(a.space, mat)


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

def _canonicalize(factors: Sequence[LabeledSpace], mat: np.ndarray) -> tuple[SpaceProduct, np.ndarray]:
    """Permute a matrix built in `factors` order into canonical label order."""
    n = len(factors)
    perm = sorted(range(n), key=lambda i: factors[i].label)
    if perm == list(range(n)):
        return SpaceProduct(factors), mat
    dims = [f.dim for f in factors]
    t = mat.reshape(dims + dims)
    t = t.transpose(perm + [n + i for i in perm])
    d = int(np.prod(dims))
    return SpaceProduct(factors), t.reshape(d, d)


def _canonicalize_vec(factors: Sequence[LabeledSpace], vec: np.ndarray) -> tuple[SpaceProduct, np.ndarray]:
    n = len(factors)
    perm = sorted(range(n), key=lambda i: factors[i].label)
    if perm == list(range(n)):
        return SpaceProduct(factors), vec
    dims = [f.dim for f in factors]
    t = vec.reshape(dims).transpose(perm)
    return SpaceProduct(factors), t.reshape(-1)


def _check_disjoint(factor_lists: Sequence[Sequence[LabeledSpace]]):
    seen: dict[str, int] = {}
    for fl in factor_lists:
        for f in fl:
            if f.label in seen:
                raise ValueError(f"duplicate space label {f.label!r} in tensor product")
            seen[f.label] = 1


# ---------------------------------------------------------------------------
# core operations

def tensor(*ops: Operator) -> Operator:
    """Tensor product over disjoint label sets, in canonical factor order."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    _check_disjoint([o.space.factors for o in ops])
    factors: list[LabeledSpace] = []
    m = np.array([[1.0 + 0j]])
    for o in ops:
        factors.extend(o.space.factors)
        m = np.kron(m, o.mat)
    space, mat = _canonicalize(factors, m)
    cls = HermitianOperator if all(isinstance(o, HermitianOperator) for o in ops) else Operator
    return cls(space, mat)


def tensor_vectors(*vecs: PureVector) -> PureVector:
    if not vecs:
        raise ValueError("tensor_vectors() needs at least one vector")
    _check_disjoint([v.space.factors for v in vecs])
    factors: list[LabeledSpace] = []
    v = np.array([1.0 + 0j])
    for pv in vecs:
        factors.extend(pv.space.factors)
        v = np.kron(v, pv.vec)
    space, vec = _canonicalize_vec(factors, v)
    return PureVector(space, vec)


def identity(space) -> HermitianOperator:
    space = _as_space(space)
    return HermitianOperator(space, np.eye(space.dim, dtype=complex))


def partial_trace(op: Operator, labels: Iterable[str]) -> Operator:
    """Trace out the named factors; the result keeps the remaining ones."""
    labels = set(labels)
    unknown = labels - set(op.space.labels)
    if unknown:
        raise KeyError(f"unknown labels {sorted(unknown)}")
    dims = list(op.space.dims)
    n = len(dims)
    t = op.mat.reshape(dims + dims)
    current = list(op.space.labels)
    for lab in sorted(labels):
        i = current.index(lab)
        t = np.trace(t, axis1=i, axis2=i + len(current))
        current.pop(i)
    keep = [f for f in op.space.factors if f.label not in labels]
    d = int(np.prod([f.dim for f in keep])) if keep else 1
    cls = HermitianOperator if isinstance(op, HermitianOperator) else Operator
    return cls(SpaceProduct(keep), t.reshape(d, d))


def depolarize(op: Operator, labels: Iterable[str]) -> Operator:
    """Replace the named factors by maximally mixed states: (1_S/d_S) x Tr_S op."""
    labels = set(labels)
    if not labels:
        return op
    traced = partial_trace(op, labels)
    d_s = 1
    eyes = []
    for f in op.space.factors:
        if f.label in labels:
            d_s *= f.dim
            eyes.append(identity(SpaceProduct(f)))
    return tensor(*eyes, traced) / d_s


def choi_of_kraus(kraus: Sequence[np.ndarray], in_space, out_space) -> HermitianOperator:
    """Unnormalized Choi matrix C = sum_k |K_k>><<K_k| on in (x) out.

    |K>> = (1 (x) K)|1>> with |1>> = sum_i |i>|i>, so the identity channel
    gives a rank-1 operator of trace d_in.
    """
    in_space = _as_space(in_space)
    out_space = _as_space(out_space)
    _check_disjoint([in_space.factors, out_space.factors])
    din, dout = in_space.dim, out_space.dim
    for k in kraus:
        if np.shape(k) != (dout, din):
            raise ValueError(f"Kraus shape {np.shape(k)} does not map dim {din} -> {dout}")
    ks = np.array(kraus, dtype=complex).reshape(len(kraus), dout, din)
    return HermitianOperator(SpaceProduct(in_space.factors + out_space.factors),
                             _choi_stack(ks, in_space, out_space))


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
    space, vec = _canonicalize_vec(list(in_space.factors) + list(out_space.factors), v)
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

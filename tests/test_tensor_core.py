import numpy as np
import pytest

import causalis as cs
from causalis.tensor_core import (
    HermitianOperator,
    LabeledSpace,
    Operator,
    PureVector,
    SpaceProduct,
    choi_of_kraus,
    choi_vector,
    depolarize,
    hermitian_basis,
    hs_basis,
    identity,
    partial_trace,
    project_psd,
    random_density,
    random_isometry,
    random_kraus,
    random_unitary,
    tensor,
    tensor_vectors,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])


def herm(space, rng):
    d = space.dim if isinstance(space, SpaceProduct) else space
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# spaces

def test_space_product_sorts_and_rejects_duplicates():
    a = LabeledSpace("X", 2)
    b = LabeledSpace("A", 3)
    sp = SpaceProduct((a, b))
    assert sp.labels == ("A", "X")
    assert sp.dims == (3, 2)
    assert sp.dim == 6
    with pytest.raises(ValueError, match="duplicate"):
        SpaceProduct((a, LabeledSpace("X", 2)))


def test_labeled_space_validation():
    with pytest.raises(ValueError):
        LabeledSpace("", 2)
    with pytest.raises(ValueError):
        LabeledSpace("Q", 0)


def test_restrict_and_index():
    sp = SpaceProduct((LabeledSpace("A", 2), LabeledSpace("B", 3), LabeledSpace("C", 2)))
    assert sp.restrict(["C", "A"]).labels == ("A", "C")
    assert sp.index("B") == 1
    with pytest.raises(KeyError):
        sp.restrict(["Z"])


# ---------------------------------------------------------------------------
# operators

def test_operator_shape_check():
    with pytest.raises(ValueError, match="shape"):
        Operator(LabeledSpace("Q", 2), np.eye(3))


def test_hermitian_rejects_nonhermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianOperator(LabeledSpace("Q", 2), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_constructors_reject_non_finite(bad):
    q = LabeledSpace("Q", 2)
    m = np.eye(2, dtype=complex)
    m[0, 0] = bad
    for cls in (Operator, HermitianOperator):
        with pytest.raises(ValueError, match="non-finite"):
            cls(q, m)
    with pytest.raises(ValueError, match="non-finite"):
        PureVector(q, [bad, 0.0])


def test_arithmetic_class_promotion(rng):
    sp = SpaceProduct(LabeledSpace("Q", 2))
    h = HermitianOperator(sp, herm(sp, rng))
    k = HermitianOperator(sp, herm(sp, rng))
    assert isinstance(h + k, HermitianOperator)
    assert isinstance(2.0 * h, HermitianOperator)
    assert isinstance(1j * h, Operator) and not isinstance(1j * h, HermitianOperator)
    g = Operator(sp, rng.normal(size=(2, 2)))
    assert not isinstance(h + g, HermitianOperator)
    with pytest.raises(ValueError, match="different spaces"):
        h + HermitianOperator(LabeledSpace("R", 2), np.eye(2))


def test_tensor_order_independence(rng):
    a = Operator(LabeledSpace("A", 2), rng.normal(size=(2, 2)))
    b = Operator(LabeledSpace("B", 3), rng.normal(size=(3, 3)))
    ab = tensor(a, b)
    ba = tensor(b, a)
    assert ab.space == ba.space
    assert np.allclose(ab.mat, ba.mat)
    # canonical layout: labels sorted, so A (x) B is a literal kron
    assert np.allclose(ab.mat, np.kron(a.mat, b.mat))


def test_tensor_rejects_shared_labels():
    a = identity(LabeledSpace("A", 2))
    with pytest.raises(ValueError, match="duplicate"):
        tensor(a, identity(LabeledSpace("A", 2)))


def test_partial_trace_reduces_correctly(rng):
    a = herm(2, rng)
    b = herm(3, rng)
    op = tensor(
        HermitianOperator(LabeledSpace("A", 2), a),
        HermitianOperator(LabeledSpace("B", 3), b),
    )
    ta = partial_trace(op, ["B"])
    assert ta.space.labels == ("A",)
    assert np.allclose(ta.mat, a * np.trace(b))
    assert isinstance(ta, HermitianOperator)
    # tracing everything leaves a 1x1 operator holding the full trace
    t_all = partial_trace(op, ["A", "B"])
    assert t_all.mat.shape == (1, 1)
    assert np.isclose(t_all.mat[0, 0], np.trace(a) * np.trace(b))


def test_partial_trace_middle_factor(rng):
    spaces = [LabeledSpace(l, d) for l, d in (("A", 2), ("B", 2), ("C", 2))]
    ops = [HermitianOperator(s, herm(2, rng)) for s in spaces]
    full = tensor(*ops)
    red = partial_trace(full, ["B"])
    want = tensor(ops[0], ops[2]) * np.trace(ops[1].mat)
    assert np.allclose(red.mat, want.mat)


def test_depolarize_projector_properties(rng):
    sp = SpaceProduct((LabeledSpace("A", 2), LabeledSpace("B", 2)))
    x = HermitianOperator(sp, herm(sp, rng))
    da = depolarize(x, ["A"])
    # idempotent, trace preserving, commutes with depolarizing B
    assert np.allclose(depolarize(da, ["A"]).mat, da.mat)
    assert np.isclose(da.trace(), x.trace())
    dab = depolarize(depolarize(x, ["A"]), ["B"])
    dba = depolarize(depolarize(x, ["B"]), ["A"])
    assert np.allclose(dab.mat, dba.mat)
    assert np.allclose(dab.mat, depolarize(x, ["A", "B"]).mat)
    assert depolarize(x, []).mat is x.mat


def test_choi_identity_channel():
    c = choi_of_kraus([np.eye(2)], LabeledSpace("I", 2), LabeledSpace("O", 2))
    v = choi_vector(np.eye(2), LabeledSpace("I", 2), LabeledSpace("O", 2))
    assert np.isclose(c.trace().real, 2.0)
    assert np.allclose(c.mat, np.outer(v.vec, v.vec.conj()))
    # |1>> = |00> + |11> in (in, out) ordering
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1.0
    assert np.allclose(v.vec, want)


def test_choi_trace_preserving(rng):
    ks = random_kraus(2, 3, 2, rng)
    c = choi_of_kraus(ks, LabeledSpace("I", 2), LabeledSpace("O", 3))
    marg = partial_trace(c, ["O"])
    assert np.allclose(marg.mat, np.eye(2))
    assert np.linalg.eigvalsh(c.mat)[0] > -1e-12


def test_choi_kraus_shape_check():
    with pytest.raises(ValueError, match="Kraus shape"):
        choi_of_kraus([np.eye(3)], LabeledSpace("I", 2), LabeledSpace("O", 2))


def test_project_psd(rng):
    sp = SpaceProduct(LabeledSpace("Q", 4))
    x = HermitianOperator(sp, herm(sp, rng))
    p = project_psd(x)
    evals = np.linalg.eigvalsh(p.mat)
    assert evals[0] >= -1e-12
    # projection is the identity on PSD input
    assert np.allclose(project_psd(p).mat, p.mat)


def test_hermitian_basis_orthonormal():
    for d in (1, 2, 3, 4):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)
        assert np.allclose(basis[0], np.eye(d) / np.sqrt(d))
        for m in basis[1:]:
            assert abs(np.trace(m)) < 1e-12
            assert np.allclose(m, m.conj().T)


def test_hs_basis_spans(rng):
    sp = SpaceProduct((LabeledSpace("A", 2), LabeledSpace("B", 2)))
    basis = hs_basis(sp)
    assert len(basis) == 16
    x = herm(sp, rng)
    coeffs = [np.einsum("ij,ij->", b.mat.conj(), x).real for b in basis]
    recon = sum(c * b.mat for c, b in zip(coeffs, basis))
    assert np.allclose(recon, x)


# ---------------------------------------------------------------------------
# vectors

def test_pure_vector_density(rng):
    v = PureVector(LabeledSpace("Q", 2), [1.0, 1j])
    rho = v.density()
    assert np.isclose(rho.trace().real, 2.0)
    assert np.isclose(v.norm(), np.sqrt(2))


def test_tensor_vectors_matches_operator_tensor(rng):
    va = PureVector(LabeledSpace("B", 2), rng.normal(size=2) + 1j * rng.normal(size=2))
    vb = PureVector(LabeledSpace("A", 3), rng.normal(size=3) + 1j * rng.normal(size=3))
    v = tensor_vectors(va, vb)
    assert v.space.labels == ("A", "B")
    assert np.allclose(v.density().mat, tensor(va.density(), vb.density()).mat)


# ---------------------------------------------------------------------------
# random ensembles

@pytest.mark.parametrize("seed", range(5))
def test_random_isometry_unitarity(seed):
    rng = np.random.default_rng(seed)
    v = random_isometry(3, 7, rng)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
    u = random_unitary(4, rng)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        random_isometry(4, 2, rng)


def test_random_density_is_state(rng):
    rho = random_density(5, rng)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_random_kraus_trace_preserving(rng):
    ks = random_kraus(3, 2, 4, rng)
    total = sum(k.conj().T @ k for k in ks)
    assert np.allclose(total, np.eye(3), atol=1e-12)

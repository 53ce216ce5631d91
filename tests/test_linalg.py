from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from causalchannels.linalg import (
    SystemLayout,
    Subsystem,
    frobenius,
    is_unitary,
    partial_trace_dims,
    permute_subsystems_dims,
    product_residual,
)
from oracles import eig_hermitian, is_density, is_hermitian, is_psd, kron, partial_trace

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_formula_oracle(self):
        # (a (x) b)[i*db + k, j*db + l] = a[i, j] b[k, l]
        got = kron(X, Z)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert got[2 * i + k, 2 * j + l] == X[i, j] * Z[k, l]

    def test_associativity_up_to_flattening(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


class TestPartialTrace:
    def test_max_entangled_reduction(self):
        phi = np.eye(2).reshape(-1) / np.sqrt(2)
        rho = np.outer(phi, phi)
        reduced = partial_trace_dims(rho, [2, 2], keep=[0])
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12

    def test_product_factorization(self, rng):
        a = random_density(rng, 2)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b @ b.conj().T  # positive, not normalized
        reduced = partial_trace_dims(np.kron(a, b), [2, 3], keep=[0])
        assert np.max(np.abs(reduced - a * np.trace(b))) < 1e-10

    def test_preserves_full_trace(self, rng):
        rho = random_density(rng, 8)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            reduced = partial_trace_dims(rho, [2, 2, 2], keep=keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-10

    def test_composes(self, rng):
        rho = random_density(rng, 8)
        step1 = partial_trace_dims(rho, [2, 2, 2], keep=[1, 2])
        step2 = partial_trace_dims(step1, [2, 2], keep=[1])
        direct = partial_trace_dims(rho, [2, 2, 2], keep=[2])
        assert np.max(np.abs(step2 - direct)) < 1e-10

    def test_label_interface(self, rng):
        layout = SystemLayout.of(("a", 2), ("b", 2))
        rho = random_density(rng, 4)
        got = partial_trace(rho, layout, ["b"])
        assert np.max(np.abs(got - partial_trace_dims(rho, [2, 2], keep=[0]))) == 0

    def test_unknown_label(self, rng):
        layout = SystemLayout.of(("a", 2), ("b", 2))
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_trace(random_density(rng, 4), layout, ["c"])

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace_dims(random_density(rng, 4), [2, 3], keep=[0])


class TestPermute:
    def test_identity(self, rng):
        rho = random_density(rng, 6)
        assert np.array_equal(permute_subsystems_dims(rho, [2, 3], [0, 1]), rho)

    def test_swap_product(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        got = permute_subsystems_dims(np.kron(a, b), [2, 3], [1, 0])
        assert np.max(np.abs(got - np.kron(b, a))) < 1e-12

    def test_transposition_involution(self, rng):
        rho = random_density(rng, 8)
        once = permute_subsystems_dims(rho, [2, 2, 2], [1, 0, 2])
        twice = permute_subsystems_dims(once, [2, 2, 2], [1, 0, 2])
        assert np.max(np.abs(twice - rho)) < 1e-14

    def test_invalid_permutation(self, rng):
        with pytest.raises(ValueError, match="invalid permutation"):
            permute_subsystems_dims(random_density(rng, 4), [2, 2], [0, 0])


class TestEigHermitian:
    def test_diagonal(self):
        vals, _ = eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(vals, [3.0, 1.0])

    def test_pauli_x(self):
        vals, vecs = eig_hermitian(X)
        assert np.allclose(vals, [1.0, -1.0])
        plus = np.array([1, 1]) / np.sqrt(2)
        overlap = abs(plus.conj() @ vecs[:, 0])
        assert abs(overlap - 1.0) < 1e-12  # up to phase

    def test_reconstruction_oracle(self, rng):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (g + g.conj().T) / 2
        vals, vecs = eig_hermitian(m)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - m) < 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) < 1e-10

    def test_eigenvalue_sum_is_trace(self, rng):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = (g + g.conj().T) / 2
        vals, _ = eig_hermitian(m)
        assert abs(vals.sum() - np.trace(m).real) < 1e-10 * 6

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPredicates:
    def test_negative_identity_not_psd(self):
        assert not is_psd(-np.eye(3))

    def test_hadamard_unitary(self):
        assert is_unitary(H)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed_is_density(self, d):
        assert is_density(np.eye(d) / d)

    def test_hermitian(self):
        assert is_hermitian(X)
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSystemLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SystemLayout((Subsystem("a", 2), Subsystem("a", 3)))

    def test_dims_and_total(self):
        layout = SystemLayout.of(("a", 2), ("b", 3, "untrusted-in"))
        assert layout.dims == (2, 3)
        assert layout.dim == 6
        assert layout.index("b") == 1


def _embed_operator(op, dims, positions):
    """Reference embedding: ``op`` on the factors ``positions`` tensored with
    the identity elsewhere, by a Kronecker product and a factor permutation."""
    n = len(dims)
    positions = list(positions)
    rest = [k for k in range(n) if k not in positions]
    d_rest = 1
    for k in rest:
        d_rest *= dims[k]
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest, dtype=complex))
    current = positions + rest
    inverse = [current.index(k) for k in range(n)]
    return permute_subsystems_dims(big, [dims[k] for k in current], inverse)


def _reference_product_residual(m, dims, traced):
    kept = [k for k in range(len(dims)) if k not in traced]
    sigma = partial_trace_dims(m, dims, kept)
    d = 1
    for k in traced:
        d *= dims[k]
    return frobenius(m - _embed_operator(sigma / d, dims, kept)), sigma


class TestProductResidual:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bitwise_equal_to_embedded_reference(self, rng, n):
        for _ in range(4):
            dims = [int(v) for v in rng.integers(1, 4, size=n)]
            total = int(np.prod(dims))
            m = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
            for r in range(n + 1):
                for traced in combinations(range(n), r):
                    kept = [k for k in range(n) if k not in traced]
                    d_kept = int(np.prod([dims[k] for k in kept]))
                    # near a product, where the residual sees every rounding of the target
                    near = _embed_operator(random_density(rng, d_kept), dims, kept) / 3
                    for op in (m, near + 1e-12 * m):
                        got, sigma = product_residual(op, dims, list(traced))
                        ref, ref_sigma = _reference_product_residual(op, dims, list(traced))
                        assert got == ref, (dims, traced)
                        assert np.array_equal(sigma, ref_sigma), (dims, traced)

    def test_product_form_has_zero_residual(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 3)
        res, sigma = product_residual(np.kron(a, np.eye(3) / 3), [2, 3], [1])
        assert res < 1e-15
        assert np.max(np.abs(sigma - a)) < 1e-15
        res, _ = product_residual(np.kron(a, b), [2, 3], [1])
        assert abs(res - frobenius(np.kron(a, b - np.eye(3) / 3))) < 1e-14

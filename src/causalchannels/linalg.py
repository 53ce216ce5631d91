"""Dense complex linear algebra over multi-subsystem Hilbert spaces.

Everything in this package stores operators as plain ``numpy`` arrays of
``complex128``; this module provides the tensor bookkeeping (Kronecker
products, partial traces, subsystem permutations), spectral routines and
validity predicates that the rest of the package builds on.

Subsystem ordering convention: party 1 is the leftmost tensor factor,
within a party the input factor precedes the output factor, and a trusted
party always comes last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

ROLES = ("untrusted-in", "untrusted-out", "trusted-in", "trusted-out", "ancilla")


@dataclass(frozen=True)
class Subsystem:
    label: str
    dim: int
    role: str = "ancilla"

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"subsystem {self.label!r} must have positive dimension")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for subsystem {self.label!r}")


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of labelled subsystems with their dimensions."""

    subsystems: tuple[Subsystem, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError("subsystem labels must be unique")
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})

    @classmethod
    def of(cls, *subsystems: tuple[str, int] | tuple[str, int, str]) -> "SystemLayout":
        return cls(tuple(Subsystem(*spec) for spec in subsystems))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    @property
    def dim(self) -> int:
        out = 1
        for s in self.subsystems:
            out *= s.dim
        return out

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown subsystem label {label!r}") from None

    def indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(lab) for lab in labels)

    def dim_of(self, labels: Iterable[str]) -> int:
        out = 1
        for lab in labels:
            out *= self.subsystems[self.index(lab)].dim
        return out


# ----------------------------------------------------------------------------
# Tensor construction helpers
# ----------------------------------------------------------------------------

def dag(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def max_entangled(dim: int) -> np.ndarray:
    """Normalized maximally entangled vector on C^dim x C^dim."""
    v = np.eye(dim, dtype=complex).reshape(-1)
    return v / np.sqrt(dim)


# ----------------------------------------------------------------------------
# Partial trace and permutations
# ----------------------------------------------------------------------------

def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_total_dim(m: np.ndarray, dims: Sequence[int]) -> None:
    total = 1
    for d in dims:
        total *= d
    if m.shape[-1] != total:
        raise ValueError(
            f"matrix dimension {m.shape[-1]} does not match subsystem dims {tuple(dims)}"
        )


def partial_trace_dims(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems except ``keep`` (indices into ``dims``).

    The kept subsystems stay in their original relative order.
    """
    m = _as_square(m)
    _check_total_dim(m, dims)
    n = len(dims)
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range")
    traced = sorted(set(range(n)) - set(keep), reverse=True)
    t = m.reshape(tuple(dims) + tuple(dims))
    remaining = n
    for ax in traced:
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_trace(m: np.ndarray, layout: SystemLayout, traced: Iterable[str]) -> np.ndarray:
    """Reduced matrix after tracing out the labelled subsystems."""
    traced_idx = set(layout.indices(traced))
    keep = [k for k in range(len(layout.subsystems)) if k not in traced_idx]
    return partial_trace_dims(m, layout.dims, keep)


def partial_trace_pure(vec: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state, keeping the given subsystems.

    The kept factors appear in the order listed in ``keep`` (which may reorder
    them relative to ``dims``).
    """
    vec = np.asarray(vec, dtype=complex).reshape(tuple(dims))
    n = len(dims)
    keep = list(keep)
    discard = [k for k in range(n) if k not in keep]
    t = np.transpose(vec, keep + discard)
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    flat = t.reshape(d_keep, -1)
    return flat @ flat.conj().T


def permute_subsystems_dims(
    m: np.ndarray, dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Conjugate by the permutation of tensor factors.

    ``perm[k]`` is the index (into ``dims``) of the factor placed at position
    ``k`` of the output.  Leading axes of ``m`` index a stack of matrices,
    each permuted alike.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_total_dim(m, dims)
    n, b = len(dims), m.ndim - 2
    if sorted(perm) != list(range(n)):
        raise ValueError(f"invalid permutation {tuple(perm)} for {n} subsystems")
    axes = list(range(b)) + [b + p for p in perm] + [b + n + p for p in perm]
    t = m.reshape(m.shape[:b] + tuple(dims) * 2).transpose(axes)
    return np.ascontiguousarray(t.reshape(m.shape))


def embed_operator(
    op: np.ndarray, dims: Sequence[int], positions: Sequence[int]
) -> np.ndarray:
    """Embed ``op`` (acting on the factors listed in ``positions``) into the
    full space described by ``dims``, tensoring identity elsewhere."""
    n = len(dims)
    positions = list(positions)
    rest = [k for k in range(n) if k not in positions]
    d_rest = 1
    for k in rest:
        d_rest *= dims[k]
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest, dtype=complex))
    # big acts on factors ordered [positions..., rest...]; undo that ordering.
    current = positions + rest
    inverse = [current.index(k) for k in range(n)]
    reordered_dims = [dims[k] for k in current]
    return permute_subsystems_dims(big, reordered_dims, inverse)


def apply_gate_to_tensor(
    state: np.ndarray, gate: np.ndarray, axes: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Apply a unitary to the given axes of a pure-state tensor."""
    axes = list(axes)
    target_dims = [dims[a] for a in axes]
    d_gate = 1
    for d in target_dims:
        d_gate *= d
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (d_gate, d_gate):
        raise ValueError(
            f"gate of shape {gate.shape} does not fit target dims {tuple(target_dims)}"
        )
    g = gate.reshape(tuple(target_dims) * 2)
    r = len(axes)
    out = np.tensordot(g, state, axes=(list(range(r, 2 * r)), axes))
    return np.moveaxis(out, list(range(r)), axes)


# ----------------------------------------------------------------------------
# Spectral routines and predicates
# ----------------------------------------------------------------------------

def eig_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order; column ``k`` of the eigenvector matrix matches
    eigenvalue ``k``. Raises if ``m`` is not Hermitian within ``tol``.
    """
    m = _as_square(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _as_square(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _as_square(m)
    if not is_hermitian(m, tol):
        return False
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(vals.min() >= -tol)


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _as_square(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def is_density(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _as_square(m)
    return is_psd(m, tol) and abs(np.trace(m) - 1.0) <= tol


def min_eig(m: np.ndarray) -> float:
    m = _as_square(m)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """0.5 * trace norm of (a - b) for Hermitian a, b."""
    diff = _as_square(np.asarray(a) - np.asarray(b))
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(np.sum(np.abs(vals)) / 2)


def hermitize(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2

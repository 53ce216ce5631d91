"""Independent second opinions that only the tests call.

The library in ``src/`` holds what the CLI and the paper's constructions
use; the references here recompute some of its results by another route
and import only its public names:

- :func:`simulate_circuit` runs a circuit on a given input state, never
  touching the Choi representation, as the oracle for ``compile_circuit``;
- :func:`pr_box_kraus_channel` builds the PR channel from hand-written
  Kraus operators, as the oracle for the PR-box circuit;
- :func:`words_orthogonal` decides a word pair's clash by a walk over its
  entries, as the oracle for the moment skeleton's zero classes;
- the linear-algebra helpers (Kronecker product, maximally entangled vector,
  partial trace by label, sorted eigen-decomposition and the Hermitian, PSD
  and density predicates).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from causalchannels.channels import CircuitChannel, KrausSet, Party, choi_from_kraus
from causalchannels.linalg import (
    DEFAULT_TOL,
    SystemLayout,
    apply_gate_to_tensor,
    basis_state,
    hermitize,
    min_eig,
    partial_trace_dims,
    partial_trace_pure,
)


# -- linear algebra --------------------------------------------------------------

def _square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def max_entangled(dim: int) -> np.ndarray:
    """Normalized maximally entangled vector on C^dim x C^dim."""
    v = np.eye(dim, dtype=complex).reshape(-1)
    return v / np.sqrt(dim)


def partial_trace(m: np.ndarray, layout: SystemLayout, traced: Iterable[str]) -> np.ndarray:
    """Reduced matrix after tracing out the labelled subsystems."""
    traced_idx = {layout.index(lab) for lab in traced}
    keep = [k for k in range(len(layout.subsystems)) if k not in traced_idx]
    return partial_trace_dims(m, layout.dims, keep)


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = _square(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def eig_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order; column ``k`` of the eigenvector matrix matches
    eigenvalue ``k``. Raises if ``m`` is not Hermitian within ``tol``.
    """
    m = _square(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return is_hermitian(m, tol) and min_eig(m) >= -tol


def is_density(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return is_psd(m, tol) and abs(np.trace(_square(m)) - 1.0) <= tol


# -- channels ----------------------------------------------------------------------

def simulate_circuit(circ: CircuitChannel, input_state: np.ndarray) -> np.ndarray:
    """Run the circuit directly on a given joint input state.

    ``input_state`` may be a vector or density matrix on the tensor product of
    the party input registers (in party order).  Returns the output density
    matrix on the party output registers (in party order).  Both the input
    and a mixed ancilla preparation are split into eigenvectors, and each
    pure branch runs through the gates as a state vector.
    """
    circ.validate()
    parties = circ.to_channel_parties()
    reg_labels = list(circ.registers.labels)
    reg_dims = list(circ.registers.dims)
    in_dims = [p.dim_in for p in parties]
    d_in = int(np.prod(in_dims))

    input_state = np.asarray(input_state, dtype=complex)
    if input_state.ndim == 1:
        input_state = np.outer(input_state, input_state.conj())
    if input_state.shape != (d_in, d_in):
        raise ValueError(f"input state shape {input_state.shape} != ({d_in}, {d_in})")

    prep = np.asarray(circ.ancilla_prep, dtype=complex)
    if prep.ndim == 1:
        anc_vals, anc_vecs = np.ones(1), prep[:, None]
    else:
        anc_vals, anc_vecs = np.linalg.eigh(hermitize(prep))
    in_vals, in_vecs = np.linalg.eigh(hermitize(input_state))
    keep_axes = [reg_labels.index(lab) for lab in circ.keep]
    anc_labels = list(circ.ancilla_registers)
    anc_dims = [reg_dims[reg_labels.index(lab)] for lab in anc_labels]
    axis_names = list(circ.input_registers) + anc_labels
    order = [axis_names.index(lab) for lab in reg_labels]

    out = None
    for weight_anc, anc_vec in zip(anc_vals, anc_vecs.T):
        if weight_anc <= 1e-12:
            continue
        for lam, vec in zip(in_vals, in_vecs.T):
            if lam <= 1e-14:
                continue
            # the pure joint state over all registers, in register order
            state = np.multiply.outer(
                vec.reshape(tuple(in_dims)), anc_vec.reshape(tuple(anc_dims))
            )
            state = np.transpose(state, order)
            for gate in circ.gates:
                axes = [reg_labels.index(lab) for lab in gate.acts_on]
                state = apply_gate_to_tensor(state, gate.unitary, axes, reg_dims)
            rho = partial_trace_pure(state, reg_dims, keep_axes)
            term = float(weight_anc * lam) * rho
            out = term if out is None else out + term
    assert out is not None
    return out


def pr_box_kraus_channel():
    """Hand-built measure-and-prepare form of the PR channel."""
    ops = []
    for x in range(2):
        for y in range(2):
            for a in range(2):
                b = a ^ (x & y)
                ket = np.kron(basis_state(2, a), basis_state(2, b))
                bra = np.kron(basis_state(2, x), basis_state(2, y))
                ops.append(np.outer(ket, bra.conj()) / np.sqrt(2))
    ks = KrausSet(tuple(ops), 4, 4)
    return choi_from_kraus(ks, (Party("A", 2, 2), Party("B", 2, 2)))


# -- moment skeleton ---------------------------------------------------------------

def words_orthogonal(u, v) -> bool:
    """Words clash when a shared party has equal input but different outcome."""
    by_party = {p: (a, x) for p, a, x in u}
    for p, a, x in v:
        if p in by_party:
            a2, x2 = by_party[p]
            if x == x2 and a != a2:
                return True
    return False

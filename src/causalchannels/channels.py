"""CPTP maps over party-structured systems: Choi, Kraus and circuit forms.

A :class:`Channel` stores the *normalized* Choi state
``Omega = (Lambda (x) id)(|Phi+><Phi+|)`` with ``|Phi+>`` normalized, so
``tr(Omega) = 1``.  The Choi factors are ordered party by party with each
party's input factor before its output factor (trusted party last), i.e.
``[in_1, out_1, in_2, out_2, ...]``; maps act on it grouped ``[ins..., outs...]``.
:attr:`Channel._grouped` and :meth:`Channel.from_grouped` are the only maps
between the two layouts, and each (read-only) Choi is regrouped once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SystemLayout,
    apply_gate_to_tensor,
    frobenius,
    hermitize,
    is_unitary,
    min_eig,
    partial_trace_dims,
    partial_trace_pure,
    permute_subsystems_dims,
)

KRAUS_RANK_CUTOFF = 1e-10
CHOI_DIM_CAP = 4096  # largest Choi dimension a document may declare (dense: 256 MiB)


@dataclass(frozen=True)
class Party:
    label: str
    dim_in: int
    dim_out: int
    trusted: bool = False


class Channel:
    """A CPTP map stored as a normalized Choi state with party metadata."""

    def __init__(self, parties: tuple[Party, ...] | list[Party], choi: np.ndarray):
        parties = tuple(parties)
        labels = [p.label for p in parties]
        if len(set(labels)) != len(labels):
            raise ValueError("party labels must be unique")
        trusted = [p for p in parties if p.trusted]
        if len(trusted) > 1:
            raise ValueError("at most one trusted party is supported")
        if trusted and not parties[-1].trusted:
            raise ValueError("the trusted party must be last")
        choi = np.asarray(choi, dtype=complex)
        if choi.flags.writeable or not choi.flags.c_contiguous:
            choi = np.array(choi)  # a private read-only copy; a read-only array is kept
            choi.flags.writeable = False
        self.parties = parties
        self._choi = choi
        if choi.shape != (self.total_dim, self.total_dim):
            raise ValueError(
                f"choi shape {choi.shape} does not match layout dimension {self.total_dim}"
            )

    @property
    def choi(self) -> np.ndarray:
        """The normalized Choi state, read-only."""
        return self._choi

    # -- layout bookkeeping ---------------------------------------------------

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    @property
    def dims_in(self) -> tuple[int, ...]:
        return tuple(p.dim_in for p in self.parties)

    @property
    def dims_out(self) -> tuple[int, ...]:
        return tuple(p.dim_out for p in self.parties)

    @property
    def dim_in(self) -> int:
        return int(np.prod(self.dims_in))

    @property
    def dim_out(self) -> int:
        return int(np.prod(self.dims_out))

    @property
    def factor_dims(self) -> tuple[int, ...]:
        dims: list[int] = []
        for p in self.parties:
            dims.extend((p.dim_in, p.dim_out))
        return tuple(dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def trusted_party(self) -> Party | None:
        return self.parties[-1] if self.parties and self.parties[-1].trusted else None

    @property
    def untrusted(self) -> tuple[Party, ...]:
        return tuple(p for p in self.parties if not p.trusted)

    def in_factor(self, k: int) -> int:
        return 2 * k

    def out_factor(self, k: int) -> int:
        return 2 * k + 1

    @cached_property
    def _grouped(self) -> np.ndarray:
        """Choi with factors reordered to [all ins..., all outs...], indexed
        ``[in, out, in', out']``; read-only like the Choi it is taken from."""
        n = self.n_parties
        perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
        g = permute_subsystems_dims(self._choi, self.factor_dims, perm)
        g.flags.writeable = False
        return g.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    @classmethod
    def from_grouped(cls, parties: tuple[Party, ...] | list[Party], grouped) -> Channel:
        """The channel whose Choi, grouped ``[ins..., outs...]`` (a matrix or
        ``[in, out, in', out']``), is ``grouped``: the inverse of :attr:`_grouped`."""
        n = len(parties)
        dims = [p.dim_in for p in parties] + [p.dim_out for p in parties]
        d = int(np.prod(dims))
        perm = [f for k in range(n) for f in (k, n + k)]
        return cls(parties, permute_subsystems_dims(np.reshape(grouped, (d, d)), dims, perm))

    # -- validation -----------------------------------------------------------

    def _tp_residual(self) -> float:
        n = self.n_parties
        reduced = partial_trace_dims(
            self.choi, self.factor_dims, keep=[2 * k for k in range(n)]
        )
        return frobenius(reduced - np.eye(self.dim_in) / self.dim_in)

    def validity_residuals(self) -> tuple[float, float]:
        """(negative-eigenvalue magnitude, trace-preservation residual)."""
        return max(0.0, -min_eig(self.choi)), self._tp_residual()

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Finite entries, then trace preservation (linear in the Choi size),
        then positivity (an eigendecomposition)."""
        if not np.isfinite(self.choi).all():
            raise ValueError("choi entries must be finite")
        tp = self._tp_residual()
        if tp > tol:
            raise ValueError(f"channel is not trace preserving: residual {tp:.3e}")
        neg = max(0.0, -min_eig(self.choi))
        if neg > tol:
            raise ValueError(f"choi is not PSD: min eigenvalue -{neg:.3e}")

    # -- action ---------------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate ``Lambda(rho)`` via the Choi contraction.

        Works for any input operator (not only density matrices); linearity of
        the contraction is what the extraction routines rely on.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise ValueError(
                f"input of shape {rho.shape} does not match channel input dim {self.dim_in}"
            )
        return self.dim_in * np.einsum("ji,jaib->ab", rho, self._grouped, optimize=True)

    def dual_apply(self, effect: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint: ``tr[E Lambda(rho)] = tr[dual(E) rho]``."""
        effect = np.asarray(effect, dtype=complex)
        if effect.shape != (self.dim_out, self.dim_out):
            raise ValueError(
                f"effect of shape {effect.shape} does not match output dim {self.dim_out}"
            )
        x = np.einsum("op,ipjo->ij", effect, self._grouped, optimize=True)
        return self.dim_in * x.T

    def apply_to_subsystems(
        self, rho: np.ndarray, dims: tuple[int, ...], positions: tuple[int, ...]
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Apply the channel to the listed tensor factors of a larger state.

        ``positions[k]`` is the factor of ``rho`` fed into the k-th party
        input; the other factors are left untouched.  Leading axes of ``rho``
        index a stack of states, all mapped in one contraction.  Returns the
        new state(s) and the factor dimensions (channel outputs replace the
        inputs at the same positions).
        """
        rho = np.asarray(rho, dtype=complex)
        stack = rho.shape[:-2]
        n = len(dims)
        if sorted(set(positions)) != sorted(positions) or len(positions) != self.n_parties:
            raise ValueError("positions must list one distinct factor per party")
        for k, pos in enumerate(positions):
            if dims[pos] != self.dims_in[k]:
                raise ValueError(
                    f"factor {pos} has dim {dims[pos]}, expected {self.dims_in[k]}"
                )
        rest = [k for k in range(n) if k not in positions]
        perm = list(positions) + rest
        work = permute_subsystems_dims(rho, dims, perm)
        d_rest = 1
        for k in rest:
            d_rest *= dims[k]
        work = work.reshape(stack + (self.dim_in, d_rest, self.dim_in, d_rest))
        out = self.dim_in * np.einsum("...jsit,jaib->...asbt", work, self._grouped, optimize=True)
        out = out.reshape(stack + (self.dim_out * d_rest, self.dim_out * d_rest))
        # restore the original factor ordering, outputs sitting at `positions`
        out_dims = list(self.dims_out) + [dims[k] for k in rest]
        current = list(positions) + rest
        inverse = [current.index(k) for k in range(n)]
        new_dims = [0] * n
        for slot, k in enumerate(current):
            new_dims[k] = out_dims[slot]
        return (
            permute_subsystems_dims(out, out_dims, inverse),
            tuple(new_dims),
        )


@dataclass(frozen=True)
class KrausSet:
    """Kraus decomposition; each operator maps the input to the output space."""

    operators: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def completeness_residual(self) -> float:
        acc = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for op in self.operators:
            acc += op.conj().T @ op
        return frobenius(acc - np.eye(self.dim_in))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        for op in self.operators:
            if op.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {op.shape} != ({self.dim_out}, {self.dim_in})"
                )
        res = self.completeness_residual()
        if res > tol:
            raise ValueError(f"Kraus set is not trace preserving: residual {res:.3e}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for op in self.operators:
            out += op @ rho @ op.conj().T
        return out


def kraus_from_choi(ch: Channel) -> KrausSet:
    """Extract Kraus operators from the Choi state.

    Eigenvalues at or below ``KRAUS_RANK_CUTOFF`` are treated as numerical
    noise and dropped, so the rank of the returned set matches the effective
    rank of the Choi matrix.
    """
    d = ch.dim_in * ch.dim_out
    unnorm = ch.dim_in * ch._grouped.reshape(d, d)
    vals, vecs = np.linalg.eigh(hermitize(unnorm))
    if vals.min() < -1e-8:
        raise ValueError(f"choi is not PSD: min eigenvalue {vals.min():.3e}")
    ops = []
    for lam, vec in zip(vals, vecs.T):
        if lam <= KRAUS_RANK_CUTOFF:
            continue
        k = np.sqrt(lam) * vec.reshape(ch.dim_in, ch.dim_out).T
        ops.append(np.ascontiguousarray(k))
    return KrausSet(tuple(ops), ch.dim_in, ch.dim_out)


def choi_from_kraus(ks: KrausSet, parties: tuple[Party, ...] | list[Party]) -> Channel:
    """Assemble a Channel from Kraus operators over the given party layout."""
    d_in = int(np.prod([p.dim_in for p in parties]))
    d_out = int(np.prod([p.dim_out for p in parties]))
    if (ks.dim_in, ks.dim_out) != (d_in, d_out):
        raise ValueError("Kraus dimensions do not match the party layout")
    grouped = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for op in ks.operators:
        vec = op.T.reshape(-1)  # vec over (in, out) index pair
        grouped += np.outer(vec, vec.conj())
    grouped /= d_in
    return Channel.from_grouped(parties, grouped)


def identity_channel(dims: tuple[int, ...]) -> Channel:
    parties = [Party(f"p{k + 1}", d, d) for k, d in enumerate(dims)]
    d_tot = int(np.prod(dims))
    ks = KrausSet((np.eye(d_tot, dtype=complex),), d_tot, d_tot)
    return choi_from_kraus(ks, parties)


def channel_from_unitary(u: np.ndarray, parties: tuple[Party, ...] | list[Party]) -> Channel:
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, 1e-8):
        raise ValueError("input matrix is not unitary")
    d_in = int(np.prod([p.dim_in for p in parties]))
    return choi_from_kraus(KrausSet((u,), d_in, u.shape[0]), tuple(parties))


def compose_serial(a: Channel, b: Channel) -> Channel:
    """Channel performing ``a`` first, then ``b``."""
    if a.n_parties != b.n_parties:
        raise ValueError("serial composition requires matching party counts")
    for pa, pb in zip(a.parties, b.parties):
        if pa.dim_out != pb.dim_in:
            raise ValueError(
                f"party {pa.label!r}: output dim {pa.dim_out} != next input dim {pb.dim_in}"
            )
    ka = kraus_from_choi(a)
    kb = kraus_from_choi(b)
    ops = tuple(opb @ opa for opa in ka.operators for opb in kb.operators)
    parties = tuple(
        Party(pa.label, pa.dim_in, pb.dim_out, pa.trusted)
        for pa, pb in zip(a.parties, b.parties)
    )
    return choi_from_kraus(KrausSet(ops, a.dim_in, b.dim_out), parties)


def compose_parallel(a: Channel, b: Channel) -> Channel:
    """Tensor composition; the parties of ``a`` precede those of ``b``."""
    if a.trusted_party is not None:
        raise ValueError("trusted party must belong to the last block")
    labels_a = {p.label for p in a.parties}
    parties = list(a.parties)
    for p in b.parties:
        label = p.label if p.label not in labels_a else f"{p.label}'"
        parties.append(Party(label, p.dim_in, p.dim_out, p.trusted))
    choi = np.kron(a.choi, b.choi)
    return Channel(tuple(parties), choi)


# ----------------------------------------------------------------------------
# Circuit form
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitParty:
    label: str
    input_register: str
    output_registers: tuple[str, ...]
    trusted: bool = False


@dataclass(frozen=True)
class CircuitGate:
    unitary: np.ndarray
    acts_on: tuple[str, ...]


@dataclass(frozen=True)
class CircuitChannel:
    """Unitary-dilation description compilable to a :class:`Channel`.

    ``registers`` lists every wire with its dimension.  Each party owns one
    input register and an ordered tuple of output registers; the ancilla
    preparation covers all non-input registers (in layout order) and may be a
    pure state vector or a density matrix.  Registers that are not kept as
    outputs are traced out at the end.
    """

    registers: SystemLayout
    parties: tuple[CircuitParty, ...]
    ancilla_prep: np.ndarray
    gates: tuple[CircuitGate, ...]

    @property
    def input_registers(self) -> tuple[str, ...]:
        return tuple(p.input_register for p in self.parties)

    @property
    def keep(self) -> tuple[str, ...]:
        out: list[str] = []
        for p in self.parties:
            out.extend(p.output_registers)
        return tuple(out)

    @property
    def ancilla_registers(self) -> tuple[str, ...]:
        inputs = set(self.input_registers)
        return tuple(lab for lab in self.registers.labels if lab not in inputs)

    def validate(self, tol: float = 1e-8) -> None:
        labels = set(self.registers.labels)
        seen_outputs: set[str] = set()
        for p in self.parties:
            if p.input_register not in labels:
                raise ValueError(f"party {p.label!r}: unknown input register")
            for reg in p.output_registers:
                if reg not in labels:
                    raise ValueError(f"party {p.label!r}: unknown output register {reg!r}")
                if reg in seen_outputs:
                    raise ValueError(f"output register {reg!r} assigned twice")
                seen_outputs.add(reg)
        anc_dim = self.registers.dim_of(self.ancilla_registers)
        prep = np.asarray(self.ancilla_prep)
        if not np.isfinite(prep).all():
            raise ValueError("ancilla_prep entries must be finite")
        if prep.ndim == 1:
            if prep.shape != (anc_dim,):
                raise ValueError(
                    f"ancilla_prep vector of length {prep.shape[0]} != ancilla dim {anc_dim}"
                )
        elif prep.shape != (anc_dim, anc_dim):
            raise ValueError(
                f"ancilla_prep of shape {prep.shape} does not match ancilla dim {anc_dim}"
            )
        for gate in self.gates:
            dims = [self.registers.dims[self.registers.index(lab)] for lab in gate.acts_on]
            d = int(np.prod(dims))
            u = np.asarray(gate.unitary)
            if u.shape != (d, d):
                raise ValueError(
                    f"gate on {gate.acts_on} has shape {u.shape}, registers give dim {d}"
                )
            if not is_unitary(u, tol):
                raise ValueError(f"gate on {gate.acts_on} is not unitary within {tol}")

    def to_channel_parties(self) -> tuple[Party, ...]:
        out = []
        for p in self.parties:
            d_in = self.registers.dims[self.registers.index(p.input_register)]
            d_out = self.registers.dim_of(p.output_registers)
            out.append(Party(p.label, d_in, d_out, p.trusted))
        return tuple(out)


def _prep_branches(prep: np.ndarray) -> list[tuple[float, np.ndarray]]:
    prep = np.asarray(prep, dtype=complex)
    if prep.ndim == 1:
        return [(1.0, prep)]
    vals, vecs = np.linalg.eigh(hermitize(prep))
    branches = []
    for lam, vec in zip(vals, vecs.T):
        if lam > 1e-12:
            branches.append((float(lam), vec))
    return branches


def check_choi_dim(d: int) -> None:
    """Refuse a Choi dimension above ``CHOI_DIM_CAP``."""
    if d > CHOI_DIM_CAP:
        raise ValueError(f"Choi dimension {d} exceeds the cap {CHOI_DIM_CAP}")


def check_compile_size(circ: CircuitChannel) -> None:
    """Refuse a valid circuit whose compilation would exceed ``CHOI_DIM_CAP``:
    its Choi matrix, or the initial pure state :func:`_initial_tensor` builds
    on one reference per party input and every register."""
    parties = circ.to_channel_parties()
    d_in = math.prod(p.dim_in for p in parties)
    check_choi_dim(d_in * math.prod(p.dim_out for p in parties))
    state = d_in * circ.registers.dim
    if state > CHOI_DIM_CAP**2:
        raise ValueError(f"initial state of {state} entries exceeds the cap {CHOI_DIM_CAP**2}")


def _initial_tensor(
    circ: CircuitChannel, anc_vec: np.ndarray, in_dims: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Pure initial state on [ref_1..ref_N, registers...] with maximally
    entangled pairs between each reference and the matching input register."""
    n = len(circ.parties)
    reg_labels = list(circ.registers.labels)
    reg_dims = list(circ.registers.dims)
    anc_labels = list(circ.ancilla_registers)
    anc_dims = [reg_dims[reg_labels.index(lab)] for lab in anc_labels]

    factors: list[np.ndarray] = []
    axis_names: list[str] = []
    for k, p in enumerate(circ.parties):
        d = in_dims[k]
        phi = np.eye(d, dtype=complex) / np.sqrt(d)  # axes (ref_k, in-register)
        factors.append(phi)
        axis_names.extend([f"ref:{p.label}", p.input_register])
    factors.append(np.asarray(anc_vec, dtype=complex).reshape(tuple(anc_dims)))
    axis_names.extend(anc_labels)

    state = factors[0]
    for f in factors[1:]:
        state = np.multiply.outer(state, f)

    target = [f"ref:{p.label}" for p in circ.parties] + reg_labels
    order = [axis_names.index(name) for name in target]
    state = np.transpose(state, order)
    dims = [in_dims[k] for k in range(n)] + reg_dims
    return state, dims


def compile_circuit(circ: CircuitChannel) -> Channel:
    """Compile a circuit description into its Choi-state channel.

    The Choi state is obtained by feeding half of a maximally entangled pair
    into every party input, running the ancilla preparation and the gate list
    in order, and tracing out every register that is not kept as an output.
    """
    circ.validate()
    parties = circ.to_channel_parties()
    n = len(parties)
    reg_labels = list(circ.registers.labels)
    in_dims = [p.dim_in for p in parties]

    def axis_of(label: str) -> int:
        return n + reg_labels.index(label)

    keep_axes: list[int] = []
    for k, p in enumerate(circ.parties):
        keep_axes.append(k)  # reference for party k
        keep_axes.extend(axis_of(lab) for lab in p.output_registers)

    total_choi: np.ndarray | None = None
    for weight, anc_vec in _prep_branches(circ.ancilla_prep):
        state, dims = _initial_tensor(circ, anc_vec, in_dims)
        for gate in circ.gates:
            axes = [axis_of(lab) for lab in gate.acts_on]
            state = apply_gate_to_tensor(state, gate.unitary, axes, dims)
        rho = partial_trace_pure(state, dims, keep_axes)
        total_choi = weight * rho if total_choi is None else total_choi + weight * rho

    assert total_choi is not None
    ch = Channel(parties, total_choi)
    ch.validate()
    return ch


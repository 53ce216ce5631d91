"""The four operational objects extracted from channels.

Correlations, assemblages, distributed measurements and teleportages are all
tables indexed by classical outcome (and input) strings; their entries are
probabilities or subnormalized operators.  This module extracts each object
from a channel, implements the general auxiliary-system extraction, and
provides the non-signalling predicates and the CHSH functional.

Classical labels are 0-indexed throughout; outcome/input axes of the stored
arrays run ``[a_1, ..., a_N, x_1, ..., x_N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .channels import Channel
from .linalg import (
    DEFAULT_TOL,
    basis_state,
    embed_operator,
    frobenius,
    hermitize,
    kron_all,
    min_eig,
    partial_trace_dims,
    projector,
)

# extraction can leave eigenvalues at -O(eps); clamp threshold per contract
PSD_CLAMP = 1e-9


def _check_bases(bases: np.ndarray | None, n_vectors: int, dim: int) -> np.ndarray:
    """Validate an orthonormal family given as rows; default computational."""
    if bases is None:
        if n_vectors > dim:
            raise ValueError(f"cannot pick {n_vectors} orthonormal vectors in dim {dim}")
        return np.eye(dim, dtype=complex)[:n_vectors]
    b = np.asarray(bases, dtype=complex)
    if b.shape != (n_vectors, dim):
        raise ValueError(f"basis shape {b.shape} != ({n_vectors}, {dim})")
    gram = b @ b.conj().T
    if np.max(np.abs(gram - np.eye(n_vectors))) > 1e-9:
        raise ValueError("basis vectors are not orthonormal")
    return b


@dataclass(frozen=True)
class Correlation:
    """Conditional probability table ``p(a_1..a_N | x_1..x_N)``."""

    table: np.ndarray  # shape (d,)*N + (m,)*N

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.ndim % 2 != 0:
            raise ValueError("table must have one outcome and one input axis per party")
        n = t.ndim // 2
        if n and (len(set(t.shape[:n])) > 1 or len(set(t.shape[n:])) > 1):
            raise ValueError("outcome / input counts must be uniform across parties")
        object.__setattr__(self, "table", t)

    @property
    def n_parties(self) -> int:
        return self.table.ndim // 2

    @property
    def n_outputs(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_inputs(self) -> int:
        return int(self.table.shape[self.n_parties])

    def prob(self, outcomes: tuple[int, ...], inputs: tuple[int, ...]) -> float:
        return float(self.table[tuple(outcomes) + tuple(inputs)])

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not np.isfinite(self.table).all():
            raise ValueError("probabilities must be finite")
        if self.table.min() < -1e-12:
            raise ValueError(f"negative probability {self.table.min():.3e}")
        sums = self.table.sum(axis=tuple(range(self.n_parties)))
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError("fixed-input slices do not sum to 1")

    def coarse_grain(self, outcome_map, new_d: int) -> "Correlation":
        """Merge outcomes via ``outcome_map(party, a) -> coarse label``."""
        n, d, m = self.n_parties, self.n_outputs, self.n_inputs
        out = np.zeros((new_d,) * n + (m,) * n)
        for a_vec in product(range(d), repeat=n):
            coarse = tuple(outcome_map(k, a) for k, a in enumerate(a_vec))
            out[coarse] += self.table[a_vec]
        return Correlation(out)

    def marginal(self, keep_parties: tuple[int, ...]) -> "Correlation":
        """Marginalize outcomes of the remaining parties (inputs fixed at 0)."""
        n = self.n_parties
        drop = [k for k in range(n) if k not in keep_parties]
        t = self.table.sum(axis=tuple(drop))
        # fix dropped parties' inputs to 0 (valid when non-signalling)
        idx: list = [slice(None)] * len(keep_parties)
        for k in range(n):
            idx.append(slice(None) if k in keep_parties else 0)
        return Correlation(t[tuple(idx)])


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized trusted-party states ``sigma_{a_vec|x_vec}``."""

    elements: np.ndarray  # shape (d,)*N + (m,)*N + (d_B, d_B)

    def __post_init__(self) -> None:
        e = np.asarray(self.elements, dtype=complex)
        if e.ndim < 2 or e.shape[-1] != e.shape[-2] or (e.ndim - 2) % 2 != 0:
            raise ValueError("elements must have shape (d,)*N + (m,)*N + (d_B, d_B)")
        object.__setattr__(self, "elements", e)

    @property
    def n_untrusted(self) -> int:
        return (self.elements.ndim - 2) // 2

    @property
    def n_outputs(self) -> int:
        return int(self.elements.shape[0])

    @property
    def n_inputs(self) -> int:
        return int(self.elements.shape[self.n_untrusted])

    @property
    def trusted_dim(self) -> int:
        return int(self.elements.shape[-1])

    def element(self, outcomes: tuple[int, ...], inputs: tuple[int, ...]) -> np.ndarray:
        return self.elements[tuple(outcomes) + tuple(inputs)]

    def reduced_state(self) -> np.ndarray:
        """Bob's marginal, averaged over input choices."""
        n = self.n_untrusted
        summed = self.elements.sum(axis=tuple(range(n)))
        return summed.mean(axis=tuple(range(n)))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not np.isfinite(self.elements).all():
            raise ValueError("element entries must be finite")
        n, d, m = self.n_untrusted, self.n_outputs, self.n_inputs
        for a_vec in product(range(d), repeat=n):
            for x_vec in product(range(m), repeat=n):
                el = self.element(a_vec, x_vec)
                if frobenius(el - el.conj().T) > tol:
                    raise ValueError(f"element {a_vec}|{x_vec} is not Hermitian")
                if min_eig(el) < -PSD_CLAMP:
                    raise ValueError(
                        f"element {a_vec}|{x_vec} has eigenvalue {min_eig(el):.3e}"
                    )
        rho = self.reduced_state()
        summed = self.elements.sum(axis=tuple(range(n)))
        for x_vec in product(range(m), repeat=n):
            if frobenius(summed[x_vec] - rho) > tol:
                raise ValueError("reduced trusted state depends on the inputs")
        if abs(np.trace(rho) - 1.0) > tol:
            raise ValueError(f"reduced state trace {np.trace(rho).real:.6f} != 1")

    def to_correlation(self) -> Correlation:
        """Trace the trusted output, leaving the untrusted-party table."""
        return Correlation(
            np.real(np.trace(self.elements, axis1=-2, axis2=-1))
        )


@dataclass(frozen=True)
class DistributedMeasurement:
    """Joint POVM ``M_{a_vec}`` on the parties' quantum input spaces."""

    elements: np.ndarray  # shape (d,)*N + (D, D)
    input_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        e = np.asarray(self.elements, dtype=complex)
        object.__setattr__(self, "elements", e)
        object.__setattr__(self, "input_dims", tuple(self.input_dims))
        d_tot = int(np.prod(self.input_dims))
        if e.shape[-2:] != (d_tot, d_tot):
            raise ValueError("element blocks do not match the product input dimension")

    @property
    def n_parties(self) -> int:
        return self.elements.ndim - 2

    @property
    def n_outputs(self) -> int:
        return int(self.elements.shape[0])

    def element(self, outcomes: tuple[int, ...]) -> np.ndarray:
        return self.elements[tuple(outcomes)]

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not np.isfinite(self.elements).all():
            raise ValueError("element entries must be finite")
        n, d = self.n_parties, self.n_outputs
        total = np.zeros(self.elements.shape[-2:], dtype=complex)
        for a_vec in product(range(d), repeat=n):
            el = self.element(a_vec)
            if min_eig(el) < -PSD_CLAMP:
                raise ValueError(f"element {a_vec} has eigenvalue {min_eig(el):.3e}")
            total += el
        if frobenius(total - np.eye(total.shape[0])) > tol:
            raise ValueError("elements do not sum to the identity")

    def probabilities(self, states: list[list[np.ndarray]]) -> Correlation:
        """Born-rule table for per-party preparations ``states[k][x]``."""
        n, d = self.n_parties, self.n_outputs
        m = len(states[0])
        table = np.zeros((d,) * n + (m,) * n)
        for x_vec in product(range(m), repeat=n):
            rho = kron_all([states[k][x_vec[k]] for k in range(n)])
            for a_vec in product(range(d), repeat=n):
                table[a_vec + x_vec] = np.trace(self.element(a_vec) @ rho).real
        return Correlation(table)


@dataclass(frozen=True)
class Teleportage:
    """Instrument ``{T_{a_vec}}`` stored as per-outcome Choi blocks.

    Block ``a_vec`` has entries ``J[(s,b),(t,b')] = T_a(|s><t|)[b,b']`` over
    the joint input space (factor order: inputs then trusted output), which
    makes every non-signalling condition a linear equality on stored data.
    """

    blocks: np.ndarray  # shape (d,)*N + (D_in*d_B, D_in*d_B)
    input_dims: tuple[int, ...]
    trusted_dim: int

    def __post_init__(self) -> None:
        b = np.asarray(self.blocks, dtype=complex)
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "input_dims", tuple(self.input_dims))
        d_tot = int(np.prod(self.input_dims)) * self.trusted_dim
        if b.shape[-2:] != (d_tot, d_tot):
            raise ValueError("choi blocks do not match input x trusted dimension")

    @property
    def n_parties(self) -> int:
        return self.blocks.ndim - 2

    @property
    def n_outputs(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def dim_in(self) -> int:
        return int(np.prod(self.input_dims))

    def block(self, outcomes: tuple[int, ...]) -> np.ndarray:
        return self.blocks[tuple(outcomes)]

    def apply(self, outcomes: tuple[int, ...], rho: np.ndarray) -> np.ndarray:
        """Evaluate ``T_a(rho)`` from the stored Choi block."""
        d_in, d_b = self.dim_in, self.trusted_dim
        j = self.block(outcomes).reshape(d_in, d_b, d_in, d_b)
        return np.einsum("us,ubsc->bc", np.asarray(rho, dtype=complex), j, optimize=True)

    def total_choi(self) -> np.ndarray:
        n, d = self.n_parties, self.n_outputs
        total = np.zeros(self.blocks.shape[-2:], dtype=complex)
        for a_vec in product(range(d), repeat=n):
            total += self.block(a_vec)
        return total

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not np.isfinite(self.blocks).all():
            raise ValueError("block entries must be finite")
        n, d = self.n_parties, self.n_outputs
        for a_vec in product(range(d), repeat=n):
            if min_eig(self.block(a_vec)) < -PSD_CLAMP:
                raise ValueError(f"block {a_vec} is not completely positive")
        dims = [self.dim_in, self.trusted_dim]
        reduced = partial_trace_dims(self.total_choi(), dims, keep=[0])
        if frobenius(reduced - np.eye(self.dim_in)) > max(tol, 1e-8) * self.dim_in:
            raise ValueError("summed instrument is not trace preserving")


# ----------------------------------------------------------------------------
# Extraction from channels
# ----------------------------------------------------------------------------

# Every object is one contraction: local preparations go into the channel and
# local effects act on its outputs.  Only which systems stay quantum differs:
# auxiliaries, the trusted output, and matrix units in place of states.

def _kron_stacks(stacks: list[np.ndarray]) -> np.ndarray:
    """Kronecker products of one matrix from each stack, first stack slowest."""
    out = stacks[0]
    for s in stacks[1:]:
        joint = out[:, None, :, None, :, None] * s[None, :, None, :, None, :]
        d = out.shape[-1] * s.shape[-1]
        out = joint.reshape(len(out) * len(s), d, d)
    return out


def _extract(
    ch: Channel,
    preparations: list[np.ndarray],
    effects: list[np.ndarray],
    trusted_prep: np.ndarray | None = None,
) -> np.ndarray:
    """``tr_out[(E_a (x) 1) Lambda(rho_x (x) tau)]`` for every joint ``a`` and ``x``.

    ``preparations[k]`` stacks party k's operators on in_k (x) aux_k and
    ``effects[k]`` its effects on out_k (x) aux_k, auxiliary dimensions read
    off the shapes; ``tau = trusted_prep`` on B_in (x) B_aux leaves
    B_out (x) B_aux quantum.  One channel call maps every joint preparation
    and one ``einsum`` applies every joint effect.  Returns shape
    ``(n_1..n_N, m_1..m_N, D, D)`` with ``D = 1`` without a trusted party.
    """
    stacks = list(preparations) + ([] if trusted_prep is None else [trusted_prep[None]])
    dims: list[int] = []
    for p, s in zip(ch.parties, stacks):
        dims.extend([p.dim_in, s.shape[-1] // p.dim_in])
    out, _ = ch.apply_to_subsystems(
        _kron_stacks(stacks), tuple(dims), tuple(range(0, len(dims), 2))
    )
    joint_effects = _kron_stacks(effects)
    d_e = joint_effects.shape[-1]
    d_b = out.shape[-1] // d_e
    t = out.reshape(len(out), d_e, d_b, d_e, d_b)
    table = np.einsum("aqp,xpbqc->axbc", joint_effects, t, optimize=True)
    shape = tuple(map(len, effects)) + tuple(map(len, preparations)) + (d_b, d_b)
    return table.reshape(shape)


def _families(parties, preparations, povms) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-party preparation and POVM stacks, checked against the parties."""
    if len(preparations) != len(parties) or len(povms) != len(parties):
        raise ValueError("need one preparation family and one POVM per party")
    preps, effects = [], []
    for p, family, povm in zip(parties, preparations, povms):
        d_prep = np.shape(family[0])[0]
        if d_prep % p.dim_in:
            raise ValueError(f"party {p.label!r}: preparation dim {d_prep} incompatible")
        if any(np.shape(rho) != (d_prep, d_prep) for rho in family):
            raise ValueError("inconsistent preparation dimensions")
        d_eff = p.dim_out * (d_prep // p.dim_in)
        if any(np.shape(el) != (d_eff, d_eff) for el in povm):
            raise ValueError(f"party {p.label!r}: POVM dim mismatch")
        povm = np.asarray(povm, dtype=complex)
        if frobenius(povm.sum(axis=0) - np.eye(d_eff)) > 1e-8:
            raise ValueError(f"party {p.label!r}: POVM does not sum to identity")
        preps.append(np.asarray(family, dtype=complex))
        effects.append(povm)
    return preps, effects


def _basis_projectors(parties, bases, attr: str) -> list[np.ndarray]:
    """Per-party stacks of ``|v><v|`` over the rows of ``bases[k]`` (default
    computational) in the dimension ``attr``, which the parties must share."""
    dims = {getattr(p, attr) for p in parties}
    if len(dims) != 1:
        raise ValueError(f"untrusted parties must share one {attr} for basis extraction")
    d = dims.pop()
    if bases is None:
        bases = [None] * len(parties)
    rows = [_check_bases(bases[k], d, d) for k in range(len(parties))]
    return [np.einsum("ki,kj->kij", b, b.conj()) for b in rows]


def _trusted_state(trusted, state: np.ndarray | None) -> np.ndarray:
    """Trusted input as a density matrix; ``|0>`` by default, vectors as projectors."""
    if state is None:
        return projector(basis_state(trusted.dim_in, 0))
    state = np.asarray(state, dtype=complex)
    state = projector(state) if state.ndim == 1 else state
    if state.shape != (trusted.dim_in, trusted.dim_in):
        raise ValueError(f"trusted input of shape {state.shape} != dim {trusted.dim_in}")
    return state


def correlations_from_channel(
    ch: Channel, in_bases=None, out_bases=None
) -> Correlation:
    """Bell-scenario table from basis preparations and basis measurements."""
    if ch.trusted_party is not None:
        raise ValueError("channel has a trusted party; extract an assemblage instead")
    preps = _basis_projectors(ch.parties, in_bases, "dim_in")
    povms = _basis_projectors(ch.parties, out_bases, "dim_out")
    table = correlations_general(ch, preps, povms).table
    return Correlation(np.clip(table, 0.0, None) if table.min() > -1e-12 else table)


def correlations_general(
    ch: Channel,
    preparations: list[list[np.ndarray]],
    povms: list[list[np.ndarray]],
) -> Correlation:
    """General extraction with per-party auxiliary systems.

    ``preparations[k][x]`` is a density matrix on in_k (x) aux_k and
    ``povms[k][a]`` a POVM element on out_k (x) aux_k; auxiliary dimensions
    are read off the shapes.  Basis preparations and measurements with
    trivial auxiliaries reduce to :func:`correlations_from_channel`.
    """
    if ch.trusted_party is not None:
        raise ValueError("channel has a trusted party; use assemblage_general instead")
    preps, effects = _families(ch.parties, preparations, povms)
    return Correlation(np.real(_extract(ch, preps, effects)[..., 0, 0]))


def _require_trusted(ch: Channel):
    trusted = ch.trusted_party
    if trusted is None:
        raise ValueError("channel has no trusted party")
    return trusted


def assemblage_from_channel(
    ch: Channel, in_bases=None, out_bases=None, trusted_input: np.ndarray | None = None
) -> Assemblage:
    """Steering-scenario assemblage; the trusted input defaults to ``|0>``."""
    trusted_prep = _trusted_state(_require_trusted(ch), trusted_input)
    preps = _basis_projectors(ch.untrusted, in_bases, "dim_in")
    povms = _basis_projectors(ch.untrusted, out_bases, "dim_out")
    return assemblage_general(ch, preps, povms, trusted_prep)


def assemblage_general(
    ch: Channel,
    preparations: list[list[np.ndarray]],
    povms: list[list[np.ndarray]],
    trusted_prep: np.ndarray | None = None,
) -> Assemblage:
    """General steering extraction; the trusted side may keep an auxiliary.

    ``trusted_prep`` is a density matrix on B_in (x) B_aux (default
    ``|0><0|`` with no auxiliary); the returned assemblage elements act on
    B_out (x) B_aux.
    """
    trusted = _require_trusted(ch)
    preps, effects = _families(ch.untrusted, preparations, povms)
    if trusted_prep is None:
        trusted_prep = projector(basis_state(trusted.dim_in, 0))
    trusted_prep = np.asarray(trusted_prep, dtype=complex)
    if trusted_prep.shape[0] % trusted.dim_in:
        raise ValueError("trusted preparation incompatible with the trusted input")
    return Assemblage(hermitize(_extract(ch, preps, effects, trusted_prep)))


def _instrument_blocks(
    ch: Channel, out_bases, trusted_prep: np.ndarray | None
) -> np.ndarray:
    """``J_a[(s,b),(t,b')] = tr_out[(E_a (x) 1) Lambda(|s><t| (x) tau)][b,b']``.

    The joint matrix units ``|s><t|`` on the untrusted inputs are products of
    local ones, so they enter the kernel as per-party preparation stacks.
    """
    parties = ch.untrusted
    n, d_in = len(parties), [p.dim_in for p in parties]
    units = [np.eye(d * d, dtype=complex).reshape(d * d, d, d) for d in d_in]
    povms = _basis_projectors(parties, out_bases, "dim_out")
    out = _extract(ch, units, povms, trusted_prep)
    d_b = out.shape[-1]
    out = out.reshape(out.shape[:n] + tuple(np.repeat(d_in, 2)) + (d_b, d_b))
    s_axes, t_axes = list(range(n, 3 * n, 2)), list(range(n + 1, 3 * n, 2))
    out = out.transpose(list(range(n)) + s_axes + [3 * n] + t_axes + [3 * n + 1])
    d_tot = int(np.prod(d_in)) * d_b
    return out.reshape(out.shape[:n] + (d_tot, d_tot))


def distributed_measurement_from_channel(
    ch: Channel, out_bases=None
) -> DistributedMeasurement:
    """POVM elements ``M_a[t,s] = tr[E_a Lambda(|s><t|)]`` on the joint input."""
    if ch.trusted_party is not None:
        raise ValueError("channel has a trusted party; extract a teleportage instead")
    blocks = _instrument_blocks(ch, out_bases, None)
    return DistributedMeasurement(hermitize(np.swapaxes(blocks, -1, -2)), ch.dims_in)


def teleportage_from_channel(
    ch: Channel, out_bases=None, trusted_input: np.ndarray | None = None
) -> Teleportage:
    """Instrument blocks from channel evaluation on a matrix-unit input basis."""
    trusted = _require_trusted(ch)
    blocks = _instrument_blocks(ch, out_bases, _trusted_state(trusted, trusted_input))
    return Teleportage(blocks, tuple(p.dim_in for p in ch.untrusted), trusted.dim_out)


# ----------------------------------------------------------------------------
# Non-signalling predicates
# ----------------------------------------------------------------------------

def _proper_subsets(n: int):
    for r in range(1, n):
        yield from combinations(range(n), r)


def is_nonsignalling_correlation(
    c: Correlation, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Marginal of every party subset must not depend on the others' inputs."""
    n, d, m = c.n_parties, c.n_outputs, c.n_inputs
    if n == 1:
        return True, 0.0
    worst = 0.0
    for keep in _proper_subsets(n):
        drop = tuple(k for k in range(n) if k not in keep)
        marg = c.table.sum(axis=drop)  # axes: a_keep..., x_1..x_n
        drop_in_axes = tuple(len(keep) + k for k in drop)
        mean = marg.mean(axis=drop_in_axes, keepdims=True)
        worst = max(worst, float(np.max(np.abs(marg - mean))))
    return worst < tol, worst


def is_nonsignalling_assemblage(
    a: Assemblage, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Subset marginals input-independent, plus the fixed reduced-state rule."""
    n, m = a.n_untrusted, a.n_inputs
    worst = 0.0
    # fixed rho_B across the full input tuple
    summed = a.elements.sum(axis=tuple(range(n)))
    rho = summed.reshape(-1, a.trusted_dim, a.trusted_dim).mean(axis=0)
    worst = max(worst, float(np.max(np.abs(summed - rho))))
    for keep in _proper_subsets(n):
        drop = tuple(k for k in range(n) if k not in keep)
        marg = a.elements.sum(axis=drop)
        drop_in_axes = tuple(len(keep) + k for k in drop)
        mean = marg.mean(axis=drop_in_axes, keepdims=True)
        worst = max(worst, float(np.max(np.abs(marg - mean))))
    return worst < tol, worst


def is_nonsignalling_distributed_measurement(
    dm: DistributedMeasurement, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Outcome marginals must be POVMs of the kept parties alone."""
    n, d = dm.n_parties, dm.n_outputs
    dims = list(dm.input_dims)
    worst = 0.0
    total = dm.elements.sum(axis=tuple(range(n)))
    worst = max(worst, frobenius(total - np.eye(total.shape[0])))
    for keep in _proper_subsets(n):
        drop = tuple(k for k in range(n) if k not in keep)
        d_drop = int(np.prod([dims[k] for k in drop]))
        marg = dm.elements.sum(axis=drop)
        for a_keep in product(range(d), repeat=len(keep)):
            block = marg[a_keep]
            candidate = partial_trace_dims(block, dims, keep) / d_drop
            target = embed_operator(candidate, dims, keep)
            worst = max(worst, frobenius(block - target))
    return worst < tol, worst


def is_nonsignalling_teleportage(
    t: Teleportage, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Marginal instruments well-defined and the total channel constant."""
    n, d = t.n_parties, t.n_outputs
    d_b = t.trusted_dim
    dims_k = list(t.input_dims)
    worst = 0.0
    # grand sum: constant channel onto a fixed rho_B
    total = t.total_choi()
    rho_b = partial_trace_dims(total, [t.dim_in, d_b], keep=[1]) / t.dim_in
    worst = max(worst, frobenius(total - np.kron(np.eye(t.dim_in), rho_b)))
    for keep in _proper_subsets(n):
        drop = tuple(k for k in range(n) if k not in keep)
        d_drop = int(np.prod([dims_k[k] for k in drop]))
        marg = t.blocks.sum(axis=drop)
        full_dims = dims_k + [d_b]
        keep_full = list(keep) + [n]
        for a_keep in product(range(d), repeat=len(keep)):
            block = marg[a_keep]
            candidate = partial_trace_dims(block, full_dims, keep_full) / d_drop
            target = embed_operator(candidate, full_dims, keep_full)
            worst = max(worst, frobenius(block - target))
    return worst < tol, worst


# ----------------------------------------------------------------------------
# CHSH
# ----------------------------------------------------------------------------

def chsh_value(c: Correlation) -> float:
    """``sum_{x,y} (-1)^{xy} E(x,y)`` with ``E = sum (-1)^{a+b} p(ab|xy)``."""
    if c.n_parties != 2 or c.n_outputs != 2 or c.n_inputs != 2:
        raise ValueError("CHSH needs the (2,2,2) scenario")
    signs = np.array([1.0, -1.0])
    e = np.einsum("a,b,abxy->xy", signs, signs, c.table)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])

"""Random generators for states, measurements, channels and scenario objects.

Used by the demos and the property suites: everything is driven by an
explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, CircuitChannel, CircuitGate, CircuitParty, compile_circuit
from .constructions import quantum_assemblage, quantum_teleportage
from .linalg import SystemLayout, Subsystem, kron_all, projector
from .scenarios import Assemblage, Teleportage


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    """POVM via symmetrization of random positive operators."""
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T + 1e-6 * np.eye(dim))
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [inv_root @ e @ inv_root for e in raw]


def random_projective_measurement(
    rng: np.random.Generator, dim: int, n_outcomes: int
) -> list[np.ndarray]:
    """Rank-balanced projective measurement from a random unitary's columns."""
    if n_outcomes > dim:
        raise ValueError("projective measurement needs n_outcomes <= dim")
    u = random_unitary(rng, dim)
    splits = np.array_split(np.arange(dim), n_outcomes)
    return [u[:, idx] @ u[:, idx].conj().T for idx in splits]


def random_quantum_assemblage(
    rng: np.random.Generator, m: int, d: int, d_b: int, n_untrusted: int = 1
) -> Assemblage:
    """Assemblage from random projective measurements on a random pure state.

    Quantum by construction, hence non-signalling; the untrusted parties each
    measure a ``d``-dimensional share.
    """
    rho = projector(random_pure_state(rng, d**n_untrusted * d_b))
    meas = [
        [random_projective_measurement(rng, d, d) for _ in range(m)]
        for _ in range(n_untrusted)
    ]
    return quantum_assemblage(rho, meas)


def random_nonsignalling_teleportage(
    rng: np.random.Generator, d_k: int, d: int, d_b: int
) -> Teleportage:
    """Teleportage from a joint POVM on the input plus half a shared state.

    ``T_a(rho) = tr_{K,R}[(M_a (x) 1)(rho (x) rho_RB)]`` is quantum by
    construction, so it is always non-signalling.
    """
    d_r = d_b
    rho_rb = projector(random_pure_state(rng, d_r * d_b))
    povm = random_povm(rng, d_k * d_r, d)
    return quantum_teleportage(rho_rb, povm, d_k)


def random_local_circuit(
    rng: np.random.Generator,
    n_untrusted: int = 2,
    m: int = 2,
    d: int = 2,
    trusted_dim: int = 0,
    n_mixture: int = 2,
    noise: float = 0.15,
) -> CircuitChannel:
    """Local channel: private ancillas, separable shared randomness, local gates.

    Each untrusted party applies a random unitary to (input, own ancilla) and
    outputs the ancilla register; a trusted party, when requested, simply
    outputs its own ancilla share.  The ancilla state is a classical mixture
    of product pure states blended with white noise, so it is separable
    across every cut and the channel is local.
    """
    n_anc = n_untrusted + (1 if trusted_dim else 0)
    anc_dims = [d] * n_untrusted + ([trusted_dim] if trusted_dim else [])
    total_anc = int(np.prod(anc_dims))
    rho = np.zeros((total_anc, total_anc), dtype=complex)
    weights = rng.dirichlet(np.ones(n_mixture))
    for w in weights:
        pieces = [random_pure_state(rng, dim) for dim in anc_dims]
        rho += w * projector(kron_all([p.reshape(-1, 1) for p in pieces]).reshape(-1))
    rho = (1.0 - noise) * rho + noise * np.eye(total_anc) / total_anc

    subs = [Subsystem(f"in{k + 1}", m, "untrusted-in") for k in range(n_untrusted)]
    if trusted_dim:
        subs.append(Subsystem("Bin", trusted_dim, "trusted-in"))
    subs.extend(Subsystem(f"anc{k + 1}", d) for k in range(n_untrusted))
    if trusted_dim:
        subs.append(Subsystem("ancB", trusted_dim))
    registers = SystemLayout(tuple(subs))

    gates = tuple(
        CircuitGate(random_unitary(rng, m * d), (f"in{k + 1}", f"anc{k + 1}"))
        for k in range(n_untrusted)
    )
    parties = [
        CircuitParty(f"p{k + 1}", f"in{k + 1}", (f"anc{k + 1}",))
        for k in range(n_untrusted)
    ]
    if trusted_dim:
        parties.append(CircuitParty("B", "Bin", ("ancB",), trusted=True))
    return CircuitChannel(
        registers=registers,
        parties=tuple(parties),
        ancilla_prep=rho,
        gates=gates,
    )


def random_localizable_channel(
    rng: np.random.Generator, n_parties: int = 2, m: int = 2, d: int = 2
) -> Channel:
    """Causal by construction: local unitaries on shares of a joint ancilla."""
    subs = [Subsystem(f"in{k + 1}", m, "untrusted-in") for k in range(n_parties)]
    subs.extend(Subsystem(f"anc{k + 1}", d) for k in range(n_parties))
    registers = SystemLayout(tuple(subs))
    anc = random_pure_state(rng, d**n_parties)
    gates = tuple(
        CircuitGate(random_unitary(rng, m * d), (f"in{k + 1}", f"anc{k + 1}"))
        for k in range(n_parties)
    )
    parties = tuple(
        CircuitParty(f"p{k + 1}", f"in{k + 1}", (f"anc{k + 1}",))
        for k in range(n_parties)
    )
    return compile_circuit(
        CircuitChannel(registers=registers, parties=parties, ancilla_prep=anc, gates=gates)
    )

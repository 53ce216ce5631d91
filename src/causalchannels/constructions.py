"""Construction gallery: every concrete channel and realization in the suite.

Contains the canonical measure-and-prepare channels, the PR-box and
Tsirelson-singlet circuits, both post-quantum steering channels, the
almost-localizable circuit built from a state-commuting projector family,
commuting-projector assemblages, the forward maps of the quantum models
(a state plus measurements to an assemblage, a shared state plus a joint
measurement to a teleportage), and the constructive realizations of
bipartite non-signalling assemblages and teleportages in those models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .channels import (
    Channel,
    CircuitChannel,
    CircuitGate,
    CircuitParty,
    Party,
)
from .linalg import (
    SystemLayout,
    Subsystem,
    basis_state,
    frobenius,
    hermitize,
    is_unitary,
    kron_all,
    partial_trace_dims,
    projector,
)
from .scenarios import (
    Assemblage,
    Correlation,
    Teleportage,
    is_nonsignalling_assemblage,
    is_nonsignalling_teleportage,
)

GHJW_SUPPORT_CUTOFF = 1e-10

# -- gate library -------------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SWAP_2Q = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rotation_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def controlled(unitary: np.ndarray, n_controls: int = 1) -> np.ndarray:
    """Fire ``unitary`` on the target block when every control qubit is |1>."""
    d = unitary.shape[0]
    blocks = 2**n_controls
    out = np.eye(blocks * d, dtype=complex)
    out[-d:, -d:] = unitary
    return out


CNOT = controlled(PAULI_X, 1)
TOFFOLI = controlled(PAULI_X, 2)


def select_unitary(cases: list[np.ndarray]) -> np.ndarray:
    """Control-select unitary ``sum_x |x><x| (x) U_x`` over a case list."""
    m = len(cases)
    d = cases[0].shape[0]
    out = np.zeros((m * d, m * d), dtype=complex)
    for x, u in enumerate(cases):
        out[x * d : (x + 1) * d, x * d : (x + 1) * d] = u
    return out


# -- canonical channels -------------------------------------------------------

def canonical_channel_from_correlations(c: Correlation) -> Channel:
    """Measure-and-prepare channel reproducing the table at computational bases.

    The channel decoheres each input register, reads off ``x_vec``, and
    prepares ``|a_vec>`` with probability ``p(a_vec|x_vec)``; its Choi state
    is diagonal, so the extraction round-trips the table exactly.
    """
    c.validate()
    n, d, m = c.n_parties, c.n_outputs, c.n_inputs
    parties = tuple(Party(f"p{k + 1}", m, d, False) for k in range(n))
    # grouped [x_vec, a_vec] diagonal: the table with its input axes first
    diag = c.table.transpose(list(range(n, 2 * n)) + list(range(n))).reshape(-1) / m**n
    return Channel.from_grouped(parties, np.diag(diag))


def canonical_channel_from_assemblage(a: Assemblage) -> Channel:
    """Decohere inputs, trace the trusted input, emit the assemblage element."""
    ok, res = is_nonsignalling_assemblage(a)
    if not ok:
        raise ValueError(f"assemblage is signalling (residual {res:.3e})")
    n, d, m, d_b = a.n_untrusted, a.n_outputs, a.n_inputs, a.trusted_dim
    parties = tuple(Party(f"p{k + 1}", m, d) for k in range(n)) + (Party("B", d_b, d_b, True),)
    # grouped [x_vec, B_in, a_vec, B_out]: the (x_vec, a_vec) diagonal block
    # is (1/d_B) (x) sigma_{a_vec|x_vec} / m^n on (B_in, B_out)
    el = a.elements.reshape(d**n, m**n, d_b, d_b).transpose(1, 0, 2, 3) / m**n
    blocks = (np.eye(d_b) / d_b)[:, None, :, None] * el[:, :, None, :, None, :]
    grouped = np.zeros((m**n, d_b, d**n, d_b) * 2, dtype=complex)
    x, out = np.arange(m**n)[:, None], np.arange(d**n)
    grouped[x, :, out, :, x, :, out, :] = blocks
    return Channel.from_grouped(parties, grouped)


# -- figure circuits ----------------------------------------------------------

def _pr_core_gates(in_a: str, in_b: str, share_a: str, share_b: str, tag: str = "") -> tuple[
    list[Subsystem], list[CircuitGate]
]:
    """Measure both inputs, Toffoli-flip Bob's shared bit on AND, dephase.

    Returns the measurement/dephasing registers and the gate list realizing
    the measure-compare-flip block unitary on the given shared-bit registers.
    """
    m_a, m_b = f"mA{tag}", f"mB{tag}"
    d_a, d_b = f"dA{tag}", f"dB{tag}"
    regs = [
        Subsystem(m_a, 2), Subsystem(m_b, 2), Subsystem(d_a, 2), Subsystem(d_b, 2),
    ]
    gates = [
        CircuitGate(CNOT, (in_a, m_a)),
        CircuitGate(CNOT, (in_b, m_b)),
        CircuitGate(TOFFOLI, (m_a, m_b, share_b)),
        CircuitGate(CNOT, (share_a, d_a)),
        CircuitGate(CNOT, (share_b, d_b)),
    ]
    return regs, gates


def pr_box_channel() -> CircuitChannel:
    """Causal circuit generating the PR-box table ``p = delta(a+b = xy)/2``.

    The classically correlated shared bit comes from a GHZ triple with one
    leg discarded; input measurement and output dephasing are realized as
    controlled copies onto fresh registers that are traced at the end.
    """
    ghz = (basis_state(8, 0) + basis_state(8, 7)) / np.sqrt(2)
    extra, gates = _pr_core_gates("A", "B", "g1", "g2")
    registers = SystemLayout(
        (
            Subsystem("A", 2, "untrusted-in"),
            Subsystem("B", 2, "untrusted-in"),
            Subsystem("g1", 2),
            Subsystem("g2", 2),
            Subsystem("g3", 2),
            *extra,
        )
    )
    anc = np.kron(ghz, basis_state(16, 0))
    return CircuitChannel(
        registers=registers,
        parties=(
            CircuitParty("A", "A", ("g1",)),
            CircuitParty("B", "B", ("g2",)),
        ),
        ancilla_prep=anc,
        gates=tuple(gates),
    )


def singlet_tsirelson_channel() -> CircuitChannel:
    """Localizable circuit reaching CHSH = 2*sqrt(2) at computational bases.

    Each party rotates their half of a shared ``|Phi+>`` pair conditioned on
    the input qubit and outputs the rotated half.  The control convention on
    Alice's side (Hadamard fires on input ``|1>``) is pinned by the CHSH
    functional used in :func:`causalchannels.scenarios.chsh_value`.
    """
    u_alice = select_unitary([np.eye(2, dtype=complex), HADAMARD])
    u_bob = select_unitary([rotation_y(-np.pi / 4), rotation_y(np.pi / 4)])
    registers = SystemLayout(
        (
            Subsystem("A", 2, "untrusted-in"),
            Subsystem("B", 2, "untrusted-in"),
            Subsystem("eA", 2),
            Subsystem("eB", 2),
        )
    )
    phi = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    return CircuitChannel(
        registers=registers,
        parties=(
            CircuitParty("A", "A", ("eA",)),
            CircuitParty("B", "B", ("eB",)),
        ),
        ancilla_prep=phi,
        gates=(
            CircuitGate(u_alice, ("A", "eA")),
            CircuitGate(u_bob, ("B", "eB")),
        ),
    )


def pq_steering_pr_channel() -> CircuitChannel:
    """Tripartite causal circuit steering Charlie to ``p_PR(ab|xy) * 1/2``.

    Alice and Bob run the PR-box block on their halves of the classically
    correlated pair, while Charlie outputs his half of a fresh maximally
    entangled pair (a maximally mixed qubit); his input is discarded.
    """
    ghz = (basis_state(8, 0) + basis_state(8, 7)) / np.sqrt(2)
    phi = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    extra, gates = _pr_core_gates("A", "B", "g1", "g2")
    registers = SystemLayout(
        (
            Subsystem("A", 2, "untrusted-in"),
            Subsystem("B", 2, "untrusted-in"),
            Subsystem("C", 2, "trusted-in"),
            Subsystem("g1", 2),
            Subsystem("g2", 2),
            Subsystem("g3", 2),
            Subsystem("c1", 2),
            Subsystem("c2", 2),
            *extra,
        )
    )
    anc = kron_all([ghz, phi, basis_state(16, 0)])
    return CircuitChannel(
        registers=registers,
        parties=(
            CircuitParty("A", "A", ("g1",)),
            CircuitParty("B", "B", ("g2",)),
            CircuitParty("C", "C", ("c1",), trusted=True),
        ),
        ancilla_prep=anc,
        gates=tuple(gates),
    )


def pq_steering_alpha_channel(alpha: float) -> CircuitChannel:
    """Tripartite causal circuit that is not localizable (ququart outputs).

    The five-qubit ancilla carries a maximally entangled pair on the X
    registers and ``sqrt(alpha)|000> + sqrt(1-alpha)|111>`` on the W
    registers.  Controlled swaps (firing on control ``|1>``) exchange each
    input with its X register, the X registers are measured, and on a joint
    ``1`` result a controlled-NOT with ``W_A`` as control flips Alice's
    qubit.  Outputs: ququarts ``(A, W_A)`` and ``(B, W_B)``, qubit ``W_C``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    phi = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    w = np.sqrt(alpha) * basis_state(8, 0) + np.sqrt(1.0 - alpha) * basis_state(8, 7)
    registers = SystemLayout(
        (
            Subsystem("A", 2, "untrusted-in"),
            Subsystem("B", 2, "untrusted-in"),
            Subsystem("C", 2, "trusted-in"),
            Subsystem("xA", 2),
            Subsystem("xB", 2),
            Subsystem("wA", 2),
            Subsystem("wB", 2),
            Subsystem("wC", 2),
        )
    )
    cswap = controlled(SWAP_2Q, 1)
    # X on A controlled by (xA AND xB AND wA)
    cccx = controlled(PAULI_X, 3)
    return CircuitChannel(
        registers=registers,
        parties=(
            CircuitParty("A", "A", ("A", "wA")),
            CircuitParty("B", "B", ("B", "wB")),
            CircuitParty("C", "C", ("wC",), trusted=True),
        ),
        ancilla_prep=kron_all([phi, w]),
        gates=(
            CircuitGate(cswap, ("wA", "A", "xA")),
            CircuitGate(cswap, ("wB", "B", "xB")),
            CircuitGate(cccx, ("xA", "xB", "wA", "A")),
        ),
    )


# -- almost-localizable construction ------------------------------------------

@dataclass(frozen=True)
class ProjectiveRealization:
    """State-commuting projector family on ``K (x) H_B``.

    ``projectors[(party, a, x)]`` acts on the ``K`` factor; completeness per
    (party, input), projectivity, and order-invariance of projector products
    on the state are the defining invariants.
    """

    state: np.ndarray  # vector on K (x) H_B
    projectors: dict[tuple[int, int, int], np.ndarray]
    n_parties: int
    n_inputs: int
    n_outputs: int
    kdim: int
    trusted_dim: int = 1

    def projector(self, party: int, a: int, x: int) -> np.ndarray:
        return self.projectors[(party, a, x)]

    def state_matrix(self) -> np.ndarray:
        return np.asarray(self.state, dtype=complex).reshape(self.kdim, self.trusted_dim)

    def product_on_state(
        self, a_vec: tuple[int, ...], x_vec: tuple[int, ...], order: tuple[int, ...]
    ) -> np.ndarray:
        """Apply the ordered projector product to the state (as a K x B matrix);
        ``order[0]`` is the leftmost (last-applied) factor."""
        psi = self.state_matrix()
        for k in reversed(order):
            psi = self.projector(k, a_vec[k], x_vec[k]) @ psi
        return psi

    def validate(self, tol: float = 1e-8) -> None:
        m, d, n = self.n_inputs, self.n_outputs, self.n_parties
        psi = self.state_matrix()
        if abs(np.linalg.norm(psi) - 1.0) > tol:
            raise ValueError("state is not normalized")
        for k in range(n):
            for x in range(m):
                total = np.zeros((self.kdim, self.kdim), dtype=complex)
                for a in range(d):
                    p = self.projector(k, a, x)
                    if frobenius(p @ p - p) > tol or frobenius(p - p.conj().T) > tol:
                        raise ValueError(f"projector ({k},{a},{x}) is not a projector")
                    total += p
                if frobenius(total - np.eye(self.kdim)) > tol:
                    raise ValueError(f"projectors for party {k}, input {x} do not sum to 1")
        identity_order = tuple(range(n))
        for x_vec in product(range(m), repeat=n):
            for a_vec in product(range(d), repeat=n):
                ref = self.product_on_state(a_vec, x_vec, identity_order)
                for order in permutations(range(n)):
                    if order == identity_order:
                        continue
                    alt = self.product_on_state(a_vec, x_vec, order)
                    if frobenius(alt - ref) > tol:
                        raise ValueError(
                            f"projector products do not commute on the state at "
                            f"a={a_vec}, x={x_vec}, order={order}"
                        )


def outcome_recorder(d: int, a: int) -> np.ndarray:
    """Unitary writing outcome ``a`` into a fresh qudit: identity for the
    first outcome, the |0> <-> |a> transposition otherwise."""
    if a == 0:
        return np.eye(d, dtype=complex)
    u = np.eye(d, dtype=complex)
    u[0, 0] = u[a, a] = 0.0
    u[0, a] = u[a, 0] = 1.0
    return u


def almost_localizable_from_realization(
    r: ProjectiveRealization, m: int, d: int
) -> CircuitChannel:
    """Compile a state-commuting realization into its dilation circuit.

    Each party applies a controlled operator ``sum_x |x><x| (x) O_x`` with
    ``O_x = sum_a Pi_{a|x} (x) A_a`` on the shared register and a private
    outcome qudit; the outcome qudits are the party outputs and everything
    else is traced.  Every ``O_x`` must come out unitary, which fails exactly
    when the projector family is invalid.
    """
    if (m, d) != (r.n_inputs, r.n_outputs):
        raise ValueError("scenario shape does not match the realization")
    r.validate()
    n = r.n_parties
    recorders = [outcome_recorder(d, a) for a in range(d)]

    subs = [Subsystem(f"in{k + 1}", m, "untrusted-in") for k in range(n)]
    subs.append(Subsystem("K", r.kdim))
    if r.trusted_dim > 1:
        subs.append(Subsystem("Bin", r.trusted_dim, "trusted-in"))
        subs.append(Subsystem("Bout", r.trusted_dim, "trusted-out"))
    subs.extend(Subsystem(f"q{k + 1}", d) for k in range(n))
    registers = SystemLayout(tuple(subs))

    gates = []
    for k in range(n):
        cases = []
        for x in range(m):
            o_x = np.zeros((r.kdim * d, r.kdim * d), dtype=complex)
            for a in range(d):
                o_x += np.kron(r.projector(k, a, x), recorders[a])
            if not is_unitary(o_x, 1e-8):
                raise ValueError(
                    f"controlled operator for party {k}, input {x} is not unitary; "
                    "the projector family is invalid"
                )
            cases.append(o_x)
        gates.append(CircuitGate(select_unitary(cases), (f"in{k + 1}", "K", f"q{k + 1}")))

    parties = [CircuitParty(f"p{k + 1}", f"in{k + 1}", (f"q{k + 1}",)) for k in range(n)]
    if r.trusted_dim > 1:
        parties.append(CircuitParty("B", "Bin", ("Bout",), trusted=True))
    # ancilla layout order is [K, (Bout,) q1..qN]; the state covers K (x) B
    psi = np.asarray(r.state, dtype=complex).reshape(-1)
    zeros = kron_all([basis_state(d, 0).reshape(-1, 1) for _ in range(n)]).reshape(-1)
    anc_state = np.kron(psi, zeros)

    return CircuitChannel(
        registers=registers,
        parties=tuple(parties),
        ancilla_prep=anc_state,
        gates=tuple(gates),
    )


def assemblage_from_commuting_projectors(r: ProjectiveRealization) -> Assemblage:
    """Assemblage ``tr_K[(prod_j Pi (x) 1_B) |psi><psi|]`` of a realization."""
    r.validate()
    n, m, d = r.n_parties, r.n_inputs, r.n_outputs
    d_b = r.trusted_dim
    psi = r.state_matrix()
    elements = np.zeros((d,) * n + (m,) * n + (d_b, d_b), dtype=complex)
    for x_vec in product(range(m), repeat=n):
        for a_vec in product(range(d), repeat=n):
            phi = r.product_on_state(a_vec, x_vec, tuple(range(n)))
            # tr_K of (P (x) 1_B) |psi><psi| as a d_B x d_B block
            elements[a_vec + x_vec] = hermitize((psi.conj().T @ phi).T)
    return Assemblage(elements)


# -- quantum models and their constructive realizations --------------------------

def quantum_assemblage(rho: np.ndarray, povms) -> Assemblage:
    """Assemblage ``sigma_{a|x} = tr_{1..n}[(M^1_{a_1|x_1} (x) ... (x) 1_B) rho]``.

    ``rho`` is a state on ``H_1 (x) ... (x) H_n (x) H_B`` and ``povms[k][x][a]``
    are party ``k``'s measurement operators on ``H_k``.
    """
    n, m, d = len(povms), len(povms[0]), len(povms[0][0])
    dims = [len(povms[k][0][0]) for k in range(n)]
    d_b = rho.shape[0] // int(np.prod(dims))
    dims.append(d_b)
    elements = np.zeros((d,) * n + (m,) * n + (d_b, d_b), dtype=complex)
    for x_vec in product(range(m), repeat=n):
        for a_vec in product(range(d), repeat=n):
            effect = kron_all([povms[k][x_vec[k]][a_vec[k]] for k in range(n)] + [np.eye(d_b)])
            elements[a_vec + x_vec] = partial_trace_dims(effect @ rho, dims, keep=[n])
    return Assemblage(elements)


def quantum_teleportage(rho_rb: np.ndarray, povm, d_k: int) -> Teleportage:
    """Teleportage ``T_a(rho) = tr_{K,R}[(M_a (x) 1_B)(rho (x) rho_RB)]``.

    ``rho_rb`` is a state shared on ``R (x) B`` and ``povm[a]`` a joint
    measurement on the input ``K`` (dimension ``d_k``) and ``R``.
    """
    d = len(povm)
    d_r = len(povm[0]) // d_k
    d_b = rho_rb.shape[0] // d_r
    blocks = np.zeros((d, d_k * d_b, d_k * d_b), dtype=complex)
    for s in range(d_k):
        for t in range(d_k):
            unit = np.zeros((d_k, d_k), dtype=complex)
            unit[s, t] = 1.0
            full = np.kron(unit, rho_rb)  # factors (K, R, B)
            for a in range(d):
                out = partial_trace_dims(
                    np.kron(povm[a], np.eye(d_b)) @ full, [d_k, d_r, d_b], keep=[2]
                )
                blocks[a].reshape(d_k, d_b, d_k, d_b)[s, :, t, :] = out
    return Teleportage(blocks, (d_k,), d_b)


def _purify_support(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lam, v, state)``: the support eigenvalues and eigenvectors (columns)
    of ``rho`` and the purification ``sum_i sqrt(lam_i) |i> (x) |v_i>`` on
    ``C^r (x) H``, with ``r`` the support rank."""
    vals, vecs = np.linalg.eigh(hermitize(rho))
    support = vals > GHJW_SUPPORT_CUTOFF
    lam, v = vals[support], vecs[:, support]
    state = (np.sqrt(lam)[:, None] * v.T).reshape(-1)
    return lam, v, state


def ghjw_realize_assemblage(a: Assemblage) -> tuple[np.ndarray, np.ndarray, float]:
    """Quantum model of a single-untrusted-party non-signalling assemblage.

    Returns ``(state, povms, residual)``: a purification of the reduced
    trusted state on ``C^r (x) H_B`` (r the support rank), measurement
    operators ``povms[x, a]`` on the purifying factor, and the worst
    reconstruction residual of ``tr_A[(M_{a|x} (x) 1) |psi><psi|]`` against
    the input elements.
    """
    if a.n_untrusted != 1:
        raise ValueError("constructive realization applies to one untrusted party")
    ok, res = is_nonsignalling_assemblage(a)
    if not ok:
        raise ValueError(f"assemblage is signalling (residual {res:.3e})")
    m, d = a.n_inputs, a.n_outputs
    lam, v, state = _purify_support(a.reduced_state())
    r = int(lam.size)

    povms = np.zeros((m, d, r, r), dtype=complex)
    scale = np.outer(np.sqrt(lam), np.sqrt(lam))
    for x in range(m):
        for out in range(d):
            s = v.conj().T @ a.element((out,), (x,)) @ v  # in the support basis
            povms[x, out] = s.T / scale

    model = quantum_assemblage(projector(state), [povms])
    worst = 0.0
    for x in range(m):
        worst = max(worst, frobenius(povms[x].sum(axis=0) - np.eye(r)))
        for out in range(d):
            worst = max(worst, frobenius(model.element((out,), (x,)) - a.element((out,), (x,))))
    return state, povms, float(worst)


def ghjw_realize_teleportage(t: Teleportage) -> tuple[np.ndarray, np.ndarray, float]:
    """Quantum model of a single-party non-signalling teleportage.

    Returns ``(state, joint_povm, residual)``: a purification of the fixed
    output state shared between an ancilla ``C^r`` and ``K_B``, measurement
    operators ``joint_povm[a]`` on ``K_1 (x) C^r``, and the worst residual of
    the forward simulation against the stored instrument blocks over a full
    matrix-unit input basis.
    """
    if t.n_parties != 1:
        raise ValueError("constructive realization applies to one untrusted party")
    ok, res = is_nonsignalling_teleportage(t)
    if not ok:
        raise ValueError(f"teleportage is signalling (residual {res:.3e})")
    d_k, d, d_b = t.dim_in, t.n_outputs, t.trusted_dim
    rho_b = partial_trace_dims(t.total_choi(), [d_k, d_b], keep=[1]) / d_k
    lam, v, state = _purify_support(rho_b)
    r = int(lam.size)

    # M_a[(s,i),(t,k)] = <v_k| T_a(|t><s|) |v_i> / sqrt(lam_k lam_i)
    povm = np.zeros((d,) + (d_k * r, d_k * r), dtype=complex)
    inv_sqrt = 1.0 / np.sqrt(lam)
    for a_idx in range(d):
        j = t.blocks[a_idx].reshape(d_k, d_b, d_k, d_b)
        # e[t_in, s_in, k, i] = <v_k| T(|t><s|) |v_i>
        e = np.einsum("bk,tbsc,ci->tski", v.conj(), j, v, optimize=True)
        m_a = np.einsum("tski,k,i->sitk", e, inv_sqrt, inv_sqrt, optimize=True)
        povm[a_idx] = m_a.reshape(d_k * r, d_k * r)

    worst = frobenius(povm.sum(axis=0) - np.eye(d_k * r))
    model = quantum_teleportage(projector(state), povm, d_k).blocks.reshape(d, d_k, d_b, d_k, d_b)
    target = t.blocks.reshape(d, d_k, d_b, d_k, d_b)
    for a_idx, s, u in product(range(d), range(d_k), range(d_k)):
        worst = max(worst, frobenius(model[a_idx, s, :, u] - target[a_idx, s, :, u]))
    return state, povm, float(worst)

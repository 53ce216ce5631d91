from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from causalchannels import (
    Assemblage,
    Correlation,
    Party,
    Teleportage,
    assemblage_from_channel,
    assemblage_general,
    chsh_value,
    compile_circuit,
    correlations_from_channel,
    correlations_general,
    distributed_measurement_from_channel,
    is_nonsignalling_assemblage,
    is_nonsignalling_correlation,
    is_nonsignalling_distributed_measurement,
    is_nonsignalling_teleportage,
    lhv_membership,
    teleportage_from_channel,
)
from causalchannels import channels
from causalchannels.channels import (
    Channel,
    CircuitChannel,
    CircuitGate,
    CircuitParty,
    channel_from_unitary,
    kraus_from_choi,
)
from causalchannels.constructions import (
    CNOT,
    HADAMARD,
    canonical_channel_from_correlations,
)
from causalchannels.linalg import (
    SystemLayout,
    Subsystem,
    basis_state,
    kron_all,
    partial_trace_dims,
    projector,
)
from causalchannels.sampling import (
    random_density,
    random_local_circuit,
    random_localizable_channel,
    random_povm,
    random_pure_state,
    random_unitary,
)
from conftest import pr_table
from oracles import max_entangled

RT2 = np.sqrt(2.0)
# analytic singlet-channel table entries for the pinned gate convention
P_ALIGNED = (1 + 1 / RT2) / 4  # 0.42677669529663687
P_ANTI = (1 - 1 / RT2) / 4  # 0.07322330470336313


def singlet_statevector_oracle() -> np.ndarray:
    """State-vector simulation of the singlet circuit, no channel machinery."""
    phi = max_entangled(2)
    u_a = {0: np.eye(2, dtype=complex), 1: HADAMARD}
    ry = lambda th: np.array(
        [[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]]
    )
    u_b = {0: ry(-np.pi / 4), 1: ry(np.pi / 4)}
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            state = np.kron(u_a[x], u_b[y]) @ phi
            for a in range(2):
                for b in range(2):
                    amp = state[2 * a + b]
                    table[a, b, x, y] = abs(amp) ** 2
    return table


class TestCorrelationType:
    def test_validation_catches_bad_normalization(self):
        t = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            Correlation(t).validate()

    def test_coarse_grain_merges_outcomes(self):
        t = np.zeros((4, 4, 1, 1))
        t[0, 1], t[2, 3] = 0.5, 0.5
        c = Correlation(t).coarse_grain(lambda k, o: o // 2, 2)
        assert c.prob((0, 0), (0, 0)) == 0.5
        assert c.prob((1, 1), (0, 0)) == 0.5


class TestCorrelationsFromChannel:
    def test_pr_formula(self, pr_channel):
        c = correlations_from_channel(pr_channel)
        assert np.max(np.abs(c.table - pr_table())) < 1e-12

    def test_fixed_preparation_channel_is_deterministic(self):
        # discard both inputs, output |00>
        regs = SystemLayout.of(
            ("a", 2, "untrusted-in"), ("b", 2, "untrusted-in"), ("za", 2), ("zb", 2)
        )
        circ = CircuitChannel(
            regs,
            (CircuitParty("A", "a", ("za",)), CircuitParty("B", "b", ("zb",))),
            basis_state(4, 0),
            (),
        )
        c = correlations_from_channel(compile_circuit(circ))
        for x_vec in product(range(2), repeat=2):
            assert abs(c.prob((0, 0), x_vec) - 1.0) < 1e-12

    def test_singlet_table_matches_statevector_oracle(self, singlet_channel):
        c = correlations_from_channel(singlet_channel)
        oracle = singlet_statevector_oracle()
        assert np.max(np.abs(c.table - oracle)) < 1e-9
        # frozen analytic entries for the pinned convention
        assert abs(c.prob((0, 0), (0, 0)) - P_ALIGNED) < 1e-9
        assert abs(c.prob((0, 1), (0, 0)) - P_ANTI) < 1e-9
        assert abs(c.prob((0, 0), (1, 1)) - P_ANTI) < 1e-9

    def test_trusted_channel_rejected(self, pq_pr_channel):
        with pytest.raises(ValueError, match="trusted"):
            correlations_from_channel(pq_pr_channel)


class TestCorrelationsGeneral:
    def test_basis_case_reduces(self, singlet_channel):
        preps = [[projector(basis_state(2, x)) for x in range(2)] for _ in range(2)]
        povms = [[projector(basis_state(2, a)) for a in range(2)] for _ in range(2)]
        general = correlations_general(singlet_channel, preps, povms)
        basic = correlations_from_channel(singlet_channel)
        assert np.max(np.abs(general.table - basic.table)) < 1e-10

    def test_maximally_mixed_preparations_erase_input_dependence(self, singlet_channel, rng):
        preps = [[np.eye(2) / 2 for _ in range(2)] for _ in range(2)]
        povms = [random_povm(rng, 2, 2) for _ in range(2)]
        c = correlations_general(singlet_channel, preps, povms)
        # table must be constant across inputs
        spread = c.table.max(axis=(2, 3)) - c.table.min(axis=(2, 3))
        assert np.max(spread) < 1e-10

    def test_matches_manual_kraus_embedding(self, rng):
        # independent route: embed the channel's Kraus operators into the
        # joint (in (x) aux) space by explicit factor permutation
        from causalchannels.channels import kraus_from_choi
        from causalchannels.linalg import permute_subsystems_dims
        from causalchannels.sampling import random_localizable_channel

        ch = random_localizable_channel(rng, n_parties=2, m=2, d=2)
        preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(2)]
        povms = [random_povm(rng, 4, 2) for _ in range(2)]
        got = correlations_general(ch, preps, povms)

        ks = kraus_from_choi(ch)
        perm = [0, 2, 1, 3]  # [in1,aux1,in2,aux2] <-> [in1,in2,aux1,aux2]
        table = np.zeros((2, 2, 2, 2))
        for x1, x2 in product(range(2), repeat=2):
            joint = np.kron(preps[0][x1], preps[1][x2])
            grouped = permute_subsystems_dims(joint, [2, 2, 2, 2], perm)
            out = np.zeros_like(grouped)
            for k in ks.operators:
                big = np.kron(k, np.eye(4))
                out += big @ grouped @ big.conj().T
            out = permute_subsystems_dims(out, [2, 2, 2, 2], perm)
            for a1, a2 in product(range(2), repeat=2):
                eff = np.kron(povms[0][a1], povms[1][a2])
                table[a1, a2, x1, x2] = np.trace(eff @ out).real
        assert np.max(np.abs(got.table - table)) < 1e-10

    def test_canonical_local_channel_stays_local_with_wirings(self, rng):
        # local seed table: mix of product deterministic points
        local = 0.6 * np.einsum(
            "ax,by->abxy", np.array([[1.0, 1], [0, 0]]), np.array([[0.0, 0], [1, 1]])
        ) + 0.4 * np.full((2, 2, 2, 2), 0.25)
        ch = canonical_channel_from_correlations(Correlation(local))
        for _ in range(3):
            preps = [
                [random_density(rng, 4) for _ in range(2)] for _ in range(2)
            ]  # aux dim 2
            povms = [random_povm(rng, 4, 2) for _ in range(2)]
            wired = correlations_general(ch, preps, povms)
            assert lhv_membership(wired).feasible


class TestAssemblages:
    def test_pr_steering_elements(self, pq_pr_channel):
        a = assemblage_from_channel(pq_pr_channel)
        expected = pr_table()[..., None, None] * (np.eye(2) / 2)
        assert np.max(np.abs(a.elements - expected)) < 1e-9
        ok, _ = is_nonsignalling_assemblage(a)
        assert ok

    def test_product_channel_factorizes(self, rng):
        # untrusted parties run the PR block; trusted side outputs a fixed
        # state rho_B prepared on its private ancilla
        rho_b = random_density(rng, 2)
        from causalchannels.constructions import pr_box_channel

        base = pr_box_channel()
        regs = list(base.registers.subsystems)
        regs.insert(2, Subsystem("Cin", 2, "trusted-in"))
        regs.append(Subsystem("Cout", 2))
        circ = CircuitChannel(
            SystemLayout(tuple(regs)),
            base.parties + (CircuitParty("C", "Cin", ("Cout",), trusted=True),),
            _mixed_prep(base.ancilla_prep, rho_b),
            base.gates,
        )
        ch = compile_circuit(circ)
        a = assemblage_from_channel(ch)
        expected = pr_table()[..., None, None] * rho_b
        assert np.max(np.abs(a.elements - expected)) < 1e-9

    def test_alpha_channel_matches_density_matrix_oracle(self, pq_alpha_channel):
        a = assemblage_from_channel(pq_alpha_channel)
        oracle = alpha_oracle_assemblage(1.0 / 6.0)
        assert np.max(np.abs(a.elements - oracle)) < 1e-9

    def test_trusted_trace_reproduces_correlations(self, pq_alpha_channel, pq_pr_channel):
        # tr sigma_{a|x} must equal the outcome probabilities computed by
        # applying the channel and tracing the trusted output first
        for ch in (pq_alpha_channel, pq_pr_channel):
            a = assemblage_from_channel(ch)
            c = a.to_correlation()
            n = len(ch.untrusted)
            d = ch.untrusted[0].dim_out
            d_b = ch.trusted_party.dim_out
            trusted_in = projector(basis_state(ch.trusted_party.dim_in, 0))
            worst = 0.0
            for x_vec in product(range(2), repeat=n):
                rho_in = kron_all(
                    [projector(basis_state(2, x)) for x in x_vec] + [trusted_in]
                )
                out = ch.apply(rho_in)
                traced = partial_trace_dims(out, [d] * n + [d_b], keep=list(range(n)))
                diag = np.real(np.diag(traced)).reshape((d,) * n)
                for a_vec in product(range(d), repeat=n):
                    worst = max(worst, abs(diag[a_vec] - c.prob(a_vec, x_vec)))
            assert worst < 1e-9

    def test_missing_trusted_party(self, pr_channel):
        with pytest.raises(ValueError, match="no trusted party"):
            assemblage_from_channel(pr_channel)


def _mixed_prep(base_prep: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    base = np.asarray(base_prep)
    if base.ndim == 1:
        base = np.outer(base, base.conj())
    return np.kron(base, rho_b)


def alpha_oracle_assemblage(alpha: float) -> np.ndarray:
    """Dense density-matrix simulation of the alpha circuit, gate by gate,
    without the channel/Choi machinery."""
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    cswap = np.eye(8, dtype=complex)
    cswap[4:, 4:] = swap
    cccx = np.eye(16, dtype=complex)
    cccx[14, 14], cccx[15, 15] = 0, 0
    cccx[14, 15], cccx[15, 14] = 1, 1
    phi = max_entangled(2)
    w = np.zeros(8, dtype=complex)
    w[0], w[7] = np.sqrt(alpha), np.sqrt(1 - alpha)
    elements = np.zeros((4, 4, 2, 2, 2, 2), dtype=complex)
    # register order: A, B, C, xA, xB, wA, wB, wC
    dims = [2] * 8
    for x in range(2):
        for y in range(2):
            vec = kron_all(
                [
                    basis_state(2, x).reshape(-1, 1),
                    basis_state(2, y).reshape(-1, 1),
                    basis_state(2, 0).reshape(-1, 1),
                    np.kron(phi, w).reshape(-1, 1),
                ]
            ).reshape(-1)
            state = vec.reshape(dims)
            state = _apply(state, cswap, [5, 0, 3], dims)
            state = _apply(state, cswap, [6, 1, 4], dims)
            state = _apply(state, cccx, [3, 4, 5, 0], dims)
            # outputs (A,wA),(B,wB),(wC); discard C,xA,xB
            rho = np.einsum(
                state,
                [0, 1, 2, 3, 4, 5, 6, 7],
                state.conj(),
                [8, 9, 2, 3, 4, 10, 11, 12],
                [0, 5, 1, 6, 7, 8, 10, 9, 11, 12],
            )
            rho = rho.reshape(32, 32)
            for oa in range(4):
                for ob in range(4):
                    sel = rho.reshape(4, 4, 2, 4, 4, 2)[oa, ob, :, oa, ob, :]
                    elements[oa, ob, x, y] = sel
    return elements


def _apply(state, gate, axes, dims):
    from causalchannels.linalg import apply_gate_to_tensor

    return apply_gate_to_tensor(state, gate, axes, dims)


class TestAssemblageGeneral:
    def test_no_aux_basis_case(self, pq_pr_channel):
        preps = [[projector(basis_state(2, x)) for x in range(2)] for _ in range(2)]
        povms = [[projector(basis_state(2, a)) for a in range(2)] for _ in range(2)]
        general = assemblage_general(pq_pr_channel, preps, povms)
        basic = assemblage_from_channel(pq_pr_channel)
        assert np.max(np.abs(general.elements - basic.elements)) < 1e-9

    def test_trusted_auxiliary_dimensions(self, pq_pr_channel, rng):
        preps = [[projector(basis_state(2, x)) for x in range(2)] for _ in range(2)]
        povms = [[projector(basis_state(2, a)) for a in range(2)] for _ in range(2)]
        trusted_prep = projector(random_pure_state(rng, 4))  # B_in (x) aux of dim 2
        general = assemblage_general(pq_pr_channel, preps, povms, trusted_prep)
        assert general.trusted_dim == 4  # B_out (x) B_aux
        ok, res = is_nonsignalling_assemblage(general)
        assert ok, res

    def test_matches_manual_kraus_embedding(self, pq_pr_channel, rng):
        from causalchannels.channels import kraus_from_choi
        from causalchannels.linalg import permute_subsystems_dims

        preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(2)]
        povms = [random_povm(rng, 4, 2) for _ in range(2)]
        trusted_prep = projector(random_pure_state(rng, 4))
        got = assemblage_general(pq_pr_channel, preps, povms, trusted_prep)

        ks = kraus_from_choi(pq_pr_channel)
        # joint order [in1,aux1,in2,aux2,Bin,Baux]; channel wants ins first
        to_grouped = [0, 2, 4, 1, 3, 5]
        from_grouped = [to_grouped.index(k) for k in range(6)]
        elements = np.zeros((2, 2, 2, 2, 4, 4), dtype=complex)
        for x1, x2 in product(range(2), repeat=2):
            joint = np.kron(np.kron(preps[0][x1], preps[1][x2]), trusted_prep)
            grouped = permute_subsystems_dims(joint, [2] * 6, to_grouped)
            out = np.zeros_like(grouped)
            for k in ks.operators:
                big = np.kron(k, np.eye(8))
                out += big @ grouped @ big.conj().T
            out = permute_subsystems_dims(out, [2] * 6, from_grouped)
            for a1, a2 in product(range(2), repeat=2):
                eff = np.kron(np.kron(povms[0][a1], povms[1][a2]), np.eye(4))
                elements[a1, a2, x1, x2] = partial_trace_dims(
                    eff @ out, [2] * 6, keep=[4, 5]
                )
        assert np.max(np.abs(got.elements - elements)) < 1e-10

    def test_lhs_seed_with_random_wirings_stays_local(self, rng):
        # canonical channel of an LHS assemblage: whatever auxiliary wirings
        # the untrusted parties use, Bob-measured correlations remain local
        from causalchannels.constructions import canonical_channel_from_assemblage

        rho_b = random_density(rng, 2)
        el = (np.full((2, 2, 2, 2), 0.25)[..., None, None] * rho_b).astype(complex)
        ch = canonical_channel_from_assemblage(Assemblage(el))
        for _ in range(5):
            preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(2)]
            povms = [random_povm(rng, 4, 2) for _ in range(2)]
            wired = assemblage_general(ch, preps, povms)
            bob = random_povm(rng, 2, 2)
            joint = np.zeros((2, 2, 2, 2, 2, 2))
            for aa, bb, x, y in product(range(2), repeat=4):
                for c in range(2):
                    p = np.trace(bob[c] @ wired.element((aa, bb), (x, y))).real
                    joint[aa, bb, c, x, y, :] = p  # Bob's input is a dummy
            from causalchannels import lhv_membership

            assert lhv_membership(Correlation(joint)).feasible


class TestDistributedMeasurements:
    def test_canonical_channel_diagonal_povm(self):
        c = Correlation(pr_table())
        ch = canonical_channel_from_correlations(c)
        dm = distributed_measurement_from_channel(ch)
        dm.validate()
        for a in range(2):
            for b in range(2):
                expected = np.zeros((4, 4), dtype=complex)
                for x in range(2):
                    for y in range(2):
                        expected[2 * x + y, 2 * x + y] = c.prob((a, b), (x, y))
                assert np.max(np.abs(dm.element((a, b)) - expected)) < 1e-12

    def test_unitary_relabeling_gives_projectors(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = channel_from_unitary(u, (Party("A", 2, 2),))
        dm = distributed_measurement_from_channel(ch)
        for a in range(2):
            el = dm.element((a,))
            vals = np.linalg.eigvalsh(el)
            assert np.allclose(sorted(vals), [0, 1], atol=1e-9)

    def test_bell_measurement_circuit(self):
        u_bell = np.kron(HADAMARD, np.eye(2)) @ CNOT
        ch = channel_from_unitary(u_bell, (Party("A", 2, 2), Party("B", 2, 2)))
        dm = distributed_measurement_from_channel(ch)
        dm.validate()
        for i in range(2):
            for j in range(2):
                bell = u_bell.conj().T @ np.kron(basis_state(2, i), basis_state(2, j))
                assert np.max(np.abs(dm.element((i, j)) - projector(bell))) < 1e-9

    def test_basis_preparations_recover_bell_statistics(self, pr_channel):
        # preparing basis states reduces the Buscemi scenario to the Bell one
        dm = distributed_measurement_from_channel(pr_channel)
        states = [
            [projector(basis_state(2, x)) for x in range(2)] for _ in range(2)
        ]
        born = dm.probabilities(states)
        direct = correlations_from_channel(pr_channel)
        assert np.max(np.abs(born.table - direct.table)) < 1e-10

    def test_nonsignalling_predicate(self):
        c = Correlation(pr_table())
        dm = distributed_measurement_from_channel(canonical_channel_from_correlations(c))
        ok, res = is_nonsignalling_distributed_measurement(dm)
        assert ok, res
        # a Bell measurement is signalling as a distributed measurement
        u_bell = np.kron(HADAMARD, np.eye(2)) @ CNOT
        dm2 = distributed_measurement_from_channel(
            channel_from_unitary(u_bell, (Party("A", 2, 2), Party("B", 2, 2)))
        )
        ok2, _ = is_nonsignalling_distributed_measurement(dm2)
        assert not ok2


def teleportation_circuit() -> CircuitChannel:
    """Shared |Phi+>, Bell measurement on (input, half), no correction."""
    u_bell = np.kron(HADAMARD, np.eye(2)) @ CNOT
    regs = SystemLayout.of(
        ("K", 2, "untrusted-in"), ("Bin", 2, "trusted-in"), ("eA", 2), ("eB", 2)
    )
    return CircuitChannel(
        regs,
        (
            CircuitParty("A", "K", ("K", "eA")),
            CircuitParty("B", "Bin", ("eB",), trusted=True),
        ),
        max_entangled(2),
        (CircuitGate(u_bell, ("K", "eA")),),
    )


class TestTeleportages:
    def test_measure_and_forward_fixed_state(self):
        # measure the input in the computational basis, output a fixed rho_B
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        blocks = np.zeros((2, 4, 4), dtype=complex)
        for a in range(2):
            blocks[a].reshape(2, 2, 2, 2)[a, :, a, :] = rho_b
        t = Teleportage(blocks, (2,), 2)
        t.validate()
        ok, res = is_nonsignalling_teleportage(t)
        assert ok, res
        rho = np.array([[0.25, 0.2], [0.2, 0.75]], dtype=complex)
        out = t.apply((0,), rho)
        assert np.max(np.abs(out - rho[0, 0] * rho_b)) < 1e-12

    def test_textbook_teleportation_identity(self, rng):
        ch = compile_circuit(teleportation_circuit())
        t = teleportage_from_channel(ch)
        t.validate()
        u_bell = np.kron(HADAMARD, np.eye(2)) @ CNOT
        phi = max_entangled(2)
        worst = 0.0
        for idx in range(4):
            i, j = divmod(idx, 2)
            beta = u_bell.conj().T @ np.kron(basis_state(2, i), basis_state(2, j))
            # byproduct operator via tensor contraction of the Bell bra with
            # the resource ket: sigma[b, s] = 2 sum_e conj(beta[s, e]) phi[e, b]
            sigma = 2 * np.einsum("se,eb->bs", beta.conj().reshape(2, 2), phi.reshape(2, 2))
            # Pauli up to phase
            paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])]
            paulis.append(paulis[1] @ paulis[2])
            assert any(
                abs(abs(np.trace(p.conj().T @ sigma)) - 2.0) < 1e-9 for p in paulis
            )
            for _ in range(5):
                rho = random_density(rng, 2)
                expected = 0.25 * sigma @ rho @ sigma.conj().T
                worst = max(worst, np.max(np.abs(t.apply((idx,), rho) - expected)))
        assert worst < 1e-9

    def test_sum_is_trace_preserving(self, rng):
        ch = compile_circuit(teleportation_circuit())
        t = teleportage_from_channel(ch)
        for _ in range(5):
            rho = random_density(rng, 2)
            total = sum(t.apply((a,), rho) for a in range(4))
            assert abs(np.trace(total) - 1.0) < 1e-9

    def test_basis_preparations_reproduce_assemblage(self, pq_pr_channel):
        t = teleportage_from_channel(pq_pr_channel)
        a = assemblage_from_channel(pq_pr_channel)
        for x in range(2):
            for y in range(2):
                rho_in = np.kron(
                    projector(basis_state(2, x)), projector(basis_state(2, y))
                )
                for aa in range(2):
                    for bb in range(2):
                        got = t.apply((aa, bb), rho_in)
                        assert np.max(np.abs(got - a.element((aa, bb), (x, y)))) < 1e-9

    def test_nonsignalling(self, pq_pr_channel):
        t = teleportage_from_channel(pq_pr_channel)
        ok, res = is_nonsignalling_teleportage(t)
        assert ok, res


class TestNonSignallingPredicates:
    def test_pr_is_nonsignalling(self):
        ok, res = is_nonsignalling_correlation(Correlation(pr_table()))
        assert ok
        assert res < 1e-12

    def test_constructed_violation(self):
        t = np.zeros((2, 2, 2, 2))
        # Alice's marginal depends on y: p(a|x, y) = delta_{a, y}
        for x in range(2):
            for y in range(2):
                t[y, 0, x, y] = 1.0
        ok, res = is_nonsignalling_correlation(Correlation(t))
        assert not ok
        assert res > 0.4

    def test_pr_steering_assemblage(self):
        el = (pr_table()[..., None, None] * (np.eye(2) / 2)).astype(complex)
        ok, _ = is_nonsignalling_assemblage(Assemblage(el))
        assert ok


class TestChsh:
    def test_pr_value(self):
        assert abs(chsh_value(Correlation(pr_table())) - 4.0) < 1e-12

    def test_singlet_value(self, singlet_channel):
        c = correlations_from_channel(singlet_channel)
        assert abs(chsh_value(c) - 2 * RT2) < 1e-6

    def test_alpha_value(self, pq_alpha_channel):
        a = assemblage_from_channel(pq_alpha_channel)
        binary = a.to_correlation().coarse_grain(lambda k, o: o // 2, 2)
        assert abs(chsh_value(binary) - 3.0) < 1e-6

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            chsh_value(Correlation(np.full((3, 3, 2, 2), 1 / 9)))

    def test_outcome_relabeling_flips_sign_only(self):
        table = pr_table()
        flipped = Correlation(table[::-1, :, :, :])  # relabel Alice's outcome
        assert abs(chsh_value(flipped) + chsh_value(Correlation(table))) < 1e-12


class TestCausalChannelsGiveNonsignallingObjects:
    def test_gallery(self, pr_channel, singlet_channel, pq_pr_channel, pq_alpha_channel):
        for ch in (pr_channel, singlet_channel):
            ok, res = is_nonsignalling_correlation(correlations_from_channel(ch))
            assert ok, res
        for ch in (pq_pr_channel, pq_alpha_channel):
            ok, res = is_nonsignalling_assemblage(assemblage_from_channel(ch))
            assert ok, res
            ok, res = is_nonsignalling_teleportage(teleportage_from_channel(ch))
            assert ok, res

    def test_random_causal_channels(self, rng):
        for _ in range(3):
            ch = random_localizable_channel(rng)
            c = correlations_from_channel(ch)
            ok, res = is_nonsignalling_correlation(c, tol=1e-7)
            assert ok, res


# ----------------------------------------------------------------------------
# The one extraction kernel against the per-input loops it replaced
# ----------------------------------------------------------------------------

def _ref_correlations(ch, ins, outs):
    """Per-input ``apply`` loop; ``ins``/``outs`` hold basis rows per party."""
    n, m, d = ch.n_parties, len(ins[0]), len(outs[0])
    table = np.zeros((d,) * n + (m,) * n)
    for x_vec in product(range(m), repeat=n):
        out = ch.apply(kron_all([projector(ins[k][x_vec[k]]) for k in range(n)]))
        for a_vec in product(range(d), repeat=n):
            vec = kron_all([outs[k][a_vec[k]].reshape(-1, 1) for k in range(n)]).reshape(-1)
            table[a_vec + x_vec] = np.real(vec.conj() @ out @ vec)
    return table


def _ref_assemblage(ch, ins, outs, trusted_input):
    """Per-input ``apply`` loop with ``tensordot`` per outcome."""
    n, m, d = len(ch.untrusted), len(ins[0]), len(outs[0])
    d_b = ch.trusted_party.dim_out
    elements = np.zeros((d,) * n + (m,) * n + (d_b, d_b), dtype=complex)
    for x_vec in product(range(m), repeat=n):
        out = ch.apply(kron_all([projector(ins[k][x_vec[k]]) for k in range(n)] + [trusted_input]))
        out_t = out.reshape((d,) * n + (d_b,) + (d,) * n + (d_b,))
        for a_vec in product(range(d), repeat=n):
            block = out_t
            for k in range(n):
                v = outs[k][a_vec[k]]
                block = np.tensordot(v.conj(), block, axes=(0, 0))
                block = np.tensordot(v, block, axes=(0, n - k))
            elements[a_vec + x_vec] = (block + block.conj().T) / 2
    return elements


def _ref_general(ch, preparations, povms, trusted_prep=None):
    """Per-input ``apply_to_subsystems`` loop with one ``einsum`` per outcome."""
    parties = ch.untrusted
    n, m, d = len(parties), len(preparations[0]), len(povms[0])
    dims = []
    for k, p in enumerate(parties):
        dims.extend([p.dim_in, preparations[k][0].shape[0] // p.dim_in])
    if trusted_prep is not None:
        dims.extend([ch.trusted_party.dim_in, trusted_prep.shape[0] // ch.trusted_party.dim_in])
    positions = tuple(range(0, len(dims), 2))
    d_b = 1 if trusted_prep is None else ch.trusted_party.dim_out * dims[-1]
    elements = np.zeros((d,) * n + (m,) * n + (d_b, d_b), dtype=complex)
    for x_vec in product(range(m), repeat=n):
        joint = kron_all([preparations[k][x_vec[k]] for k in range(n)])
        if trusted_prep is not None:
            joint = np.kron(joint, trusted_prep)
        out, _ = ch.apply_to_subsystems(joint, tuple(dims), positions)
        d_e = out.shape[0] // d_b
        t = out.reshape(d_e, d_b, d_e, d_b)
        for a_vec in product(range(d), repeat=n):
            effect = kron_all([povms[k][a_vec[k]] for k in range(n)])
            elements[a_vec + x_vec] = np.einsum("qp,pbqc->bc", effect, t)
    return elements


def _ref_measurement(ch, outs):
    """``dual_apply`` per outcome."""
    n, d = ch.n_parties, len(outs[0])
    elements = np.zeros((d,) * n + (ch.dim_in, ch.dim_in), dtype=complex)
    for a_vec in product(range(d), repeat=n):
        m = ch.dual_apply(kron_all([projector(outs[k][a_vec[k]]) for k in range(n)]))
        elements[a_vec] = (m + m.conj().T) / 2
    return elements


def _ref_teleportage(ch, outs, trusted_input):
    """Per-matrix-unit ``apply`` loop with ``tensordot`` per outcome."""
    untrusted = ch.untrusted
    n, d = len(untrusted), len(outs[0])
    d_in = int(np.prod([p.dim_in for p in untrusted]))
    d_b = ch.trusted_party.dim_out
    blocks = np.zeros((d,) * n + (d_in * d_b, d_in * d_b), dtype=complex)
    for s in range(d_in):
        for t in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[s, t] = 1.0
            o_t = ch.apply(np.kron(unit, trusted_input)).reshape(((d,) * n + (d_b,)) * 2)
            for a_vec in product(range(d), repeat=n):
                block = o_t
                for k in range(n):
                    v = outs[k][a_vec[k]]
                    block = np.tensordot(v.conj(), block, axes=(0, 0))
                    block = np.tensordot(v, block, axes=(0, n - k))
                blocks[a_vec].reshape(d_in, d_b, d_in, d_b)[s, :, t, :] = block
    return blocks


def _bases(rng, n, dim):
    return [random_unitary(rng, dim) for _ in range(n)]


def _trusted_channel(trusted_dim):
    rng = np.random.default_rng(40 + trusted_dim)
    return compile_circuit(random_local_circuit(rng, trusted_dim=trusted_dim))


KERNEL_TOL = 1e-12


class TestOneKernel:
    @pytest.mark.parametrize("n_parties", [2, 3])
    def test_bell_and_buscemi_objects(self, n_parties):
        rng = np.random.default_rng(20 + n_parties)
        ch = random_localizable_channel(rng, n_parties=n_parties)
        eye = [np.eye(2, dtype=complex)] * n_parties
        for ins, outs in ((None, None), (_bases(rng, n_parties, 2), _bases(rng, n_parties, 2))):
            got = correlations_from_channel(ch, ins, outs).table
            ref = _ref_correlations(ch, ins or eye, outs or eye)
            assert np.max(np.abs(got - ref)) < KERNEL_TOL
            got = distributed_measurement_from_channel(ch, outs).elements
            assert np.max(np.abs(got - _ref_measurement(ch, outs or eye))) < KERNEL_TOL
        preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(n_parties)]
        povms = [random_povm(rng, 4, 2) for _ in range(n_parties)]
        got = correlations_general(ch, preps, povms).table
        ref = _ref_general(ch, preps, povms)[..., 0, 0].real
        assert np.max(np.abs(got - ref)) < KERNEL_TOL

    @pytest.mark.parametrize("trusted_dim", [2, 3])
    def test_steering_and_teleportation_objects(self, trusted_dim):
        rng = np.random.default_rng(30 + trusted_dim)
        ch = _trusted_channel(trusted_dim)
        zero = projector(basis_state(trusted_dim, 0))
        tilted = random_pure_state(rng, trusted_dim)
        eye = [np.eye(2, dtype=complex)] * 2
        for ins, outs, vec in ((None, None, None), (_bases(rng, 2, 2), _bases(rng, 2, 2), tilted)):
            tau = zero if vec is None else projector(vec)
            got = assemblage_from_channel(ch, ins, outs, vec).elements
            ref = _ref_assemblage(ch, ins or eye, outs or eye, tau)
            assert np.max(np.abs(got - ref)) < KERNEL_TOL
            got = teleportage_from_channel(ch, outs, vec).blocks
            assert np.max(np.abs(got - _ref_teleportage(ch, outs or eye, tau))) < KERNEL_TOL
        preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(2)]
        povms = [random_povm(rng, 4, 2) for _ in range(2)]
        trusted_prep = random_density(rng, 2 * trusted_dim)
        got = assemblage_general(ch, preps, povms, trusted_prep).elements
        ref = _ref_general(ch, preps, povms, trusted_prep)
        ref = (ref + np.conj(np.swapaxes(ref, -1, -2))) / 2
        assert np.max(np.abs(got - ref)) < KERNEL_TOL

    def test_one_channel_call_per_extraction(self, monkeypatch, pr_channel, pq_pr_channel):
        calls = []

        def counted(name, method):
            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        for name in ("apply", "dual_apply", "apply_to_subsystems"):
            monkeypatch.setattr(Channel, name, counted(name, getattr(Channel, name)))
        preps = [[projector(basis_state(2, x)) for x in range(2)] for _ in range(2)]
        povms = [[projector(basis_state(2, a)) for a in range(2)] for _ in range(2)]
        extractions = [
            lambda: correlations_from_channel(pr_channel),
            lambda: correlations_general(pr_channel, preps, povms),
            lambda: distributed_measurement_from_channel(pr_channel),
            lambda: assemblage_from_channel(pq_pr_channel),
            lambda: assemblage_general(pq_pr_channel, preps, povms),
            lambda: teleportage_from_channel(pq_pr_channel),
        ]
        for extract in extractions:
            calls.clear()
            extract()
            assert calls == ["apply_to_subsystems"]

    def test_choi_is_read_only(self, pr_channel):
        with pytest.raises(ValueError):
            pr_channel.choi[0, 0] = 1

    def test_choi_grouped_once_per_channel(self, monkeypatch, pr_channel):
        ch = Channel(pr_channel.parties, pr_channel.choi)
        groupings = []
        original = channels.permute_subsystems_dims

        def counting(m, dims, perm):
            if m is ch.choi:
                groupings.append(tuple(perm))
            return original(m, dims, perm)

        monkeypatch.setattr(channels, "permute_subsystems_dims", counting)
        rho = projector(basis_state(ch.dim_in, 1))
        first = ch.apply(rho)
        for _ in range(3):
            assert np.array_equal(ch.apply(rho), first)
        ch.dual_apply(np.eye(ch.dim_out))
        ch.apply_to_subsystems(rho, ch.dims_in, (0, 1))
        kraus_from_choi(ch)
        assert len(groupings) == 1

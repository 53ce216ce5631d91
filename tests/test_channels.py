from __future__ import annotations

import numpy as np
import pytest

from causalchannels import (
    Assemblage,
    Channel,
    CircuitChannel,
    CircuitGate,
    CircuitParty,
    Correlation,
    KrausSet,
    Party,
    SystemLayout,
    canonical_channel_from_assemblage,
    canonical_channel_from_correlations,
    choi_from_kraus,
    compile_circuit,
    compose_parallel,
    compose_serial,
    identity_channel,
    kraus_from_choi,
)
from causalchannels.channels import channel_from_unitary
from causalchannels.constructions import HADAMARD, pr_box_channel
from causalchannels.linalg import basis_state, projector
from oracles import max_entangled, pr_box_kraus_channel, simulate_circuit
from conftest import pr_table


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(rng, d_in, d_out, n_kraus=3) -> Channel:
    """Random CPTP map from a Stinespring-style isometry."""
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[k * d_out : (k + 1) * d_out, :] for k in range(n_kraus))
    return choi_from_kraus(KrausSet(ops, d_in, d_out), (Party("p1", d_in, d_out),))


class TestCompile:
    def test_empty_circuit_is_identity(self):
        regs = SystemLayout.of(("a", 2, "untrusted-in"))
        circ = CircuitChannel(
            regs, (CircuitParty("A", "a", ("a",)),), np.ones(1, dtype=complex), ()
        )
        ch = compile_circuit(circ)
        assert np.max(np.abs(ch.choi - identity_channel((2,)).choi)) < 1e-12

    def test_unitary_circuit_choi(self):
        # single-party Hadamard: choi = (H (x) 1)|Phi+><Phi+|(H (x) 1)^dag up
        # to the in/out factor ordering convention
        regs = SystemLayout.of(("a", 2, "untrusted-in"))
        circ = CircuitChannel(
            regs,
            (CircuitParty("A", "a", ("a",)),),
            np.ones(1, dtype=complex),
            (CircuitGate(HADAMARD, ("a",)),),
        )
        ch = compile_circuit(circ)
        phi = max_entangled(2)
        big = np.kron(np.eye(2), HADAMARD)  # factors (in-reference, out)
        expected = big @ projector(phi) @ big.conj().T
        assert np.max(np.abs(ch.choi - expected)) < 1e-12

    def test_pr_circuit_matches_kraus_oracle(self, pr_channel):
        oracle = pr_box_kraus_channel()
        assert np.max(np.abs(pr_channel.choi - oracle.choi)) < 1e-9

    def test_gate_order_only_through_total_unitary(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        regs = SystemLayout.of(("a", 2, "untrusted-in"))
        party = (CircuitParty("A", "a", ("a",)),)
        two_gates = CircuitChannel(
            regs, party, np.ones(1, dtype=complex),
            (CircuitGate(u, ("a",)), CircuitGate(v, ("a",))),
        )
        one_gate = CircuitChannel(
            regs, party, np.ones(1, dtype=complex), (CircuitGate(v @ u, ("a",)),)
        )
        delta = compile_circuit(two_gates).choi - compile_circuit(one_gate).choi
        assert np.linalg.norm(delta) < 1e-9

    def test_compiled_channels_are_cptp(self, pr_channel, singlet_channel, pq_alpha_channel):
        for ch in (pr_channel, singlet_channel, pq_alpha_channel):
            neg, tp = ch.validity_residuals()
            assert neg < 1e-9
            assert tp < 1e-9

    def test_rejects_non_unitary_gate(self):
        regs = SystemLayout.of(("a", 2, "untrusted-in"))
        circ = CircuitChannel(
            regs,
            (CircuitParty("A", "a", ("a",)),),
            np.ones(1, dtype=complex),
            (CircuitGate(np.array([[1.0, 0.0], [0.0, 0.5]]), ("a",)),),
        )
        with pytest.raises(ValueError, match="not unitary"):
            compile_circuit(circ)

    def test_rejects_dimension_mismatch(self):
        regs = SystemLayout.of(("a", 2, "untrusted-in"), ("b", 3))
        circ = CircuitChannel(
            regs,
            (CircuitParty("A", "a", ("b",)),),
            basis_state(3, 0),
            (CircuitGate(np.eye(4), ("a", "b")),),
        )
        with pytest.raises(ValueError, match="shape"):
            compile_circuit(circ)

    def test_simulate_matches_apply(self, rng, pr_channel):
        circ = pr_box_channel()
        rho = random_density(rng, 4)
        direct = simulate_circuit(circ, rho)
        assert np.max(np.abs(direct - pr_channel.apply(rho))) < 1e-10


class TestApply:
    def test_identity(self, rng):
        ch = identity_channel((2, 2))
        rho = random_density(rng, 4)
        assert np.max(np.abs(ch.apply(rho) - rho)) < 1e-12

    def test_constant_channel_to_maximally_mixed(self, rng):
        # discard the input, output I/2
        regs = SystemLayout.of(("a", 2, "untrusted-in"), ("e", 2), ("f", 2))
        circ = CircuitChannel(
            regs,
            (CircuitParty("A", "a", ("e",)),),
            max_entangled(2),
            (),
        )
        ch = compile_circuit(circ)
        for _ in range(3):
            out = ch.apply(random_density(rng, 2))
            assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12

    def test_matches_kraus_evaluation(self, rng):
        ch = random_channel(rng, 3, 2)
        ks = kraus_from_choi(ch)
        for _ in range(20):
            rho = random_density(rng, 3)
            assert np.max(np.abs(ch.apply(rho) - ks.apply(rho))) < 1e-9

    def test_linearity(self, rng):
        ch = random_channel(rng, 2, 3)
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        lhs = ch.apply(0.3 * rho + 0.7j * sigma)
        rhs = 0.3 * ch.apply(rho) + 0.7j * ch.apply(sigma)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="input"):
            identity_channel((2,)).apply(random_density(rng, 3))


class TestKrausChoi:
    def test_unitary_channel_single_kraus(self):
        ch = channel_from_unitary(HADAMARD, (Party("A", 2, 2),))
        ks = kraus_from_choi(ch)
        assert len(ks.operators) == 1
        k = ks.operators[0]
        phase = k[0, 0] / HADAMARD[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(k - phase * HADAMARD)) < 1e-9

    def test_round_trip(self, rng):
        for _ in range(5):
            ch = random_channel(rng, 2, 3)
            back = choi_from_kraus(kraus_from_choi(ch), ch.parties)
            assert np.max(np.abs(back.choi - ch.choi)) < 1e-9

    def test_rank_matches_choi_rank(self, rng):
        ch = random_channel(rng, 2, 2, n_kraus=2)
        vals = np.linalg.eigvalsh(ch.choi)
        rank = int((vals > 1e-10).sum())
        assert len(kraus_from_choi(ch).operators) == rank


class TestDual:
    def test_unitary_channel_adjoint(self, rng):
        ch = channel_from_unitary(HADAMARD, (Party("A", 2, 2),))
        e = random_density(rng, 2)
        expected = HADAMARD.conj().T @ e @ HADAMARD
        assert np.max(np.abs(ch.dual_apply(e) - expected)) < 1e-10

    def test_adjoint_is_unital(self, rng):
        for _ in range(5):
            ch = random_channel(rng, 3, 2)
            got = ch.dual_apply(np.eye(2))
            assert np.max(np.abs(got - np.eye(3))) < 1e-9

    def test_pairing_identity(self, rng):
        ch = random_channel(rng, 2, 3)
        for _ in range(10):
            e = random_density(rng, 3)
            rho = random_density(rng, 2)
            lhs = np.trace(e @ ch.apply(rho))
            rhs = np.trace(ch.dual_apply(e) @ rho)
            assert abs(lhs - rhs) < 1e-9


class TestCompose:
    def test_parallel_identity(self, rng):
        ch = compose_parallel(identity_channel((2,)), identity_channel((2,)))
        rho = random_density(rng, 4)
        assert np.max(np.abs(ch.apply(rho) - rho)) < 1e-12

    def test_serial_unitary_inverse(self, rng):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        ch_u = channel_from_unitary(u, (Party("A", 3, 3),))
        ch_ud = channel_from_unitary(u.conj().T, (Party("A", 3, 3),))
        composed = compose_serial(ch_u, ch_ud)
        rho = random_density(rng, 3)
        assert np.max(np.abs(composed.apply(rho) - rho)) < 1e-9

    def test_serial_matches_sequential_application(self, rng):
        a = random_channel(rng, 2, 3)
        b = random_channel(rng, 3, 2)
        composed = compose_serial(a, b)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.max(np.abs(composed.apply(rho) - b.apply(a.apply(rho)))) < 1e-9

    def test_serial_layout_mismatch(self, rng):
        a = random_channel(rng, 2, 3)
        with pytest.raises(ValueError, match="dim"):
            compose_serial(a, a)


class TestGroupedLayout:
    def test_from_grouped_inverts_grouped(
        self, pr_channel, singlet_channel, pq_pr_channel, pq_alpha_channel
    ):
        el = (np.full((2, 2, 2, 2), 0.25)[..., None, None] * np.eye(3) / 3).astype(complex)
        gallery = [
            pr_channel,
            singlet_channel,
            pq_pr_channel,
            pq_alpha_channel,
            canonical_channel_from_correlations(Correlation(pr_table())),
            canonical_channel_from_assemblage(Assemblage(el)),
            identity_channel((2, 3)),
        ]
        for ch in gallery:
            back = Channel.from_grouped(ch.parties, ch._grouped)
            assert back.parties == ch.parties
            assert back.choi.tobytes() == ch.choi.tobytes()
        assert sum(ch.trusted_party is not None for ch in gallery) == 3


class TestChannelValidation:
    def test_non_psd_choi_rejected(self):
        bad = np.diag([0.75, -0.25, 0.75, -0.25]).astype(complex)  # trace preserving
        ch = Channel((Party("A", 2, 2),), bad)
        with pytest.raises(ValueError, match="PSD"):
            ch.validate()

    def test_trace_preservation_checked(self):
        bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        ch = Channel((Party("A", 2, 2),), bad)
        with pytest.raises(ValueError, match="trace preserving"):
            ch.validate()

    def test_trace_preservation_checked_before_positivity(self):
        bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)  # neither
        ch = Channel((Party("A", 2, 2),), bad)
        with pytest.raises(ValueError, match="trace preserving"):
            ch.validate()

    def test_read_only_choi_kept_writeable_choi_copied(self):
        choi = identity_channel((2,)).choi.copy()
        ch = Channel((Party("A", 2, 2),), choi)
        choi[0, 0] = 7.0
        assert ch.choi[0, 0] == 0.5 and not ch.choi.flags.writeable
        frozen = ch.choi
        assert Channel(ch.parties, frozen).choi is frozen

    def test_trusted_party_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            Channel(
                (Party("B", 2, 2, trusted=True), Party("A", 2, 2)),
                np.eye(16, dtype=complex) / 16,
            )

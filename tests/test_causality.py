from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchannels import (
    Correlation,
    Party,
    canonical_channel_from_assemblage,
    canonical_channel_from_correlations,
    is_causal,
    is_nonsignalling_assemblage,
    is_nonsignalling_correlation,
    is_semicausal,
    signalling_witness,
)
from causalchannels.channels import channel_from_unitary, identity_channel
from causalchannels.sampling import (
    random_local_circuit,
    random_localizable_channel,
    random_quantum_assemblage,
    random_unitary,
)
from causalchannels import compile_circuit

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def swap_channel():
    return channel_from_unitary(SWAP, (Party("A", 2, 2), Party("B", 2, 2)))


def cyclic_shift_channel():
    # outputs (c, a, b) from inputs (a, b, c)
    perm = np.zeros((8, 8))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                perm[4 * k + 2 * i + j, 4 * i + 2 * j + k] = 1
    return channel_from_unitary(
        perm, (Party("A", 2, 2), Party("B", 2, 2), Party("C", 2, 2))
    )


def controlled_phase_channel(theta: float):
    u = np.diag([1, 1, 1, np.exp(1j * theta)])
    return channel_from_unitary(u, (Party("A", 2, 2), Party("B", 2, 2)))


class TestSemicausal:
    def test_identity_both_directions(self):
        ch = identity_channel((2, 2))
        for sender, receiver in ((("p1",), ("p2",)), (("p2",), ("p1",))):
            ok, res, sigma = is_semicausal(ch, sender, receiver)
            assert ok
            assert res < 1e-12
            assert abs(np.trace(sigma) - 1.0) < 1e-9

    def test_swap_signals_both_ways(self):
        ch = swap_channel()
        for sender, receiver in ((("A",), ("B",)), (("B",), ("A",))):
            ok, res, _ = is_semicausal(ch, sender, receiver)
            assert not ok
            assert res > 0.1

    def test_pr_channel_semicausal_both_ways(self, pr_channel):
        for sender, receiver in ((("A",), ("B",)), (("B",), ("A",))):
            ok, res, _ = is_semicausal(pr_channel, sender, receiver)
            assert ok, res

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            is_semicausal(identity_channel((2, 2)), ("p1",), ("p1", "p2"))

    def test_unknown_party_rejected(self):
        with pytest.raises(ValueError, match="unknown party"):
            is_semicausal(identity_channel((2, 2)), ("nope",), ("p2",))

    def test_trusted_party_joins_receiver_side(self, pq_pr_channel):
        # C unassigned: appended to the kept side automatically
        ok, res, sigma = is_semicausal(pq_pr_channel, ("A",), ("B",))
        assert ok, res
        # the factor covers B's and C's in/out spaces
        assert sigma.shape == (16, 16)


class TestCausal:
    def test_alpha_channel_tripartite(self, pq_alpha_channel):
        rep = is_causal(pq_alpha_channel)
        assert rep.causal
        assert len(rep.checks) == 6
        assert rep.max_residual < 1e-9

    def test_cyclic_shift_not_causal(self):
        rep = is_causal(cyclic_shift_channel())
        assert not rep.causal
        # every single-party receiver hears from the party feeding it
        assert not rep.check(("C",), ("A", "B")).semicausal

    def test_local_circuits_are_causal(self, rng):
        for _ in range(3):
            ch = compile_circuit(random_local_circuit(rng))
            assert is_causal(ch).causal

    def test_mixtures_of_causal_channels_stay_causal(self, rng, pr_channel, singlet_channel):
        from causalchannels.channels import Channel

        w = rng.uniform(0.2, 0.8)
        mixed = Channel(
            pr_channel.parties, w * pr_channel.choi + (1 - w) * singlet_channel.choi
        )
        assert is_causal(mixed).causal

    def test_stable_under_local_unitary_conjugation(self, rng, pr_channel):
        # conjugating one party's input or output by a local unitary must
        # leave every bipartition verdict unchanged
        from causalchannels.channels import compose_serial, channel_from_unitary

        parties = (Party("A", 2, 2), Party("B", 2, 2))
        post = channel_from_unitary(np.kron(random_unitary(rng, 2), np.eye(2)), parties)
        pre = channel_from_unitary(np.kron(np.eye(2), random_unitary(rng, 2)), parties)
        before = is_causal(pr_channel)
        for transformed in (
            compose_serial(pr_channel, post),
            compose_serial(pre, pr_channel),
            compose_serial(pre, compose_serial(pr_channel, post)),
        ):
            after = is_causal(transformed)
            for c_before, c_after in zip(before.checks, after.checks):
                assert c_before.semicausal == c_after.semicausal


class TestSignallingWitness:
    def test_identity_is_silent(self):
        assert signalling_witness(identity_channel((2, 2)), "p1", ("p2",)) < 1e-12

    def test_swap_is_maximally_loud(self):
        assert abs(signalling_witness(swap_channel(), "A", ("B",)) - 1.0) < 1e-9

    def test_pr_channel_is_silent(self, pr_channel):
        assert signalling_witness(pr_channel, "A", ("B",)) < 1e-9
        assert signalling_witness(pr_channel, "B", ("A",)) < 1e-9

    def test_agrees_with_choi_verdict_on_gallery(
        self, pr_channel, singlet_channel, pq_pr_channel, pq_alpha_channel
    ):
        for ch in (pr_channel, singlet_channel, pq_pr_channel, pq_alpha_channel):
            rep = is_causal(ch)
            labels = [p.label for p in ch.parties]
            for sender in labels:
                receivers = tuple(lab for lab in labels if lab != sender)
                witness = signalling_witness(ch, sender, receivers)
                verdict = rep.check((sender,), receivers).semicausal
                if verdict:
                    assert witness < 1e-7
                else:
                    assert witness > 0.1

    def test_disagreement_case_cyclic(self):
        ch = cyclic_shift_channel()
        rep = is_causal(ch)
        assert not rep.check(("A",), ("B", "C")).semicausal
        assert signalling_witness(ch, "A", ("B", "C")) > 0.1

    @pytest.mark.parametrize("theta", [np.pi, np.pi / 3, 0.1], ids=["cz", "pi/3", "0.1"])
    def test_controlled_phase_signals_both_ways(self, theta):
        """A phase kicked back through a controlled gate shows only on a
        superposed receiver input: sender |0> or |1> turns the receiver's
        |+> into states at trace distance |sin(theta / 2)|."""
        ch = controlled_phase_channel(theta)
        for sender, receiver in (("A", "B"), ("B", "A")):
            assert not is_semicausal(ch, (sender,), (receiver,))[0]
            witness = signalling_witness(ch, sender, (receiver,))
            assert witness == pytest.approx(abs(np.sin(theta / 2)), abs=1e-12)

    def test_bystander_input_is_searched(self):
        """B's output carries A's bit only when C feeds in |1>, so A signals
        to B alone, which a maximally mixed input on B or C would hide."""
        # outputs (a, (a AND c) XOR b, c): a Toffoli gate controlled by A and C
        perm = np.zeros((8, 8))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    perm[4 * a + 2 * (b ^ (a & c)) + c, 4 * a + 2 * b + c] = 1
        parties = (Party("A", 2, 2), Party("B", 2, 2), Party("C", 2, 2))
        ch = channel_from_unitary(perm, parties)
        assert signalling_witness(ch, "A", ("B",)) == pytest.approx(1.0, abs=1e-12)
        assert not is_semicausal(ch, ("A",), ("B", "C"))[0]


def _drawn_channel(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "localizable":
        return random_localizable_channel(rng, n_parties=int(rng.integers(2, 4)))
    if kind == "controlled-phase":
        return controlled_phase_channel(rng.uniform(0.05, 2 * np.pi - 0.05))
    if kind == "product-unitary":
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    else:
        u = random_unitary(rng, 4)
    return channel_from_unitary(u, (Party("A", 2, 2), Party("B", 2, 2)))


class TestWitnessAgreesWithChoiProperty:
    """The Choi condition and the operational witness on drawn channels:
    a cut is accepted exactly when it cannot signal."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["localizable", "controlled-phase", "product-unitary", "unitary"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_directions(self, kind, seed):
        ch = _drawn_channel(kind, seed)
        labels = [p.label for p in ch.parties]
        for sender in labels:
            receivers = tuple(lab for lab in labels if lab != sender)
            accepted, _, _ = is_semicausal(ch, (sender,), receivers)
            witness = signalling_witness(ch, sender, receivers)
            if accepted:
                assert witness < 1e-7
            else:
                assert witness > 1e-6


class TestDilationOrdering:
    def test_sequential_dilation_blocks_second_party(self, rng):
        """A dilation acting on (A, E) first and (E, B) second cannot carry
        a signal from B to A, whatever the unitaries; the reverse direction
        generically does signal."""
        from causalchannels import CircuitChannel, CircuitGate, CircuitParty, compile_circuit
        from causalchannels.linalg import SystemLayout, basis_state

        regs = SystemLayout.of(
            ("A", 2, "untrusted-in"), ("B", 2, "untrusted-in"), ("E", 2)
        )
        saw_reverse_signalling = False
        for _ in range(5):
            circ = CircuitChannel(
                registers=regs,
                parties=(CircuitParty("A", "A", ("A",)), CircuitParty("B", "B", ("B",))),
                ancilla_prep=basis_state(2, 0),
                gates=(
                    CircuitGate(random_unitary(rng, 4), ("A", "E")),
                    CircuitGate(random_unitary(rng, 4), ("E", "B")),
                ),
            )
            ch = compile_circuit(circ)
            ok, res, _ = is_semicausal(ch, ("B",), ("A",))
            assert ok, res
            reverse_ok, _, _ = is_semicausal(ch, ("A",), ("B",))
            saw_reverse_signalling |= not reverse_ok
        assert saw_reverse_signalling


class TestTeleportageChannelDuality:
    """The measure-and-record channel built from instrument blocks must be
    causal exactly when the teleportage is non-signalling: the causality
    checker and the teleportage predicate are independent implementations of
    the same physics."""

    @staticmethod
    def channel_from_teleportage(t):
        from causalchannels import Channel, Party

        d_k, d, d_b = t.dim_in, t.n_outputs, t.trusted_dim
        dims = [d_k, d, d_b, d_b]  # [in1, out1, B_in, B_out]
        choi = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
        tt = choi.reshape(tuple(dims) * 2)
        for a in range(d):
            j = t.blocks[a].reshape(d_k, d_b, d_k, d_b)
            for s in range(d_k):
                for u in range(d_k):
                    for beta in range(d_b):
                        tt[s, a, beta, :, u, a, beta, :] = j[s, :, u, :] / (d_k * d_b)
        return Channel((Party("p1", d_k, d), Party("B", d_b, d_b, True)), choi)

    def test_nonsignalling_gives_causal(self, rng):
        from causalchannels.sampling import random_nonsignalling_teleportage

        for _ in range(3):
            t = random_nonsignalling_teleportage(rng, d_k=2, d=3, d_b=2)
            ch = self.channel_from_teleportage(t)
            ch.validate(1e-9)
            assert is_causal(ch).causal

    def test_signalling_gives_non_causal(self):
        from causalchannels import Teleportage

        blocks = np.zeros((2, 4, 4), dtype=complex)
        for a in range(2):
            blocks[a].reshape(2, 2, 2, 2)[a, a, a, a] = 1.0  # forwards the input
        ch = self.channel_from_teleportage(Teleportage(blocks, (2,), 2))
        ch.validate(1e-9)
        assert not is_causal(ch).causal


class TestNonUniformDimensions:
    """Cross-check the Choi factorization normalization against the
    operational witness when party input dimensions differ."""

    def test_product_channel_with_mixed_dims(self, rng):
        from causalchannels.channels import KrausSet, choi_from_kraus, compose_parallel

        def rand_channel(d_in, d_out, label):
            g = rng.normal(size=(d_out * 2, d_in)) + 1j * rng.normal(size=(d_out * 2, d_in))
            q, _ = np.linalg.qr(g)
            ops = tuple(q[k * d_out : (k + 1) * d_out, :] for k in range(2))
            return choi_from_kraus(KrausSet(ops, d_in, d_out), (Party(label, d_in, d_out),))

        ch = compose_parallel(rand_channel(3, 2, "A"), rand_channel(2, 3, "B"))
        rep = is_causal(ch)
        assert rep.causal
        assert signalling_witness(ch, "A", ("B",)) < 1e-9
        assert signalling_witness(ch, "B", ("A",)) < 1e-9

    def test_forwarding_channel_with_mixed_dims(self):
        from causalchannels.channels import KrausSet, choi_from_kraus
        from causalchannels.linalg import basis_state

        # A's qutrit input is forwarded into B's 3-dim output; A outputs |0>
        ops = []
        for i in range(3):
            for j in range(2):
                ket = np.kron(basis_state(2, 0), basis_state(3, i))
                bra = np.kron(basis_state(3, i), basis_state(2, j))
                ops.append(np.outer(ket, bra.conj()))
        ch = choi_from_kraus(
            KrausSet(tuple(ops), 6, 6), (Party("A", 3, 2), Party("B", 2, 3))
        )
        ok_ab, res_ab, _ = is_semicausal(ch, ("A",), ("B",))
        ok_ba, res_ba, _ = is_semicausal(ch, ("B",), ("A",))
        assert not ok_ab and res_ab > 0.1  # A signals B
        assert ok_ba, res_ba  # B cannot signal A
        assert signalling_witness(ch, "A", ("B",)) > 0.1
        assert signalling_witness(ch, "B", ("A",)) < 1e-9


def _local_mixture(rng, n: int, m: int = 2, d: int = 2, k: int = 3) -> Correlation:
    """Mixture of ``k`` deterministic strategies: local, hence non-signalling."""
    table = np.zeros((d,) * n + (m,) * n)
    for w in rng.dirichlet(np.ones(k)):
        answers = rng.integers(0, d, size=(n, m))  # answers[p, x]
        for x_vec in np.ndindex(*(m,) * n):
            a_vec = tuple(int(answers[p, x]) for p, x in enumerate(x_vec))
            table[a_vec + x_vec] += w
    return Correlation(table)


def _random_table(rng, n: int, m: int = 2, d: int = 2) -> Correlation:
    """A normalized table with independent outcome distributions per input
    tuple: signalling with probability one."""
    rows = rng.dirichlet(np.ones(d**n), size=m**n)  # rows[x_flat, a_flat]
    return Correlation(rows.T.reshape((d,) * n + (m,) * n))


class TestCanonicalChannelLink:
    """The paper's link: a table is non-signalling exactly when its canonical
    measure-and-prepare channel is causal, and the same for assemblages."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", [_local_mixture, _random_table], ids=["local", "random"])
    def test_causal_iff_nonsignalling(self, n, make):
        rng = np.random.default_rng(100 + n)
        for _ in range(15):
            c = make(rng, n)
            ns = is_nonsignalling_correlation(c)[0]
            assert ns == (make is _local_mixture)
            assert is_causal(canonical_channel_from_correlations(c)).causal == ns

    @pytest.mark.parametrize("n_untrusted", [1, 2])
    def test_nonsignalling_assemblage_gives_causal_channel(self, n_untrusted):
        rng = np.random.default_rng(7 + n_untrusted)
        for _ in range(4):
            a = random_quantum_assemblage(rng, m=2, d=2, d_b=2, n_untrusted=n_untrusted)
            assert is_nonsignalling_assemblage(a)[0]
            assert is_causal(canonical_channel_from_assemblage(a)).causal

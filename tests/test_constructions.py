from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from causalchannels import (
    Assemblage,
    CircuitChannel,
    Correlation,
    ProjectiveRealization,
    almost_localizable_from_realization,
    assemblage_from_channel,
    assemblage_from_commuting_projectors,
    canonical_channel_from_assemblage,
    canonical_channel_from_correlations,
    chsh_value,
    compile_circuit,
    correlations_from_channel,
    ghjw_realize_assemblage,
    ghjw_realize_teleportage,
    is_causal,
    is_nonsignalling_assemblage,
    lhv_membership,
    pq_steering_alpha_channel,
    teleportage_from_channel,
    tsirelson_witness,
)
from causalchannels.constructions import PAULI_X, PAULI_Z
from causalchannels.linalg import (
    basis_state,
    frobenius,
    kron_all,
    partial_trace_dims,
    partial_trace_pure,
    projector,
)
from causalchannels.sampling import (
    random_density,
    random_nonsignalling_teleportage,
    random_povm,
    random_projective_measurement,
    random_pure_state,
    random_quantum_assemblage,
)
from conftest import pr_table
from oracles import max_entangled

RT2 = np.sqrt(2.0)


def eigenprojectors(observable: np.ndarray) -> dict[int, np.ndarray]:
    """Outcome 0 is the +1 eigenvector of a dichotomic observable."""
    _, vecs = np.linalg.eigh(observable)
    return {0: projector(vecs[:, 1]), 1: projector(vecs[:, 0])}


def tsirelson_realization() -> ProjectiveRealization:
    """Z/X against rotated measurements on a maximally entangled pair."""
    obs_a = {0: PAULI_Z, 1: PAULI_X}
    obs_b = {0: (PAULI_Z + PAULI_X) / RT2, 1: (PAULI_Z - PAULI_X) / RT2}
    projs = {}
    for x in range(2):
        pa, pb = eigenprojectors(obs_a[x]), eigenprojectors(obs_b[x])
        for a in range(2):
            projs[(0, a, x)] = np.kron(pa[a], np.eye(2))
            projs[(1, a, x)] = np.kron(np.eye(2), pb[a])
    return ProjectiveRealization(
        state=max_entangled(2),
        projectors=projs,
        n_parties=2,
        n_inputs=2,
        n_outputs=2,
        kdim=4,
        trusted_dim=1,
    )


def diagonal_realization() -> ProjectiveRealization:
    """Commuting diagonal projectors on a classical mixture purification."""
    # K = C^2 carrying a classical bit, correlated with nothing
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    projs = {}
    for k in range(2):
        for x in range(2):
            projs[(k, 0, x)] = p0
            projs[(k, 1, x)] = p1
    state = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    return ProjectiveRealization(
        state=state, projectors=projs, n_parties=2, n_inputs=2,
        n_outputs=2, kdim=2, trusted_dim=1,
    )


class TestCanonicalFromCorrelations:
    def test_deterministic_table(self):
        table = np.zeros((2, 2, 2, 2))
        table[0, 1, :, :] = 1.0  # always output (0, 1)
        ch = canonical_channel_from_correlations(Correlation(table))
        out = correlations_from_channel(ch)
        assert np.max(np.abs(out.table - table)) < 1e-12

    def test_pr_round_trip_and_causality(self):
        ch = canonical_channel_from_correlations(Correlation(pr_table()))
        ch.validate()
        assert is_causal(ch).causal
        out = correlations_from_channel(ch)
        assert np.max(np.abs(out.table - pr_table())) < 1e-12

    def test_local_table_stays_local_under_wirings(self, rng):
        from causalchannels.scenarios import correlations_general

        weights = rng.dirichlet(np.ones(4))
        strategies = [((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]
        table = np.zeros((2, 2, 2, 2))
        for w, (fa, fb) in zip(weights, strategies):
            for x in range(2):
                for y in range(2):
                    table[fa[x], fb[y], x, y] += w
        ch = canonical_channel_from_correlations(Correlation(table))
        for _ in range(200):
            preps = [[random_density(rng, 4) for _ in range(2)] for _ in range(2)]
            povms = [random_povm(rng, 4, 2) for _ in range(2)]
            wired = correlations_general(ch, preps, povms)
            assert lhv_membership(wired).feasible


class TestCanonicalFromAssemblage:
    def test_round_trip_random_nonsignalling(self, rng):
        for _ in range(5):
            a = random_quantum_assemblage(rng, m=2, d=2, d_b=2)
            ch = canonical_channel_from_assemblage(a)
            ch.validate()
            assert is_causal(ch).causal
            back = assemblage_from_channel(ch)
            assert np.max(np.abs(back.elements - a.elements)) < 1e-12

    def test_lhs_seed_gives_local_correlations_under_bob_measurements(self, rng):
        # sigma = p_local(ab|xy) * rho_B: any Bob measurement yields local data
        rho_b = random_density(rng, 2)
        local = np.full((2, 2, 2, 2), 0.25)
        a = Assemblage((local[..., None, None] * rho_b).astype(complex))
        ch = canonical_channel_from_assemblage(a)
        back = assemblage_from_channel(ch)
        povm = random_povm(rng, 2, 2)
        joint = np.zeros((2, 2, 2, 2, 2, 2))  # (a, b, c | x, y, z=0/1 dummy)
        for aa, bb, x, y in product(range(2), repeat=4):
            for c in range(2):
                p = np.trace(povm[c] @ back.element((aa, bb), (x, y))).real
                joint[aa, bb, c, x, y, 0] = p
                joint[aa, bb, c, x, y, 1] = p
        assert lhv_membership(Correlation(joint)).feasible

    def test_pr_assemblage_channel_is_causal_but_witnessed_postquantum(self):
        el = (pr_table()[..., None, None] * (np.eye(2) / 2)).astype(complex)
        a = Assemblage(el)
        ch = canonical_channel_from_assemblage(a)
        assert is_causal(ch).causal
        back = assemblage_from_channel(ch)
        value, verdict = tsirelson_witness(back.to_correlation())
        assert abs(value) > 2 * RT2 + 1e-6
        assert verdict == "not-almost-quantum"

    def test_signalling_assemblage_rejected(self):
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        for a in range(2):
            for x in range(2):
                el[a, x] = 0.5 * projector(basis_state(2, x))  # rho_B depends on x
        with pytest.raises(ValueError, match="signalling"):
            canonical_channel_from_assemblage(Assemblage(el))


def _loop_choi_from_correlations(c: Correlation) -> np.ndarray:
    """Reference: the canonical Choi written entry by entry in the stored
    ``[in_1, out_1, ...]`` layout."""
    n, d, m = c.n_parties, c.n_outputs, c.n_inputs
    dims = [m, d] * n
    diag = np.zeros(int(np.prod(dims)))
    t = diag.reshape(tuple(dims))
    for x_vec in product(range(m), repeat=n):
        for a_vec in product(range(d), repeat=n):
            idx = [v for k in range(n) for v in (x_vec[k], a_vec[k])]
            t[tuple(idx)] = c.prob(a_vec, x_vec) / m**n
    return np.diag(diag).astype(complex)


def _loop_choi_from_assemblage(a: Assemblage) -> np.ndarray:
    """Reference: each ``(x_vec, a_vec)`` block ``(1/d_B) (x) sigma / m^n``
    written into the stored layout, trusted factors last."""
    n, d, m, d_b = a.n_untrusted, a.n_outputs, a.n_inputs, a.trusted_dim
    dims = [m, d] * n + [d_b, d_b]
    total = int(np.prod(dims))
    choi = np.zeros((total, total), dtype=complex)
    t = choi.reshape(tuple(dims) * 2)
    colon = (slice(None), slice(None))
    for x_vec in product(range(m), repeat=n):
        for a_vec in product(range(d), repeat=n):
            el = a.element(a_vec, x_vec) / m**n
            block = np.kron(np.eye(d_b) / d_b, el).reshape(d_b, d_b, d_b, d_b)
            idx = tuple(v for k in range(n) for v in (x_vec[k], a_vec[k]))
            t[idx + colon + idx + colon] = block
    return choi


class TestCanonicalAgainstLoopBuilders:
    """The grouped-layout builders reproduce the entry-by-entry Choi bitwise."""

    @pytest.mark.parametrize("n, m, d", [(1, 2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)])
    def test_correlations(self, rng, n, m, d):
        t = rng.random((d,) * n + (m,) * n)
        c = Correlation(t / t.sum(axis=tuple(range(n)), keepdims=True))
        ch = canonical_channel_from_correlations(c)
        assert ch.choi.tobytes() == _loop_choi_from_correlations(c).tobytes()

    @pytest.mark.parametrize(
        "n, m, d, d_b", [(1, 2, 2, 2), (1, 3, 2, 3), (2, 2, 2, 2), (2, 2, 2, 3), (3, 2, 2, 2)]
    )
    def test_assemblage(self, rng, n, m, d, d_b):
        a = random_quantum_assemblage(rng, m=m, d=d, d_b=d_b, n_untrusted=n)
        ch = canonical_channel_from_assemblage(a)
        assert ch.parties[-1].trusted
        assert ch.choi.tobytes() == _loop_choi_from_assemblage(a).tobytes()


class TestFigureCircuits:
    def test_pr_box_numbers(self, pr_channel):
        c = correlations_from_channel(pr_channel)
        assert np.max(np.abs(c.table - pr_table())) < 1e-12
        assert abs(chsh_value(c) - 4.0) < 1e-9
        assert is_causal(pr_channel).causal

    def test_singlet_tsirelson(self, singlet_channel):
        c = correlations_from_channel(singlet_channel)
        assert abs(chsh_value(c) - 2 * RT2) < 1e-6
        assert is_causal(singlet_channel).causal

    def test_pq_steering_pr_assemblage(self, pq_pr_channel):
        a = assemblage_from_channel(pq_pr_channel)
        expected = pr_table()[..., None, None] * (np.eye(2) / 2)
        assert np.max(np.abs(a.elements - expected)) < 1e-9
        ok, _ = is_nonsignalling_assemblage(a)
        assert ok
        assert is_causal(pq_pr_channel).causal

    def test_alpha_chsh_value(self, pq_alpha_channel):
        a = assemblage_from_channel(pq_alpha_channel)
        binary = a.to_correlation().coarse_grain(lambda k, o: o // 2, 2)
        assert abs(chsh_value(binary) - 3.0) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 1.0 / 6.0, 0.5, 1.0])
    def test_alpha_causal_across_range(self, alpha):
        ch = compile_circuit(pq_steering_alpha_channel(alpha))
        assert is_causal(ch).causal

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            pq_steering_alpha_channel(1.5)

    def test_alpha_ancilla_marginal(self):
        # tracing Charlie's share leaves Phi+ (x) (a|00><00| + (1-a)|11><11|)
        alpha = 1.0 / 6.0
        circ = pq_steering_alpha_channel(alpha)
        prep = np.asarray(circ.ancilla_prep)
        # ancilla registers: xA, xB, wA, wB, wC
        reduced = partial_trace_pure(prep, [2, 2, 2, 2, 2], keep=[0, 1, 2, 3])
        phi = max_entangled(2)
        w_marg = alpha * projector(np.kron(basis_state(2, 0), basis_state(2, 0)))
        w_marg += (1 - alpha) * projector(np.kron(basis_state(2, 1), basis_state(2, 1)))
        expected = np.kron(projector(phi), w_marg)
        assert np.max(np.abs(reduced - expected)) < 1e-12


class TestAlmostLocalizable:
    def test_quantum_realization_reaches_tsirelson(self):
        r = tsirelson_realization()
        circ = almost_localizable_from_realization(r, 2, 2)
        c = correlations_from_channel(compile_circuit(circ))
        assert abs(chsh_value(c) - 2 * RT2) < 1e-9
        # oracle: <psi| prod Pi |psi>
        psi = r.state
        for x_vec in product(range(2), repeat=2):
            for a_vec in product(range(2), repeat=2):
                op = r.projector(0, a_vec[0], x_vec[0]) @ r.projector(1, a_vec[1], x_vec[1])
                expected = np.real(psi.conj() @ op @ psi)
                assert abs(c.prob(a_vec, x_vec) - expected) < 1e-9

    def test_commuting_diagonal_realization_is_local(self):
        r = diagonal_realization()
        circ = almost_localizable_from_realization(r, 2, 2)
        c = correlations_from_channel(compile_circuit(circ))
        assert lhv_membership(c).feasible

    def test_party_order_permutation_invariance(self):
        r = tsirelson_realization()
        circ = almost_localizable_from_realization(r, 2, 2)
        swapped = CircuitChannel(
            circ.registers, circ.parties, circ.ancilla_prep, tuple(reversed(circ.gates))
        )
        c1 = correlations_from_channel(compile_circuit(circ))
        c2 = correlations_from_channel(compile_circuit(swapped))
        assert np.max(np.abs(c1.table - c2.table)) < 1e-9

    def test_invalid_projector_family_rejected(self):
        r = tsirelson_realization()
        broken = dict(r.projectors)
        broken[(0, 0, 0)] = 0.5 * broken[(0, 0, 0)]
        bad = ProjectiveRealization(
            state=r.state, projectors=broken, n_parties=2, n_inputs=2,
            n_outputs=2, kdim=4, trusted_dim=1,
        )
        with pytest.raises(ValueError):
            almost_localizable_from_realization(bad, 2, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            almost_localizable_from_realization(tsirelson_realization(), 3, 2)


class TestCommutingProjectorAssemblages:
    def test_entangled_state_matches_steering_formula(self):
        obs = {0: PAULI_Z, 1: PAULI_X}
        projs = {}
        for x in range(2):
            pp = eigenprojectors(obs[x])
            for a in range(2):
                projs[(0, a, x)] = pp[a]
        r = ProjectiveRealization(
            state=max_entangled(2), projectors=projs, n_parties=1,
            n_inputs=2, n_outputs=2, kdim=2, trusted_dim=2,
        )
        assm = assemblage_from_commuting_projectors(r)
        assm.validate()
        rho = projector(max_entangled(2))
        for x in range(2):
            for a in range(2):
                expected = partial_trace_dims(
                    np.kron(projs[(0, a, x)], np.eye(2)) @ rho, [2, 2], keep=[1]
                )
                assert np.max(np.abs(assm.element((a,), (x,)) - expected)) < 1e-12

    def test_reduced_state_input_independent(self):
        obs = {0: PAULI_Z, 1: (PAULI_Z + PAULI_X) / RT2}
        projs = {}
        for x in range(2):
            pp = eigenprojectors(obs[x])
            for a in range(2):
                projs[(0, a, x)] = pp[a]
        r = ProjectiveRealization(
            state=max_entangled(2), projectors=projs, n_parties=1,
            n_inputs=2, n_outputs=2, kdim=2, trusted_dim=2,
        )
        assm = assemblage_from_commuting_projectors(r)
        ok, res = is_nonsignalling_assemblage(assm)
        assert ok, res
        expected_rho = partial_trace_dims(projector(max_entangled(2)), [2, 2], keep=[1])
        assert np.max(np.abs(assm.reduced_state() - expected_rho)) < 1e-12

    def test_diagonal_realization_is_lhs_feasible(self):
        from causalchannels import lhs_membership

        # K = pointer (x) purifier; the state purifies a classical mixture of
        # two trusted states, and the (input-independent) projectors read the
        # pointer bit
        psi = np.sqrt(0.4) * kron_all(
            [basis_state(2, 0).reshape(-1, 1)] * 2 + [np.array([[1.0], [0.0]])]
        ).reshape(-1)
        psi += np.sqrt(0.6) * kron_all(
            [basis_state(2, 1).reshape(-1, 1)] * 2
            + [np.array([[1.0], [1.0]]) / RT2]
        ).reshape(-1)
        projs = {}
        for x in range(2):
            for a in range(2):
                pointer = projector(basis_state(2, a))
                projs[(0, a, x)] = np.kron(pointer, np.eye(2)).astype(complex)
        r = ProjectiveRealization(
            state=psi, projectors=projs, n_parties=1, n_inputs=2,
            n_outputs=2, kdim=4, trusted_dim=2,
        )
        assm = assemblage_from_commuting_projectors(r)
        assm.validate()
        assert lhs_membership(assm).feasible


class TestGhjwAssemblage:
    def test_trivial_lhs_assemblage(self):
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        for a in range(2):
            for x in range(2):
                el[a, x] = np.eye(2) / 4
        _, _, res = ghjw_realize_assemblage(Assemblage(el))
        assert res < 1e-8

    def test_zx_steering_assemblage(self):
        rho = projector(max_entangled(2))
        obs = {0: PAULI_Z, 1: PAULI_X}
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        for x in range(2):
            pp = eigenprojectors(obs[x])
            for a in range(2):
                el[a, x] = partial_trace_dims(
                    np.kron(pp[a], np.eye(2)) @ rho, [2, 2], keep=[1]
                )
        state, povms, res = ghjw_realize_assemblage(Assemblage(el))
        assert res < 1e-8
        # completeness of the recovered measurements
        for x in range(2):
            total = povms[x].sum(axis=0)
            assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-8

    def test_rank_deficient_reduced_state(self):
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        pure = projector(basis_state(2, 0))
        for a in range(2):
            for x in range(2):
                el[a, x] = 0.5 * pure
        state, povms, res = ghjw_realize_assemblage(Assemblage(el))
        assert res < 1e-8
        assert state.shape == (2,)  # support rank 1 times d_B

    def test_multiparty_rejected(self, rng):
        a = random_quantum_assemblage(rng, m=2, d=2, d_b=2, n_untrusted=2)
        with pytest.raises(ValueError, match="one untrusted party"):
            ghjw_realize_assemblage(a)

    def test_random_loop(self, rng):
        for _ in range(10):
            a = random_quantum_assemblage(rng, m=2, d=2, d_b=2)
            _, _, res = ghjw_realize_assemblage(a)
            assert res < 1e-8


class TestGhjwTeleportage:
    def test_fixed_state_teleportage(self):
        rho_b = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        blocks = np.zeros((2, 4, 4), dtype=complex)
        for a in range(2):
            blocks[a].reshape(2, 2, 2, 2)[a, :, a, :] = rho_b
        from causalchannels import Teleportage

        _, _, res = ghjw_realize_teleportage(Teleportage(blocks, (2,), 2))
        assert res < 1e-8

    def test_bell_measurement_teleportage(self):
        from test_scenarios import teleportation_circuit

        ch = compile_circuit(teleportation_circuit())
        t = teleportage_from_channel(ch)
        state, povm, res = ghjw_realize_teleportage(t)
        assert res < 1e-8
        total = povm.sum(axis=0)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-8

    def test_random_loop(self, rng):
        for _ in range(10):
            t = random_nonsignalling_teleportage(rng, d_k=2, d=3, d_b=2)
            _, _, res = ghjw_realize_teleportage(t)
            assert res < 1e-8

    def test_signalling_rejected(self):
        # measure-and-forward the measured outcome state: Bob's marginal moves
        blocks = np.zeros((2, 4, 4), dtype=complex)
        for a in range(2):
            blocks[a].reshape(2, 2, 2, 2)[a, a, a, a] = 1.0
        from causalchannels import Teleportage

        with pytest.raises(ValueError, match="signalling"):
            ghjw_realize_teleportage(Teleportage(blocks, (2,), 2))


# -- the quantum-model forward maps against the loops they replaced ----------------

def _reference_quantum_assemblage(rng, m, d, d_b, n_untrusted=1) -> Assemblage:
    dims = [d] * n_untrusted + [d_b]
    rho = projector(random_pure_state(rng, int(np.prod(dims))))
    meas = [
        [random_projective_measurement(rng, d, d) for _ in range(m)]
        for _ in range(n_untrusted)
    ]
    elements = np.zeros((d,) * n_untrusted + (m,) * n_untrusted + (d_b, d_b), dtype=complex)
    for x_vec in product(range(m), repeat=n_untrusted):
        for a_vec in product(range(d), repeat=n_untrusted):
            effect = kron_all(
                [meas[k][x_vec[k]][a_vec[k]] for k in range(n_untrusted)] + [np.eye(d_b)]
            )
            elements[a_vec + x_vec] = partial_trace_dims(effect @ rho, dims, keep=[n_untrusted])
    return Assemblage(elements)


def _reference_teleportage_blocks(rho_rb, povm, d_k, d_r, d_b) -> np.ndarray:
    d = len(povm)
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
    return blocks


def _reference_nonsignalling_teleportage(rng, d_k, d, d_b) -> np.ndarray:
    rho_rb = projector(random_pure_state(rng, d_b * d_b))
    povm = random_povm(rng, d_k * d_b, d)
    return _reference_teleportage_blocks(rho_rb, povm, d_k, d_b, d_b)


def _reference_ghjw_assemblage_residual(a, state, povms) -> float:
    m, d, d_b, r = a.n_inputs, a.n_outputs, a.trusted_dim, povms.shape[-1]
    worst = 0.0
    for x in range(m):
        worst = max(worst, frobenius(povms[x].sum(axis=0) - np.eye(r)))
        for out in range(d):
            recon = partial_trace_dims(
                kron_all([povms[x, out], np.eye(d_b)]) @ projector(state), [r, d_b], keep=[1]
            )
            worst = max(worst, frobenius(recon - a.element((out,), (x,))))
    return worst


def _reference_ghjw_teleportage_residual(t, state, povm) -> float:
    d_k, d_b = t.dim_in, t.trusted_dim
    r = povm.shape[-1] // d_k
    worst = frobenius(povm.sum(axis=0) - np.eye(d_k * r))
    model = _reference_teleportage_blocks(projector(state), povm, d_k, r, d_b)
    for a_idx in range(t.n_outputs):
        for s in range(d_k):
            for u in range(d_k):
                got = model[a_idx].reshape(d_k, d_b, d_k, d_b)[s, :, u, :]
                expected = t.blocks[a_idx].reshape(d_k, d_b, d_k, d_b)[s, :, u, :]
                worst = max(worst, frobenius(got - expected))
    return worst


class TestForwardMapsBitwise:
    """The sampled fixtures and GHJW residuals every other test relies on are
    bitwise those of the per-entry loops the forward maps replaced."""

    @pytest.mark.parametrize(
        "m, d, d_b, n_untrusted", [(2, 2, 2, 1), (3, 2, 3, 1), (2, 3, 2, 1), (2, 2, 2, 2)]
    )
    def test_random_quantum_assemblage(self, m, d, d_b, n_untrusted):
        for seed in range(3):
            got = random_quantum_assemblage(np.random.default_rng(seed), m, d, d_b, n_untrusted)
            ref = _reference_quantum_assemblage(
                np.random.default_rng(seed), m, d, d_b, n_untrusted
            )
            assert np.array_equal(got.elements, ref.elements)

    @pytest.mark.parametrize("d_k, d, d_b", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
    def test_random_nonsignalling_teleportage(self, d_k, d, d_b):
        for seed in range(3):
            got = random_nonsignalling_teleportage(np.random.default_rng(seed), d_k, d, d_b)
            ref = _reference_nonsignalling_teleportage(np.random.default_rng(seed), d_k, d, d_b)
            assert np.array_equal(got.blocks, ref)
            assert (got.input_dims, got.trusted_dim) == ((d_k,), d_b)

    def test_ghjw_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = random_quantum_assemblage(rng, m=3, d=2, d_b=2)
            state, povms, res = ghjw_realize_assemblage(a)
            assert res == _reference_ghjw_assemblage_residual(a, state, povms)
            t = random_nonsignalling_teleportage(rng, d_k=2, d=3, d_b=2)
            state, povm, res = ghjw_realize_teleportage(t)
            assert res == _reference_ghjw_teleportage_residual(t, state, povm)

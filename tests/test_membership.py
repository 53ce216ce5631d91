from __future__ import annotations

import functools
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchannels import (
    Assemblage,
    Correlation,
    almost_quantum_assemblage_membership,
    assemblage_from_channel,
    assemblage_from_commuting_projectors,
    build_moment_skeleton,
    chsh_value,
    correlations_from_channel,
    gram_realization,
    lhs_membership,
    lhv_membership,
    moment_matrix_from_realization,
    tsirelson_witness,
)
from causalchannels.constructions import PAULI_X, PAULI_Z, ProjectiveRealization
from causalchannels.linalg import partial_trace_dims, projector
from causalchannels.sampling import random_density
from causalchannels import membership
from causalchannels.membership import (
    AffineConstraints,
    MomentAffine,
    MomentMatrix,
    almost_quantum_correlation_membership,
    attach_assemblage_anchors,
    enumerate_strategies,
    moment_matrix_from_lhs_model,
    project_psd_cone,
    simplex_phase1,
    strategy_table,
    words_for_scenario,
)
from conftest import pr_table
from oracles import max_entangled, words_orthogonal

RT2 = np.sqrt(2.0)
HALF = np.eye(2) / 2


def pr_mixture(v: float, m: int = 2, d: int = 2) -> np.ndarray:
    """``v PR + (1 - v)/4`` on inputs and outcomes {0, 1}, uniform on outcomes
    {0, 1} for every other input pair: non-signalling, CHSH ``4 v``."""
    t = np.zeros((d, d, m, m))
    for x, y, a, b in product(range(m), range(m), range(2), range(2)):
        pr = 0.5 if a ^ b == x & y else 0.0
        t[a, b, x, y] = v * pr + (1 - v) / 4 if x < 2 and y < 2 else 0.25
    return t


def local_mixture(rng, m: int, n_strategies: int, noise: float, d: int = 2) -> np.ndarray:
    """Dirichlet mixture of random deterministic strategies blended with
    white noise: local by construction."""
    t = np.zeros((d, d, m, m))
    for w in rng.dirichlet(np.ones(n_strategies)):
        f, g = rng.integers(d, size=m), rng.integers(d, size=m)
        for x, y in product(range(m), repeat=2):
            t[f[x], g[y], x, y] += w
    return (1 - noise) * t + noise / d**2


def bell_certifies(c: Correlation, cert: dict) -> bool:
    """Whether ``cert`` separates ``c`` from the local polytope, checked off
    the solver: every deterministic strategy (a row of ``strategy_table``)
    scores at most ``local_bound`` on the functional ``bell``, the data more."""
    table = strategy_table(c.n_parties, c.n_inputs, c.n_outputs)
    bell = np.asarray(cert["bell"]).reshape(-1)
    scores = table.reshape(table.shape[0], -1) @ bell
    bound = cert["local_bound"]
    return bool(scores.max() <= bound + 1e-9 and bell @ c.table.reshape(-1) > bound + 1e-9)


def flipped(cert: dict) -> dict:
    """The certificate of ``-y``: both the functional and its bound change sign."""
    return {"bell": -cert["bell"], "local_bound": -cert["local_bound"]}


class TestSimplex:
    def test_direct_feasible_system(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        ok, x, opt = simplex_phase1(a, b)
        assert ok
        assert np.max(np.abs(a @ x - b)) < 1e-9
        assert x.min() >= -1e-12

    def test_infeasible_system(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold; nor can x1 + x2 = -1
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        for b in (np.array([1.0, 2.0]), np.array([-1.0, 1.0])):
            res = simplex_phase1(a, b)
            assert not res.feasible
            assert res.optimum > 0.5
            y = res.farkas  # a Farkas certificate, checked against A and b
            assert y is not None
            assert np.max(a.T @ y) <= 1e-9 and b @ y > 0.5

    def test_verdict_reads_the_unperturbed_system(self):
        """x1 + x2 = 1 and x1 = 1 hold only at x2 = 0; raised by the
        perturbation, row 1 outgrows row 0 and the tableau optimum keeps an
        artificial, yet the same basis solves the system itself."""
        ok, x, opt = simplex_phase1(np.array([[1.0, 1.0], [1.0, 0.0]]), np.ones(2))
        assert ok and opt == 0.0
        assert np.array_equal(x, [1.0, 0.0])

    def test_infeasibility_below_the_perturbation_is_no_verdict(self):
        """2 x1 = 4 and 2 x1 + 2 x2 = 4 - 3e-8 need x2 < 0, by less than the
        perturbation: the basis is infeasible and has no Farkas dual."""
        res = simplex_phase1(np.array([[2.0, 0.0], [-2.0, -2.0]]), np.array([4.0, -4.0 + 3e-8]))
        assert not res.feasible and not res.capped and res.farkas is None
        assert "certifies neither side" in res.detail

    def test_pivot_cap(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        full = simplex_phase1(a, b)
        assert full.pivots > 1 and not full.capped
        capped = simplex_phase1(a, b, max_pivots=1)
        assert capped.pivots == 1 and capped.capped
        exact = simplex_phase1(a, b, max_pivots=full.pivots)
        assert not exact.capped
        assert tuple(exact)[0] and np.array_equal(exact.x, full.x)


class TestLhv:
    def test_uniform_noise_is_local(self):
        rep = lhv_membership(Correlation(np.full((2, 2, 2, 2), 0.25)))
        assert rep.feasible
        assert rep.residual < 1e-9

    def test_certificate_reconstructs_table(self, rng):
        # random local point: mixture of deterministic strategies
        table = strategy_table(2, 2, 2)
        w = rng.dirichlet(np.ones(16))
        c = Correlation(np.tensordot(w, table, axes=(0, 0)))
        rep = lhv_membership(c)
        assert rep.feasible
        recon = np.tensordot(rep.certificate["weights"], table, axes=(0, 0))
        assert np.max(np.abs(recon - c.table)) < 1e-9

    def test_pr_infeasible(self):
        c = Correlation(pr_table())
        rep = lhv_membership(c)
        assert rep.status == "numerically-infeasible"
        assert bell_certifies(c, rep.certificate)
        assert not bell_certifies(c, flipped(rep.certificate))

    def test_singlet_infeasible(self, singlet_channel):
        c = correlations_from_channel(singlet_channel)
        assert chsh_value(c) > 2.0 + 1e-6  # certifying witness
        rep = lhv_membership(c)
        assert rep.status == "numerically-infeasible"
        assert bell_certifies(c, rep.certificate)
        assert not bell_certifies(c, flipped(rep.certificate))

    def test_iterations_are_pivots(self):
        rep = lhv_membership(Correlation(np.full((2, 2, 2, 2), 0.25)))
        assert rep.iterations == 10
        assert lhv_membership(Correlation(pr_table())).iterations == 8

    @pytest.mark.parametrize("v, m, d", [
        (0.75, 2, 2), (0.72, 2, 2), (0.9, 5, 2), (0.51, 5, 2),
        (0.501, 2, 2), (0.501, 3, 3), (0.501, 5, 2),
    ])
    def test_pr_mixture_above_one_half_has_a_bell_certificate(self, v, m, d):
        c = Correlation(pr_mixture(v, m, d))
        rep = lhv_membership(c)
        assert rep.status == "numerically-infeasible"
        assert bell_certifies(c, rep.certificate)
        assert not bell_certifies(c, flipped(rep.certificate))

    @pytest.mark.parametrize("m, d", [(2, 2), (3, 3), (5, 2)])
    def test_pr_mixture_below_one_half_is_local(self, m, d):
        assert lhv_membership(Correlation(pr_mixture(0.499, m, d))).feasible

    def test_uniform_233_does_not_stall(self):
        """Fully degenerate: Bland's rule takes over 100000 pivots here."""
        rep = lhv_membership(Correlation(np.full((3, 3, 3, 3), 1.0 / 9.0)))
        assert rep.feasible and rep.iterations <= 200

    @pytest.mark.parametrize("m, d, k, seed", [
        (3, 3, 1, 1), (3, 3, 3, 0), (3, 3, 3, 1), (5, 2, 1, 1), (5, 2, 3, 1),
    ])
    def test_sparse_local_points_do_not_stall(self, m, d, k, seed):
        """Sparse mixtures on which Bland's rule takes over 100000 pivots."""
        rng = np.random.default_rng(seed)
        noise = rng.uniform(0.05, 0.25)
        rep = lhv_membership(Correlation(local_mixture(rng, m, k, noise, d)))
        assert rep.feasible and rep.iterations <= 400

    def test_local_sweep_is_feasible(self):
        """Every local mixture is feasible within 400 pivots, and its weights
        rebuild the table."""
        for m, d in ((2, 2), (3, 2), (3, 3), (5, 2), (2, 4), (4, 2)):
            table = strategy_table(2, m, d)
            for k, seed in product(range(1, 4), range(6)):
                rng = np.random.default_rng(seed)
                t = local_mixture(rng, m, k, [0.0, 0.1, 0.2, 0.3][seed % 4], d)
                rep = lhv_membership(Correlation(t))
                assert rep.feasible and rep.iterations <= 400, (m, d, k, seed)
                w = rep.certificate["weights"]
                assert w.min() >= 0.0
                recon = np.tensordot(w, table, axes=(0, 0))
                assert np.max(np.abs(recon - t)) <= 1e-12, (m, d, k, seed)

    def test_pivot_cap_is_inconclusive(self, monkeypatch):
        """A capped phase 1 has a nonzero artificial sum that proves nothing."""
        monkeypatch.setattr(
            membership, "simplex_phase1", functools.partial(simplex_phase1, max_pivots=3)
        )
        for table in (pr_table(), np.full((2, 2, 2, 2), 0.25)):
            rep = lhv_membership(Correlation(table))
            assert rep.status == "inconclusive" and "pivot cap" in rep.detail
            assert rep.iterations == 3
            assert rep.residual > 0

    def test_strategy_cap(self):
        uniform = Correlation(np.full((4,) * 3 + (4,) * 3, 1.0 / 64.0))
        with pytest.raises(ValueError, match="cap"):
            lhv_membership(uniform)  # (4^4)^3 joint strategies

    def test_strategy_cap_precedes_the_table(self, monkeypatch):
        """(2,5,4) has (4^5)^2 = 1048576 joint strategies: both LHV and LHS
        refuse it by the cap, before any strategy is enumerated."""

        def enumerated(*_):
            raise AssertionError("strategies enumerated past the cap")

        monkeypatch.setattr(membership, "_strategy_answers", enumerated)
        table = np.full((4, 4, 5, 5), 1.0 / 16.0)
        message = "1048576 deterministic strategies exceed the configured cap 65536"
        with pytest.raises(ValueError, match=message):
            lhv_membership(Correlation(table))
        with pytest.raises(ValueError, match=message):
            lhs_membership(Assemblage(table[..., None, None]))

    def test_word_cap(self):
        """(2,5,4) has 1 + 2*20 + 20^2 = 441 words, beyond the 400-word cap."""
        table = np.full((4, 4, 5, 5), 1.0 / 16.0)
        with pytest.raises(ValueError, match="441 exceeds the configured cap 400"):
            almost_quantum_correlation_membership(Correlation(table))

    def test_strategy_count_invariant(self):
        assert len(enumerate_strategies(2, 2)) == 4
        assert len(enumerate_strategies(3, 2)) == 8
        assert strategy_table(2, 2, 2).shape[0] == 16


def zx_steering_assemblage() -> Assemblage:
    rho = projector(max_entangled(2))
    el = np.zeros((2, 2, 2, 2), dtype=complex)
    for x, obs in enumerate((PAULI_Z, PAULI_X)):
        _, vecs = np.linalg.eigh(obs)
        for a in range(2):
            proj = projector(vecs[:, 1 - a])
            el[a, x] = partial_trace_dims(np.kron(proj, np.eye(2)) @ rho, [2, 2], keep=[1])
    return Assemblage(el)


def steering_functional_value(a: Assemblage) -> tuple[float, float]:
    """CHSH-like steering functional and its exact LHS bound.

    Value: sum_{a,x} (-1)^a tr[sigma_{a|x} O_x] / sqrt(2); the bound comes
    from brute force over deterministic responses with the optimal hidden
    state (top eigenvalue of the signed observable sum).
    """
    obs = (PAULI_Z / RT2, PAULI_X / RT2)
    value = 0.0
    for x in range(2):
        for out in range(2):
            value += ((-1) ** out) * np.trace(a.element((out,), (x,)) @ obs[x]).real
    bound = -np.inf
    for resp in product(range(2), repeat=2):
        signed = sum(((-1) ** resp[x]) * obs[x] for x in range(2))
        bound = max(bound, float(np.linalg.eigvalsh(signed).max()))
    return value, bound


class TestLhs:
    def test_product_with_local_probabilities(self, rng):
        rho_b = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        el = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
        el[...] = 0.25 * rho_b
        rep = lhs_membership(Assemblage(el))
        assert rep.feasible
        states = rep.certificate["states"]
        # certificate re-verifies
        table = strategy_table(2, 2, 2).reshape(16, -1)
        recon = sum(table[k][:, None, None] * states[k] for k in range(16))
        assert np.max(np.abs(recon.reshape(el.shape) - el)) < 1e-6

    def test_zx_steering_infeasible_with_witness(self):
        a = zx_steering_assemblage()
        value, bound = steering_functional_value(a)
        assert value > bound + 0.1  # analytic steering certificate
        rep = lhs_membership(a)
        assert rep.status == "numerically-infeasible"

    def test_pr_assemblage_infeasible(self):
        el = (pr_table()[..., None, None] * (np.eye(2) / 2)).astype(complex)
        rep = lhs_membership(Assemblage(el))
        assert rep.status == "numerically-infeasible"


class TestWordsAndSkeleton:
    def test_word_count_single_party(self):
        assert len(words_for_scenario(1, 1, 2)) == 3

    def test_word_count_two_party(self):
        assert len(words_for_scenario(2, 2, 2)) == 25

    @pytest.mark.parametrize(
        "n,m,d", [(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 1, 2)]
    )
    def test_word_count_formula(self, n, m, d):
        assert len(words_for_scenario(n, m, d)) == (1 + m * d) ** n

    def test_orthogonality_matches_bruteforce(self):
        words = words_for_scenario(2, 2, 2)

        def brute(u, v):
            for p1, a1, x1 in u:
                for p2, a2, x2 in v:
                    if p1 == p2 and x1 == x2 and a1 != a2:
                        return True
            return False

        count_fast = sum(
            words_orthogonal(u, v) for u in words for v in words
        )
        count_brute = sum(brute(u, v) for u in words for v in words)
        assert count_fast == count_brute
        assert count_fast > 0

    def test_skeleton_zero_classes_match_orthogonality(self):
        """A block pair lies in a zero class iff its words are orthogonal."""
        for n, m, d in [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
            sk = build_moment_skeleton(n, m, d, 1)
            words = sk.words
            for i, u in enumerate(words):
                for j, v in enumerate(words):
                    in_zero = int(sk.labels[i, j]) in sk.zero_classes
                    assert in_zero == words_orthogonal(u, v), (n, m, d, u, v)

    @pytest.mark.parametrize(
        "n,m,d,n_classes,n_zero",
        [
            (1, 2, 2, 17, 4),
            (2, 2, 2, 289, 120),
            (2, 3, 2, 1369, 408),
            (3, 2, 2, 4913, 2716),
            (1, 3, 3, 82, 18),
        ],
    )
    def test_class_counts_closed_form(self, n, m, d, n_classes, n_zero):
        """``(1 + (m d)^2)^n`` classes: per party, absent or common (one
        code in ``0..m d``) or clashing (an ordered pair of distinct
        codes).  A class is nonzero iff no party clashes with equal inputs,
        and ``m d (d - 1)`` of the clashing pairs per party share an input."""
        md = m * d
        assert n_classes == (1 + md * md) ** n
        assert n_zero == n_classes - (1 + md * md - md * (d - 1)) ** n
        sk = build_moment_skeleton(n, m, d, 1)
        assert len(sk.classes) == n_classes
        assert len(sk.zero_classes) == n_zero
        assert sk.labels.shape == (sk.n_words, sk.n_words)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            build_moment_skeleton(3, 3, 3, 4)

    @pytest.mark.parametrize("n,m,d", [(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 1, 2)])
    def test_identification_classes_match_bruteforce_closure(self, n, m, d):
        """The singleton-drop generators must reproduce the transitive
        closure of every common-prefix identification instance (nonempty
        dropped sub-word disjoint from both remainders)."""
        words = words_for_scenario(n, m, d)
        index = {w: k for k, w in enumerate(words)}
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for t_word in words:
            if not t_word:
                continue
            t_parties = {p for p, _, _ in t_word}
            for s_word in words:
                if {p for p, _, _ in s_word} & t_parties:
                    continue
                for sp_word in words:
                    if {p for p, _, _ in sp_word} & t_parties:
                        continue
                    i = index[tuple(sorted(t_word + s_word))]
                    j = index[tuple(sorted(t_word + sp_word))]
                    union((i, j), (index[s_word], j))
                    union((i, j), (i, index[sp_word]))
        groups: dict = {}
        for i in range(len(words)):
            for j in range(len(words)):
                groups.setdefault(find((i, j)), set()).add((i, j))
        brute = {frozenset(g) for g in groups.values()}
        sk = build_moment_skeleton(n, m, d, 1, cap=10000)
        assert {frozenset(members) for members in sk.classes} == brute


def quantum_realization_n2():
    from test_constructions import tsirelson_realization

    r = tsirelson_realization()
    # lift to trusted_dim 2: same projectors, state on K (x) B with B = C^2
    state = np.kron(r.state, np.array([1.0, 0.0], dtype=complex))
    return type(r)(
        state=state,
        projectors=r.projectors,
        n_parties=2,
        n_inputs=2,
        n_outputs=2,
        kdim=4,
        trusted_dim=2,
    )


class TestAlmostQuantum:
    def test_lhs_certificate_gives_valid_moment_matrix(self):
        rho_b = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        el = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
        el[...] = 0.25 * rho_b
        a = Assemblage(el)
        rep = lhs_membership(a)
        gamma = moment_matrix_from_lhs_model(a, rep.certificate["states"])
        res = gamma.condition_residuals()
        assert all(v < 1e-9 for v in res.values()), res
        rep2 = almost_quantum_assemblage_membership(a, init=gamma.matrix)
        assert rep2.feasible
        assert rep2.iterations <= 2

    def test_commuting_projector_forward_construction(self):
        r = quantum_realization_n2()
        gamma = moment_matrix_from_realization(r)
        res = gamma.condition_residuals()
        assert all(v < 1e-9 for v in res.values()), res
        a = assemblage_from_commuting_projectors(r)
        rep = almost_quantum_assemblage_membership(a, init=gamma.matrix)
        assert rep.feasible

    def test_pr_assemblage_not_almost_quantum(self):
        el = (pr_table()[..., None, None] * (np.eye(2) / 2)).astype(complex)
        a = Assemblage(el)
        rep = almost_quantum_assemblage_membership(a)
        assert rep.status == "numerically-infeasible"
        value, verdict = tsirelson_witness(a.to_correlation())
        assert verdict == "not-almost-quantum"  # corroborating witness

    def test_signalling_input_rejected(self):
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        for a in range(2):
            for x in range(2):
                el[a, x] = 0.5 * projector(np.eye(2, dtype=complex)[x])
        with pytest.raises(ValueError, match="signalling"):
            almost_quantum_assemblage_membership(Assemblage(el))


class TestGramRealization:
    def test_quantum_round_trip(self):
        r = quantum_realization_n2()
        gamma = moment_matrix_from_realization(r)
        back = gram_realization(gamma)
        back.validate(1e-6)
        a1 = assemblage_from_commuting_projectors(r)
        a2 = assemblage_from_commuting_projectors(back)
        assert np.max(np.abs(a1.elements - a2.elements)) < 1e-6

    def test_lhs_round_trip_commutation(self):
        rho_b = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        el = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
        el[...] = 0.25 * rho_b
        a = Assemblage(el)
        rep = lhs_membership(a)
        gamma = moment_matrix_from_lhs_model(a, rep.certificate["states"])
        back = gram_realization(gamma)
        back.validate(1e-6)  # includes the state-commutation invariant
        a2 = assemblage_from_commuting_projectors(back)
        assert np.max(np.abs(a2.elements - a.elements)) < 1e-6

    def test_rank_one_deterministic_matrix(self):
        # deterministic single-party assemblage (always outcome 0), modelled
        # with all weight on the single matching strategy: rank-1 matrix
        el = np.zeros((2, 2, 1, 1), dtype=complex)
        el[0, 0, 0, 0] = 1.0
        el[0, 1, 0, 0] = 1.0
        a = Assemblage(el)
        states = np.zeros((4, 1, 1), dtype=complex)
        strategies = enumerate_strategies(2, 2)
        states[strategies.index((0, 0))] = 1.0
        gamma = moment_matrix_from_lhs_model(a, states)
        assert all(v < 1e-9 for v in gamma.condition_residuals().values())
        back = gram_realization(gamma)
        assert back.kdim == 1

    def test_invalid_matrix_rejected(self):
        sk = build_moment_skeleton(1, 1, 2, 1)
        bad = MomentMatrix(sk, np.diag([1.0, -0.5, 0.2]).astype(complex))
        with pytest.raises(ValueError, match="violates"):
            gram_realization(bad)


class TestSolverSubstrate:
    def test_psd_projection_clamps(self):
        got = project_psd_cone(np.diag([1.0, -1.0]).astype(complex))
        assert np.max(np.abs(got - np.diag([1.0, 0.0]))) < 1e-12

    def test_psd_projection_complex(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (g + g.conj().T) / 2
        p = project_psd_cone(m)
        assert np.linalg.eigvalsh(p).min() > -1e-12
        vals, vecs = np.linalg.eigh(m)
        direct = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
        assert np.max(np.abs(p - direct)) < 1e-10

    def test_feasible_init_converges_immediately(self):
        el = np.zeros((2, 2, 2, 2), dtype=complex)
        el[...] = np.eye(2) / 4
        a = Assemblage(el)
        rep = lhs_membership(a)
        assert rep.feasible
        assert rep.iterations <= 2

    def test_single_party_exhaustive_oracle(self, rng):
        """For one party the local polytope is the full distribution simplex
        and coincides with the almost-quantum set: a normalized table lies in
        both iff it is entrywise nonnegative.  Drive the two solvers on 100
        random normalized tables, half with negative entries, and compare
        against that oracle.  Feasible runs start from the product-coupling
        certificate (every feasible moment matrix is forced onto the PSD-cone
        boundary by the completeness identities, where a cold alternating
        start converges only sublinearly)."""
        strat = strategy_table(1, 2, 2)  # 4 single-party strategies
        flat = strat.reshape(4, -1).T
        strategies = enumerate_strategies(2, 2)
        for trial in range(100):
            raw = rng.uniform(0.1, 1.0, size=(2, 2))
            if trial % 2 == 1:
                raw[rng.integers(2), rng.integers(2)] = -rng.uniform(0.05, 0.3)
            table = raw / raw.sum(axis=0, keepdims=True)
            in_polytope = bool(table.min() >= -1e-12)

            a_mat = np.vstack([flat, np.ones((1, 4))])
            b_vec = np.concatenate([table.reshape(-1), [1.0]])
            lp_ok, _, _ = simplex_phase1(a_mat, b_vec)
            assert lp_ok == in_polytope

            assm = Assemblage(table[..., None, None].astype(complex))
            if in_polytope:
                states = np.zeros((4, 1, 1), dtype=complex)
                for lam, (a0, a1) in enumerate(strategies):
                    states[lam, 0, 0] = table[a0, 0] * table[a1, 1]
                cert = moment_matrix_from_lhs_model(assm, states)
                aq = almost_quantum_assemblage_membership(assm, init=cert.matrix)
            else:
                aq = almost_quantum_assemblage_membership(assm, max_iter=4000)
            assert aq.feasible == in_polytope


def loop_class_average(sk, matrix: np.ndarray) -> np.ndarray:
    """Reference class averaging: one Python pass per class and block."""
    d_b = sk.block_dim
    out = np.empty_like(matrix)
    for cid, members in enumerate(sk.classes):
        if cid in sk.zero_classes:
            value = np.zeros((d_b, d_b), dtype=complex)
        elif cid in sk.anchor_values:
            value = sk.anchor_values[cid]
        else:
            value = np.zeros((d_b, d_b), dtype=complex)
            for u, v in members:
                value += matrix[u * d_b : (u + 1) * d_b, v * d_b : (v + 1) * d_b]
            value /= len(members)
        for u, v in members:
            out[u * d_b : (u + 1) * d_b, v * d_b : (v + 1) * d_b] = value
    return out


def realified_psd_projection(m: np.ndarray) -> np.ndarray:
    """Reference PSD projection through the real ``[[A, -B], [B, A]]`` embedding."""
    m = (m + m.conj().T) / 2
    n = m.shape[0]
    s = np.block([[m.real, -m.imag], [m.imag, m.real]])
    vals, vecs = np.linalg.eigh((s + s.T) / 2)
    s_plus = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return s_plus[:n, :n] + 1j * s_plus[n:, :n]


def dense_affine_projection(
    f: np.ndarray, targets: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Reference LHS affine projection: the dense realified matrix of
    ``f (x) 1`` over block-major ``[re | im]`` coordinates, its pinv, and
    the least-norm correction ``x - A^+ (A x - b)``."""
    n_cells, n_strat = f.shape
    d_b = blocks.shape[-1]
    eye_b, eye_2 = np.eye(d_b), np.eye(2)
    a_mat = np.einsum("cl,ip,jq,ts->cijtlspq", f, eye_b, eye_b, eye_2)
    a_mat = a_mat.reshape(n_cells * d_b * d_b * 2, -1)
    rhs = np.stack([targets.real, targets.imag], axis=-1).reshape(-1)
    pinv = np.linalg.pinv(a_mat, rcond=1e-12)
    x = np.stack([blocks.real, blocks.imag], axis=1).reshape(-1)
    x = x - pinv @ (a_mat @ x - rhs)
    parts = x.reshape(n_strat, 2, d_b, d_b)
    return parts[:, 0] + 1j * parts[:, 1]


def realization_lhs_certificate(a: Assemblage, states: np.ndarray) -> MomentMatrix:
    """Reference LHS certificate: the Gram matrix of the realization with
    state blocks ``sqrt(P(sigma_lam))^T`` and projectors ``diag(chi) (x) 1``
    on the ``(n_strat d_B)``-dimensional hidden-state space."""
    n, m, d, d_b = a.n_untrusted, a.n_inputs, a.n_outputs, a.trusted_dim
    joints = list(product(enumerate_strategies(m, d), repeat=n))
    n_strat = len(joints)
    kdim = n_strat * d_b
    projectors = {}
    for k, x, out in product(range(n), range(m), range(d)):
        diag = np.array([1.0 if joint[k][x] == out else 0.0 for joint in joints])
        projectors[(k, out, x)] = np.kron(np.diag(diag), np.eye(d_b)).astype(complex)
    psi = np.zeros((kdim, d_b), dtype=complex)
    for lam in range(n_strat):
        vals, vecs = np.linalg.eigh((states[lam] + states[lam].conj().T) / 2)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        psi[lam * d_b : (lam + 1) * d_b] = root.T
    r = ProjectiveRealization(
        state=psi.reshape(-1),
        projectors=projectors,
        n_parties=n,
        n_inputs=m,
        n_outputs=d,
        kdim=kdim,
        trusted_dim=d_b,
    )
    return moment_matrix_from_realization(r)


def random_lhs_assemblage(rng, n: int, m: int, d: int, d_b: int) -> Assemblage:
    table = strategy_table(n, m, d)
    weights = rng.dirichlet(np.ones(table.shape[0]))
    states = np.stack([w * random_density(rng, d_b) for w in weights])
    return Assemblage(np.tensordot(table, states, axes=(0, 0)))


class TestVectorisedKernels:
    @pytest.mark.parametrize("n, m, d, d_b", [(2, 2, 2, 1), (2, 3, 2, 1), (1, 2, 2, 2), (3, 2, 2, 1)])
    def test_class_average_matches_loop(self, rng, n, m, d, d_b):
        sk = build_moment_skeleton(n, m, d, d_b)
        attach_assemblage_anchors(sk, random_lhs_assemblage(rng, n, m, d, d_b))
        affine = MomentAffine(sk)
        assert sk.anchor_values and sk.zero_classes
        assert not set(sk.anchor_values) & sk.zero_classes
        for _ in range(3):
            shape = (sk.flat_dim, sk.flat_dim)
            mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = affine.project_matrix(mat)
            assert np.max(np.abs(got - loop_class_average(sk, mat))) < 1e-12
            # a projection: applying it twice changes nothing
            assert np.max(np.abs(affine.project_matrix(got) - got)) < 1e-12

    def test_psd_projection_matches_realified_single(self, rng):
        g = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        got = project_psd_cone(g)
        assert got.shape == (7, 7)
        assert np.max(np.abs(got - realified_psd_projection(g))) < 1e-12

    def test_psd_projection_matches_realified_stack(self, rng):
        g = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        got = project_psd_cone(g)
        assert got.shape == g.shape
        for k in range(5):
            assert np.max(np.abs(got[k] - realified_psd_projection(g[k]))) < 1e-12

    @pytest.mark.parametrize(
        "n, m, d, d_b", [(2, 2, 2, 2), (2, 3, 2, 1), (1, 3, 3, 3), (2, 3, 3, 2)]
    )
    def test_lhs_projection_matches_dense(self, rng, n, m, d, d_b):
        table = strategy_table(n, m, d)
        f = table.reshape(table.shape[0], -1).T
        targets = random_lhs_assemblage(rng, n, m, d, d_b).elements
        targets = targets.reshape(f.shape[0], d_b, d_b)
        assert np.linalg.matrix_rank(f) < min(f.shape)  # F is rank-deficient
        cons = AffineConstraints(f, targets)
        shape = (f.shape[1], d_b, d_b)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = cons.project(blocks)
        assert got.shape == shape
        assert np.max(np.abs(got - dense_affine_projection(f, targets, blocks))) < 1e-12
        assert np.max(np.abs(cons.project(got) - got)) < 1e-12

    def test_inconsistent_targets_rejected(self, rng):
        table = strategy_table(2, 2, 2)
        f = table.reshape(16, -1).T
        targets = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
        with pytest.raises(ValueError, match="inconsistent"):
            AffineConstraints(f, targets)

    @pytest.mark.parametrize(
        "n, m, d, d_b", [(1, 2, 2, 1), (1, 2, 2, 2), (1, 3, 2, 2), (2, 2, 2, 1), (2, 2, 2, 2)]
    )
    def test_lhs_certificate_matches_realization(self, rng, n, m, d, d_b):
        a = random_lhs_assemblage(rng, n, m, d, d_b)
        n_strat = len(enumerate_strategies(m, d)) ** n
        states = np.stack([random_density(rng, d_b) / n_strat for _ in range(n_strat)])
        # one state slightly outside the PSD cone: both sides clip it
        vals, vecs = np.linalg.eigh(states[0])
        vals[0] = -1e-9
        states[0] = (vecs * vals) @ vecs.conj().T
        got = moment_matrix_from_lhs_model(a, states)
        want = realization_lhs_certificate(a, states)
        assert got.skeleton.words == want.skeleton.words
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


class TestPinnedVerdicts:
    """Verdicts and iteration counts of the decisive gallery instances at
    ``max_iter=1000``; a faster solver must not change an answer.  Counts
    may move by 2 to absorb round-off in summation order."""

    @pytest.mark.parametrize(
        "instance, status, iterations",
        [
            ("pr-box almost-quantum", "numerically-infeasible", 629),
            ("singlet almost-quantum", "feasible", 628),
            ("pq-steering-pr lhs", "numerically-infeasible", 501),
            ("pq-steering-pr almost-quantum", "numerically-infeasible", 629),
            ("pr-mixture-0.63 lhs", "numerically-infeasible", 501),
            ("pr-mixture-0.3-233 lhs", "feasible", 768),
        ],
    )
    def test_verdict_and_iterations(
        self, instance, status, iterations, singlet_channel, pq_pr_channel
    ):
        if instance == "pr-box almost-quantum":
            rep = almost_quantum_correlation_membership(Correlation(pr_table()), max_iter=1000)
        elif instance == "singlet almost-quantum":
            c = correlations_from_channel(singlet_channel)
            rep = almost_quantum_correlation_membership(c, max_iter=1000)
        elif instance == "pq-steering-pr lhs":
            rep = lhs_membership(assemblage_from_channel(pq_pr_channel), max_iter=1000)
        elif instance == "pr-mixture-0.63 lhs":
            rep = lhs_membership(Assemblage(pr_mixture(0.63)[..., None, None] * HALF), max_iter=1000)
        elif instance == "pr-mixture-0.3-233 lhs":
            t = pr_mixture(0.3, m=3, d=3)
            rep = lhs_membership(Assemblage(t[..., None, None] * HALF), max_iter=1000)
        else:
            a = assemblage_from_channel(pq_pr_channel)
            rep = almost_quantum_assemblage_membership(a, max_iter=1000)
        assert rep.status == status
        assert abs(rep.iterations - iterations) <= 2


class TestLpVsSdp:
    """With a one-dimensional trusted system the LHS SDP is the LHV LP, so
    the projection solver must never contradict the simplex."""

    @settings(max_examples=24, deadline=None)
    @given(
        m=st.sampled_from([2, 3]),
        local=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(0.05, 0.5),
        v=st.floats(0.6, 1.0),
    )
    def test_lhs_never_contradicts_lhv(self, m, local, seed, noise, v):
        if local:
            rng = np.random.default_rng(seed)
            t = local_mixture(rng, m, int(rng.integers(1, 5)), noise)
        else:
            t = pr_mixture(v, m)
        lp = lhv_membership(Correlation(t))
        sdp = lhs_membership(Assemblage(t[..., None, None]), max_iter=2000)
        if lp.status == "numerically-infeasible":
            assert sdp.status != "feasible"
        if lp.status == "feasible":
            assert sdp.status != "numerically-infeasible"


class TestLpVsHighs:
    """An independent LP solver must agree with ``lhv_membership``."""

    @staticmethod
    def highs_feasible(t: np.ndarray) -> bool:
        optimize = pytest.importorskip("scipy.optimize")
        m, d = t.shape[2], t.shape[0]
        table = strategy_table(2, m, d)
        a_eq = np.vstack([table.reshape(table.shape[0], -1).T, np.ones(table.shape[0])])
        b_eq = np.append(t.reshape(-1), 1.0)
        res = optimize.linprog(np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, method="highs")
        assert res.status in (0, 2), res.message  # solved or infeasible
        return res.status == 0

    def test_agrees_on_seeded_points(self, singlet_channel):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2024)
        singlet = correlations_from_channel(singlet_channel).table
        points = [singlet, 0.6 * singlet + 0.1, 0.75 * singlet + 0.0625]
        for m, d in ((2, 2), (3, 2), (3, 3), (5, 2)):
            for _ in range(3):
                points.append(pr_mixture(float(rng.uniform(0.2, 1.0)), m, d))
                noise = float(rng.uniform(0.0, 0.3))
                points.append(local_mixture(rng, m, int(rng.integers(1, 4)), noise, d))
        for t in points:
            rep = lhv_membership(Correlation(t))
            assert rep.status != "inconclusive"
            assert rep.feasible == self.highs_feasible(t)


class TestTsirelsonWitness:
    def test_pr_not_almost_quantum(self):
        value, verdict = tsirelson_witness(Correlation(pr_table()))
        assert abs(value - 4.0) < 1e-9
        assert verdict == "not-almost-quantum"

    def test_alpha_correlations_not_almost_quantum(self, pq_alpha_channel):
        from causalchannels import assemblage_from_channel

        a = assemblage_from_channel(pq_alpha_channel)
        binary = a.to_correlation().coarse_grain(lambda k, o: o // 2, 2)
        value, verdict = tsirelson_witness(binary)
        assert abs(value - 3.0) < 1e-6
        assert verdict == "not-almost-quantum"

    def test_singlet_not_local_only(self, singlet_channel):
        c = correlations_from_channel(singlet_channel)
        _, verdict = tsirelson_witness(c)
        assert verdict == "not-local"

    def test_local_table_inconclusive(self):
        _, verdict = tsirelson_witness(Correlation(np.full((2, 2, 2, 2), 0.25)))
        assert verdict == "inconclusive"

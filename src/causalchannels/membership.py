"""Classify correlations and assemblages by feasibility.

Local-hidden-variable membership is a linear program over deterministic
strategies, solved by a dense phase-1 simplex with Bland's rule.
Local-hidden-state and almost-quantum membership are semidefinite
feasibility problems, solved by alternating projections between the PSD
cone and an affine constraint set.  The iterate is one ``(k, d, d)`` stack
of complex blocks (k hidden states for LHS, one moment matrix for
almost-quantum), so each iteration is a few array operations: a batched
Hermitian ``eigh`` and a precomputed affine projection.  For LHS the
constraints are the 0/1 strategy matrix ``F`` (cells x strategies) acting on
the stack axis, so the affine step is ``X - F^+ (F X - sigma)`` with the
pseudo-inverse of ``F`` alone.  A feasible LHS model certifies almost-quantum
membership through the moment matrix
``Gamma_{u,v} = sum_lam chi_u(lam) chi_v(lam) P(sigma_lam)``, with
``chi_w(lam)`` the indicator that strategy ``lam`` answers every entry of
word ``w`` and ``P`` the projection onto the PSD cone.

Alternating projections cannot *prove* infeasibility: the
``numerically-infeasible`` verdict is a stalled-residual heuristic and is
always reported together with the final residual.  Negative claims in the
test suite are therefore backed by analytic witnesses (CHSH) rather than
solver verdicts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .constructions import ProjectiveRealization
from .linalg import frobenius, hermitize
from .scenarios import (
    Assemblage,
    Correlation,
    chsh_value,
    is_nonsignalling_assemblage,
    is_nonsignalling_correlation,
)

FEASIBILITY_TOL = 1e-7
MAX_ITERATIONS = 20000
STALL_WINDOW = 500
STALL_RELATIVE_CHANGE = 1e-10
STRATEGY_CAP = 65536
WORD_CAP = 400
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class FeasibilityReport:
    status: str  # feasible | numerically-infeasible | inconclusive
    residual: float
    iterations: int
    certificate: dict | None = None
    detail: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# ----------------------------------------------------------------------------
# Deterministic strategies
# ----------------------------------------------------------------------------

def enumerate_strategies(m: int, d: int) -> list[tuple[int, ...]]:
    """All single-party response functions x -> a, as length-m tuples."""
    return list(product(range(d), repeat=m))


def strategy_table(n: int, m: int, d: int, cap: int = STRATEGY_CAP) -> np.ndarray:
    """Indicator table ``D[lam, a_vec..., x_vec...]`` over joint strategies."""
    single = enumerate_strategies(m, d)
    n_joint = len(single) ** n
    if n_joint > cap:
        raise ValueError(
            f"{n_joint} deterministic strategies exceed the configured cap {cap}"
        )
    table = np.zeros((n_joint,) + (d,) * n + (m,) * n)
    for lam, joint in enumerate(product(single, repeat=n)):
        for x_vec in product(range(m), repeat=n):
            a_vec = tuple(joint[k][x_vec[k]] for k in range(n))
            table[(lam,) + a_vec + x_vec] = 1.0
    return table


# ----------------------------------------------------------------------------
# Dense phase-1 simplex
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexResult:
    """Phase-1 outcome; unpacks as ``(feasible, x, artificial_optimum)``."""

    feasible: bool
    x: np.ndarray
    optimum: float
    pivots: int
    capped: bool  # stopped at ``max_pivots`` with an improving column left

    def __iter__(self):
        return iter((self.feasible, self.x, self.optimum))


def simplex_phase1(
    a_mat: np.ndarray, b_vec: np.ndarray, tol: float = 1e-9, max_pivots: int = 100000
) -> SimplexResult:
    """Feasibility of ``A x = b, x >= 0`` via artificial variables.

    Minimizes the sum of artificials with Bland's anti-cycling rule on a
    dense tableau, for at most ``max_pivots`` pivots.  A run stopped by the
    cap has not reached the optimum, so its artificial sum proves nothing.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float).copy()
    n_rows, n_cols = a_mat.shape
    flip = b_vec < 0
    a_work = a_mat.copy()
    a_work[flip] *= -1.0
    b_vec[flip] *= -1.0

    # tableau columns: [original vars | artificials | rhs]
    tab = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    tab[:n_rows, :n_cols] = a_work
    tab[:n_rows, n_cols : n_cols + n_rows] = np.eye(n_rows)
    tab[:n_rows, -1] = b_vec
    basis = list(range(n_cols, n_cols + n_rows))
    # objective row: minimize sum of artificials -> reduced costs
    tab[-1, :] = -tab[:n_rows, :].sum(axis=0)
    tab[-1, n_cols : n_cols + n_rows] = 0.0

    pivots, capped = 0, False
    while True:
        costs = tab[-1, : n_cols + n_rows]
        entering = -1
        for j in range(n_cols + n_rows):  # Bland: smallest index
            if costs[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        if pivots == max_pivots:
            capped = True
            break
        col = tab[:n_rows, entering]
        best_ratio, leaving = None, -1
        for i in range(n_rows):
            if col[i] > tol:
                ratio = tab[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-15
                    or (abs(ratio - best_ratio) <= 1e-15 and basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise RuntimeError("phase-1 problem is unbounded; constraints are malformed")
        pivot = tab[leaving, entering]
        tab[leaving, :] /= pivot
        for i in range(n_rows + 1):
            if i != leaving and abs(tab[i, entering]) > 0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering
        pivots += 1
    optimum = -tab[-1, -1]
    x = np.zeros(n_cols)
    for i, var in enumerate(basis):
        if var < n_cols:
            x[var] = tab[i, -1]
    return SimplexResult(optimum <= 1e-9, x, float(max(optimum, 0.0)), pivots, capped)


def lhv_membership(c: Correlation, cap: int = STRATEGY_CAP) -> FeasibilityReport:
    """LP feasibility of ``p = sum_lam w_lam D_lam`` with a probability vector w.

    ``iterations`` is the simplex pivot count.  A run stopped by the pivot
    cap short of a feasible point is ``inconclusive``.
    """
    c.validate()
    n, m, d = c.n_parties, c.n_inputs, c.n_outputs
    table = strategy_table(n, m, d, cap)
    n_strat = table.shape[0]
    a_mat = table.reshape(n_strat, -1).T
    b_vec = c.table.reshape(-1)
    a_mat = np.vstack([a_mat, np.ones((1, n_strat))])
    b_vec = np.concatenate([b_vec, [1.0]])
    lp = simplex_phase1(a_mat, b_vec)
    if lp.feasible:
        recon = np.tensordot(lp.x, table, axes=(0, 0))
        residual = float(np.max(np.abs(recon - c.table)))
        return FeasibilityReport(
            "feasible", residual, lp.pivots, {"weights": lp.x}, "phase-1 simplex"
        )
    if lp.capped:
        return FeasibilityReport(
            "inconclusive", lp.optimum, lp.pivots, None, "simplex pivot cap reached"
        )
    return FeasibilityReport(
        "numerically-infeasible", lp.optimum, lp.pivots, None, "phase-1 artificial optimum > 0"
    )


# ----------------------------------------------------------------------------
# Alternating projections substrate
# ----------------------------------------------------------------------------

def project_psd_cone(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix for each Hermitian matrix of a ``(..., d, d)`` stack.

    Hermitizes, then clamps negative eigenvalues of a batched complex
    Hermitian ``eigh``; one call projects every block of the stack.
    """
    vals, vecs = np.linalg.eigh(hermitize(m))
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


class AffineConstraints:
    """Least-norm projection onto the LHS constraint set of a hidden-state stack.

    The constraints ``sum_lam f[c, lam] X[lam] = targets[c]`` act on the
    stack axis of ``X`` only: as a map on the stack they are ``f (x) 1``,
    whose pseudo-inverse is ``pinv(f) (x) 1``.  So the projection
    ``X - f^+ (f X - targets)`` needs only the small real ``f``
    (cells x strategies) and its precomputed pseudo-inverse.
    """

    def __init__(self, f: np.ndarray, targets: np.ndarray):
        self._f = f
        self._targets = targets
        self._pinv = np.linalg.pinv(f, rcond=1e-12)
        least = np.tensordot(self._pinv, targets, axes=(1, 0))
        if np.max(np.abs(np.tensordot(f, least, axes=(1, 0)) - targets)) > 1e-7:
            raise ValueError("affine constraint system is inconsistent")

    def project(self, blocks: np.ndarray) -> np.ndarray:
        excess = np.tensordot(self._f, blocks, axes=(1, 0)) - self._targets
        return blocks - np.tensordot(self._pinv, excess, axes=(1, 0))


def alternating_feasibility(
    init: np.ndarray,
    constraints,
    tol: float = FEASIBILITY_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> tuple[FeasibilityReport, np.ndarray]:
    """Alternate affine and PSD-cone projections over a ``(k, d, d)`` block stack.

    The residual is the Frobenius gap between consecutive affine and PSD
    iterates; feasible when it drops below ``tol``. A stalled residual
    (relative change below ``STALL_RELATIVE_CHANGE`` over a
    ``STALL_WINDOW``-iteration window) yields ``numerically-infeasible``;
    exhausting ``max_iter`` without a stall is ``inconclusive``.
    """
    blocks = np.asarray(init, dtype=complex)
    history: list[float] = []
    residual = float("inf")
    for it in range(1, max_iter + 1):
        affine = constraints.project(blocks)
        psd = project_psd_cone(affine)
        residual = float(np.linalg.norm(affine - psd))
        if residual < tol:
            return FeasibilityReport("feasible", residual, it, None), affine
        history.append(residual)
        if len(history) > STALL_WINDOW:
            old = history[-STALL_WINDOW - 1]
            if old > 0 and abs(old - residual) <= STALL_RELATIVE_CHANGE * old:
                return (
                    FeasibilityReport(
                        "numerically-infeasible", residual, it, None, "residual stalled"
                    ),
                    psd,
                )
        blocks = psd
    return (
        FeasibilityReport("inconclusive", residual, max_iter, None, "iteration cap"),
        blocks,
    )


# ----------------------------------------------------------------------------
# Local-hidden-state membership
# ----------------------------------------------------------------------------

def lhs_membership(
    a: Assemblage,
    cap: int = STRATEGY_CAP,
    tol: float = FEASIBILITY_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> FeasibilityReport:
    """SDP feasibility of ``sigma_{a|x} = sum_lam D_lam(a|x) sigma_lam``."""
    a.validate()
    n, m, d, d_b = a.n_untrusted, a.n_inputs, a.n_outputs, a.trusted_dim
    table = strategy_table(n, m, d, cap)
    n_strat = table.shape[0]
    flat = table.reshape(n_strat, -1)  # [lam, (a_vec, x_vec)]
    cons = AffineConstraints(flat.T, a.elements.reshape(flat.shape[1], d_b, d_b))

    init = np.repeat(a.reduced_state()[None] / n_strat, n_strat, axis=0)
    report, blocks = alternating_feasibility(init, cons, tol, max_iter)
    if report.feasible:
        recon = np.tensordot(flat, blocks, axes=(0, 0)).reshape(a.elements.shape)
        residual = float(np.max(np.abs(recon - a.elements)))
        return FeasibilityReport(
            "feasible",
            max(report.residual, residual),
            report.iterations,
            {"states": blocks},
        )
    return report


# ----------------------------------------------------------------------------
# Words and the moment-matrix skeleton
# ----------------------------------------------------------------------------

Word = tuple[tuple[int, int, int], ...]  # sorted ((party, a, x), ...); () is empty


def make_word(entries) -> Word:
    entries = tuple(sorted(entries))
    parties = [p for p, _, _ in entries]
    if len(set(parties)) != len(parties):
        raise ValueError("a word may involve each party at most once")
    return entries


def words_for_scenario(n: int, m: int, d: int) -> list[Word]:
    """All ``(1 + m d)^n`` words over party subsets, empty word first."""
    words: list[Word] = []
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            for assignment in product(product(range(d), range(m)), repeat=r):
                words.append(
                    tuple((p, a, x) for p, (a, x) in zip(subset, assignment))
                )
    return words


def words_orthogonal(u: Word, v: Word) -> bool:
    """Words clash when a shared party has equal input but different outcome."""
    by_party = {p: (a, x) for p, a, x in u}
    for p, a, x in v:
        if p in by_party:
            a2, x2 = by_party[p]
            if x == x2 and a != a2:
                return True
    return False


def _common_droppable(u: Word, v: Word) -> list[tuple[int, int, int]]:
    return [e for e in u if e in v]


@dataclass
class MomentSkeleton:
    """Word list plus the compiled affine structure of the feasibility SDP.

    Blocks are indexed by ordered word pairs; the constraint classes merge
    blocks identified by the common-prefix rule, pin orthogonal-word blocks
    to zero, and anchor the empty-row blocks to the assemblage data.
    """

    n_parties: int
    n_inputs: int
    n_outputs: int
    block_dim: int
    words: list[Word]
    classes: list[list[tuple[int, int]]]
    zero_classes: set[int]
    anchor_values: dict[int, np.ndarray]  # class id -> pinned constant
    class_of: dict[tuple[int, int], int]

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def flat_dim(self) -> int:
        return self.n_words * self.block_dim


def build_moment_skeleton(
    n: int, m: int, d: int, d_b: int, cap: int = WORD_CAP
) -> MomentSkeleton:
    """Enumerate words and compile the equality structure of the moment SDP.

    Emits the orthogonal-zero classes, the common-prefix identification
    classes, and placeholders for the anchor constraints; anchors get their
    constants when a target object is supplied (see
    :func:`almost_quantum_assemblage_membership`).
    """
    words = words_for_scenario(n, m, d)
    n_w = len(words)
    if n_w * d_b > cap:
        raise ValueError(
            f"|W| * d_B = {n_w * d_b} exceeds the configured cap {cap}"
        )
    index = {w: k for k, w in enumerate(words)}

    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    pairs = [(i, j) for i in range(n_w) for j in range(n_w)]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            common = _common_droppable(u, v)
            for entry in common:
                u_drop = tuple(e for e in u if e != entry)
                v_drop = tuple(e for e in v if e != entry)
                # drop from the row word, then from the column word;
                # mirrored pairs keep the structure Hermiticity-stable
                union((i, j), (index[u_drop], j))
                union((i, j), (i, index[v_drop]))

    class_members: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pair in pairs:
        class_members.setdefault(find(pair), []).append(pair)
    classes = list(class_members.values())
    class_of = {}
    for cid, members in enumerate(classes):
        for pair in members:
            class_of[pair] = cid

    zero_classes = set()
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if words_orthogonal(u, v):
                zero_classes.add(class_of[(i, j)])

    return MomentSkeleton(
        n_parties=n,
        n_inputs=m,
        n_outputs=d,
        block_dim=d_b,
        words=words,
        classes=classes,
        zero_classes=zero_classes,
        anchor_values={},
        class_of=class_of,
    )


@dataclass(frozen=True)
class MomentMatrix:
    """Word-indexed block matrix for the almost-quantum feasibility test."""

    skeleton: MomentSkeleton
    matrix: np.ndarray  # flat (n_words * d_b) square, word-major blocks

    def block(self, u: int, v: int) -> np.ndarray:
        d_b = self.skeleton.block_dim
        return self.matrix[u * d_b : (u + 1) * d_b, v * d_b : (v + 1) * d_b]

    def condition_residuals(self) -> dict[str, float]:
        """Residuals of conditions (i)-(v) of the feasibility definition."""
        sk = self.skeleton
        m = self.matrix
        res: dict[str, float] = {}
        res["hermitian"] = frobenius(m - m.conj().T)
        res["psd"] = max(0.0, -float(np.linalg.eigvalsh(hermitize(m)).min()))
        zero = 0.0
        ident = 0.0
        for cid, members in enumerate(sk.classes):
            blocks = [self.block(u, v) for u, v in members]
            if cid in sk.zero_classes:
                zero = max(zero, max(frobenius(b) for b in blocks))
                continue
            ref = blocks[0]
            for b in blocks[1:]:
                ident = max(ident, frobenius(b - ref))
        res["orthogonal-zeros"] = zero
        res["identifications"] = ident
        anchor = 0.0
        for cid, value in sk.anchor_values.items():
            for u, v in sk.classes[cid]:
                anchor = max(anchor, frobenius(self.block(u, v) - value))
        res["anchors"] = anchor
        return res


def _assemblage_marginals(a: Assemblage) -> dict[Word, np.ndarray]:
    """Anchor constants: marginal elements for every word, empty word -> rho_B."""
    n, m, d = a.n_untrusted, a.n_inputs, a.n_outputs
    out: dict[Word, np.ndarray] = {(): a.reduced_state()}
    for word in words_for_scenario(n, m, d):
        if not word:
            continue
        parties = [p for p, _, _ in word]
        drop = [k for k in range(n) if k not in parties]
        marg = a.elements.sum(axis=tuple(drop))
        # average over the dropped parties' inputs (equal when non-signalling)
        in_axes = tuple(len(parties) + k for k in drop)
        marg = marg.mean(axis=in_axes) if in_axes else marg
        idx_a = tuple(aa for _, aa, _ in word)
        idx_x = tuple(xx for _, _, xx in word)
        out[word] = marg[idx_a + idx_x]
    return out


class MomentAffine:
    """Orthogonal projection onto the moment-matrix equality structure.

    Every constraint of the feasibility definition pins a class of blocks to
    a constant (orthogonality zeros, anchors) or to each other
    (identifications), so the least-norm projection is classwise averaging;
    no linear solve is involved.  The averaging plan (class label of every
    block pair, pairs sorted by class, class sizes and segment starts, and
    the pinned classes with their constants) is built once here.
    """

    def __init__(self, sk: MomentSkeleton):
        self.sk = sk
        self.consistent = True
        self.inconsistency = ""
        for cid in sk.zero_classes:
            anchor = sk.anchor_values.get(cid)
            if anchor is not None and float(np.max(np.abs(anchor))) > 1e-9:
                self.consistent = False
                self.inconsistency = (
                    "an orthogonal-zero class carries a nonzero anchor"
                )
        n_w, d_b = sk.n_words, sk.block_dim
        self.labels = np.empty(n_w * n_w, dtype=np.intp)
        for (u, v), cid in sk.class_of.items():
            self.labels[u * n_w + v] = cid
        self.order = np.argsort(self.labels, kind="stable")
        self.counts = np.bincount(self.labels, minlength=len(sk.classes))
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        self.pinned = np.zeros(len(sk.classes), dtype=bool)
        self.pinned_values = np.zeros((len(sk.classes), d_b * d_b), dtype=complex)
        for cid, value in sk.anchor_values.items():
            self.pinned[cid] = True
            self.pinned_values[cid] = value.reshape(-1)
        for cid in sk.zero_classes:
            self.pinned[cid] = True
            self.pinned_values[cid] = 0.0
        self.pinned_values = self.pinned_values[self.pinned]

    def project_matrix(self, matrix: np.ndarray) -> np.ndarray:
        n_w, d_b = self.sk.n_words, self.sk.block_dim
        pairs = matrix.reshape(n_w, d_b, n_w, d_b).transpose(0, 2, 1, 3)
        pairs = pairs.reshape(n_w * n_w, d_b * d_b)
        value = np.add.reduceat(pairs[self.order], self.starts, axis=0)
        value /= self.counts[:, None]
        value[self.pinned] = self.pinned_values
        out = value[self.labels].reshape(n_w, n_w, d_b, d_b).transpose(0, 2, 1, 3)
        return out.reshape(matrix.shape)

    def project(self, blocks: np.ndarray) -> np.ndarray:
        return self.project_matrix(blocks[0])[None]


def attach_assemblage_anchors(sk: MomentSkeleton, a: Assemblage) -> None:
    """Record the anchor constants (reduced state and marginal elements) on
    the skeleton, so condition residuals can be evaluated against them."""
    index = {w: k for k, w in enumerate(sk.words)}
    sk.anchor_values = {
        sk.class_of[(0, index[word])]: np.asarray(value, dtype=complex)
        for word, value in _assemblage_marginals(a).items()
    }


def almost_quantum_assemblage_membership(
    a: Assemblage,
    cap: int = WORD_CAP,
    tol: float = FEASIBILITY_TOL,
    max_iter: int = MAX_ITERATIONS,
    init: np.ndarray | None = None,
) -> FeasibilityReport:
    """Moment-matrix feasibility for almost-quantum membership.

    The affine side carries the orthogonality zeros, common-prefix
    identifications and assemblage anchors; the cone side is PSD-ness of the
    flattened block matrix.  ``init`` may supply a starting matrix (e.g. a
    certificate built from a known model), in which case a feasible verdict
    is typically immediate.
    """
    ok, ns_res = is_nonsignalling_assemblage(a)
    if not ok:
        raise ValueError(f"assemblage is signalling (residual {ns_res:.3e})")
    n, m, d, d_b = a.n_untrusted, a.n_inputs, a.n_outputs, a.trusted_dim
    sk = build_moment_skeleton(n, m, d, d_b, cap)
    attach_assemblage_anchors(sk, a)
    cons = MomentAffine(sk)
    if not cons.consistent:
        return FeasibilityReport(
            "numerically-infeasible", float("inf"), 0, None, cons.inconsistency
        )

    if init is not None:
        start = np.asarray(init, dtype=complex)[None]
    else:
        start = np.zeros((1, sk.flat_dim, sk.flat_dim), dtype=complex)

    report, blocks = alternating_feasibility(start, cons, tol, max_iter)
    if report.feasible:
        final = MomentMatrix(sk, blocks[0])
        return FeasibilityReport(
            "feasible",
            report.residual,
            report.iterations,
            {"moment_matrix": final},
        )
    return report


def almost_quantum_correlation_membership(
    c: Correlation,
    cap: int = WORD_CAP,
    tol: float = FEASIBILITY_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> FeasibilityReport:
    """Scalar-block specialization classifying correlations."""
    ok, res = is_nonsignalling_correlation(c)
    if not ok:
        raise ValueError(f"correlation is signalling (residual {res:.3e})")
    a = Assemblage(c.table[..., None, None].astype(complex))
    return almost_quantum_assemblage_membership(a, cap, tol, max_iter)


def moment_matrix_from_realization(
    r: ProjectiveRealization, skeleton: MomentSkeleton | None = None
) -> MomentMatrix:
    """Forward moment-matrix construction from a state-commuting realization.

    ``Gamma_{u,v} = conj(psi^dag P_u^dag P_v psi)`` over the word products;
    the conjugation aligns the Gram form with the partial-trace convention of
    the extracted assemblage, so the anchors match
    :func:`causalchannels.constructions.assemblage_from_commuting_projectors`.
    """
    if skeleton is None:
        skeleton = build_moment_skeleton(
            r.n_parties, r.n_inputs, r.n_outputs, r.trusted_dim
        )
    sk = skeleton
    psi = r.state_matrix()
    vectors = []
    for word in sk.words:
        phi = psi
        for p, a, x in reversed(word):  # ascending party order, leftmost first
            phi = r.projector(p, a, x) @ phi
        vectors.append(phi)
    d_b = sk.block_dim
    gamma = np.zeros((sk.flat_dim, sk.flat_dim), dtype=complex)
    for u in range(sk.n_words):
        for v in range(sk.n_words):
            block = np.conj(vectors[u].conj().T @ vectors[v])
            gamma[u * d_b : (u + 1) * d_b, v * d_b : (v + 1) * d_b] = block
    return MomentMatrix(sk, gamma)


def moment_matrix_from_lhs_model(
    a: Assemblage, states: np.ndarray
) -> MomentMatrix:
    """Certificate moment matrix from an LHS decomposition ``{sigma_lam}``.

    ``Gamma_{u,v} = sum_lam chi_u(lam) chi_v(lam) P(sigma_lam)``, where
    ``chi_w(lam)`` is 1 when strategy ``lam`` answers every entry of word
    ``w`` and ``P`` is the projection onto the PSD cone.  This is the Gram
    matrix of the realization with projectors ``diag(chi) (x) 1`` on the
    hidden-state stack, so it is PSD and meets every moment condition.
    """
    n, m, d, d_b = a.n_untrusted, a.n_inputs, a.n_outputs, a.trusted_dim
    single = np.array(enumerate_strategies(m, d))
    n_strat = len(single) ** n
    if len(states) != n_strat:
        raise ValueError("one hidden state per joint deterministic strategy required")
    # answers[k, lam, x]: party k's outcome on input x under joint strategy lam
    answers = single[np.indices((len(single),) * n).reshape(n, -1)]
    sk = build_moment_skeleton(n, m, d, d_b)
    chi = np.ones((sk.n_words, n_strat))
    for w, word in enumerate(sk.words):
        for p, out, x in word:
            chi[w] *= answers[p, :, x] == out
    psd = project_psd_cone(np.asarray(states, dtype=complex))
    gamma = np.einsum("ul,vl,lij->uivj", chi, chi, psd)
    return MomentMatrix(sk, gamma.reshape(sk.flat_dim, sk.flat_dim))


def gram_realization(
    gamma: MomentMatrix, tol: float = 1e-6
) -> ProjectiveRealization:
    """Recover a state-commuting projector family from a feasible moment matrix.

    Factors the conjugated matrix as ``U^dag U``, builds per-(party, input,
    outcome) projectors onto the spans of the word blocks containing that
    entry (last outcome by completion), and takes the empty-word block as the
    state.  The reproduced assemblage matches the anchor blocks within the
    validation tolerance.
    """
    res = gamma.condition_residuals()
    worst = max(res.values())
    if worst > tol:
        raise ValueError(f"moment matrix violates its conditions (residual {worst:.3e})")
    sk = gamma.skeleton
    n_w, d_b = sk.n_words, sk.block_dim
    m_conj = np.conj(hermitize(gamma.matrix))
    vals, vecs = np.linalg.eigh(hermitize(m_conj))
    keep = vals > max(1e-12, vals.max() * 1e-13)
    u_fac = (np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T)
    rank = u_fac.shape[0]

    def word_block(idx: int) -> np.ndarray:
        return u_fac[:, idx * d_b : (idx + 1) * d_b]

    index = {w: k for k, w in enumerate(sk.words)}
    projectors: dict[tuple[int, int, int], np.ndarray] = {}
    for k in range(sk.n_parties):
        free = [w for w in sk.words if all(p != k for p, _, _ in w)]
        for x in range(sk.n_inputs):
            total = np.zeros((rank, rank), dtype=complex)
            for out in range(sk.n_outputs - 1):
                cols = []
                for w in free:
                    ext = make_word(list(w) + [(k, out, x)])
                    cols.append(word_block(index[ext]))
                span = np.hstack(cols)
                q = _orthonormal_basis(span)
                proj = q @ q.conj().T
                projectors[(k, out, x)] = proj
                total += proj
            projectors[(k, sk.n_outputs - 1, x)] = np.eye(rank) - total
    state = word_block(0)  # empty word comes first in the enumeration
    return ProjectiveRealization(
        state=state.reshape(-1),
        projectors=projectors,
        n_parties=sk.n_parties,
        n_inputs=sk.n_inputs,
        n_outputs=sk.n_outputs,
        kdim=rank,
        trusted_dim=d_b,
    )


def _orthonormal_basis(columns: np.ndarray, rcond: float = 1e-9) -> np.ndarray:
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    keep = s > rcond * s[0]
    return u[:, keep]


# ----------------------------------------------------------------------------
# CHSH witnesses
# ----------------------------------------------------------------------------

def tsirelson_witness(c: Correlation, margin: float = 1e-6) -> tuple[float, str]:
    """CHSH-based verdict: beyond ``2 sqrt(2)`` rules out almost-quantum
    (hence quantum) models; beyond 2 rules out local ones."""
    value = chsh_value(c)
    if abs(value) > TSIRELSON_BOUND + margin:
        return value, "not-almost-quantum"
    if abs(value) > 2.0 + margin:
        return value, "not-local"
    return value, "inconclusive"

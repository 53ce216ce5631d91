"""Semicausality and causality of channels via Choi-state factorization.

A channel is semicausal from a sender set B to a receiver set A when B's
inputs cannot influence A's outputs.  At the Choi level this is the
factorization ``tr_{out(B)} Omega = Sigma_A (x) 1_{in(B)} / d_{in(B)}``,
checked here in Frobenius norm for every bipartition.  The operational
signalling witness (distinguishability of receiver marginals under different
sender inputs) is kept as an independent sanity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import Channel
from .linalg import (
    basis_state,
    kron_all,
    partial_trace_dims,
    product_residual,
    projector,
    trace_distance,
)

CAUSALITY_TOL = 1e-7


@dataclass(frozen=True)
class BipartitionCheck:
    sender: tuple[str, ...]
    receiver: tuple[str, ...]
    semicausal: bool
    residual: float
    factor: np.ndarray


@dataclass(frozen=True)
class CausalityReport:
    parties: tuple[str, ...]
    checks: tuple[BipartitionCheck, ...]
    causal: bool
    max_residual: float
    tol: float

    def check(self, sender: tuple[str, ...], receiver: tuple[str, ...]) -> BipartitionCheck:
        s, r = frozenset(sender), frozenset(receiver)
        for c in self.checks:
            if frozenset(c.sender) == s and frozenset(c.receiver) == r:
                return c
        raise ValueError(f"no check recorded for {sender} -> {receiver}")


def _resolve_sets(
    ch: Channel, blocked_from: tuple[str, ...], to: tuple[str, ...]
) -> tuple[list[int], list[int]]:
    labels = [p.label for p in ch.parties]
    sender = list(blocked_from)
    receiver = list(to)
    for lab in sender + receiver:
        if lab not in labels:
            raise ValueError(f"unknown party {lab!r}")
    if set(sender) & set(receiver):
        raise ValueError("sender and receiver sets overlap")
    missing = set(labels) - set(sender) - set(receiver)
    trusted = ch.trusted_party
    if missing:
        # the trusted party, when left unassigned, always joins the kept side
        if trusted is not None and missing == {trusted.label}:
            receiver.append(trusted.label)
        else:
            raise ValueError(f"parties {sorted(missing)} assigned to neither side")
    if not sender or not receiver:
        raise ValueError("both sides of the bipartition must be nonempty")
    s_idx = sorted(labels.index(lab) for lab in sender)
    r_idx = sorted(labels.index(lab) for lab in receiver)
    return s_idx, r_idx


def is_semicausal(
    ch: Channel,
    blocked_from: tuple[str, ...] | list[str],
    to: tuple[str, ...] | list[str],
    tol: float = CAUSALITY_TOL,
) -> tuple[bool, float, np.ndarray]:
    """Check that the parties in ``blocked_from`` cannot signal those in ``to``.

    Returns ``(verdict, residual, factor)`` where ``factor`` is the candidate
    reduced state on the receiver-side factors and ``residual`` is the
    Frobenius distance of the sender-output-traced Choi state from the
    required product form.
    """
    s_idx, _ = _resolve_sets(ch, tuple(blocked_from), tuple(to))
    dims = list(ch.factor_dims)
    n = ch.n_parties

    sender_out = [ch.out_factor(k) for k in s_idx]
    keep_after_out = [f for f in range(2 * n) if f not in sender_out]
    omega_p = partial_trace_dims(ch.choi, dims, keep_after_out)
    dims_p = [dims[f] for f in keep_after_out]

    sender_in = [keep_after_out.index(ch.in_factor(k)) for k in s_idx]
    residual, sigma = product_residual(omega_p, dims_p, sender_in)
    return residual < tol, residual, sigma


def is_causal(ch: Channel, tol: float = CAUSALITY_TOL) -> CausalityReport:
    """Run the semicausality check over every ordered bipartition of parties."""
    labels = [p.label for p in ch.parties]
    n = len(labels)
    if n < 2:
        return CausalityReport(tuple(labels), (), True, 0.0, tol)
    checks: list[BipartitionCheck] = []
    for r in range(1, n):
        for sender in combinations(labels, r):
            receiver = tuple(lab for lab in labels if lab not in sender)
            ok, res, sigma = is_semicausal(ch, sender, receiver, tol)
            checks.append(BipartitionCheck(sender, receiver, ok, res, sigma))
    max_res = max(c.residual for c in checks)
    return CausalityReport(
        tuple(labels), tuple(checks), all(c.semicausal for c in checks), max_res, tol
    )


def signalling_witness(
    ch: Channel, sender: str, receivers: tuple[str, ...] | list[str]
) -> float:
    """Operational cross-check of the Choi condition.

    Feeds each pair of basis states into the sender's input (maximally mixed
    states elsewhere) and returns the largest trace distance between the
    receiver-side output marginals.  Zero within tolerance iff the tested
    inputs cannot signal.
    """
    labels = [p.label for p in ch.parties]
    if sender not in labels:
        raise ValueError(f"unknown party {sender!r}")
    receivers = list(receivers)
    for lab in receivers:
        if lab not in labels:
            raise ValueError(f"unknown party {lab!r}")
    if sender in receivers:
        raise ValueError("sender cannot be its own receiver")

    s_k = labels.index(sender)
    d_s = ch.parties[s_k].dim_in
    recv_idx = [labels.index(lab) for lab in receivers]
    out_dims = list(ch.dims_out)

    def marginal(i: int) -> np.ndarray:
        blocks = []
        for k, p in enumerate(ch.parties):
            if k == s_k:
                blocks.append(projector(basis_state(d_s, i)))
            else:
                blocks.append(np.eye(p.dim_in, dtype=complex) / p.dim_in)
        out = ch.apply(kron_all(blocks))
        return partial_trace_dims(out, out_dims, recv_idx)

    marginals = [marginal(i) for i in range(d_s)]
    worst = 0.0
    for i in range(d_s):
        for j in range(i + 1, d_s):
            worst = max(worst, trace_distance(marginals[i], marginals[j]))
    return worst

"""Semicausality and causality of channels via Choi-state factorization.

A channel is semicausal from a sender set B to a receiver set A when B's
inputs cannot influence A's outputs.  At the Choi level this is the
factorization ``tr_{out(B)} Omega = Sigma_A (x) 1_{in(B)} / d_{in(B)}``,
checked here in Frobenius norm for every bipartition.  The operational
signalling witness (distinguishability of receiver marginals under different
sender inputs, searched over an informationally complete set of product
inputs) is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import Channel
from .linalg import hermitize, partial_trace_dims, permute_subsystems_dims, product_residual

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


def _informationally_complete(d: int) -> np.ndarray:
    """The ``d**2`` pure states ``|i>``, ``(|i>+|j>)/sqrt2`` and
    ``(|i>+i|j>)/sqrt2`` (``i < j``) as rows; their projectors span every
    operator on ``C^d``."""
    i, j = np.triu_indices(d, 1)
    eye = np.eye(d, dtype=complex)
    return np.concatenate(
        [eye, (eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    )


def signalling_witness(
    ch: Channel, sender: str, receivers: tuple[str, ...] | list[str]
) -> float:
    """Operational cross-check of the Choi condition.

    Feeds every product of informationally complete pure states (``d**2``
    per party, see :func:`_informationally_complete`) through the channel
    in one batched call and returns the largest trace distance between the
    receivers' output marginals for two sender states, the other inputs
    fixed.  By linearity these products span every input operator, so the
    witness is zero within rounding iff the sender cannot signal to the
    receivers.  The batch holds ``prod(d_k**4)`` amplitudes over the party
    input dimensions ``d_k``, which suits the small channels of a test.
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

    states = [_informationally_complete(d) for d in ch.dims_in]
    joint = states[0]
    for s in states[1:]:  # Kronecker products, first party slowest
        joint = (joint[:, None, :, None] * s[None, :, None, :]).reshape(len(joint) * len(s), -1)
    rho = joint[:, :, None] * joint[:, None, :].conj()
    n = ch.n_parties
    out, dims = ch.apply_to_subsystems(rho, ch.dims_in, tuple(range(n)))
    recv = sorted(labels.index(lab) for lab in receivers)
    rest = [k for k in range(n) if k not in recv]
    d_r = int(np.prod([dims[k] for k in recv]))
    d_x = int(np.prod([dims[k] for k in rest]))
    t = permute_subsystems_dims(out, dims, recv + rest).reshape(len(rho), d_r, d_x, d_r, d_x)
    marginals = np.einsum("naxbx->nab", t)
    # axis 0 runs over the sender's states, axis 1 over the other parties' inputs
    s_k = labels.index(sender)
    marginals = np.moveaxis(
        marginals.reshape([len(s) for s in states] + [d_r, d_r]), s_k, 0
    ).reshape(len(states[s_k]), -1, d_r, d_r)
    a, b = np.triu_indices(len(marginals), 1)
    gaps = np.abs(np.linalg.eigvalsh(hermitize(marginals[a] - marginals[b]))).sum(axis=-1) / 2
    return float(gaps.max(initial=0.0))

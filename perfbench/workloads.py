"""Seeded inputs and analytic targets for the three benchmark workloads.

A workload is a *plan*: a fixed list of operations generated from the
workload seed.  An operation is a list of CLI steps; each step holds the
argv handed to ``causalchannels.cli.main`` and the check its output must
pass.  A check returns what the step reported (verdict, CHSH value, solver
status) and raises :class:`Contradiction` when that disagrees with the
analytic target.  The timed loop in ``run.py`` cycles through the plan.

Every random parameter is drawn inside a band that keeps it away from the
verdict boundary it is checked against:

* alpha channel: alpha in [0.02, 0.25], CHSH target 4 - 6 alpha >= 2.5;
* PR mixtures ``v PR + (1 - v)/4`` outside the almost-quantum set:
  v in [0.78, 0.95] (Tsirelson's bound is v = 0.7071);
* PR mixtures inside it but nonlocal: v in [0.56, 0.66];
* LHS-feasible assemblages ``p_v (x) 1/2``: v in [0.30, 0.44] (local up to 1/2);
* LHS-infeasible ones: v in [0.56, 0.70];
* PR-embedded LHV points: v in [0.60, 1.00].
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from causalchannels import constructions
from causalchannels.channels import compile_circuit
from causalchannels.membership import build_moment_skeleton
from causalchannels.sampling import random_local_circuit
from causalchannels.scenarios import (
    Assemblage,
    Correlation,
    DistributedMeasurement,
    Teleportage,
    assemblage_from_channel,
    chsh_value,
    correlations_from_channel,
)
from causalchannels.serialize import parse, serialize

SDP_MAX_ITER = 1000
CHSH_TOL = 1e-6
TSIRELSON = 2.0 * np.sqrt(2.0)
STATUSES = ("feasible", "numerically-infeasible", "inconclusive")
# Seeded rounds per plan, more than a run completes; the timed loop cycles.
GALLERY_ROUNDS = 4
SDP_ROUNDS = 6
LHV_ROUNDS = 16


class Contradiction(Exception):
    """A step's output disagrees with its analytic target."""


@dataclass
class Step:
    """One CLI command of an operation and the check of its output."""

    argv: list[str]
    check: Callable[[str], dict]  # stdout -> reported outcome; may raise Contradiction
    method: str = ""  # lhv | lhs | almost-quantum: a solver verdict for decided_ratio


@dataclass
class Op:
    """One timed operation: a gallery pipeline or a single classify command."""

    kind: str
    params: dict
    steps: list[Step]
    doc: str  # the input document the CLI reads (written by the op or the plan)
    sizes: dict = field(default_factory=dict)


# -- checks -------------------------------------------------------------------

def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Contradiction(f"output does not parse: {exc}") from None


def _chsh_check(value: float, target: float | None, local: bool) -> dict:
    if target is not None and not abs(value - target) <= CHSH_TOL:
        raise Contradiction(f"CHSH = {value!r}, target {target!r}")
    if local and not abs(value) <= 2.0 + CHSH_TOL:
        raise Contradiction(f"CHSH {value!r} of a local object exceeds 2")
    return {"chsh": value}


def check_nothing(_out: str) -> dict:
    return {}


def check_causal(out: str) -> dict:
    payload = _json(out)
    if payload.get("causal") is not True:
        raise Contradiction(f"verdict causal={payload.get('causal')!r}, target True")
    return {"causal": True}


def check_document(path: str, kind: type, chsh=None, target=None, local=False):
    """The step wrote ``path``: it must parse to ``kind``; ``chsh`` maps the
    object to the CHSH value checked against ``target`` or the local bound."""

    def check(_out: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            try:
                obj = parse(fh.read())
            except ValueError as exc:
                raise Contradiction(f"written document does not parse: {exc}") from None
        if not isinstance(obj, kind):
            raise Contradiction(f"expected a {kind.__name__}, got {type(obj).__name__}")
        return {} if chsh is None else _chsh_check(chsh(obj), target, local)

    return check


def check_chsh(target: float | None, local: bool):
    def check(out: str) -> dict:
        return _chsh_check(float(_json(out)["chsh"]), target, local)

    return check


def check_witness(verdict: str, target: float | None, local: bool):
    def check(out: str) -> dict:
        payload = _json(out)
        if payload.get("verdict") != verdict:
            raise Contradiction(f"witness {payload.get('verdict')!r}, target {verdict!r}")
        return _chsh_check(float(payload["chsh"]), target, local)

    return check


def check_membership(inside: bool):
    """Solver verdict for a point inside (or outside) the tested set: inside
    forbids ``numerically-infeasible``, outside forbids ``feasible``, and
    ``inconclusive`` is never a contradiction."""

    def check(out: str) -> dict:
        payload = _json(out)
        status = payload.get("status")
        if status not in STATUSES:
            raise Contradiction(f"unknown status {status!r}")
        if status == ("numerically-infeasible" if inside else "feasible"):
            side = "inside" if inside else "outside"
            raise Contradiction(f"status {status} for a point {side} the set")
        return {
            "status": status,
            "iterations": payload.get("iterations"),
            "residual": payload.get("residual"),
        }

    return check


def _assemblage_chsh(a: Assemblage) -> float:
    return chsh_value(a.to_correlation())


def _binned_chsh(a: Assemblage) -> float:
    """CHSH of the alpha assemblage with Charlie traced and ququarts binned."""
    return chsh_value(a.to_correlation().coarse_grain(lambda k, o: o // 2, 2))


# -- points ---------------------------------------------------------------------

def pr_table(v: float, m: int = 2, d: int = 2) -> np.ndarray:
    """``v PR + (1 - v)/4`` on inputs and outcomes {0, 1}, uniform on outcomes
    {0, 1} for every other input pair: all marginals are uniform, so the
    point is non-signalling, and the CHSH of the embedded block is 4 v."""
    t = np.zeros((d, d, m, m))
    for x in range(m):
        for y in range(m):
            for a in range(2):
                for b in range(2):
                    pr = 0.5 if a ^ b == x & y else 0.0
                    t[a, b, x, y] = v * pr + (1 - v) / 4 if x < 2 and y < 2 else 0.25
    return t


def local_table(rng: np.random.Generator, m: int, d: int, n_strategies: int,
                noise: float) -> np.ndarray:
    """Dirichlet mixture of random deterministic strategies blended with
    white noise: local, hence LHV-feasible, by construction."""
    t = np.zeros((d, d, m, m))
    for w in rng.dirichlet(np.ones(n_strategies)):
        f, g = rng.integers(d, size=m), rng.integers(d, size=m)
        for x in range(m):
            for y in range(m):
                t[f[x], g[y], x, y] += w
    return (1 - noise) * t + noise / d**2


def _choi_dim(circ) -> int:
    return int(np.prod([p.dim_in * p.dim_out for p in circ.to_channel_parties()]))


# -- plans ------------------------------------------------------------------------

class Plan:
    """Writes a workload's documents into ``workdir`` and collects its ops."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list[Op] = []
        self._classes: dict[tuple, int] = {}

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{len(self.ops):03d}-{stem}.json")

    def _write(self, stem: str, obj) -> str:
        path = self._path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(obj) + "\n")
        return path

    def digest(self) -> str:
        """SHA-256 over every op's argv and the bytes of every input document
        the plan wrote, so two runs can show they fed identical inputs."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(json.dumps([op.kind, [s.argv for s in op.steps]]).encode())
            if os.path.exists(op.doc):
                with open(op.doc, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    # -- gallery-pipeline -----------------------------------------------------

    def pipeline(self, kind: str, circ, construct: list[str] | None, form: str,
                 chsh=None, target=None, witness=None, local=False, params=None):
        """construct -> verify-causal -> extract basis + dual -> cheap classify.

        ``construct`` is the CLI argv that writes the channel document; with
        ``None`` the plan writes it.  ``chsh`` maps the extracted object to
        its CHSH value; ``witness`` is the expected ``classify witness``
        verdict, and ``None`` skips the (2,2,2)-only witness and Bell steps.
        """
        trusted = any(p.trusted for p in circ.parties)
        stem = f"{kind}-{form}"
        steps = []
        if construct is None:
            doc = self._write(stem, circ if form == "circuit" else compile_circuit(circ))
        else:
            doc = self._path(stem)
            flag = ["--circuit"] if form == "circuit" else []
            steps.append(Step(construct + flag + ["-o", doc], check_nothing))
        steps.append(Step(["--json", "verify-causal", doc], check_causal))
        basis, dual = self._path(stem + "-basis"), self._path(stem + "-dual")
        if trusted:
            steps += [
                Step(["extract", "assemblage", doc, "-o", basis],
                     check_document(basis, Assemblage, chsh, target, local)),
                Step(["extract", "teleportage", doc, "-o", dual],
                     check_document(dual, Teleportage)),
            ]
        else:
            steps += [
                Step(["extract", "correlations", doc, "-o", basis],
                     check_document(basis, Correlation, chsh, target, local)),
                Step(["extract", "measurement", doc, "-o", dual],
                     check_document(dual, DistributedMeasurement)),
                Step(["--json", "classify", "lhv", basis], check_membership(local), "lhv"),
            ]
        if witness is not None:
            steps += [
                Step(["--json", "classify", "witness", basis],
                     check_witness(witness, target, local)),
                Step(["--json", "bell", "chsh", basis], check_chsh(target, local)),
            ]
        self.ops.append(Op(kind, dict(params or {}, form=form), steps, doc,
                           {"choi_dim": _choi_dim(circ)}))

    # -- classify workloads -----------------------------------------------------

    def classify(self, kind: str, method: str, obj, inside: bool, params=None,
                 doc: str | None = None):
        """One ``classify`` command on ``obj`` (or on an existing ``doc``)."""
        doc = doc or self._write(kind, obj)
        argv = ["--json", "classify", method, doc]
        if method != "lhv":
            argv = ["--max-iter", str(SDP_MAX_ITER)] + argv
        self.ops.append(Op(kind, dict(params or {}), [Step(argv, check_membership(inside),
                                                           method)], doc, self._sizes(method, obj)))
        return doc

    def _sizes(self, method: str, obj) -> dict:
        if isinstance(obj, Correlation):
            n, m, d, d_b = obj.n_parties, obj.n_inputs, obj.n_outputs, 1
        else:
            n, m, d, d_b = obj.n_untrusted, obj.n_inputs, obj.n_outputs, obj.trusted_dim
        strategies = (d**m) ** n
        if method == "lhv":
            return {"strategies": strategies, "lp_rows": d**n * m**n + 1}
        if method == "lhs":
            return {"strategies": strategies}
        key = (n, m, d, d_b)
        if key not in self._classes:
            self._classes[key] = len(build_moment_skeleton(*key).classes)
        return {"moment_dim": (1 + m * d) ** n * d_b, "classes": self._classes[key]}


def gallery_pipeline(plan: Plan, rng: np.random.Generator) -> None:
    """Every gallery channel and three random local circuits (two parties
    with and without a trusted one, and three untrusted parties), each as a
    Choi document and as a circuit document that recompiles on every load.

    Eight of the fourteen pipelines per round take 16-37 ms on a 2-core
    Xeon, so the median falls inside that group rather than in the gap
    above it; the alpha channel's Choi form (~1.4 s) sets the tail.
    """
    for _ in range(GALLERY_ROUNDS):
        alpha = float(rng.uniform(0.02, 0.25))
        local = [
            ("local-2", random_local_circuit(rng, n_untrusted=2), "inconclusive"),
            ("local-1+trusted", random_local_circuit(rng, n_untrusted=1, trusted_dim=2), None),
            ("local-3", random_local_circuit(rng, n_untrusted=3), None),
        ]
        for form in ("choi", "circuit"):
            plan.pipeline("pr-box", constructions.pr_box_channel(),
                          ["construct", "pr-box"], form, chsh_value, 4.0,
                          "not-almost-quantum")
            plan.pipeline("singlet", constructions.singlet_tsirelson_channel(),
                          ["construct", "singlet"], form, chsh_value, TSIRELSON, "not-local")
            plan.pipeline("pq-steering-pr", constructions.pq_steering_pr_channel(),
                          ["construct", "pq-steering-pr"], form, _assemblage_chsh, 4.0,
                          "not-almost-quantum")
            plan.pipeline("pq-steering-alpha", constructions.pq_steering_alpha_channel(alpha),
                          ["construct", "pq-steering-alpha", "--alpha", repr(alpha)], form,
                          _binned_chsh, 4.0 - 6.0 * alpha, params={"alpha": alpha})
            for kind, circ, witness in local:
                trusted = any(p.trusted for p in circ.parties)
                chsh = None if witness is None else (_assemblage_chsh if trusted else chsh_value)
                plan.pipeline(kind, circ, None, form, chsh, None, witness, local=True)


def sdp_classify(plan: Plan, rng: np.random.Generator) -> None:
    """``classify lhs`` and ``classify almost-quantum`` at ``--max-iter 1000``.

    The single (2,3,2) point comes first, so every run solves it once.
    Each round then holds five almost-quantum solves of 1.5-2.8 s and one
    LHS solve, cycling through the three LHS kinds, so the median and the
    tail both fall among the almost-quantum solves even though a run
    completes only ~17 operations.  Interior points never decide within
    the budget, so ``decided_ratio`` stays below 1.
    """
    v = float(rng.uniform(0.78, 0.95))
    plan.classify("aq-outside-232", "almost-quantum", Correlation(pr_table(v, m=3)),
                  inside=False, params={"v": v})
    singlet = correlations_from_channel(compile_circuit(constructions.singlet_tsirelson_channel()))
    steering = assemblage_from_channel(compile_circuit(constructions.pq_steering_pr_channel()))
    steering_doc = None
    half = np.eye(2) / 2
    for r in range(SDP_ROUNDS):
        plan.classify("aq-pr-box", "almost-quantum", Correlation(pr_table(1.0)), inside=False)
        plan.classify("aq-singlet", "almost-quantum", singlet, inside=True)
        v = float(rng.uniform(0.78, 0.95))
        plan.classify("aq-outside", "almost-quantum", Correlation(pr_table(v)),
                      inside=False, params={"v": v})
        steering_doc = plan.classify("aq-pq-steering-pr", "almost-quantum", steering,
                                     inside=False, doc=steering_doc)
        v = float(rng.uniform(0.56, 0.66))
        plan.classify("aq-interior", "almost-quantum", Correlation(pr_table(v)),
                      inside=True, params={"v": v})
        if r % 3 == 0:
            plan.classify("lhs-pq-steering-pr", "lhs", steering, inside=False, doc=steering_doc)
        elif r % 3 == 1:
            v = float(rng.uniform(0.30, 0.44))
            plan.classify("lhs-local", "lhs", Assemblage(pr_table(v)[..., None, None] * half),
                          inside=True, params={"v": v})
        else:
            v = float(rng.uniform(0.56, 0.70))
            plan.classify("lhs-nonlocal", "lhs", Assemblage(pr_table(v)[..., None, None] * half),
                          inside=False, params={"v": v})


# (inputs, outcomes) per party of the bipartite LHV points, in round order
PR_SCENARIOS = ((3, 3), (5, 2))
LOCAL_SCENARIOS = ((2, 4), (4, 2), (4, 2), (3, 3), (5, 2), (5, 2))
LOCAL_STRATEGIES = 30


def lhv_classify(plan: Plan, rng: np.random.Generator) -> None:
    """``classify lhv`` on local points (feasible) in four bipartite
    scenarios and PR-embedded points with v > 1/2 (infeasible) in two.

    Solve times differ by scenario: (2,5,2) ~1.3 s, (2,3,3) ~0.6 s,
    (2,4,2) ~0.08 s, the rest under 0.06 s on a 2-core Xeon.  A round
    holds two (2,5,2) and two (2,4,2) points, so the tail falls among the
    (2,5,2) solves and the median among the (2,4,2) ones, not in the gap
    between two scenarios.  Local points mix many strategies with heavy
    noise, which keeps their solve times closest across seeds.  Sparse
    mixtures (one to three strategies, noise 0.1-0.3) in (2,3,3) and
    (2,5,2) can run the simplex into its 100000-pivot cap, 45-60 s later,
    with a false ``numerically-infeasible``: a known defect this workload
    does not measure.
    """
    for _ in range(LHV_ROUNDS):
        for m, d in PR_SCENARIOS:
            v = float(rng.uniform(0.6, 1.0))
            plan.classify(f"pr-2{m}{d}", "lhv", Correlation(pr_table(v, m, d)),
                          inside=False, params={"v": v})
        for m, d in LOCAL_SCENARIOS:
            noise = float(rng.uniform(0.3, 0.5))
            plan.classify(f"local-2{m}{d}", "lhv",
                          Correlation(local_table(rng, m, d, LOCAL_STRATEGIES, noise)),
                          inside=True, params={"noise": noise})


def warmup_op(plan: Plan) -> Op:
    """Untimed first calls before the loop, the same as set-up's warm-up."""
    doc = os.path.join(plan.workdir, "warmup-pr-box.json")
    steps = [
        Step(["construct", "pr-box", "--circuit", "-o", doc], check_nothing),
        Step(["--json", "verify-causal", doc], check_causal),
    ]
    return Op("warm-up", {}, steps, doc)


BUILDERS = {
    "gallery-pipeline": gallery_pipeline,
    "sdp-classify": sdp_classify,
    "lhv-classify": lhv_classify,
}

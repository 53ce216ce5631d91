"""Outside-in layer trace: spans around the public functions at each layer
boundary, installed by patching module and class attributes from here.

Each span records its name, start, end, parent span, operation id and the
sizes its sizer reads off the arguments or the result.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.  A span's
layer is the part of its name before the first dot; a layer's self time
is its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time

from causalchannels import causality, cli, constructions, membership
from causalchannels.channels import Channel

LAYERS = ("cli", "serialize", "constructions", "channels", "causality", "scenarios", "membership")


def _len_first(args, _out):
    return {"bytes": len(args[0])}


def _len_out(_args, out):
    return {"bytes": len(out)}


def _choi_dim(_args, out):
    return {"choi_dim": int(out.choi.shape[0])}


def _report(_args, out):
    return {"status": out.status, "iterations": int(out.iterations)}


def _strategies(_args, out):
    return {"strategies": int(out.shape[0])}


def _lp_rows(args, _out):
    return {"rows": int(args[0].shape[0])}


def _skeleton(_args, out):
    return {"moment_dim": int(out.flat_dim), "classes": len(out.classes)}


# (owner, attribute, span name, sizer); ``cli.<name>`` entries are the names
# the CLI imported, so only calls made by the CLI are wrapped there.
BOUNDARIES = [
    (cli, "main", "cli.main", None),
    (cli, "serialize", "serialize.encode", _len_out),
    (cli, "parse", "serialize.decode", _len_first),
    (cli, "compile_circuit", "channels.compile", _choi_dim),
    (cli, "is_causal", "causality.is_causal", None),
    (cli, "correlations_from_channel", "scenarios.extract", None),
    (cli, "assemblage_from_channel", "scenarios.extract", None),
    (cli, "distributed_measurement_from_channel", "scenarios.extract", None),
    (cli, "teleportage_from_channel", "scenarios.extract", None),
    (cli, "chsh_value", "scenarios.chsh", None),
    (cli, "lhv_membership", "membership.classify", _report),
    (cli, "lhs_membership", "membership.classify", _report),
    (cli, "almost_quantum_assemblage_membership", "membership.classify", _report),
    (cli, "almost_quantum_correlation_membership", "membership.classify", _report),
    (cli, "tsirelson_witness", "membership.witness", None),
    (constructions, "pr_box_channel", "constructions.build", None),
    (constructions, "singlet_tsirelson_channel", "constructions.build", None),
    (constructions, "pq_steering_pr_channel", "constructions.build", None),
    (constructions, "pq_steering_alpha_channel", "constructions.build", None),
    (Channel, "validate", "channels.validate", None),
    (Channel, "apply", "channels.apply", None),
    (Channel, "dual_apply", "channels.apply", None),
    (Channel, "apply_to_subsystems", "channels.apply", None),
    (causality, "is_semicausal", "causality.is_semicausal", None),
    (membership, "is_nonsignalling_assemblage", "scenarios.nonsignalling", None),
    (membership, "is_nonsignalling_correlation", "scenarios.nonsignalling", None),
    (membership, "strategy_table", "membership.strategy_table", _strategies),
    (membership, "simplex_phase1", "membership.simplex", _lp_rows),
    (membership, "build_moment_skeleton", "membership.skeleton", _skeleton),
    (membership, "alternating_feasibility", "membership.alternating", None),
    (membership, "project_psd_cone", "membership.psd_proj", None),
    (membership.AffineConstraints, "project", "membership.affine_proj", None),
    (membership.MomentAffine, "project_matrix", "membership.affine_proj", None),
]


class Tracer:
    """Collects spans while installed; ``op_id`` tags spans with the operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, sizes]
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, sizer in BOUNDARIES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, sizer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, sizer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sizer is not None:
                rec[5] = sizer(args, out)
            return out

        return traced

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "sizes")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def layer_metrics(self, n_ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced operations, per operation.

        ``*_s`` of a function is its inclusive time; ``<layer>.self_s`` is
        exclusive, so the layers' self times add up to the traced time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]

        total: dict[str, float] = {}  # inclusive seconds per span name, outermost only
        calls: dict[str, int] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        sizes: dict[str, list] = {}
        for k, (name, start, end, parent, _op, size) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += end - start - child_time[k]
            if not self._has_ancestor(k, name):  # count each call tree once
                total[name] = total.get(name, 0.0) + end - start
            if size:
                sizes.setdefault(name, []).append(size)

        per_op = 1.0 / max(n_ops, 1)

        def t(name):
            return total.get(name, 0.0) * per_op

        def c(name):
            return calls.get(name, 0) * per_op

        def biggest(name, key):
            return max((s[key] for s in sizes.get(name, [])), default=0)

        def summed(name, key):
            return sum(s[key] for s in sizes.get(name, []))

        applies_in_extract = sum(
            1 for k, rec in enumerate(spans)
            if rec[0] == "channels.apply" and self._has_ancestor(k, "scenarios.extract")
        )
        statuses = [s["status"] for s in sizes.get("membership.classify", [])]
        out = {f"{layer}.self_s": (self_s[layer] * per_op, "s/op") for layer in LAYERS}
        out.update({
            f"{layer}.self_share": (self_s[layer] / op_seconds if op_seconds else 0.0, "ratio")
            for layer in LAYERS
        })
        out.update({
            "serialize.encode_s": (t("serialize.encode"), "s/op"),
            "serialize.encode_calls": (c("serialize.encode"), "1/op"),
            "serialize.encode_mb": (summed("serialize.encode", "bytes") * 1e-6 * per_op, "MB/op"),
            "serialize.decode_s": (t("serialize.decode"), "s/op"),
            "serialize.decode_calls": (c("serialize.decode"), "1/op"),
            "serialize.decode_mb": (summed("serialize.decode", "bytes") * 1e-6 * per_op, "MB/op"),
            "constructions.build_s": (t("constructions.build"), "s/op"),
            "channels.compile_s": (t("channels.compile"), "s/op"),
            "channels.compile_calls": (c("channels.compile"), "1/op"),
            "channels.choi_dim_max": (biggest("channels.compile", "choi_dim"), "dim"),
            "channels.validate_s": (t("channels.validate"), "s/op"),
            "channels.validate_calls": (c("channels.validate"), "1/op"),
            "channels.apply_s": (t("channels.apply"), "s/op"),
            "channels.apply_calls": (c("channels.apply"), "1/op"),
            "causality.is_causal_s": (t("causality.is_causal"), "s/op"),
            "causality.bipartitions": (c("causality.is_semicausal"), "1/op"),
            "scenarios.extract_s": (t("scenarios.extract"), "s/op"),
            "scenarios.extract_calls": (c("scenarios.extract"), "1/op"),
            "scenarios.applies_per_extract": (
                applies_in_extract / calls["scenarios.extract"]
                if calls.get("scenarios.extract") else 0.0, "1/call"),
            "scenarios.nonsignalling_s": (t("scenarios.nonsignalling"), "s/op"),
            "membership.affine_proj_s": (t("membership.affine_proj"), "s/op"),
            "membership.affine_proj_calls": (c("membership.affine_proj"), "1/op"),
            "membership.psd_proj_s": (t("membership.psd_proj"), "s/op"),
            "membership.psd_proj_calls": (c("membership.psd_proj"), "1/op"),
            "membership.iterations": (summed("membership.classify", "iterations") * per_op, "1/op"),
            "membership.skeleton_s": (t("membership.skeleton"), "s/op"),
            "membership.moment_dim_max": (biggest("membership.skeleton", "moment_dim"), "dim"),
            "membership.classes": (biggest("membership.skeleton", "classes"), "count"),
            "membership.simplex_s": (t("membership.simplex"), "s/op"),
            "membership.strategy_table_s": (t("membership.strategy_table"), "s/op"),
            "membership.strategies": (biggest("membership.strategy_table", "strategies"), "count"),
            "membership.lp_rows": (biggest("membership.simplex", "rows"), "count"),
        })
        for status in ("feasible", "numerically-infeasible", "inconclusive"):
            out[f"membership.status.{status}"] = (statuses.count(status) * per_op, "1/op")
        return out

    def _has_ancestor(self, k: int, name: str) -> bool:
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

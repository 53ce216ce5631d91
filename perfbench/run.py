"""End-to-end benchmark of the causalchannels workbench CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the program from
``./src`` (there is nothing to build) and drives ``causalchannels.cli.main``
in-process as a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs are generated from the seed
(see ``workloads.py``); the CLI sees only the generated documents and
argv.  Every output is checked against its analytic target off the clock.

``--trace 0`` times the loop for ``--seconds`` of operation time and
prints the end-to-end metrics.  ``--trace 1`` runs the same plan untraced
for half the time and then traced for the other half (see ``tracing.py``),
and prints the per-layer metrics with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a detailed record (environment,
plan digest, every operation with its sizes and verdicts) is written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gallery-pipeline", "sdp-classify", "lhv-classify")  # workloads.BUILDERS keys,
# named here because arguments are parsed before numpy may be imported
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # op_s.tail: highest percentile with this many operations beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
KNOWN_ISSUES = [
    "lhv_membership reports iterations=0 on every run: the simplex pivot count is not exposed",
    "lhv_membership's residual is the phase-1 artificial optimum on infeasible runs and "
    "a reconstruction error on feasible ones",
]

# Fresh-interpreter set-up: import the CLI, then make its first calls.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from causalchannels import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["construct", "pr-box", "--circuit", "-o", sys.argv[2]])
    rc = rc or cli.main(["--json", "verify-causal", sys.argv[2]])
print(repr(time.perf_counter() - t0) if rc == 0 else "failed")
"""


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the CPUs this process may run on; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workdir: str) -> list[float]:
    """Import plus first-call warm-up, timed inside fresh interpreters.

    One unrecorded sample first, so bytecode compilation of a fresh
    checkout does not land in the figures.
    """
    doc = os.path.join(workdir, "setup-pr-box.json")
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, doc],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0 or proc.stdout.strip() == "failed":
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        if k:
            samples.append(float(proc.stdout.strip()))
    return samples


class Runner:
    """Executes plan operations through the CLI and checks their outputs."""

    def __init__(self, cli, plan, contradiction):
        self.cli = cli
        self.plan = plan
        self.contradiction = contradiction

    def execute(self, op) -> tuple[float, list, str]:
        """Run every step of ``op``; returns (seconds, [(rc, stdout)], error)."""
        outputs, error = [], ""
        start = time.perf_counter()
        for step in op.steps:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(step.argv)
            except Exception as exc:  # the op fails; the loop goes on
                rc, error = -1, f"{type(exc).__name__}: {exc}"
            outputs.append((rc, out.getvalue()))
            if rc != 0:
                error = error or f"exit {rc}: {err.getvalue().strip()[-300:]}"
                break
        return time.perf_counter() - start, outputs, error

    def check(self, op, outputs, error) -> dict:
        rec = {"kind": op.kind, "params": op.params, "verdicts": [], "outcomes": [],
               "error": error, **op.sizes}
        with contextlib.suppress(OSError):
            rec["doc_bytes"] = os.path.getsize(op.doc)
        if not error:
            try:
                for step, (_rc, out) in zip(op.steps, outputs):
                    outcome = step.check(out)
                    rec["outcomes"].append(outcome)
                    if step.method:
                        rec["verdicts"].append({"method": step.method, **outcome})
            except self.contradiction as exc:
                rec["error"] = f"{' '.join(step.argv[-3:])}: {exc}"
        rec["ok"] = not rec["error"]
        return rec

    def loop(self, budget: float, tracer=None) -> list[dict]:
        """Closed loop over the plan until ``budget`` seconds of operation time."""
        recs, elapsed, i = [], 0.0, 0
        while elapsed < budget:
            op = self.plan.ops[i % len(self.plan.ops)]
            gc.collect()  # each op starts from the same collector state
            if tracer is not None:
                tracer.op_id = i
            seconds, outputs, error = self.execute(op)
            rec = self.check(op, outputs, error)
            rec.update(index=i, start=elapsed, seconds=seconds)
            recs.append(rec)
            elapsed += seconds
            i += 1
        return recs


def ops_per_second(recs: list[dict], budget: float) -> float:
    """Passed operations completed within ``budget`` seconds of operation
    time; the operation straddling the budget counts by the share of it
    that fell inside, so the figure does not jump by whole operations."""
    done = 0.0
    for rec in recs:
        if rec["ok"]:
            inside = min(rec["seconds"], budget - rec["start"])
            done += inside / rec["seconds"] if rec["seconds"] > 0 else 1.0
    return done / budget


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations beyond it; the lowest value when the run has fewer."""
    ordered = sorted(durations)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(recs: list[dict], budget: float, setup: list[float]) -> tuple[dict, dict]:
    durations = [r["seconds"] for r in recs]
    verdicts = [v["status"] for r in recs for v in r["verdicts"]]
    decided = sum(s in ("feasible", "numerically-infeasible") for s in verdicts)
    tail_value, tail_pct = tail(durations)
    failed = sum(not r["ok"] for r in recs)
    metrics = {
        "ops_per_s": (ops_per_second(recs, budget), "op/s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "op_s.tail": (tail_value, "s"),
        "passed_ratio": ((len(recs) - failed) / len(recs), "ratio"),
        "decided_ratio": (decided / len(verdicts) if verdicts else 1.0, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "op_s.tail": {"percentile": tail_pct, "ops": len(durations), "beyond": TAIL_BEYOND},
        "solver_verdicts": {s: verdicts.count(s) for s in sorted(set(verdicts))},
        "setup_samples": setup,
    }
    return metrics, detail


def verdict_key(rec: dict) -> list:
    """What a run must reproduce exactly: every verdict, not float noise."""
    keys = ("status", "iterations", "causal", "witness")
    return [rec["ok"]] + [{k: o[k] for k in keys if k in o} for o in rec["outcomes"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    nproc = cap_threads()
    sys.path.insert(0, SRC)
    try:
        import causalchannels
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(causalchannels.__file__).startswith(SRC + os.sep):
        print(f"causalchannels resolved outside {SRC}: {causalchannels.__file__}", file=sys.stderr)
        return 2
    import numpy as np
    from causalchannels import cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = environment(nproc)
        setup = [] if args.trace else measure_setup(workdir)
        plan = workloads.Plan(workdir)
        workloads.BUILDERS[args.workload](plan, np.random.default_rng(args.seed))
        runner = Runner(cli, plan, workloads.Contradiction)
        warm = runner.execute(workloads.warmup_op(plan))
        if warm[2]:
            raise RuntimeError(f"warm-up failed: {warm[2]}")

        record = {"args": vars(args), "env": env, "plan": {
            "ops": len(plan.ops), "digest": plan.digest()}, "known_issues": KNOWN_ISSUES}
        if args.trace:
            from tracing import Tracer

            budget = args.seconds / 2
            untraced = runner.loop(budget)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.loop(budget, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))
            common = min(len(untraced), len(traced))
            match = all(verdict_key(u) == verdict_key(t)
                        for u, t in zip(untraced[:common], traced[:common]))
            layer = tracer.layer_metrics(len(traced), sum(r["seconds"] for r in traced))
            layer["trace.ops_per_s"] = (ops_per_second(traced, budget), "op/s")
            layer["trace.untraced_ops_per_s"] = (ops_per_second(untraced, budget), "op/s")
            layer["trace.overhead_ratio"] = (
                sum(r["seconds"] for r in traced[:common])
                / sum(r["seconds"] for r in untraced[:common]), "ratio")
            recs, metrics = untraced + traced, layer
            record["trace"] = {"verdicts_match": match, "compared_ops": common,
                               "untraced_ops": len(untraced), "traced_ops": len(traced),
                               "spans": len(tracer.spans)}
        else:
            recs = runner.loop(args.seconds)
            metrics, detail = end_to_end(recs, args.seconds, setup)
            match = True
            record["detail"] = detail
        failed = sum(not r["ok"] for r in recs)
        named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["metrics"] = named
        record["ops"] = recs
        with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {tag}: {len(recs)} ops over a plan of {len(plan.ops)} "
          f"(digest {record['plan']['digest'][:16]}), {failed} failed")
    print("# env: " + json.dumps(env))
    for rec in recs:
        if not rec["ok"]:
            print(f"# FAILED op {rec['index']} {rec['kind']}: {rec['error']}")
    if not match:
        print("# FAILED traced and untraced verdicts differ")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "detail" in record:
        print(f"# op_s.tail is percentile {record['detail']['op_s.tail']['percentile']:.1f} "
              f"of {len(recs)} operations")
    print(json.dumps({"correct": failed == 0 and match, "attempted": len(recs),
                      "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

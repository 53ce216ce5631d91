"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that

1. every workload runs at a tiny size, untraced and traced, prints exactly
   the metrics ``BENCHMARK.json`` names and reports ``correct``;
2. traced and untraced runs give identical verdicts;
3. the oracle flags a deliberately wrong expected verdict or value;
4. without the program's sources the benchmark exits nonzero and prints no
   result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"  # per run; every workload still completes at least one operation


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def check_tiny_runs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {proc.stdout[-500:]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected))}")
            if trace:
                record_path = os.path.join(ROOT, ".perfbench", f"{workload}-seed7-trace1.json")
                with open(record_path, encoding="utf-8") as fh:
                    info = json.load(fh)["trace"]
                if not info["verdicts_match"] or info["compared_ops"] < 1:
                    problems.append(f"{label}: traced and untraced verdicts differ: {info}")
            print(f"ok  {label}: {result['attempted']} ops")
    return problems


def check_oracle() -> list[str]:
    """Swap a wrong expectation into real operations: each must be flagged."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    from causalchannels import cli
    from causalchannels.channels import Party, channel_from_unitary
    from causalchannels.serialize import serialize

    import workloads
    from run import Runner

    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as workdir:
        plan = workloads.Plan(workdir)
        workloads.gallery_pipeline(plan, np.random.default_rng(7))
        runner = Runner(cli, plan, workloads.Contradiction)
        pr_box = plan.ops[0]
        if runner.check(pr_box, *_run(runner, pr_box))["error"]:
            problems.append("the unmodified PR-box pipeline is flagged")

        swap = np.eye(4)[[0, 2, 1, 3]]
        signalling = channel_from_unitary(swap, [Party("A", 2, 2), Party("B", 2, 2)])
        doc = os.path.join(workdir, "swap.json")
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(serialize(signalling))
        wrong = {
            "lhv verdict: PR box expected local": _replace(
                pr_box, "lhv", workloads.check_membership(inside=True)),
            "CHSH value: PR box expected 3.99": _replace(
                pr_box, "chsh", workloads.check_chsh(3.99, local=False)),
            "witness verdict: PR box expected inconclusive": _replace(
                pr_box, "witness", workloads.check_witness("inconclusive", None, False)),
            "causality verdict: swap channel expected causal": workloads.Op(
                "swap", {}, [workloads.Step(["--json", "verify-causal", doc],
                                            workloads.check_causal)], doc),
        }
        for label, op in wrong.items():
            rec = runner.check(op, *_run(runner, op))
            if rec["ok"]:
                problems.append(f"oracle missed a wrong {label}")
            else:
                print(f"ok  oracle flags a wrong {label}: {rec['error']}")
    return problems


def _run(runner, op):
    _seconds, outputs, error = runner.execute(op)
    return outputs, error


def _replace(op, word: str, check):
    """Copy of ``op`` whose step naming ``word`` expects something wrong."""
    steps = [replace(s, check=check) if word in s.argv else s for s in op.steps]
    return replace(op, steps=steps)


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "lhv-classify", 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"ok  bare directory: exit {proc.returncode} and no result")
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare_directory() + check_oracle() + check_tiny_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

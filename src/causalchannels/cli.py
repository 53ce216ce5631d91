"""Command-line workbench.

Commands: ``construct``, ``verify-causal``, ``extract``, ``classify``,
``bell``, ``demo``.  Every printed number is reproducible from library calls
alone; the CLI adds no computation.  Exit codes: 0 success, 2 validation
failure, 1 internal error, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import constructions
from .causality import is_causal
from .channels import Channel, CircuitChannel, compile_circuit
from .membership import (
    FEASIBILITY_TOL,
    MAX_ITERATIONS,
    almost_quantum_assemblage_membership,
    almost_quantum_correlation_membership,
    lhs_membership,
    lhv_membership,
    tsirelson_witness,
)
from .scenarios import (
    Assemblage,
    Correlation,
    assemblage_from_channel,
    chsh_value,
    correlations_from_channel,
    distributed_measurement_from_channel,
    is_nonsignalling_assemblage,
    teleportage_from_channel,
)
from .serialize import (
    DocumentError,
    canonical_json,
    causality_report_payload,
    feasibility_report_payload,
    parse,
    serialize,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64

CONSTRUCTION_NAMES = ("pr-box", "singlet", "pq-steering-pr", "pq-steering-alpha")
DEMO_NAMES = (
    "pr-box",
    "singlet",
    "pq-steering-pr",
    "pq-steering-alpha",
    "ghjw",
    "buscemi-bell",
    "teleportation",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 64
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="causalchannels", description=__doc__)
    parser.add_argument("--tol", type=float, default=None, help="override tolerance")
    parser.add_argument(
        "--max-iter", type=int, default=MAX_ITERATIONS, help="solver iteration cap"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("construct", help="build a gallery channel")
    p.add_argument("name", choices=CONSTRUCTION_NAMES)
    p.add_argument("--alpha", type=float, default=1.0 / 6.0)
    p.add_argument("--circuit", action="store_true", help="emit the circuit form")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify-causal", help="causality report for a channel document")
    p.add_argument("file")

    p = sub.add_parser("extract", help="extract an object from a channel document")
    p.add_argument(
        "what", choices=("correlations", "assemblage", "measurement", "teleportage")
    )
    p.add_argument("file")
    p.add_argument(
        "--trusted-input", type=int, default=0, help="basis state fed to the trusted input"
    )
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("classify", help="membership classification")
    p.add_argument("method", choices=("lhv", "lhs", "almost-quantum", "witness"))
    p.add_argument("file")

    p = sub.add_parser("bell", help="Bell functionals")
    p.add_argument("functional", choices=("chsh",))
    p.add_argument("file")

    p = sub.add_parser("demo", help="reproduce a worked example")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--alpha", type=float, default=1.0 / 6.0)
    return parser


def _write(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_channel(path: str) -> Channel:
    with open(path, encoding="utf-8") as fh:
        obj = parse(fh.read())
    if isinstance(obj, CircuitChannel):
        return compile_circuit(obj)
    if isinstance(obj, Channel):
        return obj
    raise DocumentError("$", "expected a channel or circuit document")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _emit_report(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


# -- commands -------------------------------------------------------------------

def _cmd_construct(args) -> int:
    if args.name == "pr-box":
        circ = constructions.pr_box_channel()
    elif args.name == "singlet":
        circ = constructions.singlet_tsirelson_channel()
    elif args.name == "pq-steering-pr":
        circ = constructions.pq_steering_pr_channel()
    else:
        circ = constructions.pq_steering_alpha_channel(args.alpha)
    obj = circ if args.circuit else compile_circuit(circ)
    _write(serialize(obj), args.output)
    return EXIT_OK


def _cmd_verify_causal(args, tol: float, as_json: bool) -> int:
    ch = _load_channel(args.file)
    rep = is_causal(ch, tol)
    payload = causality_report_payload(rep)
    verdict = "causal" if rep.causal else "not-causal"
    _emit_report(
        payload,
        as_json,
        [f"verdict: {verdict}", f"max residual: {rep.max_residual:.3e}"]
        + [
            f"  {','.join(c.sender)} -> {','.join(c.receiver)}: "
            f"{'ok' if c.semicausal else 'SIGNALS'} (residual {c.residual:.3e})"
            for c in rep.checks
        ],
    )
    return EXIT_OK


def _trusted_input_state(ch: Channel, index: int) -> np.ndarray:
    trusted = ch.trusted_party
    if trusted is None:
        raise DocumentError("$", "channel has no trusted party")
    if not 0 <= index < trusted.dim_in:
        raise DocumentError(
            "$", f"--trusted-input {index} out of range for dimension {trusted.dim_in}"
        )
    vec = np.zeros(trusted.dim_in, dtype=complex)
    vec[index] = 1.0
    return vec


def _cmd_extract(args) -> int:
    ch = _load_channel(args.file)
    if args.what == "correlations":
        obj = correlations_from_channel(ch)
    elif args.what == "assemblage":
        obj = assemblage_from_channel(
            ch, trusted_input=_trusted_input_state(ch, args.trusted_input)
        )
    elif args.what == "measurement":
        obj = distributed_measurement_from_channel(ch)
    else:
        obj = teleportage_from_channel(
            ch, trusted_input=_trusted_input_state(ch, args.trusted_input)
        )
    _write(serialize(obj), args.output)
    return EXIT_OK


def _cmd_classify(args, tol: float, max_iter: int, as_json: bool) -> int:
    obj = _load(args.file)
    if args.method == "lhv":
        if not isinstance(obj, Correlation):
            raise DocumentError("$", "lhv classification needs a correlation document")
        rep = lhv_membership(obj)
    elif args.method == "lhs":
        if not isinstance(obj, Assemblage):
            raise DocumentError("$", "lhs classification needs an assemblage document")
        rep = lhs_membership(obj, tol=tol, max_iter=max_iter)
    elif args.method == "almost-quantum":
        if isinstance(obj, Assemblage):
            rep = almost_quantum_assemblage_membership(obj, tol=tol, max_iter=max_iter)
        elif isinstance(obj, Correlation):
            rep = almost_quantum_correlation_membership(obj, tol=tol, max_iter=max_iter)
        else:
            raise DocumentError("$", "almost-quantum needs a correlation or assemblage")
    else:  # witness
        if isinstance(obj, Assemblage):
            obj = obj.to_correlation()
        if not isinstance(obj, Correlation):
            raise DocumentError("$", "witness needs a correlation or assemblage document")
        value, verdict = tsirelson_witness(obj)
        payload = {"chsh": value, "verdict": verdict}
        _emit_report(payload, as_json, [f"CHSH = {value:.9f}", f"verdict: {verdict}"])
        return EXIT_OK
    payload = feasibility_report_payload(rep)
    _emit_report(
        payload,
        as_json,
        [
            f"status: {rep.status}",
            f"residual: {rep.residual:.3e}",
            f"iterations: {rep.iterations}",
        ],
    )
    return EXIT_OK


def _cmd_bell(args, as_json: bool) -> int:
    obj = _load(args.file)
    if isinstance(obj, Assemblage):
        obj = obj.to_correlation()
    if not isinstance(obj, Correlation):
        raise DocumentError("$", "bell functionals need a correlation document")
    value = chsh_value(obj)
    _emit_report({"chsh": value}, as_json, [f"CHSH = {value:.9f}"])
    return EXIT_OK


# -- demos ------------------------------------------------------------------------

def _demo_lines(name: str, alpha: float) -> tuple[list[str], dict]:
    rt2 = 2.0 * np.sqrt(2.0)
    if name == "pr-box":
        ch = compile_circuit(constructions.pr_box_channel())
        c = correlations_from_channel(ch)
        rep = is_causal(ch)
        value = chsh_value(c)
        table_err = float(np.max(np.abs(c.table - _pr_table())))
        return (
            [
                f"PR table max deviation from delta(a+b=xy)/2: {table_err:.3e} (target 0)",
                f"CHSH = {value:.9f} (target 4)",
                f"causal: {rep.causal} (target True), residual {rep.max_residual:.3e}",
            ],
            {"chsh": value, "table_error": table_err, "causal": rep.causal},
        )
    if name == "singlet":
        ch = compile_circuit(constructions.singlet_tsirelson_channel())
        value = chsh_value(correlations_from_channel(ch))
        return (
            [f"CHSH = {value:.9f} (target 2*sqrt(2) = {rt2:.9f})"],
            {"chsh": value, "target": rt2},
        )
    if name == "pq-steering-pr":
        ch = compile_circuit(constructions.pq_steering_pr_channel())
        a = assemblage_from_channel(ch)
        target = _pr_table()[..., None, None] * np.eye(2) / 2
        dev = float(np.max(np.abs(a.elements - target)))
        ns_ok, ns_res = is_nonsignalling_assemblage(a)
        value, verdict = tsirelson_witness(a.to_correlation())
        lhs = lhs_membership(a)
        return (
            [
                f"assemblage deviation from p_PR * 1/2: {dev:.3e} (target 0)",
                f"non-signalling: {ns_ok} (target True), residual {ns_res:.3e}",
                f"LHS feasibility: {lhs.status} (target numerically-infeasible)",
                f"CHSH witness = {value:.9f}: {verdict} (target not-almost-quantum)",
            ],
            {
                "deviation": dev,
                "nonsignalling": ns_ok,
                "lhs_status": lhs.status,
                "chsh": value,
                "witness": verdict,
            },
        )
    if name == "pq-steering-alpha":
        ch = compile_circuit(constructions.pq_steering_alpha_channel(alpha))
        a = assemblage_from_channel(ch)
        binary = a.to_correlation().coarse_grain(lambda k, o: o // 2, 2)
        value = chsh_value(binary)
        rep = is_causal(ch)
        target = 4.0 - 6.0 * alpha
        return (
            [
                f"alpha = {alpha:.7f}",
                f"CHSH (Charlie traced) = {value:.9f} (target {target:.9f}; 3 at alpha=1/6)",
                f"causal: {rep.causal} (target True), residual {rep.max_residual:.3e}",
            ],
            {"alpha": alpha, "chsh": value, "causal": rep.causal},
        )
    if name == "ghjw":
        from .sampling import random_quantum_assemblage

        rng = np.random.default_rng(20250117)
        worst = 0.0
        for d_b in (2, 3):
            assm = random_quantum_assemblage(rng, m=2, d=2, d_b=d_b)
            _, _, res = constructions.ghjw_realize_assemblage(assm)
            worst = max(worst, res)
        return (
            [
                "random bipartite non-signalling assemblages admit quantum models",
                f"worst reconstruction residual: {worst:.3e} (target < 1e-8)",
            ],
            {"residual": worst},
        )
    if name == "buscemi-bell":
        pr = Correlation(_pr_table())
        ch = constructions.canonical_channel_from_correlations(pr)
        dm = distributed_measurement_from_channel(ch)
        dev = 0.0
        for a in range(2):
            for b in range(2):
                target = np.zeros((4, 4), dtype=complex)
                for x in range(2):
                    for y in range(2):
                        target[2 * x + y, 2 * x + y] = pr.prob((a, b), (x, y))
                dev = max(dev, float(np.max(np.abs(dm.element((a, b)) - target))))
        return (
            [
                "distributed measurement of the canonical PR channel is the",
                f"diagonal POVM sum_x p(a|x)|x><x|; deviation {dev:.3e} (target 0)",
            ],
            {"deviation": dev},
        )
    if name == "teleportation":
        from .sampling import random_nonsignalling_teleportage

        rng = np.random.default_rng(20250117)
        t = random_nonsignalling_teleportage(rng, d_k=2, d=4, d_b=2)
        _, _, res = constructions.ghjw_realize_teleportage(t)
        return (
            [
                "random bipartite non-signalling teleportage admits a quantum model",
                f"reconstruction residual: {res:.3e} (target < 1e-8)",
            ],
            {"residual": res},
        )
    raise UsageError(f"unknown demo {name!r}")


def _pr_table() -> np.ndarray:
    pr = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                pr[a, a ^ (x & y), x, y] = 0.5
    return pr


def _cmd_demo(args, as_json: bool) -> int:
    lines, payload = _demo_lines(args.name, args.alpha)
    if as_json:
        print(canonical_json({"demo": args.name, **payload}))
    else:
        print(f"demo: {args.name}")
        for line in lines:
            print(f"  {line}")
    return EXIT_OK


def _tolerance(flag: float | None) -> float:
    """``--tol``, else ``WORKBENCH_TOL``, else the library default; must be > 0."""
    env = os.environ.get("WORKBENCH_TOL")
    try:
        tol = flag if flag is not None else float(env) if env else FEASIBILITY_TOL
    except ValueError:
        raise UsageError(f"WORKBENCH_TOL={env!r} is not a number") from None
    if not tol > 0:  # also rejects nan
        raise UsageError(f"tolerance must be positive, got {tol}")
    return tol


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        tol = _tolerance(args.tol)
        if args.max_iter < 1:
            raise UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify-causal":
            return _cmd_verify_causal(args, tol, args.json)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "classify":
            return _cmd_classify(args, tol, args.max_iter, args.json)
        if args.command == "bell":
            return _cmd_bell(args, args.json)
        if args.command == "demo":
            return _cmd_demo(args, args.json)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DocumentError, ValueError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

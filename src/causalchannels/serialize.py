"""JSON document formats for every workbench object.

Every document is ``{"kind": ..., "version": "1", "payload": ...}``; complex
numbers are stored as ``[re, im]`` pairs and matrices row-major.  ``_KINDS``
maps each kind to its exact type, payload writer and reader (reports, kind
``report``, are only written); each reader validates through :func:`_checked`,
and no JSON object may repeat a key.  Canonical serialization emits table
keys in ``(x_vec, a_vec)`` lexicographic order (indices zero-padded), so
repeated serializations are byte-identical, and parsing accepts a table only
if it holds exactly those keys (generated lazily, so a declared size never
costs more than the document).  The text is exactly what
``json.dumps(doc, indent=2)`` writes; payload builders keep matrices as
complex arrays and :func:`canonical_json` formats each one in bulk.  Decoding
converts a matrix with one ``np.array`` call and walks its entries only to
name the first malformed one.

A channel's ``choi`` has two spellings of the one field, chosen by a fixed
rule: sparse, ``{"shape": [r, c], "entries": [[i, j, re, im], ...]}`` in
row-major order, when fewer than a quarter of the entries are stored (an
entry is stored unless both parts are bitwise ``+0.0``, so ``-0.0``
survives), else the dense matrix.  The reader tells them apart by JSON type,
checks the sparse shape against the parties before allocating, and reads
the entries one by one, requiring integer in-range indices in strictly
increasing order.  Channel and circuit documents whose Choi matrix would
exceed ``channels.CHOI_DIM_CAP`` are rejected (by ``channels.check_choi_dim``
and ``channels.check_compile_size``) before anything of that size exists.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain, product
from json.encoder import encode_basestring_ascii

import numpy as np

from .causality import CausalityReport
from .channels import (
    Channel,
    CircuitChannel,
    CircuitGate,
    CircuitParty,
    Party,
    check_choi_dim,
    check_compile_size,
)
from .linalg import ROLES, SystemLayout, Subsystem
from .membership import FeasibilityReport
from .scenarios import Assemblage, Correlation, DistributedMeasurement, Teleportage

VERSION = "1"
DOCUMENT_TOL = 1e-7  # validation tolerance of a parsed object


class DocumentError(ValueError):
    """Schema or invariant violation, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- canonical JSON writer ------------------------------------------------------

def _scalar_text(value) -> str:
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # NaN, Infinity, strings, null, booleans, integers


def _write_array(a: np.ndarray, level: int, out: list[str]) -> None:
    """Array ``a`` as nested lists opened at ``level``; complex entries are
    ``[re, im]`` pairs, real entries plain numbers, object entries their
    Python scalars.

    Every number is formatted in one pass, and the text between two numbers
    depends only on how many lists close there, so the separators are laid
    out by list repetition instead of a walk over the entries.
    """
    parts = np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a) else a
    if parts.size == 0:
        _write(parts.tolist(), level, out)
        return
    numbers = parts.ravel().tolist()
    fmt = float.__repr__ if parts.dtype.kind == "f" and np.isfinite(parts).all() else _scalar_text
    depth = level + parts.ndim  # nesting level of the numbers
    pad = ["\n" + "  " * k for k in range(depth + 1)]
    # the separator after a number that ends ``c`` lists closes and reopens them
    between = [
        "".join(pad[depth - 1 - q] + "]" for q in range(c))
        + ","
        + "".join(pad[depth - c + q] + "[" for q in range(c))
        + pad[depth]
        for c in range(parts.ndim)
    ]
    seps = [between[0]] * (parts.shape[-1] - 1)
    for closes, n in enumerate(reversed(parts.shape[:-1]), start=1):
        seps = (seps + [between[closes]]) * n
        seps.pop()
    text = [""] * (2 * len(numbers) - 1)
    text[::2] = map(fmt, numbers)
    text[1::2] = seps
    out.append("[" + "".join(pad[k] + "[" for k in range(level + 1, depth)) + pad[depth])
    out += text
    out.append("".join(pad[k] + "]" for k in range(depth - 1, level - 1, -1)))


def _write(value, level: int, out: list[str]) -> None:
    if isinstance(value, np.ndarray):
        _write_array(value, level, out)
        return
    if isinstance(value, dict):
        opening, closing = "{", "}"
        entries = [(encode_basestring_ascii(key) + ": ", item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        opening, closing = "[", "]"
        entries = [("", item) for item in value]
    else:
        out.append(_scalar_text(value))
        return
    if not entries:
        out.append(opening + closing)
        return
    pad = "\n" + "  " * (level + 1)
    sep = opening + pad
    for prefix, item in entries:
        out.append(sep + prefix)
        _write(item, level + 1, out)
        sep = "," + pad
    out.append("\n" + "  " * level + closing)


def canonical_json(value) -> str:
    """The bytes ``json.dumps(value, indent=2)`` writes, with arrays.

    ``value`` is JSON data (dicts with string keys, lists, scalars) whose
    leaves may be ``ndarray``: a complex array is written as nested lists
    of ``[re, im]`` pairs (a matrix row-major), a real one as nested lists
    of numbers and an object array as nested lists of its Python scalars,
    each formatted in bulk.
    """
    out: list[str] = []
    _write(value, 0, out)
    return "".join(out)


def _matrix(m) -> np.ndarray:
    return np.atleast_2d(np.asarray(m, dtype=complex))


def _vector(v) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(-1)


# -- matrix decoding --------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _bulk_pairs(value, ndim: int) -> np.ndarray | None:
    """``ndim`` levels of regular lists of ``[re, im]`` number pairs, else ``None``.

    One ``np.array`` conversion plus a shape and dtype check; booleans,
    which numpy would silently read as 0 and 1, are found by one pass over
    the element types.
    """
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return None
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or arr.dtype.kind not in "iuf":
        return None
    numbers = value
    for _ in range(ndim):
        numbers = chain.from_iterable(numbers)
    if bool in set(map(type, numbers)):
        return None
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _decode_complex(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise DocumentError(path, "complex entries must be [re, im] number pairs")
    try:
        return complex(value[0], value[1])
    except OverflowError:  # an integer literal beyond float range
        raise DocumentError(path, "number out of float range") from None


def _decode_matrix(value, path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    out = _bulk_pairs(value, 2)
    if out is None:  # malformed or degenerate: walk it for the exact error
        if not isinstance(value, list) or not value or not isinstance(value[0], list):
            raise DocumentError(path, "expected a row-major matrix (list of rows)")
        rows = len(value)
        cols = len(value[0])
        out = np.zeros((rows, cols), dtype=complex)
        for i, row in enumerate(value):
            if len(row) != cols:
                raise DocumentError(f"{path}[{i}]", "ragged matrix rows")
            for j, entry in enumerate(row):
                out[i, j] = _decode_complex(entry, f"{path}[{i}][{j}]")
    if shape is not None and out.shape != shape:
        raise DocumentError(path, f"matrix shape {out.shape} != expected {shape}")
    return out


def _decode_vector(value, path: str) -> np.ndarray:
    out = _bulk_pairs(value, 1)
    if out is not None:
        return out
    if not isinstance(value, list):
        raise DocumentError(path, "expected a list of [re, im] pairs")
    return np.array([_decode_complex(v, f"{path}[{k}]") for k, v in enumerate(value)])


def _table_key(a_vec: tuple[int, ...], x_vec: tuple[int, ...] | None) -> str:
    def code(vec: tuple[int, ...]) -> str:
        return ",".join(f"{v:03d}" for v in vec)

    return "a=" + code(a_vec) if x_vec is None else f"x={code(x_vec)}|a={code(a_vec)}"


def _table_keys(n: int, d: int, m: int | None = None):
    """The canonical ``(key, array index)`` pairs of an ``n``-party table, in
    order, generated lazily.

    Keys run ``"x=..|a=.."`` over ``(x_vec, a_vec)`` lexicographically, or
    ``"a=.."`` over ``a_vec`` without inputs (``m`` is ``None``), indices
    zero-padded to three digits; the index is ``a_vec + x_vec``, the axis
    order of the stored arrays.
    """
    for x_vec in [None] if m is None else product(range(m), repeat=n):
        for a_vec in product(range(d), repeat=n):
            yield _table_key(a_vec, x_vec), a_vec + (x_vec or ())


def _is_table_key(key: str, n: int, d: int, m: int | None = None) -> bool:
    """Whether ``key`` is one of ``_table_keys(n, d, m)``: it is read back
    and must be in range and re-encode to itself."""
    try:
        vecs = [tuple(map(int, f.split("=", 1)[1].split(","))) for f in key.split("|")]
    except (IndexError, ValueError):
        return False
    bounds = [d] if m is None else [m, d]
    return (
        [len(vec) for vec in vecs] == [n] * len(bounds)
        and all(0 <= v < bound for vec, bound in zip(vecs, bounds) for v in vec)
        and _table_key(vecs[-1], None if m is None else vecs[0]) == key
    )


def _read_table(payload, name: str, path: str, n: int, d: int, m: int | None, block: int = 0):
    """The array held by the table ``payload[name]`` of an ``n``-party table.

    The table must hold exactly the canonical keys of ``_table_keys(n, d, m)``.
    Each value is written at its key's index: a probability, or a ``block`` x
    ``block`` matrix when ``block`` is given.  Canonical keys are generated
    only while the table holds them and the array is allocated last, so the
    work grows with the document, not with the table size it declares.
    """
    table = _field(payload, name, dict, path)
    index, missing = {}, None
    for key, i in _table_keys(n, d, m):
        if key not in table:
            missing = key
            break
        index[key] = i
    if missing is not None or len(index) < len(table):
        unexpected = next((key for key in table if not _is_table_key(key, n, d, m)), None)
        if unexpected is not None:
            raise DocumentError(f"{path}.{name}", f"unexpected key {unexpected!r}")
        raise DocumentError(f"{path}.{name}", f"missing key {missing!r}")
    entry = (block, block) if block else ()
    decode = partial(_decode_matrix, shape=entry) if block else _probability
    values = [decode(value, f"{path}.{name}[{key!r}]") for key, value in table.items()]
    out = np.zeros((d,) * n + (() if m is None else (m,) * n) + entry, complex if block else float)
    for key, value in zip(table, values):
        out[index[key]] = value
    return out


def _probability(value, path: str) -> float:
    if not _is_number(value):
        raise DocumentError(path, "probability must be a number")
    try:
        return float(value)
    except OverflowError:
        raise DocumentError(path, "number out of float range") from None


def _checked(path: str, tol: float, build):
    """The object ``build()`` returns, validated at ``tol``; a ``ValueError``
    from either step is reported at ``path``."""
    try:
        obj = build()
        obj.validate(tol)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None
    return obj


def _within_cap(path: str, check, *args) -> None:
    """Run the size ``check``; a ``ValueError`` is reported at ``path``."""
    try:
        check(*args)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


# -- per-kind payloads ----------------------------------------------------------

def _choi_field(choi: np.ndarray):
    """The ``choi`` field: sparse when fewer than a quarter of the entries
    are stored, else dense.  An entry is stored unless both of its parts
    are bitwise ``+0.0``, so ``-0.0`` survives."""
    choi = np.ascontiguousarray(choi, dtype=complex)
    rows, cols = choi.shape
    bits = choi.view(np.uint64)  # columns alternate real and imaginary parts
    i, j = np.nonzero(bits[:, 0::2] | bits[:, 1::2])  # row-major order
    if 4 * i.size >= rows * cols:
        return choi
    values = choi[i, j]
    entries = np.empty((i.size, 4), dtype=object)  # Python ints and floats
    entries[:, 0], entries[:, 1] = i.tolist(), j.tolist()
    entries[:, 2], entries[:, 3] = values.real.tolist(), values.imag.tolist()
    return {"shape": [rows, cols], "entries": entries}


def _channel_payload(ch: Channel) -> dict:
    return {
        "parties": [
            {
                "label": p.label,
                "dim_in": p.dim_in,
                "dim_out": p.dim_out,
                "trusted": p.trusted,
            }
            for p in ch.parties
        ],
        "choi": _choi_field(ch.choi),
    }


def _read_entries(entries: list, d: int, path: str) -> tuple[list[int], list[complex]]:
    """The flat indices and values of the sparse ``entries`` of a ``d`` x
    ``d`` matrix; the first malformed entry is reported at its path."""
    flat, values = [], []
    for k, entry in enumerate(entries):
        sub = f"{path}[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise DocumentError(sub, "sparse entries must be [i, j, re, im]")
        i, j, re, im = entry
        if type(i) is not int or type(j) is not int:
            raise DocumentError(sub, "indices must be integers")
        if not (0 <= i < d and 0 <= j < d):
            raise DocumentError(sub, f"index ({i}, {j}) out of range for shape [{d}, {d}]")
        if flat and i * d + j <= flat[-1]:
            raise DocumentError(sub, "entries must be in strictly increasing row-major order")
        if not (_is_number(re) and _is_number(im)):
            raise DocumentError(sub, "complex parts must be numbers")
        try:
            values.append(complex(re, im))
        except OverflowError:  # an integer literal beyond float range
            raise DocumentError(sub, "number out of float range") from None
        flat.append(i * d + j)
    return flat, values


def _decode_sparse(value: dict, path: str, d: int) -> np.ndarray:
    """The ``d`` x ``d`` matrix of a sparse ``{"shape", "entries"}`` object;
    the shape is checked before anything is allocated."""
    shape = _field(value, "shape", list, path)
    if [type(n) for n in shape] != [int, int] or shape != [d, d]:
        raise DocumentError(f"{path}.shape", f"expected [{d}, {d}]")
    entries = _field(value, "entries", list, path)
    flat, values = _read_entries(entries, d, f"{path}.entries")
    out = np.zeros(d * d, dtype=complex)
    out[flat] = values
    out.flags.writeable = False  # so the channel keeps it without a copy
    return out.reshape(d, d)


def _channel_from_payload(payload: dict, path: str) -> Channel:
    parties = []
    for k, spec in enumerate(_field(payload, "parties", list, path)):
        sub = f"{path}.parties[{k}]"
        parties.append(
            Party(
                _field(spec, "label", str, sub),
                _count(spec, "dim_in", sub),
                _count(spec, "dim_out", sub),
                _trusted(spec, sub),
            )
        )
    d = math.prod(p.dim_in * p.dim_out for p in parties)
    _within_cap(f"{path}.parties", check_choi_dim, d)
    choi = _field(payload, "choi", object, path)
    if isinstance(choi, dict):
        choi = _decode_sparse(choi, f"{path}.choi", d)
    else:
        choi = _decode_matrix(_field(payload, "choi", list, path), f"{path}.choi")
    return _checked(f"{path}.choi", DOCUMENT_TOL, lambda: Channel(tuple(parties), choi))


def _circuit_payload(circ: CircuitChannel) -> dict:
    prep = np.asarray(circ.ancilla_prep)
    return {
        "registers": [
            {"label": s.label, "dim": s.dim, "role": s.role}
            for s in circ.registers.subsystems
        ],
        "parties": [
            {
                "label": p.label,
                "input_register": p.input_register,
                "output_registers": list(p.output_registers),
                "trusted": p.trusted,
            }
            for p in circ.parties
        ],
        "ancilla_prep": (
            {"form": "vector", "entries": _vector(prep)}
            if prep.ndim == 1
            else {"form": "matrix", "entries": _matrix(prep)}
        ),
        "gates": [
            {"unitary": _matrix(g.unitary), "acts_on": list(g.acts_on)}
            for g in circ.gates
        ],
    }


def _circuit_from_payload(payload: dict, path: str) -> CircuitChannel:
    subs = []
    for k, spec in enumerate(_field(payload, "registers", list, path)):
        sub = f"{path}.registers[{k}]"
        subs.append(
            Subsystem(
                _field(spec, "label", str, sub),
                _count(spec, "dim", sub),
                _role(spec, sub),
            )
        )
    parties = []
    for k, spec in enumerate(_field(payload, "parties", list, path)):
        sub = f"{path}.parties[{k}]"
        parties.append(
            CircuitParty(
                _field(spec, "label", str, sub),
                _field(spec, "input_register", str, sub),
                _labels(spec, "output_registers", sub),
                _trusted(spec, sub),
            )
        )
    prep_spec = _field(payload, "ancilla_prep", dict, path)
    form = _field(prep_spec, "form", str, f"{path}.ancilla_prep")
    entries = _field(prep_spec, "entries", object, f"{path}.ancilla_prep")
    if form == "vector":
        prep = _decode_vector(entries, f"{path}.ancilla_prep.entries")
    elif form == "matrix":
        prep = _decode_matrix(entries, f"{path}.ancilla_prep.entries")
    else:
        raise DocumentError(f"{path}.ancilla_prep.form", f"unknown form {form!r}")
    gates = []
    for k, spec in enumerate(_field(payload, "gates", list, path)):
        sub = f"{path}.gates[{k}]"
        gates.append(
            CircuitGate(
                _decode_matrix(_field(spec, "unitary", list, sub), f"{sub}.unitary"),
                _labels(spec, "acts_on", sub),
            )
        )
    circ = _checked(
        path,
        1e-8,
        lambda: CircuitChannel(SystemLayout(tuple(subs)), tuple(parties), prep, tuple(gates)),
    )
    _within_cap(f"{path}.registers", check_compile_size, circ)
    return circ


def _correlation_payload(c: Correlation) -> dict:
    n, d, m = c.n_parties, c.n_outputs, c.n_inputs
    entries = {key: float(c.table[i]) for key, i in _table_keys(n, d, m)}
    return {"n_parties": n, "n_inputs": m, "n_outputs": d, "entries": entries}


def _correlation_from_payload(payload: dict, path: str) -> Correlation:
    n = _count(payload, "n_parties", path)
    m = _count(payload, "n_inputs", path)
    d = _count(payload, "n_outputs", path)
    table = _read_table(payload, "entries", path, n, d, m)
    return _checked(f"{path}.entries", DOCUMENT_TOL, lambda: Correlation(table))


def _assemblage_payload(a: Assemblage) -> dict:
    n, d, m = a.n_untrusted, a.n_outputs, a.n_inputs
    return {
        "n_untrusted": n,
        "n_inputs": m,
        "n_outputs": d,
        "trusted_dim": a.trusted_dim,
        "elements": {key: _matrix(a.elements[i]) for key, i in _table_keys(n, d, m)},
    }


def _assemblage_from_payload(payload: dict, path: str) -> Assemblage:
    n = _count(payload, "n_untrusted", path)
    m = _count(payload, "n_inputs", path)
    d = _count(payload, "n_outputs", path)
    d_b = _count(payload, "trusted_dim", path)
    elements = _read_table(payload, "elements", path, n, d, m, d_b)
    return _checked(f"{path}.elements", DOCUMENT_TOL, lambda: Assemblage(elements))


def _measurement_payload(dm: DistributedMeasurement) -> dict:
    n, d = dm.n_parties, dm.n_outputs
    return {
        "input_dims": list(dm.input_dims),
        "n_outputs": d,
        "elements": {key: _matrix(dm.elements[i]) for key, i in _table_keys(n, d)},
    }


def _measurement_from_payload(payload: dict, path: str) -> DistributedMeasurement:
    dims = _input_dims(payload, path)
    d = _count(payload, "n_outputs", path)
    elements = _read_table(payload, "elements", path, len(dims), d, None, math.prod(dims))
    return _checked(
        f"{path}.elements", DOCUMENT_TOL, lambda: DistributedMeasurement(elements, dims)
    )


def _teleportage_payload(t: Teleportage) -> dict:
    n, d = t.n_parties, t.n_outputs
    return {
        "input_dims": list(t.input_dims),
        "n_outputs": d,
        "trusted_dim": t.trusted_dim,
        "blocks": {key: _matrix(t.blocks[i]) for key, i in _table_keys(n, d)},
    }


def _teleportage_from_payload(payload: dict, path: str) -> Teleportage:
    dims = _input_dims(payload, path)
    d = _count(payload, "n_outputs", path)
    d_b = _count(payload, "trusted_dim", path)
    blocks = _read_table(payload, "blocks", path, len(dims), d, None, math.prod(dims) * d_b)
    return _checked(f"{path}.blocks", DOCUMENT_TOL, lambda: Teleportage(blocks, dims, d_b))


def causality_report_payload(rep: CausalityReport) -> dict:
    return {
        "parties": list(rep.parties),
        "causal": rep.causal,
        "max_residual": rep.max_residual,
        "tol": rep.tol,
        "checks": [
            {
                "sender": list(c.sender),
                "receiver": list(c.receiver),
                "semicausal": c.semicausal,
                "residual": c.residual,
            }
            for c in rep.checks
        ],
    }


def feasibility_report_payload(rep: FeasibilityReport) -> dict:
    out = {
        "status": rep.status,
        "residual": rep.residual,
        "iterations": rep.iterations,
        "detail": rep.detail,
    }
    if rep.certificate and "weights" in rep.certificate:
        out["certificate"] = {"weights": np.asarray(rep.certificate["weights"], dtype=float)}
    elif rep.certificate and "bell" in rep.certificate:
        out["certificate"] = {
            "bell": np.asarray(rep.certificate["bell"], dtype=float),
            "local_bound": float(rep.certificate["local_bound"]),
        }
    elif rep.certificate and "states" in rep.certificate:
        out["certificate"] = {
            "states": [_matrix(s) for s in rep.certificate["states"]]
        }
    elif rep.certificate and "moment_matrix" in rep.certificate:
        out["certificate"] = {
            "moment_matrix": _matrix(rep.certificate["moment_matrix"].matrix)
        }
    return out


# -- top level ------------------------------------------------------------------

# kind -> (type, payload writer, payload reader); a type is matched exactly
_KINDS = {
    "channel": (Channel, _channel_payload, _channel_from_payload),
    "circuit": (CircuitChannel, _circuit_payload, _circuit_from_payload),
    "correlation": (Correlation, _correlation_payload, _correlation_from_payload),
    "assemblage": (Assemblage, _assemblage_payload, _assemblage_from_payload),
    "distributed-measurement": (
        DistributedMeasurement, _measurement_payload, _measurement_from_payload
    ),
    "teleportage": (Teleportage, _teleportage_payload, _teleportage_from_payload),
}
_REPORTS = {
    CausalityReport: causality_report_payload,
    FeasibilityReport: feasibility_report_payload,
}


def _field(payload, name: str, typ, path: str):
    if not isinstance(payload, dict) or name not in payload:
        raise DocumentError(path, f"missing field {name!r}")
    value = payload[name]
    if typ is int and isinstance(value, bool):
        raise DocumentError(f"{path}.{name}", "expected an integer")
    if not isinstance(value, typ):
        raise DocumentError(f"{path}.{name}", f"expected {typ.__name__}")
    return value


def _positive(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(path, "expected a positive integer")
    return value


def _count(payload, name: str, path: str) -> int:
    """A dimension or count field: a positive integer, booleans excluded."""
    return _positive(_field(payload, name, int, path), f"{path}.{name}")


def _input_dims(payload, path: str) -> tuple[int, ...]:
    dims = _field(payload, "input_dims", list, path)
    return tuple(_positive(v, f"{path}.input_dims[{k}]") for k, v in enumerate(dims))


def _labels(spec, name: str, path: str) -> tuple[str, ...]:
    """A list of register labels: strings, named one by one."""
    labels = _field(spec, name, list, path)
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise DocumentError(f"{path}.{name}[{k}]", "expected str")
    return tuple(labels)


def _trusted(spec, path: str) -> bool:
    """The optional ``trusted`` flag of a party: absent, or a JSON boolean."""
    return _field(spec, "trusted", bool, path) if "trusted" in spec else False


def _role(spec, path: str) -> str:
    """The optional ``role`` of a circuit register: absent (an ancilla) or one of ``ROLES``."""
    if "role" not in spec:
        return "ancilla"
    role = _field(spec, "role", str, path)
    if role not in ROLES:
        raise DocumentError(f"{path}.role", f"unknown role {role!r}")
    return role


def serialize(obj) -> str:
    """Serialize a workbench object to canonical JSON text."""
    if type(obj) in _REPORTS:
        kind, write = "report", _REPORTS[type(obj)]
    else:
        for kind, (typ, write, _) in _KINDS.items():
            if type(obj) is typ:
                break
        else:
            raise DocumentError("$", f"cannot serialize objects of type {type(obj).__name__}")
    return canonical_json({"kind": kind, "version": VERSION, "payload": write(obj)})


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its ``(key, value)`` pairs; a repeated key is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError("$", f"repeated key {key!r}")
            seen.add(key)
    return obj


def parse(text: str):
    """Parse a workbench document, validating schema and object invariants."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("$", "document must be a JSON object")
    kind = _field(doc, "kind", str, "$")
    version = _field(doc, "version", str, "$")
    if version != VERSION:
        raise DocumentError("$.version", f"unsupported version {version!r}")
    payload = _field(doc, "payload", dict, "$")
    if kind not in _KINDS:
        raise DocumentError("$.kind", f"unknown document kind {kind!r}")
    return _KINDS[kind][2](payload, "$.payload")

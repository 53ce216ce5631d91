from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalchannels import (
    Correlation,
    DocumentError,
    parse,
    serialize,
)
from causalchannels.channels import Channel, identity_channel
from causalchannels.serialize import _is_table_key, _table_keys, canonical_json
from causalchannels.constructions import singlet_tsirelson_channel
from causalchannels.scenarios import (
    distributed_measurement_from_channel,
    teleportage_from_channel,
)
from causalchannels import compile_circuit, canonical_channel_from_correlations
from conftest import pr_table


class TestRoundTrips:
    def test_channel(self, pr_channel):
        back = parse(serialize(pr_channel))
        assert isinstance(back, Channel)
        assert [p.label for p in back.parties] == ["A", "B"]
        assert np.max(np.abs(back.choi - pr_channel.choi)) == 0.0

    def test_circuit(self):
        circ = singlet_tsirelson_channel()
        back = parse(serialize(circ))
        ch1 = compile_circuit(circ)
        ch2 = compile_circuit(back)
        assert np.max(np.abs(ch1.choi - ch2.choi)) < 1e-15

    def test_circuit_with_mixed_prep(self):
        from causalchannels.sampling import random_local_circuit

        circ = random_local_circuit(np.random.default_rng(3))
        back = parse(serialize(circ))
        assert np.max(np.abs(compile_circuit(circ).choi - compile_circuit(back).choi)) < 1e-12

    def test_correlation(self):
        c = Correlation(pr_table())
        back = parse(serialize(c))
        assert np.array_equal(back.table, c.table)

    def test_assemblage(self, pq_pr_channel):
        from causalchannels import assemblage_from_channel

        a = assemblage_from_channel(pq_pr_channel)
        back = parse(serialize(a))
        assert np.max(np.abs(back.elements - a.elements)) == 0.0

    def test_distributed_measurement(self):
        ch = canonical_channel_from_correlations(Correlation(pr_table()))
        dm = distributed_measurement_from_channel(ch)
        back = parse(serialize(dm))
        assert back.input_dims == dm.input_dims
        assert np.max(np.abs(back.elements - dm.elements)) == 0.0

    def test_teleportage(self, pq_pr_channel):
        t = teleportage_from_channel(pq_pr_channel)
        back = parse(serialize(t))
        assert back.trusted_dim == t.trusted_dim
        assert np.max(np.abs(back.blocks - t.blocks)) == 0.0

    def test_byte_stability(self):
        c = Correlation(pr_table())
        first = serialize(c)
        second = serialize(parse(first))
        assert first == second

    def test_channel_byte_stability(self, singlet_channel):
        first = serialize(singlet_channel)
        second = serialize(parse(first))
        assert first == second


class TestValidation:
    def test_non_psd_choi_names_invariant(self):
        doc = json.loads(serialize(identity_channel((2,))))
        # corrupt the Choi state: flip an eigenvalue's worth of weight, moving it
        # within input 0's block so the state stays trace preserving
        doc["payload"]["choi"][0][0] = [-0.5, 0.0]
        doc["payload"]["choi"][1][1] = [1.0, 0.0]
        with pytest.raises(DocumentError, match="PSD"):
            parse(json.dumps(doc))

    def test_missing_field_has_path(self):
        doc = json.loads(serialize(Correlation(pr_table())))
        del doc["payload"]["entries"]
        with pytest.raises(DocumentError, match=r"\$\.payload.*entries"):
            parse(json.dumps(doc))

    def test_bad_complex_pair(self):
        doc = json.loads(serialize(identity_channel((2,))))
        doc["payload"]["choi"][0][0] = [0.25]
        with pytest.raises(DocumentError, match=r"re, im"):
            parse(json.dumps(doc))

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown document kind"):
            parse(json.dumps({"kind": "soup", "version": "1", "payload": {}}))

    def test_unknown_version(self):
        with pytest.raises(DocumentError, match="version"):
            parse(json.dumps({"kind": "correlation", "version": "2", "payload": {}}))

    def test_not_json(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse("{nope")

    def test_signalling_correlation_rejected(self):
        t = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                t[y, 0, x, y] = 1.0
        doc = serialize(Correlation(t))
        # documents only enforce the type invariants, not non-signalling;
        # normalization failures on the other hand are rejected
        bad = json.loads(doc)
        for key in bad["payload"]["entries"]:
            bad["payload"]["entries"][key] = 0.3
        with pytest.raises(DocumentError, match="sum to 1"):
            parse(json.dumps(bad))

    def test_dimension_inconsistency(self, pq_pr_channel):
        from causalchannels import assemblage_from_channel

        doc = json.loads(serialize(assemblage_from_channel(pq_pr_channel)))
        first_key = next(iter(doc["payload"]["elements"]))
        doc["payload"]["elements"][first_key] = [[[1.0, 0.0]]]
        with pytest.raises(DocumentError, match="shape"):
            parse(json.dumps(doc))


class TestRepeatedKeys:
    """An object naming a key twice is rejected, not read as its last value;
    the JSON decoder gives no location, so the path is the document root."""

    @staticmethod
    def _rejects(text: str, key: str) -> None:
        with pytest.raises(DocumentError) as info:
            parse(text)
        assert info.value.path == "$"
        assert str(info.value) == f"$: repeated key {key!r}"

    def test_table_key(self):
        text = serialize(Correlation(np.array([[0.5], [0.5]])))
        entry = '"x=000|a=000": 0.5,'
        assert entry in text
        self._rejects(text.replace(entry, '"x=000|a=000": 0.9, ' + entry), "x=000|a=000")

    def test_version(self):
        text = serialize(Correlation(pr_table()))
        field = '"version": "1",'
        assert field in text
        self._rejects(text.replace(field, field + " " + field), "version")

    def test_party_field(self):
        text = serialize(identity_channel((2,)))
        field = '"dim_in": 2,'
        assert field in text
        self._rejects(text.replace(field, '"dim_in": 3, ' + field), "dim_in")


def _choi_doc() -> dict:
    return json.loads(serialize(identity_channel((2,))))


def _circuit_doc() -> dict:
    return json.loads(serialize(singlet_tsirelson_channel()))


def _assemblage_doc() -> dict:
    from causalchannels import assemblage_from_channel, pq_steering_pr_channel

    channel = compile_circuit(pq_steering_pr_channel())
    return json.loads(serialize(assemblage_from_channel(channel)))


def _correlation_doc() -> dict:
    return json.loads(serialize(Correlation(pr_table())))


def _measurement_doc() -> dict:
    channel = compile_circuit(singlet_tsirelson_channel())
    return json.loads(serialize(distributed_measurement_from_channel(channel)))


def _teleportage_doc() -> dict:
    from causalchannels import pq_steering_pr_channel

    channel = compile_circuit(pq_steering_pr_channel())
    return json.loads(serialize(teleportage_from_channel(channel)))


def _set(*path):
    """Mutation setting ``payload[path[0]]...[path[-2]]`` to ``path[-1]``."""
    *keys, value = path

    def mutate(doc):
        node = doc["payload"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    return mutate


def _rename(table, old, new):
    """Mutation renaming key ``old`` of ``payload[table]``, keeping its position."""

    def mutate(doc):
        entries = doc["payload"][table]
        doc["payload"][table] = {new if k == old else k: v for k, v in entries.items()}

    return mutate


def _drop(table, key):
    """Mutation deleting ``payload[table][key]``."""
    return lambda doc: doc["payload"][table].pop(key)


def _extra(table, key):
    """Mutation appending ``key`` with a copy of the first value of ``payload[table]``."""

    def mutate(doc):
        entries = doc["payload"][table]
        entries[key] = next(iter(entries.values()))

    return mutate


def _key_cases(kind, make, table, first, missing, renames, extra):
    """Rows for a table whose keys are renamed (out of range, negative,
    unpadded), missing or extra: each names the offending key."""
    path = f"$.payload.{table}"
    rows = {
        f"{kind}-key-{case}": (make, _rename(table, first, bad), path, f"unexpected key {bad!r}")
        for case, bad in renames.items()
    }
    rows[f"{kind}-key-missing"] = (make, _drop(table, missing), path, f"missing key {missing!r}")
    rows[f"{kind}-key-extra"] = (make, _extra(table, extra), path, f"unexpected key {extra!r}")
    return rows


_KEY = "x=000,000|a=000,000"
_ELEMENT = f"$.payload.elements[{_KEY!r}]"
_PAIRS = "complex entries must be [re, im] number pairs"
_NAN = [float("nan"), 0.0]
_POSITIVE = "expected a positive integer"

# (document, mutation, DocumentError path, message): the exact errors the
# per-entry decoder has always raised for malformed matrices and vectors,
# those of the dimension, count, ``trusted`` and ``role`` fields, and those of
# tables whose keys are not exactly the canonical ones.
ERROR_CASES = {
    "ragged-rows": (
        _choi_doc, lambda d: d["payload"]["choi"][1].pop(), "$.payload.choi[1]",
        "ragged matrix rows",
    ),
    "one-element-pair": (
        _choi_doc, _set("choi", 0, 1, [0.25]), "$.payload.choi[0][1]", _PAIRS,
    ),
    "three-element-pair": (
        _choi_doc, _set("choi", 2, 3, [0.25, 0.0, 0.0]), "$.payload.choi[2][3]", _PAIRS,
    ),
    "string-entry": (_choi_doc, _set("choi", 1, 2, "0.25"), "$.payload.choi[1][2]", _PAIRS),
    "string-real-part": (
        _choi_doc, _set("choi", 1, 2, ["0.25", 0.0]), "$.payload.choi[1][2]", _PAIRS,
    ),
    "null-entry": (_choi_doc, _set("choi", 3, 0, None), "$.payload.choi[3][0]", _PAIRS),
    "null-imaginary-part": (
        _choi_doc, _set("choi", 3, 0, [0.0, None]), "$.payload.choi[3][0]", _PAIRS,
    ),
    "non-list-choi": (_choi_doc, _set("choi", "abc"), "$.payload.choi", "expected list"),
    "empty-choi": (
        _choi_doc, _set("choi", []), "$.payload.choi",
        "expected a row-major matrix (list of rows)",
    ),
    "flat-choi": (
        _choi_doc, _set("choi", [1, 2]), "$.payload.choi",
        "expected a row-major matrix (list of rows)",
    ),
    "non-list-element": (
        _assemblage_doc, _set("elements", _KEY, 5), _ELEMENT,
        "expected a row-major matrix (list of rows)",
    ),
    "wrong-block-shape": (
        _assemblage_doc, _set("elements", _KEY, [[[0.0, 0.0]] * 3] * 3), _ELEMENT,
        "matrix shape (3, 3) != expected (2, 2)",
    ),
    "ragged-element": (
        _assemblage_doc, lambda d: d["payload"]["elements"][_KEY][1].append([0.0, 0.0]),
        _ELEMENT + "[1]", "ragged matrix rows",
    ),
    "non-list-vector": (
        _circuit_doc, _set("ancilla_prep", "entries", "x"), "$.payload.ancilla_prep.entries",
        "expected a list of [re, im] pairs",
    ),
    "vector-short-pair": (
        _circuit_doc, _set("ancilla_prep", "entries", 2, [1.0]),
        "$.payload.ancilla_prep.entries[2]", _PAIRS,
    ),
    "gate-long-pair": (
        _circuit_doc, _set("gates", 0, "unitary", 0, 0, [1.0, 0.0, 0.0]),
        "$.payload.gates[0].unitary[0][0]", _PAIRS,
    ),
    "missing-prep-entries": (
        _circuit_doc, lambda d: d["payload"]["ancilla_prep"].pop("entries"),
        "$.payload.ancilla_prep", "missing field 'entries'",
    ),
    "huge-integer-entry": (
        _choi_doc, _set("choi", 0, 0, [10**400, 0]), "$.payload.choi[0][0]",
        "number out of float range",
    ),
    "huge-integer-probability": (
        _correlation_doc, _set("entries", _KEY, 10**400), f"$.payload.entries[{_KEY!r}]",
        "number out of float range",
    ),
    "nan-choi-entry": (
        _choi_doc, _set("choi", 0, 0, _NAN), "$.payload.choi", "choi entries must be finite",
    ),
    "infinite-choi-entry": (
        _choi_doc, _set("choi", 1, 2, [0.0, float("inf")]), "$.payload.choi",
        "choi entries must be finite",
    ),
    "nan-prep-entry": (
        _circuit_doc, _set("ancilla_prep", "entries", 0, _NAN), "$.payload",
        "ancilla_prep entries must be finite",
    ),
    "nan-probability": (
        _correlation_doc, _set("entries", _KEY, float("nan")), "$.payload.entries",
        "probabilities must be finite",
    ),
    "nan-assemblage-entry": (
        _assemblage_doc, _set("elements", _KEY, 0, 0, _NAN), "$.payload.elements",
        "element entries must be finite",
    ),
    "nan-measurement-entry": (
        _measurement_doc, _set("elements", "a=000,000", 1, 0, _NAN), "$.payload.elements",
        "element entries must be finite",
    ),
    "nan-teleportage-entry": (
        _teleportage_doc, _set("blocks", "a=000,000", 0, 1, _NAN), "$.payload.blocks",
        "block entries must be finite",
    ),
    "trusted-string-false": (
        _choi_doc, _set("parties", 0, "trusted", "false"), "$.payload.parties[0].trusted",
        "expected bool",
    ),
    "trusted-string-no": (
        _choi_doc, _set("parties", 0, "trusted", "no"), "$.payload.parties[0].trusted",
        "expected bool",
    ),
    "circuit-trusted-one": (
        _circuit_doc, _set("parties", 1, "trusted", 1), "$.payload.parties[1].trusted",
        "expected bool",
    ),
    "register-dim-zero": (
        _circuit_doc, _set("registers", 0, "dim", 0), "$.payload.registers[0].dim", _POSITIVE,
    ),
    "dim-in-zero": (
        _choi_doc, _set("parties", 0, "dim_in", 0), "$.payload.parties[0].dim_in", _POSITIVE,
    ),
    "dim-out-negative": (
        _choi_doc, _set("parties", 0, "dim_out", -2), "$.payload.parties[0].dim_out",
        _POSITIVE,
    ),
    "input-dims-strings": (
        _measurement_doc, _set("input_dims", ["a", "b"]), "$.payload.input_dims[0]", _POSITIVE,
    ),
    "input-dims-negative": (
        _measurement_doc, _set("input_dims", [-2, -2]), "$.payload.input_dims[0]", _POSITIVE,
    ),
    "input-dims-boolean": (
        _measurement_doc, _set("input_dims", [True, 4]), "$.payload.input_dims[0]", _POSITIVE,
    ),
    "teleportage-input-dims-zero": (
        _teleportage_doc, _set("input_dims", [2, 0]), "$.payload.input_dims[1]", _POSITIVE,
    ),
    "n-inputs-negative": (
        _correlation_doc, _set("n_inputs", -1), "$.payload.n_inputs", _POSITIVE,
    ),
    "n-parties-zero": (
        _correlation_doc, _set("n_parties", 0), "$.payload.n_parties", _POSITIVE,
    ),
    "n-untrusted-zero": (
        _assemblage_doc, _set("n_untrusted", 0), "$.payload.n_untrusted", _POSITIVE,
    ),
    "trusted-dim-negative": (
        _assemblage_doc, _set("trusted_dim", -1), "$.payload.trusted_dim", _POSITIVE,
    ),
    "measurement-n-outputs-zero": (
        _measurement_doc, _set("n_outputs", 0), "$.payload.n_outputs", _POSITIVE,
    ),
    "register-role-number": (
        _circuit_doc, _set("registers", 0, "role", 5), "$.payload.registers[0].role",
        "expected str",
    ),
    "output-register-list": (
        _circuit_doc, _set("parties", 0, "output_registers", [["eA"]]),
        "$.payload.parties[0].output_registers[0]", "expected str",
    ),
    "gate-register-number": (
        _circuit_doc, _set("gates", 0, "acts_on", 1, 7), "$.payload.gates[0].acts_on[1]",
        "expected str",
    ),
    "register-role-unknown": (
        _circuit_doc, _set("registers", 2, "role", "foo"), "$.payload.registers[2].role",
        "unknown role 'foo'",
    ),
    **_key_cases(
        "correlation", _correlation_doc, "entries", "x=000,000|a=000,001",
        "x=001,000|a=001,000",
        {
            "out-of-range": "x=002,000|a=000,001",
            "negative": "x=000,000|a=000,-01",
            "unpadded": "x=0,0|a=0,1",
        },
        "x=000,000,000|a=000,000,000",
    ),
    **_key_cases(
        "assemblage", _assemblage_doc, "elements", "x=000,000|a=000,001",
        "x=001,001|a=000,000",
        {
            "out-of-range": "x=000,000|a=000,002",
            "negative": "x=-01,000|a=000,001",
            "unpadded": "x=000,000|a=000,1",
        },
        "note",
    ),
    **_key_cases(
        "measurement", _measurement_doc, "elements", "a=000,001", "a=001,000",
        {"out-of-range": "a=000,002", "negative": "a=000,-01", "unpadded": "a=0,1"},
        "a=000,000,000",
    ),
    **_key_cases(
        "teleportage", _teleportage_doc, "blocks", "a=000,001", "a=001,001",
        {"out-of-range": "a=002,001", "negative": "a=-01,001", "unpadded": "a=000,01"},
        "x=000|a=000,000",
    ),
}


def _chain(*mutations):
    """Mutation applying each of ``mutations`` in turn."""

    def mutate(doc):
        for step in mutations:
            step(doc)

    return mutate


_ZEROS_40 = ",".join(["000"] * 40)

# Documents whose declared sizes dwarf the text: each is rejected after work
# bounded by the document, before any array of the declared size exists.
ERROR_CASES.update({
    "correlation-40-parties": (
        _correlation_doc, _chain(_set("n_parties", 40), _set("entries", {})), "$.payload.entries",
        f"missing key {f'x={_ZEROS_40}|a={_ZEROS_40}'!r}",
    ),
    "assemblage-40-parties": (
        _assemblage_doc, _set("n_untrusted", 40), "$.payload.elements",
        f"unexpected key {_KEY!r}",
    ),
    "measurement-40-input-dims": (
        _measurement_doc, _chain(_set("input_dims", [2] * 40), _set("elements", {})),
        "$.payload.elements", f"missing key {f'a={_ZEROS_40}'!r}",
    ),
    "teleportage-40-input-dims": (
        _teleportage_doc, _set("input_dims", [2] * 40), "$.payload.blocks",
        "unexpected key 'a=000,000'",
    ),
    "measurement-huge-input-dims": (
        _measurement_doc,
        _chain(
            _set("input_dims", [3000, 3000]),
            _set("n_outputs", 1),
            _set("elements", {"a=000,000": [[[1.0, 0.0]]]}),
        ),
        "$.payload.elements['a=000,000']",
        "matrix shape (1, 1) != expected (9000000, 9000000)",
    ),
})


def _sparse_doc() -> dict:
    """The PR-box channel: 8 stored entries of a 16 x 16 Choi, written sparse."""
    from causalchannels import pr_box_channel

    doc = json.loads(serialize(compile_circuit(pr_box_channel())))
    entries = doc["payload"]["choi"]["entries"]
    assert [e[:2] for e in entries[:4]] == [[0, 0], [2, 2], [5, 5], [7, 7]]
    return doc


def _entry(k, *value):
    """Mutation setting sparse entry ``k`` (or its part ``value[0]``) to ``value[-1]``."""
    return _set("choi", "entries", k, *value)


def _swap_entries(a, b):
    def mutate(doc):
        entries = doc["payload"]["choi"]["entries"]
        entries[a], entries[b] = entries[b], entries[a]

    return mutate


_ENTRIES = "$.payload.choi.entries"


def _over_cap_circuit_doc() -> dict:
    """300 bytes declaring a 3000000-dimensional input register."""
    return {
        "kind": "circuit",
        "version": "1",
        "payload": {
            "registers": [
                {"label": "A", "dim": 3000000, "role": "untrusted-in"},
                {"label": "e", "dim": 1},
            ],
            "parties": [{"label": "A", "input_register": "A", "output_registers": ["e"]}],
            "ancilla_prep": {"form": "vector", "entries": [[1.0, 0.0]]},
            "gates": [],
        },
    }


def _state_over_cap_circuit_doc() -> dict:
    """A 4096-dimensional Choi whose initial state, with a qubit ancilla,
    has 2 * 4096**2 entries."""
    return {
        "kind": "circuit",
        "version": "1",
        "payload": {
            "registers": [
                {"label": "A", "dim": 4096, "role": "untrusted-in"},
                {"label": "e", "dim": 1},
                {"label": "z", "dim": 2},
            ],
            "parties": [{"label": "A", "input_register": "A", "output_registers": ["e"]}],
            "ancilla_prep": {"form": "vector", "entries": [[1.0, 0.0], [0.0, 0.0]]},
            "gates": [],
        },
    }


def _empty_at_cap_channel_doc() -> dict:
    """An empty sparse Choi at the cap: 154 bytes declaring a 4096 x 4096 matrix."""
    return {
        "kind": "channel",
        "version": "1",
        "payload": {
            "parties": [{"label": "A", "dim_in": 64, "dim_out": 64}],
            "choi": {"shape": [4096, 4096], "entries": []},
        },
    }


def _over_cap_channel_doc() -> dict:
    """An empty sparse Choi over a 3000000-dimensional input."""
    return {
        "kind": "channel",
        "version": "1",
        "payload": {
            "parties": [{"label": "A", "dim_in": 3000000, "dim_out": 1}],
            "choi": {"shape": [3000000, 3000000], "entries": []},
        },
    }


# Sparse Choi documents: each reader rule names the first offending entry (or
# the shape), and documents over ``CHOI_DIM_CAP`` are refused before anything
# of the declared size is allocated.
ERROR_CASES.update({
    "sparse-shape-mismatch": (
        _sparse_doc, _set("choi", "shape", [16, 15]), "$.payload.choi.shape",
        "expected [16, 16]",
    ),
    "sparse-shape-floats": (
        _sparse_doc, _set("choi", "shape", [16.0, 16.0]), "$.payload.choi.shape",
        "expected [16, 16]",
    ),
    "sparse-shape-missing": (
        _sparse_doc, lambda d: d["payload"]["choi"].pop("shape"), "$.payload.choi",
        "missing field 'shape'",
    ),
    "sparse-entries-not-list": (
        _sparse_doc, _set("choi", "entries", "x"), _ENTRIES, "expected list",
    ),
    "sparse-index-out-of-range": (
        _sparse_doc, _entry(2, 1, 16), f"{_ENTRIES}[2]",
        "index (5, 16) out of range for shape [16, 16]",
    ),
    "sparse-index-negative": (
        _sparse_doc, _entry(0, 0, -1), f"{_ENTRIES}[0]",
        "index (-1, 0) out of range for shape [16, 16]",
    ),
    "sparse-index-bool": (
        _sparse_doc, _entry(0, 1, False), f"{_ENTRIES}[0]", "indices must be integers",
    ),
    "sparse-index-float": (
        _sparse_doc, _entry(1, 0, 2.0), f"{_ENTRIES}[1]", "indices must be integers",
    ),
    "sparse-unsorted": (
        _sparse_doc, _swap_entries(2, 3), f"{_ENTRIES}[3]",
        "entries must be in strictly increasing row-major order",
    ),
    "sparse-duplicate": (
        _sparse_doc, _entry(2, [2, 2, 0.125, 0.0]), f"{_ENTRIES}[2]",
        "entries must be in strictly increasing row-major order",
    ),
    "sparse-short-entry": (
        _sparse_doc, _entry(3, [7, 7, 0.125]), f"{_ENTRIES}[3]",
        "sparse entries must be [i, j, re, im]",
    ),
    "sparse-entry-not-list": (
        _sparse_doc, _entry(1, 0.125), f"{_ENTRIES}[1]", "sparse entries must be [i, j, re, im]",
    ),
    "sparse-string-part": (
        _sparse_doc, _entry(1, 2, "0.125"), f"{_ENTRIES}[1]", "complex parts must be numbers",
    ),
    "sparse-bool-part": (
        _sparse_doc, _entry(1, 3, True), f"{_ENTRIES}[1]", "complex parts must be numbers",
    ),
    "sparse-nan-part": (
        _sparse_doc, _entry(0, 3, float("nan")), "$.payload.choi", "choi entries must be finite",
    ),
    "sparse-huge-integer": (
        _sparse_doc, _entry(0, 2, 10**400), f"{_ENTRIES}[0]", "number out of float range",
    ),
    "channel-over-cap": (
        _over_cap_channel_doc, lambda d: None, "$.payload.parties",
        "Choi dimension 3000000 exceeds the cap 4096",
    ),
    "circuit-over-cap": (
        _over_cap_circuit_doc, lambda d: None, "$.payload.registers",
        "Choi dimension 3000000 exceeds the cap 4096",
    ),
    "circuit-state-over-cap": (
        _state_over_cap_circuit_doc, lambda d: None, "$.payload.registers",
        "initial state of 33554432 entries exceeds the cap 16777216",
    ),
    "sparse-empty-at-cap": (
        _empty_at_cap_channel_doc, lambda d: None, "$.payload.choi",
        "channel is not trace preserving: residual 1.250e-01",
    ),
})

# Rows whose declared sizes would cost far more than their text, and the
# seconds each may take to be refused: the cap and the trace-preservation
# check (which runs before the eigendecomposition) come first.
SIZE_BOUNDS = {
    "channel-over-cap": 0.05,
    "circuit-over-cap": 0.05,
    "circuit-state-over-cap": 0.05,
    "sparse-empty-at-cap": 1.0,
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_path_and_message(self, case):
        make, mutate, path, message = ERROR_CASES[case]
        doc = make()
        mutate(doc)
        with pytest.raises(DocumentError) as info:
            parse(json.dumps(doc))
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("case", sorted(SIZE_BOUNDS))
    def test_size_refused_before_work(self, case):
        make, mutate, path, _ = ERROR_CASES[case]
        doc = make()
        mutate(doc)
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(DocumentError, match=re.escape(path)):
            parse(text)
        assert time.perf_counter() - start < SIZE_BOUNDS[case]

    def test_in_range_integers_accepted(self):
        doc = _choi_doc()
        doc["payload"]["choi"][0][1] = [0, 0]
        assert np.array_equal(parse(json.dumps(doc)).choi, identity_channel((2,)).choi)
        doc = _correlation_doc()
        doc["payload"]["entries"][_KEY] = 0
        doc["payload"]["entries"]["x=000,000|a=001,001"] = 1
        assert parse(json.dumps(doc)).prob((1, 1), (0, 0)) == 1.0


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize(
        "make, mutate, path",
        [
            (_choi_doc, _set("choi", 0, 0, [0.5, False]), "$.payload.choi[0][0]"),
            (_choi_doc, _set("choi", 1, 1, [True, 0.0]), "$.payload.choi[1][1]"),
            (
                _circuit_doc,
                _set("ancilla_prep", "entries", 1, [0.0, True]),
                "$.payload.ancilla_prep.entries[1]",
            ),
        ],
        ids=["choi-imaginary-false", "choi-real-true", "prep-vector-true"],
    )
    def test_complex_parts(self, make, mutate, path):
        doc = make()
        mutate(doc)
        with pytest.raises(DocumentError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == f"{path}: {_PAIRS}"

    def test_probability(self):
        doc = json.loads(serialize(Correlation(pr_table())))
        key = "x=000,000|a=000,001"
        assert doc["payload"]["entries"][key] == 0.0  # an impossible PR-box outcome
        doc["payload"]["entries"][key] = False
        with pytest.raises(DocumentError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == f"$.payload.entries[{key!r}]: probability must be a number"


def _reference_lists(value):
    """The per-entry encoder the format was defined with: nested [re, im]
    lists for complex arrays, nested lists of floats for real ones."""
    if isinstance(value, np.ndarray):
        if value.ndim > 1:
            return [_reference_lists(row) for row in value]
        if np.iscomplexobj(value):
            return [[float(np.real(z)), float(np.imag(z))] for z in value]
        return [float(x) for x in value]
    if isinstance(value, dict):
        return {k: _reference_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_lists(v) for v in value]
    return value


_any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]
)


@st.composite
def _arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    re = np.array(draw(st.lists(_any_float, min_size=size, max_size=size)), dtype=float)
    if draw(st.booleans()):
        return re.reshape(shape)
    out = np.empty(size, dtype=complex)
    out.real = re
    out.imag = draw(st.lists(_any_float, min_size=size, max_size=size))
    return out.reshape(shape)


_leaves = (
    _arrays()
    | _any_float
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=5)
)
_documents = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


class TestCanonicalWriter:
    @settings(max_examples=200, deadline=None)
    @given(_documents)
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(_reference_lists(value), indent=2)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"flag": np.bool_(True)})


def _sprinkle(rng: np.random.Generator, arr: np.ndarray) -> np.ndarray:
    """Set a few (numerically) zero real or imaginary parts to -0.0, a
    subnormal or about ±1e-300; every invariant still holds."""
    out = np.array(arr, order="C")  # complex entries are viewed as (re, im)
    parts = out.reshape(-1).view(float)
    zeros = np.flatnonzero(np.abs(parts) <= 1e-9)
    picks = rng.choice(zeros, size=min(6, zeros.size), replace=False)
    specials = np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300])
    parts[picks] = rng.choice(specials, size=picks.size)
    return out


def _sampled_object(kind: str, seed: int):
    from causalchannels.channels import CircuitChannel
    from causalchannels.sampling import (
        random_local_circuit,
        random_localizable_channel,
        random_nonsignalling_teleportage,
        random_quantum_assemblage,
    )
    from causalchannels.scenarios import Assemblage, DistributedMeasurement, Teleportage

    rng = np.random.default_rng(seed)
    if kind == "channel":
        ch = random_localizable_channel(rng)
        return Channel(ch.parties, _sprinkle(rng, ch.choi))
    if kind == "circuit":
        circ = random_local_circuit(rng, trusted_dim=int(rng.integers(0, 3)))
        return CircuitChannel(
            circ.registers, circ.parties, _sprinkle(rng, circ.ancilla_prep), circ.gates
        )
    if kind == "correlation":
        # documents hold any normalized table; zero out one outcome per input
        table = rng.dirichlet(np.ones(4), size=4)
        table[np.arange(4), rng.integers(0, 4, size=4)] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        return Correlation(_sprinkle(rng, table.T.reshape(2, 2, 2, 2)))
    if kind == "assemblage":
        a = random_quantum_assemblage(rng, m=2, d=2, d_b=int(rng.integers(2, 4)))
        return Assemblage(_sprinkle(rng, a.elements))
    if kind == "measurement":
        dm = distributed_measurement_from_channel(random_localizable_channel(rng))
        return DistributedMeasurement(_sprinkle(rng, dm.elements), dm.input_dims)
    t = random_nonsignalling_teleportage(rng, d_k=2, d=2, d_b=2)
    return Teleportage(_sprinkle(rng, t.blocks), t.input_dims, t.trusted_dim)


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            ["channel", "circuit", "correlation", "assemblage", "measurement", "teleportage"]
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_serialize_parse_serialize(self, kind, seed):
        first = serialize(_sampled_object(kind, seed))
        assert serialize(parse(first)) == first


def _sparse_channel(rng: np.random.Generator, dims: tuple[int, ...], trusted: bool) -> Channel:
    """A mixture of one to three phased permutation channels: at most
    ``3 d_in**2`` stored entries of ``d_in**4``, then sprinkled."""
    from causalchannels import Party
    from causalchannels.channels import channel_from_unitary

    parties = [Party(f"p{k}", d, d, trusted and k == len(dims) - 1) for k, d in enumerate(dims)]
    d_in = int(np.prod(dims))
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
    choi = 0
    for w in weights:
        u = np.eye(d_in)[rng.permutation(d_in)] * np.exp(2j * np.pi * rng.random(d_in))
        choi = choi + w * channel_from_unitary(u, parties).choi
    return Channel(parties, _sprinkle(rng, choi))


class TestSparseChoi:
    """Sparse Choi texts: the writer's rule, and a bitwise round trip that
    keeps every ``-0.0``, subnormal and tiny part the sampler plants."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_is_bitwise(self, dims, trusted, seed):
        ch = _sparse_channel(np.random.default_rng(seed), dims, trusted)
        text = serialize(ch)
        choi = json.loads(text)["payload"]["choi"]
        assert isinstance(choi, dict)
        stored = np.signbit(ch.choi.real) | np.signbit(ch.choi.imag) | (ch.choi != 0)
        assert len(choi["entries"]) == np.count_nonzero(stored)
        back = parse(text)
        assert np.array_equal(back.choi.view(np.uint64), ch.choi.view(np.uint64))
        assert serialize(back) == text

    @pytest.mark.parametrize(
        "dims, form", [((2,), list), ((3,), dict), ((2, 2), dict)], ids=["2", "3", "2x2"]
    )
    def test_identity_form(self, dims, form):
        """The identity channel stores ``d_in**2`` of ``d_in**4`` entries: dense
        at a quarter (``d_in = 2``), sparse below it."""
        choi = json.loads(serialize(identity_channel(dims)))["payload"]["choi"]
        assert isinstance(choi, form)

    def test_integer_parts_accepted(self):
        doc = _sparse_doc()
        choi = parse(json.dumps(doc)).choi
        doc["payload"]["choi"]["entries"][0][3] = 0
        assert np.array_equal(parse(json.dumps(doc)).choi.view(np.uint64), choi.view(np.uint64))


class TestTableKeyPredicate:
    """The key check used on malformed tables accepts exactly the canonical
    keys: every canonical key, and no edit of one that is not itself canonical."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 2),
        st.sampled_from([1, 2, 3, 11]),
        st.sampled_from([None, 1, 2, 3]),
        st.data(),
    )
    def test_matches_enumeration(self, n, d, m, data):
        canonical = dict(_table_keys(n, d, m))
        assert all(_is_table_key(key, n, d, m) for key in canonical)
        key = list(data.draw(st.sampled_from(sorted(canonical))))
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(key)))
            char = data.draw(st.sampled_from("0123456789,|=ax -+_\u0661"))
            if data.draw(st.booleans()) or pos == len(key):
                key.insert(pos, char)
            else:
                key[pos] = char
        edited = "".join(key)
        assert _is_table_key(edited, n, d, m) == (edited in canonical)

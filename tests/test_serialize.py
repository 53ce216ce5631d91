from __future__ import annotations

import json

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
from causalchannels.serialize import canonical_json
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
        # corrupt the Choi state: flip an eigenvalue's worth of weight
        doc["payload"]["choi"][0][0] = [-0.5, 0.0]
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


_KEY = "x=000,000|a=000,000"
_ELEMENT = f"$.payload.elements[{_KEY!r}]"
_PAIRS = "complex entries must be [re, im] number pairs"
_NAN = [float("nan"), 0.0]

# (document, mutation, DocumentError path, message): the exact errors the
# per-entry decoder has always raised for malformed matrices and vectors.
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

"""Golden SHA-256 pins of the gallery documents and the CLI's JSON reports.

The byte layout of a document is part of the format: two-space indent, one
number per line, ``float.__repr__`` digits and json's ``NaN``/``Infinity``
spellings, exactly as ``json.dumps(doc, indent=2)`` wrote it when the
format was defined.  Any encoder change that moves a single byte of a
gallery document, of an object extracted from one, of a report or of the
``pr-box`` and ``pq-steering-pr`` demo output fails here.  Documents are
written through the CLI, so decoding the channel documents for ``extract``
is exercised too.  Each channel document's dense spelling is pinned as well,
and must parse to the same bits as the text the writer chose.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from causalchannels import Assemblage, cli, parse, serialize
from causalchannels.membership import lhs_membership, lhv_membership
from causalchannels.serialize import canonical_json

GALLERY = ("pr-box", "singlet", "pq-steering-pr", "pq-steering-alpha")
EXTRACTS = {
    "pr-box": ("correlations", "measurement"),
    "singlet": ("correlations", "measurement"),
    "pq-steering-pr": ("assemblage", "teleportage"),
    "pq-steering-alpha": ("assemblage", "teleportage"),
}

GOLDEN = {
    "pq-steering-alpha.assemblage": "1d310ee2e6013fffaa9caddcf8bda10cac8b008f722caa5175a39fcf8faaf93f",
    "pq-steering-alpha.choi": "42f7f6d521ec2d35bca6e227aea8c3f641d4f0a0640cdc7d1e0513516ff1ca8b",
    "pq-steering-alpha.circuit": "5c98c887539f703d67ad5e84c8e4702a7f2b01d1e2668769ac9551f3a086c044",
    "pq-steering-alpha.teleportage": "be3a0c02964c77d82aaf0ee389ee2b17831f59638f4e08aacf2153998d077dfc",
    "pq-steering-pr.assemblage": "daf20cb702dd5215e98f464e9f8d4b617f7f6131286980ff8ddca0a1e723a794",
    "pq-steering-pr.choi": "c27555f6f0d87c3993c43f32fc48d355202978e1a496efeb703f92e81a2f3808",
    "pq-steering-pr.circuit": "7e6523655ff81f385e0f8b0a52bb6d216f413e5efe4b19fbba9c30767026b5d7",
    "pq-steering-pr.teleportage": "095ea3ed03d75807e654dabe67467b0d3bf740ae6869316e1eff42c640fb7da7",
    "pr-box.choi": "f0711f37bdfa1323bcf110de8edd1c50b7472a82b5ee6b7e6bd8e6ed717754cd",
    "pr-box.circuit": "7d1355d001a02ea88e1f46559e083473e37f6d748ee2b6946d393e8308826717",
    "pr-box.correlations": "191e4bf913f1e47385a741024a351147baaa7d47b495482c3a4d53bd28f57d5c",
    "pr-box.measurement": "1f3562ff537a8bac49e7044038586ec6ff0e53997a566d5e74d3100621db6322",
    "report.lhs-uniform": "eb61013f6ea8fc52a50967121a7bca2322cd67ac7a0b06693b83aa2d61c06849",
    "report.lhv-pr-box": "6286b340e42139f860ad174fb24a48c67758912819264250292bb5bd45b557e2",
    "report.lhv-uniform": "96e125c4053334b51eae3e55c22130a54f82f6290c870f8f4a1d0c8d3848d2cc",
    "singlet.choi": "05f6839f11f5cf0792aa36233bbd5459ff2bb695be9e4027e705739d47983550",
    "singlet.circuit": "c9326d72cd5a2162d62528babf171f45bf49047839df99970c4c423769c60381",
    "singlet.correlations": "0e872925a41f72f4d966b907a147f2efccff0dd03ae5733b943c06a005424725",
    "singlet.measurement": "e1e6395ef5386f794a0c9256b5e7ee9f26176fd4be40c9a0606f38153d7729f7",
    "stdout.classify-lhs-uniform": "7d162b38879fbd72886fc2fbfdb716eb61f1eac9abdf5a9a609d5502294499d0",
    "stdout.demo-pq-steering-pr": "721450799ecf4ae5281c53bc08fc1f0bbbaf53c1a7b089029644738847b6ce51",
    "stdout.demo-pq-steering-pr-json": "45021060a5365b14fbc28d22b770e20b18b385658b3c9a6534518eb7a100ec64",
    "stdout.demo-pr-box": "51e8512739aa45d2cb505551edf940e912f0ed0508b6599197d4f7b3bdff159c",
    "stdout.demo-pr-box-json": "39c2a71f237ca8b0ff75901cf75839559e5d4f538af122c0ef63cde0e94d6cdb",
    "stdout.verify-causal-pq-steering-pr": "2a830f91318d4e4f5d2e05511016e94cf272ec32bdbb3785927c295adc7f1449",
    "uniform.assemblage": "b956cedce58dc0499b9092666202d8c36143bca7c3197242983c451156194a35",
}


# SHA-256 of each gallery Choi document in the dense spelling, every entry
# listed, which version-1 readers must keep accepting.  The writer picks it
# for the singlet only; for the other three both spellings must parse to the
# same bits.
DENSE_CHOI = {
    "pq-steering-alpha": "5cb5c89fb0d09a9c891bb41e7cb24f3dd3cfe1f0db99335f8e5f22cb9a26bf0a",
    "pq-steering-pr": "76bacee51614a591a838eb25cb284b4fd3e6a6ed6f344952910aa8c4c59de002",
    "pr-box": "323838115d0bba1ff5e57e97353ab738949c86a6fda2e757d7688cf85678e27d",
    "singlet": GOLDEN["singlet.choi"],
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def _uniform_assemblage() -> Assemblage:
    """Every element ``I/8``: LHS-feasible in one iteration with exact states."""
    return Assemblage(np.full((2, 2, 2, 2), 0.25)[..., None, None] * np.eye(2) / 2)


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("golden")
    docs = {}

    def read(path) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    for name in GALLERY:
        choi, circuit = tmp / f"{name}.json", tmp / f"{name}-circuit.json"
        _run(["construct", name, "-o", str(choi)])
        _run(["construct", name, "--circuit", "-o", str(circuit)])
        docs[f"{name}.choi"] = read(choi)
        docs[f"{name}.circuit"] = read(circuit)
        for what in EXTRACTS[name]:
            target = tmp / f"{name}-{what}.json"
            _run(["extract", what, str(choi), "-o", str(target)])
            docs[f"{name}.{what}"] = read(target)

    # ``iterations`` of an lhv report is the simplex pivot count, pinned in
    # tests/test_membership.py; the golden bytes cover the rest of the report.
    lhv = lhv_membership(parse(docs["pr-box.correlations"]))  # bell certificate
    docs["report.lhv-pr-box"] = serialize(dataclasses.replace(lhv, iterations=0))
    lhv = lhv_membership(_uniform_assemblage().to_correlation())  # weights certificate
    docs["report.lhv-uniform"] = serialize(dataclasses.replace(lhv, iterations=0))
    uniform = _uniform_assemblage()
    docs["uniform.assemblage"] = serialize(uniform)
    docs["report.lhs-uniform"] = serialize(lhs_membership(uniform))

    uniform_path = tmp / "uniform-assemblage.json"
    uniform_path.write_text(docs["uniform.assemblage"] + "\n", encoding="utf-8")
    docs["stdout.classify-lhs-uniform"] = _run(
        ["--json", "classify", "lhs", str(uniform_path)]
    )
    docs["stdout.verify-causal-pq-steering-pr"] = _run(
        ["--json", "verify-causal", str(tmp / "pq-steering-pr.json")]
    )
    for demo in ("pr-box", "pq-steering-pr"):
        docs[f"stdout.demo-{demo}"] = _run(["demo", demo])
        docs[f"stdout.demo-{demo}-json"] = _run(["--json", "demo", demo])
    return docs


def test_every_document_is_pinned(documents):
    assert sorted(documents) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(documents, name):
    digest = hashlib.sha256(documents[name].encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]


def test_certificate_report_carries_matrices(documents):
    assert '"weights": [' in documents["report.lhv-uniform"]
    assert '"bell": [' in documents["report.lhv-pr-box"]
    assert '"states": [' in documents["report.lhs-uniform"]
    assert '"states": [' in documents["stdout.classify-lhs-uniform"]


@pytest.mark.parametrize("name", GALLERY)
def test_dense_and_sparse_texts_agree(documents, name):
    text = documents[f"{name}.choi"]
    doc = json.loads(text)
    doc["payload"]["choi"] = parse(text).choi
    dense = canonical_json(doc) + "\n"
    assert hashlib.sha256(dense.encode("utf-8")).hexdigest() == DENSE_CHOI[name]
    assert (name == "singlet") == (dense == text)
    bits = [parse(t).choi.view(np.uint64) for t in (text, dense)]
    assert np.array_equal(*bits)
    assert serialize(parse(dense)) + "\n" == text

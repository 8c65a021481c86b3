"""Byte identity of certificate and trace documents, and of verify reports.

Each document digest is the SHA-256 of the document bytes `goldsub solve`
writes for one acceptance member at seed 0.  Each report digest is the
SHA-256 of what `goldsub verify` checks in that certificate at its
defaults: per check its name, verdict and detail string.  Refactors must
keep them: a change that moves a byte on purpose says which bytes and why,
and updates the digest.  The document bytes also equal the standard
library encoder's (``stdlib_dumps``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from goldsub import __version__
from goldsub.problems import ball_linear_sigma, get_problem
from goldsub.serialize import (certificate_data, certificate_from_data, dumps,
                               manifest_data, trace_data)
from goldsub.solver import BISECT, RAND, SolverConfig, solve
from goldsub.verify import check_certificate

DELTA = 0.05
EPS = 0.05

# (member, params, inner, kkt) -> (certificate digest, trace digest)
GOLDEN = {
    "ball-linear-rand": (
        "4002669184a8c716575323cf1c717399b899a09ed74ae0ca4392a8eb094e3f17",
        "c90d13aefb46eef0e01444f3f3559a08150e9b43613a19a984fb95a06cc66ef0"),
    "ball-linear-bisect": (
        "ef713e8f6b91b0fa62848acff45b96f9ec6349861cc1e1c8cd880b82ff228b98",
        "1439f6de0951daa84a3902445fbbfb762eb07de9eb9f49cad1bcfccb98efe677"),
    "l1-ball-rand": (
        "7f431a31b09c8f033d81b8e65d0f5ebbd38abf1f021feb5792830ddecfc30156",
        "e908796aab688db048c850bbbf85eb654cc155f465ef709d7a53ec84dc6007a8"),
    "l1-ball-bisect": (
        "cb19c6d8acdef696fc8643cd0ede08df27ada328a8812c08caeb4bc08f7d28f1",
        "fd5f583032f4c0caf5781e31f096ea61730b3da951fbfeddc74ee8032ab1daf3"),
    "footnote-1d-rand": (
        "4eac40c5e96a8f055230fe7d3e59f72cfc5c662d2aac742613a60c0687ef1949",
        "737767497c25857625b83ca3a470e9315eeffcdb8002f76747b450939f8c2933"),
    "footnote-1d-bisect": (
        "ad852f854e158ea752783e8a3dd3613c6590ec917025e235f7548adafd0b456f",
        "334c571647b3ebb4e5e752919a4e34acf33da3fb06992db31a7b0e4eb091be1e"),
    "footnote-2c-rand": (
        "03fcd6fe02ae5c7caba978733be3a04ca6b069f591a5ba79e3fa05afed0c856d",
        "d7c97d5a5979d5fd33cc31b4cde03fb3c2b43818863495e0fee66d2224306c5e"),
    "footnote-2c-bisect": (
        "6ec7ff3f937f3f7c6980e2e68c87e1fbfbb0c3816b118a53a2ee15bd73422219",
        "221f739e51746da7648a1dafcdb9a622219c6089cbd201d34a2547a8389a1a67"),
    "pl-nonconvex-rand": (
        "046612a7cc8e10cd0eaab32a10ede515bfd08de370116149a77e3f1cebf87c45",
        "3d39a98fee1f75e0fdf6be5df8c1d9e5ec04c612c6d5452abc86b577c78bde30"),
    "pl-nonconvex-bisect": (
        "193fb882d34b57ec1ceef2ee826307618bc4101d8af4c4b962cad4c66317ed9c",
        "666cdb948c8a425725d12e4fa9e1e32b3cb142790dfbf9f180a1f7a6316cc1d6"),
    "ball-linear-n10-rand": (
        "7cea581ac088a4cbb03689da1489a2bee8a8cd59c26a6c8a32177c787b4a531b",
        "fb7b4a192580c8e2e176ec5cfbf328d28f28f362a8066f4f04fddfad6de2a57f"),
    "ball-linear-n10-bisect": (
        "9d4642323fd2675e223dd05ab20fc865c3c2d6689e2764a4ef5e4b44c1300d94",
        "4d03cc2687e9855b8c67d1d341983406de08dc722bcc747cbdc0e46bbdf20af6"),
    "pl-nonconvex-n10-rand": (
        "ad815123585a26fd8b57517666147b3329f0f076136f0113e9a65c4a7ba7a39c",
        "5906e7f2b23ba6eaf8cda6d54126dfbd20da24928210f8e6c016c784f1e9d852"),
    "pl-nonconvex-n10-bisect": (
        "b1354953601fe3394bd6f5a853d643432cae502d61d5034e6aa9bf5c214d6575",
        "0bfd2f0ea4778ffe0a6bdb5e40faaa441ac331013d47391c6dcd43f4b1a9755e"),
    "ball-linear-rand-kkt": (
        "980e3737ba9daf7ac3a1d01532d430fc281b0f956a21de89a39ef40b23c5c1e7",
        "d6761fbd4736d0e5a246d76eaa639222fd81c5f29058a81cc3e6f58518a65508"),
}


# same cells -> digest of the verify report on the decoded certificate
REPORTS = {
    "ball-linear-rand":
        "b3cc989174f625561d7e17989ad8e6cce0bf5ceb729df04c836b5343875f8d50",
    "ball-linear-bisect":
        "4591d6065491e9c4b98cd659cac9961cd2230692ed6b8cd80f57c88dfd539011",
    "l1-ball-rand":
        "3601c95ab78d168ee766eac1d4a384f7caf5972c7101cd856a5e03501d17f970",
    "l1-ball-bisect":
        "b514db21f0e39ea89daab2dd2de47f4686e035510ebc1dec5723fcc7f73bcc18",
    "footnote-1d-rand":
        "949f21e88aa50b093ac9adf5ff2a13882814ec17ef296dd8f09c1d2ccd87e64a",
    "footnote-1d-bisect":
        "2f370bdc8a7bae5f8ddf29770bae6ea976515e916bf11acb3b8f98a9ac3dc1c1",
    "footnote-2c-rand":
        "73219702dcbfdb99dabe1ba1afadb715642e2be5f369f2e6151a1525ad2734ec",
    "footnote-2c-bisect":
        "b4cb272dc4ba859a444729161124754d258b1e48f92fb913c485a916602801c7",
    "pl-nonconvex-rand":
        "aa4045716997e5b7dd7b73c1f83774dbc2235b3b180ada0b7afc961b3dc14728",
    "pl-nonconvex-bisect":
        "a8a5b1630d1ef0d1d20688926b03b4e091af44f62f31a91d774bae862905d349",
    "ball-linear-n10-rand":
        "637d18ccbade7530219459ff7e7a86311f20a127c808f5821d54e30e678068d9",
    "ball-linear-n10-bisect":
        "1fa4a84cf4495e6f250c40bd319b493e05d34ea7f3f13cbd51b7ce98b78e26f4",
    "pl-nonconvex-n10-rand":
        "cd68b5ba0a32e7317fe42864d50b9631c0baee075b05059dfe30378a6357e8e1",
    "pl-nonconvex-n10-bisect":
        "8d9795a40648f4e08564cf0a3e1c71c552c2403cc745a2fba2e059299818ab2a",
    "ball-linear-rand-kkt":
        "3e287dac11709f5931ca3ae8c9d22f7fd8628158e51ee504ccff1cf343c51fd7",
}


def cells():
    for name, params in (("ball-linear", {}), ("l1-ball", {}),
                         ("footnote-1d", {}), ("footnote-2c", {}),
                         ("pl-nonconvex", {}), ("ball-linear", {"dim": 10}),
                         ("pl-nonconvex", {"dim": 10})):
        for inner in (RAND, BISECT):
            yield name, params, inner, False
    yield "ball-linear", {}, RAND, True


def documents(name, params, inner, kkt):
    record = get_problem(name, **params)
    extra = {"kkt_mode": True, "gcq_sigma": ball_linear_sigma(DELTA)} if kkt else {}
    config = SolverConfig(delta=DELTA, target_eps=EPS, inner=inner, seed=0,
                          **extra)
    cert, trace = solve(record.spec, config, record.start)
    manifest = manifest_data(record.name, record.params, config, __version__)
    return certificate_data(cert, manifest), trace_data(trace, manifest)


def label(name, params, inner, kkt):
    dim = "-n%d" % params["dim"] if params else ""
    return "%s%s-%s%s" % (name, dim, inner, "-kkt" if kkt else "")


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_documents_keep_their_bytes(cell, stdlib_dumps):
    docs = documents(*cell)
    digests = tuple(hashlib.sha256(dumps(doc).encode()).hexdigest()
                    for doc in docs)
    assert digests == GOLDEN[label(*cell)]
    assert [dumps(doc) for doc in docs] == [stdlib_dumps(doc) for doc in docs]


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_verify_reports_keep_their_bytes(cell):
    cert_doc, _ = documents(*cell)
    cert, _ = certificate_from_data(json.loads(dumps(cert_doc)))
    report = check_certificate(cert, get_problem(cell[0], **cell[1]).spec)
    text = "".join("%s\t%s\t%s\n" % (check.name, check.passed, check.detail)
                   for check in report.checks)
    # on a mismatch, the report's lines show which detail moved
    assert report.passed and len(report.checks) == 10, text
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS[label(*cell)], text

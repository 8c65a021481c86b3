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
        "12f2c6d2694b47dba325a22589cfe265a36fae626a6e7f45e5a0c3312e16fb3e",
        "7fdb66223de9618e9a369fe9cb9231eba7436e878dbf27d97725b43ddfe8d4c8"),
    "ball-linear-bisect": (
        "276418e4cf6f1a3332cd94e801781ac47d3a651e1f7927bb9099058c310f9d51",
        "6cd834a5739bf404a3ed8f9b049facb469747e3e5fc53e22df924e66d9c24649"),
    "l1-ball-rand": (
        "22132380cec1e5cb17c3b42c4b364a1fc49dac4486dae7367bf12f65c8f352b7",
        "479fe414e82c5e1f61bb969030eb647e0d0818a459596274f550ec2da5bbc92e"),
    "l1-ball-bisect": (
        "bd8e1d223309f954ef02fac0a6edf5b3c5ba0252e5d3d68859aa12092baa4d4e",
        "b9922a5313abe746c2fe4688042d3d86ad6d4e8b3d5893ca88df051f198dc261"),
    "footnote-1d-rand": (
        "d5dcdab96de400762821b2167cd0a2cb9efa7f0303d20b58b22bc18a01849670",
        "917d6e14c5295218066afb84ae276b1787cc11a623118251de4df8455f8b4d07"),
    "footnote-1d-bisect": (
        "8780be063189585619c91c29bb50c90b8c1d5fb6c317af47fa31d96bc6218aae",
        "4c619b5a780290e887b9a4702ccd00c17249156df6c260cb6e3e73c8b980e7f2"),
    "footnote-2c-rand": (
        "5a69a2b29a80fbdb97d4dc5b55502cde0b379b30276591ab44852733110f6a79",
        "1018c39a0369464e4099fa1552acf2a0be772a1b251c49197a7d7378b53a17d1"),
    "footnote-2c-bisect": (
        "fff7044f929953884cc53942d57389737cb6249ba890984ecd2337950ae965ad",
        "dddd466f3cfade7d1d70c3ec3aaf0e39705407ff575c77e45e9d5821f311e88c"),
    "pl-nonconvex-rand": (
        "23f9b8c9747e463c7ab2413808f52faa524cce2ac043c875d89d56ba6f40ff92",
        "85f7f25020b02d795d499837291e2403782e17a4a20770f09238ad459cd7b57f"),
    "pl-nonconvex-bisect": (
        "f094ade7a0e6e5e734e8e9efcb82b4c9b7f30ac97dc13676c7540a9caf581bb2",
        "8ad0fa8c34b411aec1e40ee1e9cb59a1dab194c05920085c29773e2e11bce073"),
    "ball-linear-n10-rand": (
        "8c70eabfbb5f799046ac95b32a83c60247dccb7d99a9c745b5b8360f423ceaeb",
        "7c616bab7adb03e67ffd2e5083b07637ce4e96e405547b8239e98111f2403175"),
    "ball-linear-n10-bisect": (
        "d64c79184b18a34161547e04e6dcd9be5369547f7ec6346d1b38de3876a5eeb8",
        "737afb92dfcb0a57ebc46ebfc768d977357c872fca5f898fadfcf07089b896cf"),
    "pl-nonconvex-n10-rand": (
        "bef0f7afeb4c9c3560068588aaf6d031a8364a46197eeeec7ffd6b0a77e7ceeb",
        "12d27a4f38d111cd4154c19aa4e9e20ce572e6df9b6b559d7019b4079a92d8fd"),
    "pl-nonconvex-n10-bisect": (
        "7b81b79a6057947ed3b29c59f1073ee488d570206418be0a9c88d7a1fc8d8d67",
        "51920fda47d33c66f431e12c12d3128c1edfbc30149f4c52bb5667bb687e9dcc"),
    "ball-linear-rand-kkt": (
        "2fc65e58d0e31fecb522f01d67027b2352f5dd1bbb81ed0eaca48a66a793df7a",
        "fd62bbbb6b70880e8386a765e6c1f153169086ded4b4dccb8df7e42882743cec"),
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

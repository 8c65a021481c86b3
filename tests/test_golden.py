"""Byte identity of certificate and trace documents, and of verify reports.

Each document digest is the SHA-256 of the document bytes `goldsub solve`
writes for one acceptance member at seed 0.  Each report digest is the
SHA-256 of what `goldsub verify` checks in that certificate at its
defaults: per check its name, verdict and detail string.  Each rejection
digest covers six such reports: the certificate forged with each fault of
acceptance criterion 10, checked with and without `--fast`.  Refactors must
keep them: a change that moves a byte on purpose says which bytes and why,
and updates the digest.  The document bytes also equal the standard
library encoder's (``stdlib_dumps``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
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
        "0f320b07cbc9d768e3fc511b9bdee1277e08a6b08e3c0525841f32e3a0b08da4",
        "bd04957a369608398b384923d7a4e7ccff2f70706c1e4dc33866359381ea86b4"),
    "ball-linear-bisect": (
        "608f3a3f2a5985665da5cfc500c3af6ca2db02910daf4104f8738ddda530d0e3",
        "ad7ce65e01dc1c82ee0373159aef39edf2a7ef0b06bd69f286d2010f40f9ad95"),
    "l1-ball-rand": (
        "89c587e56570ec812a6d6f14c2ad07d5784e844f8c55d61b2a14ab2d658efa2c",
        "7ac061c810f7365cf6869a9d54fce5e4c1d0b61c0c8d143a1781a29c2eb1b200"),
    "l1-ball-bisect": (
        "c5574f6d852a193f95562221dc75dfcd1be78f1b1cbc6cdd84197f19fa714eca",
        "abdd2aef0d7f77880112fa7b00bf4852962ca4d97dcd468f1326585a2c972f34"),
    "footnote-1d-rand": (
        "a25cf3812c410cb9f7cb2fc772c01eca0b1a57473305aa028086b5a97a490f18",
        "bb2507ad076237bd1528882f083474fb5d2401eae7dab482165de55af062b843"),
    "footnote-1d-bisect": (
        "2328fee6bc918f49d7cfd15d5dbc489052947d51c08c71a9fd105a754e9d119c",
        "99bea34650106de79a9f0a2d5dfc0fa16f3e79775695614f40d35286abd377c3"),
    "footnote-2c-rand": (
        "77cc49606219aa58e6a1b57c313f7398793a75515730c910014ec5c2388fd0fe",
        "e17fa4f909b3a988fbc75837a5bc99dcc142f63605307b1913f3b983ad775c76"),
    "footnote-2c-bisect": (
        "eb1da6a7fc53ea0619c0bd39804bd92168810a543871b70c610089ffa5fc464e",
        "01051a48682a75831474b8074ee5ded72f912002efa252153d1f7436b6b66753"),
    "pl-nonconvex-rand": (
        "b9d7f6f2fb9afe0e00072671e535fbc8e3c8e8a1eff5a08707b78cb9db0b63ca",
        "ab2e04fb1e7338266dc7f8e0d2e6bee048905de2ef43a6208ed2b635f3b66f04"),
    "pl-nonconvex-bisect": (
        "03fe22be3e785f8e49d312d3ea630e765702a3a8c567b82fb0aba96baa625dc6",
        "49800e5f87ceb95192c1a634c923fe851c3c822d2bbf7e0fb309bdcbffe7e0e4"),
    "ball-linear-n10-rand": (
        "8337fb52fe6107d10c875628857e6a944eae2aea7bc02805b3b02becfadcd3ae",
        "b47710aef8d9331d90d3267fc1516393e492b120b4c331e197f22d4337abd467"),
    "ball-linear-n10-bisect": (
        "2cf3cfd6b1443d81c235304c050d4e4898ba39a6848f258cf3756c352f352203",
        "a14f52a2c4427a9cc7c98d5ab39ebb0f2d0496f41c522e0a8e6fe7953fcb73c7"),
    "pl-nonconvex-n10-rand": (
        "138138e560be1c1fb681915e90499372cb30c8694beeb6a394c3d2e623ad2120",
        "0d16508e9b9f5a2a7fd4d2ddaa85bca0cd8ce40ddd978b6b52e69bfd0d5c19fe"),
    "pl-nonconvex-n10-bisect": (
        "9fbe5644b33f7fc329c008526cedd1afd74fe185ed51dc3391765a7d186638eb",
        "6e66fe6e6a62429889e05975f150e0c112728614d41ed10eafb2281ec0fc68db"),
    "ball-linear-rand-kkt": (
        "be4dc6c322296745345c3e87932b51aaf898aa25928cc961b993e554d29ace5a",
        "51591cee85e5843c73faa7f3a27a911feddc35f7bd38a0992fbd0774e28a1551"),
}


# same cells -> digest of the verify report on the decoded certificate
REPORTS = {
    "ball-linear-rand":
        "bd6ffce191504059ee1ae5bed2abafca764d4f5a796a8a5c9ad63c96d9026fc4",
    "ball-linear-bisect":
        "660ee736b2f624eede0fb7626bcc86f81282b07f92800aa777b0464c4da965ef",
    "l1-ball-rand":
        "3ee4920141e08312c31f90d4f013d5ec7e9208d4390e16536d895fcc752c95b8",
    "l1-ball-bisect":
        "02291d009dc4be9d1d4a0ff2e4c51ced06cea33a727842d57e8ff21d11356acf",
    "footnote-1d-rand":
        "8ce9522ccf6564d420267ff518561d20c7ea41d9130b569a94f0ecff1eaaa618",
    "footnote-1d-bisect":
        "e1573cb4fdf311c5a764bac63cc1314443ad4a9cda74bc267b3407b6f0e8978e",
    "footnote-2c-rand":
        "d1a045677a5557e9b12ac4502e4269c213d92cf10fe89312068e19a26c310a88",
    "footnote-2c-bisect":
        "75ca64cca8a23ca2d462501f2e722bc9ec5425ee4476387490025f7d77dd1e7b",
    "pl-nonconvex-rand":
        "de6e7b2532869983b7302b42ddd32cd90dfb87ace9c1b7e95ae673ae6e3cbc33",
    "pl-nonconvex-bisect":
        "7b3ac960fbaa80aadb3baf8c2188a49a418a3b238fee8db54a129c45be0e12d1",
    "ball-linear-n10-rand":
        "85b648cd9906af7954ff860fb83eb48101400e660747442a3965a0ae960c48a9",
    "ball-linear-n10-bisect":
        "bbad1011b62aff3b99c8d4dcfa3435fc92292b9b64916e25817bb5dff4bc29a3",
    "pl-nonconvex-n10-rand":
        "8789e36e00a2c700fe51a390e9e6c8ad92a9394f7d0c124cfa382dfdfe1896e3",
    "pl-nonconvex-n10-bisect":
        "4bb800cf47262a52a6a4939dbdde2f2e36fe8b8d10b6ef7d73f6f70e718ccc05",
    "ball-linear-rand-kkt":
        "c0d494d669ec8b8035529d5e3949caa01e7aa47599a7b07906402b0caae35ee3",
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
    doc_text = dumps(cert_doc)
    cert, manifest = certificate_from_data(json.loads(doc_text))
    # the decoder reads every key the encoder writes, on every document shape
    assert dumps(certificate_data(cert, manifest)) == doc_text
    report = check_certificate(cert, get_problem(cell[0], **cell[1]).spec)
    text = "".join("%s\t%s\t%s\n" % (check.name, check.passed, check.detail)
                   for check in report.checks)
    # on a mismatch, the report's lines show which detail moved
    assert report.passed and len(report.checks) == 11, text
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS[label(*cell)], text


# same cells -> digest of the six reports on the certificate forged with
# each fault of acceptance criterion 10, verified with and without --fast
REJECTIONS = {
    "ball-linear-rand":
        "ff39d5fc064f0799e01c44ac5281b633b647c90782fa12ea04751b08a27a6de9",
    "ball-linear-bisect":
        "039aec9955572b2bc02977b48843ac9061bf7ca001f8dfee898ee20c74f5727e",
    "l1-ball-rand":
        "d173c0374663cc20e988b9476d53a511408a40f57eb5090ac7ee02206ff3c16d",
    "l1-ball-bisect":
        "e65d8a43f025c8927e42a33299282c163ff0f0bdcd9f4eb406b369c958ab602a",
    "footnote-1d-rand":
        "bbb2f18a0dbdaf31de31c4f96fa311a82651bab848c6d5a0288b617ca23e0cc8",
    "footnote-1d-bisect":
        "9ead174b1e1cd1d91d3e30b0282eb547d2d3912c3d9acb7f25e5dd6f975be039",
    "footnote-2c-rand":
        "68ba532f1f68644e03933690c857d96cf0089b205bb349c096115215db3dc33c",
    "footnote-2c-bisect":
        "2f6b2014031b5cf329273b9df23697b36595e6b284fa99aa67c1f727b175b1b7",
    "pl-nonconvex-rand":
        "b454a4ffd1a64f47707fcb9aa088f16fdc1c2767865d6e551eaf55babc947b89",
    "pl-nonconvex-bisect":
        "1ed9990c6101188b1df66f0410acf0e600f03af608aa851ae29e7e94c1376a89",
    "ball-linear-n10-rand":
        "3256d55c882dd10ac33e3b9130f94f8ec6af9722205d59126903edb998a7223e",
    "ball-linear-n10-bisect":
        "5ff7659e7325ee85bad8bdf6f4df18b89e7cebacfdc9d12d40e5e632b17661f2",
    "pl-nonconvex-n10-rand":
        "1ec2ce6eb1be8fde5c429523cd430a82bb00a006fcb1971cab648b540604cc74",
    "pl-nonconvex-n10-bisect":
        "b26aa8eb5476a6cb82768a801841265f6ada7336b68d893a9f87ca43da10a4ee",
    "ball-linear-rand-kkt":
        "131b10ee72ec0f6dd0efc0656c5b45e74e6c124e9144a83636fc5997655c7241",
}

# criterion 10's faults, in order: (kind, the check that rejects it)
FAULTS = (("weight", "weights-sum"), ("anchor", "points-in-ball"),
          ("vector", "vector-recompute"))


def forged(cert_doc, kind, rng):
    """The parsed certificate document with one criterion-10 fault."""
    data = json.loads(dumps(cert_doc))
    combo = data["combination"]
    if kind == "weight":
        combo[int(rng.integers(len(combo)))]["weight"] += 0.1
        return data
    u = rng.standard_normal(len(data["anchor"]))
    u /= float(np.linalg.norm(u))
    if kind == "anchor":
        data["anchor"] = list(data["anchor"] + 2.0 * data["delta"] * u)
    else:
        entry = combo[int(rng.integers(len(combo)))]
        entry["vector"] = list(entry["vector"] + 1e-3 * u)
    return data


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_rejection_reports_keep_their_bytes(cell):
    cert_doc, _ = documents(*cell)
    spec = get_problem(cell[0], **cell[1]).spec
    rng = np.random.default_rng(9000)
    texts = []
    for kind, reason in FAULTS:
        cert, _ = certificate_from_data(forged(cert_doc, kind, rng))
        for fast in (True, False):
            report = check_certificate(cert, spec, stop_at_first_failure=fast)
            assert report.reason == reason, (kind, fast)
            texts.append("%s fast=%s\n" % (kind, fast) + "".join(
                "%s\t%s\t%s\n" % (check.name, check.passed, check.detail)
                for check in report.checks))
    text = "".join(texts)
    assert hashlib.sha256(text.encode()).hexdigest() == REJECTIONS[label(*cell)], text

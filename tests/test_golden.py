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
        "726d6f10c323118858a924dcb0a2a545a46aa901a1a24f74e230b2f39ac591ef"),
    "ball-linear-bisect": (
        "608f3a3f2a5985665da5cfc500c3af6ca2db02910daf4104f8738ddda530d0e3",
        "ad7ce65e01dc1c82ee0373159aef39edf2a7ef0b06bd69f286d2010f40f9ad95"),
    "l1-ball-rand": (
        "89c587e56570ec812a6d6f14c2ad07d5784e844f8c55d61b2a14ab2d658efa2c",
        "72b3c67dfeb72c841f143ff0fa554f4e6ee07e8b9571be8fa52ff9bde6174f50"),
    "l1-ball-bisect": (
        "c5574f6d852a193f95562221dc75dfcd1be78f1b1cbc6cdd84197f19fa714eca",
        "abdd2aef0d7f77880112fa7b00bf4852962ca4d97dcd468f1326585a2c972f34"),
    "footnote-1d-rand": (
        "a25cf3812c410cb9f7cb2fc772c01eca0b1a57473305aa028086b5a97a490f18",
        "51346fb48a16f5d94f709b439b6d5a582d6717955b9440e25039137d0d57ee12"),
    "footnote-1d-bisect": (
        "2328fee6bc918f49d7cfd15d5dbc489052947d51c08c71a9fd105a754e9d119c",
        "99bea34650106de79a9f0a2d5dfc0fa16f3e79775695614f40d35286abd377c3"),
    "footnote-2c-rand": (
        "77cc49606219aa58e6a1b57c313f7398793a75515730c910014ec5c2388fd0fe",
        "370900422d31c838bf6c73da373f0dc4b314463652be367f228ba8cfd0038b8b"),
    "footnote-2c-bisect": (
        "eb1da6a7fc53ea0619c0bd39804bd92168810a543871b70c610089ffa5fc464e",
        "01051a48682a75831474b8074ee5ded72f912002efa252153d1f7436b6b66753"),
    "pl-nonconvex-rand": (
        "b9d7f6f2fb9afe0e00072671e535fbc8e3c8e8a1eff5a08707b78cb9db0b63ca",
        "b405aa9077982c112ca488eddebfe3bfd201ab734d952a644a39b12116f651e5"),
    "pl-nonconvex-bisect": (
        "03fe22be3e785f8e49d312d3ea630e765702a3a8c567b82fb0aba96baa625dc6",
        "49800e5f87ceb95192c1a634c923fe851c3c822d2bbf7e0fb309bdcbffe7e0e4"),
    "ball-linear-n10-rand": (
        "8337fb52fe6107d10c875628857e6a944eae2aea7bc02805b3b02becfadcd3ae",
        "615d3f433ef7e77bb936879a0981ee64b339385fdb9e75cd81c356267cc918a1"),
    "ball-linear-n10-bisect": (
        "2cf3cfd6b1443d81c235304c050d4e4898ba39a6848f258cf3756c352f352203",
        "a14f52a2c4427a9cc7c98d5ab39ebb0f2d0496f41c522e0a8e6fe7953fcb73c7"),
    "pl-nonconvex-n10-rand": (
        "138138e560be1c1fb681915e90499372cb30c8694beeb6a394c3d2e623ad2120",
        "66d6f144d9355b0e5a452287989edd1413c8cfea7bc6fb8c2f135675fe25051f"),
    "pl-nonconvex-n10-bisect": (
        "9fbe5644b33f7fc329c008526cedd1afd74fe185ed51dc3391765a7d186638eb",
        "6e66fe6e6a62429889e05975f150e0c112728614d41ed10eafb2281ec0fc68db"),
    "ball-linear-rand-kkt": (
        "be4dc6c322296745345c3e87932b51aaf898aa25928cc961b993e554d29ace5a",
        "ec8b05a104fb2be773ebde11bfa31c738373a1f22f5c4ca82b4b70ef51061637"),
}


# same cells -> digest of the verify report on the decoded certificate
REPORTS = {
    "ball-linear-rand":
        "28007835fe929ec70ed6405c0db19654dd676ab8f76686991ce4eba8b7b48c79",
    "ball-linear-bisect":
        "ab514f6473418a943326bea6422c1956937576cd0717b8c9227fda2343ee65fd",
    "l1-ball-rand":
        "7410de9fd305320e98e3f9d8c060935f21880596549b21baf0504bdce03ae10f",
    "l1-ball-bisect":
        "3015cc149062b661531ddc0095fd77d9438ebb0335de524a3c7494e17cd8f745",
    "footnote-1d-rand":
        "1cc7130f5e18d76fa2cddfe83534188ccd891d416cbc6e17b5880a42b87461b1",
    "footnote-1d-bisect":
        "8375d8f256b9fa1619b55ca1a427d0cb7d7bb1a408948fef2ba5f654e3579400",
    "footnote-2c-rand":
        "0b230c4decad5cbda5777edca94f5988f09c6f781b206a5274e516b956c2c882",
    "footnote-2c-bisect":
        "6f769825f08215cf7c3c604fdfa063060d3aa424b48a8cc1bd418edfdc920fd2",
    "pl-nonconvex-rand":
        "8648887e9f0381fbe391ca193e406bd9611565bc1b508dbb862923d66dc6dd09",
    "pl-nonconvex-bisect":
        "9c20480708abbce2d1513fcd222a75bf607643a4b9233b74435de23d7354c17a",
    "ball-linear-n10-rand":
        "19e058f8f0e4b462af9ba5f99f730a04a6b79fe6e1717dc8352e9aabbe681f28",
    "ball-linear-n10-bisect":
        "c918df16c84bf9549f5d5a4688557f363f6ad7feade2b638496eecd194f40b87",
    "pl-nonconvex-n10-rand":
        "87092dbbd105808152e7f92c42299a416933cdcf745cc47fa89c4f2c66f86f76",
    "pl-nonconvex-n10-bisect":
        "ca90ddaddebf64bdb44a3c7ee64a0b677cf4888ff46c313856e2ef216009776b",
    "ball-linear-rand-kkt":
        "9a83bda78456290e3dccbce78816f2a90f913bf860cc9e7a338ef559d0d6554c",
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
        "c522702f454c293240be7982924afe5f59626457b11a9f3e3d234698e77dc602",
    "ball-linear-bisect":
        "dfc4b27c41c902a34a60a0118e95eb429e6d6f7ee5d6ff7c5f612c660cb8c63f",
    "l1-ball-rand":
        "78f7ac6e8a54bd923d2dda5f4fe89eb11550279ad90338ada28676b8f0002e45",
    "l1-ball-bisect":
        "97d603209b83203c80abffb28c389752b253a70b2cccf9dc7520fb6090115a7e",
    "footnote-1d-rand":
        "462195ffeefd19998d17bf9b25d57f788aecb70627051ae8448f73532d025478",
    "footnote-1d-bisect":
        "aa5761027bdd5df14b741183e3ddccaaba46d6007c05a95920d365eff756b57b",
    "footnote-2c-rand":
        "8de525631fb9d07f83d4139730cae6a023aa34fdb56ca042f9c742e05eaa55c7",
    "footnote-2c-bisect":
        "8e3c0cc2e0fdaf528f541be677223af58d35db66d6aabc1ef26f5c1d998ba42b",
    "pl-nonconvex-rand":
        "39876e2b8ef713ad5f6c5b2ae30892538d3866a800c37aae565adffb32402219",
    "pl-nonconvex-bisect":
        "37ca30c6fbc45865872a64df8f645dc3755ad7ee15aa4a59246709466a6b66ad",
    "ball-linear-n10-rand":
        "cc6d206aa0a8723d05399704ec07c80e3cb6c0c79fb9bce7fe04ebf3d205ee90",
    "ball-linear-n10-bisect":
        "815795b3d8e2cacbcd9f50b436551eaf9efedf0458d0fdc496290cc2385cae03",
    "pl-nonconvex-n10-rand":
        "d4ac2b7e0366abb8b36d3c2805f2acc5204e659cfb49b7e0dc95f15ddf892ade",
    "pl-nonconvex-n10-bisect":
        "b9673f19de5fd530da139c9cefdf1960c65d8bc10f9ea63c14168c27c8c5a5a3",
    "ball-linear-rand-kkt":
        "15c43b5f941c502fa3351e04086b9a0c716bb9263029984c835103e3db979ec5",
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

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
import re

import numpy as np
import pytest

from goldsub import __version__
from goldsub.problems import ball_linear_sigma, get_problem
from goldsub.serialize import (certificate_data, certificate_from_data, dumps,
                               manifest_data, trace_data)
from goldsub.solver import BISECT, RAND, SolverConfig, solve
from goldsub.verify import (CHECK_ORDER, check_certificate, multiplier_split,
                            recombine)

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
        "6a38eaddacf016f2aebfb0db4eb633123d5a2d3eeeb920cd79e3443e82f90cf1",
    "ball-linear-bisect":
        "e6c63fdbcae558847eebc9a813731efa430322e16f5e445399d0e5442cc38052",
    "l1-ball-rand":
        "1a218e56ec1605fdefecfb3ba0e3a1970046ebe61e1bee9c097b900bba8d9f65",
    "l1-ball-bisect":
        "f1d1c1df575003c58ed744970e94c65f5c20c8c0a050eecf2e507df2b2e11dc7",
    "footnote-1d-rand":
        "a379cdc1d4626d20e9061f89e6d54970941b65d7b6dec6af02f30024eef2fe65",
    "footnote-1d-bisect":
        "740561a85de0d0c4d7010729934f8e47d6e69f6094a15d1cf1a5d80672b42c84",
    "footnote-2c-rand":
        "40a0e4714f4052da528873d3f871a2b5b41993d75ed8690b74974a9951b0accf",
    "footnote-2c-bisect":
        "ee3028c850450cf69d3e6227e2f5c4fd4f15cdc180ea03239a2d9d4376ca110b",
    "pl-nonconvex-rand":
        "3fde84f96cbe6d8d3b48c24381e66a4dbf291eed1d4244b8192bfa100d8a5a81",
    "pl-nonconvex-bisect":
        "870b3d779690099ea557d3d7474b1df3573d30313c0e7379b999d73cfac76152",
    "ball-linear-n10-rand":
        "cd94a666f5e361ee92fff8200268a9d480bf370035528ac7c3b3184895cd8f4b",
    "ball-linear-n10-bisect":
        "81ba28cd7ec5660aa3ce284cdcb658bb29de9938b04cd636c2562783fc6ee472",
    "pl-nonconvex-n10-rand":
        "6b410ee198933cb12da39eab8614c4176d3469913706a73ef8fad34b930d8c13",
    "pl-nonconvex-n10-bisect":
        "6ae836e76d445ed163b204dd3d545d6993e11f9dd2542727bf2ff0b04bce706e",
    "ball-linear-rand-kkt":
        "070a1d68ebc27b187a1526d32360220e161e15b30c03f608e7b53a573c36adbd",
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
        "ffe87f8914701007753e3e2be6632e1af1cd87154bfb1cc5918e4f2bff580460",
    "ball-linear-bisect":
        "abfa4a668e4052b9dd43705f40321bf31f36f8dc4a5ad6f907049062ba19617b",
    "l1-ball-rand":
        "b56e799f48c8da9a05886df55256a4db2eab41bee1b8d5e9690ff60e3604b5c4",
    "l1-ball-bisect":
        "067451dcfc746995d9fd41b7f485c1a95c0e61d8a23d16efb215b7011dfdb0eb",
    "footnote-1d-rand":
        "7ea91fb55c5fad42bdc2c867b8d99b300f07dd82ac7272b8a63f0170ff78da56",
    "footnote-1d-bisect":
        "6b5813adbb42878067563c756c25a403f2d3c2acf052df39676bb03910f4eea1",
    "footnote-2c-rand":
        "9531c04daca7357539845d3b1e96c25648f3da49ea574477a9403189c8761800",
    "footnote-2c-bisect":
        "28ed28603a92d369d7c86495122025351311b26124fe6eced3cf896a49e64b18",
    "pl-nonconvex-rand":
        "46da5f8773e3a4c218b1dc043103e5c883af8e69c0f31c580341545b3d4c4ca3",
    "pl-nonconvex-bisect":
        "e32255518aebc0245186ea3940575c7c95f115dd3aa39c05fd1b353bf816537d",
    "ball-linear-n10-rand":
        "068108ad5b680092a2bfdfb7ce9d78b601b672ab6ff0452f73aac47942d23460",
    "ball-linear-n10-bisect":
        "817c9688b1b4f8f8ff54b4ea51c21c8416044dc4dea21b1c1c51f04d7e506f73",
    "pl-nonconvex-n10-rand":
        "bd970beeba8ba61c70063bcdc976793cd3526990d1b442b8218bba7acc9a0c0b",
    "pl-nonconvex-n10-bisect":
        "fe31a70d66eb66f8d23d8a0918710b21bec22276a7af4346df7a1ae2d6d74fa7",
    "ball-linear-rand-kkt":
        "e0c1464af5ac27de48cb8be6c73d7f9f8d4ca72e1c8badde7972aa00c103e3f9",
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


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_golden_hulls_never_fall_back_to_lstsq(cell, monkeypatch):
    # every golden hull's bordered systems are nonsingular: LU solves them
    cert_doc, _ = documents(*cell)
    cert, _ = certificate_from_data(json.loads(dumps(cert_doc)))
    calls, lstsq = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    assert check_certificate(cert, get_problem(cell[0], **cell[1]).spec).passed
    assert calls == []


@pytest.mark.parametrize("cell", list(cells()), ids=lambda c: label(*c))
def test_the_split_reports_the_certified_kkt_residual(cell):
    cert_doc, _ = documents(*cell)
    cert, _ = certificate_from_data(json.loads(dumps(cert_doc)))
    spec = get_problem(cell[0], **cell[1]).spec
    report = check_certificate(cert, spec)
    split = report.checks[CHECK_ORDER.index("multiplier-split")].detail
    gamma0, _, lam = multiplier_split(cert.combination)
    assert gamma0 > 0.0  # every golden solve puts weight on the objective
    found = re.search(r"lam = (\S+), \|\|zeta\|\|/gamma0 = (\S+), "
                      r"3\*M\*delta/gamma0 = (\S+)$", split)
    reported_lam, residual, slack = map(float, found.groups())
    zeta = recombine(cert.combination, [np.asarray(w.vector) for w in
                                        cert.combination], spec.dim)
    m = spec.lipschitz_m
    # the stored zeta, which the report divides, recombines to within 1e-9 M
    assert residual == pytest.approx(float(np.linalg.norm(zeta)) / gamma0,
                                     rel=1e-12, abs=1e-9 * m / gamma0)
    assert reported_lam == lam
    assert slack == 3.0 * m * cert.delta / gamma0
    if cell[3]:  # KKT mode: the certificate's own residual meets its claim
        assert residual <= cert.kkt_eps

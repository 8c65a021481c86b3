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
        "48a4b1aa54d514b1a3bbfcef4c390aeff21bb404e05cb91865a5d77ec82fb3f4",
        "bb135aea363aa229f525f301e9e6cd69cad1823f6a152d03cdf08e6af80651cd"),
    "ball-linear-bisect": (
        "0a5af0d449cb1f29944b45cb37fb106cd004a8c71f2c5f10e7092ada6a771fac",
        "93858e25fb8e17fba6706a8700105f000cd897d7e5116b67d370b8021ff3bc4c"),
    "l1-ball-rand": (
        "026d6b1a8788a7b2bc7b8019dbe842af3daba949796d9d2a24373aed530717b3",
        "0ec33793643959bbf338daa254bbb583ade5ca3ae298a568bb4c6d43af75c328"),
    "l1-ball-bisect": (
        "eb918ecd89188aaf1580d3891642f70397b964f9047f936d6d0916e588d2843e",
        "b9451ab5c3d1e50308026dcc78d0b4fea65da9dc913c0e137965632e8888bec3"),
    "footnote-1d-rand": (
        "2c8123ea9bed0f596ed341575273fe85229b0eefb4596ff6f3d04859be530b91",
        "0389c2d38087b58e69b6ad1124cc362a7c1543eea9a4f9d7f6c1d7dc50f15a18"),
    "footnote-1d-bisect": (
        "048946137b4ef68b10a250de3b7842657ec19f89a7b48c9392acd29866a3f790",
        "6e0bf3b7a24769dffa63ab21c5d4708d4ce08f3d8e4aa3c6232bce49af5fd0f7"),
    "footnote-2c-rand": (
        "5bb1844c02a3787dec3303c079d1a8cb1590b9f7e2b2a7cae9df74ba7d11eb9d",
        "7abaa8191a5b5fe12c787e0d003a6826b45213623db9b759b4d47ff63c84302a"),
    "footnote-2c-bisect": (
        "c66ed7c769e87edbe782f8a062f1f91c4548ee292bd4d46a60d0fcb225705ba4",
        "f889811d971520c01bdf9b7086c47578015f021c57aa098c44962a7e8a4b13c7"),
    "pl-nonconvex-rand": (
        "c0b00860ad77a5c0e1d912080e06d60d8ca4173b3bb2eae19400ce62161b0710",
        "07a97c59aab85da6be585b293a2b44b06045b9d6706110f794502b12ecef5c7e"),
    "pl-nonconvex-bisect": (
        "63ff31223942f505fc024908d8c68a3d8f6f81ea04397b4f271329ece3f59773",
        "1fb66bdbeaeb868a26225f59535e0b3996d57e50a922fac5f6c5b07fbd1f180b"),
    "ball-linear-n10-rand": (
        "619a752261c42f2c9371048ece08eba4c7cfc07cb4c134725c2dff1d14f01e24",
        "c4a44adca73a7eba9c1ad572512da51ad5d58bd5cebd225d6e2e17d9f9580a47"),
    "ball-linear-n10-bisect": (
        "886493ab5c706b29bd95d292b690aa9bb53514e608e25033f4b2e8e958e9a4c2",
        "ec3305f1158fc0a1297ae402c9d9064e4f60942065f558c12e6cf893e81b3414"),
    "pl-nonconvex-n10-rand": (
        "71f83445be418fe66a26009ea3d934e9c8ebe5d10aec4db65f4fccbf2819a946",
        "f935cbb87ce8305e3eef33df5077a359aed05aa518c8b9b4a6fd9ba05067e6f3"),
    "pl-nonconvex-n10-bisect": (
        "ecaa55d9bb26eddfbf16ae4d9d5199dcc8706a76df3c440ed677c80f36194f6a",
        "7b5f05daae1b27d9b642f2407e687420594149e73ab65de017246184b6b7aa40"),
    "ball-linear-rand-kkt": (
        "ff233e313b3e687baa37e425619ef4a8355ef80ff8bb9f12facc811cb27a139e",
        "7544c466406df32f9d7b1ce561cc7fe61843078fbaededdae41e56fe301670b3"),
}


# same cells -> digest of the verify report on the decoded certificate
REPORTS = {
    "ball-linear-rand":
        "5377b870fbed381470bf1fee4e8854844e8b312ea0aff018e1f952bfb51cfc79",
    "ball-linear-bisect":
        "c6efa2468e727f64553edded2af284ad98055fad490885cffe8bc06739bb298e",
    "l1-ball-rand":
        "332a28aa6faba92edc9ace87c4b5ec8fe40221af99a9c856566edd3de4e2bb4a",
    "l1-ball-bisect":
        "ae04df893e34bf3452fb15f0a9a584911664514befc9d574c8875761dfffb9a7",
    "footnote-1d-rand":
        "a0190069d991f2b5d4cd50ea61cf4ba68087ac5c68b857e3d64b6e3b2dfe2118",
    "footnote-1d-bisect":
        "266e7c871059fa0158c9a0b9936a35163a0e46ed2b773f27c59ab3726111d2a5",
    "footnote-2c-rand":
        "83d27610f2da79052422f17af9ed8ca573dccdbf6bf76a9fe7ebbd94e822074a",
    "footnote-2c-bisect":
        "98d92ae62546e6ca1ecda136b3e797fc8757e0f822adab81b0697e9488417227",
    "pl-nonconvex-rand":
        "ddbcfa3158c058d55c61e71b0b1928f7a97de47f4e5f413d88225d8e85eaf675",
    "pl-nonconvex-bisect":
        "330b1d802f60d3493dae935450677053c851c9002f8ecf677d7a4cb62f9d60d4",
    "ball-linear-n10-rand":
        "1f65e026b43aa24a9fc025910d7cfbdb191d28757d8792a8b2a4d4fdf2832466",
    "ball-linear-n10-bisect":
        "d24cf0d29a720265b9d7349fc4b31816fdf841ccab4a818d707ceb6d6335e141",
    "pl-nonconvex-n10-rand":
        "106b5d7f7f2cd6c9682b16e75cf55db7c3fe9c7e9d8f0a2e271364dbbb99459b",
    "pl-nonconvex-n10-bisect":
        "4d59b837e56dea3eace8027a51b74860b53c77403912f199f69e2c608916e339",
    "ball-linear-rand-kkt":
        "e3765bc90f79389e1b6d6f6ef3786b9cb15a282e0b1a1e293aa737fabc2ab3a8",
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
    assert report.passed and len(report.checks) == 10
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS[label(*cell)]

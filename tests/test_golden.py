"""Golden CSV hashes: each figure's bytes at a small trial count are pinned.

Criterion 10 of the acceptance gate only checks that reruns agree with each
other; a drift that changes every run the same way would pass it. These
hashes catch such a drift. They were recorded with the numpy version below,
the only library the figures are computed with, once per SIMD class that
numpy dispatches its loops for: its AVX-512 loops for log, log1p, expm1 and
exp round a few last bits otherwise than its baseline loops. Under any other
numpy, or a class with no recorded set, the test skips instead of comparing
(hashes are never regenerated here). CI runs it at the recorded version,
natively and with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
X86_V4"``, which forces the baseline loops, and fails on a skip. A
deliberate change to the random stream or to a formula's operation order
must update the table and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import platform

import numpy as np
import pytest

from fairnoma.cli import main
from fairnoma.ergodic import ergodic_curve_point
from fairnoma.multiuser import ChannelSet, full_alloc_a, min_alloc_b
from fairnoma.outage import outage_point
from fairnoma.pairing import expected_gain_asup
from fairnoma.twouser import SystemParams

RECORDED_NUMPY = "2.4.6"
AVX512, BASELINE = "x86_64-avx512_skx", "x86_64-baseline"


def simd_class() -> str:
    """The class of loops numpy dispatches on this process: on x86-64, its
    AVX-512 (``X86_V4``) loops or its baseline ones (turning off ``X86_V3``
    as well moved no bit of figure 1); on any other architecture, the
    machine's name."""
    machine = platform.machine()
    if machine not in ("x86_64", "AMD64"):
        return machine
    from numpy._core._multiarray_umath import __cpu_features__
    return AVX512 if __cpu_features__.get("X86_V4") else BASELINE


def _recorded(digests: dict) -> str:
    """The digest recorded for this process's numpy and SIMD class; a skip
    naming the one that has none."""
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"golden hashes were recorded with numpy {RECORDED_NUMPY};"
                    f" this is numpy {np.__version__}")
    simd = simd_class()
    if simd not in digests:
        pytest.skip(f"no golden hashes recorded for SIMD class {simd}")
    return digests[simd]


def _same(digest: str) -> dict:
    """One digest that both recorded classes give."""
    return dict.fromkeys((AVX512, BASELINE), digest)


# (figure, trials, extra flags) -> {SIMD class: SHA-256 of figureN.csv on its
# default grid}, recorded for stream version 4 (mcsim.STREAM_VERSION) and the
# array Gauss-Kronrod quadrature of the closed forms (figures 1, 2 and 5);
# figure 2's hashes since its NOMA outage columns integrate the outage
# region, and those of figures 1, 3, 4 and 5 since the pair kernel sums its
# capacities in nats per block; figure 6's at K = 2 since the K-user kernel
# sums per block too. The baseline set was recorded under
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" on a machine with
# AVX-512
GOLDEN = [
    (1, 3000, [], {
        AVX512: "f3f5c027246d1c3c0adb681acb130518f87b1085c328404f18d7b5cb5b2b9771",
        BASELINE: "0260cea55e6c1eb1aa974c532034215291b5ba4d068b5e5b8ffff0a55ed22450"}),
    (2, 3000, [], {
        AVX512: "8079b2ddec42469c97740a4f77882c755885679fbae754b94004a97c5a7849c8",
        BASELINE: "3f4f48a0133fc0b275bc83bcc464b71d9e522b05415a4f2c9644a4d3c3755629"}),
    (3, 3000, [], {
        AVX512: "56302d8fc2b42ae924f7d7d95a18637d422f9b9068315ab37ac10538a133c7b1",
        BASELINE: "063fbcedd1ee489e798499ab81ccdaa70a979c395e9856b72137f4f411d4e348"}),
    (4, 3000, [], {
        AVX512: "1dcfccb276311577cd8a94b8009fd63ea6cbaecebe9af493d2a19f834250771f",
        BASELINE: "0685765c4deeea102ab554d70e8fb278257d94ff49585c71d4682c6733cb0db5"}),
    (5, 3000, [], {
        AVX512: "67ac2b2663620a2fa2f94322f61b128d2f50ccb576bf448b5c385b899eb4c367",
        BASELINE: "63adbdad72fc30a541a62ddab6e82206bfe424f7e84b98be97306ec6a818a4ae"}),
    (6, 3000, ["--workers", "2"], {
        AVX512: "b0fe3faa4f8d8db746cfcdc8bcfb54acb0b659aaccb3ffe602319f9036934eab",
        BASELINE: "61e88a0b73fd479a27f4fd33026ac0c821c8d97fb575110fd1306ba096800aa7"}),
    # two chunk tasks, so the parallel path really splits work
    (1, 70000, ["--workers", "2"], {
        AVX512: "3875cfd1253159a2002d2279296fada1190bf1eb2b2dcab724114675486a10b3",
        BASELINE: "d006666f06e18307edbd0db56900314c3fb56044a4563b1c4455b2c449bb320a"}),
]

# three full chunks and a partial fourth, each drawn once for the whole
# grid, at one and two workers, so buffers reused across chunks, grid
# points and threads are covered
_MULTI_CHUNK = [
    (1, ["--xi-db", "0,30,60"], {
        AVX512: "302faa5303aaa69b09bfcc0e00a731dcf68947bd3dc9746b08c846fd61ca3512",
        BASELINE: "59d6a8e4bead3ff74a6b3c33ffa42a2df94fdec6461a465b5d0c6a38afff5c7a"}),
    (2, ["--xi-db", "0,30,60"], _same(
        "172711964d767cb38ec7c248f06a34c5b678cb484c52bf9923797e605456207a")),
    (3, ["--k-grid", "2,7,30"], _same(
        "f3c6f09e185b5bfbe475602455206a8d31f8072703d00be888ec6db2ca69e3c5")),
    (6, ["--xi-db", "0,30,60"], _same(
        "ee84fd36953ed9c033e8326073896336c16789b353945f5712f20ceb13a9a2d8")),
    # the K-user kernel away from its default K = 5: at K = 1 each user's
    # root is its SNR itself, and K = 30 draws 30 gain rows per chunk
    (6, ["--k", "1", "--xi-db", "0,30,60"], _same(
        "9fba7c1629e5798242708c04311fb021f32420387280378ec6b1c56ab34734c3")),
    (6, ["--k", "2", "--xi-db", "0,30,60"], {
        AVX512: "6415ad25677be513508c0f569d6be12d41608fa15a453748fec9c6158c5fa7b3",
        BASELINE: "fb10e9645b625aa52a9e901f2277ae578ceadc748b99475cc892cb0f44ff2b10"}),
    (6, ["--k", "30", "--xi-db", "0,30,60"], _same(
        "7be814ea57e1e26fbbd1f02bdb197c770166e4d94e1c365a3a46435f1db7fa3b")),
]
GOLDEN += [(figure, 200000, grid + ["--workers", workers], digests)
           for figure, grid, digests in _MULTI_CHUNK for workers in ("1", "2")]


@pytest.mark.parametrize("figure,trials,extra,digests", GOLDEN,
                         ids=[f"figure{f}-{n}{'-'.join([''] + x)}"
                              for f, n, x, _ in GOLDEN])
def test_figure_csv_hash(figure, trials, extra, digests, tmp_path, capsys):
    digest = _recorded(digests)
    code = main(["figure", str(figure), "--trials", str(trials),
                 "--out-dir", str(tmp_path)] + extra)
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / f"figure{figure}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 over the float.hex lines of the closed forms below, recorded with
# the same numpy and per SIMD class; no figure CSV reaches these SNRs and
# betas, so this digest is what pins the quadrature engine and the K-user
# recursion bit for bit
CLOSED_FORM_DIGEST = {
    AVX512: "58fd6b96907bd590513ec9646382d0a6128e578c1a41448f5ef98fadfc3ab862",
    BASELINE: "091c809bbe3730da1bbd7234c1b1715396131e4ce777c13d8aad42086d95efa5"}
_XI_DB = range(-10, 130, 10)


def _closed_form_lines():
    xis = [10.0 ** (db / 10.0) for db in _XI_DB]
    for beta in (0.5, 1.0, 2.0):
        for xi in xis:
            yield dataclasses.astuple(ergodic_curve_point(
                SystemParams(xi=xi, beta=beta)))
    for r0 in (0.5, 2.0, 8.0):
        for xi in xis:
            yield dataclasses.astuple(outage_point(SystemParams(xi=xi, r0=r0)))
    yield tuple(expected_gain_asup(k) for k in (2, 3, 10, 30, 100, 512))
    for k, seed in ((1, 1), (2, 2), (2, 3), (5, 4), (5, 5), (30, 6)):
        gains = np.sort(np.random.default_rng(seed).exponential(size=k))
        channels = ChannelSet(tuple(gains.tolist()))
        for xi in (0.1, 10.0, 1e6):
            for alloc in (min_alloc_b(xi, channels), full_alloc_a(xi, channels)):
                yield alloc.coeffs + (alloc.residual,)


def test_closed_form_digest():
    digest = _recorded(CLOSED_FORM_DIGEST)
    text = "\n".join(" ".join(float(v).hex() for v in line)
                     for line in _closed_form_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == digest

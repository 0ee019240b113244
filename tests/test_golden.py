"""Golden CSV hashes: each figure's bytes at a small trial count are pinned.

Criterion 10 of the acceptance gate only checks that reruns agree with each
other; a drift that changes every run the same way would pass it. These
hashes catch such a drift. They were recorded with the numpy version
below, the only library the figures are computed with; under any other numpy
the floating-point kernels may round differently, so the test skips instead
of comparing (hashes are never regenerated here). CI runs it at the recorded
version and fails on a skip. A deliberate change to the random stream or to
a formula's operation order must update the table and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from fairnoma.cli import main

RECORDED_NUMPY = "2.4.6"

# (figure, trials, extra flags) -> SHA-256 of figureN.csv on its default grid,
# recorded for stream version 3 (mcsim.STREAM_VERSION) and the array
# Gauss-Kronrod quadrature of the closed forms (figures 1, 2 and 5); figure
# 2's hashes since its NOMA outage columns integrate the outage region
GOLDEN = [
    (1, 3000, [], "dfc9a19bc79e00886db483fac8f17af1c88a6365745f4d5c0207722d7f7f4d34"),
    (2, 3000, [], "71508462e326ff14e125c8decced0f5d6855d82df8a6771fe658c07b09d31a39"),
    (3, 3000, [], "66256de0ec1ed9b96d91ea19d027ba49f0a70ce62f8b84cd18bb357b173e839f"),
    (4, 3000, [], "946a560e954844cbcea41f09b5e5f3e3f099c109d92e4495a84859dcbe82673f"),
    (5, 3000, [], "5808291d5c127519608cb40e42fb995774f4e7f7d399049c751fb5d4b3b90577"),
    (6, 3000, ["--workers", "2"],
     "4df2b034cf396b3c8faf7f76953c093efb6ef255b1ed28ba4afba105665f0ebf"),
    # two chunks per grid point, so the parallel path really splits work
    (1, 70000, ["--workers", "2"],
     "bda722792a2c83e1e2bb4b868fe0cb32654b2741a053792c19d8188ec5b9283c"),
]

# three full chunks and a partial fourth per grid point, at one and two
# workers, so buffers reused across chunks, grid points and threads are
# covered
_MULTI_CHUNK = [
    (1, ["--xi-db", "0,30,60"],
     "b06cbee2b6ee36ca31c5349b72903756163db999d31733b2243a9f12955133bb"),
    (2, ["--xi-db", "0,30,60"],
     "fe905e5ad3e8997a90a0d0fdfb55978c85d3703338b894cbf26b1d364823b0ad"),
    (3, ["--k-grid", "2,7,30"],
     "d05f5970dca7c5915134940a77249cf0b902d27266865fbba025d9ffd3430beb"),
    (6, ["--xi-db", "0,30,60"],
     "80141a565d1c06c50f11aaf22d4eaad53b9f614b1ff077b0c63cf8b640fd54af"),
]
GOLDEN += [(figure, 200000, grid + ["--workers", workers], digest)
           for figure, grid, digest in _MULTI_CHUNK for workers in ("1", "2")]


@pytest.mark.parametrize("figure,trials,extra,digest", GOLDEN,
                         ids=[f"figure{f}-{n}{'-'.join([''] + x)}"
                              for f, n, x, _ in GOLDEN])
def test_figure_csv_hash(figure, trials, extra, digest, tmp_path, capsys):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"golden hashes were recorded with numpy {RECORDED_NUMPY};"
                    f" this is numpy {np.__version__}")
    code = main(["figure", str(figure), "--trials", str(trials),
                 "--out-dir", str(tmp_path)] + extra)
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / f"figure{figure}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest

"""The goldens under each OpenBLAS kernel family, not only the one this CPU picks.

numpy's OpenBLAS chooses its GEMM kernel by CPU, and kernels may round a row
differently, so each digest in tests/test_golden.py must hold under every
family, at one BLAS thread and at two (a threaded split may round a row
differently too). OPENBLAS_CORETYPE and OPENBLAS_NUM_THREADS are read when
numpy loads, so each case runs that one file in its own process; it runs no
other test file, so this module never starts itself again.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sega

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("core", ["Nehalem", "Sandybridge", "Haswell"])
def test_goldens_hold_under_core_type(core, threads):
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(sega.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_golden.py")],
        cwd=TESTS.parent, env=env, capture_output=True, timeout=600,
    )
    assert res.returncode == 0, res.stdout.decode()[-4000:] + res.stderr.decode()[-2000:]

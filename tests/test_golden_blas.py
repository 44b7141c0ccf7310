"""The goldens under each OpenBLAS kernel family, not only the one this CPU picks.

numpy's OpenBLAS chooses its GEMM kernel by CPU, and kernels may round a row
differently, so each digest in tests/test_golden.py must hold under every
family, at one BLAS thread and at two (a threaded split may round a row
differently too). OPENBLAS_CORETYPE and OPENBLAS_NUM_THREADS are read when
numpy loads, so each case runs that one file in its own process; it runs no
other test file, so this module never starts itself again. Each case leaves
out test_single_blas_thread_matches_golden, whose `python -m sega.cli` run of
trajectory_small at one thread repeats what the same core's one-thread case
checks in process; the native run of test_golden.py keeps it.

Beyond the golden sizes, the kernel cuts a product that OpenBLAS would
split over threads into one-thread parts; the thread-count test runs one
probe per core at one and two threads and compares every bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sega

TESTS = Path(__file__).resolve().parent
CORES = ["Nehalem", "Sandybridge", "Haswell"]

# Digests of products that pass OpenBLAS's threading bounds (attention.SERIAL_GEMM
# and SERIAL_DOT): the [I | M_H] pairs GEMM of a block at 48x64x16 (21 query rows,
# 1,021,440 multiply-adds) and 700x3x4 (31 rows, 1,387,808), the per-row dots of
# 101x100x2 (10,100 tokens), and the per-row GEMM of a 4x4096x16 block (524,288),
# of which the first three blocks stand in for a full run that takes seconds.
THREAD_PROBE = """
import hashlib, itertools
import numpy as np
from sega import LatentGrid, attention, make_schedule, token_features

sched = make_schedule(32, method="ntk", ratio=2.0)

def feats(h, w, c):
    return token_features(LatentGrid(np.random.default_rng([h, w, c]).standard_normal((h, w, c))), 64, 0, 0)

for shape in ((48, 64, 16), (700, 3, 4), (101, 100, 2)):
    print(shape, hashlib.sha256(attention.rotary_entropy(feats(*shape), sched, sched)[0].tobytes()).hexdigest())
digest = hashlib.sha256()
tokens, m_h, m_w = attention._tables(feats(4, 4096, 16), sched, sched, None, None, 1.0)
for _, _, block in itertools.islice(attention._logit_blocks(tokens, m_h, m_w, 4), 3):
    digest.update(block.tobytes())
print("4x4096x16 blocks", digest.hexdigest())
"""


def run_under(core, threads, *args):
    """`python ARGS` in the repo root with numpy's OpenBLAS on that core and thread count."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(sega.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *args], cwd=TESTS.parent, env=env, capture_output=True, timeout=600)
    assert res.returncode == 0, res.stdout.decode()[-4000:] + res.stderr.decode()[-2000:]
    return res.stdout.decode()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("core", CORES)
def test_goldens_hold_under_core_type(core, threads):
    run_under(core, threads, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_golden.py"),
              "-k", "not single_blas_thread")


@pytest.mark.parametrize("core", CORES)
def test_entropy_bits_do_not_depend_on_thread_count(core):
    one, two = (run_under(core, threads, "-c", THREAD_PROBE) for threads in ("1", "2"))
    assert one.count("\n") == 4
    assert one == two

"""The tests that pin two code paths bit for bit, re-run under other OpenBLAS kernels.

``OPENBLAS_CORETYPE`` picks the kernel of numpy's bundled OpenBLAS; it is set only in the
child process that re-runs the tests, and the child's own reading of the kernel's name
says whether it took.  The re-run tests are the suite's pairs of code paths pinned bit for
bit: the engine's stacked ``Mwu`` sides against two learners fed their loss rows,
``engine._losses`` against ``learners.side_loss``, self-play against an ``amwu_step`` pair, a
batch against each config run alone, an oblivious run against a per-round ``step`` loop, each
block ``play`` against its ``update`` loop (``ProdBr``'s gain among them), each batch row
against its learner alone, and each ``update`` against the checked kernels.  One re-run test
checks values within a tolerance, not a pair of paths: the self-play traces' losses, products
of whole runs, against each round's 1-D products."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
TESTS = (
    "tests/test_engine.py::TestOneMwuForBothSides",
    "tests/test_engine.py::TestLosses",
    "tests/test_engine.py::test_self_play_is_an_amwu_pair_a_round_later",
    "tests/test_engine.py::TestNonSquareSelfPlay",
    "tests/test_engine.py::test_self_play_traces_hold_each_rounds_losses",
    "tests/test_engine.py::TestRunVsAdversary::test_oblivious_run_equals_a_per_round_step_loop",
    "tests/test_engine.py::TestBatches::test_batched_series_equal_each_config_run_alone",
    "tests/test_learners.py::TestPlay",
    "tests/test_learners.py::TestBatchRows",
    "tests/test_learners.py::TestUpdatesMatchCheckedKernels",
)
# Prints the kernel that numpy's bundled OpenBLAS runs, or nothing if it does not say.
CORENAME = """
import ctypes, pathlib, numpy
libs = sorted((pathlib.Path(numpy.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_corename64_", None) if libs else None
if get is not None:
    get.argtypes, get.restype = [], ctypes.c_char_p
    print(get().decode())
"""


def _child(args, core=None):
    """Run this Python with ``args`` from the repository root, the package on its path and
    ``OPENBLAS_CORETYPE`` set to ``core`` (None: unset)."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_bit_for_bit_paths_hold_under_kernel(core):
    if core == "Haswell" and not __cpu_features__.get("AVX2"):
        pytest.skip("the Haswell kernel needs AVX2")
    default, chosen = (_child(["-c", CORENAME], c).stdout.strip() for c in (None, core))
    if not chosen or chosen == default:
        pytest.skip(f"OPENBLAS_CORETYPE={core} does not change the kernel ({default or 'unnamed'})")
    run = _child(["-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS], core)
    assert run.returncode == 0, f"under {chosen}:\n{run.stdout[-4000:]}{run.stderr[-2000:]}"

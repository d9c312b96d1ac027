"""Byte-identity across hosts: ``host_digest.py`` prints the same line under
every OpenBLAS kernel this CPU can run, with one or two BLAS threads, and with
numpy's AVX-512 dispatch turned off."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import hmas

SCRIPT = Path(__file__).with_name("host_digest.py")
SRC = str(Path(hmas.__file__).resolve().parents[1])

# /proc/cpuinfo flags each OpenBLAS core type needs ("pni" is SSE3)
CORETYPE_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "Prescott": {"sse2", "pni"},
}
NUMPY_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"  # numpy's AVX-512 dispatch targets


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


def _digest_line(**env: str) -> str:
    child_env = {k: v for k, v in os.environ.items()
                 if not k.startswith(("OPENBLAS_", "NPY_"))}
    child_env.update(env, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(SCRIPT)], env=child_env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.strip()


def test_outputs_are_the_same_bits_on_every_blas_kernel_and_thread_count():
    flags = _cpu_flags()
    coretypes = [name for name, need in CORETYPE_FLAGS.items() if need <= flags]
    runs = {f"{core}/{threads}": {"OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": threads}
            for core, threads in itertools.product(coretypes, ("1", "2"))}
    runs["no numpy AVX-512"] = {"NPY_DISABLE_CPU_FEATURES": NUMPY_AVX512}
    lines = {name: _digest_line(**env) for name, env in runs.items()}
    assert len(set(lines.values())) == 1, "\n".join(f"{k}: {v}" for k, v in lines.items())

"""CLI artifacts do not depend on the OpenBLAS kernel or thread count.

numpy's OpenBLAS picks its compute kernels for the CPU it runs on, so an
artifact built from a BLAS call can print different last digits on
different machines.  Each child process here forces one kernel through
OPENBLAS_CORETYPE and one thread count, runs every command in COMMANDS
in process through cli.main, and prints the SHA-256 of each file it
wrote.  Every child must print the same hashes.

SkylakeX is not forced, since a CPU without AVX-512 cannot run it; the
unset case runs whatever the CPU picks, SkylakeX included.
"""

import contextlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modetangle

# artifact name -> CLI arguments; each command gets "--out <tmpdir>/<name>".
COMMANDS = {
    "chsh.csv": ["chsh", "--steps", "10000"],
    "entropy-rotation.csv": ["entropy-rotation", "--steps", "10000"],
    "interferometer.csv": ["interferometer", "--steps", "10000"],
}
CORE_TYPES = (None, "Haswell", "Sandybridge", "Prescott")
THREAD_COUNTS = (1, 2)

CHILD = """
import contextlib, hashlib, io, pathlib, sys, tempfile
from modetangle.cli import main

with tempfile.TemporaryDirectory() as tmp:
    for name, args in {commands!r}.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--out", str(pathlib.Path(tmp) / name)])
        if code != 0:
            sys.exit(f"{{name}} exited {{code}}")
    for path in sorted(pathlib.Path(tmp).iterdir()):
        print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def _dynamic_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy older than 1.26 has no mode=
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


pytestmark = [
    pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OpenBLAS core types are x86-64 names",
    ),
    pytest.mark.skipif(
        not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS"
    ),
]


def start_child(core_type, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    if core_type is not None:
        env["OPENBLAS_CORETYPE"] = core_type
    package_root = str(Path(modetangle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD.format(commands=COMMANDS)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_child(proc):
    """(kernel name OpenBLAS reports, {artifact: sha256}) of one child run."""
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    lines = (stdout + stderr).splitlines()
    cores = [line.split(":", 1)[1].strip() for line in lines if line.startswith("Core:")]
    hashes = dict(line.split() for line in stdout.splitlines() if not line.startswith("Core"))
    return (cores[0] if cores else None), hashes


def test_scan_bytes_match_on_every_kernel_and_thread_count():
    runs = {}
    for core_type in CORE_TYPES:
        # The children of one core type run together: at most two at once.
        with contextlib.ExitStack() as stack:
            procs = {}
            for threads in THREAD_COUNTS:
                procs[threads] = stack.enter_context(start_child(core_type, threads))
                stack.callback(procs[threads].kill)  # a no-op once the child has exited
            for threads, proc in procs.items():
                runs[(core_type, threads)] = finish_child(proc)
    reference = runs[(None, 1)][1]
    assert sorted(reference) == sorted(COMMANDS)
    for key, (_, hashes) in runs.items():
        assert hashes == reference, f"OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS = {key}"
    # The forcing took effect: the children ran at least three distinct kernels.
    assert len({core for core, _ in runs.values()}) >= 3, runs

"""CLI artifacts do not depend on the OpenBLAS kernel, the thread count or numpy's SIMD targets.

numpy's OpenBLAS picks its compute kernels for the CPU it runs on, so an
artifact built from a BLAS call can print different last digits on
different machines.  Each child process here forces one kernel through
OPENBLAS_CORETYPE and one thread count, runs every command in COMMANDS
in process through cli.main, and prints the SHA-256 of each file it
wrote.  Every child must print the same hashes: the scans, the
oscillator reports (levels solved in plain Python) and the protocol
files (whose overlaps come from those levels, normalized in plain floats).

The child imports numpy before it calls cli.main, so numpy runs at the
kernel and thread count the child was given.  No command loads numpy, so
these children check that no artifact reaches it: the trials come from
random.Random, and every other number from plain floats.

SkylakeX is not forced, since a CPU without AVX-512 cannot run it; the
unset case runs whatever the CPU picks, SkylakeX included.

numpy's ufuncs (log1p among them) dispatch to SIMD loops built for the
CPU at hand, and on an AVX-512 CPU those round some values differently
from its baseline loops.  One more child runs with
NPY_DISABLE_CPU_FEATURES naming every dispatch target this CPU has, so
it runs numpy's baseline loops (X86_V2 on x86-64), and must print the
same hashes.  Only targets the CPU has are named, since numpy refuses to
disable one it lacks.  The scans load no numpy, so this child checks
that no scan reaches it; the near-tie rows of entropy-rotation, which
printed a different last digit through numpy's AVX-512 log1p, show it.
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
# "CONFIG" stands for the path of a file holding CONFIG_TEXT; protocol
# writes "<name>.jsonl" and "<name>.json".
COMMANDS = {
    "chsh.csv": ["chsh", "--steps", "10000"],
    "entropy-rotation.csv": ["entropy-rotation", "--steps", "10000"],
    # two rows whose 12-digit Renyi-2 cells lie within an ulp of a rounding
    # boundary: numpy's AVX-512 log1p printed ...907 there, its baseline ...906
    "entropy-rotation-near-ties.csv": [
        "entropy-rotation", "--range-min", "1.049387243465842", "--range-max", "2.092205410123951",
        "--steps", "2",
    ],
    "interferometer.csv": ["interferometer", "--steps", "10000"],
    "oscillator-0.1-64.json": ["oscillator", "--lambda", "0.1", "--truncation", "64"],
    "oscillator-0.1-1600.json": ["oscillator", "--lambda", "0.1", "--truncation", "1600"],
    "oscillator-5-1600.json": ["oscillator", "--lambda", "5", "--truncation", "1600"],
    "oscillator-100-64.json": ["oscillator", "--lambda", "100", "--truncation", "64"],
    "protocol-on": ["protocol", "CONFIG", "--gate", "on"],
    "protocol-off": ["protocol", "CONFIG", "--gate", "off"],
}
# the base config of tests/test_cli.py
CONFIG_TEXT = "trials = 2000\nseed = 11\neta = 0.9\nlambda = 0.1\n"
ARTIFACTS = sorted(
    artifact
    for name, args in COMMANDS.items()
    for artifact in ((name + ".jsonl", name + ".json") if args[0] == "protocol" else (name,))
)
CORE_TYPES = (None, "Haswell", "Sandybridge", "Prescott")
THREAD_COUNTS = (1, 2)

CHILD = """
import contextlib, hashlib, io, pathlib, sys, tempfile
import numpy  # loaded before main, which then leaves the thread count alone
from modetangle.cli import main
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

print("SIMD:", *[f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)], file=sys.stderr)

with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as out:
    config = pathlib.Path(tmp) / "run.cfg"
    config.write_text({config_text!r})
    for name, args in {commands!r}.items():
        args = [str(config) if arg == "CONFIG" else arg for arg in args]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*args, "--out", str(pathlib.Path(out) / name)])
        if code != 0:
            sys.exit(f"{{name}} exited {{code}}")
    for path in sorted(pathlib.Path(out).iterdir()):
        print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def present_simd_targets() -> list[str]:
    """numpy's dispatch targets that this CPU has, in numpy's order."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


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


def child_env(**extra_env):
    """os.environ plus extra_env, with the tested package first on PYTHONPATH."""
    env = dict(os.environ, **extra_env)
    package_root = str(Path(modetangle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


def start_child(core_type, threads, **extra_env):
    env = child_env(OPENBLAS_NUM_THREADS=str(threads), OPENBLAS_VERBOSE="2", **extra_env)
    env.pop("OPENBLAS_CORETYPE", None)
    if core_type is not None:
        env["OPENBLAS_CORETYPE"] = core_type
    return subprocess.Popen(
        [sys.executable, "-c", CHILD.format(commands=COMMANDS, config_text=CONFIG_TEXT)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_child(proc):
    """(kernel name OpenBLAS reports, enabled SIMD targets, {artifact: sha256}) of one child run."""
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    assert "warn" not in stderr.lower(), stderr
    lines = (stdout + stderr).splitlines()
    cores = [line.split(":", 1)[1].strip() for line in lines if line.startswith("Core:")]
    simd = next(line.split()[1:] for line in stderr.splitlines() if line.startswith("SIMD:"))
    hashes = dict(line.split() for line in stdout.splitlines() if not line.startswith("Core"))
    return (cores[0] if cores else None), simd, hashes


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
    reference = runs[(None, 1)][2]
    assert sorted(reference) == ARTIFACTS
    for key, (_, _, hashes) in runs.items():
        assert hashes == reference, f"OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS = {key}"
    # The forcing took effect: the children ran at least three distinct kernels.
    assert len({core for core, _, _ in runs.values()}) >= 3, runs


def test_artifacts_match_at_the_numpy_simd_baseline():
    present = present_simd_targets()
    if not present:
        pytest.skip("this CPU has no numpy SIMD target above the baseline")
    with contextlib.ExitStack() as stack:
        procs = [
            stack.enter_context(start_child(None, 1)),
            stack.enter_context(start_child(None, 1, NPY_DISABLE_CPU_FEATURES=" ".join(present))),
        ]
        for proc in procs:
            stack.callback(proc.kill)
        (_, full_simd, reference), (_, baseline_simd, hashes) = map(finish_child, procs)
    assert (full_simd, baseline_simd) == (present, [])
    assert sorted(reference) == ARTIFACTS
    assert hashes == reference

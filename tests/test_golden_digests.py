"""Golden digests: the outputs of the first commands of
``.github/outputs-identity.sh`` (the six studies at ``--trials 20 --svg``,
noise-sweep-uvd-pvd and speed-compare at ``--seed 7 --trials 20``,
``crlb --seed 3`` (also with ``--prior-std 0.5``), ``simulate --seed 3``
and ``solve`` of that batch with each estimator), of its seven
``--config`` studies (the configs of ``.github/``, among them the runs
whose theory fails by overflow or by rank) and of its ``crlb --config``
runs with the 3-D, stationary and tiny-noise configs (the last fails:
its information overflows), run in process through ``cli.main`` in a
temporary directory, against the SHA-256 digests of
``tests/golden_digests.json``: one per file written, one per command's
stdout plus exit status and one per command's stderr.

Byte identity holds per numpy build, OpenBLAS core and libc (README), so
the file records the build it was made on and the test skips, naming the
difference, on any other.  A change that alters an output on purpose
regenerates the file with ``python tests/test_golden_digests.py`` (with
``src`` on ``PYTHONPATH``) and lists each changed digest."""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from seqloc import cli

GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")
CONFIGS = Path(__file__).resolve().parents[1] / ".github"

STUDIES = ("stationary-noise", "speed-sweep", "velocity-deviation",
           "noise-sweep-uvd-pvd", "speed-compare", "circular")
# (name, argv) in the identity script's order; "batch" is the stdout that
# the solves read as batch.csv.
COMMANDS = (
    [(f"experiment-{name}", ["experiment", name, "--trials", "20", "--svg",
                             "--out", "studies"]) for name in STUDIES]
    + [(f"experiment-seed7-{name}", ["experiment", name, "--seed", "7",
                                     "--trials", "20", "--out",
                                     "seed7-studies"])
       for name in ("noise-sweep-uvd-pvd", "speed-compare")]
    + [("crlb", ["crlb", "--seed", "3"]),
       ("crlb-prior-std", ["crlb", "--seed", "3", "--prior-std", "0.5"]),
       ("batch", ["simulate", "--seed", "3"])]
    + [(f"solve-{kind}", ["solve", "--batch", "batch.csv", "--estimator",
                          kind]) for kind in ("kvd", "uvd", "pvd", "d")]
    + [(name, ["experiment", study, "--config",
               str(CONFIGS / f"identity-{config}.json"), *svg, "--out", out])
       for name, study, config, svg, out in (
           ("config-experiment-noise-sweep-uvd-pvd", "noise-sweep-uvd-pvd",
            "config", ["--svg"], "config-studies"),
           ("config-experiment-velocity-deviation", "velocity-deviation",
            "config", [], "config-studies"),
           ("stationary-experiment", "stationary-noise", "stationary", [],
            "stationary-studies"),
           ("tiny-experiment", "speed-sweep", "tiny-noise", [],
            "tiny-studies"),
           ("overflow-uvd-pvd", "noise-sweep-uvd-pvd", "overflow-uvd-pvd",
            [], "overflow-studies"),
           ("overflow-stationary", "stationary-noise",
            "overflow-stationary", [], "overflow-studies"),
           ("final-failure", "stationary-noise", "final-failure", [],
            "final-failure-studies"))]
    + [(f"{name}-crlb", ["crlb", "--config",
                         str(CONFIGS / f"identity-{config}.json")])
       for name, config in (("config", "config"),
                            ("stationary", "stationary"),
                            ("tiny", "tiny-noise"))])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build() -> dict:
    """The numpy version, the configuration of numpy's bundled OpenBLAS
    (which names the core it runs on), or None where there is none, and
    the C library (``Circular.states`` calls its ``cos`` and ``sin``)."""
    config = None
    here = Path(np.__file__).parent
    for lib in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                       *here.glob(".dylibs/*openblas*")]):
        try:
            get_config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        config = get_config().decode()
    return {"numpy": np.__version__, "openblas": config,
            "libc": " ".join(platform.libc_ver())}


def digests(directory: Path) -> dict:
    """Run COMMANDS inside ``directory`` (the current directory) and return
    the digest of each command's stdout plus exit status, by command name,
    of its stderr, by the name with ``.err`` appended, and of each file
    written, by its path relative to ``directory``."""
    out = {}
    for name, argv in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        text = stdout.getvalue()
        if name == "batch":
            (directory / "batch.csv").write_text(text, encoding="utf-8")
        out[name] = _sha256(f"{text}exit status {status}\n".encode())
        out[f"{name}.err"] = _sha256(stderr.getvalue().encode())
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[path.relative_to(directory).as_posix()] = _sha256(
                path.read_bytes())
    return out


def test_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    other = {key: (golden["build"][key], value)
             for key, value in build().items()
             if golden["build"][key] != value}
    if other:
        pytest.skip(f"the golden digests hold for another build: {other} "
                    "(golden, running)")
    monkeypatch.chdir(tmp_path)
    got, want = digests(tmp_path), golden["digests"]
    assert sorted(key for key in got.keys() | want.keys()
                  if got.get(key) != want.get(key)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        found = digests(Path(work))
        os.chdir(GOLDEN.parent)
    GOLDEN.write_text(json.dumps({"build": build(), "digests": found},
                                 indent=2) + "\n")

"""Every ```python block of README.md runs as written: the documented
library example stays in step with the API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_exits_zero(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A RuntimeWarning is an error, as in the test suite.
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr

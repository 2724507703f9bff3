"""Every ```python block of README.md runs as written, and its ```json
config is the speed-sweep default: the documented examples stay in step
with the API."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqloc import default_scenario, default_spec
from seqloc.config import scenario_from_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


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


def test_config_example_is_the_speed_sweep_default():
    """README's ```json config, drift given in ppm, resolves to exactly the
    built-in speed-sweep scenario and spec."""
    block, = re.findall(r"^```json\n(.*?)^```$", README, re.M | re.S)
    cfg, spec = scenario_from_config(json.loads(block))
    assert repr(cfg) == repr(default_scenario("speed-sweep"))
    assert spec == default_spec("speed-sweep")

"""``perfbench/selftest.py``: the benchmark tracer's hand-derived counts.

The tracer wraps library functions by name and records some of their
parameters, so a refactor that drops a traced name or a recorded parameter
fails here rather than as a crashed traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from plasmonics import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(_PERFBENCH) not in sys.path:
    sys.path.insert(0, str(_PERFBENCH))  # selftest.py imports its sibling tracing.py
_spec = importlib.util.spec_from_file_location("selftest", _PERFBENCH / "selftest.py")
selftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(selftest)


def test_tracer_selftest(tmp_path):
    assert selftest.run(cli, tmp_path) == []

"""The benchmark tracer (perfbench/tracing.py) wraps functions at fixed
names in bgprel.cli, bgprel.pipeline and bgprel.gcn.  Installing it in a
fresh interpreter fails if a refactor unbinds one of those names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing; "
        "tracing.install(tracing.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

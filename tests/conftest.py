import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def perfbench_score():
    """The benchmark's scorer (perfbench/score.py), which reads the
    program's output files without the program's help."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "score.py"
    spec = importlib.util.spec_from_file_location("perfbench_score", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module

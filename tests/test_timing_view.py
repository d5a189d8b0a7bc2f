"""The timing view imports no NumPy (docs/ARCHITECTURE.md §1).

Lowering, scheduling, iteration pricing, the A4 search and the modeled
serving loop never load NumPy, and neither does ``import repro.cli``:
the packages resolve their public names lazily from one name -> module
table each (:func:`repro._lazy.lazy_names`), and every mixed module is
split into a cycle half and a NumPy half.  The guard runs in a fresh
interpreter, because this test process has NumPy loaded already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Each stage of a modeled run, then whether NumPy was loaded after it.
TIMING_RUN = """
import json, sys
loaded = {}
from repro.serving import (
    ContinuousBatchingScheduler, ServingConfig, make_arrival_model,
    synthesize_requests,
)
requests = synthesize_requests(make_arrival_model("poisson", 4.0, seed=3), 6, seed=3)
config = ServingConfig(s=32, architecture="A3", max_batch=4)
assert len(ContinuousBatchingScheduler(config).run(requests).completed) == 6
loaded["scheduler_run"] = "numpy" in sys.modules
from repro.hw.controller import LatencyModel
assert LatencyModel().latency_report(32, "A3").total_cycles > 0
loaded["latency_report"] = "numpy" in sys.modules
from repro.hw.dse import synthesize_a4
assert synthesize_a4(s=8).optimized_cycles > 0
loaded["synthesize_a4"] = "numpy" in sys.modules
import repro.cli
loaded["import_cli"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def _fresh(code: str):
    """The JSON that ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_modeled_path_loads_no_numpy():
    assert _fresh(TIMING_RUN) == dict.fromkeys(
        ("scheduler_run", "latency_report", "synthesize_a4", "import_cli"), False
    )


def test_cli_import_leaves_the_lowering_unloaded():
    """``repro-asr --help`` and ``inventory`` compile no block-program
    IR: the commands that price cycles import it when they run."""
    code = "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    assert "repro.hw.program" not in _fresh(code)


LAZY_MODULES = [
    "repro.analysis", "repro.hw", "repro.hw.controller", "repro.model",
    "repro.obs", "repro.serving",
]


@pytest.mark.parametrize("name", LAZY_MODULES)
def test_lazy_names_resolve_to_their_defining_modules(name):
    module = importlib.import_module(name)
    table = module._EXPORTS
    exported = [n for names in table.values() for n in names]
    assert len(set(exported)) == len(exported)
    if hasattr(module, "__all__"):
        assert set(exported) <= set(module.__all__)
        assert set(module.__all__) <= set(dir(module))
        for extra in set(module.__all__) - set(exported):
            assert getattr(module, extra).__module__ == name
    for source, names in table.items():
        defining = importlib.import_module(source)
        for public in names:
            want = defining if source == f"{name}.{public}" else vars(defining)[public]
            assert getattr(module, public) is want, f"{name}.{public}"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")

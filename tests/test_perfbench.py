"""The benchmark under perfbench/ keeps running against the package."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    tracer = _tracer()
    for mod_name, fn_name, _hook in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"{mod_name}.{fn_name}"


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

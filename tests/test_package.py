"""The package's exported names and the per-layer demos still work."""

import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import kgrec

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    assert len(set(kgrec.__all__)) == len(kgrec.__all__)
    assert [name for name in kgrec.__all__ if not hasattr(kgrec, name)] == []


def test_import_loads_no_scipy_module():
    # `import scipy.sparse` alone costs about 15 MiB of resident memory in
    # every process; kgrec loads only scipy's compiled sparse kernels
    env = dict(os.environ, PYTHONPATH=str(Path(kgrec.__file__).resolve().parent.parent))
    code = "import sys, kgrec; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                            capture_output=True, text=True).stdout.split()
    assert "kgrec.graph" in loaded
    assert [name for name in loaded if name == "scipy" or name.startswith("scipy.")] == []


@pytest.mark.parametrize("demo", ["01_taped_gradients.py", "02_graph_candidates.py",
                                  "03_transe_embeddings.py", "04_user_simulator.py",
                                  "05_train_agent.py", "06_experiments_cli.py"])
def test_layer_demo_runs(demo, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where mkdtemp writes
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out

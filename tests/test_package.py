"""The package's exported names and the per-layer demos still work."""

import runpy
import tempfile
from pathlib import Path

import pytest

import kgrec

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    assert len(set(kgrec.__all__)) == len(kgrec.__all__)
    assert [name for name in kgrec.__all__ if not hasattr(kgrec, name)] == []


@pytest.mark.parametrize("demo", ["01_taped_gradients.py", "02_graph_candidates.py",
                                  "03_transe_embeddings.py", "04_user_simulator.py",
                                  "05_train_agent.py"])
def test_layer_demo_runs(demo, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where mkdtemp writes
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out

"""The README's examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from qubdoe.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


@pytest.mark.parametrize("document", blocks("json"),
                         ids=lambda document: document.split('"')[3])
def test_json_example_passes_check(document, tmp_path, capsys):
    path = tmp_path / "building.json"
    path.write_text(document, encoding="utf-8")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith("OK: ")


def test_library_example_runs():
    (library,) = blocks("python")
    namespace = {}
    exec(compile(library, "README.md", "exec"), namespace)
    assert namespace["estimate"].H_qub == pytest.approx(51.18, rel=1e-3)
    assert namespace["best"].valid

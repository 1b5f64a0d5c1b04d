"""The README's examples run as written."""
from __future__ import annotations

import inspect
import os
import re
import shlex
from pathlib import Path

import pytest

import qubdoe.buildings
from qubdoe import cli, doe, network
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
    assert namespace["errors"].shape == (40, 40)
    assert namespace["best"].valid


def commands(block):
    return [line for line in block.splitlines() if line.startswith("qubdoe ")]


def shell_examples():
    """The shell blocks that run ``qubdoe``, by their first command; the
    ``simulate`` and ``sweep`` examples print the default BLAS kernels'
    digits."""
    for block in blocks("sh"):
        if commands(block):
            command = commands(block)[0].split()[1]
            pinned = command in ("simulate", "sweep")
            yield pytest.param(block, id=command,
                               marks=[pytest.mark.default_blas_digits] if pinned else [])


@pytest.mark.parametrize("block", shell_examples())
def test_shell_example_prints_its_comments(block, tmp_path, monkeypatch, capsys):
    """Each ``qubdoe`` line of a shell example runs through ``main`` in a
    fresh directory, with ``$BUNGALOW`` set as the README sets it, and the
    block's ``# `` lines, cut at any ``...``, begin what it prints."""
    bungalow = Path(inspect.getfile(qubdoe.buildings)).parent / "data" / "bungalow.json"
    monkeypatch.setenv("BUNGALOW", str(bungalow))
    monkeypatch.chdir(tmp_path)
    out = ""
    for line in commands(block):
        code = main(shlex.split(os.path.expandvars(line))[1:])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        out += captured.out
    comments = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    expected = "\n".join(comments).split("...")[0]
    assert expected and out.startswith(expected)


def test_flag_table_matches_the_parser():
    """Each row of the protocol-flag table lists, in ``--help`` order, the
    protocol flags its commands take, and every flag is documented."""
    rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| `(--[^`]*)`", README, flags=re.M)
    protocol = {flag for _, flags in rows for flag in flags.split()}
    listed = []
    for names, flags in rows:
        for command in re.findall(r"`(\w+)`", names):
            listed.append(command)
            taken = cli._COMMANDS[command][1].split()
            assert flags.split() == [flag for flag in taken if flag in protocol], command
    assert sorted(listed) == sorted(name for name, (_, taken, _) in cli._COMMANDS.items()
                                    if protocol & set(taken.split()))
    assert [flag for flag in cli._FLAGS if flag.startswith("--") and flag not in README] == []


def test_document_table_matches_the_parser():
    """The building-document table lists each record list's keys in the
    parser's field order, then the extra keys it accepts, with whether
    each must be given."""
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([\w ]+) \|", README, flags=re.M)
    given = {network._text: "required", network._number: "required",
             network._optional_text: "optional", network._air_mass: "one of"}
    expected = []
    for name, (_, fields) in network._RECORDS.items():
        expected += [(name, key, given[read]) for key, read in fields]
        extra = network._KEYS[name] - {key for key, _ in fields}
        expected += [(name, key, "one of") for key in sorted(extra)]
    assert rows == expected


def test_csv_schemas_are_what_the_commands_print(tmp_path, capsys):
    """Each block of the CSV-schema section opens with the header its
    command prints: the trace, the sweep grid, the mode table and the
    estimate, in that order."""
    section = README.split("\n## CSV schemas\n")[1].split("\n## ")[0]
    schemas = [block.splitlines()[0]
               for block in re.findall(r"^```\n(.*?)^```", section, flags=re.M | re.S)]
    bungalow = str(Path(inspect.getfile(qubdoe.buildings)).parent / "data" / "bungalow.json")
    trace = str(tmp_path / "trace.csv")
    assert main(["simulate", bungalow, "--out", trace]) == 0
    printed = []
    for argv in (["simulate", bungalow],
                 ["sweep", bungalow, "--ph-range", "1000:2000:2", "--t-range", "3600:7200:2"],
                 ["eig", bungalow], ["estimate", "--trace", trace]):
        assert main(argv) == 0
        printed.append(capsys.readouterr().out.partition("\n")[0])
    assert printed[1] == doe.GRID_HEADER
    assert schemas == printed

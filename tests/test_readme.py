"""The README's Python examples and its CLI block run as written, and its
JSON format examples parse."""

import json
import re
import shlex
from pathlib import Path

import pytest

from periloc.cli import main
from periloc.jsonio import law_from_obj, parse_rat, path_from_obj, point_system_from_obj

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# the CLI section's shell block: the one whose commands are all periloc's
(CLI,) = [b for b in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S) if b.startswith("periloc ")]
LAW, PATH, *POINT_SYSTEMS = (json.loads(b) for b in re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_json_formats_parse():
    law_from_obj(LAW)
    path_from_obj(PATH)
    for obj in POINT_SYSTEMS:
        point_system_from_obj(obj)


def test_explicit_ranks_pair_with_the_listed_points():
    (obj,) = [o for o in POINT_SYSTEMS if o["order_kind"] == "explicit"]
    ps = point_system_from_obj(obj)
    ranks = dict(zip(ps.points, ps.explicit_order))
    assert ranks == {parse_rat(p): r for p, r in zip(obj["points"], obj["explicit_order"])}


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the block's commands run in order, from a directory holding the
    # README's law.json; each one exits 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "law.json").write_text(json.dumps(LAW), encoding="utf-8")
    for line in CLI.splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "periloc", line
        assert main(argv) == 0, line
        capsys.readouterr()

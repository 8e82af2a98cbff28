"""The package's exports against the list of them in README.md."""

import re
import types
from pathlib import Path

import seqmeas

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api() -> list:
    """``(module, name)`` for every name in the README's Python API bullets."""
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1]
    bullets = section.split("\n\n* ", 1)[1].split("\n\n", 1)[0]
    listed = []
    for bullet in bullets.split("\n* "):
        head, names = bullet.split(":\n", 1)
        module = head.split("`")[1].removeprefix("seqmeas.")
        listed += [(module, name) for name in re.findall(r"`(\w+)`", names)]
    return listed


def test_readme_lists_every_export_under_its_module():
    exports = [
        (obj.__module__.removeprefix("seqmeas."), name)
        for name, obj in vars(seqmeas).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert sorted(readme_api()) == sorted(exports)

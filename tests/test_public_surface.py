"""The package's public names and README "Library use" name each other."""

from __future__ import annotations

import re
from pathlib import Path

import bktfit

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _backticked(prose: str) -> list[str]:
    return re.findall(r"`([^`]+)`", prose)


def test_every_public_name_is_in_library_use():
    parts = _library_use().split("```")
    code, prose = parts[1::2], parts[0::2]
    words = set()
    for text in code + _backticked("".join(prose)):
        words.update(re.findall(r"\w+", text))
    missing = [name for name in bktfit.__all__ if name not in words]
    assert not missing, f"bktfit.__all__ names missing from README Library use: {missing}"


def test_building_blocks_paragraph_names_only_package_attributes():
    paragraph = next(
        p
        for p in _library_use().split("\n\n")
        if p.startswith("The building blocks are public as well")
    )
    names = [re.match(r"[\w.]+", span).group() for span in _backticked(paragraph)]
    assert len(names) > 10
    for name in names:
        target = bktfit
        for part in name.removeprefix("bktfit.").split("."):
            assert hasattr(target, part), f"README names {name!r}, which bktfit does not have"
            target = getattr(target, part)

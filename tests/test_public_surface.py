"""The package's public names and README "Library use" name each other."""

from __future__ import annotations

import importlib
import pkgutil
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


# Calls in Library use that are not bktfit's: numpy's generator and the
# constraint margin's math notation.
_NOT_BKTFIT_CALLS = {"Generator", "c"}


def test_every_call_library_use_names_is_a_package_attribute():
    modules = [bktfit] + [
        importlib.import_module(f"bktfit.{module.name}")
        for module in pkgutil.iter_modules(bktfit.__path__)
    ]
    prose = "".join(_library_use().split("```")[0::2])
    calls = [re.match(r"[\w.]+(?=\()", span) for span in _backticked(prose)]
    names = [call.group().removeprefix("bktfit.") for call in calls if call]
    assert "simulate_dataset" in names
    for name in set(names) - _NOT_BKTFIT_CALLS:
        head, _, rest = name.partition(".")
        owners = [module for module in modules if hasattr(module, head)]
        assert owners, f"README Library use calls {name!r}, which no bktfit module has"
        target = getattr(owners[0], head)
        for part in filter(None, rest.split(".")):
            assert hasattr(target, part), f"README Library use calls {name!r}, which bktfit lacks"
            target = getattr(target, part)

"""The README names only package objects that exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _resolve(dotted: str):
    # degenwave.<module>[.<name>...]: import the module, then walk the rest
    parts = dotted.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for name in parts[2:]:
        obj = getattr(obj, name)
    return obj


def test_every_named_package_object_resolves():
    names = sorted(set(re.findall(r"\bdegenwave(?:\.[A-Za-z_]\w*)+",
                                  README.read_text(encoding="utf-8"))))
    assert names, "the README names no package objects"
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"README names objects that do not exist: {missing}"

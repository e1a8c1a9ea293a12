"""``repro.__version__``, single-sourced from packaging metadata.

The package resolves ``__version__`` from here on first use, so ``import
repro`` itself reads no file and imports no metadata backend.
"""

from __future__ import annotations

import pathlib
import re


def _detect_version() -> str:
    """The version of the ``repro`` project this code belongs to.

    Run from a checkout (``PYTHONPATH=src`` or ``pip install -e``): the
    adjacent ``pyproject.toml`` answers when it names project ``repro`` —
    one small file read.  Installed as a wheel there is no such file and
    ``importlib.metadata`` has the version; asking it first would cost a
    scan of every ``sys.path`` entry on each start from a checkout.
    """
    try:
        text = (pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml").read_text(
            encoding="utf-8"
        )
    except OSError:
        text = ""
    # A targeted regex instead of a TOML parser: tomllib is 3.11+ and this
    # package supports 3.10.
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
    if match and re.search(r'^name\s*=\s*"repro"', text, re.M):
        return match.group(1)
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # PackageNotFoundError, or a metadata backend quirk
        return "0.0.0+unknown"


__version__ = _detect_version()

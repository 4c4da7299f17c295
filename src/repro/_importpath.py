"""The import path a child interpreter needs to ``import repro``.

A sidecar (``python -m repro.service.server``) and the fork server that
``ProcessRuntime`` workers are forked from are fresh interpreters; they
find the package however the parent was launched (pytest, a script, an
installed package) because their ``PYTHONPATH`` leads with the directory
that holds it.
"""

from __future__ import annotations

import os
from typing import Mapping

__all__ = ["child_pythonpath"]

#: the directory that holds the ``repro`` package
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_pythonpath(environ: Mapping[str, str] = os.environ) -> str:
    """*environ*'s ``PYTHONPATH`` with the package root in front."""
    return PACKAGE_ROOT + os.pathsep + environ.get("PYTHONPATH", "")

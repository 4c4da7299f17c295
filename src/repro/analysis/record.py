"""The benchmark record and its append-only trajectory file.

Every suite in :mod:`repro.analysis.suites` reports a flat list of
:class:`Measurement` records: a name, a unit, the value the bounds
judge, the raw samples behind it and the parameters that produced it.
Derived numbers (factors, rates, speedups) are records too, computed
once by the suite that measured them.

A *run* is ``{fingerprint, scale, measurements, bounds}``: who measured
(:func:`fingerprint`, the same fields joinbench records), at which
scale, every record, and the bound rows judged against them (see
:mod:`repro.analysis.bounds`).  ``BENCH_trajectory.json`` holds every
run under one schema version; :func:`append_run` only ever adds a run
at the end, and refuses a file it cannot read rather than replacing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field

__all__ = [
    "SCHEMA",
    "Measurement",
    "fingerprint",
    "load_trajectory",
    "append_run",
    "render_records",
    "render_rows",
    "render_run",
]

#: the one trajectory schema this module reads and writes
SCHEMA = 1

_RUN_KEYS = ("fingerprint", "scale", "measurements", "bounds")
_HEAD = '{"schema": %d, "runs": [\n' % SCHEMA
_TAIL = "\n]}\n"

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Measurement:
    """One named number, with the samples and parameters behind it."""

    name: str
    unit: str
    value: float
    samples: list[float] = field(default_factory=list)
    params: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# who measured
# ----------------------------------------------------------------------
def _source_digest() -> str:
    """Digest of the package source (joinbench's ``source_digest``)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(_SRC):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_build", "__pycache__")))
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, _SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_SRC, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """Cores this process may use, interpreter, NumPy, kernel, code version.

    ``nproc`` counts the CPUs in this process's affinity mask, not the
    machine's: a runner pinned with ``taskset`` cannot use the others.
    """
    import numpy

    from ..core._cbuild import compiled_module

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tj_backend": "c" if compiled_module() is not None else "py",
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "platform": sys.platform,
    }


# ----------------------------------------------------------------------
# the trajectory file
# ----------------------------------------------------------------------
def _lines(items) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(" " + json.dumps(i, sort_keys=True) for i in items) + "\n]"


def _run_text(run: dict) -> str:
    """One run, one record or bound row per line."""
    return (
        f'{{"fingerprint": {json.dumps(run["fingerprint"], sort_keys=True)}, '
        f'"scale": {json.dumps(run["scale"])}, '
        f'"measurements": {_lines([asdict(m) for m in run["measurements"]])}, '
        f'"bounds": {_lines(run["bounds"])}}}'
    )


def _parse(text: str) -> list[dict]:
    try:
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unsupported trajectory schema {doc.get('schema')!r}")
        runs = []
        for run in doc["runs"]:
            if sorted(run) != sorted(_RUN_KEYS):
                raise ValueError(f"run keys {sorted(run)} are not {list(_RUN_KEYS)}")
            run = dict(run, measurements=[Measurement(**m) for m in run["measurements"]])
            runs.append(run)
        return runs
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed trajectory: {exc!r}") from exc


def load_trajectory(path: str) -> list[dict]:
    """Every run in *path*; raises ValueError unless it is schema :data:`SCHEMA`."""
    with open(path) as fh:
        return _parse(fh.read())


def append_run(path: str, run: dict) -> None:
    """Add *run* at the end of the trajectory at *path* (created if absent).

    The earlier runs keep their bytes.  A file that does not parse as a
    trajectory raises ValueError and is left exactly as it was.
    """
    try:
        with open(path) as fh:
            old = fh.read()
    except FileNotFoundError:
        new = _HEAD + _run_text(run) + _TAIL
    else:
        if not old.endswith(_TAIL):
            raise ValueError(f"{path} does not end like a trajectory this module wrote")
        new = old[: -len(_TAIL)] + ",\n" + _run_text(run) + _TAIL
    _parse(new)  # the old runs and the new one, before anything is written
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(new)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_records(records) -> str:
    return "\n".join(
        f"{m.name:<36} {m.value:>14.6g} {m.unit:<5} {f'n={len(m.samples)}' if m.samples else ''}".rstrip()
        for m in records
    )


def render_rows(rows) -> str:
    lines = []
    for r in rows:
        judged = "-" if r["value"] is None else f"{r['value']:.6g}"
        if r["limit"] is not None:
            judged += f" {r['op']} {r['limit']:g}"
        lines.append(f"{r['status']:<15} {r['row']:<32} {judged:<26} {r['reason']}".rstrip())
    return "\n".join(lines)


def render_run(run: dict) -> str:
    """The fingerprint line, every record, then every bound row."""
    parts = [f"{run['scale']} run: {json.dumps(run['fingerprint'], sort_keys=True)}"]
    parts.append(render_records(run["measurements"]))
    if run["bounds"]:
        parts.append(render_rows(run["bounds"]))
    return "\n".join(parts)

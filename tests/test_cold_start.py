"""Cold start: each entry point imports only the code it runs.

Every ``ProcessRuntime`` worker is a fork of one fork server that
preloads the worker's modules, and every sidecar is a fresh interpreter,
so what an entry point imports is paid once per server or sidecar, and
every worker inherits it.  Each case here
runs a fresh interpreter with ``PYTHONPATH=src`` and asserts on module
names, never on times: the packages export their names lazily, the
policy registry lists every built-in without importing it, and neither
TJ-SP kernel loads NumPy.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.core._cbuild import BACKEND_ENV, compiled_module

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: modules none of the light entry points may load
HEAVY = ("numpy", "asyncio", "repro.formal.exhaustive", "repro.predict", "repro.analysis")

#: the packages whose ``__init__`` exports lazily
PACKAGES = (
    "repro",
    "repro.core",
    "repro.runtime",
    "repro.armus",
    "repro.formal",
    "repro.kj",
    "repro.constructs",
    "repro.tools",
    "repro.service",
)

BUILTIN_POLICIES = [
    "KJ-CC", "KJ-SS", "KJ-VC", "TJ-GT", "TJ-JP", "TJ-OM", "TJ-SP", "TJ-SP-legacy", "none",
]


def run_fresh(code: str, **env: str):
    """Run *code* in a fresh interpreter; return the JSON its last line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "imports",
    [
        "import repro",
        "import repro.runtime.procs",  # every ProcessRuntime worker
        "import repro.runtime.procs, repro.service.client",  # the workers' fork server
        "import repro.service.server",  # every sidecar
        "import repro.armus.hybrid, repro.core.policy",  # verify-replay
        "import repro.tools.cli",  # repro serve, before the subcommand
    ],
)
def test_entry_point_leaves_heavy_modules_unloaded(imports):
    loaded = run_fresh(
        f"""
        import json, sys
        {imports}
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
        """
    )
    assert loaded == []


def test_every_export_resolves():
    unresolved = run_fresh(
        f"""
        import importlib, json
        bad = []
        for name in {PACKAGES!r}:
            package = importlib.import_module(name)
            for attr in package.__all__:
                try:
                    getattr(package, attr)
                except Exception as exc:
                    bad.append(f"{{name}}.{{attr}}: {{exc!r}}")
        print(json.dumps(bad))
        """
    )
    assert unresolved == []


def test_finish_stays_the_construct_after_its_submodule_loads():
    """``constructs/finish.py`` defines ``finish``: importing that submodule
    must not bind the module over the name."""
    kinds = run_fresh(
        """
        import json, sys, types
        import repro.constructs.finish
        import repro
        from repro.constructs import finish
        defined = sys.modules["repro.constructs.finish"].finish
        print(json.dumps([
            x is defined and not isinstance(x, types.ModuleType)
            for x in (finish, repro.finish, repro.constructs.finish)
        ]))
        """
    )
    assert kinds == [True, True, True]


def test_registry_lists_every_builtin_without_importing_it():
    out = run_fresh(
        """
        import json, sys
        from repro.core.policy import POLICY_REGISTRY, make_policy
        names = sorted(POLICY_REGISTRY)
        before = sorted(m for m in sys.modules if m.startswith(("repro.core.tj_", "repro.kj.")))
        made = [make_policy(n).name for n in names]
        print(json.dumps({"names": names, "before": before, "made": made}))
        """
    )
    assert out["names"] == BUILTIN_POLICIES
    assert out["before"] == []
    assert out["made"] == BUILTIN_POLICIES


BATCH = """
    import json, sys
    from repro.core.policy import make_policy
    policy = make_policy("TJ-SP")
    root = policy.add_child(None)
    kids = [policy.add_child(root) for _ in range(4096)]
    assert policy.permits_many(root, kids) == [True] * 4096
    assert policy.permits_many(kids[0], kids) == [False] * 4096
    print(json.dumps({"backend": policy.backend, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.skipif(compiled_module() is None, reason="compiled kernel unavailable")
def test_compiled_kernel_never_loads_numpy():
    out = run_fresh(BATCH, **{BACKEND_ENV: "c"})
    assert out == {"backend": "c", "numpy": False}


def test_python_kernel_never_loads_numpy():
    """Batch checks included, at the widths that once took a NumPy path."""
    out = run_fresh(BATCH, **{BACKEND_ENV: "py"})
    assert out == {"backend": "py", "numpy": False}

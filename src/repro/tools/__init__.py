"""Operational tooling: trace recording/replay, visualisation, CLI."""

from .. import _lazy

_EXPORTS = {
    "TraceJournal": ".journal",
    "TraceRecordingPolicy": ".recorder",
    "JournalReadResult": ".journal",
    "JournalReplay": ".replay",
    "read_journal": ".journal",
    "replay_journal": ".replay",
    "replay_on_runtime": ".replay",
    "replay_on_threaded": ".replay",
    "ReplayOutcome": ".replay",
    "render_fork_tree": ".viz",
    "render_permission_matrix": ".viz",
    "fork_tree_dot": ".viz",
    "waits_for_dot": ".viz",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)

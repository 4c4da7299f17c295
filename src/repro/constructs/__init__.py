"""Higher-level parallel constructs built on the futures runtime.

The paper situates Futures as the most general join model, with Cilk's
spawn/sync and X10/HJ's async-finish as restricted special cases
(Section 1).  This package implements async-finish on top of the
verified runtime:

* :class:`finish` / :class:`FinishScope` — await all transitively
  spawned tasks (arbitrary-descendant joins; TJ's home turf).
"""

from .. import _lazy

_EXPORTS = {
    "finish": ".finish",
    "FinishScope": ".finish",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)

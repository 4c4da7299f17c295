"""The verification sidecar: remote TJ verification for many processes.

``repro.service`` turns the in-process verifier into a long-lived
multi-tenant service:

* :mod:`~repro.service.wire` — length-prefixed record protocol derived
  from the trace-journal format;
* :mod:`~repro.service.session` — one per-tenant verifier with bounded
  inbox and backpressure;
* :mod:`~repro.service.server` — the sidecar: sessions, liveness and
  the post-mortem journal;
* :mod:`~repro.service.client` — :class:`SessionClient`, the one
  client: :class:`~repro.runtime.procs.ProcessRuntime` streams its fork
  announcements and cross-process verdicts through it for audit.

See ``docs/service.md`` for the protocol and the failure-mode matrix.
"""

from .. import _lazy

_EXPORTS = {
    "SessionClient": ".client",
    "parse_remote_url": ".client",
    "ServiceJournal": ".server",
    "VerificationServer": ".server",
    "Session": ".session",
    "WIRE_VERSION": ".wire",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)

"""Join-anatomy benchmark: one command, three workloads, per-layer attribution.

Modules:

* :mod:`anatomy.common` — statistics, the metric catalogue, the machine
  fingerprint and the check ledger every workload reports through;
* :mod:`anatomy.spans` — in-memory span recording, the forwarding policy
  proxy, self-time attribution and Chrome-trace export;
* :mod:`anatomy.paper_suite`, :mod:`anatomy.verify_replay`,
  :mod:`anatomy.procs_sidecar` — the workloads.

Everything reaches the system under test through ``repro``'s public API
only; nothing here patches or instruments ``src/``.
"""

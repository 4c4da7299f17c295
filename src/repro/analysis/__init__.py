"""Result aggregation: regeneration of Table 1, Table 2 and Figure 2."""

# importing the policy packages guarantees the registry is populated for
# anyone who imports the analysis layer directly
from .. import core as _core  # noqa: F401
from .. import kj as _kj  # noqa: F401

from .figure2 import figure2_data, render_figure2
from .stats import confidence_interval, geometric_mean, mean, stdev, t_critical
from .table1 import (
    TABLE1_BOUNDS,
    ComplexityPoint,
    measure_policy_costs,
    render_table1,
)
from .figure2_svg import render_figure2_svg
from .hotpath import (
    HOTPATH_POLICIES,
    HOTPATH_SHAPES,
    HotpathMeasurement,
    render_hotpath_table,
    run_hotpath_suite,
    speedup,
)
from .io import (
    load_hotpath,
    load_reports,
    load_runtime,
    reports_from_json,
    reports_to_json,
    save_hotpath,
    save_reports,
    save_runtime,
)
from .runtime_overhead import (
    RUNTIME_POLICIES,
    JoinChainMeasurement,
    RuntimeOverheadResult,
    render_runtime_table,
    run_runtime_suite,
)
from .memsize import deep_size_of, policy_bytes_per_task
from .report import ReportConfig, build_report
from .table2 import overhead_summary, render_table2

__all__ = [
    "deep_size_of",
    "policy_bytes_per_task",
    "build_report",
    "ReportConfig",
    "render_figure2_svg",
    "reports_to_json",
    "reports_from_json",
    "save_reports",
    "load_reports",
    "mean",
    "stdev",
    "geometric_mean",
    "t_critical",
    "confidence_interval",
    "render_table2",
    "overhead_summary",
    "render_figure2",
    "figure2_data",
    "render_table1",
    "measure_policy_costs",
    "ComplexityPoint",
    "TABLE1_BOUNDS",
    "HotpathMeasurement",
    "HOTPATH_POLICIES",
    "HOTPATH_SHAPES",
    "run_hotpath_suite",
    "render_hotpath_table",
    "speedup",
    "save_hotpath",
    "load_hotpath",
    "save_runtime",
    "load_runtime",
    "JoinChainMeasurement",
    "RuntimeOverheadResult",
    "RUNTIME_POLICIES",
    "run_runtime_suite",
    "render_runtime_table",
]

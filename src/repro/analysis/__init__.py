"""Result aggregation: Table 1, Table 2, Figure 2, and the benchmark record."""

from .bounds import BOUNDS, judge
from .figure2 import figure2_data, render_figure2
from .stats import confidence_interval, geometric_mean, mean, median, stdev, t_critical
from .table1 import (
    TABLE1_BOUNDS,
    ComplexityPoint,
    measure_policy_costs,
    render_table1,
)
from .figure2_svg import render_figure2_svg
from .memsize import deep_size_of, policy_bytes_per_task
from .record import Measurement, append_run, fingerprint, load_trajectory, render_run
from .report import ReportConfig, build_report
from .suites import SUITES
from .table2 import overhead_summary, render_table2

__all__ = [
    "deep_size_of",
    "policy_bytes_per_task",
    "build_report",
    "ReportConfig",
    "render_figure2_svg",
    "mean",
    "median",
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
    "Measurement",
    "fingerprint",
    "load_trajectory",
    "append_run",
    "render_run",
    "SUITES",
    "BOUNDS",
    "judge",
]

"""Static analyses and report formatting (Tables 4.1 / 4.2).

Every public name resolves from its defining module on first access
(:func:`repro._lazy.lazy_names`), so importing the package loads
only the modules a caller reads.
"""

from repro._lazy import lazy_names

_EXPORTS = {
    "repro.analysis.bandwidth": (
        "UtilizationReport", "architecture_utilization_table", "utilization_report",
    ),
    "repro.analysis.inventory": ("WeightMatrixClass", "weight_inventory"),
    "repro.analysis.power": ("PowerTrace", "inference_power_report", "power_trace"),
    "repro.analysis.report": ("format_table",),
    "repro.analysis.retarget": ("RetargetPoint", "TARGET_CONFIGS", "retarget_study"),
}

__all__, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)

"""Post-hoc analysis tools: route stretch."""

from repro.analysis.stretch import StretchReport, stretch_report

__all__ = ["StretchReport", "stretch_report"]

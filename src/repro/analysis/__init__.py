"""Reporting helpers: text tables, ASCII plots, Pareto fronts, persistence."""

from .. import _lazy

#: public name -> the submodule that defines it
_EXPORTS = {
    "format_table": ".tables",
    "format_records": ".tables",
    "format_matrix": ".tables",
    "ascii_plot": ".ascii_plot",
    "ascii_scatter": ".ascii_plot",
    "records_to_csv": ".io",
    "save_records": ".io",
    "append_jsonl": ".io",
    "read_jsonl": ".io",
    "dominates": ".pareto",
    "pareto_front": ".pareto",
    "hypervolume": ".pareto",
    "pareto_plot": ".pareto",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)

"""Reporting: CDFs, text tables, ASCII plots, CSV export."""

from .export import atomic_write_text, write_csv, write_json
from .plotting import ascii_plot
from .tables import format_table

__all__ = [
    "write_csv",
    "write_json",
    "atomic_write_text",
    "ascii_plot",
    "format_table",
]

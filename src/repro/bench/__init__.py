"""Reporting helpers shared by the benchmark harness."""

from .reporting import (
    Table,
    banner,
    bench_scale,
    save_and_print,
    write_bench_json,
)

__all__ = [
    "Table",
    "banner",
    "bench_scale",
    "save_and_print",
    "write_bench_json",
]

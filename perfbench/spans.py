"""Spans around the public functions of each racah_dunkl layer.

``install`` wraps functions and methods of the already imported package
from outside it, so no file of the package changes and an untraced run
installs nothing.  Every wrapped call records a span (layer name, start,
end, parent span) in flat arrays; the counts that need the call's
arguments or result (multiply-adds, nonzeros, bit lengths) are computed
after the call inside a ``trace.count`` span, so that work is charged to
no layer.

A layer's self time is its span's duration minus the durations of its
direct children.  Calls run on one thread and nest properly, so the
children of a span are disjoint and lie inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

ROOT = "bench"
COUNT = "trace.count"
LAYERS = (
    ROOT,
    COUNT,
    "cli",
    "relations.sweep",
    "relations.workspace",
    "operators.apply",
    "operators.materialize",
    "linalg.matmul",
    "linalg.elementwise",
    "linalg.solve",
    "linalg.rank",
    "harmonics.tower",
    "connection.matrix",
    "connection.compose",
    "graph.pipeline",
)


class Tracer:
    """In-memory span store plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(LAYERS)}
        self.name = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxes: Counter = Counter()

    def begin(self, layer_id: int) -> int:
        index = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def record(self, layer: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; used to build span trees directly."""
        self.name.append(self.ids[layer])
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per layer: summed self time and number of spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        seconds = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, layer_id in enumerate(self.name):
            layer = LAYERS[layer_id]
            seconds[layer] += self.end[i] - self.start[i] - child[i]
            calls[layer] += 1
        return seconds, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{LAYERS[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _wrap(tracer: Tracer, layer: str, fn, after=None):
    begin, finish = tracer.begin, tracer.finish
    layer_id, count_id = tracer.ids[layer], tracer.ids[COUNT]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = begin(layer_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(index)
        if after is not None:
            index = begin(count_id)
            try:
                after(args, result)
            finally:
                finish(index)
        return result

    return wrapper


def _replace(original, wrapper) -> None:
    """Point every package module's reference to original at wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "racah_dunkl" or name.startswith("racah_dunkl."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _nonzeros_per_line(lines) -> list[int]:
    return [sum(1 for x in line if x) for line in lines]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; the package must be imported."""
    from racah_dunkl import cli, connection, graph, harmonics, linalg, operators, relations

    counts, maxes = tracer.counts, tracer.maxes
    matrix = linalg.RationalMatrix

    def den_bits(args, result) -> None:
        maxes["linalg.den_bits"] = max(maxes["linalg.den_bits"], result.den.bit_length())

    def matmul_counts(args, result) -> None:
        a, b = args
        counts["linalg.matmul.mul_adds"] += a.nrows * a.ncols * b.ncols
        counts["linalg.matmul.useful"] += sum(
            x * y
            for x, y in zip(_nonzeros_per_line(zip(*a.rows)), _nonzeros_per_line(b.rows))
        )
        den_bits(args, result)

    mul = matrix.__mul__
    matmul = _wrap(tracer, "linalg.matmul", mul, matmul_counts)
    scalar_mul = _wrap(tracer, "linalg.elementwise", mul, den_bits)

    def mul_dispatch(self, other):
        return matmul(self, other) if isinstance(other, matrix) else scalar_mul(self, other)

    matrix.__mul__ = mul_dispatch
    for method in ("__add__", "__sub__", "__neg__", "scale", "mul_diag_right", "mul_diag_left"):
        setattr(matrix, method, _wrap(tracer, "linalg.elementwise", getattr(matrix, method), den_bits))
    _replace(linalg.solve_in_span, _wrap(tracer, "linalg.solve", linalg.solve_in_span))
    _replace(linalg.matrix_rank, _wrap(tracer, "linalg.rank", linalg.matrix_rank))

    op = operators.LinearOperator
    op.__call__ = _wrap(tracer, "operators.apply", op.__call__)

    def columns(args, result) -> None:
        counts["operators.materialize.columns"] += result.shape[1]

    for fn in (operators.materialize_on_monomials, operators.materialize):
        _replace(fn, _wrap(tracer, "operators.materialize", fn, columns))

    workspace = relations.RelationWorkspace
    workspace.__init__ = _wrap(tracer, "relations.workspace", workspace.__init__)
    for name in dir(relations):
        if name.startswith("verify_"):
            fn = getattr(relations, name)
            _replace(fn, _wrap(tracer, "relations.sweep", fn))

    def elements(args, result) -> None:
        counts["harmonics.tower.elements"] += len(result)

    _replace(
        harmonics.build_basis_tower,
        _wrap(tracer, "harmonics.tower", harmonics.build_basis_tower, elements),
    )

    def entry_bits(args, w) -> None:
        bits = max(
            (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in w.entries for x in row),
            default=0,
        )
        maxes["connection.entry_bits"] = max(maxes["connection.entry_bits"], bits)

    def compose_counts(args, result) -> None:
        a, b = args
        rows, inner, cols = len(a.entries), len(b.entries), len(result.to_labels)
        counts["connection.compose.mul_adds"] += rows * inner * cols
        counts["connection.compose.useful"] += sum(
            x * y
            for x, y in zip(_nonzeros_per_line(zip(*a.entries)), _nonzeros_per_line(b.entries))
        )
        entry_bits(args, result)

    _replace(
        connection.connection_matrix,
        _wrap(tracer, "connection.matrix", connection.connection_matrix, entry_bits),
    )
    cm = connection.ConnectionMatrix
    cm.compose = _wrap(tracer, "connection.compose", cm.compose, compose_counts)

    def edges(args, result) -> None:
        counts["graph.pipeline.edges"] += len(result)
        for w in result:
            counts["connection.edge_entries"] += sum(len(row) for row in w.entries)
            counts["connection.edge_nonzeros"] += sum(1 for row in w.entries for x in row if x)

    _replace(
        graph.connection_pipeline,
        _wrap(tracer, "graph.pipeline", graph.connection_pipeline, edges),
    )
    _replace(cli.main, _wrap(tracer, "cli", cli.main))


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, except those the gate counts."""
    seconds, calls = tracer.self_times()
    c, m = tracer.counts, tracer.maxes
    out: dict[str, float] = {}
    for layer in ("linalg.matmul", "linalg.solve", "linalg.rank", "operators.apply",
                  "operators.materialize", "relations.workspace", "harmonics.tower",
                  "connection.matrix", "connection.compose"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = seconds[layer]
    for layer in ("linalg.elementwise", "relations.sweep", "graph.pipeline", "cli"):
        out[f"{layer}.self_s"] = seconds[layer]
    out["bench.self_s"] = seconds[ROOT]
    out["linalg.matmul.mul_adds"] = c["linalg.matmul.mul_adds"]
    out["linalg.matmul.useful_frac"] = _frac(c["linalg.matmul.useful"], c["linalg.matmul.mul_adds"])
    out["linalg.den_bits_max"] = m["linalg.den_bits"]
    out["operators.materialize.columns"] = c["operators.materialize.columns"]
    out["harmonics.tower.elements"] = c["harmonics.tower.elements"]
    out["connection.compose.mul_adds"] = c["connection.compose.mul_adds"]
    out["connection.compose.useful_frac"] = _frac(
        c["connection.compose.useful"], c["connection.compose.mul_adds"]
    )
    out["connection.nnz_frac"] = _frac(c["connection.edge_nonzeros"], c["connection.edge_entries"])
    out["connection.entry_bits_max"] = m["connection.entry_bits"]
    out["graph.pipeline.edges"] = c["graph.pipeline.edges"]
    return out

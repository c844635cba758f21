"""Table/series rendering for the paper's figures."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.hardware import catalog


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A plain monospaced table (what the bench harness prints)."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(row, widths)))
        for row in rows
    )
    return f"{line}\n{sep}\n{body}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def ascii_plot(
    series: Mapping[str, Mapping[int, float]],
    width: int = 64,
    height: int = 18,
    ylabel: str = "",
) -> str:
    """A terminal scatter/line plot of several (x → y) series.

    X is plotted on a log2 axis (node counts double), Y linearly; each
    series gets one marker character.  Purely for terminal inspection —
    the benchmarks remain the canonical output.
    """
    import math

    markers = "ox+*#@%&"
    points: list[tuple[float, float, str]] = []
    all_x: set[int] = set()
    for idx, (label, data) in enumerate(series.items()):
        m = markers[idx % len(markers)]
        for x, y in data.items():
            points.append((math.log2(x), float(y), m))
            all_x.add(x)
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y, m in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = m
    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            prefix = f"{y_hi:8.1f} |"
        elif i == height - 1:
            prefix = f"{y_lo:8.1f} |"
        else:
            prefix = "         |"
        lines.append(prefix + "".join(row))
    lines.append("         +" + "-" * width)
    tick_line = "          " + " " * 0
    ticks = sorted(all_x)
    tick_row = [" "] * (width + 1)
    for x in ticks:
        col = int((math.log2(x) - x_lo) / x_span * (width - 1))
        s = str(x)
        for j, ch in enumerate(s):
            if col + j < len(tick_row):
                tick_row[col + j] = ch
    lines.append("          " + "".join(tick_row))
    legend = "   ".join(
        f"{markers[i % len(markers)]} {label}"
        for i, label in enumerate(series)
    )
    header = (f"{ylabel}\n" if ylabel else "") + legend
    return header + "\n" + "\n".join(lines)


def _elapsed_cell(result: object) -> object:
    """Elapsed seconds, or a distinct marker for an annotated failed
    point (keep-going executors put those in the grid instead of
    results)."""
    elapsed = getattr(result, "elapsed_seconds", None)
    if elapsed is None:
        return f"FAILED({getattr(result, 'error_type', '?')})"
    return elapsed


def fig1_table(outcome) -> str:
    """Fig. 1: rows = rank x thread configs, columns = execution modes."""
    headers = ["ranks x threads"] + list(outcome.runtimes)
    rows = []
    for config in outcome.configs:
        row = [f"{config[0]}x{config[1]}"]
        for rt in outcome.runtimes:
            row.append(_elapsed_cell(outcome.results[(rt, config)]))
        rows.append(row)
    return ascii_table(headers, rows)


def fig2_table(fig2: Mapping[str, Mapping[int, object]]) -> str:
    """Fig. 2: rows = node counts, columns = the three variants."""
    labels = list(fig2)
    nodes = sorted(next(iter(fig2.values())))
    headers = ["nodes"] + labels
    rows = []
    for n in nodes:
        rows.append([n] + [_elapsed_cell(fig2[label][n]) for label in labels])
    return ascii_table(headers, rows)


def fig3_table(outcome) -> str:
    """Fig. 3: rows = node counts, columns = speedups + ideal.  A failed
    point renders as ``FAILED(<error>)``; a point whose variant lost its
    base run has no speedup (``-``)."""
    speedups = outcome.speedups()
    ideal = outcome.ideal()
    labels = list(speedups)
    headers = ["nodes"] + labels + ["ideal"]
    rows = []
    for n in sorted(ideal):
        row: list[object] = [n]
        for label in labels:
            cell = _elapsed_cell(outcome.results[label][n])
            row.append(
                cell if isinstance(cell, str) else speedups[label].get(n, "-")
            )
        rows.append(row + [ideal[n]])
    return ascii_table(headers, rows)


def archs_table(results: Mapping[str, Mapping[str, object]]) -> str:
    """§B.2: rows = machines, columns = the two Singularity images."""
    rows = [
        [
            name,
            catalog.get_cluster(name).node.arch.value,
            _elapsed_cell(v["system-specific"]),
            _elapsed_cell(v["self-contained"]),
        ]
        for name, v in results.items()
    ]
    return ascii_table(
        ["machine", "ISA", "system-specific [s]", "self-contained [s]"], rows
    )


def fault_table(outcome) -> str:
    """Fault sensitivity: rows = faults per run, per-variant elapsed
    time and degradation (x the variant's fault-free baseline).  Failed
    points render as ``FAILED(<error>)``, never as blanks."""
    deg = outcome.degradation()
    headers = ["faults/run"]
    for label in outcome.labels:
        headers += [f"{label} [s]", "degradation"]
    rows = []
    for rate in outcome.rates:
        row: list[object] = [f"{rate:g}"]
        for label in outcome.labels:
            row.append(_elapsed_cell(outcome.results[(label, rate)]))
            d = deg[label][rate]
            row.append("-" if d is None else f"{d:.3f}x")
        rows.append(row)
    return ascii_table(headers, rows)


def deployment_table(rows: Sequence[Mapping[str, object]]) -> str:
    """§B.1: deployment overhead / image size / execution time."""
    headers = [
        "runtime",
        "deploy [s]",
        "image [MB]",
        "transfer [MB]",
        "exec 28x4 [s]",
    ]
    out = []
    for row in rows:
        out.append(
            [
                row["runtime"],
                row["deployment_seconds"],
                row["image_size_mb"],
                row["image_transfer_mb"],
                row["execution_seconds"],
            ]
        )
    return ascii_table(headers, out)

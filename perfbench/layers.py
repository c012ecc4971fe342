"""Which hadrow functions the traced run wraps, and the per-layer metrics.

Every metric is reported per traced operation, so runs that complete a
different number of operations in their time window stay comparable.
Counts marked `computed` in their unit come from array or buffer sizes,
not from a counter the program keeps.
"""

from __future__ import annotations

from fractions import Fraction

from hadrow import cli, core, formats, ordering, spi, transform


def _count_row(tracer, args, kwargs, result) -> None:
    row, counter = result
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.add("core.multiplications", counter.multiplications)
    tracer.add("core.predicted", core.predicted_cost(n))
    tracer.add("core.row_bytes_out", len(row.packed))


def _count_fwht(tracer, args, kwargs, result) -> None:
    size = result.coefficients.size
    tracer.add("transform.fwht.points", size)
    tracer.add("transform.fwht.ops", (size.bit_length() - 1) * size)


def _count_write(tracer, args, kwargs, result) -> None:
    tracer.add("formats.write_patterns.bytes", len(result))


def _count_read(tracer, args, kwargs, result) -> None:
    data = args[0] if args else kwargs["data"]
    tracer.add("formats.read_patterns.bytes", len(data))


def _count_simulate(tracer, args, kwargs, result) -> None:
    tracer.add("spi.simulate.rows", len(result.entries))


# (metric prefix, owner, attribute, counter) for every wrapped function.
TARGETS = [
    ("cli.main", cli, "main", None),
    ("ordering.to_natural", ordering, "to_natural", None),
    ("ordering.generate_ordered_row", ordering, "generate_ordered_row", None),
    ("core.generate_row", core, "generate_row", _count_row),
    ("core.SignVector.to_numpy", core.SignVector, "to_numpy", None),
    ("transform.fwht", transform, "fwht", _count_fwht),
    ("transform.ifwht", transform, "ifwht", None),
    ("spi.simulate", spi, "simulate", _count_simulate),
    ("spi.reconstruct", spi, "reconstruct", None),
    ("spi.read_pgm", spi, "read_pgm", None),
    ("spi.write_pgm", spi, "write_pgm", None),
    ("formats.write_patterns", formats, "write_patterns", _count_write),
    ("formats.read_patterns", formats, "read_patterns", _count_read),
]

_COUNTS = [
    ("core.multiplications", "count"),
    ("core.row_bytes_out", "B-computed"),
    ("transform.fwht.points", "count-computed"),
    ("transform.fwht.ops", "count-computed"),
    ("formats.write_patterns.bytes", "B-computed"),
    ("formats.read_patterns.bytes", "B-computed"),
    ("spi.simulate.rows", "count"),
]


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, *_ in TARGETS:
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out.append(("cli.main.wait_s", "s"))
    out += _COUNTS
    out += [
        ("core.mults_per_predicted", "ratio"),
        ("transform.fwht.ns_per_op", "ns"),
        ("trace.overhead_pct", "%"),
        ("trace.unaccounted_pct", "%"),
    ]
    return out


def per_layer_values(summaries, counts, overhead_pct: float, unaccounted_pct: float) -> dict:
    """Per-op means of the traced spans and counters of one run."""
    ops = len(summaries)
    values = {}
    busy_ns = {}
    for name, *_ in TARGETS:
        calls = busy = self_ns = 0
        for summary in summaries:
            c, b, s = summary["per_name"].get(name, (0, 0, 0))
            calls, busy, self_ns = calls + c, busy + b, self_ns + s
        busy_ns[name] = busy
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.busy_s"] = busy / ops / 1e9
        values[f"{name}.self_s"] = self_ns / ops / 1e9
    values["cli.main.wait_s"] = sum(s["wait_ns"] for s in summaries) / ops / 1e9
    for key, _ in _COUNTS:
        values[key] = counts[key] / ops
    predicted = counts["core.predicted"]
    # Exact rational first: the ratio must read 1.0, not 0.9999...
    ratio = Fraction(counts["core.multiplications"], predicted) if predicted else 0
    values["core.mults_per_predicted"] = float(ratio)
    fwht_ops = counts["transform.fwht.ops"]
    values["transform.fwht.ns_per_op"] = (
        busy_ns["transform.fwht"] / fwht_ops if fwht_ops else 0.0
    )
    values["trace.overhead_pct"] = overhead_pct
    values["trace.unaccounted_pct"] = unaccounted_pct
    return values

"""Spans around the calls into cgexact's public functions, from outside the package.

:func:`installed` wraps each target function and rebinds the wrapper
wherever cgexact binds the original (a module attribute, a class attribute
such as ``RadicalSum.__radd__``, or a registry dict such as
``verification.CHECKS``), and restores every binding on exit.  The package
itself is not edited.

Spans are kept in memory.  Calls on the coarse layers (operations, ``cli``,
``verification``, ``build_full_table``) are kept one by one with their parent
span; the hot functions below them, called up to millions of times, are
aggregated per (parent, name) edge so that memory stays bounded.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterator

from cgexact import cli, formulas, ladder, numerics, verification

#: span names recorded one by one; the rest are aggregated per edge
KEPT_PREFIXES = ("op.", "cli.", "verification.", "ladder.build_full_table")


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner`` (module, class or dict) holds it at ``attr``."""

    owner: object
    attr: str
    #: span name, or a function of the call's positional arguments
    label: str | Callable[[tuple], str]
    #: count the items of the first argument under ``<label>.radicands``
    count_items: bool = False


def targets() -> list[Target]:
    """The public functions whose calls make up the per-layer metrics."""
    rs = numerics.RadicalSum
    found = [
        Target(rs, "__add__", "numerics.add"),
        Target(rs, "__mul__", "numerics.mul"),
        Target(rs, "parse", "numerics.parse"),
        Target(numerics, "canonical_sqrt", "numerics.canonical_sqrt"),
        Target(numerics, "sum_signed_sqrts", "numerics.sum_signed_sqrts", count_items=True),
        Target(numerics, "to_decimal", "numerics.to_decimal"),
        Target(formulas, "cg_alternative", "formulas.cg_alternative"),
        Target(formulas, "cg_racah", "formulas.cg_racah"),
        Target(formulas, "wigner3j", "formulas.wigner3j"),
        Target(ladder, "build_full_table", _table_label),
        Target(ladder, "lower_normalized", "ladder.lower_normalized"),
        Target(ladder, "highest_weight_state", "ladder.highest_weight_state"),
        Target(ladder, "beta_closed_form", "ladder.beta_closed_form"),
        Target(ladder, "apply_jplus", "ladder.apply_jplus"),
        Target(cli, "records_to_csv", "cli.records_to_csv"),
        Target(cli, "parse_table_csv", "cli.parse_table_csv"),
    ]
    found += [Target(verification.CHECKS, name, f"verification.{name}") for name in verification.CHECKS]
    return found


def labels(wanted: list[Target]) -> list[str]:
    """Every span name the targets can produce."""
    names = [t.label for t in wanted if isinstance(t.label, str)]
    return names + [f"ladder.build_full_table.{route.value}" for route in ladder.TableRoute]


def _table_label(args: tuple) -> str:
    route = args[2] if len(args) > 2 else None
    return f"ladder.build_full_table.{getattr(route, 'value', route)}"


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, span id, child ns]
        self._next_id = 0
        #: (parent name, name) -> [calls, total ns, self ns]
        self.edges: dict[tuple[str | None, str], list[int]] = {}
        #: extra counts, such as radicands handed to sum_signed_sqrts
        self.counts: dict[str, int] = {}
        #: kept spans: (span id, parent span id, name, start ns, end ns)
        self.spans: list[tuple[int, int | None, str, int, int]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = [name, self._next_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            key = (parent[0] if parent else None, name)
            edge = self.edges.get(key)
            if edge is None:
                edge = self.edges[key] = [0, 0, 0]
            edge[0] += 1
            edge[1] += duration
            edge[2] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if name.startswith(KEPT_PREFIXES):
                self.spans.append((frame[1], parent[1] if parent else None, name, start, end))

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns], summed over parents.

        A name nested in itself counts its inner calls in the total twice;
        self time is exact either way.
        """
        out: dict[str, list[int]] = {}
        for (_, name), (calls, total, own) in self.edges.items():
            acc = out.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def dump(self) -> dict:
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total / 1e9, "self_s": own / 1e9}
                for (parent, name), (calls, total, own) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(self.counts),
            "spans": [
                {"id": sid, "parent": pid, "name": name, "start_ns": start, "end_ns": end}
                for sid, pid, name, start, end in self.spans
            ],
        }


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    label = target.label

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = label(args) if callable(label) else label
        if target.count_items:
            items = list(args[0])
            tracer.counts[f"{name}.radicands"] = tracer.counts.get(f"{name}.radicands", 0) + len(items)
            args = (items, *args[1:])
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _lookup(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else vars(owner).get(attr)


def _bindings(original) -> Iterator[tuple[object, str]]:
    """Every (namespace, key) in the loaded cgexact modules bound to ``original``."""
    seen = set()
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "cgexact"]
    for module in modules:
        holders = [module]
        for value in vars(module).values():
            if isinstance(value, dict) or (
                isinstance(value, type) and value.__module__.startswith("cgexact")
            ):
                holders.append(value)
        for holder in holders:
            items = holder.items() if isinstance(holder, dict) else vars(holder).items()
            for key, value in list(items):
                if value is original and (id(holder), key) not in seen:
                    seen.add((id(holder), key))
                    yield holder, key


def _bind(holder, key: str, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


@contextmanager
def installed(tracer: Tracer, wanted: list[Target]):
    """Rebind every target to a traced wrapper; restore the originals on exit.

    A target the package no longer has is skipped, and its metrics read 0.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target in wanted:
            original = _lookup(target.owner, target.attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(_wrap(tracer, target, original.__func__))
            else:
                wrapper = _wrap(tracer, target, original)
            for holder, key in list(_bindings(original)):
                undo.append((holder, key, original))
                _bind(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            _bind(holder, key, original)

"""Spans around the public functions of blochstrata, recorded from outside the package.

A module that imports a name (``from .states import classify``) holds its own
reference, so a function is replaced in every blochstrata module that holds it;
a missed site would silently drop spans, and ``install`` fails if one remains.
Spans stay in memory as (function, start, end, parent span, item) and are
written out once the traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

# module -> functions that get a span
TIMED = {
    "sampling": ("sample_state", "sample_direction"),
    "stratification": ("stratum_report",),
    "states": ("hermitian_eigenvalues", "check_hermitian", "classify", "to_bloch", "from_bloch"),
    "direction": ("direction_report", "directional_matrix"),
    "basis": ("build_basis", "expand"),
    "serialize": (
        "load_json", "matrix_from_dict", "matrix_to_dict", "bloch_from_dict", "bloch_to_dict",
    ),
    "cli": ("main",),
}
# functions too cheap (about 0.3 us) to time without distorting them: counted only
COUNTED = {"serialize": ("format_float",)}

PACKAGE = "blochstrata"


class Tracer:
    """Wraps the package's functions while installed; ``item`` numbers the items seen so far."""

    def __init__(self, item_root: str | None = None):
        self.item_root = item_root
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.elements_bytes = 0
        self.item = 0
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> its wrapper, built on first install
        self._restore: list[tuple] = []

    def _timed(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        is_root = name == self.item_root
        records_basis = name == "basis.build_basis"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if is_root:
                self.item += 1
            item = self.item
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, start, end, parent, item)
            if records_basis:
                self.elements_bytes += result.elements.nbytes
            return result

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace each target at every module-level reference in the package.

        Installing again after ``uninstall`` reuses the same wrappers, so
        spans and counts accumulate.
        """
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = self._wrappers
        if not wrappers:
            for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
                for module, functions in table.items():
                    for function in functions:
                        original = getattr(modules[f"{PACKAGE}.{module}"], function)
                        wrappers[original] = make(f"{module}.{function}", original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._restore.append((mod, attr, value))
        left = [
            f"{name}.{attr}" for name, mod in modules.items()
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]
        if left:
            raise RuntimeError(f"unwrapped references remain: {left}")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total (inclusive) seconds, and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly because one thread records them.
        """
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        covered = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (fid, start, end, _, _) in enumerate(self.spans):
            calls[fid] += 1
            total[fid] += end - start
            own[fid] += end - start - covered[index]
        stats = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
            for i, name in enumerate(self.names)
        }
        for name, count in self.counts.items():
            stats[name] = {"calls": count}
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item\n")
            for fid, start, end, parent, item in self.spans:
                fh.write(f"{self.names[fid]},{start!r},{end!r},{parent},{item}\n")

"""Per-layer spans recorded around calls into the package's public functions.

The tracer lives entirely in the benchmark: it replaces each traced public
function, at every binding in every loaded ``nipsqw`` module that holds the
very same object, with a wrapper that records a span while recording is on.
Calls made inside the package therefore show up as child spans of their
callers.  Spans stay in memory as (name, start, end, parent, op, failed)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: public functions traced per layer (module of the package); names missing
#: from the installed package are skipped and reported as such
TRACED = {
    "cli": ("main",),
    "nip_evolution": ("evolve", "textbook_evolve", "generator", "coriolis", "expectation"),
    "metric": ("ketkets", "dyson_from_ketkets", "dyson_hermitian", "build_metric",
               "observable_check"),
    "matrix_core": ("eig_general", "eig_hermitian", "inverse", "sqrt_hpd"),
    "spectrum": ("ep_scan", "spectral_curve", "solve_spectrum"),
    "hamiltonian": ("build_h", "build_h_at_time"),
}

#: eig_general is reported per matrix size band
_SIZE_SPLIT = "matrix_core.eig_general"
SIZE_BANDS = ("n2", "n3_16", "n17_64")


def _band(args, kwargs) -> str:
    matrix = args[0] if args else kwargs.get("matrix")
    n = len(matrix)
    if n <= 2:
        return "n2"
    return "n3_16" if n <= 16 else "n17_64"


def span_names() -> list[str]:
    """Every span name the tracer can record, in report order."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            qual = f"{module}.{func}"
            if qual == _SIZE_SPLIT:
                names += [f"{qual}.{band}" for band in SIZE_BANDS]
            else:
                names.append(qual)
    return names


class Tracer:
    """Installs wrappers, records spans while ``recording``, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.skipped: list[str] = []
        self.recording = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation --------------------------------------------------

    def __enter__(self):
        for module, funcs in TRACED.items():
            home = importlib.import_module(f"nipsqw.{module}")
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    self.skipped.append(f"{module}.{func}")
                    continue
                self._patch_everywhere(original, self._wrap(f"{module}.{func}", original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _patch_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nipsqw" or name.startswith("nipsqw.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, name: str, fn):
        split = name == _SIZE_SPLIT
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            label = f"{name}.{_band(args, kwargs)}" if split else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1,
                          self.op_id, False])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][5] = True
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    # -- recording -----------------------------------------------------

    def start_op(self, op_id: int) -> None:
        """Open the root span of one op and start recording under it."""
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, False])
        self.recording = True

    def end_op(self, failed: bool) -> None:
        self.recording = False
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = failed

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict:
        """calls, failed, self_s and total_s per span name; 'op' is the root."""
        stats = {name: {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0}
                 for name in ["op", *span_names()]}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _, failed) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["failed"] += int(failed)
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return stats

    def write(self, path: Path, header: dict) -> None:
        """Header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "skipped": self.skipped,
                                 "fields": ["name", "start", "end", "parent", "op",
                                            "failed"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

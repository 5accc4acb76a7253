"""Spans around the library's public functions, recorded from outside it.

The library's modules import each other's functions by name (``index`` holds
its own ``ln_ratio`` binding, ``opn`` its own ``pow_interval``), so a wrapper
is installed at every module attribute that binds a traced function, and on
the class attributes that are not reached through any module binding
(``Factorization.__post_init__``, the ``IntervalReal`` operators).
``uninstall`` puts every original back.

A span is ``[name, request, parent, label, start, end, error]``, the label
being a kernel's precision in bits or whether ``is_prime`` got a big input.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("arith", "interval", "index", "opn", "mersenne", "cli")

CLASS_METHODS = {
    ("arith", "Factorization"): ("__post_init__",),
    ("interval", "IntervalReal"): (
        "__neg__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
    ),
}

# Kernels whose precision (the ``bits`` argument) is the span's label.
PRECISION_ARG = {
    "interval.ln_ratio", "interval.ln_interval", "interval.exp_ratio",
    "interval.exp_interval", "interval.sqrt_ratio",
}
# is_prime is labelled True above the bound where fixed-base Miller-Rabin
# stops being deterministic (about 3.3e24).
BIG_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:  # cli has no __all__: its own top-level functions
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
    functions = {name: getattr(module, name) for name in names}
    return {name: fn for name, fn in functions.items() if callable(fn) and not inspect.isclass(fn)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["abundancy"]
        modules = {m: importlib.import_module(f"abundancy.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        # every module attribute bound to a traced function gets its wrapper
        bindings = [package] + [m for k, m in sys.modules.items() if k.startswith("abundancy.")]
        for module in bindings:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        for (short, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[short], cls_name)
            for name in methods:
                self._patch(cls, name, self._wrap(f"{short}.{cls_name}.{name}", vars(cls)[name]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        bits_default = None
        if span_name in PRECISION_ARG:
            bits_default = inspect.signature(fn).parameters["bits"].default
        big_prime = span_name == "arith.is_prime"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = None
            if bits_default is not None:
                label = args[1] if len(args) > 1 else kwargs.get("bits", bits_default)
            elif big_prime:
                label = args[0] >= BIG_PRIME_BOUND
            record = [span_name, self.request, stack[-1] if stack else None, label, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[5] = perf_counter()
                stack.pop()

        return wrapper

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, _, _, _, start, end, _ in self.spans]
        for span in self.spans:
            if span[2] is not None:
                own[span[2]] -= span[5] - span[4]
        return own

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps([i] + span) + "\n")

"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``rectchar`` modules at run time.
A wrapper is installed under every name, in every ``rectchar.*`` module and
in every class defined there, that binds the very same function object, so
a call reaches the wrapper whichever import path the caller used
(``cli.normalized_character``, ``stanley.factorization_histogram``,
``closed.extended_product``, ...).  Nothing in the library is edited; the
original bindings are put back by ``Tracer.uninstall``.

Each wrapper counts calls and keeps a span stack, so a function's self time
is its duration minus the time spent in wrapped callees.  A target that no
longer exists in the library is reported as absent and reads zero.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from time import perf_counter_ns

# Layers are the package's modules.
LAYERS = ("cli", "mn", "young", "stanley", "kernel", "closed", "exact", "_poly")


def _histogram_perms(args, kwargs) -> int:
    w = args[0] if args else kwargs["w"]
    return math.factorial(len(w))


def _product_factors(args, kwargs) -> int:
    upper = args[1] if len(args) > 1 else kwargs["upper"]
    lower = args[2] if len(args) > 2 else kwargs.get("lower", 0)
    return abs(upper - lower) + 1


# (module, qualified name, computed count name or None, count function)
TARGETS = (
    ("mn", "normalized_character", None, None),
    ("mn", "character_mn", None, None),
    ("mn", "one_cycle_character", None, None),
    ("young", "rim_hooks_of_length", None, None),
    ("young", "dim_f", None, None),
    ("stanley", "stanley_eval", None, None),
    ("stanley", "stanley_poly", None, None),
    ("kernel", "factorization_histogram", "perms", _histogram_perms),
    ("closed", "ch_rect_fast", None, None),
    ("closed", "_g_value", None, None),
    ("closed", "_h_value", None, None),
    ("closed", "_i_value", None, None),
    ("closed", "_j_value", None, None),
    ("closed", "corollary_poly", None, None),
    ("exact", "extended_product", "factors", _product_factors),
    ("_poly", "_Poly2.__mul__", None, None),
    ("cli", "main", None, None),
)

# lru_cache functions of the seed library; others found at run time are
# printed but not part of the fixed metric list.
KNOWN_CACHES = (
    "closed.corollary_poly",
    "mn._hooks",
    "stanley._even_basis_x_coeffs",
    "stanley._joint_cycle_table",
    "stanley._stanley_poly_cached",
    "young._dim_from_parts",
)

# Modules loaded by ``import rectchar``, as -X importtime names them.
SETUP_MODULES = ("exact", "young", "_poly", "mn", "_pykernel", "kernel",
                 "stanley", "closed")


def target_prefix(module: str, qualname: str) -> str:
    """Metric prefix of a target; metric names may not start with '_'."""
    return f"{module.lstrip('_')}.{qualname}"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric a traced run reports, with its unit, in a fixed order."""
    out = []
    for module, qualname, count_name, _ in TARGETS:
        if (module, qualname) == ("cli", "main"):
            out.append(("cli.self_ms", "ms"))
            continue
        prefix = target_prefix(module, qualname)
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.total_ms", "ms"),
                (f"{prefix}.self_ms", "ms")]
        if count_name:
            out.append((f"{prefix}.{count_name}", "count"))
    out += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    for cache in KNOWN_CACHES:
        out += [(f"cache.{cache}.hit_ratio", "ratio"),
                (f"cache.{cache}.currsize", "count")]
    out.append(("setup.rectchar_ms", "ms"))
    out += [(f"setup.{module}_ms", "ms") for module in SETUP_MODULES]
    out.append(("trace_overhead_ratio", "ratio"))
    return out


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "count", "depth")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.count = self.depth = 0


class Tracer:
    """Installs counting, timing wrappers and restores the originals."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], _Stat] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stat: _Stat, count):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            stat.depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stat.depth -= 1
                child = stack.pop()
                stat.calls += 1
                stat.self_ns += elapsed - child
                if not stat.depth:  # recursion would count total twice
                    stat.total_ns += elapsed
                if stack:
                    stack[-1] += elapsed
                if count is not None:
                    stat.count += count(args, kwargs)

        return wrapper

    def install(self) -> None:
        modules = _rectchar_modules()
        for module, qualname, _, count in TARGETS:
            original = _resolve(f"rectchar.{module}", qualname)
            if original is None:
                self.absent.append(f"{module}.{qualname}")
                continue
            stat = self.stats[(module, qualname)] = _Stat()
            wrapper = self._wrap(original, stat, count)
            for namespace in _namespaces(modules):
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, name, value))
                        setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._restore):
            setattr(namespace, name, value)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-target and per-layer numbers; absent targets read zero."""
        out: dict[str, float] = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for module, qualname, count_name, _ in TARGETS:
            stat = self.stats.get((module, qualname), _Stat())
            layer_ns[module] += stat.self_ns
            if (module, qualname) == ("cli", "main"):
                out["cli.self_ms"] = stat.self_ns / 1e6
                continue
            prefix = target_prefix(module, qualname)
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.total_ms"] = stat.total_ns / 1e6
            out[f"{prefix}.self_ms"] = stat.self_ns / 1e6
            if count_name:
                out[f"{prefix}.{count_name}"] = stat.count
        for layer, ns in layer_ns.items():
            out[f"layer.{layer}.self_ms"] = ns / 1e6
        return out


def _rectchar_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "rectchar" or name.startswith("rectchar."))]


def _namespaces(modules):
    """Each module, then each class defined in one of them."""
    seen = set()
    for module in modules:
        yield module
    for module in modules:
        for value in vars(module).values():
            if (isinstance(value, type) and id(value) not in seen
                    and value.__module__.startswith("rectchar")):
                seen.add(id(value))
                yield value


def _resolve(module_name: str, qualname: str):
    obj = sys.modules.get(module_name)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(
            obj, part, None)
    return obj


def cache_metrics() -> tuple[dict[str, float], list[str]]:
    """hit_ratio and currsize of every lru_cache bound in a rectchar module.

    Returns the fixed metrics (known caches, zero when gone) and the names
    of caches found that are not in the fixed list.
    """
    found = {}
    for module in _rectchar_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                owner = value.__module__.removeprefix("rectchar.")
                found[f"{owner}.{value.__qualname__}"] = value.cache_info()
    out = {}
    for name in KNOWN_CACHES:
        info = found.get(name)
        lookups = info.hits + info.misses if info else 0
        out[f"cache.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"cache.{name}.currsize"] = info.currsize if info else 0
    return out, sorted(set(found) - set(KNOWN_CACHES))


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """setup.<module>_ms from ``python -X importtime -c 'import rectchar'``.

    Submodules report their own (self) import time; setup.rectchar_ms is
    the cumulative time of the whole package import.
    """
    self_us: dict[str, int] = {}
    cumulative_us: dict[str, int] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            name = match.group(3).strip()
            self_us[name] = int(match.group(1))
            cumulative_us[name] = int(match.group(2))
    out = {"setup.rectchar_ms": cumulative_us.get("rectchar", 0) / 1e3}
    for module in SETUP_MODULES:
        out[f"setup.{module}_ms"] = self_us.get(f"rectchar.{module}", 0) / 1e3
    return out

"""Tracing qmds from outside: wrap the names callers look up, aggregate
per-name call counts, total and self time, and count work from each call's
arguments and result.

Nothing under `src/` changes.  A wrapper replaces a module attribute (or a
class attribute) for the duration of a `with Tracer(...)` block and the
original is put back on exit.  High-frequency calls (the sweep ranks about
half a million column subsets) are aggregated into counters, never stored
as one span per call.  A span's self time is its duration minus the time of
the wrapped calls it made; the span name's prefix is its layer.
"""

from __future__ import annotations

import importlib
import math
import resource
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("field", "poly", "construct", "grs", "linalg", "verify", "serialize")


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB.

    `VmHWM` is the peak of the process's own address space.  `ru_maxrss`
    is only the fallback: on Linux a child started with vfork inherits the
    parent's peak in it, so a small child would report the benchmark
    runner's memory rather than its own.
    """
    try:
        with open("/proc/self/status", "rb") as fh:  # bytes: no codec to import
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- work counted from arguments and results ---------------------------------

def _code_shape(code) -> Tuple[int, int, int]:
    """(field order Q, dimension k, length N) of a GRSCode or LinearCode."""
    k = code.dim if hasattr(code, "dim") else code.k
    return code.field.order, k, code.length


def _brute(counters, args, result, computed, before):
    if not computed:
        return
    Q, k, _ = _code_shape(args[0])
    counters["grs.brute_codes"] += 1
    counters["grs.brute_words"] += (Q ** k - 1) // (Q - 1)
    counters["grs.brute_table_rows"] += Q * k
    counters["grs.brute_rss_mb"] += maxrss_mb() - before


def _rank(counters, args, result, computed, before):
    if computed:
        _, k, N = _code_shape(args[0])
        counters["grs.rank_codes"] += 1
        counters["grs.rank_subsets"] += math.comb(N, k)


def _root_free(counters, args, result, computed, before):
    counters["poly.root_free_calls"] += 1
    if computed:
        # The search enumerates monic candidates with the constant term
        # fastest-varying, so the result's index tells how many were tried.
        Q = result.field.order
        index = sum(c * Q ** i for i, c in enumerate(result.coeffs[:-1]))
        counters["poly.root_free_searches"] += 1
        counters["poly.root_free_candidates"] += index + 1


def _field_build(counters, args, result, computed, before):
    p, e = args[1], args[2]
    counters["field.builds"] += 1
    counters["field.elements"] += p ** (2 * e)


def _dumps(counters, args, result, computed, before):
    counters["serialize.bytes"] += len(result.encode("utf-8"))


# Report observers see every VerificationReport, traced or not: the
# unchecked share and the pass/fail check both need the distance method.
def _report(counters, args, result, computed, before):
    counters["verify.codes"] += 1
    counters["verify.passed"] += int(bool(result.passed))
    counters[f"verify.method.{result.distance_method}"] += 1


Observer = Callable[..., None]
# (owner, attribute, span name, observer, before-hook)
Target = Tuple[str, str, str, Optional[Observer], Optional[Callable]]

REPORT_TARGETS: Tuple[Target, ...] = (
    ("qmds.cli", "verify_construction", "verify.verify_construction", _report, None),
    ("qmds.verify", "verify_construction", "verify.verify_construction", _report, None),
)

# The names each caller looks up, grouped by the layer they belong to.
LAYER_TARGETS: Tuple[Target, ...] = REPORT_TARGETS + (
    ("qmds.field.FieldTower", "__init__", "field.build", _field_build, None),
    ("qmds.construct", "root_free_monic", "poly.root_free", _root_free, None),
    ("qmds.cli", "additive_coset_code", "construct.additive", None, None),
    ("qmds.cli", "quantum_params_for_distance", "construct.for_distance", None, None),
    ("qmds.construct", "multiplicative_coset_code", "construct.extended", None, None),
    ("qmds.verify", "additive_coset_code", "construct.additive", None, None),
    ("qmds.verify", "multiplicative_coset_code", "construct.extended", None, None),
    ("qmds.verify", "is_hermitian_self_orthogonal", "grs.hermitian", None, None),
    ("qmds.verify", "as_linear_code", "grs.linear_code", None, None),
    ("qmds.verify", "min_distance_bruteforce", "grs.brute", _brute, maxrss_mb),
    ("qmds.verify", "is_mds_by_rank", "grs.rank", _rank, None),
    ("qmds.serialize", "generator_matrix", "grs.generator_matrix", None, None),
    ("qmds.grs", "rank", "linalg.rank", None, None),
    ("qmds.verify", "reconstruct_multipliers", "verify.reconstruct", None, None),
    ("qmds.cli", "sweep", "verify.sweep", None, None),
    ("qmds.cli", "emit", "verify.emit", None, None),
    ("qmds.serialize", "result_to_obj", "serialize.result_to_obj", None, None),
    ("qmds.serialize", "save", "serialize.save", None, None),
    ("qmds.serialize", "dumps", "serialize.dumps", _dumps, None),
)


def _resolve(owner: str):
    """Import the longest module prefix of a dotted path, then walk the rest
    as attributes (for class targets such as qmds.field.FieldTower)."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(owner)


class Tracer:
    """Context manager that wraps the given targets and restores them."""

    def __init__(self, targets: Sequence[Target]):
        self.targets = targets
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.counters: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner_path, attr, name, observe, before in self.targets:
            try:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                # A later version may rename a function; the span then reads
                # zero and the name is listed in the run's notes.
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe, before))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, observe, before):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            pre = before() if before else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe:
                # A cached function did work only when the call missed its cache.
                computed = cache_info is None or cache_info().misses > misses
                observe(counters, args, result, computed, pre)
            return result
        return traced

    def layer_self_times(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.spans.items():
            out[name.split(".")[0]] += self_s
        return out


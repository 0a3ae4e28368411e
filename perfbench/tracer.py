"""Span tracing of bps_kit from outside the package.

:class:`Tracer` replaces the public functions and methods of each traced
module with timed wrappers, in every ``bps_kit`` module namespace that
binds them (``jfunctions.polar_split`` as well as ``series.polar_split``,
``cli.split_check`` as well as ``jfunctions.split_check``), and puts the
originals back on :meth:`Tracer.uninstall`.  Finished spans stay in
memory until :meth:`Tracer.layer_metrics` aggregates them.

A span's self time is its duration minus the durations of the spans it
encloses.  Time in unwrapped private helpers stays with the span that
called them.  Self time of wrapped spans that have no metric of their own
is reported as ``<module>.other.self_s``, so the reported self times plus
the tracer's bookkeeping after each call add up to ``cli.main.total_s``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TRACED_MODULES = ("series", "kring", "jfunctions", "transform", "covers", "serialize", "cli")

# Arithmetic dunders are traced along with __init__ and public methods;
# comparison, hashing and printing are not, as the workloads barely use them.
_DUNDERS = frozenset(
    (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    )
)

# Per-value string converters: wrapping them would cost more than the
# serializers that call them, and their time belongs to those serializers.
_UNTRACED = frozenset(("serialize.fraction_to_str", "serialize.fraction_from_str"))

# Span names that differ from "<module>.<qualname>".
_SPAN_NAMES = {
    "series.QRationalFunction.__init__": "series.qrf_new",
    "series.QRationalFunction.__add__": "series.qrf_add",
    "series.QRationalFunction.__radd__": "series.qrf_add",
    "series.QRationalFunction.__mul__": "series.qrf_mul",
    "series.QRationalFunction.__rmul__": "series.qrf_mul",
    "series.QRationalFunction.__truediv__": "series.qrf_div",
    "series.QRationalFunction.expand": "series.expand",
    "kring.KElem.__add__": "kring.add",
    "kring.KElem.__radd__": "kring.add",
    "kring.KElem.__mul__": "kring.mul",
    "kring.KElem.__rmul__": "kring.mul",
    "kring.KElem.inverse": "kring.inverse",
    "jfunctions.a_series": "jfunctions.ab",
    "jfunctions.b_series": "jfunctions.ab",
    "transform.InvariantTable.__init__": "transform.table_new",
    "covers.conifold_gw": "covers.conifold",
    "covers.conifold_gw_table": "covers.conifold",
    "covers.conifold_gv_table": "covers.conifold",
}

# Reported per-layer numbers: spans reported with calls and self time,
# with self time only, and with calls only.
CALLS_AND_SELF = (
    "series.qrf_new", "series.qrf_add", "series.qrf_mul", "series.qrf_div",
    "series.expand", "series.polar_split",
    "kring.mul", "kring.add", "kring.inverse",
    "jfunctions.ab", "transform.table_new", "covers.bernoulli",
)
SELF_ONLY = (
    "series.laurent",
    "jfunctions.i_coefficient", "jfunctions.j_y_coefficient",
    "jfunctions.split_check", "jfunctions.jmgs_rhs",
    "transform.gw_to_gv", "transform.gv_to_gw", "transform.check_integrality",
    "covers.conifold",
    "serialize.table_from_dict", "serialize.table_to_dict",
    "serialize.qrf_to_dict", "serialize.qseries_to_dict",
)
CALLS_ONLY = ("transform.sin_power_series",)
# Metrics of the untimed warm-up op, which fills the library's caches (the
# lambda coefficients with their Laurent series, the Bernoulli numbers):
# later ops only read them, so these numbers show only in the warm-up.
# Each is reported as "<name>" with its last part prefixed by "warmup_".
WARMUP = (
    "series.laurent.self_s", "transform.sin_power_series.calls",
    "covers.bernoulli.self_s", "cli.main.total_s",
)


def warmup_name(metric: str) -> str:
    head, _, last = metric.rpartition(".")
    return f"{head}.warmup_{last}"


def span_name(qualified: str) -> str:
    if qualified.startswith("series.LaurentSeries."):
        return "series.laurent"
    return _SPAN_NAMES.get(qualified, qualified)


class Tracer:
    """Times every call into the traced bps_kit modules while installed."""

    package = "bps_kit"

    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []  # name, start, end, self
        self.peak_den_degree = 0
        self.peak_coeff_bits = 0
        self.gcd_constructions = 0
        self.reduced_constructions = 0
        self.ab_distinct = 0
        self._ab_keys: set = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        series = sys.modules[f"{self.package}.series"]
        kring = sys.modules[f"{self.package}.kring"]
        self._qrf_type = series.QRationalFunction
        self._kelem_type = kring.KElem

    # --- installing -----------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package}.{short}"]
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, BaseException):
                        self._install_class(short, value)
                elif callable(value) and f"{short}.{attr}" not in _UNTRACED:
                    wrapper = self._wrap(f"{short}.{attr}", value)
                    for ns in namespaces:
                        for bound_name, bound in list(vars(ns).items()):
                            if bound is value:
                                self._patch(ns, bound_name, wrapper)

    def _install_class(self, short: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qualified = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(qualified, value.__func__)))
            elif callable(value) and not isinstance(value, type):
                self._patch(cls, attr, self._wrap(qualified, value))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, qualified: str, fn):
        name = span_name(qualified)
        after = None
        if name == "series.qrf_new":
            after = self._after_qrf_new
        elif name == "jfunctions.ab":
            def after(args, kwargs, result, _fn=fn.__name__):
                self._ab_keys.add((_fn, args[0] if args else kwargs.get("r")))
        stack = self._stack
        spans = self.spans
        note = self._note_peaks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans.append((name, t0, t1, t1 - t0 - frame[0]))
                if stack:
                    stack[-1][0] += t1 - t0
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append((name, t0, t1, t1 - t0 - frame[0]))
            note(result)
            if after is not None:
                after(args, kwargs, result)
            if stack:
                # bookkeeping after t1 is charged to neither span
                stack[-1][0] += perf_counter() - t0
            return result

        return traced

    def _note_peaks(self, result) -> None:
        kind = type(result)
        if kind is self._qrf_type:
            self._note_qrf(result)
        elif kind is self._kelem_type:
            for c in result.coords:
                if type(c) is self._qrf_type:
                    self._note_qrf(c)

    def _note_qrf(self, f) -> None:
        deg = len(f.den) - 1
        if deg > self.peak_den_degree:
            self.peak_den_degree = deg
        bits = self.peak_coeff_bits
        for c in f.num + f.den:
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
        self.peak_coeff_bits = bits

    def _after_qrf_new(self, args, kwargs, result) -> None:
        # a construction runs the gcd iff its numerator is nonzero; it was
        # useful iff the stored denominator has lower degree than the input
        obj = args[0]
        den = args[2] if len(args) > 2 else kwargs.get("den", (1,))
        if not obj.num or not isinstance(den, (tuple, list)):
            return
        deg = len(den) - 1
        while deg > 0 and den[deg] == 0:
            deg -= 1
        self.gcd_constructions += 1
        if len(obj.den) - 1 < deg:
            self.reduced_constructions += 1

    # --- per-op bookkeeping and results -----------------------------------------

    def end_op(self) -> None:
        """Close one op: distinct a/b builds are counted per op."""
        self.ab_distinct += len(self._ab_keys)
        self._ab_keys.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of calls and self times, plus run-wide peaks and ratios."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        main_total = 0.0
        for name, start, end, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name == "cli.main":
                main_total += end - start
        reported = set(CALLS_AND_SELF + SELF_ONLY)
        other = {f"{short}.other.self_s": 0.0 for short in TRACED_MODULES if short != "cli"}
        cli_self = 0.0
        for name, own in self_s.items():
            short = name.partition(".")[0]
            if short == "cli":
                cli_self += own
            elif name not in reported:
                other[f"{short}.other.self_s"] += own
        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = calls.get(name, 0) / ops
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
        for name in CALLS_ONLY:
            out[f"{name}.calls"] = calls.get(name, 0) / ops
        out["series.qrf_new.reduced_frac"] = _ratio(self.reduced_constructions, self.gcd_constructions)
        out["series.peak_den_degree"] = self.peak_den_degree
        out["series.peak_coeff_bits"] = self.peak_coeff_bits
        out["jfunctions.ab_unique_frac"] = _ratio(self.ab_distinct, calls.get("jfunctions.ab", 0))
        for name, own in other.items():
            out[name] = own / ops
        out["cli.main.total_s"] = main_total / ops
        out["cli.self_s"] = cli_self / ops
        return out


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0

"""Per-layer tracing for the benchmark's traced run.

The tracer wraps library functions at their module bindings, inside the
benchmark's own process only, and puts every binding back when it is
done. Coarse layer functions get a span each (name, start, end, parent
span, workload item); hot, tiny functions get a call count and no span,
because a span per call would cost more than the call itself. Spans stay
in memory until the run ends and are then written out as JSON lines.

A function can be bound in several modules at once (`from .spaces import
isotropy_contains` binds it in both `spindle` and `verification`), and a
module calls its own functions through its globals, so every binding in
every loaded `spindles.*` module that holds the function is patched.
A layer whose function no longer exists is reported as unmeasured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# (module, function) pairs that get a span per call.
SPAN_LAYERS = (
    ("spaces", "build_space"),
    ("spindle", "spindle_number"),
    ("spindle", "ad_matrix"),
    ("spindle", "_spectrum_from_ad"),
    ("spindle", "method_exact"),
    ("spindle", "method_numeric"),
    ("spindle", "_report_checks"),
    ("spindle", "adjoint_conjugation_flags"),
    ("linalg", "exp_generic"),
    ("verification", "run_verification"),
    ("verification", "structural_checks"),
    ("verification", "exp_agreement_check"),
    ("verification", "isotropy_scan_check"),
    ("verification", "normalize_recovery_check"),
    ("verification", "product_pair_checks"),
    ("verification", "rational_angle_bulk_check"),
    ("cli", "main"),
)

# (module, function) pairs that are only counted.
COUNT_LAYERS = (
    ("spindle", "slice_dimension"),
    ("spindle", "jacobi_norm_sq"),
    ("linalg", "default_eps"),
    ("linalg", "exp_structured"),
    ("spaces", "isotropy_contains"),
    ("spaces", "stated_membership"),
)

VERIFY_STAGES = (
    "verification.structural_checks",
    "verification.exp_agreement_check",
    "verification.isotropy_scan_check",
    "verification.normalize_recovery_check",
    "spindle.spindle_number",
    "verification.product_pair_checks",
    "verification.rational_angle_bulk_check",
)

MIB = float(1 << 20)
PACKAGE = "spindles"


class Tracer:
    """Spans and counts for one run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, item, segment)
        self.counts: Counter = Counter()
        self.basis_bytes = 0
        self.missing: set = set()
        self.segment = ""
        self.item = ""
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)
        self._pending_space = None

    # -- patching -------------------------------------------------------

    def _modules(self) -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _lookup(self, module: str, attr: str):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        obj = getattr(mod, attr, None) if mod is not None else None
        if obj is None:
            self.missing.add(f"{module}.{attr}")
        return obj

    def install(self) -> None:
        for module, attr in SPAN_LAYERS:
            fn = self._lookup(module, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._span_wrapper(f"{module}.{attr}", fn))
        for module, attr in COUNT_LAYERS:
            fn = self._lookup(module, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._count_wrapper(f"{module}.{attr}", fn))
        # Constructions are counted at the class, whatever name builds them.
        cls = self._lookup("linalg", "RationalAngle")
        if cls is not None:
            init = cls.__init__
            cls.__init__ = self._count_wrapper("linalg.RationalAngle", init)
            self._patched.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_build = name == "spaces.build_space"

        def traced(*args, **kwargs):
            if is_build:
                self._flush_space()
            span_id = len(spans) + len(stack)  # spans entered so far: closed plus open
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.item, self.segment))
            if is_build:
                self._pending_space = result
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _flush_space(self) -> None:
        # A space's basis is measured when the next space is built (or the
        # segment ends), so a basis computed lazily after build_space returns
        # is still counted. Only the latest space is held, and callers here
        # hold it themselves until their next build_space call.
        space = self._pending_space
        self._pending_space = None
        if space is None:
            return
        for attr in ("basis_tensor", "basis_vecs"):
            value = vars(space).get(attr)
            self.basis_bytes += int(getattr(value, "nbytes", 0))

    # -- segments -------------------------------------------------------

    def run_segment(self, label: str, fn):
        """Run fn() as one traced segment; returns (result, segment record)."""
        self.segment = label
        self.counts.clear()
        self.basis_bytes = 0
        first_span = len(self.spans)
        try:
            result = fn()
        finally:
            self._flush_space()
            self.item = ""
        record = {
            "spans": self.spans[first_span:],
            "counts": dict(self.counts),
            "basis_bytes": self.basis_bytes,
        }
        return result, record

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "item", "segment")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-layer metrics from one segment --------------------------------------


def _busy(spans: list, name: str, parent_name: str | None = None) -> float:
    """Total span time of `name`; with parent_name, only of the spans whose
    direct parent is a `parent_name` span."""
    names = {s[0]: s[1] for s in spans}
    return sum(
        (s[3] - s[2] for s in spans
         if s[1] == name and (parent_name is None or names.get(s[4]) == parent_name)),
        0.0,
    )


def _self(spans: list, name: str) -> float:
    """Span time of `name` minus the time of its direct child spans."""
    children: dict = {}
    for s in spans:
        if s[4] is not None:
            children[s[4]] = children.get(s[4], 0.0) + s[3] - s[2]
    return sum(s[3] - s[2] - children.get(s[0], 0.0) for s in spans if s[1] == name)


def _calls(spans: list, name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def _metric_table() -> dict:
    """metric name -> (unit, layers it needs, function of a segment record)."""
    table = {
        "spindle.report_checks.self_s": (
            "s", ("spindle._report_checks",), lambda r: _self(r["spans"], "spindle._report_checks")
        ),
    }
    for layer in ("spindle.slice_dimension", "spindle.jacobi_norm_sq", "linalg.default_eps"):
        table[f"{layer}.calls"] = ("count", (layer,), _count_of(layer))
    table["linalg.RationalAngle.created"] = (
        "count", ("linalg.RationalAngle",), _count_of("linalg.RationalAngle")
    )
    for metric, layer in (
        ("spindle.spectrum.busy_s", "spindle._spectrum_from_ad"),
        ("spindle.ad_matrix.busy_s", "spindle.ad_matrix"),
        ("spindle.adjoint_conjugation_flags.busy_s", "spindle.adjoint_conjugation_flags"),
        ("spaces.build_space.busy_s", "spaces.build_space"),
    ):
        table[metric] = ("s", (layer,), _busy_of(layer))
    table["spaces.basis_mb"] = (
        "MB", ("spaces.build_space",), lambda r: r["basis_bytes"] / MIB
    )
    table["spindle.spectrum.per_space"] = (
        "1/space",
        ("spindle._spectrum_from_ad", "spaces.build_space"),
        lambda r: _calls(r["spans"], "spindle._spectrum_from_ad")
        / max(1, _calls(r["spans"], "spaces.build_space")),
    )
    for stage in VERIFY_STAGES:
        metric = "verification." + stage.split(".", 1)[1] + ".busy_s"
        table[metric] = (
            "s",
            (stage, "verification.run_verification"),
            _busy_of(stage, "verification.run_verification"),
        )
    table["linalg.exp_generic.busy_s"] = ("s", ("linalg.exp_generic",), _busy_of("linalg.exp_generic"))
    table["linalg.exp_structured.calls"] = (
        "count", ("linalg.exp_structured",), _count_of("linalg.exp_structured")
    )
    for layer in ("spindle.method_exact", "spindle.method_numeric"):
        table[f"{layer}.busy_s"] = ("s", (layer,), _busy_of(layer))
    for layer in ("spaces.isotropy_contains", "spaces.stated_membership"):
        table[f"{layer}.calls"] = ("count", (layer,), _count_of(layer))
    return table


def _count_of(layer: str):
    return lambda r: r["counts"].get(layer, 0)


def _busy_of(layer: str, parent: str | None = None):
    return lambda r: _busy(r["spans"], layer, parent)


METRICS = _metric_table()


def layer_metrics(records: list, cli_record: dict | None, missing: set) -> tuple:
    """Per-layer metrics over the traced segments: times are medians,
    counts come from the first segment. Also returns the names of counts
    that did not repeat exactly across segments. cli.self_s comes from the
    CLI segment (0 when the CLI was not driven). A metric whose layer is
    missing reads None (unmeasured)."""
    out = {}
    unsteady = []
    for name, (unit, needs, fn) in METRICS.items():
        if any(layer in missing for layer in needs):
            out[name] = (None, unit)
            continue
        values = [fn(r) for r in records]
        if unit == "count":
            out[name] = (values[0], unit)
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            out[name] = (statistics.median(values), unit)
    if "cli.main" in missing:
        out["cli.self_s"] = (None, "s")
    else:
        out["cli.self_s"] = (_self(cli_record["spans"], "cli.main") if cli_record else 0.0, "s")
    return out, unsteady

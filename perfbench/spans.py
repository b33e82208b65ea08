"""In-process span tracing of vacpair's layers.

A Tracer replaces the public functions of each module at the names their
callers bind (for example `vacpair.kernel.aux`, which `contracted_tensor`
calls, and `vacpair.entanglement.contracted_tensor`) with wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  Spans stay in memory; uninstall() puts every original back.
Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


def _aux_name(args, kwargs) -> str:
    x = args[0] if args else kwargs["x"]
    # specfun.aux switches from its power series to the continued fraction at x = 4
    return "specfun.aux.series" if float(x) < 4.0 else "specfun.aux.cf"


def _wcp_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "rotated_contour")
    method = getattr(method, "value", method)
    return "casimir.wcp.pv" if method == "principal_value_oracle" else "casimir.wcp"


def _wootters_name(args, kwargs) -> str:
    return "entanglement.wootters." + (args[1] if len(args) > 1 else kwargs.get("method", "auto"))


def _fixed(name):
    return lambda args, kwargs: name


ORACLES = ("modesum_first_order", "modesum_second_order", "aux_integral_rep",
            "local_population", "field_correlator", "dispersion_integral_real_axis")

# (module, attribute, span namer): every binding a caller in vacpair uses
LAYERS = (
    [("vacpair.kernel", "aux", _aux_name),
     ("vacpair.specfun", "aux", _aux_name),
     ("vacpair.kernel", "contracted_tensor", _fixed("kernel.contracted_tensor")),
     ("vacpair.entanglement", "contracted_tensor", _fixed("kernel.contracted_tensor")),
     ("vacpair.model", "perturbative_validity", _fixed("model.perturbative_validity")),
     ("vacpair.entanglement", "perturbative_validity", _fixed("model.perturbative_validity")),
     ("vacpair.entanglement", "entanglement_of_formation", _fixed("entanglement.eof")),
     ("vacpair.entanglement", "wootters_concurrence", _wootters_name),
     ("vacpair.casimir", "wcp", _wcp_name),
     ("vacpair.validate", "run_validation", _fixed("validate.run_validation"))]
    + [("vacpair.entanglement", f"concurrence_{z}", _fixed(f"entanglement.concurrence_{z}"))
       for z in ("full", "near", "far")]
    + [("vacpair.oracle", f, _fixed(f"oracle.{f}")) for f in ORACLES]
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, namer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(namer(args, kwargs), fn, *args, **kwargs)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, layers=LAYERS) -> None:
        """Wrap every (module, attribute) in layers; a missing one raises AttributeError."""
        for module_name, attr, namer in layers:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(getattr(module, attr), namer))
        cls = importlib.import_module("vacpair.model").PairConfiguration
        self._patch(cls, "__init__", self.wrap(cls.__init__, _fixed("model.pair_configuration")))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self time in seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, t in zip(spans, self_times(spans)):
        out[s.name][0] += 1
        out[s.name][1] += t
    return {k: (n, t) for k, (n, t) in out.items()}

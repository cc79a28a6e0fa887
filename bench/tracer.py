"""Span timing around the public functions of each xraycross layer.

Tracing adds no code to the package: install() replaces each traced
function, in every xraycross module that binds it, with a wrapper that
times the call.  Calls made inside the package therefore show up too,
for example hull() under subchambers().  A function's self time is its
span's duration minus the time of the traced spans it caused.  Spans are
aggregated in memory per function name.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer module -> its traced public functions.  ratmath and intpoly are
# leaf arithmetic, counted in whichever layer calls them.
TRACED = {
    "generators": ("cpn_xray", "load_xray"),
    "xray": (
        "canonical_json",
        "from_interchange",
        "validate_all",
        "validate_poset",
        "validate_consistency",
        "validate_darboux",
        "stratum_weights_in",
    ),
    "arrangement": ("subchambers", "crossing_graph", "locate"),
    "exactgeom": (
        "hull",
        "clip_halfspace",
        "clip_to_polytope",
        "facet_polytopes",
        "faces",
        "span_hyperplane",
        "side_functional",
    ),
    "engine": ("propagate", "check_parity", "check_sig_equals_poincare_at_i", "serialize_table"),
    "circle": (
        "from_rank1_xray",
        "signature_regular",
        "poincare_regular",
        "signature_singular",
        "restrict_to_line",
        "wall_cross_delta",
    ),
}

LAYERS = tuple(TRACED)
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Self time and call count per span name."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        """fn, recording a span named name around every call."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                self_s[name] += span - children[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += span

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded xraycross module."""
        modules = [m for key, m in sys.modules.items() if key == "xraycross" or key.startswith("xraycross.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"xraycross.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

"""Per-layer tracing of swanson from outside the library.

The tracer replaces the public functions of each layer module with wrappers
that record a span per call, and wraps the arithmetic methods of ``Jet`` with
a counter.  A name imported into another module (``eval_potential_z`` into
``cli``, ``kummer`` into ``spectrum``, ...) is replaced in every namespace that
holds it, including the ``cli.COMMANDS`` table, and everything is restored by
``uninstall``.

Spans are aggregated where they close instead of being stored: a ``verify``
case opens about 10^5 of them.  A span's self time is its duration minus the
time of its child spans and of the ``Jet`` operations called directly inside
it, so the self times of all layers plus ``cli.case.self_s`` add up to the case
time (more than that under the ``sweep`` thread pool, where spans of two
threads overlap in wall time).  The counters are kept per case:
``end_case`` hands back those of the case that just ended.
"""

from __future__ import annotations

import collections
import sys
import threading
import time

_now = time.perf_counter

# (module, attribute, extra counts taken from the arguments).  The extra
# function returns (suffix, amount) pairs added under "<layer>.<name>.<suffix>".
SPANS = [
    ("params", "solve_forward", None),
    ("params", "solve_inverse", None),
    ("potentials", "eval_potential", None),
    ("potentials", "eval_potential_z", None),
    ("potentials", "w_of_z_jet", None),
    ("specialfn", "kummer",
     lambda a, k: (("degree_sum", _arg(a, k, 0, "n")),)),
    ("specialfn", "laguerre", None),
    ("spectrum", "phi_plus_jet", None),
    ("spectrum", "phi_minus_jet", None),
    ("spectrum", "j_integral", None),
    ("diffop", "build", None),
    ("diffop", "compose", None),
    ("diffop", "conjugate", None),
    ("diffop", "residual",
     lambda a, k: (("points", len(_arg(a, k, 2, "points"))),)),
    ("numeric", "fd_discretize",
     lambda a, k: (("points", _arg(a, k, 3, "n_points")),)),
    ("numeric", "tridiag_eigs",
     lambda a, k: (("rows", _arg(a, k, 0, "sys").n_points),
                   ("levels", _arg(a, k, 1, "k")))),
    ("numeric", "refine_extrapolate", None),
    ("numeric", "quad_halfline", None),
]

# cli functions timed only to measure the sweep thread pool; they are not a
# layer, so they neither parent other spans nor cover case time.
MARKERS = [("cli", "cmd_sweep"), ("cli", "_sweep_one")]

JET_OPS = ["__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "exp", "log",
           "power", "sqrt", "shift"]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _ThreadState:
    """Open spans and counters of one thread during one case."""

    __slots__ = ("stack", "counts", "jet_depth", "root_jet_s")

    def __init__(self):
        # each open span is [start, covered]: covered is the time of its
        # children and of the Jet operations called directly inside it
        self.stack: list[list[float]] = []
        self.counts: collections.defaultdict = collections.defaultdict(float)
        self.jet_depth = 0
        self.root_jet_s = 0.0


class Tracer:
    """Installs the wrappers and aggregates one case at a time."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._top: list[tuple[float, float]] = []

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, extra):
        tracer = self
        nonconv = name == "numeric.quad_halfline"
        failures = name == "params.solve_inverse"

        def wrapper(*args, **kwargs):
            st = tracer._state()
            c = st.counts
            if extra is not None:
                for suffix, amount in extra(args, kwargs):
                    c[f"{name}.{suffix}"] += amount
            if nonconv:
                f = args[0] if args else kwargs.pop("f")

                def counted(z):
                    c["numeric.quad_halfline.integrand_evals"] += 1
                    return f(z)

                args = (counted,) + tuple(args[1:])
            frame = [_now(), 0.0]
            st.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if nonconv and type(exc).__name__ == "NonConvergent":
                    c["numeric.quad_halfline.nonconvergent"] += 1
                if failures:
                    c["params.solve_inverse.failures"] += 1
                raise
            finally:
                end = _now()
                st.stack.pop()
                dur = end - frame[0]
                c[name + ".calls"] += 1
                c[name + ".self_s"] += dur - frame[1]
                if st.stack:
                    st.stack[-1][1] += dur
                else:
                    tracer._top.append((frame[0], end))

        return wrapper

    def _marker(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._state().counts[name + ".wall_s"] += _now() - start

        return wrapper

    def _jet_op(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts["jets.Jet.ops"] += 1
            if st.jet_depth:
                return fn(*args, **kwargs)
            st.jet_depth = 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - start
                st.jet_depth = 0
                st.counts["jets.Jet.self_s"] += dur
                if st.stack:
                    st.stack[-1][1] += dur
                else:
                    st.root_jet_s += dur

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "swanson" or modname.startswith("swanson.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, new)
        commands = sys.modules["swanson.cli"].COMMANDS
        for key, value in list(commands.items()):
            if value is orig:
                self._saved.append((commands, key, value))
                commands[key] = new

    def install(self) -> None:
        mods = {name: sys.modules[f"swanson.{name}"]
                for name in ("params", "potentials", "specialfn", "spectrum",
                             "diffop", "numeric", "cli", "jets")}
        for mod, attr, extra in SPANS:
            orig = getattr(mods[mod], attr)
            self._replace_everywhere(
                orig, self._span(f"{mod}.{attr}", orig, extra))
        for mod, attr in MARKERS:
            orig = getattr(mods[mod], attr)
            self._replace_everywhere(orig,
                                     self._marker(f"{mod}.{attr}", orig))
        jet = mods["jets"].Jet
        for op in JET_OPS:
            orig = jet.__dict__[op]
            self._saved.append((jet, op, orig))
            setattr(jet, op, self._jet_op(orig))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._saved.clear()

    # -- cases -------------------------------------------------------------

    def begin_case(self) -> None:
        self._local = threading.local()
        self._states = []
        self._top = []

    def end_case(self, case_s: float) -> dict[str, float]:
        """Counters of the finished case, with its uncovered time."""
        counts: collections.defaultdict = collections.defaultdict(float)
        root_jet = 0.0
        for st in self._states:
            for key, value in st.counts.items():
                counts[key] += value
            root_jet += st.root_jet_s
        covered = _union_length(self._top)
        counts["cli.case.self_s"] = max(0.0, case_s - covered - root_jet)
        return dict(counts)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total

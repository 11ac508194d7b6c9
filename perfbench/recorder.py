"""Records the calls a workload makes into the program, from outside it.

Wrappers replace module attributes that the program looks up at call
time (``core.spectral_norm_sq`` and so on), so calls made from inside
the program are seen too.  Every wrapper counts calls; the solver
wrappers also keep one record per solve, and the calls the workload
makes directly (not from inside another wrapped call) are timed as the
pass's steps; before_step, when set, runs before each step and its
result is kept in calibration.  With spans on, each call
leaves a span (name, start, end, parent) in memory; the run writes them
out when it ends.
"""

import os
import time
from contextlib import contextmanager

from lqsolve import cli, core, diagnostics, harness, solvers

# (module, attribute, span name).  A span's layer is the part before the dot.
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "write_array", "cli.write_array"),
    (cli, "read_array", "cli.read_array"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "generate_instance", "harness.generate_instance"),
    (harness, "gaita_run", "solvers.gaita_run"),
    (harness, "jaita_run", "solvers.jaita_run"),
    (solvers, "gaita_run", "solvers.gaita_run"),
    (solvers, "jaita_run", "solvers.jaita_run"),
    (core, "spectral_norm_sq", "core.spectral_norm_sq"),
    (core, "l_max", "core.l_max"),
    (diagnostics, "check_stationary", "diagnostics.check_stationary"),
    (diagnostics, "certify_local_min", "diagnostics.certify_local_min"),
)


class Recorder:
    def __init__(self):
        self.spans_on = False
        self.before_step = None
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._depth = 0
        self.reset()

    def reset(self):
        """Forget the calls and solves recorded so far (spans are kept)."""
        self.calls = {}
        self.solves = []
        self.bytes_read = 0
        self.steps = []          # [name, seconds] of each top-level call, in order
        self.calibration = []    # what before_step returned, once per step
        self.samples = []        # (algorithm, problem, mu, final x) for the prox timings

    @contextmanager
    def span(self, name):
        if not self.spans_on:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self):
        for module, attr, name in BOUNDARIES:
            on_return = None
            if name.startswith("solvers."):
                on_return = self._record_solve
            elif name == "cli.read_array":
                on_return = self._record_read
            setattr(module, attr, self._wrap(getattr(module, attr), name, on_return))

    def _wrap(self, fn, name, on_return):
        def wrapper(*args, **kwargs):
            if self._depth == 0 and self.before_step is not None:
                self.calibration.append(self.before_step())
            self.calls[name] = self.calls.get(name, 0) + 1
            self._depth += 1
            try:
                with self.span(name):
                    t0 = time.perf_counter()
                    result = fn(*args, **kwargs)
                    seconds = time.perf_counter() - t0
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.steps.append([name, seconds])
            if on_return is not None:
                on_return(name, args, result, seconds)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _record_read(self, name, args, result, seconds):
        self.bytes_read += os.path.getsize(args[0])

    def _record_solve(self, name, args, result, seconds):
        p, _, config = args[:3]
        state, trace = result
        algorithm = name.split(".")[1].split("_")[0]
        record = {"algorithm": algorithm, "seconds": seconds, "n": p.n,
                  "sweeps": trace.flags["sweeps"], "rows": len(trace)}
        if self.spans_on:
            record["retained_bytes"] = (sum(a.nbytes for a in trace.signs)
                                        + sum(a.nbytes for a in trace.iterates))
            record["zero_step_rows"] = sum(1 for row in trace.rows[1:] if row[3] == 0.0)
            self.samples.append((algorithm, p, config.mu, state.x.copy()))
        self.solves.append(record)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, parent), c in zip(spans, child)]

"""Per-layer tracing from outside the package.

:class:`Tracer` wraps the public names that ``cli``, ``harness`` and
``smc`` call, one layer per module of ``src/tomolab/``, and records a span
around each call.  A span's self time is its duration minus the time its
child spans cover.  Spans are folded into per-thread, per-layer totals
as they close, so no span is written while an operation runs; the
benchmark writes the totals when the run ends.

Risk ensembles run trials on worker threads while the calling thread
waits in the pool.  The worker threads' self times are scaled so that
together they fill the wall-clock interval the workers were active; the
calling thread's idle wait in that interval is dropped.  So on every
workload the layer self times add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# Layers whose self time is reported, in report order.
LAYERS = (
    "priors.sample_s", "qobj.check_s", "design.time_s", "likelihood.simulate_s",
    "likelihood.eval_s", "smc.update_s", "smc.resample_s", "tracking.project_s",
    "tracking.diffuse_s", "smc.summary_s", "cli.config_s", "cli.write_s",
    "harness.self_s",
)
ROOT = "harness.self_s"
COUNTS = ("priors.draws", "qobj.checks", "randq.matrices", "design.designs",
          "design.proposals", "smc.updates", "smc.resamples",
          "tracking.rows_projected")

_DRAWN_TRUTHS = ("from_prior", "from_distribution")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # [start, child_time] per open span


class Tracer:
    """Span recorder for one process.  ``install`` wraps, ``uninstall``
    restores; ``run_op`` traces one operation and returns its totals."""

    def __init__(self):
        self._local = _ThreadState()
        self._patched = []
        self._lock = threading.Lock()
        self._reset()

    def _reset(self):
        self.self_time = defaultdict(float)   # (thread id, layer) -> seconds
        self.counts = defaultdict(int)
        self.first_start = {}                 # thread id -> first top-level start
        self.last_end = {}                    # thread id -> last top-level end
        self.top_time = defaultdict(float)    # thread id -> top-level span time
        self.spans = defaultdict(int)         # thread id -> spans closed

    # -- span bookkeeping -------------------------------------------------

    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self._local.stack.append(frame)
        return frame

    def _exit(self, layer, frame):
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        dur = end - frame[0]
        tid = threading.get_ident()
        self.self_time[(tid, layer)] += dur - frame[1]
        self.spans[tid] += 1
        if stack:
            stack[-1][1] += dur
        else:
            self.first_start.setdefault(tid, frame[0])
            self.last_end[tid] = end
            self.top_time[tid] += dur

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, layer, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame)
            if counter is not None:
                counter(args, out)
            return out
        return traced

    def _patch(self, owner, name, layer, counter=None):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, layer, counter))
        else:
            wrapped = self.wrap(original, layer, counter)
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def _patch_counter(self, owner, name, counter):
        original = getattr(owner, name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            counter(args, out)
            return out
        setattr(owner, name, counted)
        self._patched.append((owner, name, original))

    # -- wrappers ---------------------------------------------------------

    def install(self):
        from tomolab import design, harness, likelihood, qobj, randq, smc

        c = self.count
        self._patch(harness, "init_cloud", "priors.sample_s",
                    lambda a, out: c("priors.draws", out.n_particles))
        self._patch(harness, "resolve_truth", "priors.sample_s",
                    lambda a, out: c("priors.draws", int(a[0].kind in _DRAWN_TRUTHS)))
        self._patch_counter(randq, "ginibre_matrix", lambda a, out: c("randq.matrices"))
        for cls in (qobj.DensityOperator, qobj.Effect, qobj.ChoiState):
            self._patch(cls, "__post_init__", "qobj.check_s",
                        lambda a, out: c("qobj.checks"))

        make_heuristic = harness.make_heuristic

        @functools.wraps(make_heuristic)
        def make_traced_heuristic(*args, **kwargs):
            return self.wrap(make_heuristic(*args, **kwargs), "design.time_s",
                             lambda a, out: c("design.designs"))
        harness.make_heuristic = make_traced_heuristic
        self._patched.append((harness, "make_heuristic", make_heuristic))
        self._patch_counter(design, "random_process_design",
                            lambda a, out: c("design.proposals"))

        self._patch(harness, "simulate_experiment", "likelihood.simulate_s")
        self._patch(likelihood, "binomial_likelihood", "likelihood.eval_s")
        self._patch(harness, "bayes_update", "smc.update_s",
                    lambda a, out: c("smc.updates"))
        self._patch(harness, "maybe_resample", "smc.resample_s",
                    lambda a, out: c("smc.resamples", int(out is not a[0])))
        self._patch(smc.HypothesisSpace, "project", "tracking.project_s",
                    lambda a, out: c("tracking.rows_projected", len(out)))
        self._patch(harness, "diffuse_cloud", "tracking.diffuse_s")
        for name in ("summarize", "posterior_mean_coords", "posterior_covariance",
                     "effective_sample_size", "principal_components"):
            self._patch(harness, name, "smc.summary_s")
        self._patch(harness.RunConfig, "from_json_file", "cli.config_s")
        self._patch(harness.RunRecord, "write", "cli.write_s")
        self._patch(harness.RiskResult, "write", "cli.write_s")

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- one traced operation ---------------------------------------------

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as the root span and return ``(result, totals)``.

        ``totals`` maps every layer of :data:`LAYERS` to its self time,
        every name of :data:`COUNTS` to its count, and ``"wall_s"`` to the
        root span's duration.
        """
        self._reset()
        op_tid = threading.get_ident()
        frame = self._enter()
        try:
            result = fn(*args)
        finally:
            self._exit(ROOT, frame)
        wall = self.last_end[op_tid] - self.first_start[op_tid]
        return result, self._fold(op_tid, wall)

    def _fold(self, op_tid, wall):
        totals = dict.fromkeys(LAYERS, 0.0)
        workers = [t for t in self.first_start if t != op_tid]
        worker_wall, scale = 0.0, 1.0
        if workers:
            busy = 0.0
            for tid in workers:
                # Time a worker was active but in no span is harness code
                # (the trial loop and row building).
                active = self.last_end[tid] - self.first_start[tid]
                self.self_time[(tid, ROOT)] += active - self.top_time[tid]
                busy += active
            worker_wall = (max(self.last_end[t] for t in workers)
                           - min(self.first_start[t] for t in workers))
            scale = worker_wall / busy if busy > 0.0 else 0.0
        for (tid, layer), secs in self.self_time.items():
            totals[layer] += secs if tid == op_tid else secs * scale
        # The calling thread waits while the workers run.
        totals[ROOT] -= worker_wall
        totals.update({name: self.counts.get(name, 0) for name in COUNTS})
        totals["wall_s"] = wall
        totals["spans"] = sum(self.spans.values())
        totals["threads"] = 1 + len(workers)
        return totals

"""Span tracing for the traced benchmark run.

Spans are recorded from the benchmark's side only: the V, W and log_density
callables the benchmark passes in are wrapped, and for the traced passes the
public gibbslab functions are rebound at every module attribute through which
a caller finds them, then restored.  No file of the package changes.

Spans are aggregated in memory per name: calls, inclusive time, and self time
(inclusive time minus the time covered by child spans).
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from gibbslab import functionals, measures, potentials, sampler, variational

MODULES = (measures, potentials, functionals, sampler, variational)

# Per-layer metrics of the traced run: name, unit, and the end-to-end metric
# (on the named workload) a change to that layer should move.
LAYER_METRICS = [
    ("potentials.W_calls", "count", "ops_per_s on mh_coulomb"),
    ("potentials.W_pairs", "count", "ops_per_s on mh_coulomb"),
    ("potentials.W_s", "s", "ops_per_s on mh_coulomb"),
    ("potentials.V_calls", "count", "ops_per_s on mh_coulomb"),
    ("potentials.V_s", "s", "ops_per_s on mh_coulomb"),
    ("potentials.evaluate_s", "s", "ops_per_s on mh_coulomb"),
    ("potentials.pair_matrix_s", "s", "ops_per_s on mh_coulomb"),
    ("sampler.moves", "count", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.accept_rate", "ratio", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.us_per_move", "us", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.self_s", "s", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.chains_s", "s", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.ess", "count", "ops_per_s, wall_s on mh_coulomb"),
    ("sampler.enum_states", "count", "wall_s, peak_rss_mb on exact_finite"),
    ("sampler.enum_mb", "MB", "wall_s, peak_rss_mb on exact_finite"),
    ("sampler.law_s", "s", "wall_s, peak_rss_mb on exact_finite"),
    ("sampler.draw_s", "s", "wall_s, peak_rss_mb on exact_finite"),
    ("functionals.hamiltonian_calls", "count", "ops_per_s on mh_coulomb"),
    ("functionals.hamiltonian_s", "s", "ops_per_s on mh_coulomb"),
    ("functionals.rate_s", "s", "wall_s on exact_finite"),
    ("variational.build_s", "s", "wall_s, fail_frac on variational_coulomb"),
    ("variational.solve_s", "s", "wall_s, fail_frac on variational_coulomb"),
    ("variational.iterations", "count", "wall_s, fail_frac on variational_coulomb"),
    ("variational.us_per_iter", "us", "wall_s, fail_frac on variational_coulomb"),
    ("variational.gap_I", "1", "wall_s, fail_frac on variational_coulomb"),
    ("variational.gap_J", "1", "wall_s, fail_frac on variational_coulomb"),
    ("measures.canon_calls", "count", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.canon_s", "s", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.d_bl_s", "s", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.wasserstein_s", "s", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_calls", "count", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_s", "s", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_assembly_s", "s", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_rows", "count", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_cols", "count", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.lp_matrix_mb", "MB", "op_p50_ms, op_p90_ms, peak_rss_mb on distances"),
    ("measures.log_density_s", "s", "ops_per_s on mh_coulomb"),
    ("trace.overhead_frac", "ratio", "none: traced over untraced wall time, minus 1"),
]

ENUM_NOTE = ("_enum: no span; no timed workload path calls gibbslab._enum at this "
             "commit (only the simplex_scan_oracle check does)")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Aggregating span recorder; spans record only while ``recording`` is set."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.recording = False
        self._open: list[float] = []     # child time accumulated by each open span

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0.0) + value

    def raise_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def stats(self, name) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span ``name``; ``after(tracer, args, kwargs, result)``
        records counts and is kept out of every span's self time."""
        open_spans = self._open
        stats = self.spans.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - child
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                h0 = time.perf_counter()
                after(self, args, kwargs, result)
                if open_spans:
                    open_spans[-1] += time.perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        return traced


def _arguments(fn, args, kwargs):
    """The call's arguments by parameter name, positional or not."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_pairs(tracer, args, kwargs, result):
    tracer.add("W_pairs", np.size(result))


def _count_moves(tracer, args, kwargs, result):
    cfg = _arguments(sampler.mh_sample, args, kwargs)["cfg"]
    diag = result[1]
    tracer.add("moves", cfg.n * len(diag.acceptance_rate))
    tracer.add("accepted", cfg.n * float(np.sum(diag.acceptance_rate)))
    tracer.add("ess", diag.ess)


def _count_enum(tracer, args, kwargs, result):
    digits, probs = result
    tracer.add("enum_states", len(probs))
    tracer.add("enum_bytes", digits.nbytes + probs.nbytes)


def _count_solve(kind):
    def after(tracer, args, kwargs, result):
        tracer.add("iterations", result.iterations)
        tracer.raise_max("gap_" + kind, result.convergence_gap)
    return after


def _matrix_bytes(a) -> int:
    """Bytes held by a constraint matrix: dense, or the arrays of a sparse one."""
    if isinstance(a, np.ndarray):
        return a.nbytes
    return sum(getattr(a, part).nbytes for part in ("data", "indices", "indptr", "row", "col")
               if hasattr(a, part))


def _count_lp(tracer, args, kwargs, result):
    arguments = _arguments(measures.linprog, args, kwargs)
    tracer.add("lp_cols", len(arguments["c"]))
    for key in ("A_ub", "A_eq"):
        a = arguments.get(key)
        if a is not None:
            tracer.add("lp_rows", a.shape[0])
            tracer.add("lp_matrix_bytes", _matrix_bytes(a))


def wrap_model(tracer):
    """Wrapper applied to the V, W and log_density callables the benchmark builds."""
    hooks = {"W": _count_pairs}

    def wrap(name, fn):
        return tracer.wrap(name, fn, hooks.get(name))
    return wrap


def _rebindings(tracer):
    """(original, wrapper) for every public function the traced run spans."""
    spans = [
        ("potentials.evaluate_W", potentials.evaluate_W, None),
        ("potentials.evaluate_V", potentials.evaluate_V, None),
        ("potentials.pair_matrix", potentials.pair_matrix, None),
        ("functionals.hamiltonian", functionals.hamiltonian, None),
        ("functionals.rate_I", functionals.rate_I, None),
        ("sampler.mh_sample", sampler.mh_sample, _count_moves),
        ("sampler.mh_sample_chains", sampler.mh_sample_chains, None),
        ("sampler.exact_gibbs_law", sampler.exact_gibbs_law, _count_enum),
        ("sampler.exact_sample_finite", sampler.exact_sample_finite, None),
        ("variational.build_objective_I", variational.build_objective_I, None),
        ("variational.build_objective_J", variational.build_objective_J, None),
        ("variational.minimize_I", variational.minimize_I, _count_solve("I")),
        ("variational.minimize_J", variational.minimize_J, _count_solve("J")),
        ("measures.canon", measures._union_support, None),
        ("measures.d_bl", measures.d_bl, None),
        ("measures.wasserstein_p", measures.wasserstein_p, None),
        ("measures.wasserstein_lp", measures.wasserstein_lp, None),
        ("measures.linprog", measures.linprog, _count_lp),
    ]
    return [(fn, tracer.wrap(name, fn, after)) for name, fn, after in spans]


@contextmanager
def instrumented(tracer):
    """Rebind the spanned functions wherever a gibbslab module holds them, and
    ``DiscreteMeasure.__init__``; restore every original on exit."""
    targets = []
    for original, wrapper in _rebindings(tracer):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    targets.append((module, attr, wrapper))
    init = measures.DiscreteMeasure.__init__
    targets.append((measures.DiscreteMeasure, "__init__", tracer.wrap("measures.canon", init)))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer, passes, overhead_frac, speed):
    """Per-layer metric values, per traced pass, keyed by LAYER_METRICS names;
    times are divided by the run's speed factor."""
    s = tracer.stats
    c = tracer.counts.get

    def per_pass(value):
        return value / passes

    moves = c("moves", 0.0)
    iterations = c("iterations", 0.0)
    build = s("variational.build_objective_I").total + s("variational.build_objective_J").total
    solve = s("variational.minimize_I").total + s("variational.minimize_J").total - build
    values = {
        "potentials.W_calls": per_pass(s("W").calls),
        "potentials.W_pairs": per_pass(c("W_pairs", 0.0)),
        "potentials.W_s": per_pass(s("W").total),
        "potentials.V_calls": per_pass(s("V").calls),
        "potentials.V_s": per_pass(s("V").total),
        "potentials.evaluate_s": per_pass(s("potentials.evaluate_W").self_time
                                          + s("potentials.evaluate_V").self_time),
        "potentials.pair_matrix_s": per_pass(s("potentials.pair_matrix").total),
        "sampler.moves": per_pass(moves),
        "sampler.accept_rate": c("accepted", 0.0) / moves if moves else 0.0,
        "sampler.us_per_move": 1e6 * s("sampler.mh_sample").total / moves if moves else 0.0,
        "sampler.self_s": per_pass(s("sampler.mh_sample").self_time),
        "sampler.chains_s": per_pass(s("sampler.mh_sample_chains").total),
        "sampler.ess": per_pass(c("ess", 0.0)),
        "sampler.enum_states": per_pass(c("enum_states", 0.0)),
        "sampler.enum_mb": per_pass(c("enum_bytes", 0.0)) / 1e6,
        "sampler.law_s": per_pass(s("sampler.exact_gibbs_law").total),
        "sampler.draw_s": per_pass(s("sampler.exact_sample_finite").self_time),
        "functionals.hamiltonian_calls": per_pass(s("functionals.hamiltonian").calls),
        "functionals.hamiltonian_s": per_pass(s("functionals.hamiltonian").total),
        "functionals.rate_s": per_pass(s("functionals.rate_I").total),
        "variational.build_s": per_pass(build),
        "variational.solve_s": per_pass(solve),
        "variational.iterations": per_pass(iterations),
        "variational.us_per_iter": 1e6 * solve / iterations if iterations else 0.0,
        "variational.gap_I": tracer.maxima.get("gap_I", 0.0),
        "variational.gap_J": tracer.maxima.get("gap_J", 0.0),
        "measures.canon_calls": per_pass(s("measures.canon").calls),
        "measures.canon_s": per_pass(s("measures.canon").total),
        "measures.d_bl_s": per_pass(s("measures.d_bl").total),
        "measures.wasserstein_s": per_pass(s("measures.wasserstein_p").total),
        "measures.lp_calls": per_pass(s("measures.linprog").calls),
        "measures.lp_s": per_pass(s("measures.linprog").total),
        "measures.lp_assembly_s": per_pass(s("measures.d_bl").self_time
                                           + s("measures.wasserstein_lp").self_time),
        "measures.lp_rows": per_pass(c("lp_rows", 0.0)),
        "measures.lp_cols": per_pass(c("lp_cols", 0.0)),
        "measures.lp_matrix_mb": per_pass(c("lp_matrix_bytes", 0.0)) / 1e6,
        "measures.log_density_s": per_pass(s("log_density").total),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (float(values[name]) / (speed if unit in ("s", "us") else 1.0), unit)
            for name, unit, _ in LAYER_METRICS}

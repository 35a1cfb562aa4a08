"""Run one verdict of a workload in a fresh interpreter and report it.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``calls`` (one argv list per ``surrotest.cli.main`` call),
``trace`` (bool), ``spans`` (path of the span file), ``run_id``, ``L`` and
``epochs``.  The last line printed is one JSON object with the exit code of
each call, the time to verdict, the peak resident set and, when traced, the
per-layer numbers.

Every import happens before the clock starts.  With tracing on, the names in
WRAPPED are replaced, from outside the package, by wrappers that record one
span per call; the spans stay in memory until the verdict is done and are
then written to the span file, which lies outside the run's ``--out``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import numpy as np

from surrotest import cli, dataset, dynsys, rnn, spectral, stats

# Each entry wraps a name in the namespace where its caller looks it up, so
# one function may be wrapped twice (cli.pair_surrogates is called by
# cmd_surrogate, dataset.pair_surrogates by build_dataset).  Spans are named
# after the module that defines the function.
WRAPPED = (
    (cli, "cmd_pipeline"), (cli, "cmd_generate"), (cli, "cmd_surrogate"),
    (cli, "cmd_dataset"), (cli, "cmd_train"), (cli, "cmd_report"),
    (cli, "load_series"), (cli, "butterworth_lowpass"),
    (cli, "pair_surrogates"), (cli, "build_dataset"), (cli, "split_dataset"),
    (cli, "save_dataset"), (cli, "load_dataset"),
    (dataset, "pair_surrogates"),
    (dynsys, "make_realizations"), (dynsys, "rk45_integrate"),
    (dynsys, "flow_derivative"), (dynsys, "save_realizations"),
    (dynsys, "load_realizations"),
    (spectral, "iaaft_surrogate"),
    (rnn, "train"), (rnn, "_loss_and_gradients"), (rnn, "_forward_batch"),
    (rnn, "clip_gradients"), (rnn, "adam_step"), (rnn, "evaluate"),
    (rnn, "save_model"), (rnn, "save_report"), (rnn, "load_report"),
    (stats, "binomial_test"),
)

IO_SPANS = ("dynsys.save_realizations", "dynsys.load_realizations",
            "dataset.load_series", "dataset.save_dataset",
            "dataset.load_dataset", "rnn.save_model", "rnn.save_report",
            "rnn.load_report")


class Absent(Exception):
    """A metric needs a span whose function no longer exists."""


class Tracer:
    """In-memory spans plus the counters read off wrapped results."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self.stack = []
        self.wrapped = set()
        self.absent = set()
        self.iaaft_iterations = 0
        self.iaaft_converged = 0
        self.clip_rescaled = 0

    def install(self):
        for module, attr in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
                continue
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(module, attr, self._wrap(fn, name))
            self.wrapped.add(name)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        observe = {"spectral.iaaft_surrogate": self._on_iaaft,
                   "rnn.clip_gradients": self._on_clip}.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _on_iaaft(self, args, result):
        self.iaaft_iterations += result.iterations
        self.iaaft_converged += bool(result.converged)

    def _on_clip(self, args, result):
        # clip_gradients returns its input unchanged unless it rescaled.
        self.clip_rescaled += result is not args[0]

    def aggregate(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        dur = [end - start for _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        agg = {name: [0, 0.0, 0.0] for name in self.wrapped}
        for i, (name, _, _, _) in enumerate(self.spans):
            row = agg[name]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return agg

    def write(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,index,name,parent,start,end\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{name},{parent},{start!r},{end!r}\n")


def layer_metrics(tracer: Tracer, ttv: float, epochs: int) -> tuple:
    """Per-layer numbers of one traced verdict, and the names left out."""
    agg = tracer.aggregate()

    def row(name):
        if name not in agg:
            raise Absent(name)
        return agg[name]

    def calls(name):
        return row(name)[0]

    def total(name):
        return row(name)[1]

    def self_time(name):
        return row(name)[2]

    def ratio(num, den):
        return num / den if den else 0.0

    def rk45_attempts():
        # One FSAL start-up evaluation per integrate call, six per attempt.
        return (calls("dynsys.flow_derivative")
                - calls("dynsys.rk45_integrate")) // 6

    def iaaft_iterations():
        row("spectral.iaaft_surrogate")
        return tracer.iaaft_iterations

    defs = {
        "cli.generate_s": lambda: total("cli.cmd_generate"),
        "cli.surrogate_s": lambda: total("cli.cmd_surrogate"),
        # Under pipeline the dataset stage is inlined in cmd_pipeline.
        "cli.dataset_s": lambda: (total("cli.cmd_dataset")
                                  + self_time("cli.cmd_pipeline")),
        "cli.train_s": lambda: total("cli.cmd_train"),
        "cli.report_s": lambda: total("cli.cmd_report"),
        "cli.io_s": lambda: sum(total(n) for n in IO_SPANS),
        "dynsys.make_realizations_s": lambda: total("dynsys.make_realizations"),
        "dynsys.rk45_integrate_s": lambda: total("dynsys.rk45_integrate"),
        "dynsys.rhs_s": lambda: total("dynsys.flow_derivative"),
        "dynsys.rhs_evals": lambda: calls("dynsys.flow_derivative"),
        "dynsys.rk45_step_attempts": rk45_attempts,
        "dynsys.rk45_us_per_step": lambda: 1e6 * ratio(
            total("dynsys.rk45_integrate"), rk45_attempts()),
        "spectral.iaaft_s": lambda: total("spectral.iaaft_surrogate"),
        "spectral.iaaft_calls": lambda: calls("spectral.iaaft_surrogate"),
        "spectral.iaaft_iterations": iaaft_iterations,
        "spectral.iaaft_us_per_iter": lambda: 1e6 * ratio(
            total("spectral.iaaft_surrogate"), iaaft_iterations()),
        "spectral.iaaft_converged_ratio": lambda: ratio(
            tracer.iaaft_converged, calls("spectral.iaaft_surrogate")),
        "dataset.load_series_s": lambda: total("dataset.load_series"),
        "dataset.butterworth_s": lambda: total("dataset.butterworth_lowpass"),
        "dataset.pair_surrogates_s": lambda: self_time("dataset.pair_surrogates"),
        "dataset.build_dataset_s": lambda: self_time("dataset.build_dataset"),
        "dataset.split_dataset_s": lambda: total("dataset.split_dataset"),
        "dataset.save_dataset_s": lambda: total("dataset.save_dataset"),
        "dataset.load_dataset_s": lambda: total("dataset.load_dataset"),
        "rnn.train_s": lambda: total("rnn.train"),
        "rnn.epoch_ms": lambda: 1e3 * ratio(total("rnn.train"), epochs),
        "rnn.batches": lambda: calls("rnn._loss_and_gradients"),
        "rnn.forward_s": lambda: total("rnn._forward_batch"),
        "rnn.backward_s": lambda: self_time("rnn._loss_and_gradients"),
        "rnn.adam_s": lambda: total("rnn.adam_step"),
        "rnn.clip_s": lambda: total("rnn.clip_gradients"),
        "rnn.evaluate_s": lambda: total("rnn.evaluate"),
        "rnn.clip_ratio": lambda: ratio(
            tracer.clip_rescaled, calls("rnn.clip_gradients")),
        "stats.binomial_test_s": lambda: total("stats.binomial_test"),
        "trace.stage_coverage": lambda: ratio(sum(
            end - start for _, parent, start, end in tracer.spans
            if parent < 0), ttv),
    }
    metrics, absent = {}, []
    for name, fn in defs.items():
        try:
            metrics[name] = fn()
        except Absent:
            absent.append(name)
    return metrics, absent


def dft_us(L: int, repeats: int = 7, calls: int = 200) -> float:
    """Median time of one spectral.dft at length L, in microseconds."""
    x = np.random.default_rng(L).standard_normal(L)
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            spectral.dft(x)
        per_call.append((time.perf_counter() - start) / calls)
    return 1e6 * float(np.median(per_call))


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in spec["calls"]:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    ttv = time.perf_counter() - start

    result = {
        "codes": codes,
        "ttv_s": ttv,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers, absent = layer_metrics(tracer, ttv, spec["epochs"])
        if hasattr(spectral, "dft"):
            layers["spectral.dft_us"] = dft_us(spec["L"])
        else:
            absent.append("spectral.dft_us")
        result["layers"] = layers
        result["absent"] = absent
        result["unwrapped"] = sorted(tracer.absent)
        tracer.write(spec["spans"], spec["run_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

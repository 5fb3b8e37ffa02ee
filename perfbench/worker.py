"""One benchmark child process: a workload in a fresh interpreter.

run.py starts this script with BLAS threads fixed in the environment and the
checkout's src/ on PYTHONPATH; it is not meant to be run by hand. Phases:

* gen     -- write the workload's input files, then exit.
* setup   -- import fracbloch and run one cold pass; report when it was ready.
* timed   -- setup, then untraced warm passes for --seconds.
* traced  -- setup, then alternate untraced and traced warm passes for
             --seconds (at least one of each).
* traced-once -- setup, then exactly one traced warm pass.

Every pass is verified after its timed region. The result, with per-pass
times, failures, peak RSS and (when traced) spans and layer metrics, is
written as JSON to --result.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_KEPT = 5


def _blas_identity() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


class Runner:
    def __init__(self, workload, workdir: str, tracer):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.passes: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.ended = 0.0

    def run_pass(self, traced: bool):
        """One timed pass over every operation, then its verification."""
        index = len(self.passes)
        pass_dir = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(pass_dir)
        ops = self.workload.ops()
        payloads = []
        first_span = len(self.tracer.spans)
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        for k, op in enumerate(ops):
            self.tracer.op = [index, k]
            try:
                payloads.append(op.run(pass_dir))
            except Exception:
                payloads.append(traceback.format_exc(limit=4))
        seconds = time.perf_counter() - start
        self.ended = time.monotonic()
        self.tracer.uninstall()
        record = {"s": seconds, "traced": traced}
        if traced:
            spans = self.tracer.spans
            record["layers"] = tracing.layer_metrics(
                {i: spans[i] for i in range(first_span, len(spans))}
            )
        self.passes.append(record)
        for op, payload in zip(ops, payloads):
            self.attempted += 1
            if isinstance(payload, str):
                self.failures.append(f"{op.label}: raised\n{payload}")
                continue
            try:
                op.check(payload)
            except Exception as exc:
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        shutil.rmtree(pass_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True,
                        choices=("gen", "setup", "timed", "traced", "traced-once"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.phase == "gen":
        workloads.GENERATORS[args.workload](args.seed, args.workdir)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"phase": "gen"}, fh)
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner(workload, args.workdir, tracing.Tracer())
    runner.run_pass(traced=False)
    ready = runner.ended

    start = time.monotonic()
    if args.phase == "timed":
        while time.monotonic() - start < args.seconds:
            runner.run_pass(traced=False)
    elif args.phase == "traced":
        traced = False
        while time.monotonic() - start < args.seconds or traced:
            runner.run_pass(traced=traced)
            traced = not traced
    elif args.phase == "traced-once":
        runner.run_pass(traced=True)

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "phase": args.phase,
        "ready_monotonic": ready,
        "cold_pass_s": runner.passes[0]["s"],
        "warm_passes": runner.passes[1:],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_FAILURES_KEPT],
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "trace_missing": runner.tracer.missing,
        "spans": runner.tracer.spans,
        **_blas_identity(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fracbloch benchmark: run one workload, or all of them, and report metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --repeats 3 --out results.json

One run starts every workload process fresh, with BLAS threads fixed at
min(2, nproc) through OPENBLAS_NUM_THREADS, and the checkout's src/ on
PYTHONPATH. Untraced (--trace 0) it reports the end-to-end metrics of
BENCHMARK.json; traced (--trace 1) the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--out also writes the full record (environment, quartiles, spans) to a file
that compare.py reads.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("presets", "pair-scan", "reload")
#: Workloads whose input files the program writes before any clock starts.
INPUT_WORKLOADS = ("reload",)
MAX_BLAS_THREADS = 2
#: Fresh processes whose set-up time is measured in one untraced run.
SETUP_SAMPLES = 3
#: Every child process must end within this many seconds of the run's start.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    out = {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3}
    if n > 10:
        out[f"p{100.0 * (n - 10) / n:.0f}"] = ordered[n - 11]
    return out


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record() -> dict:
    """nproc, CPU model and cache sizes, read-only from /proc and /sys."""
    cpuinfo = {}
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        key, _, value = line.partition(":")
        cpuinfo.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = _read(f"{index}/size")
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo.get("model name"),
        "cpuinfo_cache_size": cpuinfo.get("cache size"),
        **caches,
        "python": platform.python_version(),
        "git_commit": commit,
    }


class Run:
    """Child processes of one benchmark run, all inside one work directory."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        self.children = 0

    def child(self, phase: str, threads: int, seconds: float = 0.0) -> dict:
        """Start worker.py fresh, wait for it, return its result and spawn time."""
        self.children += 1
        result_path = os.path.join(self.workdir, f"result{self.children}.json")
        env = dict(os.environ)
        env.update({
            "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
            "MKL_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])),
            "PYTHONDONTWRITEBYTECODE": "1",
        })
        argv = [
            sys.executable, WORKER, "--phase", phase, "--workload", self.workload,
            "--seed", str(self.seed), "--workdir", self.workdir,
            "--result", result_path, "--seconds", repr(seconds),
        ]
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"{self.workload}: out of time before the {phase} child")
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: {phase} child exceeded the deadline")
        if done.returncode != 0:
            raise BenchError(
                f"{self.workload}: {phase} child exited with {done.returncode}\n"
                f"{done.stderr[-4000:]}"
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["spawned_monotonic"] = spawned
        return result

    def __enter__(self):
        os.makedirs(self.workdir)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def _median_layers(passes: list[dict]) -> dict:
    traced = [p["layers"] for p in passes if p["traced"]]
    return {name: statistics.median(p[name] for p in traced) for name in traced[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns its full record."""
    threads = blas_threads()
    with Run(workload, seed) as run:
        if workload in INPUT_WORKLOADS:
            run.child("gen", threads)
        if trace:
            main = run.child("traced", threads, seconds)
            single = run.child("traced-once", 1)
            children = [main, single]
            values = _median_layers(main["warm_passes"])
            single_layers = _median_layers(single["warm_passes"])
            values["propagator.eigh_1t_s"] = single_layers["propagator.eigh_s"]
            values["propagator.synth_1t_s"] = single_layers["propagator.synth_s"]
            untraced = [p["s"] for p in main["warm_passes"] if not p["traced"]]
            traced = [p["s"] for p in main["warm_passes"] if p["traced"]]
            values["trace.overhead_s"] = (
                statistics.median(traced) - statistics.median(untraced)
            )
            stats = {"pass_s_untraced": summarize(untraced),
                     "pass_s_traced": summarize(traced)}
        else:
            main = run.child("timed", threads, seconds)
            children = [main] + [
                run.child("setup", threads) for _ in range(SETUP_SAMPLES - 1)
            ]
            setups = [c["ready_monotonic"] - c["spawned_monotonic"] for c in children]
            passes = [p["s"] for p in main["warm_passes"]]
            if not passes:
                raise BenchError(f"{workload}: no warm pass completed")
            values = {
                "setup_s": statistics.median(setups),
                "pass_s": statistics.median(passes),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            stats = {"pass_s": summarize(passes), "setup_s": summarize(setups)}

    bench = load_benchmark()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            **machine_record(),
            "numpy": main["numpy"],
            "blas": f"{main['blas_name']} {main['blas_version']}",
            "blas_threads": threads,
            "seed": seed,
        },
        "metrics": metrics,
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": [f for c in children for f in c["failures"]],
        "trace_missing": main["trace_missing"],
    }
    if trace:
        record["spans"] = {"main": main["spans"], "single_thread": single["spans"]}
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines for one run record."""
    env = record["env"]
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"commit={env['git_commit'][:12]} nproc={env['nproc']} "
        f"blas={env['blas']} threads={env['blas_threads']} "
        f"numpy={env['numpy']} python={env['python']} cpu={env['cpu_model']}"
    ]
    for name, metric in record["metrics"].items():
        line = f"{record['workload']:>9} {name:<28} {metric['value']:.6g} {metric['unit']}"
        stats = record["stats"].get(name)
        if stats:
            extra = " ".join(
                f"{k}={v:.6g}" for k, v in stats.items() if k not in ("median", "n")
            )
            line += f"  (n={stats['n']} {extra})"
        lines.append(line)
    for name, stats in record["stats"].items():
        if name not in record["metrics"]:
            values = " ".join(f"{k}={v:.6g}" for k, v in stats.items())
            lines.append(f"{record['workload']:>9} {name:<28} {values}")
    lines.append(
        f"{record['workload']:>9} {'error_rate':<28} {record['error_rate']:.6g} ratio"
        f"  ({record['failed']}/{record['attempted']} operations)"
    )
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    if record["trace_missing"]:
        lines.append(f"  not traced (missing): {', '.join(record['trace_missing'])}")
    return lines


def write_results(path: str, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": records}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --all: runs per workload and mode, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the full run records here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracbloch", "__init__.py")):
        print(f"error: no fracbloch sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    try:
        if not args.all:
            record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
            print("\n".join(describe(record)))
            if args.out:
                write_results(args.out, [record])
            print(json.dumps({
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }))
            return 0
        records = []
        for workload in WORKLOAD_NAMES:
            for trace in (False, True):
                for k in range(args.repeats):
                    record = run_workload(workload, args.seed + k, seconds, trace)
                    print("\n".join(describe(record)), flush=True)
                    records.append(record)
        if args.out:
            write_results(args.out, records)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

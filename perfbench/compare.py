"""Compare two benchmark result files metric by metric, per workload.

    python3 perfbench/compare.py BASE.json NEW.json

A result file is what ``run.py --out`` writes. For every workload in either
file it prints each end-to-end metric (from untraced runs) and each per-layer
metric (from traced runs): both medians with their quartiles and run counts,
and the ratio new/base with its base. A metric is marked "unresolved" when
the spread of either side, the distance between its quartiles as a share of
its median, exceeds the bound: the metric's own bound from BENCHMARK.json for
end-to-end metrics, and the pass_s bound for per-layer metrics, which have
none of their own.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402

from run import WORKLOAD_NAMES, load_benchmark, summarize  # noqa: E402


def spread(stats: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def _load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _values(runs, workload, trace, name) -> list[float]:
    return [
        r["metrics"][name]["value"] for r in runs
        if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]
    ]


def _error_rate(runs, workload) -> str:
    mine = [r for r in runs if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in mine)
    failed = sum(r["failed"] for r in mine)
    return f"{failed / attempted:.3g} ({failed}/{attempted})" if attempted else "-"


def _cell(stats) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']}"


def compare(base_runs: list[dict], new_runs: list[dict], bench: dict) -> list[str]:
    pass_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "pass_s")
    metrics = [(m, 0, m["bound"]) for m in bench["end_to_end"]]
    metrics += [(m, 1, pass_bound) for m in bench["per_layer"]]
    present = {r["workload"] for r in base_runs + new_runs}
    workloads = [w for w in WORKLOAD_NAMES if w in present]
    workloads += sorted(present - set(workloads))
    lines = []
    for workload in workloads:
        lines.append(f"== {workload}: error_rate base {_error_rate(base_runs, workload)}, "
                     f"new {_error_rate(new_runs, workload)}")
        lines.append(f"{'metric':<34} {'base median [q1, q3]':<34} "
                     f"{'new median [q1, q3]':<34} new/base")
        for metric, trace, bound in metrics:
            name, unit = metric["name"], metric["unit"]
            base = _values(base_runs, workload, trace, name)
            new = _values(new_runs, workload, trace, name)
            if not base or not new:
                continue
            b, n = summarize(base), summarize(new)
            if b["median"]:
                ratio = f"{n['median'] / b['median']:.3f} (base {b['median']:.4g} {unit})"
            else:
                ratio = f"- (base 0 {unit})"
            flag = "  unresolved" if max(spread(b), spread(n)) > bound else ""
            lines.append(f"{name + ' (' + unit + ')':<34} {_cell(b):<34} {_cell(n):<34} "
                         f"{ratio}{flag}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines = compare(_load_runs(args.base), _load_runs(args.new), load_benchmark())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

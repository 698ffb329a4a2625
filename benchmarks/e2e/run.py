"""One command for the whole benchmark.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed S [--workload W] [--traced]
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

The first form is for people: it runs every workload (or one), prints
every metric by name with its unit, checks the outputs against a
``Client.local`` reference and writes ``results/e2e_<seed>.json`` beside
this file.  The second form is the contract in ``BENCHMARK.json``: one
workload for ``T`` measured seconds, ending with one JSON line on stdout.
``--repeat-check K`` runs K sets back to back and holds their difference
against the bounds; ``--baseline N`` records N sets plus a traced pass as
``baselines/<fingerprint>.json``.  Exits non-zero when any op failed or
mismatched the reference.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread per numerical library, set before numpy loads: the in-process
# reference must do the server's arithmetic, and the generator must not
# spin up BLAS threads next to the server it is timing.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):  # run as a file: make the package importable
    sys.path.insert(0, str(ROOT))
    __package__ = "benchmarks.e2e"
if not any(Path(entry or ".").resolve() == ROOT / "src" for entry in sys.path):
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402

try:
    from . import blockstats, host, ladder, measure, servers  # noqa: E402
    from .workloads import WORKLOADS  # noqa: E402
except ModuleNotFoundError as error:
    if error.name != "repro":
        raise
    raise SystemExit(f"error: no repro package under {ROOT / 'src'}: nothing to benchmark")

RESULTS_DIR = HERE / "results"
BASELINES_DIR = HERE / "baselines"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
#: Contract runs may not spend the human default of 30 s waiting out a
#: busy host: ninety of them share one time cap.
CONTRACT_LOAD_WAIT_S = 5.0


def _measure(name: str, seed: int, seconds: float | None, load_wait_s: float = 30.0) -> dict:
    return measure.run_workload(WORKLOADS[name], seed, seconds, load_wait_s)


def _trace(name: str, seed: int, seconds: float | None, load_wait_s: float = 30.0) -> dict:
    result = ladder.trace_workload(WORKLOADS[name], seed, seconds, load_wait_s)
    # Every per-layer name, in the spec's order; null where the workload
    # never crosses the layer.
    result["metrics"] = {metric: result["metrics"].get(metric) for metric in PER_LAYER}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"trace_{name}.json").write_text(json.dumps(result) + "\n")
    return result


def _format(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_metrics(result: dict, spec: dict) -> None:
    """Every metric of one run by name, with its unit."""
    print(f"\n== {result['workload']} (seed {result['seed']}) ==")
    for name, metric in spec.items():
        value = result["metrics"].get(name)
        print(f"  {name:<40} {_format(value):>12} {metric['unit']:<6} ({metric['better']} is better)")
    if "op_p99_ms" in result:
        p99 = result["op_p99_ms"]
        print(f"  {'op_p99_ms (pooled, ungated)':<40} {_format(p99['value']):>12} ms     "
              f"({p99['samples']} samples)")
        for name in ("server_cpu_ms_per_structure", "server_peak_rss_mb"):
            unit = PER_LAYER[name]["unit"]
            print(f"  {name + ' (ungated)':<40} {_format(result['metrics'][name]):>12} {unit}")
        print(f"  ops attempted {result['attempted']}, failed {result['failed']}, "
              f"verified against Client.local {result['verified_ops']}; "
              f"{len(result['blocks'])} blocks in {result['measured_s']:.1f} s")
    if "ladder" in result:
        print(f"  ladder (self times sum to the top rung, {result['top_rung_ms']:.3f} ms; "
              f"untraced op_p50_ms {result['untraced_op_p50_ms']:.3f}):")
        for rung in result["ladder"]:
            print(f"    {rung['layer']:<38} {rung['self_ms']:>9.3f} ms")
    seen = result["host"]
    print(f"  host: spin {seen['spin_ms_before']:.0f} ms before, {seen['spin_ms_after']:.0f} ms "
          f"after; 1-min load {seen['loadavg_1m']}")
    if seen["noisy_host"]:
        print("  WARNING noisy_host: 1-min load average stayed above nproc")
    for message in result.get("failures", ()):
        print(f"  FAILURE {message}")


def contract_line(result: dict, spec: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout.

    That form needs a number for every listed metric from every workload.
    A layer the workload never crosses (``null`` in the JSON files) reads
    as the pass's empty span, the clock's own cost, when it is a time: no
    time was spent there that the clock could see.  A size or count is 0.
    """
    metrics = {}
    for name, metric in spec.items():
        value = result["metrics"].get(name)
        if value is None:
            value = result["empty_span_ms"] if metric["unit"] == "ms" else 0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_set(names: list[str], seed: int, seconds: float | None) -> dict:
    results = {}
    for name in names:
        results[name] = _measure(name, seed, seconds)
        print_metrics(results[name], END_TO_END)
    return results


def repeat_check(names: list[str], seed: int, seconds: float | None, sets: int) -> int:
    """Run ``sets`` same-code, same-seed sets; fail on any difference beyond a bound."""
    runs = [run_set(names, seed, seconds) for _ in range(sets)]
    breaches = 0
    print(f"\n== repeat check: {sets} sets, seed {seed} ==")
    print(f"  {'workload':<16} {'metric':<30} {'worst':>9} {'bound':>7}")
    for name in names:
        for metric, spec in END_TO_END.items():
            values = [run[name]["metrics"][metric] for run in runs]
            if None in values:
                continue
            worst = max(
                blockstats.worsening(values[i], values[j], spec["better"])
                for i in range(sets)
                for j in range(sets)
                if i != j
            )
            breach = worst > spec["bound"]
            breaches += breach
            print(f"  {name:<16} {metric:<30} {worst:>8.2%} {spec['bound']:>7.1%}"
                  + ("  BREACH" if breach else ""))
    failed = sum(run[name]["failed"] for run in runs for name in names)
    return 1 if breaches or failed else 0


def write_baseline(names: list[str], seed: int, seconds: float | None, sets: int) -> int:
    """Record ``sets`` sets (seeds ``seed``..) and one traced pass per workload."""
    info = host.fingerprint()
    runs = [run_set(names, seed + index, seconds) for index in range(sets)]
    traces = {}
    for name in names:
        trace = _trace(name, seed, seconds)
        print_metrics(trace, PER_LAYER)
        trace.pop("spans")  # the committed file keeps durations, not timestamps
        traces[name] = trace
    # Gated or not, every metric of the untraced run: the demoted two are
    # in here so the table that demoted them stays reproducible.
    spread = {
        name: {
            metric: blockstats.relative_range([run[name]["metrics"][metric] for run in runs])
            for metric in runs[0][name]["metrics"]
        }
        for name in names
    }
    print("\n== A/A spread, (max - min) / median ==")
    for name in names:
        for metric, value in spread[name].items():
            print(f"  {name:<16} {metric:<30} {value:>8.2%}")
    BASELINES_DIR.mkdir(exist_ok=True)
    path = BASELINES_DIR / f"{host.fingerprint_id(info)}.json"
    path.write_text(
        json.dumps(
            {"fingerprint": info, "sets": runs, "spread": spread, "traced": traces}, indent=1
        )
        + "\n"
    )
    print(f"\nwrote {path}")
    return 1 if any(run[name]["failed"] for run in runs for name in names) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat-check", type=int, nargs="?", const=2, metavar="K")
    parser.add_argument("--baseline", type=int, metavar="N")
    args = parser.parse_args(argv)
    servers.install_reapers()
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace or args.traced)

    if args.repeat_check:
        return repeat_check(names, args.seed, args.seconds, args.repeat_check)
    if args.baseline:
        return write_baseline(names, args.seed, args.seconds, args.baseline)

    contract = args.workload is not None and args.seconds is not None
    wait_s = CONTRACT_LOAD_WAIT_S if contract else 30.0
    run, spec = (_trace, PER_LAYER) if traced else (_measure, END_TO_END)
    results = {}
    for name in names:
        results[name] = run(name, args.seed, args.seconds, wait_s)
        print_metrics(results[name], spec)
    failed = sum(result["failed"] for result in results.values())
    if contract:
        print(contract_line(results[args.workload], spec))
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        kind = "traced" if traced else "e2e"
        path = RESULTS_DIR / f"{kind}_{args.seed}.json"
        for result in results.values():
            result.pop("spans", None)  # already in trace_<workload>.json
        path.write_text(
            json.dumps({"fingerprint": host.fingerprint(), "results": results}, indent=1) + "\n"
        )
        print(f"\nwrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

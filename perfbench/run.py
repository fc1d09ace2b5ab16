"""The formstrength benchmark.

Usage::

    python3 perfbench/run.py --workload certify|systems|scan|oracle \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory.  A run generates the workload's inputs from
the seed, then repeats whole rounds of the workload's operations while the
next round is expected to end within ``--seconds`` (at least two rounds);
each metric takes every operation's median over the rounds.  Every
operation runs in a fresh interpreter, one at a time, so it starts from
empty module caches as a CLI command does; interpreter start-up and
``import formstrength`` count toward ``setup_s`` and never toward the
operation.  Every time is in reference seconds (``pace.py``): wall time
scaled by the speed of a fixed loop sampled while it ran, so that the load
of other tenants on a shared host cancels out.  After the rounds, every
output is checked by the benchmark's own code (``checks.py``).

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` rounds alternate untraced and traced, and the
result holds the per-layer metrics of the traced rounds plus
``trace.overhead_s``.  Each run also writes a record with its environment to
``.bench_out/`` in the checkout.  See README.md for the workloads and for
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402

OP_TIMEOUT_S = 60        # one operation; the slowest today takes about 11 s
RUN_DEADLINE_S = 110     # no round starts after this, whatever --seconds says
SETUP_PROBES = 3         # extra start-ups per round, so setup_s has samples on every workload
MIN_ROUNDS = 2           # so that no operation's median rests on one sample

# end-to-end metrics and their units
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "phase1_s": "s",
    "phase2_s": "s",
    "items_per_s": "1/s",
}

# what the workload-neutral metrics are on each workload (names used in the
# run record and README)
ALIASES = {
    "certify": {"phase1_s": "certify_s", "phase2_s": "recheck_s", "items_per_s": "operations_per_s"},
    "systems": {"phase1_s": "codim_s", "phase2_s": "regseq_s", "items_per_s": "systems_per_s"},
    "scan": {"phase1_s": "cli_scan_s", "phase2_s": "rank_scan_s", "items_per_s": "scan_points_per_s"},
    "oracle": {"phase1_s": "oracle_table_s", "phase2_s": "oracle_classify_s",
               "items_per_s": "oracle_forms_per_s"},
}


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def program_present():
    return (os.path.isfile(os.path.join(ROOT, "src", "formstrength", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "fixtures", "v0.1.0")))


def run_op(op, traced, workdir, index, env):
    """One operation in a fresh interpreter; returns its result dict."""
    base = os.path.join(workdir, f"op{index:02d}")
    spec = {"op": op, "trace": traced, "spans": base + ".spans.json",
            "leads": op["expect"].get("leads")}
    with open(base + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out_path = os.path.join(workdir, op["expect"].get("out", f"op{index:02d}.out"))
    with open(out_path, "w", encoding="utf-8") as out, open(base + ".err", "w", encoding="utf-8") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, WORKER, base + ".spec.json", base + ".result.json"],
                                  stdout=out, stderr=err, env=env, cwd=ROOT, timeout=OP_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0:
        with open(base + ".err", "r", encoding="utf-8") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        return {"error": "timed out" if code is None else f"worker exit {code}: {tail[0]}"}
    with open(base + ".result.json", "r", encoding="utf-8") as fh:
        result = json.load(fh)
    with open(out_path, "r", encoding="utf-8") as fh:
        result["stdout"] = fh.read()
    result["setup_wall_s"], result["setup_s"] = setup_time(result, spawned)
    if traced:
        with open(spec["spans"], "r", encoding="utf-8") as fh:
            layers = tracing.summarize(json.load(fh))
        os.remove(spec["spans"])
        result["layers"] = {k: v * result["layer_scale"] if k.endswith("_s") else v
                            for k, v in layers.items()}
    return result


def setup_time(result, spawned):
    """(wall, reference) seconds from spawning a worker to its ``ready``."""
    wall = result["ready"] - spawned - result["setup_spent_s"]
    return wall, pace.scaled(wall, result["setup_reference_s"])


def probe_setup(workdir, env):
    """Start-up and package import alone, in a fresh interpreter."""
    spec = os.path.join(workdir, "probe.spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"op": None}, fh)
    result = os.path.join(workdir, "probe.result.json")
    spawned = time.monotonic()
    subprocess.run([sys.executable, WORKER, spec, result], env=env, cwd=ROOT,
                   timeout=OP_TIMEOUT_S, check=True)
    with open(result, "r", encoding="utf-8") as fh:
        return setup_time(json.load(fh), spawned)


def measure(ops, seconds, trace, workdir):
    """Whole rounds while the next one is expected to end within
    ``seconds``, and at least ``MIN_ROUNDS`` (with ``trace``, rounds
    alternate untraced and traced).  Returns ``([(traced, results)], setups)``,
    each set-up a pair (wall, reference) of seconds."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    rounds, setups = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        setups.extend(probe_setup(workdir, env) for _ in range(SETUP_PROBES))
        traced = bool(trace) and len(rounds) % 2 == 1
        results = [run_op(op, traced, workdir, i, env) for i, op in enumerate(ops)]
        setups.extend((res["setup_wall_s"], res["setup_s"]) for res in results if "error" not in res)
        rounds.append((traced, results))
        now = time.monotonic()
        if len(rounds) < MIN_ROUNDS:
            continue
        if now - start + (now - began) > seconds or now - start > RUN_DEADLINE_S:
            return rounds, setups


def judge(ops, rounds):
    """(attempted, failed, correct, problems) over every operation run."""
    cache = {}
    attempted = failed = 0
    correct = True
    problems = []
    for _, results in rounds:
        for op, res in zip(ops, results):
            attempted += 1
            if "error" in res:
                why, wrong = res["error"], False
            elif res["wrappers_left"]:
                why, wrong = f"{res['wrappers_left']} tracing wrappers left installed", True
            else:
                why = checks.check(op, res, cache)
                wrong = why is not None
            if why is not None:
                failed += 1
                correct = correct and not wrong
                problems.append(f"{op['id']}: {why}")
    return attempted, failed, correct, problems


def per_op(ops, rounds, value):
    """For each operation, the median over ``rounds`` of ``value(op, result)``,
    leaving out the rounds where the operation errored; keyed by op id."""
    out = {}
    for i, op in enumerate(ops):
        values = [value(op, results[i]) for results in rounds if "error" not in results[i]]
        if values:
            out[op["id"]] = statistics.median(values)
    return out


def end_to_end(ops, rounds, setups, wall=False):
    """The end-to-end metrics, in reference seconds or, with ``wall``, in
    wall seconds (for the run record)."""
    plain = [results for traced, results in rounds if not traced]
    op_key, parts_key = ("op_wall_s", "parts_wall") if wall else ("op_s", "parts")

    def items_time(op, res):
        return res[parts_key][op["items_part"]] if "items_part" in op else res[op_key]

    op_s = per_op(ops, plain, lambda op, res: res[op_key])
    items = per_op(ops, plain, lambda op, res: op["items"])
    return {
        "setup_s": statistics.median(setup[0 if wall else 1] for setup in setups),
        "total_s": sum(op_s.values()),
        "peak_rss_mb": max(per_op(ops, plain, lambda op, res: res["rss_kb"]).values()) / 1024,
        "phase1_s": sum(per_op(ops, plain, lambda op, res: res[parts_key].get("1", 0.0)).values()),
        "phase2_s": sum(per_op(ops, plain, lambda op, res: res[parts_key].get("2", 0.0)).values()),
        "items_per_s": sum(items.values()) / sum(per_op(ops, plain, items_time).values()),
    }


def per_layer(ops, rounds):
    traced = [results for t, results in rounds if t]
    plain = [results for t, results in rounds if not t]
    values = {name: sum(per_op(ops, traced, lambda op, res: res["layers"][name]).values())
              for name in tracing.METRICS[:-1]}
    values["trace.overhead_s"] = (sum(per_op(ops, traced, lambda op, res: res["op_s"]).values())
                                  - sum(per_op(ops, plain, lambda op, res: res["op_s"]).values()))
    return values


def git_sha():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_record(args, rounds, setups, ops, metrics, attempted, failed, correct, problems):
    plain = [results for traced, results in rounds if not traced]
    def op_round(key):
        return {op["id"]: [results[i][key] for results in plain if "error" not in results[i]]
                for i, op in enumerate(ops)}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "named": {ALIASES[args.workload].get(k, k): v for k, v in metrics.items()},
        "wall_metrics": end_to_end(ops, rounds, setups, wall=True) if plain else None,
        "op_round_s": op_round("op_s"),
        "op_round_wall_s": op_round("op_wall_s"),
        "setup_samples_s": [ref for _, ref in setups],
        "setup_samples_wall_s": [wall for wall, _ in setups],
        "reference_nominal_s": pace.NOMINAL_S,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "unix_time": time.time(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not program_present():
        print(f"error: no formstrength source tree (src/formstrength, fixtures/v0.1.0) under {ROOT}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = gen.make_ops(args.workload, args.seed, workdir, ROOT)
        rounds, setups = measure(ops, args.seconds, args.trace, workdir)
        attempted, failed, correct, problems = judge(ops, rounds)
        if attempted == failed:
            print("error: every operation failed: " + "; ".join(problems[:3]), file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(ops, rounds)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(ops, rounds, setups)
            units = END_TO_END
        write_record(args, rounds, setups, ops, metrics, attempted, failed, correct, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json`` with the
program's ``src`` directory on ``PYTHONPATH``.  The spec holds the operation
(see ``gen.py``) plus ``trace`` (install the span wrappers), ``spans`` (where
to write them) and ``leads`` (an ideal file whose reduced-basis lead
monomials are reported after the timed part, for the Hilbert-function
check).  The program's standard output is this process's standard output,
as when the CLI runs from a shell.

``ready`` in the result is ``time.monotonic()`` once the interpreter has
started and imported the package; the parent subtracts the moment it
started the process to get the set-up time.  Only the operation itself lies
inside the timed interval.  Reference samples (``pace.py``) run from before
the package import to the end; every time is reported in reference seconds,
and in wall seconds under ``*_wall``.
"""

import sys
import time

import pace

SAMPLER = pace.Sampler()
SAMPLER.start()

import formstrength  # noqa: E402
import formstrength.cli  # noqa: E402

READY = time.monotonic()
READY_MARK = SAMPLER.mark()
SAMPLER.bracket()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import tracing  # noqa: E402

ORACLE_CHUNK = 1000      # forms per timed chunk of the oracle's classification


def _part(interval):
    return interval.seconds, interval.wall_s


def run_cli(op):
    with pace.Interval(SAMPLER) as iv:
        rc = formstrength.cli.run(op["argv"])
        sys.stdout.flush()
    return rc, {str(op["phase"]): _part(iv)}, [iv], None


def run_rank_scan(op):
    from formstrength import parse, quadratic

    with pace.Interval(SAMPLER) as iv:
        _, polys = parse.load_ideal_file(op["args"]["path"])
        forms = [quadratic.QuadraticForm.from_poly(f) for f in polys]
        histogram, offender = quadratic.rank_scan_all_nonzero(forms, expect=op["args"]["expect"])
    payload = {"histogram": {str(k): v for k, v in sorted(histogram.items())}, "offender": offender}
    return 0, {str(op["phase"]): _part(iv)}, [iv], payload


def run_oracle(op):
    from formstrength import quadratic, strength
    from gen import ORACLE_MONOMIALS

    ring = formstrength.Ring.flat(4, formstrength.GF(3))
    with open(op["args"]["path"], "r", encoding="utf-8") as fh:
        codes = [int(v) for v in fh.read().split()]
    forms = []
    for code in codes:
        coeffs = [(code // 3 ** i) % 3 for i in range(10)]
        forms.append(formstrength.Poly(ring, {m: ring.domain.from_int(c)
                                              for m, c in zip(ORACLE_MONOMIALS, coeffs) if c}))

    def verdict(f):
        k = quadratic.QuadraticForm.from_poly(f).rank()
        s = strength.strength_bruteforce_small(f, s_max=2)
        return f"{k}{9 if s is None else s + 1}"

    # the first call builds the strength table; the rest classify with it,
    # timed in chunks: part 2 is their count at the median chunk rate, so a
    # burst of load on the machine during one chunk does not move it
    with pace.Interval(SAMPLER) as table:
        out = [verdict(forms[0])]
    chunks = []
    rest = forms[1:]
    for i in range(0, len(rest), ORACLE_CHUNK):
        chunk = rest[i:i + ORACLE_CHUNK]
        with pace.Interval(SAMPLER) as iv:
            out.extend(verdict(f) for f in chunk)
        chunks.append((len(chunk), iv))
    classify = (len(rest) / statistics.median(n / iv.seconds for n, iv in chunks),
                len(rest) / statistics.median(n / iv.wall_s for n, iv in chunks))
    return (0, {"1": _part(table), "2": classify}, [table] + [iv for _, iv in chunks],
            {"verdicts": "".join(out)})


KINDS = {"cli": run_cli, "rank_scan": run_rank_scan, "oracle": run_oracle}


def main(spec_path, result_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    op = spec["op"]
    # set-up: the time up to READY, less the samples taken in it; scaled by
    # them and the bracket just after
    setup = {"ready": READY, "setup_spent_s": SAMPLER.spent(0, READY_MARK),
             "setup_reference_s": SAMPLER.reference_s(0, READY_MARK + pace.BRACKET)}
    if op is None:
        # a start-up probe: nothing to run
        SAMPLER.stop()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        rc, parts, intervals, payload = KINDS[op["kind"]](op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    SAMPLER.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = dict(setup, **{
        "rc": rc,
        "op_s": sum(seconds for seconds, _ in parts.values()),
        "op_wall_s": sum(wall for _, wall in parts.values()),
        "parts": {k: seconds for k, (seconds, _) in parts.items()},
        "parts_wall": {k: wall for k, (_, wall) in parts.items()},
        # span durations include the samples taken inside them: this turns
        # them into reference seconds
        "layer_scale": (sum(iv.seconds for iv in intervals)
                        / sum(iv.elapsed_s for iv in intervals)),
        "payload": payload,
        "rss_kb": rss_kb,
        "wrappers_left": tracing.installed_wrappers(),
    })
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    if spec.get("leads"):
        _, polys = formstrength.load_ideal_file(spec["leads"])
        basis = formstrength.Ideal(polys[0].ring, polys).groebner()
        result["leads"] = [list(m) for m in basis.lead_monomials]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

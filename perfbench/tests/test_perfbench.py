"""Tests of the benchmark itself: corrupted outputs count as failed
operations, the untraced run leaves no wrapper installed, the independent
checks agree with hand-worked cases, reference seconds subtract and scale
by the reference samples, and BENCHMARK.json lists exactly the metrics and
workloads the benchmark reports.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import json
import os
import random
import time

import pytest

import checks
import gen
import pace
import run
import tracing


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(run.ROOT, "src")
    return env


def _op(ops, op_id):
    return next(op for op in ops if op["id"] == op_id)


def _judge_one(op, result):
    attempted, failed, correct, problems = run.judge([op], [(False, [result])])
    return failed, correct, problems


def _cli_result(stdout, rc=0):
    return {"rc": rc, "stdout": stdout, "wrappers_left": 0, "op_s": 0.1, "parts": {"1": 0.1}}


def test_wrong_codim_is_a_failed_operation(workdir):
    op = _op(gen.make_ops("systems", 3, workdir, run.ROOT), "codim-minors-7x6")
    good = json.dumps({"result": {"codim": 2}})
    assert _judge_one(op, _cli_result(good))[:2] == (0, True)
    bad = json.dumps({"result": {"codim": 3}})
    failed, correct, problems = _judge_one(op, _cli_result(bad))
    assert (failed, correct) == (1, False)
    assert "codim 3, expected 2" in problems[0]


def test_wrong_lead_ideal_is_a_failed_operation(workdir):
    op = _op(gen.make_ops("systems", 3, workdir, run.ROOT), "codim-quad3-n10")
    result = _cli_result(json.dumps({"result": {"codim": 3}}))
    # three quadric leads in disjoint variables: a complete intersection
    n = 10
    result["leads"] = [[2 if k == i else 0 for k in range(n)] for i in range(3)]
    assert _judge_one(op, result)[:2] == (0, True)
    # one lead missing: the Hilbert function no longer matches
    result["leads"] = result["leads"][:2]
    assert _judge_one(op, result)[:2] == (1, False)


def test_tampered_certificate_is_a_failed_operation(workdir):
    ops = gen.make_ops("certify", 5, workdir, run.ROOT)
    # the real program on the tampered copy, treated as if certify had
    # emitted it: recheck exits 1, so the operation fails
    op = dict(_op(ops, "recheck-tampered"))
    op["expect"] = dict(op["expect"], rc=0)
    result = run.run_op(op, False, workdir, 0, _env())
    assert result["rc"] == 1
    failed, correct, _ = _judge_one(op, result)
    assert (failed, correct) == (1, False)
    # and a certificate whose sub-verdict was flipped fails the certify check
    with open(os.path.join(run.ROOT, "fixtures", "v0.1.0", "n33.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["subverdicts"][0]["passed"] = False
    certify = _op(ops, "certify-n33")
    assert _judge_one(certify, _cli_result(json.dumps(doc)))[:2] == (1, False)


def test_wrong_minrank_is_a_failed_operation(workdir):
    op = _op(gen.make_ops("scan", 2, workdir, run.ROOT), "minrank-diag")
    b, p = op["expect"]["b"], op["expect"]["p"]
    want = len(b) - max(b.count(v) for v in b)
    alpha = max(set(b), key=b.count)
    scan = {"value": want, "witness": [str(p - alpha), "1"], "method": "finite-field-scan"}
    doc = {"result": {"minrank": want, "scan": scan, "scan_agrees": True}}
    assert _judge_one(op, _cli_result(json.dumps(doc)))[:2] == (0, True)
    doc["result"]["minrank"] = want + 1
    assert _judge_one(op, _cli_result(json.dumps(doc)))[:2] == (1, False)


def test_crash_counts_as_failed_but_not_wrong(workdir):
    op = _op(gen.make_ops("scan", 2, workdir, run.ROOT), "minrank-diag")
    failed, correct, _ = _judge_one(op, {"error": "timed out"})
    assert (failed, correct) == (1, True)


def test_untraced_run_leaves_no_wrapper_installed(workdir):
    op = _op(gen.make_ops("certify", 1, workdir, run.ROOT), "certify-n33")
    plain = run.run_op(op, False, workdir, 0, _env())
    assert plain["rc"] == 0 and plain["wrappers_left"] == 0 and "layers" not in plain
    traced = run.run_op(op, True, workdir, 1, _env())
    assert traced["rc"] == 0 and traced["wrappers_left"] == 0
    assert traced["layers"]["cli.self_s"] > 0
    assert traced["layers"]["strength.exclusion_s"] > 0
    assert traced["layers"]["minors.det_calls"] > 0


def test_tracer_replaces_every_binding_and_restores_it():
    import formstrength.certificates as certificates
    import formstrength.groebner as groebner
    import formstrength.poly as poly

    original = groebner.codimension
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # imported by name into certificates: that binding is wrapped too
        assert certificates.codimension is groebner.codimension
        assert getattr(certificates.codimension, tracing.MARK) == "groebner.dimension"
        assert tracing.installed_wrappers() > 0
        ring = poly.Ring.flat(2)
        x, y = ring.gens()
        groebner.codimension(groebner.Ideal(ring, [x * x, y * x]))
    finally:
        tracer.uninstall()
    assert groebner.codimension is original and certificates.codimension is original
    assert tracing.installed_wrappers() == 0
    layers = tracing.summarize(tracer.spans)
    assert layers["poly.mul_calls"] == 2
    assert layers["groebner.basis_calls"] == 1
    # codimension calls dimension: one outermost span for the layer
    assert sum(1 for s in tracer.spans if s[0] == "groebner.dimension") == 1


def test_witt_corrected_law_by_hand():
    # x1^2 + x2^2 is irreducible over F_3; x1^2 - x2^2 splits
    assert checks.witt_strength_f3(checks.diagonal_entries([[1, 0], [0, 1]], 3)) == 1
    assert checks.witt_strength_f3(checks.diagonal_entries([[1, 0], [0, 2]], 3)) == 0
    # x1*x2 has zero diagonal: the pair pivot still finds rank 2, split
    assert checks.witt_strength_f3(checks.diagonal_entries([[0, 2], [2, 0]], 3)) == 0
    assert checks.witt_strength_f3([]) == -1
    assert checks.witt_strength_f3([1, 1, 1]) == 1


def test_own_diagonalization_rank_matches_elimination():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((0, 0, 1, 2, 3, 4))
        assert len(checks.diagonal_entries(m, 5)) == checks.rank_mod_p(m, 5)


def test_complete_intersection_counts():
    # (1 - t^2)^2 / (1 - t)^2 = (1 + t)^2
    assert checks.complete_intersection_counts(2, [2, 2], 4) == [1, 2, 1, 0, 0]
    assert checks.standard_counts([(2, 0), (0, 2)], 2, 4) == [1, 2, 1, 0, 0]
    assert checks.codim_from_leads([(1, 1, 0)], 3) == 1
    assert checks.poly_degree("x1^2 + 3*x1*x2_3 - 4") == 2


def test_generator_is_seeded(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    runs = [gen.make_ops("systems", seed, str(d), run.ROOT) for seed, d in zip((7, 7, 8), dirs)]

    def files(ops):
        out = []
        for op in ops:
            with open(op["argv"][-1], encoding="utf-8") as fh:
                out.append(fh.read())
        return out

    a, b, c = (files(ops) for ops in runs)
    assert a == b
    assert a != c


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.METRICS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


class _SteadySampler(pace.Sampler):
    """Samples that always read 2 ms, as on a machine twice slower than the
    nominal one."""

    def sample(self):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.002:
            pass
        self.samples.append((time.perf_counter(), 0.002))


def _busy(seconds):
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass


def test_interval_subtracts_samples_and_scales_by_them():
    sampler = _SteadySampler()
    sampler.start()
    try:
        with pace.Interval(sampler) as iv:
            _busy(0.3)
    finally:
        sampler.stop()
    inside = [e for e, _ in sampler.samples[pace.BRACKET:-pace.BRACKET]]
    assert len(inside) >= 5
    assert iv.wall_s == pytest.approx(iv.elapsed_s - 0.002 * len(inside), abs=1e-3)
    assert iv.seconds == pytest.approx(iv.wall_s * pace.NOMINAL_S / 0.002)


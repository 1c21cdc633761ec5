"""Toy-size self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics and workloads the code
emits, that every workload at toy size emits every end-to-end metric with
tracing off and every per-layer metric with tracing on, and that a task given
a wrong known answer fails its task and makes the run incorrect.  Exits 1 on any failure.
"""

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# data_analysis needs 1000 decorrelated samples per task for the KS test
TOY_SCALE = {"na_sweep": 0.05, "trap_calibration": 0.05, "data_analysis": 0.3}
SEED = 7


def wrong_answers(name, inputs):
    from darkfocus.forces import QuarticCoefficients

    def tripled(c):
        return QuarticCoefficients(k_z=3 * c.k_z, k_rho_z=3 * c.k_rho_z, k_rho=3 * c.k_rho)

    if name == "na_sweep":
        return {"expected_na": 0.30}
    if name == "trap_calibration":
        return {"expected_coeffs": tripled(inputs["expected_coeffs"]),
                "expected_fc": 3 * inputs["expected_fc"]}
    return {"expected_coeffs": tripled(inputs["expected_coeffs"])}


def main():
    run._cap_threads()
    run._import_program()
    import spans
    import workloads

    errors = []

    def check(ok, message):
        if not ok:
            errors.append(message)
            print(f"FAIL {message}")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    check(per_layer == spans.PER_LAYER, "BENCHMARK.json per_layer != spans.PER_LAYER")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads != workloads.WORKLOADS")

    work = run.OUT / "selftest"
    for name, workload in workloads.WORKLOADS.items():
        scale = TOY_SCALE[name]
        for trace, units in ((0, end_to_end), (1, per_layer)):
            record = run.run(name, SEED, 2 * workload.nominal_task_s, trace,
                             scale=scale, work=work)
            emitted = record["metrics"]
            check({k: m["unit"] for k, m in emitted.items()} == units,
                  f"{name} trace={trace}: metric names or units differ")
            check(all(math.isfinite(m["value"]) for m in emitted.values()),
                  f"{name} trace={trace}: non-finite metric value")
            check(record["attempted"] == 2, f"{name} trace={trace}: expected 2 tasks")

        inputs = workload.setup(SEED, 2, run._fresh(work / "inputs"), scale)
        inputs.update(wrong_answers(name, inputs))
        _, _, outcomes = run.run_tasks(workload, inputs, run._fresh(work / "tasks"))
        for i, checks in enumerate(outcomes):
            for kind, reasons in (("failed", checks.failed), ("wrong", checks.wrong)):
                check(any("not within" in f for f in reasons),
                      f"{name} task {i}: wrong known answer not counted as {kind}: {reasons}")
        print(f"{name}: checked")
    shutil.rmtree(work, ignore_errors=True)
    if errors:
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()

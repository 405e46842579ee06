#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload named in BENCHMARK.json in --smoke mode (tiny shapes,
a second or two each), untraced and traced, and checks that:
  * the run exits 0 and its last stdout line is the result object with
    exactly the keys correct/attempted/failed/metrics, correct and no
    failed call;
  * the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each with the unit BENCHMARK.json
    gives;
  * sim_digest is identical between the traced and the untraced run.

Run from the root of the repository: python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("sim_digest "))
    return json.loads(lines[-1]), digest


def check(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: " \
                        f"missing {sorted(set(want) - set(got))}, " \
                        f"extra {sorted(set(got) - set(want))}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        plain, digest0 = run(name, 0)
        check(plain, spec["end_to_end"], f"{name} trace=0")
        traced, digest1 = run(name, 1)
        check(traced, spec["per_layer"], f"{name} trace=1")
        assert digest0 == digest1, f"{name}: {digest0} != {digest1}"
        print(f"ok {name} ({digest0})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

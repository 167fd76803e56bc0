"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Each run happens in its own interpreter, as the command in BENCHMARK.json
does: a traced run wraps engine classes for the rest of its process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((HERE / "workloads.json").read_text())["workloads"]

#: per-workload overrides that shrink set-up to well under a second
TINY = {
    "selection-50k": {"triggers": 400, "universe": 400, "cache_bytes": 65536,
                      "setups": 1, "warmup_s": 0.1},
    "join-durable": {"houses": 30, "band_triggers": 20, "setups": 1,
                     "warmup_s": 0.1},
    "remote-ingest": {"triggers": 400, "universe": 400, "setups": 1,
                      "warmup_s": 0.1},
}

RUN = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import run
print(json.dumps(run.run(*json.loads(sys.argv[1]))))
"""


def run_tiny(workload: str, trace: int):
    cfg = dict(CONFIG[workload], **TINY[workload])
    code = RUN.format(src=str(ROOT / "src"), here=str(HERE))
    done = subprocess.run(
        [sys.executable, "-c", code,
         json.dumps([workload, cfg, 3, 1.5, trace])],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    context, result = json.loads(done.stdout.strip().splitlines()[-1])
    return context["context"], result


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(CONFIG)


@pytest.mark.parametrize("workload", list(CONFIG))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    context, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        # In process every engine call goes through a wrapped entry point.
        # The remote server's connection threads also spend CPU time in
        # condition-variable hand-offs that no entry point covers.
        floor = 0.85 if workload == "remote-ingest" else 0.95
        share = result["metrics"]["bench.attributed_share"]["value"]
        assert floor <= share <= 1.0, share
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_refuses_a_checkout_without_sources(tmp_path):
    """Only BENCHMARK.json and perfbench/ present: exit non-zero, no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "join-durable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

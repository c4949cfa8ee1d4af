#!/usr/bin/env python3
"""Self-check of the benchmark: python3 perfbench/selfcheck.py

Runs one tiny-scale pass of every workload in BENCHMARK.json, untraced and
traced, and asserts that the result line carries exactly the metrics
BENCHMARK.json names, that every name matches [A-Za-z0-9_.-]+, and that no
run failed (fail_frac = failed / attempted = 0). It also checks that the
benchmark exits non-zero, without a result, when only BENCHMARK.json and the
benchmark's own files are present.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def result_line(args, cwd):
    out = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                         cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (lines[-1] if lines else ""), out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = [m["name"] for m in bench[key]]
            units = {m["name"]: m["unit"] for m in bench[key]}
            code, line, err = result_line(
                ["--workload", wl["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--scale", "1"], ROOT)
            tag = "%s trace=%s" % (wl["name"], trace)
            if code != 0:
                problems.append("%s: exit %d\n%s" % (tag, code, err[-2000:]))
                continue
            res = json.loads(line)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            got = res["metrics"]
            if sorted(got) != sorted(want):
                problems.append("%s: missing %s, unexpected %s" % (
                    tag, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            for name, m in got.items():
                if not NAME.match(name):
                    problems.append("%s: bad metric name %r" % (tag, name))
                if not isinstance(m.get("value"), (int, float)) or m.get("unit") != units.get(name):
                    problems.append("%s: bad metric %s = %r" % (tag, name, m))
            if res["attempted"] < 1 or res["failed"] != 0 or res["correct"] is not True:
                problems.append("%s: fail_frac %d/%d, correct=%s" % (
                    tag, res["failed"], res["attempted"], res["correct"]))
            print("%s: %d metrics, %d attempted, %d failed" % (
                tag, len(got), res["attempted"], res["failed"]))

    # Only BENCHMARK.json and the benchmark's files: must fail, print nothing.
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("target"))
    code, line, _ = result_line(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or line:
        problems.append("bare directory: exit %d, output %r" % (code, line))
    else:
        print("bare directory: exit %d, no result" % code)

    for p in problems:
        print("PROBLEM:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The svcd client stream is byte-identical for a fixed seed, across
   interpreter processes, and matches the pinned stream digests.
2. Traced and untraced runs of each scenario workload give identical
   cells (run.py --trace 1 compares them and fails otherwise).
3. The end-to-end command exits non-zero, with "correct": false, when a
   pinned output is altered.
4. Without the repository's sources the command exits non-zero and
   prints no result.

Takes about three minutes after the first build.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKDIR = os.path.join(run.BUILD, "selftest")


def bench(*args, cwd=run.ROOT):
    """Runs run.py; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-1500:])
    return proc.returncode, result


def stream_digest_in_subprocess(seed):
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"print(run.stream_digest(run.make_stream('churn', {seed})[1]))")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_stream_is_deterministic():
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    for seed in (42, 7):
        preload_a, stream_a = run.make_stream("churn", seed)
        preload_b, stream_b = run.make_stream("churn", seed)
        assert "\n".join(preload_a + stream_a) == \
            "\n".join(preload_b + stream_b), "stream differs in-process"
        digest = run.stream_digest(stream_a)
        assert stream_digest_in_subprocess(seed) == digest, \
            "stream differs across interpreter processes"
        # A run's first stream is the one of its own seed.
        pinned = expected["svcd_churn"][str(seed)][str(seed)]["stream_sha256"]
        assert pinned == digest, f"seed {seed}: stream differs from the pin"
    assert run.make_stream("churn", 42)[1] != run.make_stream("churn", 7)[1]


def test_traced_cells_match_untraced():
    rc, result = bench("--workload", "fig7_online", "--seed", "42",
                       "--trace", "1")
    assert rc == 0 and result and result["correct"], \
        f"fig7_online: traced run failed its checks (exit {rc})"


def altered_expected(mutate):
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    mutate(expected)
    path = os.path.join(WORKDIR, "expected_altered.json")
    with open(path, "w") as f:
        json.dump(expected, f)
    return path


def test_altered_pin_fails():
    def bump_cell(expected):
        # A cell of the run's first sub-seed, the seed itself: a short run
        # measures only that one.
        cells = expected["fig7_online"]["42"]
        label = next(k for k in cells if k.startswith("42/"))
        cells[label][0]["accepted"] += 1

    def flip_digest(expected):
        pins = expected["svcd_churn"]["42"]["42"]
        pins["decisions_sha256"] = pins["decisions_sha256"][::-1]

    for workload, mutate in (("fig7_online", bump_cell),
                             ("svcd_churn", flip_digest)):
        path = altered_expected(mutate)
        rc, result = bench("--workload", workload, "--seed", "42",
                           "--seconds", "10", "--expected", path)
        assert rc != 0, f"{workload}: exit 0 despite an altered pin"
        assert result is not None and result["correct"] is False, \
            f"{workload}: result not marked incorrect"


def test_fails_without_sources():
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    rc, result = bench("--workload", "svcd_churn", "--seed", "1",
                       cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and result is None, "ran without the program's sources"


def main():
    os.makedirs(WORKDIR, exist_ok=True)
    failures = 0
    for test in (test_stream_is_deterministic, test_fails_without_sources,
                 test_altered_pin_fails, test_traced_cells_match_untraced):
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except AssertionError as e:
            failures += 1
            print(f"FAIL {test.__name__}: {e}", flush=True)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

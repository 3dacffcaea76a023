#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <sweep|closed|open|lanes> \
        --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result object. Build output goes
to standard error. The build lands in $CARGO_TARGET_DIR, or in
perfbench/target when it is unset.

    python3 perfbench/run.py --record-references <first-seed> <count>

re-records perfbench/references.tsv: the digest of each workload's model
output for each seed in the range.
"""

import json
import os
import subprocess
import sys

HERE = "perfbench"
WORKLOADS = ["sweep", "closed", "open", "lanes"]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir("crates"):
        fail("run from the repository root: perfbench/Cargo.toml and crates/ are needed")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "perfbench")


def record_references(first, count):
    binary = build()
    lines = ["# workload\tseed\tdigest (FNV-1a of the Debug text of the full model output)"]
    for workload in WORKLOADS:
        for seed in range(first, first + count):
            args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
            out = subprocess.run([binary] + args, capture_output=True, text=True, check=True)
            diagnostics = json.loads(out.stdout.strip().splitlines()[-2])["diagnostics"]
            lines.append(f"{workload}\t{seed}\t{diagnostics['digest']}")
            print(lines[-1], file=sys.stderr)
    with open(os.path.join(HERE, "references.tsv"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--record-references":
        record_references(int(sys.argv[2]), int(sys.argv[3]))
        return 0
    binary = build()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build perfbench from source, then run one workload of it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

The first call configures and builds into .bench_build/perfbench (the
simulator library comes from ./src); later calls only re-check the
build. The binary's stdout passes through, and its last line is the
result JSON. Its stderr, which carries the simulator's own diagnostic
prints, goes to .bench_build/perfbench-run/<workload>.stderr, so how
the caller handles stderr cannot change what is timed.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD = Path(".bench_build") / "perfbench"
RUN = Path(".bench_build") / "perfbench-run"
RUN_TIMEOUT_S = 170


def build(source: Path) -> None:
    if not (source.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at ./src")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)  # configured for another source tree
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(source), "-B", str(BUILD),
                        *generator, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench"], stdout=sys.stderr, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-cold", "whatif"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build(Path(__file__).resolve().parent)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    RUN.mkdir(parents=True, exist_ok=True)
    log = RUN / f"{args.workload}.stderr"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REDSOC_")}
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(RUN)]
    with open(log, "wb") as err:
        try:
            proc = subprocess.run(cmd, stderr=err, env=env,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    if proc.returncode != 0:
        lines = [l for l in log.read_text(errors="replace").splitlines()
                 if not l.startswith("PRUNE-")]
        print("\n".join(lines[-20:]), file=sys.stderr)
        return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())

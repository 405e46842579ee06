#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the simulator plus the benchmark binary with CMake
under $CARGO_TARGET_DIR (default: .bench_build) in the working directory,
then runs the binary. Build output goes to stderr; the binary's stdout is
passed through, so the last stdout line is the benchmark's JSON result.
Further flags (--smoke) go to the binary unchanged.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Environment switches that change what the simulator runs; the benchmark
# defines its inputs itself.
SCRUBBED_ENV = ("SRM_SYMBOLIC", "SRM_SV_SELFCHECK", "SRM_DECISIONS",
                "SRM_EXPLORE_SEED")


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    # A cache configured from another source tree cannot be reused.
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(build_dir)
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main() -> int:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root.resolve())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    return subprocess.run([str(binary), *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

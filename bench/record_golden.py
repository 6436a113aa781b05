"""Rewrite bench/golden.json from the current source tree: python3 bench/record_golden.py

golden.json pins the exit code and stdout SHA-256 of every exact-output CLI
call of the cli_calls workload, and the class populations of the census
slots of class_sweep. The benchmark counts an op whose output differs as
failed, so re-record only when an output change is intended, and say so.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from patprob.patterns import census  # noqa: E402


def main() -> int:
    launcher = workloads.CliLauncher(ROOT)
    cli = {}
    for argv in workloads.CLI_GOLDEN_ARGS:
        code, stdout = launcher.call(argv)
        if argv[0] == "simulate":
            # seeded but checked by its band, so a new stream is not locked out
            if code != 0 or not workloads.simulate_band_ok(stdout):
                raise SystemExit(f"simulate call {argv} failed its band check")
            cli[" ".join(argv)] = {"exit": code, "sha256": None, "bytes": len(stdout)}
        else:
            cli[" ".join(argv)] = {
                "exit": code,
                "sha256": hashlib.sha256(stdout).hexdigest(),
                "bytes": len(stdout),
            }
    golden = {
        "cli": cli,
        "census": {
            f"{n},{L}": workloads.census_digest(census(n, L))
            for n, L in workloads.SWEEP_CENSUS_SLOTS
        },
    }
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

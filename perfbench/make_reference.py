"""Write the reference artifacts the benchmark compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI command once at the default seed and copies
its artifact CSV to perfbench/reference/<workload>.csv.  Only a change
that is meant to move the numbers (a different discrete model, say)
should rerun this, and it says so.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import CLI, ROOT, WORK, child_env
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            config = Path(workdir) / "config.json"
            config.write_text(json.dumps(workload.config(DEFAULT_SEED)))
            out = Path(workdir) / "out"
            subprocess.run([sys.executable, "-c", CLI, workload.command,
                            "--config", str(config), "--output", str(out),
                            "--threads", str(workload.threads)],
                           check=True, env=child_env(), cwd=ROOT)
            shutil.copyfile(out / workload.artifact,
                            REFERENCE_DIR / f"{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

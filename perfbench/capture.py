"""Write reference.json from the current code: the values every job is checked against.

Usage: python3 perfbench/capture.py

Run it from the root of a checkout when a change alters an output on purpose,
and say in that change which values moved and why.  One job per workload and
size is captured.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEEP = {
    "quintic-certify": ("ball_size", "eps_hat", "c_hat"),
    "octic-limitset": ("samples", "kinds"),
    "sym3-lyapunov": ("n_discarded",),
    "quintic-cusp-search": ("witness",),
}


def capture(size, workdir):
    import workloads

    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(size, workdir)
        workload.setup()
        obs = workload.observe(workload.run())
        print(f"{size} {name}: { {k: v for k, v in obs.items() if k != 'sha256'} }",
              file=sys.stderr)
        refs[name] = {key: obs[key] for key in KEEP[name]}
        refs[name]["sha256"] = obs["sha256"]
        if workload.check(obs, refs[name]):
            raise SystemExit(f"{name}: output fails its own checks: {workload.check(obs, refs[name])}")
    return refs


def main():
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / "capture"
    try:
        refs = {size: capture(size, workdir) for size in ("full", "smoke")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Regenerate the simulated-output digests without timing or checks:

    python3 simbench/digest.py --seed 0
    python3 simbench/digest.py --seed 0 --workload overload --src /path/to/other/checkout/src

Prints the same ``digest`` lines as ``run.py``: per operation, a hash of its
``summary.csv`` row and of its ``decisions.csv``, then one per workload. A
change that only makes the program faster leaves every line unchanged; a
change to the model shows up as a diff that the change has to explain.
``--src`` points at the ``src`` directory of another checkout, so the digests
of any commit can be compared with these.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads
from run import OUT, SRC, digest_lines, op_digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeatable; all workloads when omitted")
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding the msra package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "msra" / "__init__.py").is_file():
        raise SystemExit(f"error: no msra package under {src}")
    sys.path.insert(0, str(src))
    import msra

    for workload in args.workload or workloads.WORKLOADS:
        digests = []
        for op in workloads.build(msra, workload, args.seed):
            out_dir = OUT / "digest" / workload / f"{op.profile}-seed{op.cfg.seed}"
            reports = msra.harness.run_experiment(op.cfg, [op.profile])
            msra.harness.export(reports, str(out_dir), export_timeseries=op.export_timeseries)
            digests.append((op.profile, op.cfg.seed, op_digest(out_dir, op.profile)))
        print("\n".join(digest_lines(workload, digests)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

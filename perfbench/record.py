"""Record the reference values the benchmark checks against, at the commit
whose outputs are the reference:

    python3 perfbench/record.py > perfbench/reference.json

It records the sinh optimize results (checked to 1e-12 relative), the sinh
bias pair that yield_adder_sinh uses (the joint B1:T1 + T1:B1 optimum at
zero set width), and sha256 digests of the yield_nand CLI JSON and
per-trial CSV bytes: one for a fixed-seed canary run and one per workload
seed in 0..127 for the full pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import common

CANARY = {"cli_seed": 20151, "trials": 200}
NAND_SEEDS = 128


def main() -> int:
    common.pin_threads()
    common.import_implogic()
    import workloads as wl

    common.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=common.OUT_DIR))
    try:
        opt = wl.OptimizeBias({})
        state = opt.setup(0, workdir)
        sinh = {case: wl.summarize_optimize(call())
                for case, call in zip(wl.SINH_CASES, opt.calls(state))}
        joint = sinh["joint"]

        nand = wl.YieldNand({})
        by_seed = {}
        for seed in range(NAND_SEEDS):
            state = nand.setup(seed, workdir)
            calls = nand.calls(state)
            result = wl.run_calls(calls, range(len(calls)), calibrated=False)
            by_seed[str(seed)] = wl.nand_digest(nand.collect(state, result.outputs))
            sys.stderr.write(f"\ryield_nand seed {seed + 1}/{NAND_SEEDS}")
        sys.stderr.write("\n")
        canary = dict(CANARY, sha256=nand.canary_digest(state, **CANARY))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = {
        "recorded_at": {"commit": common.git_commit(),
                        "source_sha256": common.source_digest()},
        "sinh_bias": {"v_p": joint["v_p"], "i_l": joint["load"]},
        "sinh_optimize": sinh,
        "yield_nand": {"canary": canary, "sha256_by_seed": by_seed},
    }
    json.dump(reference, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

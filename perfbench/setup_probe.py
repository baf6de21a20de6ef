"""Time, in this fresh interpreter, importing spintherm and building a workload's operators.

    python3 perfbench/setup_probe.py RUN_ARGS_JSON

RUN_ARGS_JSON is the `spintherm run` argument list of the workload.  The
probe resolves it to run configurations the way the command line does, then
calls build_hamiltonian for the system and build_trotter_circuit for the
scrambler at every chain length of every variant, as a run does.  It prints
one JSON object with the elapsed seconds.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spintherm  # noqa: E402,F401
from spintherm import cli  # noqa: E402
from spintherm.hamiltonian import build_hamiltonian  # noqa: E402
from spintherm.state_prep import build_trotter_circuit  # noqa: E402


def configs(run_args: list[str]) -> list:
    if "--config" in run_args:
        cfgs = [cli.load_config(run_args[run_args.index("--config") + 1])]
    else:
        cfgs = cli.preset_variants(run_args[run_args.index("--preset") + 1])
    if "--L" in run_args:
        L_list = tuple(int(p) for p in run_args[run_args.index("--L") + 1].split(","))
        cfgs = [dataclasses.replace(c, L_list=L_list) for c in cfgs]
    return cfgs


def main() -> None:
    built = 0
    for cfg in configs(json.loads(sys.argv[1])):
        for L in cfg.L_list:
            build_hamiltonian(dataclasses.replace(cfg.system, L=L))
            built += 1
            if cfg.init_class == "trotter_rpps":
                build_trotter_circuit(dataclasses.replace(cfg.trotter, L=L), cfg.tau, cfg.reps_for(L))
                built += 1
    print(json.dumps({"setup_s": time.perf_counter() - T0, "built": built}))


if __name__ == "__main__":
    main()

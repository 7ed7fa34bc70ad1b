"""The benchmark's workloads: one nfinv manifest per (workload, seed).

The seed is the manifest seed, so it draws the noise realisation, the
network initialisation and the SVD sketch; the program receives only the
manifest built here.
"""

from __future__ import annotations

WORKLOADS = ("tomo-nfs", "dcr-nfs-full", "dcr-gn")

# The network workloads run fixed epoch budgets.  On tomo-nfs the epoch at
# which desk case 1 first reaches chi2/N <= 1.05 ranges from 38 to 148 over
# seeds 0-7, so a target stop would make invert_s a measure of the seed; case
# 3 stays far above its noise level for any budget that fits in a run.
TOMO_EPOCHS = 100
DCR_FULL_EPOCHS = 10
SVD_K = 10


def manifest(workload: str, seed: int) -> dict:
    # imported here: run.py puts src/ on the path only after its checks
    from nfinv.manifest import default_manifest
    if workload == "tomo-nfs":
        man = default_manifest(1, "nfs", seed)
        man["epochs"] = TOMO_EPOCHS
        man["svd"] = {"k": SVD_K, "mode": "auto"}
    elif workload == "dcr-nfs-full":
        man = default_manifest(3, "nfs", seed, desk_scale=False)
        man["epochs"] = DCR_FULL_EPOCHS
    elif workload == "dcr-gn":
        man = default_manifest(3, "conventional", seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return man

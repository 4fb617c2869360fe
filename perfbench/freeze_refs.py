"""Rewrite quotient_refs.json from the current quiverdyn.

    PYTHONPATH=src python3 perfbench/freeze_refs.py

The references are the outputs of build_quoq on the quotient-enum base
networks, taken as correct; refreeze only at a commit whose quotient
quivers are trusted (criterion 2 passing is the minimum).
"""

import json
import os

from quiverdyn.builders import build_quoq

import workloads

if __name__ == "__main__":
    refs = {}
    for key, N in sorted(workloads.QuotientEnum.base_networks().items()):
        quiver, rep, _, _ = build_quoq(N)
        refs[key] = {"vertices": len(quiver.vertices),
                     "arrows": len(quiver.arrows),
                     "digest": workloads.quoq_digest(quiver, rep)}
    with open(os.path.join(workloads.HERE, "quotient_refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")

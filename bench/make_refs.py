"""Regenerate the correctness-gate references under ``bench/refs/``.

Run from the repository root on the commit whose outputs are the
reference (the references in the tree come from the commit that added
this benchmark)::

    python3 bench/make_refs.py
"""
from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys

from run import ROOT, SRC, invoke
from workloads import REFS, WORKLOADS, seeded_building


def _write_gzip(path, text: str) -> None:
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import qubdoe.cli as cli

    REFS.mkdir(exist_ok=True)
    tmp = ROOT / ".bench_tmp" / "make_refs"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outputs = {}
        for name, workload in WORKLOADS.items():
            building = tmp / workload.building
            building.write_text(seeded_building(SRC / "qubdoe" / "data" / workload.building, 0),
                                encoding="utf-8")
            chain = workload.argv_chain(building, tmp)
            outputs[name] = workload.collect(invoke(cli, chain), tmp)
    finally:
        shutil.rmtree(tmp)

    _write_gzip(REFS / "sweep-bungalow.csv.gz", outputs["sweep-bungalow"]["stdout.0"])
    (REFS / "optimum-house.txt").write_text(outputs["optimum-house"]["stdout.0"],
                                            encoding="utf-8")
    trace = outputs["trace-bungalow"]["trace.csv"]
    _write_gzip(REFS / "trace-bungalow.csv.gz", trace)
    ref = {
        "trace_sha256": hashlib.sha256(trace.encode("utf-8")).hexdigest(),
        "estimate": outputs["trace-bungalow"]["stdout.1"],
    }
    (REFS / "trace-bungalow.json").write_text(json.dumps(ref, indent=1) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

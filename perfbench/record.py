"""Record the reference outputs every benchmark study is checked against.

Runs each workload's recorded scenarios once and writes, per scenario,
the SHA-256 of every CSV file and the metric medians to
perfbench/reference.json. Run it only on the commit whose outputs define
correct behaviour:

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import sparsebeam as sb

from workloads import REFERENCE, ROOT, WORKLOADS, csv_digests, medians


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            base = sb.parse_config(workload.config_path)
            scenarios = []
            for index in range(workload.scenarios):
                out = Path(tmp) / f"{workload.name}-{index}"
                report = sb.run_experiment(workload.study(base, index, out))
                if report.total_failures:
                    raise SystemExit(f"{workload.name} scenario {index}: {report.failures}")
                scenarios.append({"csv_sha256": csv_digests(out), "medians": medians(report)})
                print(f"{workload.name} scenario {index} recorded", flush=True)
            reference[workload.name] = scenarios
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Opt-in long-running mode: extend the scan toward k <= 3000.

Not part of the default test suite. Work proceeds in chunks of k so the
checkpoint file stays useful; re-running with the same arguments resumes
from the report in the output directory and skips completed (k, N) pairs.
Exit codes: 0 when every chunk is consistent, 1 when a splitting turns up
at a nontrivial order, 2 when a chunk report does not load or does not
belong to its chunk.

Usage: python scripts/long_scan.py --k-max 3000 --out-dir longrun
"""

import argparse
import os
import sys
import time
from pathlib import Path

from abelsplit import certio
from abelsplit.scan import scan
from abelsplit.search import SearchConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-min", type=int, default=1)
    parser.add_argument("--k-max", type=int, default=3000)
    parser.add_argument("--chunk", type=int, default=50, help="k values per chunk")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--node-limit", type=int, default=10**8)
    parser.add_argument("--time-limit", type=float, default=600.0,
                        help="seconds per (N, k) instance")
    parser.add_argument("--out-dir", type=Path, default=Path("longrun"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    config = SearchConfig(node_limit=args.node_limit, time_limit_s=args.time_limit)

    for lo in range(args.k_min, args.k_max + 1, args.chunk):
        hi = min(lo + args.chunk - 1, args.k_max)
        report_path = args.out_dir / f"scan_k{lo}-{hi}.json"

        def checkpoint(partial):
            certio.write_document(report_path, certio.scan_report_to_doc(partial))

        started = time.monotonic()
        try:
            resume = None
            if report_path.exists():
                resume = certio.scan_report_from_doc(certio.read_document(report_path))
            report = scan(lo, hi, config=config, jobs=args.jobs,
                          resume=resume, checkpoint=checkpoint)
        except (OSError, certio.DocumentError, ValueError) as exc:
            print(f"error: {report_path}: {exc}", file=sys.stderr, flush=True)
            return 2
        certio.write_document(report_path, certio.scan_report_to_doc(report))
        certio.write_text(args.out_dir / f"scan_k{lo}-{hi}.csv", certio.scan_report_table(report))
        print(f"k={lo}..{hi}: overall={report.overall} "
              f"records={report.totals['records']} found={report.totals['found']} "
              f"inconclusive={report.totals['inconclusive']} "
              f"wall={time.monotonic() - started:.1f}s", flush=True)
        if report.overall == "violation":
            print("splitting found at a nontrivial order; see the report", flush=True)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build quarterly innovation indices from synthetic patent grant events.

Generates a plausible event file (grant dates, green flags, announcement
window returns, market caps), runs the valuation filter plus quarterly
aggregation through the CLI, and prints the index statistics. The output
index.csv feeds directly into the estimation pipeline as a panel.

Usage: python scripts/patent_index_demo.py [--out DIR] [--events N]
"""

import argparse
import datetime as dt
import json
import sys
from pathlib import Path

import numpy as np

from newsvar import cli


def write_events(path: Path, count: int, seed: int) -> None:
    # arrivals dense enough that both flags appear in every quarter,
    # otherwise growth rates of the quarterly sums are undefined
    rng = np.random.default_rng(seed)
    day = dt.date(1961, 1, 15)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("grant_date,firm_id,green,window_return,market_cap\n")
        for i in range(count):
            day += dt.timedelta(days=int(rng.integers(1, 6)))
            firm = f"firm{int(rng.integers(0, 40))}"
            green = int(rng.uniform() < 0.35)
            ret = float(0.004 * rng.standard_normal() + 0.001)
            cap = float(np.exp(rng.normal(22.0, 1.0)))
            fh.write(f"{day},{firm},{green},{ret!r},{cap!r}\n")


def write_inputs(out: Path, count: int, seed: int) -> None:
    """Write ``count`` events to ``events.csv`` and the ``run.yaml`` that
    indexes them into ``out``."""
    write_events(out / "events.csv", count, seed)
    (out / "run.yaml").write_text(
        "out: .\nseed: 0\nindex:\n  events: events.csv\n"
        "  sigma_v: 0.02\n  sigma_e: 0.02\n",
        encoding="utf-8",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="index_out")
    parser.add_argument("--events", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(out, args.events, args.seed)
    code = cli.main(["index", "--config", str(out / "run.yaml")])
    if code != 0:
        return code
    stats = json.loads((out / "index_stats.json").read_text())
    print(f"level correlation:  {stats['level_correlation']}")
    print(f"growth correlation: {stats['growth_correlation']}")
    print(f"mean green/non-green ratio: {stats['mean_ratio']}")
    print(f"index written to {out / 'index.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark's input pools with reference digests and costs.

    python3 bench/record.py

Run once, at the commit whose outputs are the reference; it rewrites
bench/reference.json.  Every pool item is called once per command with
--workers 1, in three passes over the pool, exactly as bench/run.py calls
it.  The digest is the SHA-256 of the printed output, which must agree
across passes; cost_s is the median over passes of the item's summed call
times at nominal speed (run.scaled).  The runner groups items by cost_s so
that every run gets the same mix of sizes.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import run
import workloads

PASSES = 3
# crossings -> indices of the pool diagrams of that size.  statesum keeps one
# c = 16 diagram, the one with the largest peak memory: every run draws one
# diagram of the largest size, and it alone sets the run's peak_rss_mb.
STATESUM_SIZES = {12: range(32), 13: range(24), 14: range(16), 15: range(8), 16: (2,)}
SURFACES_SIZES = {40: range(24), 60: range(16), 80: range(12), 100: range(8),
                  120: range(8), 160: range(4), 200: range(4)}
CHECK_SEEDS = range(120)
CHECK_COUNT = 2


def diagram_items(sizes: dict, base: int) -> list[dict]:
    from polebracket.codes import random_diagram, serialize

    items = []
    for c, indices in sizes.items():
        for j in indices:
            gen_seed = base + 1000 * c + j
            rng = random.Random(gen_seed)
            bars, comps = rng.randrange(5), rng.randrange(1, 3)
            text = serialize(random_diagram(gen_seed, c, bars, components=comps))
            items.append(
                {"key": f"c{c}-{j:02d}", "crossings": c, "bars": bars,
                 "components": comps, "text": text}
            )
    return items


def measure(cli, workload: str, items: list[dict]) -> None:
    ops = [(it, cmd) for it in items for cmd in workloads.COMMANDS[workload]]
    passes = [run.run_ops(cli, ops) for _ in range(PASSES)]
    costs: dict = {}
    for i, (item, cmd) in enumerate(ops):
        outs = {p[3][i] for p in passes}
        if len(outs) != 1 or any(p[2][i] != 0 for p in passes) or "FAIL" in next(iter(outs)):
            raise SystemExit(f"{workload} {item['key']} {cmd}: failed or not deterministic")
        item.setdefault("digest", {})[cmd] = workloads.digest(outs.pop())
        costs.setdefault(item["key"], [0.0] * PASSES)
        for k, (lat, cals, _codes, _outs) in enumerate(passes):
            costs[item["key"]][k] += run.scaled(lat, cals)[i]
    for item in items:
        item["cost_s"] = round(statistics.median(costs[item["key"]]), 4)


def main() -> None:
    cli = workloads.import_program()
    pools = {
        "statesum": diagram_items(STATESUM_SIZES, 7_000_000),
        "surfaces": diagram_items(SURFACES_SIZES, 8_000_000),
        "check": [{"key": f"s{s:03d}", "seed": s, "count": CHECK_COUNT} for s in CHECK_SEEDS],
    }
    for workload, items in pools.items():
        t0 = time.perf_counter()
        measure(cli, workload, items)
        print(f"{workload}: {len(items)} items, {time.perf_counter() - t0:.1f} s", flush=True)
    ref = {"recorded": workloads.environment(), "pools": pools}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
